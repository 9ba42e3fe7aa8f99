"""Maximal bicliques and stars of any graph, exact chromatic search, and
the P3 / block analysis.

The maximal bicliques and stars are listed by graphs.maximal_family, as
are the power graphs' families, with work that grows with the candidates
(graphs.maximal_cb_candidates, maximal_star_candidates), not with the 2^n
vertex subsets, and each candidate is checked against the whole graph.  A
colouring is checked by searching each colour class, not by listing the
family (graphs.smallest_maximal_inside).  The tests hold both to the
exhaustive subset scan.  graphs.check_cap caps the enumerations at
SUBSET_SCAN_CAP vertices and the backtracking search at SEARCH_CAP;
nothing is kept between calls.  It imports graphs alone.
"""

from __future__ import annotations

from itertools import groupby

from .graphs import (
    Biclique,
    Colouring,
    Graph,
    SUBSET_SCAN_CAP,
    check_cap,
    check_choices,
    colour_classes,
    colour_tuple,
    cyclic_reach,
    induced_p3s,
    maximal_family,
    maximal_masks,
    smallest_maximal_inside,
)

SEARCH_CAP = 14       # exact chromatic backtracking


def check_scan_cap(n: int, mode: str = "biclique") -> None:
    """InputError for an unknown mode, then CapacityError if the
    enumerations would refuse a graph on n vertices; callers can check
    before they allocate its rows."""
    check_choices(mode=mode)
    check_cap("subset scan", "n", n, SUBSET_SCAN_CAP)


def maximal_bicliques(g: Graph) -> list[Biclique]:
    """All maximal complete-bipartite vertex sets of g (>= 1 edge each),
    sorted by vertex list, with their shape (graphs.maximal_family);
    n <= SUBSET_SCAN_CAP."""
    check_scan_cap(g.n)
    return maximal_family(g.adj, "biclique")


def maximal_stars(g: Graph) -> list[tuple[int, ...]]:
    """All maximal induced-star vertex sets of g, sorted.  Maximality is
    under inclusion among stars, so a P3 inside a C4 still counts."""
    check_scan_cap(g.n, "star")
    return maximal_family(g.adj, "star")


def verify_colouring(g: Graph, colouring, mode: str = "biclique"):
    """None if no maximal biclique (mode "biclique") or star of g is
    monochromatic, else the lexicographically smallest monochromatic one,
    the least of the colour classes' own; n <= SUBSET_SCAN_CAP.
    powers.first_mono_set checks a power of a path or cycle past that cap."""
    colours = colour_tuple(colouring, g.n)
    check_scan_cap(g.n, mode)
    sets = smallest_maximal_inside(g.adj, mode,
                                   colour_classes(colours).values())
    return min(sets, default=None)


# ---------------------------------------------------------------------------
# exact chromatic search

def exact_chromatic(g: Graph, mode: str = "biclique") -> tuple[int, Colouring]:
    """Least c admitting a colouring with no monochromatic hyperedge, with
    one such colouring.  Backtracking over canonical colourings: vertex 0 is
    fixed to colour 0 and a vertex may use at most one colour id beyond those
    already in use, which breaks colour-permutation symmetry.  Each maximal
    set's mask is filed under its highest vertex v, and colour col is
    refused for v when one of them lies inside col's class mask with v."""
    check_choices(mode=mode)
    check_cap("exact search", "n", g.n, SEARCH_CAP)
    if g.n == 0:
        return 0, Colouring((), 0)
    n = g.n
    by_last: list[list[int]] = [[] for _ in range(n)]
    for m in maximal_masks(g.adj, mode, (1 << n) - 1):
        by_last[m.bit_length() - 1].append(m)
    colours = [0] * n
    classes = [0] * n  # the vertex mask of each colour id

    def search(v: int, used: int, limit: int) -> bool:
        if v == n:
            return True
        for col in range(min(used + 1, limit)):
            cls = classes[col] | 1 << v
            if any(m & cls == m for m in by_last[v]):
                continue
            classes[col] = cls
            colours[v] = col
            if search(v + 1, max(used, col + 1), limit):
                return True
            classes[col] = cls ^ 1 << v
        return False

    for c in range(1, g.n + 1):
        if search(0, 0, c):
            found = tuple(colours)
            assert max(found) + 1 == c  # ascending c makes the first hit tight
            return c, Colouring(found, c)
    raise AssertionError("all-distinct colouring must always succeed")


# ---------------------------------------------------------------------------
# monochromatic-P3 and block analysis

def find_mono_p3(g: Graph, colouring, reach_in=None):
    """First (by vertex triple) monochromatic induced P3 with its reach, or
    None.  Reach is the sum of the cyclic distances (g.n as the cycle
    length) from the centre to the two ends, meaningful when g is a power
    of a cycle; pass reach_in to restrict the search to specific reach
    values.  The P3s come from graphs.induced_p3s, walked inside each
    vertex's colour class in increasing (a, b, c), and the search stops
    at the first hit."""
    colours = colour_tuple(colouring, g.n)
    wanted = None if reach_in is None else set(reach_in)
    n = g.n
    classes = colour_classes(colours)
    within = [classes[col] for col in colours]
    for a, b, c, centre in induced_p3s(g.adj, within):
        reach = (cyclic_reach(n, centre, a) + cyclic_reach(n, centre, b)
                 + cyclic_reach(n, centre, c))
        if wanted is None or reach in wanted:
            return (a, b, c), reach
    return None


def block_profile(colouring, cyclic: bool = True) -> list[tuple[int, int]]:
    """Maximal monochromatic runs as (colour, size) in index order.

    In cyclic mode a wrap-around run (first and last runs sharing a colour)
    is merged into one block, reported at the position of the trailing run.
    """
    colours = getattr(colouring, "colours", colouring)
    runs = [(c, len(list(grp))) for c, grp in groupby(colours)]
    if cyclic and len(runs) >= 2 and runs[0][0] == runs[-1][0]:
        merged = (runs[0][0], runs[0][1] + runs[-1][1])
        runs = runs[1:-1] + [merged]
    return runs
