"""Maximal bicliques and stars of any graph, exact chromatic search, and
the P3 / block analysis.

The maximal bicliques and stars are enumerated with work that grows with
the number of candidates rather than with the 2^n vertex subsets
(graphs.maximal_cb_candidates, graphs.maximal_star_candidates), and each
candidate is checked against the whole graph.  A colouring is checked by
searching each colour class, not by listing the family
(graphs.smallest_maximal_inside).  The tests hold both, and the power-graph
families that run the same enumeration, to the exhaustive subset scan.
The enumerations are capped at SUBSET_SCAN_CAP vertices, the backtracking
search at SEARCH_CAP; nothing is kept between calls.
"""

from __future__ import annotations

from itertools import groupby

from .colouring import Colouring, colour_tuple
from .graphs import (
    CapacityError,
    Graph,
    InputError,
    SUBSET_SCAN_CAP,
    cb_shape,
    colour_classes,
    induced_p3s,
    is_maximal_cb,
    maximal_cb_candidates,
    maximal_masks,
    smallest_maximal_inside,
    vertices_of,
)
from .powers import Biclique, cyclic_reach

SEARCH_CAP = 14       # exact chromatic backtracking


def check_scan_cap(n: int, mode: str = "biclique") -> None:
    """InputError for an unknown mode, then CapacityError if the
    enumerations would refuse a graph on n vertices; callers can check
    before they allocate its rows."""
    if mode not in ("biclique", "star"):
        raise InputError(f"unknown mode {mode!r}")
    if n > SUBSET_SCAN_CAP:
        raise CapacityError(
            f"subset scan is capped at n <= {SUBSET_SCAN_CAP}, got n={n}")


def maximal_bicliques(g: Graph) -> list[Biclique]:
    """All maximal complete-bipartite vertex sets of g (>= 1 edge each),
    sorted by vertex list.  Enumerated from (v0, B, A') triples with A' a
    maximal independent set (graphs.maximal_cb_candidates), each checked
    against the whole graph by is_maximal_cb; n <= SUBSET_SCAN_CAP.
    tuple.__new__ skips the records' Python-level __new__."""
    check_scan_cap(g.n)
    adj, new = g.adj, tuple.__new__
    out = [new(Biclique, (vertices_of(m), cb_shape(*sides), None))
           for sides in maximal_cb_candidates(adj, (1 << g.n) - 1)
           if is_maximal_cb(adj, m := sides[0] | sides[1], sides)]
    out.sort()  # by vertices: no two records share them
    return out


def _maximal_sets(g: Graph, mode: str) -> list[tuple[int, ...]]:
    """The maximal bicliques (mode "biclique") or stars of g as sorted
    vertex tuples, sorted, from graphs.maximal_masks with no record built."""
    check_scan_cap(g.n, mode)
    return sorted(map(vertices_of, maximal_masks(g.adj, mode, (1 << g.n) - 1)))


def maximal_stars(g: Graph) -> list[tuple[int, ...]]:
    """All maximal induced-star vertex sets of g, sorted.  Maximality is
    under inclusion among stars, so a P3 inside a C4 still counts."""
    return _maximal_sets(g, "star")


def verify_colouring(g: Graph, colouring, mode: str = "biclique"):
    """None if no maximal biclique (mode "biclique") or star of g is
    monochromatic, else the lexicographically smallest monochromatic one,
    the least of the colour classes' own; n <= SUBSET_SCAN_CAP.
    powers.first_mono_set checks a power of a path or cycle past that cap."""
    colours = colour_tuple(colouring, g.n)
    check_scan_cap(g.n, mode)
    sets = smallest_maximal_inside(g.adj, mode, colour_classes(colours))
    return min(sets, default=None)


# ---------------------------------------------------------------------------
# exact chromatic search

def exact_chromatic(g: Graph, mode: str = "biclique") -> tuple[int, Colouring]:
    """Least c admitting a colouring with no monochromatic hyperedge, with
    one such colouring.  Backtracking over canonical colourings: vertex 0 is
    fixed to colour 0 and a vertex may use at most one colour id beyond those
    already in use, which breaks colour-permutation symmetry."""
    if g.n > SEARCH_CAP:
        raise CapacityError(
            f"exact search is capped at n <= {SEARCH_CAP}, got n={g.n}")
    if g.n == 0:
        return 0, Colouring((), 0)
    by_last: list[list[tuple[int, ...]]] = [[] for _ in range(g.n)]
    for vs in _maximal_sets(g, mode):
        by_last[vs[-1]].append(vs)

    colours = [-1] * g.n

    def violates(v: int) -> bool:
        col = colours[v]
        for vs in by_last[v]:
            if all(colours[u] == col for u in vs):
                return True
        return False

    n = g.n

    def search(v: int, used: int, limit: int) -> bool:
        if v == n:
            return True
        for col in range(min(used + 1, limit)):
            colours[v] = col
            if not violates(v) and search(v + 1, max(used, col + 1), limit):
                return True
        colours[v] = -1
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
    classes: dict = {}
    for v, col in enumerate(colours):
        classes[col] = classes.get(col, 0) | 1 << v
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
    colours = tuple(colouring.colours if isinstance(colouring, Colouring)
                    else colouring)
    runs = [(c, len(list(grp))) for c, grp in groupby(colours)]
    if cyclic and len(runs) >= 2 and runs[0][0] == runs[-1][0]:
        merged = (runs[0][0], runs[0][1] + runs[-1][1])
        runs = runs[1:-1] + [merged]
    return runs
