"""Powers of paths and cycles, and their maximal biclique / star families.

P_n^k joins path vertices at index distance <= k; C_n^k joins cycle vertices
at cyclic distance <= k.  Both are K_{1,3}-free, and path powers are also
C4-free, so every maximal complete bipartite set is an edge, an induced P3
or an induced C4.  power_family lists the families as sorted records by
the oracle's output-sensitive enumeration (graphs.maximal_masks), and the
tests compare them with the exhaustive subset scan.

A colouring is checked without listing the family (first_mono_set).
Outside a band of width about 4k the families are exactly the induced P3s
(p3_range), checked by a windowed scan of the colour positions
(first_mono_p3) that builds no graph; inside it, unless the graph is
complete, each colour class is searched for the family's sets in it.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (Graph, InputError, colour_classes, mask_of,
                     maximal_masks, smallest_maximal_inside, vertices_of)


class Biclique(NamedTuple):
    """Maximal complete bipartite vertex set with its induced shape.

    reach is only set for P3 bicliques of cycle powers: the sum of the cyclic
    reaches of the two edges.
    """

    vertices: tuple[int, ...]
    shape: str  # "P2" | "P3" | "C4" | "OTHER"
    reach: int | None = None


def check_params(n: int, k: int) -> None:
    """InputError unless n >= 1 and k >= 1, as P_n^k and C_n^k need."""
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    if k < 1:
        raise InputError(f"need k >= 1, got k={k}")


def cyclic_reach(n: int, i: int, j: int) -> int:
    """Cyclic distance between vertices i and j of an n-cycle."""
    d = (i - j) % n
    return min(d, n - d)


def power_label(kind: str, n: int, k: int) -> str:
    """The label of power_graph(kind, n, k): "P_n^k" or "C_n^k"."""
    return f"{'P' if kind == 'path' else 'C'}_{n}^{k}"


def power_path(n: int, k: int) -> Graph:
    """P_n^k: vertices 0..n-1, edge iff |i - j| <= k.  n <= k+1 gives K_n.
    Row i is a band of 2k+1 bits centred on i, cut to 0..n-1, less bit i."""
    check_params(n, k)
    w = min(k, n)  # a band wider than the path gives the same rows
    full, band = (1 << n) - 1, (1 << 2 * w + 1) - 1
    adj = tuple((band << i >> w) & full ^ 1 << i for i in range(n))
    return tuple.__new__(Graph, (n, adj, power_label("path", n, k)))


def _circulant_rows(n: int, distances) -> tuple[int, ...]:
    """Rows of C_n(D), no d in D a multiple of n: row 0 has bits d and -d
    mod n, and row i is row 0 rotated by i; callers skip Graph's checks."""
    full = (1 << n) - 1
    base = mask_of(r for d in distances for r in (d % n, -d % n))
    return tuple((base << i | base >> (n - i)) & full for i in range(n))


def power_cycle(n: int, k: int) -> Graph:
    """C_n^k: vertices 0..n-1, edge iff cyclic distance <= k, built as the
    circulant C_n(1, ..., min(k, n//2)) by rotating row 0.  n <= 2k+1
    gives K_n; n in {1, 2} degenerate to K_1 / K_2."""
    check_params(n, k)
    rows = _circulant_rows(n, range(1, min(k, n // 2) + 1))
    return tuple.__new__(Graph, (n, rows, power_label("cycle", n, k)))


def power_graph(kind: str, n: int, k: int) -> Graph:
    """P_n^k for kind "path", C_n^k for kind "cycle"."""
    return power_path(n, k) if kind == "path" else power_cycle(n, k)


def is_complete(kind: str, n: int, k: int) -> bool:
    """True when power_graph(kind, n, k) is the complete graph K_n: n <= k+1
    for a path, n <= 2k+1 for a cycle."""
    return n <= (k + 1 if kind == "path" else 2 * k + 1)


def power_edge_count(kind: str, n: int, k: int) -> int:
    """Edge count of power_graph(kind, n, k), by formula: n(n-1)/2 when it
    is complete; else vertex i of P_n^k has min(k, n-1-i) higher
    neighbours, and every vertex of C_n^k has 2k."""
    check_params(n, k)
    if is_complete(kind, n, k):
        return n * (n - 1) // 2
    return k * n - k * (k + 1) // 2 if kind == "path" else k * n


def circulant(n: int, distances) -> Graph:
    """Circulant graph C_n(d1, ..., dm): edge iff the cyclic distance of the
    endpoints is some min(di mod n, n - di mod n).  The distances are
    checked, then built as in power_cycle, which is C_n(1, 2, ..., k)."""
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    ds = sorted(set(distances))
    if not ds:
        raise InputError("need at least one distance")
    for d in ds:
        if not isinstance(d, int) or d < 1:
            raise InputError(f"distances must be positive integers, got {d!r}")
        if d % n == 0:
            raise InputError(f"distance {d} is 0 mod {n}")
    label = f"C_{n}({','.join(str(d) for d in ds)})"
    return tuple.__new__(Graph, (n, _circulant_rows(n, ds), label))


# ---------------------------------------------------------------------------
# maximal families, from the enumeration the oracle uses, and the induced
# P3s of cycle powers by index arithmetic (a reference for first_mono_p3)

def cycle_induced_p3s(n: int, k: int) -> list[tuple[tuple[int, int, int], int]]:
    """All induced P3s of C_n^k with their reach, sorted by vertex triple.

    The reach of a P3 is the sum of the cyclic reaches of its two edges; for
    ends at offsets -d1 and +d2 from the centre that is d1 + d2.
    """
    if n <= 2 * k + 1:  # complete, no induced P3
        return []
    found = {}
    for b in range(n):
        for d1 in range(1, k + 1):
            for d2 in range(1, k + 1):
                s = d1 + d2
                if min(s, n - s) <= k:
                    continue
                a = (b - d1) % n
                c = (b + d2) % n
                found[tuple(sorted((a, b, c)))] = s
    return sorted(found.items())


def _listed_mode(kind: str, mode: str) -> str:
    """The enumerator's mode for the family of mode on a power of kind: a
    path power's stars are its bicliques, and the biclique enumerator lists
    them faster."""
    return mode if kind == "cycle" else "biclique"


def _p3_reach(n: int, vs) -> int:
    """Reach of the P3 vs of C_n^k: its pairwise distances less the non-edge's."""
    a, b, c = vs
    ds = (cyclic_reach(n, a, b), cyclic_reach(n, b, c), cyclic_reach(n, a, c))
    return sum(ds) - max(ds)


def power_family(kind: str, mode: str, n: int, k: int) -> list:
    """The maximal bicliques (mode "biclique", as Biclique) or stars (as
    vertex tuples) of P_n^k (kind "path") or C_n^k, sorted.  Both graphs are
    claw-free, so a set's size gives its shape: P2, P3 or C4."""
    sets = sorted(map(vertices_of, maximal_masks(
        power_graph(kind, n, k).adj, _listed_mode(kind, mode), (1 << n) - 1)))
    if mode == "star":
        return sets
    cyclic, new = kind == "cycle", tuple.__new__
    return [new(Biclique, (vs, ("P2", "P3", "C4")[len(vs) - 2],
                           _p3_reach(n, vs) if cyclic and len(vs) == 3
                           else None)) for vs in sets]


def path_bicliques(n: int, k: int) -> list[Biclique]:
    """Maximal bicliques of P_n^k: edges for n <= k+1, edges and P3s in
    k+2..2k, P3s for n >= 2k+1."""
    return power_family("path", "biclique", n, k)


def cycle_bicliques(n: int, k: int) -> list[Biclique]:
    """Maximal bicliques of C_n^k: edges for n <= 2k+1, C4s in 2k+2..3k+1,
    C4s and P3s in 3k+2..4k, P3s (with their reach) for n >= 4k+1."""
    return power_family("cycle", "biclique", n, k)


def path_stars(n: int, k: int) -> list[tuple[int, ...]]:
    """Maximal stars of P_n^k: the vertex sets of its bicliques."""
    return power_family("path", "star", n, k)


def cycle_stars(n: int, k: int) -> list[tuple[int, ...]]:
    """Maximal stars of C_n^k: edges and induced P3s, including a P3 inside
    a C4, which is no maximal biclique."""
    return power_family("cycle", "star", n, k)


# ---------------------------------------------------------------------------
# the windowed check: monochromatic induced P3s without the family

def p3_range(kind: str, mode: str, n: int, k: int) -> bool:
    """True when the family of mode on P_n^k / C_n^k is exactly its induced
    P3s: paths with n >= 2k+1 (either mode), cycles with n >= 4k+1 for
    bicliques and n >= 2k+2 for stars."""
    if kind == "path":
        return n >= 2 * k + 1
    return n >= (4 * k + 1 if mode == "biclique" else 2 * k + 2)


def _first_pair(xs, ys, k: int, top: int, ascending: bool):
    """(x, y) for the first x of xs that has a y of ys with k < x + y < top,
    and the first such y in ys order; None if no x has one.

    ys is ascending when xs descends (ascending=True), else descending while
    xs ascends.  Either way the y that must be passed over for one x (too
    small, or too large) must be for every later x as well, so one pointer
    walks ys once, and the y it stops at fits iff any later y would.
    """
    p, m = 0, len(ys)
    for x in xs:
        if ascending:
            while p < m and x + ys[p] <= k:
                p += 1
        else:
            while p < m and x + ys[p] >= top:
                p += 1
        if p < m and k < x + ys[p] < top:
            return x, ys[p]
    return None


def _first_p3_at(b: int, left, right, n: int, k: int, top: int):
    """The smallest sorted monochromatic induced P3 centred at b, or None.

    left and right are the ascending positions of b's colour within k
    below and above b, unrolled for a cycle (below 0 or from n on, the
    position wraps); ends at offsets d1 (left) and d2 (right) form an
    induced P3 iff k < d1 + d2 < top.  With no wrap the triple is
    (b-d1, b, b+d2): the largest d1 that fits, then the smallest d2.  An
    end that wraps comes last (left) or first (right) in the sorted triple,
    so there the smallest d2 comes first, then the largest d1.
    """
    found = []
    d1 = [b - v for v in left if v >= 0]
    d2 = [v - b for v in right if v < n]
    pair = _first_pair(d1, d2, k, top, True)
    if pair is not None:
        found.append(pair)
    if left and left[0] < 0:
        pair = _first_pair([v - b for v in right],
                           [b - v for v in left if v < 0], k, top, False)
        if pair is not None:
            found.append(pair[::-1])
    if right and right[-1] >= n:
        pair = _first_pair([v - b for v in right if v >= n],
                           [b - v for v in left], k, top, False)
        if pair is not None:
            found.append(pair[::-1])
    return min((tuple(sorted(((b - x) % n, b, (b + y) % n)))
                for x, y in found), default=None)


def first_mono_p3(kind: str, n: int, k: int, colours):
    """The lexicographically smallest monochromatic induced P3 of P_n^k
    (kind "path") or C_n^k (kind "cycle") as a sorted vertex triple, or
    None.  colours[v] is the colour of vertex v, for v in 0..n-1.

    An induced P3 is a centre b with ends b-d1 and b+d2, 1 <= d1, d2 <= k,
    that are not adjacent: d1 + d2 > k, and on a cycle also d1 + d2 < n-k
    (n >= 2k+2, else C_n^k is complete).  Each colour's positions are
    walked once with two pointers that hold the window [b-k, b+k] of each
    centre b (on a cycle the list is unrolled by k at both ends).  b can be
    a centre only if the farthest same-colour positions in its window are
    more than k apart; only such centres have their window searched, in
    O(k).  So the check takes O(n*k) time and O(n) memory and builds no
    graph, no n-bit row and no family.
    """
    cyclic = kind == "cycle"
    if cyclic and n <= 2 * k + 1:
        return None
    top = n - k if cyclic else 2 * k + 1  # on a path d1 + d2 <= 2k always fits
    at: dict = {}
    for v, c in enumerate(colours):
        at.setdefault(c, []).append(v)
    best = None
    for q in at.values():
        if cyclic:
            q = [v - n for v in q if v >= n - k] + q + [v + n for v in q if v < k]
        lo = hi = 0
        last = len(q) - 1
        for j, b in enumerate(q):
            if not 0 <= b < n:
                continue
            while q[lo] < b - k:
                lo += 1
            while hi < last and q[hi + 1] <= b + k:
                hi += 1
            if q[hi] - q[lo] > k:
                found = _first_p3_at(b, q[lo:j], q[j + 1:hi + 1], n, k, top)
                if found is not None and (best is None or found < best):
                    best = found
    return best


def _first_mono_edge(colours):
    """The lexicographically smallest pair i < j with colours[i] ==
    colours[j], or None: the first monochromatic set of a complete graph,
    whose maximal bicliques and stars are its edges.  One pass: the
    smallest pair of a colour is its first two positions, met when the
    colour first repeats, and a later class wins only with a smaller i."""
    first: dict = {}
    best = None
    for v, c in enumerate(colours):
        i = first.setdefault(c, v)
        if i != v and (best is None or i < best[0]):
            best = (i, v)
    return best


def searches_classes(kind: str, mode: str, n: int, k: int) -> bool:
    """True when first_mono_set searches the colour classes on the rows of
    P_n^k / C_n^k: the graph is neither complete nor in p3_range."""
    return not (is_complete(kind, n, k) or p3_range(kind, mode, n, k))


def first_mono_set(kind: str, mode: str, n: int, k: int, colours):
    """The lexicographically smallest monochromatic set of the family of
    mode on P_n^k (kind "path") or C_n^k, or None.  Where searches_classes
    holds (P_n^k with k+2 <= n <= 2k, C_n^k in biclique mode with
    2k+2 <= n <= 4k) the least of the colour classes' own smallest sets is
    taken (graphs.smallest_maximal_inside).  Elsewhere no graph is built:
    first_mono_p3 in p3_range, and _first_mono_edge on a complete graph."""
    if searches_classes(kind, mode, n, k):
        return min(smallest_maximal_inside(power_graph(kind, n, k).adj,
                                           _listed_mode(kind, mode),
                                           colour_classes(colours)),
                   default=None)
    if p3_range(kind, mode, n, k):
        return first_mono_p3(kind, n, k, colours)
    return _first_mono_edge(colours)
