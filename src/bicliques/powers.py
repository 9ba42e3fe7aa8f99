"""Powers of paths and cycles, and their maximal biclique / star families.

P_n^k joins path vertices at index distance <= k; C_n^k joins cycle vertices
at cyclic distance <= k.  Both are K_{1,3}-free, and path powers are also
C4-free, so every maximal complete bipartite set has 2, 3, or 4 vertices.
The enumerators below generate candidate sets from index arithmetic and then
filter each one with explicit complete-bipartite and maximality checks
against the host graph, so a wrong candidate range cannot produce a wrong
answer, only a missing one (the oracle tests cover that direction).

Both checks are one pass over a few neighbourhoods.  A complete bipartite
set with an edge is connected, so its bipartition is forced (the side away
from the lowest vertex is that vertex's neighbourhood in the set), and any
extension by one vertex w keeps it: w extends the set exactly when its
neighbourhood in the set is one whole side.  Likewise w extends a star
exactly when its only neighbour in the set is a centre.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    InputError,
    bits,
    cb_sides,
    induced_shape,
    is_maximal_cb,
    is_maximal_star,
    is_star_set,
    mask_of,
)


@dataclass(frozen=True)
class Biclique:
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


def power_path(n: int, k: int) -> Graph:
    """P_n^k: vertices 0..n-1, edge iff |i - j| <= k.  n <= k+1 gives K_n."""
    check_params(n, k)
    adj = []
    for i in range(n):
        lo = max(0, i - k)
        hi = min(n - 1, i + k)
        row = ((1 << (hi - lo + 1)) - 1) << lo
        adj.append(row & ~(1 << i))
    return Graph(n, tuple(adj), f"P_{n}^{k}")


def power_cycle(n: int, k: int) -> Graph:
    """C_n^k: vertices 0..n-1, edge iff cyclic distance <= k.

    n <= 2k+1 gives K_n; n in {1, 2} degenerate to K_1 / K_2.
    """
    check_params(n, k)
    full = (1 << n) - 1
    adj = []
    for i in range(n):
        if n <= 2 * k + 1:
            row = full & ~(1 << i)
        else:
            row = 0
            for d in range(1, k + 1):
                row |= 1 << ((i + d) % n)
                row |= 1 << ((i - d) % n)
        adj.append(row)
    return Graph(n, tuple(adj), f"C_{n}^{k}")


def power_graph(kind: str, n: int, k: int) -> Graph:
    """P_n^k for kind "path", C_n^k for kind "cycle"."""
    return power_path(n, k) if kind == "path" else power_cycle(n, k)


def power_edge_count(kind: str, n: int, k: int) -> int:
    """Edge count of power_graph(kind, n, k), by formula: a complete graph
    when n <= k+1 (path) or n <= 2k+1 (cycle); else vertex i of P_n^k has
    min(k, n-1-i) higher neighbours, and every vertex of C_n^k has 2k."""
    check_params(n, k)
    if n <= (k + 1 if kind == "path" else 2 * k + 1):
        return n * (n - 1) // 2
    return k * n - k * (k + 1) // 2 if kind == "path" else k * n


def circulant(n: int, distances) -> Graph:
    """Circulant graph C_n(d1, ..., dm): edge iff the cyclic distance of the
    endpoints equals some di.  C_n(1, 2, ..., k) is the power of a cycle."""
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    ds = sorted(set(distances))
    if not ds:
        raise InputError("need at least one distance")
    norm = set()
    for d in ds:
        if not isinstance(d, int) or d < 1:
            raise InputError(f"distances must be positive integers, got {d!r}")
        r = min(d % n, (n - d) % n)
        if r == 0:
            raise InputError(f"distance {d} is 0 mod {n}")
        norm.add(r)
    adj = [0] * n
    for i in range(n):
        for d in norm:
            adj[i] |= 1 << ((i + d) % n)
            adj[i] |= 1 << ((i - d) % n)
    label = f"C_{n}({','.join(str(d) for d in ds)})"
    return Graph(n, tuple(adj), label)


# ---------------------------------------------------------------------------
# candidate generation from index arithmetic

def _path_p3s(n: int, k: int) -> list[tuple[int, int, int]]:
    """All induced P3s of P_n^k as sorted triples.

    An induced P3 has its two ends on opposite sides of the centre (same-side
    ends are at distance <= k-1, hence adjacent), so triples are centre b with
    ends b-d1, b+d2 for 1 <= d1, d2 <= k and d1+d2 > k.
    """
    out = []
    for b in range(n):
        for d1 in range(1, min(k, b) + 1):
            for d2 in range(max(1, k - d1 + 1), min(k, n - 1 - b) + 1):
                out.append((b - d1, b, b + d2))
    return out


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


def _cycle_c4_candidates(n: int, k: int) -> set[tuple[int, ...]]:
    """Candidate induced-C4 quads of C_n^k.

    The sides of an induced C4 alternate around the cycle, and each of the
    four gaps between consecutive chosen vertices is at most k (a gap > k
    forces the opposite arc <= k and makes a diagonal adjacent), so quads are
    generated from gap triples in [1, k]; the complete-bipartite filter
    downstream discards quads whose diagonals are adjacent.
    """
    quads: set[tuple[int, ...]] = set()
    if n < 4 or n > 4 * k:
        return quads
    for a in range(n):
        for g1 in range(1, k + 1):
            for g2 in range(1, k + 1):
                for g3 in range(1, k + 1):
                    g4 = n - (g1 + g2 + g3)
                    if not 1 <= g4 <= k:
                        continue
                    quad = tuple(sorted(
                        (a, (a + g1) % n, (a + g1 + g2) % n,
                         (a + g1 + g2 + g3) % n)))
                    if len(set(quad)) == 4:
                        quads.add(quad)
    return quads


def _filter_maximal_cb(g: Graph, masks) -> list[tuple[int, ...]]:
    out = []
    for m in masks:
        sides = cb_sides(g.adj, m)
        if sides is not None and is_maximal_cb(g.adj, m, sides):
            out.append(tuple(bits(m)))
    out.sort()
    return out


def path_bicliques(n: int, k: int) -> list[Biclique]:
    """Maximal bicliques of P_n^k, sorted by vertex list.

    Complete range (n <= k+1) yields only edges; the middle range k+2..2k
    mixes maximal edges and P3s; n >= 2k+1 yields only P3s.
    """
    g = power_path(n, k)
    masks = {1 << i | 1 << j for i, j in g.edges()}
    masks.update(mask_of(t) for t in _path_p3s(n, k))
    return [Biclique(vs, induced_shape(g, vs))
            for vs in _filter_maximal_cb(g, masks)]


def cycle_bicliques(n: int, k: int) -> list[Biclique]:
    """Maximal bicliques of C_n^k, sorted by vertex list.

    Only edges survive in the complete range n <= 2k+1; only C4s in
    2k+2..3k+1; C4s and P3s in 3k+2..4k; only P3s for n >= 4k+1.  P3 entries
    carry their reach.
    """
    g = power_cycle(n, k)
    p3s = cycle_induced_p3s(n, k)
    reach_of = {t: r for t, r in p3s}
    masks = {1 << i | 1 << j for i, j in g.edges()}
    masks.update(mask_of(t) for t in reach_of)
    masks.update(mask_of(q) for q in _cycle_c4_candidates(n, k))
    out = []
    for vs in _filter_maximal_cb(g, masks):
        reach = reach_of.get(vs) if len(vs) == 3 else None
        out.append(Biclique(vs, induced_shape(g, vs), reach))
    return out


def _filter_maximal_star(g: Graph, masks) -> list[tuple[int, ...]]:
    out = []
    for m in masks:
        if is_star_set(g.adj, m) and is_maximal_star(g.adj, m):
            out.append(tuple(bits(m)))
    out.sort()
    return out


def path_stars(n: int, k: int) -> list[tuple[int, ...]]:
    """Maximal stars of P_n^k.  Path powers are C4-free, so this family
    equals the biclique family (returned as plain vertex sets)."""
    return [b.vertices for b in path_bicliques(n, k)]


def cycle_stars(n: int, k: int) -> list[tuple[int, ...]]:
    """Maximal stars of C_n^k: K_{1,3}-freeness limits stars to edges and
    induced P3s.  Unlike bicliques, a P3 inside a C4 is still a maximal star."""
    g = power_cycle(n, k)
    masks = {1 << i | 1 << j for i, j in g.edges()}
    masks.update(mask_of(t) for t, _ in cycle_induced_p3s(n, k))
    return _filter_maximal_star(g, masks)
