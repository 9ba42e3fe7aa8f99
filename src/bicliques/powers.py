"""Powers of paths and cycles, and their maximal biclique / star families.

P_n^k joins path vertices at index distance <= k; C_n^k joins cycle vertices
at cyclic distance <= k.  Both are K_{1,3}-free, and path powers are also
C4-free, so every maximal complete bipartite set is an edge, an induced P3
or an induced C4.  power_family lists the families by the oracle's listing
(graphs.maximal_family), and the tests compare them with the subset scan.
Every public function rejects an unknown kind or mode (check_choices).

A colouring is checked without listing the family, by one certificate
for every kind, mode, n and k (first_mono_set): the least of the first
equal-coloured pair of the universal clique, the first monochromatic
induced P3 below a reach bound and, for cycle bicliques with 2k+2 <= n <=
4k, the first monochromatic induced C4, all found from vertex indices
alone.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from itertools import combinations

from .graphs import (Biclique, Graph, InputError, check_choices, colour_tuple,
                     cyclic_reach, is_int, mask_of, maximal_family)


def check_params(n: int, k: int) -> None:
    """The one n, k gate of powers and colouring: InputError for an n or k
    that is no int (graphs.is_int), then for an n, then a k, below 1."""
    if not (is_int(n) and is_int(k)):
        raise InputError(f"n and k must be integers, got n={n!r}, k={k!r}")
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    if k < 1:
        raise InputError(f"need k >= 1, got k={k}")


def power_label(kind: str, n: int, k: int) -> str:
    """The label of power_graph(kind, n, k): "P_n^k" or "C_n^k"."""
    check_choices(kind)
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
    check_choices(kind)
    return power_path(n, k) if kind == "path" else power_cycle(n, k)


def is_complete(kind: str, n: int, k: int) -> bool:
    """True when power_graph(kind, n, k) is the complete graph K_n: n <= k+1
    for a path, n <= 2k+1 for a cycle."""
    check_choices(kind)
    return n <= (k + 1 if kind == "path" else 2 * k + 1)


def power_edge_count(kind: str, n: int, k: int) -> int:
    """Edge count of power_graph(kind, n, k), by formula: n(n-1)/2 when it
    is complete; else vertex i of P_n^k has min(k, n-1-i) higher
    neighbours, and every vertex of C_n^k has 2k."""
    check_params(n, k)
    if is_complete(kind, n, k):
        return n * (n - 1) // 2
    return k * n - k * (k + 1) // 2 if kind == "path" else k * n


def power_params(label, n: int, edges):
    """(kind, n, k) when label names P_n^k or C_n^k on n vertices and the
    edge pairs (in range, no loops: graph_fields) are its edges, as many
    distinct pairs each within (cyclic) distance k, so no graph is built;
    else None, also for a number past int()'s digit limit.  An n or k that
    no power graph has is an InputError."""
    m = re.match(r"^([PC])_([0-9]+)\^([0-9]+)$", label or "")
    try:
        if not m or int(m.group(2)) != n:
            return None
        kind, k = ("path" if m.group(1) == "P" else "cycle"), int(m.group(3))
    except ValueError:
        return None
    # each unordered pair keyed as one int: hashing ints is cheaper than tuples
    distinct = {i * n + j if i < j else j * n + i for i, j in edges}
    if len(distinct) != power_edge_count(kind, n, k):
        return None
    cyclic = kind == "cycle"  # the cyclic distance is |i-j| or n-|i-j|
    near = all(abs(i - j) <= k or cyclic and n - abs(i - j) <= k
               for i, j in edges)
    return (kind, n, k) if near else None


def circulant_distances(n: int, distances) -> list[int]:
    """The sorted distinct distances of C_n(distances), read once, after
    InputErrors for a non-int n (graphs.is_int), n < 1, a non-int distance,
    no distance, then the least distance below 1 or multiple of n."""
    if not is_int(n):
        raise InputError(f"n must be an integer, got n={n!r}")
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    ds = list(distances)
    for d in ds:
        if not is_int(d):
            raise InputError(f"distances must be positive integers, got {d!r}")
    ds = sorted(set(ds))
    if not ds:
        raise InputError("need at least one distance")
    for d in ds:
        if d < 1:
            raise InputError(f"distances must be positive integers, got {d!r}")
        if d % n == 0:
            raise InputError(f"distance {d} is 0 mod {n}")
    return ds


def circulant(n: int, distances) -> Graph:
    """Circulant graph C_n(d1, ..., dm): edge iff the cyclic distance of the
    endpoints is some min(di mod n, n - di mod n).  The distances are
    checked (circulant_distances), then built as in power_cycle, which is
    C_n(1, 2, ..., k)."""
    ds = circulant_distances(n, distances)
    label = f"C_{n}({','.join(str(d) for d in ds)})"
    return tuple.__new__(Graph, (n, _circulant_rows(n, ds), label))


# ---------------------------------------------------------------------------
# maximal families, by the oracle's listing, and the induced P3s of cycle
# powers by index arithmetic (a reference for first_mono_set)

def cycle_induced_p3s(n: int, k: int) -> list[tuple[tuple[int, int, int], int]]:
    """All induced P3s of C_n^k with their reach, sorted by vertex triple.

    The reach of a P3 is the sum of the cyclic reaches of its two edges; for
    ends at offsets -d1 and +d2 from the centre that is d1 + d2.
    """
    check_params(n, k)
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


def power_family(kind: str, mode: str, n: int, k: int) -> list:
    """The maximal bicliques (mode "biclique", as Biclique) or stars (as
    vertex tuples) of P_n^k (kind "path") or C_n^k, sorted, from
    graphs.maximal_family; a P3 of C_n^k gets its reach, its pairwise
    cyclic distances less the non-edge's."""
    check_choices(kind, mode)
    fam = maximal_family(power_graph(kind, n, k).adj, mode)
    if kind == "cycle" and mode == "biclique":
        for i, (vs, shape, _) in enumerate(fam):
            if shape == "P3":
                ds = [cyclic_reach(n, u, v) for u, v in combinations(vs, 2)]
                fam[i] = fam[i]._replace(reach=sum(ds) - max(ds))
    return fam


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
# the arithmetic check: a colouring's first monochromatic set, from vertex
# indices alone

def _wrapped_sets(q, i: int, s: int, n: int, k: int, top: int, c4: bool):
    """The least sets inside q, the ascending positions of one colour on
    C_n^k, whose least vertex u = q[i] < k has neighbours across n-1 -> 0:
    the first of them in q is w = q[t], at or after u+n-k; q[s] is the
    first vertex of q past u+k.  A complete C_n^k has none.  One set per way:

    (B) u is an end of a P3 centred at w, with reach n-(v-u) < top: its
        other end is the first v in [w-k, u+n-k) past u+n-top.
    (C) u is the centre of a P3 with ends v in (u, u+k] and x >= w, with
        reach n-(x-v) in (k, top): the first v that has an x.
    (D) u is the least vertex of a C4 u < b < c < d, for c4: its cyclic
        gaps are in [1, k] and its diagonals are non-edges, k < c-u, d-b
        < n-k.  For each b in [q[s]-k, u+k] the one d to try is the first
        at or after max(u+n-k, b+k+1), below b+n-k, as a larger d only
        raises c's bound d-k; c is then the first at or after max(q[s],
        d-k) and at most min(b+k, u+n-k-1).
    """
    u, m = q[i], len(q)
    t = bisect_left(q, u + n - k, s)
    if t == m:
        return []
    w, found = q[t], []
    lo = max(w - k, u + n - top + 1)
    if q[t - 1] >= lo:
        found.append((u, q[bisect_left(q, lo, i + 1)], w))
    if top > k + 1 and w - q[s - 1] < n - k:
        for v in q[i + 1:s]:
            x = bisect_left(q, max(w, v + n - top + 1), t)
            if x < m and q[x] < v + n - k:
                found.append((u, v, q[x]))
                break
    c0 = q[s]
    if c4 and c0 <= min(u + 2 * k, u + n - k - 1):
        for b in q[bisect_left(q, c0 - k, i):s]:
            j = bisect_left(q, max(u + n - k, b + k + 1), t)
            if j < m and q[j] < b + n - k:
                c = q[bisect_left(q, max(c0, q[j] - k), s)]
                if c <= min(b + k, u + n - k - 1):
                    found.append((u, b, c, q[j]))
                    break
    return found


def _first_set_in(q, n: int, k: int, top: int, cyclic: bool, c4: bool):
    """The lexicographically smallest set inside q, the ascending positions
    of one colour, or None: an induced P3 whose reach (the sum of its two
    edges' lengths) is below top, or, for c4, an induced C4 of C_n^k.

    Each u of q is tried in order as the least vertex of a set, and the
    first u that has one gives its least.  (A) u is an end of a P3 whose
    centre v and other end w follow it: the least such P3 takes w, the
    first vertex of q past u+k, which must lie within k of the vertex of q
    before it and below u+top, and v, the first at or after w-k.  On a
    cycle a u < k may also start a set across n-1 -> 0 (_wrapped_sets).  A
    pointer walks w, so the scan takes O(n + k*k*log n) time.
    """
    m, s = len(q), 0
    for i, u in enumerate(q):
        while s < m and q[s] <= u + k:
            s += 1
        found = []
        if s < m and q[s] - q[s - 1] <= k and q[s] < u + top:
            found.append((u, q[bisect_left(q, q[s] - k, i + 1)], q[s]))
        if cyclic and u < k:
            found += _wrapped_sets(q, i, s, n, k, top, c4)
        if found:
            return min(found)
    return None


def first_mono_set(kind: str, mode: str, n: int, k: int, colours):
    """The lexicographically smallest monochromatic set of the family of
    mode on P_n^k (kind "path") or C_n^k, or None, by index arithmetic: no
    graph, row or family is built.  Both graphs are claw-free, so every set
    is an edge of the universal clique U, an induced P3 or an induced C4,
    and the least of these witnesses is taken:

    (1) the first equal-coloured pair of U, which is [max(0, n-1-k),
        min(k, n-1)] on a path, and on a cycle all vertices if n <= 2k+1,
        else empty;
    (2) the first P3 of reach below top: n on a path, n-k for cycle stars
        and n-2k for cycle bicliques, since a P3 of reach n-2k or more lies
        in an induced C4;
    (3) for cycle bicliques with 2k+2 <= n <= 4k, the first induced C4.

    One walk lists the positions of each colour used twice or more.  U's
    first pair in a list is found by bisection, and a list of three or more
    is searched for (2) and (3) (_first_set_in).  No guard is needed: on a
    complete graph top <= k+1 leaves (2) no P3, and (3) needs n >= 2k+2.

    The check takes O(n + k*k*log n) time and O(n) memory.  Bad input
    (check_choices, check_params, colour_tuple) is an InputError.
    """
    check_choices(kind, mode)
    check_params(n, k)
    colours = colour_tuple(colours, n)
    cyclic = kind == "cycle"
    if cyclic:
        lo, hi = 0, n - 1 if is_complete(kind, n, k) else -1
        top = n - 2 * k if mode == "biclique" else n - k
    else:
        lo, hi, top = max(0, n - 1 - k), k, n
    c4 = cyclic and mode == "biclique" and 2 * k + 2 <= n <= 4 * k
    counts = Counter(colours)
    if len(counts) == n:  # every colour is used once, as on K_n
        return None
    at = {c: [] for c, size in counts.items() if size >= 2}
    del counts  # not held while the lists fill
    get = at.get
    for v, c in enumerate(colours):
        q = get(c)
        if q is not None:
            q.append(v)
    found = []
    for q in at.values():
        j = bisect_left(q, lo)
        if j + 1 < len(q) and q[j + 1] <= hi:
            found.append((q[j], q[j + 1]))
        if len(q) >= 3:
            found.append(_first_set_in(q, n, k, top, cyclic, c4))
    return min((f for f in found if f is not None), default=None)
