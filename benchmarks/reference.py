"""Independent reference answers for the benchmark's output checks.

Nothing here imports the package under test.  The chromatic values come
straight from the paper's closed forms, the hyperedge families of path and
cycle powers from a bitset enumeration of complete bipartite sets of at most
four vertices (powers of paths and cycles are claw-free, which the
enumeration asserts), and CNF satisfiability from a plain truth table.
"""

from __future__ import annotations

from itertools import combinations, product


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# chromatic values and certificates

def ab_pair(n: int, k: int):
    """(a, b) with a*k + b*(k+1) = n, a, b >= 0 and a + b even and >= 2, by
    brute-force search over a; None when no such pair exists."""
    for a in range(n // k + 1):
        rest = n - a * k
        if rest % (k + 1) == 0:
            b = rest // (k + 1)
            if (a + b) % 2 == 0 and a + b >= 2:
                return a, b
    return None


def chromatic_value(kind: str, mode: str, n: int, k: int) -> int:
    """Biclique- or star-chromatic number of P_n^k / C_n^k.

    Path (both modes): n, then 2k+2-n, then 2.  Cycle, biclique: n, then 2
    up to n = 3k+1, then 2 or 3 by the (a, b) search.  Cycle, star: n, then
    2 or 3 by the (a, b) search.
    """
    if kind == "path":
        if n <= k + 1:
            return n
        if n <= 2 * k:
            return 2 * k + 2 - n
        return 2
    if n <= 2 * k + 1:
        return n
    if mode == "biclique" and n <= 3 * k + 1:
        return 2
    return 2 if ab_pair(n, k) is not None else 3


def adjacent(kind: str, n: int, k: int, i: int, j: int) -> bool:
    d = abs(i - j)
    if kind == "cycle":
        d = min(d, n - d)
    return i != j and d <= k


def certificate_problem(text: str, kind: str, n: int, k: int, value: int):
    """None when the certificate text is consistent with (kind, n, k, value),
    else a one-line reason.  An empty text is accepted."""
    if not text:
        return None
    key, _, body = text.partition("=")
    if key == "universal":
        try:
            vs = [int(tok) for tok in body.split("-")]
        except ValueError:
            return f"unparsable universal certificate {text!r}"
        if len(vs) != value or len(set(vs)) != len(vs):
            return f"universal certificate {text!r} does not have {value} vertices"
        for v in vs:
            if not 0 <= v < n or any(not adjacent(kind, n, k, v, u)
                                     for u in range(n) if u != v):
                return f"vertex {v} of {text!r} is not universal"
        return None
    if key == "a":
        try:
            a_part, b_part = body.split(";b=")
            a, b = int(a_part), int(b_part)
        except ValueError:
            return f"unparsable block certificate {text!r}"
        if a < 0 or b < 0 or a * k + b * (k + 1) != n or (a + b) % 2:
            return f"block certificate {text!r} does not decompose n={n}, k={k}"
        if value != 2:
            return f"block certificate {text!r} given for value {value}"
        return None
    return f"unknown certificate {text!r}"


# ---------------------------------------------------------------------------
# power graphs and their hyperedge families

def power_edges(kind: str, n: int, k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if adjacent(kind, n, k, i, j)]


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def family(adj: list[int], mode: str) -> list[tuple[int, ...]]:
    """Maximal complete bipartite sets (mode "biclique") or maximal induced
    stars (mode "star") of a claw-free graph, sorted.

    In a claw-free graph every complete bipartite set is an edge, an induced
    P3 or an induced C4, and a set with an edge lies in a larger complete
    bipartite set iff one added vertex already extends it.  A claw met on
    the way raises ValueError.
    """
    n = len(adj)
    out = set()
    for u in range(n):
        for v in bits(adj[u] >> (u + 1) << (u + 1)):
            s = 1 << u | 1 << v
            if not (adj[u] ^ adj[v]) & ~s:
                out.add((u, v))
    for b in range(n):
        for a, c in combinations(bits(adj[b]), 2):
            if adj[a] >> c & 1:
                continue
            s = 1 << a | 1 << b | 1 << c
            if adj[b] & ~adj[a] & ~adj[c] & ~s:
                raise ValueError(f"claw at centre {b}")
            if mode == "biclique" and adj[a] & adj[c] & ~adj[b] & ~s:
                continue  # extends to an induced C4
            out.add(tuple(sorted((a, b, c))))
    if mode == "biclique":
        for a in range(n):
            for c in bits(~adj[a] & ((1 << n) - 1) >> (a + 1) << (a + 1)):
                common = adj[a] & adj[c]
                for b, d in combinations(bits(common), 2):
                    if adj[b] >> d & 1:
                        continue
                    s = 1 << a | 1 << b | 1 << c | 1 << d
                    if (adj[a] & adj[c] & ~adj[b] & ~adj[d]
                            | adj[b] & adj[d] & ~adj[a] & ~adj[c]) & ~s:
                        raise ValueError(f"K_2,3 through {a}, {b}, {c}, {d}")
                    out.add(tuple(sorted((a, b, c, d))))
    return sorted(out)


def maximal_independent(adj, pool: int) -> list[int]:
    """Masks of the maximal independent sets of the subgraph induced by pool
    (Bron-Kerbosch on the complement); [0] when pool is empty."""
    out = []

    def grow(r, p, x):
        if not p and not x:
            out.append(r)
        for v in bits(p):
            closed = adj[v] | 1 << v
            grow(r | 1 << v, p & ~closed, x & ~closed)
            p &= ~(1 << v)
            x |= 1 << v

    grow(0, pool, 0)
    return out


def general_family(adj: list[int], mode: str) -> list[tuple[int, ...]]:
    """Maximal complete bipartite sets or maximal induced stars of any graph,
    sorted; the enumeration for graphs that have a claw.

    Stars: a centre c with a maximal independent set of at least two of its
    neighbours, or an edge uv with N[u] = N[v].  Complete bipartite sets:
    A u B is maximal iff B is a maximal independent set of the common
    neighbourhood of A and A one of the common neighbourhood of B, so every
    independent A with a common neighbour is tried.
    """
    n = len(adj)
    out = set()
    if mode == "star":
        for c in range(n):
            for leaves in maximal_independent(adj, adj[c]):
                if leaves.bit_count() >= 2:
                    out.add(leaves | 1 << c)
        for u in range(n):
            for v in bits(adj[u] >> (u + 1) << (u + 1)):
                if adj[u] | 1 << u == adj[v] | 1 << v:
                    out.add(1 << u | 1 << v)
    else:
        def common(mask):
            c = (1 << n) - 1
            for v in bits(mask):
                c &= adj[v]
            return c

        def extend(a, cand):
            cn = common(a)
            for b in maximal_independent(adj, cn):
                rest = common(b) & ~a
                if all(adj[w] & a for w in bits(rest)):
                    out.add(a | b)
            for v in bits(cand):
                if cn & adj[v]:
                    extend(a | 1 << v, cand & ~adj[v] >> (v + 1) << (v + 1))

        for v in range(n):
            extend(1 << v, ~adj[v] & ((1 << n) - 1) >> (v + 1) << (v + 1))
    return sorted(tuple(bits(m)) for m in out)


def mono_sets(fam, colours) -> list[tuple[int, ...]]:
    return [s for s in fam if len({colours[v] for v in s}) == 1]


def two_colourable(n: int, fam) -> bool:
    """Whether some 2-colouring leaves no set of fam monochromatic, by trying
    every 2-colouring with vertex n-1 fixed."""
    masks = [sum(1 << v for v in s) for s in fam]
    return any(all(0 < m & c < m for m in masks) for c in range(1 << (n - 1)))


# ---------------------------------------------------------------------------
# generic predicates for oracle outputs on arbitrary graphs

def is_complete_bipartite(adj, vs) -> bool:
    s = 0
    for v in vs:
        s |= 1 << v
    v0 = vs[0]
    side_b = adj[v0] & s
    if not side_b:
        return False
    side_a = s & ~side_b
    return (all(adj[x] & s == side_b for x in bits(side_a))
            and all(adj[y] & s == side_a for y in bits(side_b)))


def is_star(adj, vs) -> bool:
    s = 0
    for v in vs:
        s |= 1 << v
    for c in vs:
        rest = s & ~(1 << c)
        if rest and adj[c] & s == rest and all(
                adj[x] & s == 1 << c for x in bits(rest)):
            return True
    return False


def is_maximal(adj, vs, mode: str) -> bool:
    pred = is_complete_bipartite if mode == "biclique" else is_star
    if not pred(adj, vs):
        return False
    ext = 0
    for v in vs:
        ext |= adj[v]
    for v in vs:
        ext &= ~(1 << v)
    return not any(pred(adj, sorted((*vs, w))) for w in bits(ext))


# ---------------------------------------------------------------------------
# CNF

def satisfiable(num_vars: int, clauses) -> bool:
    for values in product((False, True), repeat=num_vars):
        if all(any(values[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in clauses):
            return True
    return False
