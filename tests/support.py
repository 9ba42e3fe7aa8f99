"""Shared test-side checkers.

These deliberately take different routes than the library: BFS bipartition
instead of forced-neighbourhood masks, nested has_edge loops instead of
bitset algebra, a second truth-table walker for CNF.  Closed forms and the
oracle are both tested against these, so a shared bug would have to be made
twice in different styles.  The brute_scan functions run the library's
complete-bipartite and star tests (cb_sides, is_star_set) on every vertex
subset, but decide maximality by the per-vertex extension walk here, not by
the library's row algebra: the exhaustive scan that the oracle's
enumeration must reproduce set for set.  The walk_ functions keep the
nested loops that searches now built on one shared library walk were
first written as, so that walk is held to both.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from hypothesis import strategies as st

from bicliques.graphs import (Graph, InputError, cb_sides, is_star_set,
                              mask_of, vertex_set, vertices_of)
from bicliques import graphs, powers
from bicliques.reduction import CnfFormula, normalize


@st.composite
def graph_strategy(draw, min_n: int = 1, max_n: int = 10):
    """Arbitrary graph drawn as a single edge bitmask so shrinking works."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    return Graph.from_edges(n, edges)


def bfs_complete_bipartite(g: Graph, vs):
    """Bipartition of the subgraph induced by vs if it is complete bipartite
    with at least one edge, else None.  BFS 2-colouring from the smallest
    vertex, then a full edge audit."""
    vs = sorted(vs)
    if len(vs) < 2:
        return None
    inside = set(vs)
    side = {vs[0]: 0}
    queue = [vs[0]]
    while queue:
        v = queue.pop()
        for u in g.neighbours(v):
            if u in inside and u not in side:
                side[u] = 1 - side[v]
                queue.append(u)
    if len(side) != len(vs):
        return None  # disconnected, cannot be complete bipartite with an edge
    a = tuple(v for v in vs if side[v] == 0)
    b = tuple(v for v in vs if side[v] == 1)
    if not a or not b:
        return None
    for x, y in combinations(vs, 2):
        if g.has_edge(x, y) == (side[x] == side[y]):
            return None
    return a, b


def is_star_by_loops(g: Graph, vs) -> bool:
    vs = list(vs)
    if len(vs) < 2:
        return False
    for c in vs:
        rest = [v for v in vs if v != c]
        if all(g.has_edge(c, v) for v in rest) and \
                not any(g.has_edge(x, y) for x, y in combinations(rest, 2)):
            return True
    return False


def brute_maximal_cb_sets(g: Graph) -> set[tuple[int, ...]]:
    """All maximal complete-bipartite sets by scanning every subset and then
    discarding those properly contained in another."""
    found = [vs for r in range(2, g.n + 1)
             for vs in combinations(range(g.n), r)
             if bfs_complete_bipartite(g, vs) is not None]
    return {vs for vs in found
            if not any(set(vs) < set(other) for other in found)}


def brute_biclique_containment(g: Graph, v_prime):
    """Lexicographically smallest maximal complete-bipartite set of g inside
    v_prime, or None, from brute_maximal_inside."""
    vmask = sum(1 << v for v in v_prime)
    return min(brute_maximal_inside(g, "biclique", vmask), default=None)


def brute_maximal_inside(g: Graph, mode: str, vmask: int):
    """The maximal complete bipartite sets (mode "biclique") or stars of g
    that lie inside the vertex mask vmask, as sorted vertex tuples: every
    subset of vmask is tested, and one is maximal when no single vertex of
    g extends it."""
    test = bfs_complete_bipartite if mode == "biclique" else is_star_by_loops
    inside = vertices_of(vmask)
    found = set()
    for r in range(2, len(inside) + 1):
        for vs in combinations(inside, r):
            if test(g, vs) in (None, False):
                continue
            if not any(test(g, tuple(sorted(vs + (w,)))) not in (None, False)
                       for w in range(g.n) if w not in vs):
                found.add(vs)
    return found


def first_monochromatic(colours, sets):
    """The first vertex set in sets whose vertices all share one colour
    (colours[v] is the colour of v), or None."""
    for vs in sets:
        first = colours[vs[0]]
        if all(colours[v] == first for v in vs[1:]):
            return vs
    return None


def brute_maximal_star_sets(g: Graph) -> set[tuple[int, ...]]:
    found = [vs for r in range(2, g.n + 1)
             for vs in combinations(range(g.n), r)
             if is_star_by_loops(g, vs)]
    return {vs for vs in found
            if not any(set(vs) < set(other) for other in found)}


def induced_shape(g: Graph, s) -> str:
    """Classify the subgraph induced by s: "P2", "P3", "C4", or "OTHER"."""
    vs = tuple(s)
    if len(vs) == 2:
        return "P2" if g.has_edge(vs[0], vs[1]) else "OTHER"
    pairs = [(i, j) for i, j in combinations(vs, 2) if g.has_edge(i, j)]
    if len(vs) == 3 and len(pairs) == 2:
        return "P3"
    if len(vs) == 4 and len(pairs) == 4:
        deg: dict[int, int] = {}
        for i, j in pairs:
            deg[i] = deg.get(i, 0) + 1
            deg[j] = deg.get(j, 0) + 1
        if max(deg.values()) == 2:
            return "C4"
    return "OTHER"


def induced_subgraph(g: Graph, s) -> Graph:
    """Subgraph induced by vertex set s, relabelled 0..|s|-1 in sorted order."""
    vs = vertex_set(s, g.n)
    index = {v: i for i, v in enumerate(vs)}
    return Graph(len(vs), tuple(mask_of(index[u] for u in g.neighbours(v)
                                        if u in index) for v in vs))


def is_complete_bipartite(g: Graph, s):
    """Whether s induces a complete bipartite subgraph with >= 1 edge, by
    the library's cb_sides.

    Returns (True, (side_a, side_b)) with the side containing the smallest
    vertex first and both sides sorted, or (False, None).
    """
    vs = vertex_set(s, g.n)
    if len(vs) < 2:
        raise InputError("complete-bipartite test needs at least two vertices")
    sides = cb_sides(g.adj, mask_of(vs))
    if sides is None:
        return False, None
    return True, tuple(map(vertices_of, sides))


def walk_is_maximal_cb(adj, smask: int, sides) -> bool:
    """Reference for graphs.is_maximal_cb, one outside vertex at a time.

    A vertex w outside smask extends it when N(w) & smask is one side
    (a or b, as cb_sides gives them): w then joins the other.  Such a w
    sees the lowest vertex of a or of b, so only their neighbours are
    walked, one AND and compare each.
    """
    a, b = sides
    ext = (adj[(a & -a).bit_length() - 1]
           | adj[(b & -b).bit_length() - 1]) & ~smask
    for w in vertices_of(ext):
        seen = adj[w] & smask
        if seen == a or seen == b:
            return False
    return True


def walk_is_maximal_star(adj, smask: int) -> bool:
    """Reference for graphs.is_maximal_star, one outside vertex at a time.

    A vertex w outside the star smask extends it when N(w) & smask is one
    possible centre: the unique centre of a star with two or more leaves,
    either end of an edge.  Only the centres' neighbours are walked.
    """
    low = smask & -smask
    nb = adj[low.bit_length() - 1] & smask
    if nb & (nb - 1):        # v0 has two neighbours: it is the centre
        centres = low
    elif nb == smask ^ low:  # an edge: either end can be the centre
        centres = smask
    else:                    # v0 is a leaf of the centre nb
        centres = nb
    ext = (adj[(centres & -centres).bit_length() - 1]
           | adj[centres.bit_length() - 1]) & ~smask
    for w in vertices_of(ext):
        seen = adj[w] & smask
        if seen & centres and seen & (seen - 1) == 0:
            return False
    return True


def brute_scan_bicliques(g: Graph) -> list[tuple[tuple[int, ...], str]]:
    """(vertices, shape) of every maximal complete bipartite set of g, sorted:
    cb_sides and walk_is_maximal_cb applied to each of the 2^n vertex
    subsets.  The oracle's output-sensitive enumeration must list the same
    sets."""
    adj = g.adj
    out = []
    for m in range(3, 1 << g.n):
        if m.bit_count() < 2:
            continue
        sides = cb_sides(adj, m)
        if sides is not None and walk_is_maximal_cb(adj, m, sides):
            vs = vertices_of(m)
            out.append((vs, induced_shape(g, vs)))
    return sorted(out)


def brute_scan_stars(g: Graph) -> list[tuple[int, ...]]:
    """Every maximal star of g as a sorted vertex tuple, sorted: is_star_set
    and walk_is_maximal_star applied to each of the 2^n vertex subsets."""
    adj = g.adj
    return sorted(vertices_of(m) for m in range(3, 1 << g.n)
                  if m.bit_count() >= 2 and is_star_set(adj, m)
                  and walk_is_maximal_star(adj, m))


def brute_mono_p3(g: Graph, colours, reach_in=None):
    """First monochromatic induced P3 of g by vertex triple with its reach,
    or None: every triple is tried, one with exactly two edges is an
    induced P3, and its reach is the sum of the cyclic distances (g.n the
    cycle length) from the centre, the vertex on both edges, to the ends."""
    for triple in combinations(range(g.n), 3):
        if len({colours[v] for v in triple}) != 1:
            continue
        edges = [set(e) for e in combinations(triple, 2) if g.has_edge(*e)]
        if len(edges) != 2:
            continue
        (centre,) = edges[0] & edges[1]
        reach = sum(min((v - centre) % g.n, (centre - v) % g.n)
                    for v in triple if v != centre)
        if reach_in is None or reach in reach_in:
            return triple, reach
    return None


def walk_mono_p3(g: Graph, colours, reach_in=None):
    """oracle.find_mono_p3 as its own nested loops: for a < b in one colour
    class, the c > b of that class completing an induced P3 are N(a) ^ N(b)
    when ab is an edge and N(a) & N(b) when it is not."""
    wanted = None if reach_in is None else set(reach_in)
    n, adj = g.n, g.adj
    classes: dict = {}
    for v, col in enumerate(colours):
        classes[col] = classes.get(col, 0) | 1 << v
    for a in range(n):
        same = classes[colours[a]]
        bs = same >> (a + 1) << (a + 1)
        while bs:
            low = bs & -bs
            bs ^= low  # now the class above b
            b = low.bit_length() - 1
            edge = adj[a] >> b & 1
            cs = (adj[a] ^ adj[b] if edge else adj[a] & adj[b]) & bs
            while cs:
                low_c = cs & -cs
                cs ^= low_c
                c = low_c.bit_length() - 1
                centre = c if not edge else a if adj[a] & low_c else b
                reach = (powers.cyclic_reach(n, centre, a)
                         + powers.cyclic_reach(n, centre, b)
                         + powers.cyclic_reach(n, centre, c))
                if wanted is None or reach in wanted:
                    return (a, b, c), reach
    return None


def walk_induced_c4(g: Graph):
    """graphs.contains_induced_c4 as its own nested loops: for every pair
    a < b, the c > b completing an induced P3, then the least d above c
    that sees both ends and not the centre."""
    adj = g.adj
    for a in range(g.n):
        for b in range(a + 1, g.n):
            edge = adj[a] >> b & 1
            cs = (adj[a] ^ adj[b] if edge else adj[a] & adj[b]) >> (b + 1)
            cs <<= b + 1
            while cs:
                low = cs & -cs
                c = low.bit_length() - 1
                if not edge:
                    ends, centre = adj[a] & adj[b], c
                elif adj[a] & low:
                    ends, centre = adj[b] & adj[c], a
                else:
                    ends, centre = adj[a] & adj[c], b
                ds = (ends & ~adj[centre]) >> (c + 1)
                if ds:
                    return a, b, c, c + (ds & -ds).bit_length()
                cs ^= low
    return None


def bits_by_walk(mask: int) -> tuple[int, ...]:
    """The set bit positions of a mask >= 0, in increasing order, by a walk
    over its binary digits, lowest first: no word arithmetic."""
    return tuple(v for v, digit in enumerate(reversed(format(mask, "b")))
                 if digit == "1")


def brute_maximal_independent_sets(g: Graph, mask: int) -> set[int]:
    """Masks of the maximal independent subsets of the vertex mask, found
    among all its submasks with nested has_edge loops."""
    vs = bits_by_walk(mask)
    found = []
    for r in range(len(vs) + 1):
        for sub in combinations(vs, r):
            if not any(g.has_edge(x, y) for x, y in combinations(sub, 2)):
                found.append(set(sub))
    return {sum(1 << v for v in sub) for sub in found
            if not any(sub < other for other in found)}


def random_graph(rng: random.Random, n: int, p: float = 0.4,
                 label: str | None = None) -> Graph:
    edges = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges, label)


def greedy_proper_colouring(g: Graph) -> tuple[int, ...]:
    colours: list[int] = []
    for v in range(g.n):
        taken = {colours[u] for u in g.neighbours(v) if u < v}
        c = 0
        while c in taken:
            c += 1
        colours.append(c)
    return tuple(colours)


def truth_table_sat(f: CnfFormula) -> bool:
    """Independent satisfiability check via itertools.product."""
    for values in product((False, True), repeat=f.num_vars):
        if all(any((lit > 0) == values[abs(lit) - 1] for lit in clause)
               for clause in f.clauses):
            return True
    return False


def brute_ab_exists(n: int, k: int):
    """First (a, b) with n = a*k + b*(k+1), a+b even >= 2, by scanning b."""
    for b in range(n // (k + 1) + 1):
        rem = n - b * (k + 1)
        if rem % k:
            continue
        a = rem // k
        if (a + b) % 2 == 0 and a + b >= 2:
            return a, b
    return None


def pairwise_conflicts(clauses):
    """The clause pairs (i, j), i < j, sharing two or more literals, in
    combinations order, found by comparing every pair."""
    return ((i, j) for i, j in combinations(range(len(clauses)), 2)
            if len(set(clauses[i]) & set(clauses[j])) >= 2)


def fixpoint_normalize(f: CnfFormula) -> CnfFormula:
    """normalize by its definition: after dropping tautologies and duplicate
    literals, rescan the whole clause list after every rewrite for its
    first conflicting pair and replace the pair's later clause, in place,
    by the four clauses of the rewrite over the next three fresh variables;
    then compact the variables.  Each rescan compares every clause pair, so
    this is for small formulas only: the reference for normalize's one
    sweep."""
    clauses = []
    for clause in f.clauses:
        if not clause:
            raise InputError("empty clause is trivially unsatisfiable")
        lits = set(clause)
        if not any(-lit in lits for lit in lits):
            clauses.append(tuple(sorted(lits, key=lambda l: (abs(l), l < 0))))
    if not clauses:
        return CnfFormula(1, ((1,),))
    num_vars = f.num_vars
    while (conflict := next(pairwise_conflicts(clauses), None)) is not None:
        j = conflict[1]
        lits = list(clauses[j])
        l1, l2, l3 = lits if len(lits) == 3 else (lits[0], lits[1], lits[1])
        a, b, c = num_vars + 1, num_vars + 2, num_vars + 3
        clauses[j:j + 1] = [(l1, a, b), (l2, a, -b), (l2, -a, c),
                            (l3, -a, -c)]
        num_vars += 3
    used = sorted({abs(lit) for clause in clauses for lit in clause})
    remap = {old: new for new, old in enumerate(used, start=1)}
    return CnfFormula(len(used), tuple(
        tuple(remap[abs(lit)] * (1 if lit > 0 else -1) for lit in clause)
        for clause in clauses))


def random_normalized_formula(rng: random.Random, max_vars: int = 6,
                              max_clauses: int = 8) -> CnfFormula:
    """Random formula that is already normalized: distinct variables per
    clause (no tautologies) and clause pairs sharing at most one literal,
    enforced by rejection; unused variables are compacted by normalize."""
    nv = rng.randint(2, max_vars)
    m = rng.randint(1, max_clauses)
    clauses: list[tuple[int, ...]] = []
    for _ in range(m):
        for _attempt in range(60):
            size = rng.choice((1, 2, 3, 3, 3))
            chosen = rng.sample(range(1, nv + 1), min(size, nv))
            clause = tuple(v if rng.random() < 0.5 else -v for v in chosen)
            if all(len(set(clause) & set(c)) <= 1 for c in clauses):
                clauses.append(clause)
                break
    return normalize(CnfFormula.of(nv, clauses))


def random_raw_formula(rng: random.Random) -> CnfFormula:
    """Unrestricted small formula: tautologies, duplicate literals, and
    clause-pair conflicts all allowed, to exercise every normalize path.
    Kept to 3 variables and 4 clauses so the normalized result stays within
    reach of the independent truth-table walker (at most 3 + 3*4 variables)."""
    nv = rng.randint(1, 3)
    m = rng.randint(1, 4)
    clauses = []
    for _ in range(m):
        size = rng.randint(1, 3)
        clause = tuple((1 if rng.random() < 0.5 else -1) * rng.randint(1, nv)
                       for _ in range(size))
        clauses.append(clause)
    return CnfFormula.of(nv, clauses)


# every function of powers that builds n-bit rows or lists a family
ROWS_AND_FAMILIES = ("power_path", "power_cycle", "power_graph",
                     "path_bicliques", "cycle_bicliques", "path_stars",
                     "cycle_stars", "power_family", "maximal_family",
                     "cycle_induced_p3s")
# every function of graphs that searches colour classes for maximal sets or
# lists a whole family
CLASS_SEARCH = ("colour_classes", "smallest_maximal_inside", "maximal_masks",
                "maximal_family", "maximal_cb_candidates",
                "maximal_star_candidates")


def forbid_rows_and_families(monkeypatch) -> None:
    """Make every function of powers that builds rows or lists a family,
    and every function of graphs that searches colour classes, raise when
    called."""
    def built(*args):
        raise AssertionError(f"rows, family or class search for {args}")
    for name in ROWS_AND_FAMILIES:
        monkeypatch.setattr(powers, name, built)
    for name in CLASS_SEARCH:
        monkeypatch.setattr(graphs, name, built)
