"""Shared test-side checkers.

The ground truth is benchmarks/reference.py, loaded here by path as
`reference`; it imports nothing from the package.  Tests call its
satisfiable, ab_pair and is_star directly.  scan_maximal, the one subset
scan, keeps every vertex subset that reference.is_maximal accepts: the
oracle's enumeration, the families, verify's core and the reduction's
containment must reproduce it set for set.  The other references
here read only g.n and g.adj and take different routes than the library:
BFS bipartition instead of forced-neighbourhood masks, nested loops instead
of bitset algebra, and a walk over binary digits (bits_by_walk) instead of
the library's byte tables.  Closed forms and the oracle are both tested
against these, so a shared bug would have to be made twice in different
styles.  walk_induced_c4 keeps the nested loops that
graphs.contains_induced_c4 was first written as, and holds it to them.
walk_mono_p3, the acceptance suite's P3 finder, is held to brute_mono_p3,
which tries every vertex triple.  is_complete_bipartite, induced_subgraph
and block_profile left the package with tests of their own; the
strategies and random inputs are built with the package.
"""

from __future__ import annotations

import importlib.util
import random
from itertools import combinations, groupby
from pathlib import Path

from hypothesis import strategies as st

from bicliques.graphs import (Graph, InputError, cb_sides, mask_of,
                              vertex_set, vertices_of)
from bicliques import graphs, powers
from bicliques.reduction import CnfFormula, normalize

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark(name: str):
    """The module benchmarks/<name>.py, loaded by path: the benchmark is
    not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = load_benchmark("reference")


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
    adj = g.adj
    inside = set(vs)
    side = {vs[0]: 0}
    queue = [vs[0]]
    while queue:
        v = queue.pop()
        for u in bits_by_walk(adj[v]):
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
        if (adj[x] >> y & 1) == (side[x] == side[y]):
            return None
    return a, b


def scan_maximal(g: Graph, mode: str, vmask: int | None = None):
    """The maximal complete bipartite sets (mode "biclique") or maximal
    stars (mode "star") of g inside the vertex mask vmask, all of g by
    default, as sorted vertex tuples, sorted: every submask with two or
    more vertices, listed by reference.bits, is kept when
    reference.is_maximal holds, that is when no single vertex of g extends
    it.  That is maximality by inclusion too: a set of either kind strictly
    inside another of its kind can take any one more vertex of the other
    and stay of its kind."""
    if vmask is None:
        vmask = (1 << g.n) - 1
    found = []
    sub = vmask
    while sub:
        if sub & (sub - 1):
            vs = tuple(reference.bits(sub))
            if reference.is_maximal(g.adj, vs, mode):
                found.append(vs)
        sub = (sub - 1) & vmask
    return sorted(found)


def shaped(g: Graph, sets):
    """(vertices, induced_shape) of each vertex tuple in sets, in order."""
    return [(vs, induced_shape(g, vs)) for vs in sets]


def first_monochromatic(colours, sets):
    """The first vertex set in sets whose vertices all share one colour
    (colours[v] is the colour of v), or None."""
    for vs in sets:
        first = colours[vs[0]]
        if all(colours[v] == first for v in vs[1:]):
            return vs
    return None


def induced_shape(g: Graph, s) -> str:
    """Classify the subgraph induced by s: "P2", "P3", "C4", or "OTHER"."""
    vs = tuple(s)
    adj = g.adj
    if len(vs) == 2:
        return "P2" if adj[vs[0]] >> vs[1] & 1 else "OTHER"
    pairs = [(i, j) for i, j in combinations(vs, 2) if adj[i] >> j & 1]
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
    for w in bits_by_walk(ext):
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
    for w in bits_by_walk(ext):
        seen = adj[w] & smask
        if seen & centres and seen & (seen - 1) == 0:
            return False
    return True


def brute_mono_p3(g: Graph, colours, reach_in=None):
    """First monochromatic induced P3 of g by vertex triple with its reach,
    or None: every triple is tried, one with exactly two edges is an
    induced P3, and its reach is the sum of the cyclic distances (g.n the
    cycle length) from the centre, the vertex on both edges, to the ends."""
    adj = g.adj
    for triple in combinations(range(g.n), 3):
        if len({colours[v] for v in triple}) != 1:
            continue
        edges = [{x, y} for x, y in combinations(triple, 2)
                 if adj[x] >> y & 1]
        if len(edges) != 2:
            continue
        (centre,) = edges[0] & edges[1]
        reach = sum(min((v - centre) % g.n, (centre - v) % g.n)
                    for v in triple if v != centre)
        if reach_in is None or reach in reach_in:
            return triple, reach
    return None


def walk_mono_p3(g: Graph, colours, reach_in=None):
    """First monochromatic induced P3 of g by vertex triple with its reach,
    as brute_mono_p3, or None, by nested loops: for a < b in one colour
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
                reach = sum(min((v - centre) % n, (centre - v) % n)
                            for v in (a, b, c))
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
    among all its submasks with nested loops over adjacency bits."""
    vs = bits_by_walk(mask)
    found = []
    for r in range(len(vs) + 1):
        for sub in combinations(vs, r):
            if not any(g.adj[x] >> y & 1 for x, y in combinations(sub, 2)):
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


def pairwise_conflicts(clauses):
    """The clause pairs (i, j), i < j, sharing two or more literals, in
    combinations order, found by comparing every pair."""
    return ((i, j) for i, j in combinations(range(len(clauses)), 2)
            if len(set(clauses[i]) & set(clauses[j])) >= 2)


def fixpoint_normalize(f: CnfFormula) -> tuple:
    """normalize by its definition, as a plain (num_vars, clauses) tuple,
    which a CnfFormula equals field for field: after dropping tautologies
    and duplicate literals, rescan the whole clause list after every
    rewrite for its first conflicting pair and replace the pair's later
    clause, in place, by the four clauses of the rewrite over the next
    three fresh variables; then compact the variables.  Each rescan
    compares every clause pair, so this is for small formulas only: the
    reference for normalize's one sweep."""
    clauses = []
    for clause in f.clauses:
        if not clause:
            raise ValueError("empty clause is trivially unsatisfiable")
        lits = set(clause)
        if not any(-lit in lits for lit in lits):
            clauses.append(tuple(sorted(lits, key=lambda l: (abs(l), l < 0))))
    if not clauses:
        return 1, ((1,),)
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
    return len(used), tuple(
        tuple(remap[abs(lit)] * (1 if lit > 0 else -1) for lit in clause)
        for clause in clauses)


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
