"""Graph core: representation invariants, predicates against independent
checkers, and serialization round-trips."""

import io
import json
import random
from contextlib import redirect_stdout
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from support import reference
from bicliques import graphs
from bicliques.graphs import (
    DOT_PALETTE,
    Graph,
    InputError,
    cb_sides,
    contains_induced_c4,
    induced_p3s,
    contains_k4,
    graph_fields,
    is_maximal_cb,
    is_maximal_star,
    is_star_set,
    mask_of,
    maximal_cb_candidates,
    maximal_family,
    maximal_independent_subsets,
    maximal_masks,
    maximal_star_candidates,
    read_graph,
    smallest_maximal_inside,
    vertex_set,
    vertices_of,
    write_dot,
    write_graph,
)
from bicliques.powers import circulant, power_cycle, power_path


def test_bits_and_mask_round_trip():
    assert vertices_of(0) == ()
    assert vertices_of(0b10110) == (1, 2, 4)
    assert mask_of([4, 1, 2]) == 0b10110
    for seed in range(20):
        rng = random.Random(seed)
        vs = sorted(rng.sample(range(40), rng.randint(0, 12)))
        assert vertices_of(mask_of(vs)) == tuple(vs)


def test_vertices_of_matches_a_bit_walk():
    """vertices_of reads masks below 2^24 from its three byte tables and
    walks wider ones: both agree with a plain bit walk at every edge of
    the tables, on random masks of one to three bytes, and on random masks
    of 25 to 20 000 bits."""
    rng = random.Random("vertices_of")
    masks = [0, 1, (1 << 8) - 1, 1 << 8, (1 << 16) - 1, 1 << 16,
             (1 << 16) + 1, (1 << 24) - 1, 1 << 24, (1 << 24) + 1,
             (1 << 24) | 0b1011, (1 << 25) - 1]
    masks += [rng.getrandbits(bits) for bits in (8, 16, 24) * 300]
    masks += [rng.getrandbits(rng.randint(25, 20000)) | 1 << 24
              for _ in range(100)]
    masks += [mask_of(rng.sample(range(bits), rng.randint(1, 6)))
              for bits in (9, 17, 24, 30, 20000) * 40]
    for mask in masks:
        assert vertices_of(mask) == support.bits_by_walk(mask), mask


def test_vertex_set_normalizes_and_validates():
    assert vertex_set([3, 0, 2]) == (0, 2, 3)
    assert vertex_set((5,), n=6) == (5,)
    with pytest.raises(InputError):
        vertex_set([1, 1, 2])
    with pytest.raises(InputError):
        vertex_set([-1, 0])
    with pytest.raises(InputError):
        vertex_set([0, 7], n=7)


def test_graph_construction_validates():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (1, 0)])  # duplicates collapse
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.edge_count == 2
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(InputError,
                       match=r"^asymmetric adjacency between 0 and 1$"):
        Graph(n=2, adj=(2, 0))
    with pytest.raises(InputError):
        Graph(n=1, adj=(2,))  # row bit out of range


@given(st.integers(0, 12), st.randoms())
@settings(max_examples=100, deadline=None)
def test_from_edges_equals_the_checked_rows(n, rng):
    """Random edge lists, with duplicates and both orientations, give the
    graph that Graph's own checks accept on the same rows."""
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 30))
             ] if n >= 2 else []
    edges = pairs + [(j, i) for i, j in pairs if rng.random() < 0.5]
    rng.shuffle(edges)
    rows = [0] * n
    for i, j in edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    assert Graph.from_edges(n, edges, "g") == Graph(n, tuple(rows), "g")
    assert type(Graph.from_edges(n, edges)) is Graph


# (n, edges, message): out-of-range edges, self-loops and a negative n,
# with and without edges, the edges being checked before n
BAD_EDGES = (
    (3, [(0, 3)], "edge (0, 3) out of range for n=3"),
    (3, [(-1, 0)], "edge (-1, 0) out of range for n=3"),
    (0, [(0, 0)], "edge (0, 0) out of range for n=0"),
    (3, [(1, 1)], "self-loop edge (1, 1)"),
    (2, [(0, 1), (1, 1)], "self-loop edge (1, 1)"),
    (-1, [], "vertex count must be non-negative"),
    (-2, [(0, 1)], "edge (0, 1) out of range for n=-2"),
    (-1, [(0, 0)], "edge (0, 0) out of range for n=-1"))


@pytest.mark.parametrize("n, edges, message", BAD_EDGES)
def test_from_edges_rejects_bad_input_with_its_message(n, edges, message):
    """An InputError with the message that names the first fault."""
    with pytest.raises(InputError) as err:
        Graph.from_edges(n, edges)
    assert type(err.value) is InputError and str(err.value) == message


@pytest.mark.parametrize("n, edges, message", BAD_EDGES)
def test_graph_fields_rejects_bad_input_with_its_message(n, edges, message):
    """A file's [i, j] entries get from_edges' message for the same fault,
    before any row is built: power_params, which reads the edges with no
    graph built, relies on graph_fields to refuse a self-loop."""
    with pytest.raises(InputError) as err:
        graph_fields({"n": n, "edges": [list(e) for e in edges]})
    assert type(err.value) is InputError and str(err.value) == message


def test_neighbours_degree_edges():
    g = power_path(5, 2)
    assert tuple(g.neighbours(0)) == (1, 2)
    assert tuple(g.neighbours(2)) == (0, 1, 3, 4)
    assert g.degree(2) == 4
    assert g.has_edge(0, 2) and not g.has_edge(0, 3)
    assert all(i < j for i, j in g.edges())
    assert g.edges() == sorted(g.edges())


def test_induced_subgraph_relabels():
    g = power_path(6, 2)
    h = support.induced_subgraph(g, (1, 3, 4))
    assert h.n == 3
    # 1-3 and 3-4 are edges of the parent, 1-4 is not
    assert h.edges() == [(0, 1), (1, 2)]


@given(support.graph_strategy(max_n=8))
@settings(max_examples=60, deadline=None)
def test_is_complete_bipartite_matches_bfs_checker(g):
    for r in range(2, g.n + 1):
        for vs in combinations(range(g.n), r):
            ok, sides = support.is_complete_bipartite(g, vs)
            expect = support.bfs_complete_bipartite(g, vs)
            assert ok == (expect is not None)
            if ok:
                assert set(sides[0]) | set(sides[1]) == set(vs)
                assert {frozenset(sides[0]), frozenset(sides[1])} == \
                    {frozenset(expect[0]), frozenset(expect[1])}
                # smallest vertex reported in the first side
                assert min(vs) in sides[0]


def test_is_complete_bipartite_examples():
    p = power_path(5, 1)
    is_cb = support.is_complete_bipartite
    assert is_cb(p, (0, 1, 2)) == (True, ((0, 2), (1,)))
    assert is_cb(p, (0, 1, 3))[0] is False
    c = power_cycle(11, 4)
    assert is_cb(c, (0, 3, 6, 9)) == (True, ((0, 6), (3, 9)))
    with pytest.raises(InputError):
        is_cb(p, (2,))


@given(support.graph_strategy(max_n=8))
@settings(max_examples=60, deadline=None)
def test_maximality_kernels_match_extension_scan(g):
    """Maximal means no single outside vertex gives a larger complete
    bipartite set (star), decided here by the independent loop checkers.
    One-vertex sets are neither; cb_sides refuses them as edgeless."""
    for r in range(1, g.n + 1):
        for vs in combinations(range(g.n), r):
            m = mask_of(vs)
            outside = [w for w in range(g.n) if w not in vs]
            complete = support.bfs_complete_bipartite(g, vs) is not None
            assert (cb_sides(g.adj, m) is not None) == complete
            if complete:
                expect = not any(
                    support.bfs_complete_bipartite(g, vs + (w,)) is not None
                    for w in outside)
                assert is_maximal_cb(g.adj, m, cb_sides(g.adj, m)) == expect
            star = reference.is_star(g.adj, vs)
            assert is_star_set(g.adj, m) == star
            if star:
                assert is_maximal_star(g.adj, m) == (not any(
                    reference.is_star(g.adj, vs + (w,)) for w in outside))


def _assert_maximality_matches_walk(adj):
    """The row-algebra predicates equal the walk of tests/support.py on
    every candidate, and on every candidate less one vertex that is still
    complete bipartite (a star), most of which are not maximal."""
    checked = 0
    for a, b in maximal_cb_candidates(adj, (1 << len(adj)) - 1):
        s = a | b
        assert is_maximal_cb(adj, s, (a, b)) == \
            support.walk_is_maximal_cb(adj, s, (a, b))
        for v in vertices_of(s):
            m = s ^ 1 << v
            sides = cb_sides(adj, m) if m & (m - 1) else None
            if sides is not None:
                assert is_maximal_cb(adj, m, sides) == \
                    support.walk_is_maximal_cb(adj, m, sides)
                checked += 1
    for s in maximal_star_candidates(adj, (1 << len(adj)) - 1):
        assert is_maximal_star(adj, s) == support.walk_is_maximal_star(adj, s)
        for v in vertices_of(s):
            m = s ^ 1 << v
            if m & (m - 1) and is_star_set(adj, m):
                assert is_maximal_star(adj, m) == \
                    support.walk_is_maximal_star(adj, m)
                checked += 1
    assert checked  # some smaller sets were compared


def _written(writer, *args) -> str:
    """What writer(*args) writes to stdout (a path of None), captured."""
    with redirect_stdout(io.StringIO()) as out:
        writer(*args)
    return out.getvalue()


def _assert_edge_listings_match(g):
    """g.edges(), the edges of write_graph's JSON and write_dot's edge lines
    are the reference listing: each pair once, i < j, in lexicographic
    order."""
    ref = [(i, j) for i in range(g.n) for j in vertices_of(g.adj[i]) if i < j]
    assert g.edges() == ref
    written = json.loads(_written(write_graph, g, None))
    assert written["edges"] == [[i, j] for i, j in ref]
    dot = _written(write_dot, g, None)
    dot_edges = [line for line in dot.splitlines() if " -- " in line]
    assert dot_edges == [f"  {i} -- {j};" for i, j in ref]


WIDE_POWERS = (
    ("path", 65, 25), ("path", 120, 10), ("path", 300, 3), ("cycle", 65, 3),
    ("cycle", 70, 20), ("cycle", 130, 12), ("cycle", 200, 8),
    ("cycle", 300, 5))
WIDE_RANDOM = ((23, 0.3), (40, 0.2), (65, 0.12), (90, 0.08), (130, 0.06))


@pytest.mark.parametrize("kind, n, k", WIDE_POWERS)
def test_maximality_algebra_matches_walk_on_wide_powers(kind, n, k):
    """Rows wider than 64 bits, in every range of the families: complete
    bipartite sets of 2..4 vertices, stars of up to 2k leaves."""
    g = (power_path if kind == "path" else power_cycle)(n, k)
    _assert_maximality_matches_walk(g.adj)
    _assert_edge_listings_match(g)


@pytest.mark.parametrize("n, p", WIDE_RANDOM)
def test_maximality_algebra_matches_walk_on_random_graphs(n, p):
    g = support.random_graph(random.Random(f"wide:{n}:{p}"), n, p)
    _assert_maximality_matches_walk(g.adj)


@pytest.mark.parametrize("g", [
    *((power_path if kind == "path" else power_cycle)(n, k)
      for kind, n, k in WIDE_POWERS),
    *(support.random_graph(random.Random(f"wide:{n}:{p}"), n, p)
      for n, p in WIDE_RANDOM)])
def test_family_records_carry_the_shape_of_their_sides(g):
    """maximal_family reads each record's shape from the side sizes of its
    candidate: it is the shape of the set's cb_sides sizes, and the shape
    that the edge count of tests/support.py gives."""
    shapes = set()
    for rec in maximal_family(g.adj, "biclique"):
        a, b = cb_sides(g.adj, mask_of(rec.vertices))
        sizes = (a.bit_count(), b.bit_count())
        assert rec.shape == graphs._SHAPES.get(sizes, "OTHER")
        assert rec.shape == support.induced_shape(g, rec.vertices)
        shapes.add(rec.shape)
    assert shapes & {"P3", "C4"}


@pytest.mark.parametrize("n, p", ((8, 0.5), (13, 0.4), (16, 0.3), (20, 0.2)))
def test_family_records_are_in_record_order(n, p):
    """maximal_family sorts its biclique records on their vertex tuples
    alone; as no two records share them, that is the records' own order."""
    for seed in range(5):
        g = support.random_graph(random.Random(f"order:{n}:{p}:{seed}"), n, p)
        family = maximal_family(g.adj, "biclique")
        assert len({rec.vertices for rec in family}) == len(family)
        assert family == sorted(family)


@given(support.graph_strategy(max_n=10), st.integers(0, (1 << 10) - 1))
@settings(max_examples=80, deadline=None)
def test_maximal_independent_subsets_match_submask_scan(g, mask):
    mask &= (1 << g.n) - 1
    found = list(maximal_independent_subsets(g.adj, mask))
    assert len(found) == len(set(found))
    assert set(found) == support.brute_maximal_independent_sets(g, mask)


@given(support.graph_strategy(max_n=10))
@settings(max_examples=40, deadline=None)
def test_maximal_independent_subsets_of_at_most_one_vertex(g):
    """A mask of no vertex or one is its own only maximal independent set."""
    for mask in [0] + [1 << v for v in range(g.n)]:
        assert list(maximal_independent_subsets(g.adj, mask)) == [mask]


@pytest.mark.parametrize("n, p", ((8, 0.3), (12, 0.5), (20, 0.2), (70, 0.1)))
def test_maximal_independent_subsets_of_two_vertices(n, p):
    """A mask of two vertices u < v yields {v} then {u} when uv is an edge
    and else the mask itself, as the search gives them."""
    g = support.random_graph(random.Random(f"pairs:{n}:{p}"), n, p)
    seen = set()
    for u, v in combinations(range(n), 2):
        edge = g.has_edge(u, v)
        expect = [1 << v, 1 << u] if edge else [1 << u | 1 << v]
        assert list(maximal_independent_subsets(g.adj, 1 << u | 1 << v)) \
            == expect
        seen.add(edge)
    assert seen == {True, False}


def test_maximal_independent_subsets_of_cliques_and_independent_masks():
    """On every mask of 3-8 vertices of seeded random graphs on 12
    vertices, one of them with an 8-clique planted and one with an
    independent set of 8, a clique yields its vertices, the highest first,
    and an independent mask yields itself, as the search gives them; both
    kinds occur at every size.  A tenth of the other masks, drawn at
    random, yield their maximal independent subsets by the submask scan,
    each once."""
    seen = set()
    for plant in (None, True, False):
        rng = random.Random(f"kinds:{plant}")
        planted = set(combinations(sorted(rng.sample(range(12), 8)), 2))
        edges = {(u, v) for u, v in combinations(range(12), 2)
                 if rng.random() < 0.5}
        if plant is not None:
            edges = edges | planted if plant else edges - planted
        g = Graph.from_edges(12, sorted(edges))
        for size in range(3, 9):
            for vs in combinations(range(12), size):
                mask = mask_of(vs)
                found = list(maximal_independent_subsets(g.adj, mask))
                edges = [g.has_edge(u, v) for u, v in combinations(vs, 2)]
                if all(edges):
                    assert found == [1 << v for v in reversed(vs)]
                    seen.add(("clique", size))
                elif not any(edges):
                    assert found == [mask]
                    seen.add(("independent", size))
                elif rng.random() < 0.1:
                    assert len(found) == len(set(found))
                    assert set(found) == \
                        support.brute_maximal_independent_sets(g, mask)
    assert seen == {(kind, size) for kind in ("clique", "independent")
                    for size in range(3, 9)}


@given(support.graph_strategy(max_n=9), st.integers(0, (1 << 9) - 1))
@settings(max_examples=80, deadline=None)
def test_candidates_cover_sets_maximal_within_the_mask(g, vmask):
    """The biclique candidates are complete bipartite sets inside the mask
    with the sides given, and include every one that no vertex of the mask
    extends and no neighbour of its lowest vertex outside the mask extends;
    the star candidates are stars inside the mask and include every one
    that no vertex of the mask extends.  Both decided here by the
    independent loop checkers."""
    vmask &= (1 << g.n) - 1
    inside = vertices_of(vmask)
    cb = list(maximal_cb_candidates(g.adj, vmask))
    assert len(cb) == len(set(cb))  # no (a, b) pair twice
    lows = [a & -a for a, _ in cb]
    assert lows == sorted(lows)
    for a, b in cb:
        assert a | b == (a | b) & vmask and cb_sides(g.adj, a | b) == (a, b)
    cb_sets = {a | b for a, b in cb}
    stars = set(maximal_star_candidates(g.adj, vmask))
    assert all(is_star_set(g.adj, s) and s & ~vmask == 0 for s in stars)
    for r in range(2, len(inside) + 1):
        for vs in combinations(inside, r):
            others = [w for w in range(g.n) if w not in vs and (
                vmask >> w & 1 or g.has_edge(vs[0], w))]
            if support.bfs_complete_bipartite(g, vs) is not None and not any(
                    support.bfs_complete_bipartite(g, tuple(sorted(vs + (w,))))
                    is not None for w in others):
                assert mask_of(vs) in cb_sets
            if reference.is_star(g.adj, vs) and not any(
                    reference.is_star(g.adj, tuple(sorted(vs + (w,))))
                    for w in inside if w not in vs):
                assert mask_of(vs) in stars


@given(support.graph_strategy(max_n=12), st.integers(0, (1 << 12) - 1))
@settings(max_examples=150, deadline=None)
def test_maximal_masks_inside_a_mask_match_brute_force(g, vmask):
    """maximal_masks(adj, mode, vmask) lists each set maximal in the whole
    graph that lies inside vmask once, and no other, in both modes."""
    vmask &= (1 << g.n) - 1
    for mode in ("biclique", "star"):
        found = maximal_masks(g.adj, mode, vmask)
        assert len(found) == len(set(found))
        assert set(map(vertices_of, found)) == \
            set(support.scan_maximal(g, mode, vmask))


@given(support.graph_strategy(max_n=12),
       st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_smallest_maximal_inside_is_the_least_listed_set(g, vmasks):
    """Per mask, the class search (which stops early in biclique mode)
    answers the least of the sets maximal_masks lists inside it, in both
    modes, and answers nothing for a mask that holds none."""
    vmasks = [m & (1 << g.n) - 1 for m in vmasks]
    for mode in ("biclique", "star"):
        for m in vmasks:
            least = min(map(vertices_of, maximal_masks(g.adj, mode, m)),
                        default=None)
            assert smallest_maximal_inside(g.adj, mode, [m]) == \
                ([] if least is None else [least])


@given(support.graph_strategy(max_n=14))
@settings(max_examples=80, deadline=None)
def test_every_star_candidate_is_a_star(g):
    """maximal_masks tests its star candidates for maximality only: each is
    a centre and an independent set of its neighbours, so a star."""
    for s in maximal_star_candidates(g.adj, (1 << g.n) - 1):
        assert is_star_set(g.adj, s)
        assert reference.is_star(g.adj, tuple(reference.bits(s)))


@given(support.graph_strategy(max_n=14), st.integers(1, 30), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_star_candidates_come_out_once(g, n, extra):
    """A single-edge star comes out from its lower end only, so no mask is
    yielded twice and every maximal star is still among the candidates; on
    C_n^k with n <= 2k+1, the complete graph K_n, the candidates are its
    n(n-1)/2 edges."""
    found = list(maximal_star_candidates(g.adj, (1 << g.n) - 1))
    assert len(found) == len(set(found))
    assert {mask_of(vs) for vs in support.scan_maximal(g, "star")} \
        <= set(found)
    k = max(1, n // 2) + extra
    complete = list(maximal_star_candidates(power_cycle(n, k).adj,
                                            (1 << n) - 1))
    assert len(complete) == n * (n - 1) // 2
    assert set(complete) == {1 << i | 1 << j
                             for i, j in combinations(range(n), 2)}


def _k4_by_permutations(g):
    for quad in combinations(range(g.n), 4):
        if all(g.has_edge(a, b) for a, b in combinations(quad, 2)):
            return quad
    return None


def _c4_by_permutations(g):
    hits = []
    for quad in combinations(range(g.n), 4):
        for perm in permutations(quad):
            if perm[0] != min(perm) or perm[1] > perm[3]:
                continue  # fix rotation and reflection
            ring = [(perm[i], perm[(i + 1) % 4]) for i in range(4)]
            chords = [(perm[0], perm[2]), (perm[1], perm[3])]
            if all(g.has_edge(a, b) for a, b in ring) and \
                    not any(g.has_edge(a, b) for a, b in chords):
                hits.append(quad)
                break
    return min(hits) if hits else None


@given(support.graph_strategy(max_n=14))
@settings(max_examples=80, deadline=None)
def test_k4_and_c4_detection_match_permutation_scan(g):
    assert contains_k4(g) == _k4_by_permutations(g)
    assert contains_induced_c4(g) == _c4_by_permutations(g)


@given(support.graph_strategy(max_n=14))
@settings(max_examples=300, deadline=None)
def test_induced_c4_matches_nested_loop_walk(g):
    assert contains_induced_c4(g) == support.walk_induced_c4(g)


def test_induced_p3s_lists_every_induced_p3_in_order():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (1, 5)])
    walked = list(induced_p3s(g.adj))
    assert [t[:3] for t in walked] == [
        t for t in combinations(range(g.n), 3)
        if support.induced_shape(g, t) == "P3"]
    for a, b, c, centre in walked:
        ends = {a, b, c} - {centre}
        assert all(g.has_edge(centre, v) for v in ends)
        assert not g.has_edge(*ends)


def test_k4_c4_fixed_cases():
    k4 = Graph.from_edges(4, list(combinations(range(4), 2)))
    assert contains_k4(k4) == (0, 1, 2, 3)
    assert contains_induced_c4(k4) is None
    c4 = power_cycle(4, 1)
    assert contains_k4(c4) is None
    assert contains_induced_c4(c4) == (0, 1, 2, 3)
    assert contains_induced_c4(power_cycle(5, 1)) is None
    # planted copies away from vertex 0: the lower first vertex wins, even
    # when the other copy's vertices are lower from the second one on
    k4s = Graph.from_edges(13, list(combinations((3, 9, 10, 12), 2))
                           + list(combinations((4, 5, 6, 7), 2)))
    assert contains_k4(k4s) == (3, 9, 10, 12)
    assert contains_induced_c4(k4s) is None
    # the same ring with each kind of first pair: an edge whose first
    # vertex or second vertex sees the third, and a non-edge
    for ring in ((2, 11, 13, 8), (2, 8, 11, 13), (2, 11, 8, 13)):
        for other in ((3, 4, 5, 6), (3, 5, 4, 6)):
            c4s = Graph.from_edges(14, [
                (ring[i], ring[(i + 1) % 4]) for i in range(4)] + [
                (other[i], other[(i + 1) % 4]) for i in range(4)])
            assert contains_induced_c4(c4s) == (2, 8, 11, 13)
            assert contains_k4(c4s) is None


def test_induced_shape():
    g = power_path(6, 2)
    assert support.induced_shape(g, (0, 1)) == "P2"
    assert support.induced_shape(g, (0, 1, 3)) == "P3"
    assert support.induced_shape(g, (0, 1, 2)) == "OTHER"  # triangle
    c = power_cycle(11, 3)
    assert support.induced_shape(c, (0, 3, 6, 9)) == "C4"
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert support.induced_shape(star, (0, 1, 2, 3)) == "OTHER"


@given(support.graph_strategy(max_n=16))
@settings(max_examples=80, deadline=None)
def test_graph_dict_round_trip(g):
    written = json.loads(_written(write_graph, g, None))
    assert Graph.from_edges(*graph_fields(written)) == g
    _assert_edge_listings_match(g)


def test_graph_fields_returns_the_edges_it_checked_uncopied():
    """graph_fields checks the file's [i, j] entries where they are and
    returns that same list, so a large file's edges are held once."""
    d = support.graph_dict(power_cycle(9, 2))
    n, edges, label = graph_fields(d)
    assert (n, label) == (9, "C_9^2")
    assert edges is d["edges"]


def test_graph_file_round_trip(tmp_path):
    rng = random.Random(7)
    for i in range(20):
        g = support.random_graph(rng, rng.randint(1, 16),
                                 label=f"rt{i}" if i % 2 else None)
        path = tmp_path / f"g{i}.json"
        write_graph(g, path)
        assert read_graph(path) == g


@pytest.mark.parametrize("g", [
    power_path(1, 1), power_path(2, 1), power_path(9, 3), power_cycle(1, 1),
    power_cycle(12, 2), power_cycle(7, 3), circulant(13, [1, 5]),
    circulant(2, [1]), Graph(0, ()), Graph.from_edges(3, []),
    Graph.from_edges(4, [(0, 1), (2, 3)]),
    Graph.from_edges(3, [(0, 2)], 'quote " slash \\ é \n'),
], ids=lambda g: f"{(g.label or 'unlabelled').split()[0]}-n{g.n}")
def test_write_graph_writes_json_dumps_layout(tmp_path, capsys, g):
    """write_graph streams its edges in exactly the bytes that json.dump
    of support.graph_dict writes at indent 1, to a file and to stdout: "[]"
    for no edges, and the label escaped as JSON."""
    expected = json.dumps(support.graph_dict(g), indent=1) + "\n"
    path = tmp_path / "g.json"
    write_graph(g, path)
    assert path.read_bytes() == expected.encode()
    write_graph(g, None)
    assert capsys.readouterr().out == expected


def test_read_graph_error_reporting(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3,\n "edges": [[0, 1],]}\n')
    with pytest.raises(InputError) as exc:
        read_graph(bad)
    assert "line 2" in str(exc.value)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"n": 2, "edges": [[0, 5]]}))
    with pytest.raises(InputError):
        read_graph(wrong)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"edges": []}))
    with pytest.raises(InputError):
        read_graph(missing)
    for d in ({"n": True, "edges": []}, {"n": 3, "edges": [[0, True]]}):
        with pytest.raises(InputError):
            Graph.from_edges(*graph_fields(d))
    # bytes that are not UTF-8, nesting past the parser's recursion limit
    # and an integer too long to convert all name the file
    for data, fragment in ((b'{"n": 3, "label": "\xe9"}', "byte 19: not UTF-8"),
                           (b"[" * 200000, "nested too deeply"),
                           (b"1" * 5000, "digits")):
        bad.write_bytes(data)
        with pytest.raises(InputError) as exc:
            read_graph(bad)
        assert f"{bad}: " in str(exc.value) and fragment in str(exc.value)


def test_write_dot_palette_and_colours(capsys):
    g = power_path(3, 1)
    write_dot(g, None)
    plain = capsys.readouterr().out
    assert "0 -- 1" in plain and "1 -- 2" in plain
    write_dot(g, None, colours=(0, 1, 0))
    coloured = capsys.readouterr().out
    assert DOT_PALETTE[0] in coloured and DOT_PALETTE[1] in coloured
    assert coloured.count(DOT_PALETTE[0]) == 2
    # colour ids past the palette wrap around instead of failing
    write_dot(power_path(9, 1), None, colours=tuple(range(9)))
    many = capsys.readouterr().out
    assert DOT_PALETTE[8 % len(DOT_PALETTE)] in many
