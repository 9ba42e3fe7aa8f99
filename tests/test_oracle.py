"""Oracle: the output-sensitive biclique and star enumerations against the
exhaustive subset scan and an independent subset checker, the exact
chromatic search, and the tests' own monochromatic-P3 and block helpers."""

import random
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from bicliques.colouring import (
    Colouring,
    biclique_colour_cycle,
    biclique_colour_path,
    star_colour_cycle,
    star_colour_path,
    three_colour_no_mono_p3,
)
from bicliques.graphs import CapacityError, Graph, InputError
from bicliques.oracle import (
    SEARCH_CAP,
    SUBSET_SCAN_CAP,
    exact_chromatic,
    maximal_bicliques,
    maximal_stars,
    verify_colouring,
)
from bicliques import graphs
from bicliques.graphs import colour_classes, smallest_maximal_inside
from bicliques.powers import (
    circulant,
    first_mono_set,
    power_cycle,
    power_family,
    power_graph,
    power_path,
)


def test_oracle_frozen_enumerations():
    c5 = power_cycle(5, 1)
    assert [b.vertices for b in maximal_bicliques(c5)] == \
        [(0, 1, 2), (0, 1, 4), (0, 3, 4), (1, 2, 3), (2, 3, 4)]
    assert all(b.shape == "P3" for b in maximal_bicliques(c5))
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert [(b.vertices, b.shape) for b in maximal_bicliques(claw)] == \
        [((0, 1, 2, 3), "OTHER")]
    assert maximal_stars(claw) == [(0, 1, 2, 3)]
    k3 = power_path(3, 2)
    assert [b.vertices for b in maximal_bicliques(k3)] == \
        [(0, 1), (0, 2), (1, 2)]


@given(support.graph_strategy(max_n=8))
@settings(max_examples=40, deadline=None)
def test_oracle_families_match_brute_subset_checker(g):
    assert {b.vertices for b in maximal_bicliques(g)} == \
        support.brute_maximal_cb_sets(g)
    assert set(maximal_stars(g)) == support.brute_maximal_star_sets(g)


@given(support.graph_strategy(max_n=11))
@settings(max_examples=80, deadline=None)
def test_oracle_families_match_subset_scan(g):
    assert [(b.vertices, b.shape) for b in maximal_bicliques(g)] == \
        support.brute_scan_bicliques(g)
    assert maximal_stars(g) == support.brute_scan_stars(g)


def _relabelled(rng, g):
    perm = rng.sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()])


@pytest.mark.parametrize("n", range(12, 17))
def test_oracle_families_match_subset_scan_on_benchmark_graph_types(n):
    # the graph types of the benchmark's oracle deck: relabelled powers with
    # k = 3, circulants with distances {1, 1 + n // 4}, and G(n, 0.3)
    rng = random.Random(n)
    for g in (_relabelled(rng, power_path(n, 3)),
              _relabelled(rng, power_cycle(n, 3)),
              circulant(n, [1, 1 + n // 4]),
              support.random_graph(rng, n, 0.3)):
        assert [(b.vertices, b.shape) for b in maximal_bicliques(g)] == \
            support.brute_scan_bicliques(g)
        assert maximal_stars(g) == support.brute_scan_stars(g)


def _calls_during(code, run):
    """run() and the number of calls of the function with this code object
    made while it ran, counted by a profile hook."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def test_every_candidate_is_checked_for_maximality():
    """maximal_bicliques calls is_maximal_cb, and maximal_stars
    is_maximal_star, once on every candidate its enumerator yields, so the
    families are certified set by set (and the tracer's counts of those
    calls mean what they say)."""
    rng = random.Random(14)
    pairs = list(combinations(range(18), 2))
    for g in (_relabelled(rng, power_cycle(16, 3)),
              _relabelled(rng, power_path(20, 3)),
              circulant(17, [1, 5]),
              Graph.from_edges(18, rng.sample(pairs, 45))):
        full = (1 << g.n) - 1
        found, calls = _calls_during(graphs.is_maximal_cb.__code__,
                                     lambda: maximal_bicliques(g))
        assert calls == len(list(graphs.maximal_cb_candidates(g.adj, full)))
        assert calls >= len(found) > 0
        found, calls = _calls_during(graphs.is_maximal_star.__code__,
                                     lambda: maximal_stars(g))
        assert calls == len(list(graphs.maximal_star_candidates(g.adj, full)))
        assert calls >= len(found) > 0


def test_enumeration_does_not_walk_subsets_of_a_large_side():
    # K_{1,21} and K_{11,11} have one maximal biclique each; the side of
    # vertex 0's neighbours has 2^21 (2^11) independent subsets, which the
    # enumeration must not visit one by one
    star = Graph.from_edges(22, [(0, v) for v in range(1, 22)])
    k11 = Graph.from_edges(22, [(u, v) for u in range(11)
                                for v in range(11, 22)])
    start = time.perf_counter()
    assert [b.vertices for b in maximal_bicliques(star)] == [tuple(range(22))]
    assert [b.vertices for b in maximal_bicliques(k11)] == [tuple(range(22))]
    assert maximal_stars(star) == [tuple(range(22))]
    assert time.perf_counter() - start < 1


def test_scan_cap():
    """Both caps are worded by graphs.check_cap, as the command line's."""
    too_big = Graph(SUBSET_SCAN_CAP + 1, (0,) * (SUBSET_SCAN_CAP + 1))
    scan = "^subset scan is capped at n <= 22, got n=23$"
    with pytest.raises(CapacityError, match=scan):
        maximal_bicliques(too_big)
    with pytest.raises(CapacityError, match=scan):
        maximal_stars(too_big)
    with pytest.raises(CapacityError,
                       match="^exact search is capped at n <= 14, got n=15$"):
        exact_chromatic(power_path(SEARCH_CAP + 1, 1))
    # an unknown mode is bad input, refused before the cap
    with pytest.raises(InputError, match="^unknown mode 'x'$"):
        exact_chromatic(power_path(SEARCH_CAP + 1, 1), "x")


def test_verify_colouring_witnesses():
    g = power_path(6, 1)
    assert verify_colouring(g, (0, 0, 0, 1, 1, 1)) == (0, 1, 2)
    assert verify_colouring(g, (0, 1, 0, 1, 0, 1)) is None
    assert verify_colouring(g, Colouring((0, 0, 0, 1, 1, 1), 2)) == (0, 1, 2)
    with pytest.raises(InputError):
        verify_colouring(g, (0, 1))
    with pytest.raises(InputError):
        verify_colouring(g, (0,) * 6, mode="clique")


@given(support.graph_strategy(max_n=12), st.integers(1, 3), st.randoms())
@settings(max_examples=150, deadline=None)
def test_verify_colouring_equals_scan_of_sorted_family(g, c, rng):
    """Searching each colour class finds the sorted family's first
    monochromatic set, in both modes."""
    colours = [rng.randrange(c) for _ in range(g.n)]
    for mode, family in (("biclique", [b.vertices
                                       for b in maximal_bicliques(g)]),
                         ("star", maximal_stars(g))):
        assert verify_colouring(g, colours, mode) == \
            support.first_monochromatic(colours, family)


_CONSTRUCT = {("path", "biclique"): biclique_colour_path,
              ("path", "star"): star_colour_path,
              ("cycle", "biclique"): biclique_colour_cycle,
              ("cycle", "star"): star_colour_cycle}


def test_class_search_equals_scan_of_sorted_family_on_powers():
    """Every P_n^k and C_n^k with k <= 6 and n <= 8k+3, both modes, random
    colourings with 1-3 colours and the constructor's: verify_colouring (up
    to its cap), first_mono_set and the class search itself find the
    sorted family's first monochromatic set."""
    rng = random.Random(13)
    for kind in ("path", "cycle"):
        for k in range(1, 7):
            for n in range(1, 8 * k + 4):
                g = power_graph(kind, n, k)
                for mode in ("biclique", "star"):
                    family = [getattr(s, "vertices", s)
                              for s in power_family(kind, mode, n, k)]
                    built = _CONSTRUCT[kind, mode](n, k).colouring.colours
                    for c in (0, 1, 2, 3):
                        colours = [rng.randrange(c) for _ in range(n)] \
                            if c else built
                        want = support.first_monochromatic(colours, family)
                        assert min(smallest_maximal_inside(
                            g.adj, mode, colour_classes(colours).values()),
                            default=None) == want, (kind, mode, n, k)
                        assert first_mono_set(kind, mode, n, k, colours) \
                            == want, (kind, mode, n, k)
                        if n <= SUBSET_SCAN_CAP:
                            assert verify_colouring(g, colours, mode) == want


@given(support.graph_strategy(min_n=2, max_n=9))
@settings(max_examples=60, deadline=None)
def test_proper_colouring_never_leaves_mono_hyperedge(g):
    # every hyperedge contains an edge, so a proper colouring splits it
    colours = support.greedy_proper_colouring(g)
    assert verify_colouring(g, colours, mode="biclique") is None
    assert verify_colouring(g, colours, mode="star") is None


def test_exact_chromatic_frozen():
    assert exact_chromatic(power_cycle(5, 1))[0] == 2
    assert exact_chromatic(power_cycle(11, 3))[0] == 3
    assert exact_chromatic(power_cycle(11, 4))[0] == 2
    assert exact_chromatic(power_cycle(11, 4), mode="star")[0] == 3
    k4 = power_path(4, 3)
    assert exact_chromatic(k4)[0] == 4
    with pytest.raises(InputError):
        exact_chromatic(k4, mode="clique")


def test_exact_chromatic_degenerate():
    empty3 = Graph(3, (0, 0, 0))
    value, colouring = exact_chromatic(empty3)
    assert value == 1 and colouring.colours == (0, 0, 0)
    assert exact_chromatic(Graph(0, ()))[0] == 0
    assert exact_chromatic(power_path(1, 1))[0] == 1


def test_exact_chromatic_output_is_consistent():
    for g, mode in ((power_cycle(9, 2), "biclique"),
                    (power_cycle(10, 3), "star"),
                    (power_path(8, 2), "biclique")):
        value, colouring = exact_chromatic(g, mode)
        assert colouring.num_colours == value
        assert verify_colouring(g, colouring, mode=mode) is None
        # minimality: one fewer colour is impossible by brute re-search over
        # all canonical colourings
        if value > 1:
            hyper = ([b.vertices for b in maximal_bicliques(g)]
                     if mode == "biclique" else maximal_stars(g))
            assert _no_colouring_with(g, hyper, value - 1)


def _no_colouring_with(g, hyperedges, c: int) -> bool:
    """Independent exhaustive check that c colours always leave a
    monochromatic hyperedge (vertex 0 pinned to colour 0)."""
    n = g.n
    total = c ** (n - 1)
    for code in range(total):
        colours = [0]
        x = code
        for _ in range(n - 1):
            colours.append(x % c)
            x //= c
        if all(any(colours[v] != colours[vs[0]] for v in vs)
               for vs in hyperedges):
            return False
    return True


def test_walk_mono_p3():
    g = power_cycle(8, 2)
    hit = support.walk_mono_p3(g, (0,) * 8)
    assert hit is not None
    triple, reach = hit
    assert 3 <= reach <= 4
    a, b, c = triple
    edges = [(x, y) for x, y in ((a, b), (a, c), (b, c)) if g.has_edge(x, y)]
    assert len(edges) == 2
    assert support.walk_mono_p3(g, (0,) * 8, reach_in={3}) is not None
    assert support.walk_mono_p3(g, (0,) * 8, reach_in={99}) is None
    assert support.walk_mono_p3(g, three_colour_no_mono_p3(8, 2).colours) \
        is None


@settings(max_examples=300, deadline=None)
@given(st.one_of(support.graph_strategy(max_n=12),
                 st.builds(power_cycle, st.integers(1, 14), st.integers(1, 4))),
       st.data())
def test_walk_mono_p3_matches_brute_force(g, data):
    colours = data.draw(st.lists(st.integers(0, 2), min_size=g.n,
                                 max_size=g.n))
    reach_in = data.draw(st.none() | st.sets(st.integers(1, 14), max_size=4))
    assert support.walk_mono_p3(g, colours, reach_in) == \
        support.brute_mono_p3(g, colours, reach_in)


def test_block_profile():
    assert support.block_profile((1, 1, 1, 0, 0)) == [(1, 3), (0, 2)]
    # wrap-around: trailing run merges with the leading one
    assert support.block_profile((1, 1, 0, 0, 1)) == [(0, 2), (1, 3)]
    assert support.block_profile((1, 1, 0, 0, 1), cyclic=False) == \
        [(1, 2), (0, 2), (1, 1)]
    assert support.block_profile((2, 2, 2)) == [(2, 3)]
    assert support.block_profile(()) == []
    assert support.block_profile(Colouring((0, 1, 1), 2)) == [(0, 1), (1, 2)]
