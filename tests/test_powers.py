"""Power-graph generators and closed-form biclique / star enumerations,
checked against the oracle enumeration and independent test-side scanners."""

import hashlib
import json
import random
import re
import time
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import support
from bicliques import powers
from bicliques.colouring import (
    ab_certificate,
    biclique_colour_cycle,
    biclique_colour_path,
    closed_form,
    star_colour_cycle,
    star_colour_path,
)
from bicliques.graphs import (Graph, InputError, colour_classes,
                               smallest_maximal_inside)
from bicliques.oracle import maximal_bicliques, maximal_stars
from bicliques.powers import (
    Biclique,
    circulant,
    cycle_bicliques,
    cycle_induced_p3s,
    cycle_stars,
    cyclic_reach,
    first_mono_set,
    is_complete,
    path_bicliques,
    path_stars,
    power_cycle,
    power_edge_count,
    power_family,
    power_graph,
    power_path,
)


def test_cyclic_reach():
    assert cyclic_reach(11, 0, 1) == 1
    assert cyclic_reach(11, 0, 10) == 1
    assert cyclic_reach(11, 2, 8) == 5
    assert cyclic_reach(10, 0, 5) == 5


def test_power_path_structure():
    g = power_path(4, 1)
    assert g.label == "P_4^1"
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert power_path(6, 2).edge_count == 9
    # n <= k+1 is complete
    k4 = power_path(4, 3)
    assert k4.edge_count == 6
    assert power_path(1, 5).edge_count == 0


def test_power_cycle_structure():
    g = power_cycle(5, 1)
    assert g.label == "C_5^1"
    assert all(g.degree(v) == 2 for v in range(5))
    assert g.has_edge(0, 4) and not g.has_edge(0, 2)
    # n <= 2k+1 is complete
    assert power_cycle(5, 2).edge_count == 10
    assert power_cycle(2, 1).edges() == [(0, 1)]
    big = power_cycle(11, 4)
    assert big.edge_count == 44
    assert all(big.degree(v) == 8 for v in range(11))


@pytest.mark.parametrize("kind", ["path", "cycle"])
def test_power_edge_count_formula(kind):
    for k in range(1, 10):
        for n in range(1, 4 * k + 8):
            assert power_edge_count(kind, n, k) == \
                power_graph(kind, n, k).edge_count, (kind, n, k)
    with pytest.raises(InputError):
        power_edge_count(kind, 5, 0)


def test_power_param_validation():
    for bad in ((0, 1), (3, 0), (-2, 2)):
        with pytest.raises(InputError):
            power_path(*bad)
        with pytest.raises(InputError):
            power_cycle(*bad)


# every public function of powers and colouring that takes a kind or a
# mode: (name, call with that kind and mode, whether it takes a mode)
_KIND_MODE_CALLS = [
    ("power_label", lambda kind, mode: powers.power_label(kind, 5, 1), False),
    ("power_graph", lambda kind, mode: power_graph(kind, 5, 1), False),
    ("is_complete", lambda kind, mode: is_complete(kind, 5, 1), False),
    ("power_edge_count", lambda kind, mode: power_edge_count(kind, 5, 1),
     False),
    ("power_family", lambda kind, mode: power_family(kind, mode, 8, 2), True),
    ("first_mono_set",
     lambda kind, mode: first_mono_set(kind, mode, 11, 4, (0, 1) * 5 + (2,)),
     True),
    ("closed_form", lambda kind, mode: closed_form(kind, mode, 11, 4), True),
]


@pytest.mark.parametrize("name, call, takes_mode", _KIND_MODE_CALLS,
                         ids=[c[0] for c in _KIND_MODE_CALLS])
def test_unknown_kind_or_mode_is_an_input_error(name, call, takes_mode):
    """A kind other than "path" / "cycle" or a mode other than "biclique" /
    "star" raises InputError naming it, whatever the letter case: no
    function reads it as the other kind or mode."""
    for kind in ("path", "cycle"):
        call(kind, "biclique")
        call(kind, "star")
    for bad in ("Path", "Cycle", "paths", ""):
        with pytest.raises(InputError, match=f"^unknown kind {bad!r}$"):
            call(bad, "biclique")
    if takes_mode:
        for bad in ("bicliques", "stars", "Star", ""):
            with pytest.raises(InputError, match=f"^unknown mode {bad!r}$"):
                call("cycle", bad)


def test_unknown_kind_or_mode_regressions():
    """Each of these once gave an answer for another kind or mode, or
    blamed the package: a star witness for a valid biclique colouring, a
    biclique family for stars, C_5^1 for "Path", and a construction bug
    for "Cycle"."""
    colours = closed_form("cycle", "biclique", 11, 4).colouring.colours
    assert first_mono_set("cycle", "biclique", 11, 4, colours) is None
    with pytest.raises(InputError, match="^unknown mode 'bicliques'$"):
        first_mono_set("cycle", "bicliques", 11, 4, colours)
    with pytest.raises(InputError, match="^unknown mode 'stars'$"):
        power_family("cycle", "stars", 8, 2)
    with pytest.raises(InputError, match="^unknown kind 'Path'$"):
        power_graph("Path", 5, 1)
    with pytest.raises(InputError, match="^unknown kind 'Cycle'$"):
        closed_form("Cycle", "biclique", 11, 4)


def test_circulant_matches_cycle_power():
    for n, k in ((8, 2), (11, 3), (7, 1)):
        assert circulant(n, range(1, k + 1)).adj == power_cycle(n, k).adj
    g = circulant(13, (1, 5))
    assert g.label == "C_13(1,5)"
    for i, j in combinations(range(13), 2):
        assert g.has_edge(i, j) == (cyclic_reach(13, i, j) in (1, 5))
    # distances reduce mod n: 7 = -1 mod 8
    assert circulant(8, [7]).adj == power_cycle(8, 1).adj
    with pytest.raises(InputError):
        circulant(6, [6])
    with pytest.raises(InputError):
        circulant(6, [])
    with pytest.raises(InputError):
        circulant(6, [-1])


def test_circulant_rejects_a_distance_that_is_no_int():
    """A bool once built C_5(True), and a str or a list raised TypeError
    from the sort: each is the distances' InputError, naming the first such
    distance, and a generator of good distances is read once."""
    for distances, bad in (([True], "True"), ([1, "a"], "'a'"),
                           ([[1]], "[1]"), ([2, 1.5, "b"], "1.5")):
        with pytest.raises(InputError,
                           match="^distances must be positive integers, "
                                 f"got {re.escape(bad)}$"):
            circulant(5, distances)
    assert circulant(5, (d for d in (2, 1, 2))).label == "C_5(1,2)"


def _assert_rows(g, edge):
    """Bit j of row i of g is set iff edge(i, j), for every i and j in
    0..n-1, no row has a bit at n or above, and the validating constructor
    accepts the rows and gives back the same graph."""
    for i, row in enumerate(g.adj):
        assert row >> g.n == 0, (g.label, i)
        for j in range(g.n):
            assert row >> j & 1 == edge(i, j), (g.label, i, j)
    assert Graph(g.n, g.adj, g.label) == g


def _cyclic_distance(n, i, j):
    return min(abs(i - j), n - abs(i - j))


def test_power_rows_match_the_definition():
    """Each power graph against its definition by index arithmetic, with
    no use of the row builder: P_n^k joins 0 < |i-j| <= k, C_n^k joins
    0 < min(|i-j|, n-|i-j|) <= k, and C_n(D) joins cyclic distance
    min(d mod n, n - d mod n) for some d in D.  The circulants take
    distances of n or more, duplicates, and pairs d, d' with d = -d' mod n,
    which all name the same edges."""
    for k in range(1, 7):
        for n in range(1, 8 * k + 4):
            g = power_path(n, k)
            assert g.label == f"P_{n}^{k}"
            _assert_rows(g, lambda i, j: 0 < abs(i - j) <= k)
            g = power_cycle(n, k)
            assert g.label == f"C_{n}^{k}"
            _assert_rows(g, lambda i, j: 0 < _cyclic_distance(n, i, j) <= k)
    for n in range(1, 9):  # a reach far past n is K_n, at no extra cost
        for g in (power_path(n, 10 ** 12), power_cycle(n, 10 ** 12)):
            _assert_rows(g, lambda i, j: i != j)
    for n in range(1, 25):
        for ds in ([1], [n + 1], [2 * n - 1], [1, 1, 2], [3, n - 3],
                   [n + 2, 2, n - 2, 2], [n // 2 + 1, n],
                   list(range(1, n + 4))):
            ds = [d for d in ds if d >= 1 and d % n]
            if not ds:
                continue
            g = circulant(n, ds)
            assert g.label == f"C_{n}({','.join(map(str, sorted(set(ds))))})"
            reach = {min(d % n, n - d % n) for d in ds}
            _assert_rows(g, lambda i, j: _cyclic_distance(n, i, j) in reach)


def test_class_search_predicate_matches_the_dispatch(monkeypatch):
    """No (kind, mode, n, k) is dispatched to a colour-class search any
    more: first_mono_set builds no power graph's rows for any kind and mode
    with k <= 6 and n <= 8k+3, P_n^k with k+2 <= n <= 2k and C_n^k in
    biclique mode with 2k+2 <= n <= 4k, where it once did, included, and
    still gives the listed family's first monochromatic set of the
    colouring v % 3."""
    power_graph_, calls = powers.power_graph, []

    def record(*args):
        calls.append(args)
        return power_graph_(*args)
    monkeypatch.setattr(powers, "power_graph", record)
    for k in range(1, 7):
        for n in range(1, 8 * k + 4):
            colours = [v % 3 for v in range(n)]
            for kind in ("path", "cycle"):
                for mode in ("biclique", "star"):
                    calls.clear()
                    got = first_mono_set(kind, mode, n, k, colours)
                    assert calls == [], (kind, mode, n, k)
                    assert got == support.first_monochromatic(
                        colours, _family_sets(kind, mode, n, k)), \
                        (kind, mode, n, k)


def test_path_bicliques_frozen_examples():
    assert [b.vertices for b in path_bicliques(5, 1)] == \
        [(0, 1, 2), (1, 2, 3), (2, 3, 4)]
    assert all(b.shape == "P3" for b in path_bicliques(5, 1))
    # complete: every edge is its own maximal biclique
    assert [(b.vertices, b.shape) for b in path_bicliques(3, 2)] == \
        [((0, 1), "P2"), ((0, 2), "P2"), ((1, 2), "P2")]
    # middle range k+2 <= n <= 2k mixes maximal edges and P3s
    assert [(b.vertices, b.shape) for b in path_bicliques(5, 3)] == [
        ((0, 1, 4), "P3"), ((0, 2, 4), "P3"), ((0, 3, 4), "P3"),
        ((1, 2), "P2"), ((1, 3), "P2"), ((2, 3), "P2")]


def test_cycle_bicliques_frozen_examples():
    b112 = cycle_bicliques(11, 2)
    assert len(b112) == 33
    assert all(b.shape == "P3" for b in b112)
    assert {b.shape for b in cycle_bicliques(11, 3)} == {"P3", "C4"}
    b114 = cycle_bicliques(11, 4)
    assert {b.shape for b in b114} == {"C4"}
    assert (0, 3, 6, 9) in [b.vertices for b in b114]


def test_path_shape_ranges():
    for k in range(1, 7):
        for n in range(1, 51):
            shapes = {b.shape for b in path_bicliques(n, k)}
            if n == 1:
                assert shapes == set()
            elif n <= k + 1:
                assert shapes == {"P2"}
            elif n <= 2 * k:
                assert shapes == {"P2", "P3"}
            else:
                assert shapes == {"P3"}


def test_cycle_shape_ranges():
    for k in range(1, 7):
        for n in range(1, 51):
            shapes = {b.shape for b in cycle_bicliques(n, k)}
            if n == 1:
                assert shapes == set()
            elif n <= 2 * k + 1:
                assert shapes == {"P2"}
            elif n <= 3 * k + 1:
                assert shapes == {"C4"}
            elif n <= 4 * k:
                assert shapes == {"P3", "C4"}
            else:
                assert shapes == {"P3"}


def test_cycle_p3_reaches():
    for k in (1, 2, 3, 4):
        for n in range(2 * k + 2, 8 * k):
            for triple, reach in cycle_induced_p3s(n, k):
                assert k + 1 <= reach <= 2 * k
                g = power_cycle(n, k)
                centre = [v for v in triple
                          if all(g.has_edge(v, u) for u in triple if u != v)]
                assert len(centre) == 1
                others = [v for v in triple if v != centre[0]]
                assert reach == sum(cyclic_reach(n, centre[0], u)
                                    for u in others)
            # the biclique family's P3s carry the same reach
            reach_of = dict(cycle_induced_p3s(n, k))
            for b in cycle_bicliques(n, k):
                assert b.reach == (reach_of[b.vertices] if b.shape == "P3"
                                   else None), (n, k, b)
            if n >= 3 * k + 2:
                # a P3 of full reach 2k exists whenever the range is nonempty
                assert any(r == 2 * k for _, r in cycle_induced_p3s(n, k))
    assert cycle_induced_p3s(5, 2) == []


def test_cycle_induced_p3s_checks_n_and_k_first():
    """A bool k once gave 7 P3s, k = 0 gave [], and n = 10**30 with k = 0
    ran through n empty loops: each is an InputError before any loop."""
    for n, k, message in ((7, True, "n and k must be integers, got n=7, "
                                    "k=True"),
                          (10, 0, "need k >= 1, got k=0"),
                          (10**30, 0, "need k >= 1, got k=0")):
        started = time.perf_counter()
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cycle_induced_p3s(n, k)
        assert time.perf_counter() - started < 0.5, (n, k)


def _as_family(bicliques):
    return [(b.vertices, b.shape) for b in bicliques]


def test_closed_form_matches_oracle_small_grid():
    # the families and the oracle share one enumerator, so both are also
    # held to the subset scan, which enumerates nothing
    for k in range(1, 4):
        for n in range(1, 11):
            pg = power_path(n, k)
            assert _as_family(path_bicliques(n, k)) == _as_family(maximal_bicliques(pg))
            assert _as_family(path_bicliques(n, k)) == \
                support.shaped(pg, support.scan_maximal(pg, "biclique"))
            assert path_stars(n, k) == maximal_stars(pg)
            assert path_stars(n, k) == support.scan_maximal(pg, "star")
            cg = power_cycle(n, k)
            assert _as_family(cycle_bicliques(n, k)) == _as_family(maximal_bicliques(cg))
            assert _as_family(cycle_bicliques(n, k)) == \
                support.shaped(cg, support.scan_maximal(cg, "biclique"))
            assert cycle_stars(n, k) == maximal_stars(cg)
            assert cycle_stars(n, k) == support.scan_maximal(cg, "star")


def test_closed_form_outputs_are_maximal_cb_by_independent_checker():
    cases = [
        (power_cycle(12, 3), cycle_bicliques(12, 3)),
        (power_cycle(13, 4), cycle_bicliques(13, 4)),
        (power_path(12, 3), path_bicliques(12, 3)),
    ]
    for g, fam in cases:
        assert fam
        for b in fam:
            assert support.bfs_complete_bipartite(g, b.vertices) is not None
            assert support.induced_shape(g, b.vertices) == b.shape
            for w in range(g.n):
                if w in b.vertices:
                    continue
                bigger = tuple(sorted(b.vertices + (w,)))
                assert support.bfs_complete_bipartite(g, bigger) is None


def test_stars_vs_bicliques():
    # path powers: identical families
    for k in (1, 2, 3):
        for n in range(2, 13):
            assert path_stars(n, k) == [b.vertices for b in path_bicliques(n, k)]
    # far range of cycles: identical families
    for k in (1, 2, 3):
        for n in range(4 * k + 1, 4 * k + 8):
            assert cycle_stars(n, k) == [b.vertices for b in cycle_bicliques(n, k)]
    # C4-only range: stars are the P3s inside the C4s, not the C4s
    stars = cycle_stars(11, 4)
    assert stars and all(len(s) == 3 for s in stars)
    assert stars == [t for t, _ in cycle_induced_p3s(11, 4)]
    assert stars != [b.vertices for b in cycle_bicliques(11, 4)]


FAMILY_DIGEST = \
    "66cb95ac2b3cc383337c6a279c87d24aef5d0f14002977396b3459ff9394bae2"


def test_every_family_is_pinned():
    """power_family of every kind and mode, on every k <= 8 and n <= 8k+3,
    hashes to FAMILY_DIGEST: its sets, shapes and reaches, in order."""
    digest = hashlib.sha256()
    for k in range(1, 9):
        for n in range(1, 8 * k + 4):
            for kind in ("path", "cycle"):
                for mode in ("biclique", "star"):
                    digest.update(json.dumps(
                        [kind, mode, n, k, power_family(kind, mode, n, k)]
                    ).encode())
    assert digest.hexdigest() == FAMILY_DIGEST


def test_biclique_record_fields():
    b = cycle_bicliques(11, 2)[0]
    assert isinstance(b, Biclique)
    assert b.reach is not None and b.shape == "P3"
    g = power_cycle(11, 2)
    assert support.bfs_complete_bipartite(g, b.vertices) is not None
    # C4 entries never carry a reach
    assert all(x.reach is None for x in cycle_bicliques(11, 4))


# ---------------------------------------------------------------------------
# the windowed check against the listed families

@lru_cache(maxsize=None)
def _family_sets(kind, mode, n, k):
    return [getattr(s, "vertices", s) for s in power_family(kind, mode, n, k)]


@lru_cache(maxsize=None)
def _induced_p3s(kind, n, k):
    """Every induced P3 of P_n^k / C_n^k, sorted: for paths the P3 entries of
    the biclique family (P_n^k is claw- and C4-free, so each is maximal)."""
    if kind == "cycle":
        return [t for t, _ in cycle_induced_p3s(n, k)]
    return [b.vertices for b in path_bicliques(n, k) if b.shape == "P3"]


_CONSTRUCT = {("path", "biclique"): biclique_colour_path,
              ("path", "star"): biclique_colour_path,
              ("cycle", "biclique"): biclique_colour_cycle,
              ("cycle", "star"): star_colour_cycle}


def _test_colouring(rng, kind, mode, n, k, base: bool, c: int, flips: int):
    """A random c-colouring, or the closed-form colouring with a few
    vertices recoloured: the first mostly has monochromatic sets, the second
    has none or a few, near the recoloured vertices."""
    if base:
        colours = list(_CONSTRUCT[kind, mode](n, k).colouring.colours)
        for _ in range(flips):
            colours[rng.randrange(n)] = rng.randrange(max(colours) + 1)
        return colours
    return [rng.randrange(c) for _ in range(n)]


def _p3_range(kind, mode, n, k):
    """True where the family of mode is exactly the induced P3s: paths with
    n >= 2k+1 (either mode), cycles with n >= 4k+1 for bicliques and
    n >= 2k+2 for stars."""
    if kind == "path":
        return n >= 2 * k + 1
    return n >= (4 * k + 1 if mode == "biclique" else 2 * k + 2)


def _check_windowed(kind, mode, n, k, colours):
    family = _family_sets(kind, mode, n, k)
    assert first_mono_set(kind, mode, n, k, colours) == \
        support.first_monochromatic(colours, family), \
        (kind, mode, n, k, colours)
    if _p3_range(kind, "star", n, k):  # the stars are the induced P3s
        assert first_mono_set(kind, "star", n, k, colours) == \
            support.first_monochromatic(colours, _induced_p3s(kind, n, k))
    if _p3_range(kind, mode, n, k):
        assert family == _induced_p3s(kind, n, k)


@st.composite
def _windowed_case(draw, complete=False):
    """(kind, mode, n, k, colours) with k <= 8 and n <= 8k+3, or with n in
    the range where P_n^k / C_n^k is complete."""
    kind = draw(st.sampled_from(["path", "cycle"]))
    mode = draw(st.sampled_from(["biclique", "star"]))
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, (k + 1 if kind == "path" else 2 * k + 1)
                         if complete else 8 * k + 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    colours = _test_colouring(rng, kind, mode, n, k, draw(st.booleans()),
                              draw(st.sampled_from([2, 3])),
                              draw(st.integers(0, 2)))
    return kind, mode, n, k, colours


@given(_windowed_case())
@example(("cycle", "star", 10, 4, [0, 0, 1, 1, 1, 1, 0, 0, 0, 1]))
@example(("cycle", "star", 12, 4, [0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1]))
@example(("cycle", "biclique", 17, 4, [0] * 17))
# in 3k+2..4k: a C4 after a P3 of reach n-2k, which lies in a C4; and a P3
# of reach below n-2k before a C4
@example(("cycle", "biclique", 17, 5,
          [1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 1]))
@example(("cycle", "biclique", 17, 5,
          [0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0]))
@example(("cycle", "biclique", 14, 4,
          [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]))
@settings(max_examples=300, deadline=None)
def test_windowed_check_equals_family_scan(case):
    """first_mono_set returns the listed family's first monochromatic set
    for random 2- and 3-colourings and perturbed closed-form colourings,
    including C_n^k with n <= 3k in star mode, where ends more than k apart
    can still meet around the cycle, and C_n^k in biclique mode with
    3k+2 <= n <= 4k, where the witness is a C4 or a P3 of reach below
    n-2k."""
    _check_windowed(*case)


@given(_windowed_case(complete=True))
@settings(max_examples=200, deadline=None)
def test_complete_graph_check_equals_family_scan(case):
    """On a complete P_n^k / C_n^k first_mono_set takes the first
    equal-coloured pair without listing the family; in both modes that is
    the listed family's first monochromatic set."""
    kind, _, n, k, colours = case
    assert is_complete(kind, n, k)
    for mode in ("biclique", "star"):
        _check_windowed(kind, mode, n, k, colours)


def test_complete_graph_check_lists_no_family(monkeypatch):
    """K_200 as C_200^100: the constructors check that 200 colours differ
    with no family listed and no graph built."""
    support.forbid_rows_and_families(monkeypatch)
    assert biclique_colour_cycle(200, 100).value == 200
    assert star_colour_cycle(200, 100).value == 200
    # the first pair by its lower end, not by where its colour repeats
    assert first_mono_set("path", "biclique", 5, 4, [0, 1, 2, 1, 0]) == (0, 4)
    assert first_mono_set("cycle", "star", 3, 1, [0, 1, 2]) is None


def test_one_colour_check_stops_at_the_first_group():
    """C_114^40 in one colour: the class is the whole graph, and the scan
    stops at the sets of vertex 0 rather than listing the whole family (2 s
    when it did).  The witness is the family's least set."""
    start = time.perf_counter()
    assert first_mono_set("cycle", "biclique", 114, 40, [0] * 114) == \
        (0, 1, 41, 74)
    assert time.perf_counter() - start < 1


def test_dense_ranges_are_checked_in_milliseconds():
    """P_2000^1000 (n = 2k) and C_4000^1000 (n = 4k, C4s and P3s): the
    constructors' checks take milliseconds, not the seconds that listing
    or searching the family's sets would."""
    for build, n, k in ((biclique_colour_path, 2000, 1000),
                        (biclique_colour_cycle, 4000, 1000)):
        start = time.perf_counter()
        build(n, k)
        assert time.perf_counter() - start < 0.5, (n, k)


def test_windowed_check_equals_family_scan_on_grid():
    rng = random.Random(7)
    for k in range(1, 7):
        for n in range(1, 8 * k + 4):
            for kind, mode in _CONSTRUCT:
                for trial in range(4):
                    colours = _test_colouring(rng, kind, mode, n, k,
                                              trial < 2, 2 + trial % 2,
                                              trial)
                    _check_windowed(kind, mode, n, k, colours)


def test_checks_on_the_grid_build_no_rows_and_search_no_class(monkeypatch):
    """Every kind and mode with k <= 6 and n <= 8k+3, the complete and C4
    ranges included: the constructors and first_mono_set run with every
    function that builds rows, lists a family or searches colour classes
    made to fail, and first_mono_set gives the listed family's first
    monochromatic set of random 1- to 3-colourings."""
    rng = random.Random(5)
    cases = []
    for k in range(1, 7):
        for n in range(1, 8 * k + 4):
            for kind, mode in _CONSTRUCT:
                for c in (1, 2, 3):
                    colours = [rng.randrange(c) for _ in range(n)]
                    cases.append((kind, mode, n, k, colours,
                                  support.first_monochromatic(
                                      colours, _family_sets(kind, mode, n, k))))
    support.forbid_rows_and_families(monkeypatch)
    for kind, mode, n, k, colours, want in cases:
        assert first_mono_set(kind, mode, n, k, colours) == want, \
            (kind, mode, n, k, colours)
    for k in range(1, 7):
        for n in range(1, 8 * k + 4):
            for build in (biclique_colour_path, star_colour_path,
                          biclique_colour_cycle, star_colour_cycle):
                build(n, k)  # raises if its own check finds a set


@pytest.mark.parametrize("shape", ["ends", "blocks of k", "blocks of k+1"])
def test_c4_range_scan_of_slow_shapes_matches_the_class_search(shape):
    """The colourings of C_n^k in the C4 range that were slowest to scan:
    one class [0, k) and [n-k+1, n) against the rest, and alternating
    blocks of k or k+1.  At k = 40 the witness, in both modes, is the least
    of the colour classes' own smallest sets on the graph's rows."""
    k = 40
    for n in (2 * k + 2, 3 * k, 3 * k + 1, 4 * k):
        colours = [0 if v < k or v >= n - k + 1 else 1 for v in range(n)] \
            if shape == "ends" else \
            [v // (k + (shape == "blocks of k+1")) % 2 for v in range(n)]
        adj = power_graph("cycle", n, k).adj
        for mode in ("biclique", "star"):
            assert first_mono_set("cycle", mode, n, k, colours) == min(
                smallest_maximal_inside(adj, mode,
                                        colour_classes(colours).values()),
                default=None), (shape, n, mode)


@pytest.mark.parametrize("kind, mode, k_max, c4_range_only, palette", [
    ("cycle", "biclique", 4, True, 2),
    ("cycle", "star", 4, False, 2),
    ("path", "biclique", 3, False, 2),
    ("cycle", "biclique", 2, True, 3),
    ("cycle", "star", 2, False, 3),
    ("path", "biclique", 2, False, 3),
])
def test_exact_witness_on_every_two_colouring(kind, mode, k_max,
                                              c4_range_only, palette):
    """Every colouring with palette colours (2 or 3) of the power for k <=
    k_max, on the C4 range 2k+2 <= n <= 4k of cycle bicliques (138 448
    2-colourings) or else on 1 <= n <= 4k: first_mono_set gives exactly the
    listed family's first monochromatic set, and every witness is a member
    of the family.  A bound one too high in the certificate, such as the C4
    bound of _wrapped_sets, shows here as a witness that is no member."""
    for k in range(1, k_max + 1):
        for n in range(2 * k + 2 if c4_range_only else 1, 4 * k + 1):
            family = _family_sets(kind, mode, n, k)
            members = set(family)
            for colours in product(range(palette), repeat=n):
                got = first_mono_set(kind, mode, n, k, colours)
                assert got == support.first_monochromatic(colours, family), \
                    (kind, mode, n, k, colours)
                assert got is None or got in members


@pytest.mark.parametrize("n, k, colours, fragment", [
    (4, 1, (0, 1, 0, 1, 0, 0, 0), "colouring has 7 entries for n=4"),
    (-3, 1, (), "need n >= 1, got n=-3"),
    (4, 0, (0, 0, 0, 0), "need k >= 1, got k=0"),
    (7, 2.5, (0,) * 7, "n and k must be integers, got n=7, k=2.5"),
    (7.0, 2, (0,) * 7, "n and k must be integers, got n=7.0, k=2"),
    (True, 1, (0,), "n and k must be integers, got n=True, k=1"),
])
def test_first_mono_set_rejects_impossible_input(n, k, colours, fragment):
    """A colouring longer than n once gave a set outside the graph, (4, 5,
    6) on P_4^1, n = -3 or k = 0 once gave None, and k = 2.5 a set of the
    wrong graph: each is an InputError, in both kinds and modes."""
    for kind in ("path", "cycle"):
        for mode in ("biclique", "star"):
            with pytest.raises(InputError, match=f"^{fragment}$"):
                first_mono_set(kind, mode, n, k, colours)


def test_power_functions_refuse_non_integer_n_and_k():
    """A float or bool n or k once gave a float answer, a TypeError or the
    answer for 1: each is an InputError before any arithmetic."""
    calls = (lambda x: closed_form("path", "star", x, 2),
             lambda x: closed_form("path", "star", 5, x),
             lambda x: power_path(5, x),
             lambda x: ab_certificate(14, x),
             lambda x: power_edge_count("cycle", 9, x),
             lambda x: circulant(x, [1]))
    for call in calls:
        for bad in (2.5, 2.0, True):
            with pytest.raises(InputError,
                               match="must be (an integer|integers), got"):
                call(bad)


def test_windowed_check_on_long_powers():
    """At n = 2000 the listed family is out of reach of the test, so the
    check is held to the cycle's induced P3s by index arithmetic, and to the
    definition on planted hits."""
    n, k = 2000, 5
    for kind, mode, build in (("path", "biclique", biclique_colour_path),
                              ("cycle", "biclique", biclique_colour_cycle),
                              ("cycle", "star", star_colour_cycle)):
        colours = list(build(n, k).colouring.colours)
        assert first_mono_set(kind, mode, n, k, colours) is None
    colours = list(biclique_colour_cycle(n, k).colouring.colours)
    p3s = [t for t, _ in cycle_induced_p3s(n, k)]
    rng = random.Random(3)
    for _ in range(20):
        bad = list(colours)
        bad[rng.randrange(n)] ^= 1
        assert first_mono_set("cycle", "star", n, k, bad) == \
            support.first_monochromatic(bad, p3s)
    # a hit that wraps: 0 centred between n-3 and 3 (reach 6 > k)
    wrap = list(range(n))
    for v in (n - 3, 0, 3):
        wrap[v] = n
    assert first_mono_set("cycle", "star", n, k, wrap) == (0, 3, n - 3)
    assert first_mono_set("path", "star", n, k, wrap) is None
