"""Colouring constructions: block arithmetic, certificates, and the exact
chromatic closed forms, cross-checked through the oracle verifier."""

import hashlib
import json
import re
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import support
from bicliques import colouring as colouring_mod, graphs as graphs_mod
from bicliques.colouring import (
    BLUE,
    GREEN,
    RED,
    AbCertificate,
    Colouring,
    EvenDivision,
    ab_certificate,
    biclique_colour_cycle,
    biclique_colour_path,
    closed_form,
    colouring_from_dict,
    colouring_to_dict,
    even_division,
    read_colouring,
    star_colour_cycle,
    star_colour_path,
    three_colour_no_mono_p3,
    write_colouring,
)
from bicliques.graphs import InputError
from bicliques.powers import (
    cycle_bicliques,
    cycle_stars,
    path_bicliques,
    power_cycle,
    power_path,
)


def test_colour_ids():
    assert (BLUE, RED, GREEN) == (0, 1, 2)


def test_colouring_validation():
    c = Colouring((0, 1, 0), 2)
    assert c.n == 3
    with pytest.raises(InputError):
        Colouring((0, 2), 2)  # id out of range
    with pytest.raises(InputError):
        Colouring((0, 0), 2)  # id 1 unused
    assert Colouring.from_sequence([2, 0, 1, 0]).num_colours == 3
    assert Colouring.from_sequence([]).num_colours == 0
    assert Colouring((), 0).n == 0
    for num in (3, -1, True, 2.0):  # an empty colouring is checked too
        with pytest.raises(InputError):
            Colouring((), num)
    with pytest.raises(InputError, match="non-negative"):
        Colouring((0,), -1)
    with pytest.raises(InputError, match=r"^colour ids \[1, 3\] unused$"):
        Colouring((0, 2, 0), 4)
    # num_colours is read from files: a huge one is reported, not expanded
    start = time.perf_counter()
    with pytest.raises(InputError) as err:
        Colouring((0, 2), 10 ** 7)
    assert time.perf_counter() - start < 1
    assert str(err.value) == "colour ids [1, " + ", ".join(
        map(str, range(3, 22))) + ", ...] unused"


def test_even_division_frozen_and_unique():
    assert even_division(11, 3) == EvenDivision(2, 5)
    assert even_division(14, 3) == EvenDivision(4, 2)
    assert even_division(6, 3) == EvenDivision(2, 0)
    for k in range(1, 9):
        for n in range(2 * k, 121):
            a, t = even_division(n, k)
            assert a >= 2 and a % 2 == 0 and 0 <= t < 2 * k
            assert a * k + t == n
            others = [x for x in range(2, n // k + 1, 2)
                      if 0 <= n - x * k < 2 * k]
            assert others == [a]
    with pytest.raises(InputError):
        even_division(5, 3)
    with pytest.raises(InputError):
        even_division(6, 0)


def test_ab_certificate_frozen():
    assert ab_certificate(14, 3) == AbCertificate(2, 2)
    assert ab_certificate(11, 3) is None
    assert ab_certificate(17, 3) is None
    assert ab_certificate(10, 4) == AbCertificate(0, 2)
    with pytest.raises(InputError):
        ab_certificate(7, 3)  # needs n >= 2k+2


def test_ab_certificate_matches_brute_scan():
    for k in range(1, 9):
        for n in range(2 * k + 2, 121):
            cert = ab_certificate(n, k)
            brute = support.brute_ab_exists(n, k)
            assert (cert is None) == (brute is None)
            if cert is not None:
                assert cert.is_valid_for(n, k)


def test_decide_two_vs_three():
    """closed_form's value and (a, b) certificate on C_n^k for n >= 3k+2,
    where it decides 2 against 3; at n = 3k+1 every biclique is a C4 and
    the value is 2 with no certificate."""
    def decide(n, k):
        r = closed_form("cycle", "biclique", n, k)
        return r.value, r.ab
    assert decide(11, 3) == (3, None)
    assert decide(14, 3) == (2, AbCertificate(2, 2))
    assert decide(17, 3) == (3, None)
    assert decide(10, 3) == (2, None)


def test_guaranteed_ab_certificate():
    """ab_certificate is never None for n >= max(2k**2, 2k+2)."""
    assert ab_certificate(18, 3) == AbCertificate(6, 0)
    assert ab_certificate(8, 2) == AbCertificate(4, 0)
    assert ab_certificate(50, 4) == AbCertificate(10, 2)
    for k in range(1, 7):
        start = max(2 * k * k, 2 * k + 2)
        for n in range(start, start + 25):
            cert = ab_certificate(n, k)
            assert cert is not None and cert.is_valid_for(n, k), (n, k)


def test_three_colouring_frozen():
    assert three_colour_no_mono_p3(8, 3).colours == (1, 1, 1, 0, 0, 0, 2, 2)
    # remainder above k rebuilds the tail as green/blue/green
    assert three_colour_no_mono_p3(11, 3).colours == \
        (1, 1, 1, 2, 2, 2, 0, 0, 0, 2, 2)
    with pytest.raises(InputError):
        three_colour_no_mono_p3(7, 3)


def test_three_colouring_kills_every_p3():
    for k in range(1, 6):
        for n in range(2 * k + 2, 51):
            c = three_colour_no_mono_p3(n, k)
            assert c.num_colours <= 3
            assert support.walk_mono_p3(power_cycle(n, k), c.colours) is None


def test_biclique_colour_path_frozen():
    r = biclique_colour_path(4, 3)
    assert r.value == 4 and r.colouring.colours == (0, 1, 2, 3)
    assert r.universal_witness == (0, 1, 2, 3)
    r = biclique_colour_path(5, 3)
    assert r.value == 3
    assert r.colouring.colours == (0, 0, 2, 1, 1)
    assert r.universal_witness == (1, 2, 3)
    r = biclique_colour_path(7, 3)
    assert r.value == 2 and r.colouring.colours == (1, 1, 1, 0, 0, 0, 1)


def test_biclique_colour_cycle_frozen():
    r = biclique_colour_cycle(11, 3)
    assert (r.value, r.ab) == (3, None)
    assert r.colouring.colours == (1, 1, 1, 2, 2, 2, 0, 0, 0, 2, 2)
    r = biclique_colour_cycle(11, 4)
    assert r.value == 2
    assert r.colouring.colours == (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
    r = biclique_colour_cycle(14, 3)
    assert (r.value, r.ab) == (2, AbCertificate(2, 2))
    assert r.colouring.colours == (1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0)


def test_star_colour_frozen():
    assert star_colour_cycle(11, 4).value == 3  # biclique number is 2 here
    assert biclique_colour_cycle(11, 4).value == 2
    assert star_colour_path(7, 3).value == 2
    r = star_colour_cycle(18, 3)
    assert (r.value, r.ab) == (2, AbCertificate(6, 0))


def test_universal_witness_properties():
    for n, k, builder in ((4, 3, biclique_colour_path), (5, 3, biclique_colour_path),
                          (6, 4, biclique_colour_path), (7, 3, biclique_colour_cycle),
                          (5, 2, star_colour_cycle)):
        r = builder(n, k)
        g = power_path(n, k) if builder is biclique_colour_path else power_cycle(n, k)
        assert r.universal_witness is not None
        assert len(r.universal_witness) == r.value
        for w in r.universal_witness:
            assert g.degree(w) == n - 1
        # each witness pair is itself a maximal biclique, forcing the bound
        if builder is biclique_colour_path:
            fam = {b.vertices for b in path_bicliques(n, k)}
            for pair in combinations(r.universal_witness, 2):
                assert pair in fam


# sha256 of every layout on the grid of test_every_layout_is_pinned,
# recorded when each constructor still had its own branches
LAYOUT_DIGEST = \
    "85f53494042d6b925c52b06dff2ba373767805954c25db0a441141d34f6f4555"


def test_every_layout_is_pinned():
    """The value, colours, (a, b) certificate and universal witness of the
    four constructors, and three_colour_no_mono_p3's colours, on every k <=
    8 and n <= 8k+3, hash to LAYOUT_DIGEST: the frozen examples pin about
    ten points, this pins all of them."""
    digest = hashlib.sha256()
    for k in range(1, 9):
        for n in range(1, 8 * k + 4):
            for build in (biclique_colour_path, biclique_colour_cycle,
                          star_colour_path, star_colour_cycle):
                r = build(n, k)
                digest.update(repr((
                    build.__name__, n, k, r.value, r.colouring.colours,
                    r.ab and tuple(r.ab), r.universal_witness)).encode())
            if n >= 2 * k + 2:
                digest.update(repr(("three", n, k, three_colour_no_mono_p3(
                    n, k).colours)).encode())
    assert digest.hexdigest() == LAYOUT_DIGEST


def _closed_family(kind: str, mode: str, n: int, k: int):
    if kind == "path":
        return [b.vertices for b in path_bicliques(n, k)]
    if mode == "biclique":
        return [b.vertices for b in cycle_bicliques(n, k)]
    return cycle_stars(n, k)


def test_constructions_verify_on_grid():
    for k in range(1, 6):
        for n in range(1, 37):
            cases = [
                ("path", "biclique", biclique_colour_path),
                ("path", "star", star_colour_path),
                ("cycle", "biclique", biclique_colour_cycle),
                ("cycle", "star", star_colour_cycle),
            ]
            for kind, mode, builder in cases:
                r = builder(n, k)
                assert r.value == r.colouring.num_colours
                assert r.colouring.n == n
                if r.ab is not None:
                    assert r.ab.is_valid_for(n, k)
                fam = _closed_family(kind, mode, n, k)
                assert support.first_monochromatic(
                    r.colouring.colours, fam) is None


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_construction_property(k, n):
    r = star_colour_cycle(n, k)
    assert r.colouring.n == n
    assert support.first_monochromatic(
        r.colouring.colours, cycle_stars(n, k)) is None
    r = biclique_colour_path(n, k)
    assert r.colouring.n == n
    assert support.first_monochromatic(
        r.colouring.colours, [b.vertices for b in path_bicliques(n, k)]) is None


def test_construction_param_validation():
    for builder in (biclique_colour_path, biclique_colour_cycle,
                    star_colour_path, star_colour_cycle):
        with pytest.raises(InputError):
            builder(0, 1)
        with pytest.raises(InputError):
            builder(5, 0)


@pytest.mark.parametrize("builder, family, what, n, k", [
    (biclique_colour_path, "path_bicliques", "biclique", 5, 3),
    (biclique_colour_path, "path_bicliques", "biclique", 10, 2),
    (star_colour_path, "path_bicliques", "biclique", 10, 2),
    (biclique_colour_cycle, "cycle_bicliques", "biclique", 11, 4),
    (biclique_colour_cycle, "cycle_bicliques", "biclique", 14, 3),
    (biclique_colour_cycle, "cycle_bicliques", "biclique", 11, 3),
    (star_colour_cycle, "cycle_stars", "star", 14, 3),
    (star_colour_cycle, "cycle_stars", "star", 11, 3),
])
def test_construction_check_raises_on_monochromatic_set(
        monkeypatch, builder, family, what, n, k):
    # the one check of a closed-form colouring is the constructor's own
    # call of powers.first_mono_set: a check that reports a set the
    # construction colours alike must make the constructor raise, naming
    # that set
    colours = builder(n, k).colouring.colours
    mono = next(pair for pair in combinations(range(n), 2)
                if colours[pair[0]] == colours[pair[1]])
    kind = family.split("_")[0]
    mode = "biclique" if what == "biclique" else "star"

    def fake_check(*args):
        assert args[:4] == (kind, mode, n, k) and tuple(args[4]) == colours
        return mono
    monkeypatch.setattr(colouring_mod, "first_mono_set", fake_check)
    with pytest.raises(AssertionError, match=re.escape(
            f"construction bug: monochromatic {what} {mono}")):
        builder(n, k)


def test_constructors_search_colour_classes_not_the_whole_graph(monkeypatch):
    """The constructors' check searches no colour class and not the whole
    graph: at C_114^40 and C_75^25 (the C4 range) and at P_200^100
    (n = 2k), where it once searched each class, the enumerators are never
    called, and each construction stays well under the second that listing
    the whole family took."""
    seen = []
    for name in ("maximal_cb_candidates", "maximal_star_candidates"):
        def record(adj, vmask, enumerate_=getattr(graphs_mod, name)):
            seen.append((len(adj), vmask))
            return enumerate_(adj, vmask)
        monkeypatch.setattr(graphs_mod, name, record)
    for build, n, k in ((biclique_colour_cycle, 114, 40),
                        (biclique_colour_cycle, 75, 25),
                        (biclique_colour_path, 200, 100)):
        seen.clear()
        start = time.perf_counter()
        build(n, k)
        assert time.perf_counter() - start < 0.5, (n, k)
        assert seen == [], (n, k)


def test_three_colouring_check_raises_on_monochromatic_p3(monkeypatch):
    colours = three_colour_no_mono_p3(11, 3).colours
    assert colours[0] == colours[1] == colours[2]
    monkeypatch.setattr(colouring_mod, "first_mono_set",
                        lambda kind, mode, n, k, colours: (0, 1, 2))
    with pytest.raises(AssertionError, match=re.escape("P3 (0, 1, 2)")):
        three_colour_no_mono_p3(11, 3)


def test_long_constructions_build_no_rows_and_no_family(monkeypatch):
    """In the ranges where the family is the induced P3s the constructors
    check their colouring by index arithmetic alone: at n = 20000 they run
    with every function that builds rows or lists a family made to fail."""
    support.forbid_rows_and_families(monkeypatch)
    assert biclique_colour_cycle(20000, 3).value == 2
    assert star_colour_cycle(20000, 3).value == 2
    assert biclique_colour_path(20000, 3).value == 2
    assert star_colour_path(20000, 3).value == 2
    assert three_colour_no_mono_p3(20000, 3).n == 20000
    # n = 3k+2 with no (a, b) certificate: value 3 by the three-colouring,
    # still in the P3 range of stars
    assert star_colour_cycle(11, 3).value == 3


def test_colouring_serialization(tmp_path):
    c = Colouring((1, 1, 0, 0), 2)
    d = colouring_to_dict(c, ab=AbCertificate(2, 0), universal_witness=None)
    assert d == {"n": 4, "colours": [1, 1, 0, 0], "num_colours": 2,
                 "certificate": {"a": 2, "b": 0}}
    assert colouring_from_dict(d) == c
    path = tmp_path / "c.json"
    write_colouring(c, path, ab=AbCertificate(2, 0))
    assert read_colouring(path) == c
    raw = json.loads(path.read_text())
    assert raw["certificate"] == {"a": 2, "b": 0}
    with pytest.raises(InputError):
        colouring_from_dict({"n": 3, "colours": [0, 0]})
    with pytest.raises(InputError):
        colouring_from_dict({"n": 2, "colours": [0, "x"]})
    for d in ({"n": 2, "colours": [True, False]},
              {"n": True, "colours": [0]},
              {"n": 2, "colours": [0, 1], "num_colours": True}):
        with pytest.raises(InputError):
            colouring_from_dict(d)
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(InputError) as exc:
        read_colouring(bad)
    assert "line 2" in str(exc.value)
