"""Acceptance suite: nine exact end-to-end checks, zero tolerance.

Each test prints one PASS line with its wall-clock time (visible under
pytest -s) and fails hard on any mismatch or budget overrun.
"""

import csv
import random
import time

import support
from bicliques import cli
from bicliques.colouring import (
    ab_certificate,
    biclique_colour_cycle,
    biclique_colour_path,
    closed_form,
    even_division,
    star_colour_cycle,
    three_colour_no_mono_p3,
)
from bicliques.oracle import (
    exact_chromatic,
    maximal_bicliques,
    maximal_stars,
)
from bicliques.powers import (
    cycle_bicliques,
    cycle_stars,
    path_bicliques,
    path_stars,
    power_cycle,
    power_path,
)
from bicliques.reduction import CnfFormula, certify_reduction

N_MAX, K_MAX = 14, 6  # oracle comparison grid


def _report(num: int, started: float, budget: float, text: str) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num} PASS in {elapsed:.1f}s (budget {budget:.0f}s): {text}")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_01_path_chromatic_matches_oracle():
    started = time.perf_counter()
    checked = 0
    for k in range(1, K_MAX + 1):
        for n in range(1, N_MAX + 1):
            result = biclique_colour_path(n, k)
            assert result.value == exact_chromatic(power_path(n, k))[0], (n, k)
            if n <= k + 1:
                expected = n
            elif n <= 2 * k:
                expected = 2 * k + 2 - n
            else:
                expected = 2
            assert result.value == expected, (n, k)
            checked += 1
    _report(1, started, 120,
            f"path closed form equals exact search on {checked} (n, k) points")


def test_02_cycle_chromatic_matches_oracle_both_modes():
    started = time.perf_counter()
    checked = 0
    for k in range(1, K_MAX + 1):
        for n in range(1, N_MAX + 1):
            g = power_cycle(n, k)
            assert biclique_colour_cycle(n, k).value == \
                exact_chromatic(g, "biclique")[0], (n, k)
            assert star_colour_cycle(n, k).value == \
                exact_chromatic(g, "star")[0], (n, k)
            checked += 1
    assert biclique_colour_cycle(11, 3).value == 3
    assert biclique_colour_cycle(11, 4).value == 2
    assert star_colour_cycle(11, 4).value == 3
    _report(2, started, 300,
            f"cycle closed forms equal exact search on {checked} points, "
            "both modes, including the (11, 3) and (11, 4) split cases")


def test_03_enumerations_match_oracle_and_shape_ranges():
    started = time.perf_counter()
    for k in range(1, K_MAX + 1):
        for n in range(1, N_MAX + 1):
            # the families and the oracle share one enumerator, so both
            # are also held to the subset scan, which enumerates nothing
            for g, fam in ((power_path(n, k), path_bicliques(n, k)),
                           (power_cycle(n, k), cycle_bicliques(n, k))):
                fam = [(b.vertices, b.shape) for b in fam]
                assert fam == [(b.vertices, b.shape)
                               for b in maximal_bicliques(g)], g.label
                assert fam == support.brute_scan_bicliques(g), g.label
            for g, fam in ((power_path(n, k), path_stars(n, k)),
                           (power_cycle(n, k), cycle_stars(n, k))):
                assert fam == maximal_stars(g), g.label
                assert fam == support.brute_scan_stars(g), g.label
    # shape ranges, checked beyond the oracle grid on the closed forms alone
    for k in range(1, K_MAX + 1):
        for n in range(2, 61):
            shapes = {b.shape for b in cycle_bicliques(n, k)}
            if n >= 4 * k + 1:
                assert "C4" not in shapes, (n, k)
            if 2 * k + 2 <= n <= 3 * k + 1:
                assert shapes == {"C4"}, (n, k)
            assert "C4" not in {b.shape for b in path_bicliques(n, k)}, (n, k)
    _report(3, started, 120,
            "biclique and star families equal the oracle enumeration and the "
            "subset scan on the full grid; shape ranges hold to n = 60")


def test_04_two_vs_three_agrees_with_exhaustive_scan():
    started = time.perf_counter()
    checked = 0
    for k in range(1, 13):
        for n in range(3 * k + 2, 201):
            r = closed_form("cycle", "biclique", n, k)
            value, cert = r.value, r.ab
            brute = support.brute_ab_exists(n, k)
            assert (value == 2) == (brute is not None), (n, k)
            if value == 2:
                assert cert is not None and cert.is_valid_for(n, k), (n, k)
            else:
                assert cert is None
            checked += 1
    r = closed_form("cycle", "biclique", 11, 3)
    assert (r.value, r.ab) == (3, None)
    _report(4, started, 10,
            f"two-vs-three decision matches the exhaustive (a, b) scan on "
            f"{checked} points up to n = 200, k = 12")


def _boundary_no_mono_p3(colours, k: int) -> bool:
    """Exact no-monochromatic-P3 characterization at n = 2k+2, where every
    induced P3 has antipodal ends: each colour class must contain no
    antipodal pair, or be exactly one antipodal pair."""
    n = len(colours)
    half = k + 1
    for colour in (0, 1):
        cls = {v for v in range(n) if colours[v] == colour}
        paired = {v for v in cls if (v + half) % n in cls}
        if paired and not (cls == paired and len(cls) == 2):
            return False
    return True


def test_05_two_colouring_block_dichotomy():
    """For n >= 2k+3 the block condition is exactly equivalent to having no
    monochromatic P3.  At n = 2k+2 only the forward direction survives (the
    reach-(k+2) endpoints wrap into adjacency there), so that boundary is
    pinned to its true antipodal characterization instead."""
    started = time.perf_counter()
    violating = boundary = 0
    for k in range(1, 5):
        for n in range(2 * k + 2, 14):
            g = power_cycle(n, k)
            c4s = [b.vertices for b in cycle_bicliques(n, k)
                   if b.shape == "C4"]
            for m in range(1 << (n - 1)):  # vertex 0 pinned, swap symmetry
                colours = (0,) + tuple(m >> v & 1 for v in range(n - 1))
                blocks_ok = all(
                    size in (k, k + 1)
                    for _, size in support.block_profile(colours))
                mono = support.walk_mono_p3(g, colours)
                if n == 2 * k + 2:
                    if blocks_ok:
                        assert mono is None, (n, k, colours)
                    assert (mono is None) == _boundary_no_mono_p3(colours, k), \
                        (n, k, colours)
                    boundary += 1
                    continue
                assert blocks_ok == (mono is None), (n, k, colours)
                if mono is None:
                    continue
                assert support.walk_mono_p3(
                    g, colours, reach_in={k + 1, k + 2}) is not None, \
                    (n, k, colours)
                if n == 3 * k + 2:
                    near = support.walk_mono_p3(g, colours, reach_in={k + 1})
                    mono_c4 = any(
                        colours[q[0]] == colours[q[1]] ==
                        colours[q[2]] == colours[q[3]] for q in c4s)
                    assert near is not None or mono_c4, (n, k, colours)
                violating += 1
    _report(5, started, 180,
            f"block dichotomy exact for n >= 2k+3 ({violating} violating "
            f"colourings, all with a reach k+1 or k+2 witness); the "
            f"{boundary} boundary colourings match the antipodal rule")


def test_06_three_colouring_defeats_all_p3s():
    started = time.perf_counter()
    low_t = high_t = 0
    for k in range(1, 9):
        for n in range(2 * k + 2, 61):
            c = three_colour_no_mono_p3(n, k)
            assert c.num_colours <= 3, (n, k)
            assert support.walk_mono_p3(power_cycle(n, k), c.colours) is None, \
                (n, k)
            if even_division(n, k).t <= k:
                low_t += 1
            else:
                high_t += 1
    assert low_t and high_t  # both remainder ranges exercised
    _report(6, started, 30,
            f"three-colouring leaves no monochromatic P3 on {low_t + high_t} "
            f"grid points ({high_t} with remainder above k)")


def test_07_reduction_certified_on_corpus():
    started = time.perf_counter()
    phi = CnfFormula.of(5, [(1, -2, 4), (2, -3, -5), (1, 3, 5)])
    rng = random.Random(20260825)
    corpus = [phi] + [support.random_normalized_formula(rng)
                      for _ in range(200)]
    sat_count = 0
    for f in corpus:
        assert f.num_vars <= 6 and len(f.clauses) <= 8
        report = certify_reduction(f)
        assert report.equivalent, f
        assert report.k4_free and report.c4_free, f
        assert report.correspondence_ok, f
        sat_count += report.satisfiable
    assert sat_count < len(corpus)  # corpus contains unsatisfiable formulas
    _report(7, started, 300,
            f"satisfiability equals biclique containment on {len(corpus)} "
            f"formulas ({sat_count} satisfiable); every gadget K4- and C4-free")


def test_08_large_n_is_always_two():
    started = time.perf_counter()
    for k in (2, 3, 4, 5):
        for n in range(2 * k * k, 2 * k * k + 3 * k + 1):
            r = closed_form("cycle", "biclique", n, k)
            cert = ab_certificate(n, k)
            assert cert is not None and cert.is_valid_for(n, k), (n, k)
            assert (r.value, r.ab) == (2, cert), (n, k)
    _report(8, started, 5,
            "beyond n = 2k^2 the closed form is constantly 2 with a valid "
            "(a, b) certificate (k = 2..5)")


def test_09_cli_emitted_colourings_verify(tmp_path):
    started = time.perf_counter()
    k = 3
    verified = 0
    for kind in ("path", "cycle"):
        for mode in ("biclique", "star"):
            for n in range(11, 41):
                graph = tmp_path / f"{kind}_{n}.json"
                col = tmp_path / f"{kind}_{n}_{mode}.col.json"
                assert cli.main(["gen", kind, "--n", str(n), "--k", str(k),
                                 "--out", str(graph)]) == 0
                assert cli.main(["chromatic", kind, "--n", str(n),
                                 "--k", str(k), "--mode", mode, "--certify",
                                 "--emit-colouring", str(col)]) == 0
                assert cli.main(["verify", str(graph), str(col),
                                 "--mode", mode]) == 0
                verified += 1
    # sweep grids agree with the library on every row
    for kind in ("path", "cycle"):
        for mode in ("biclique", "star"):
            out = tmp_path / f"sweep_{kind}_{mode}.csv"
            assert cli.main(["sweep", "--kind", kind, "--mode", mode,
                             "--k-from", "3", "--k-to", "3",
                             "--n-from", "11", "--n-to", "40",
                             "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 30
            for row in rows:
                n = int(row["n"])
                if kind == "cycle" and mode == "biclique":
                    # n >= 3k+2 = 11: 2 exactly when (a, b) blocks exist
                    value = 3 if support.brute_ab_exists(n, k) is None else 2
                    assert int(row["value"]) == value, row
                    if n >= 2 * k * k:
                        assert int(row["value"]) == 2, row
    _report(9, started, 300,
            f"all {verified} CLI-emitted colourings verify clean; sweep CSV "
            "matches the exhaustive (a, b) scan on the k = 3 cycle grid")
