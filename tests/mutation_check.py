"""Mutation check: every listed mutant of the package must fail its tests.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutation_check.py

A mutant is (file under src/bicliques, old text, new text, targeted tests).
The old text must occur exactly once in the file, so a refactor that moves
or rewrites the code stops the check instead of skipping the mutant.  The
script copies src/, tests/, pyproject.toml and benchmarks/reference.py (the
tests' reference) to one temporary directory per worker,
min(os.cpu_count(), len(MUTANTS)) of them, and runs the targeted tests
there under pytest -x: first every target, unmutated and split over the
copies (_split), where all must pass, then each mutant on whichever
copy is free, several at once, where the tests must fail.  A line per
mutant is printed in MUTANTS order.  pytest's output is printed when an
unmutated copy fails or a mutant ends in an error rather than a failed
test (say a collection error).  It exits 0 when every mutant is caught and
1 otherwise.  The file name keeps pytest from collecting it; it uses the
standard library only, and pytest in child processes.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (file, old text, new text, targeted tests)
MUTANTS = {
    # the certificate of powers.first_mono_set
    "c4-bound": (
        "powers.py",
        "if c <= min(b + k, u + n - k - 1):",
        "if c <= min(b + k, u + n - k):",
        ["tests/test_powers.py::test_exact_witness_on_every_two_colouring"]),
    "p3-gap": (
        "powers.py",
        "q[s] - q[s - 1] <= k and q[s] < u + top",
        "q[s] - q[s - 1] < k and q[s] < u + top",
        ["tests/test_powers.py::test_exact_witness_on_every_two_colouring"]),
    "cycle-top": (
        "powers.py",
        'top = n - 2 * k if mode == "biclique" else n - k',
        'top = n - 2 * k + 1 if mode == "biclique" else n - k',
        ["tests/test_powers.py::test_exact_witness_on_every_two_colouring"]),
    "clique-window": (
        "powers.py",
        "q[j + 1] <= hi",
        "q[j + 1] < hi",
        ["tests/test_powers.py::test_exact_witness_on_every_two_colouring"]),
    "p3-window": (
        "powers.py",
        "bisect_left(q, q[s] - k, i + 1)",
        "bisect_left(q, q[s] - k + 1, i + 1)",
        ["tests/test_powers.py"]),
    "centre-reach": (
        "powers.py",
        "max(w, v + n - top + 1)",
        "max(w, v + n - top)",
        ["tests/test_powers.py"]),
    "path-clique": (
        "powers.py",
        "max(0, n - 1 - k)",
        "max(0, n - k)",
        ["tests/test_powers.py"]),
    "wrapped-range": (
        "powers.py",
        "if cyclic and u < k:",
        "if cyclic and u < k - 1:",
        ["tests/test_powers.py"]),
    "params-k": (
        "powers.py",
        "if k < 1:",
        "if k < 0:",
        ["tests/test_powers.py"]),
    "class-size": (
        "powers.py",
        "if size >= 2}",
        "if size >= 3}",
        ["tests/test_powers.py"]),
    "wrapped-end": (
        "powers.py",
        "lo = max(w - k, u + n - top + 1)",
        "lo = max(w - k, u + n - top)",
        ["tests/test_powers.py"]),
    "c4-third": (
        "powers.py",
        "max(c0, q[j] - k)",
        "max(c0, q[j] - k + 1)",
        ["tests/test_powers.py"]),
    "clique-pair": (
        "powers.py",
        "j = bisect_left(q, lo)",
        "j = bisect_left(q, lo + 1)",
        ["tests/test_powers.py"]),
    "class-scan": (
        "powers.py",
        "if len(q) >= 3:",
        "if len(q) >= 4:",
        ["tests/test_powers.py::test_exact_witness_on_every_two_colouring"]),
    "params-int-k": (
        "powers.py",
        "if not (is_int(n) and is_int(k)):",
        "if not is_int(n):",
        ["tests/test_powers.py::test_first_mono_set_rejects_impossible_input",
         "tests/test_powers.py::"
         "test_power_functions_refuse_non_integer_n_and_k"]),
    "circulant-bool": (
        "powers.py",
        "if not is_int(d):",
        "if not isinstance(d, int):",
        ["tests/test_powers.py::"
         "test_circulant_rejects_a_distance_that_is_no_int"]),
    # the maximality kernel
    "maximal-cb": (
        "graphs.py",
        "return not (and_b & ~or_a | and_a & ~or_b) & ~smask",
        "return not (and_b & ~or_a) & ~smask",
        ["tests/test_graphs.py"]),
    "cb-cut": (
        "graphs.py",
        "if not free & nx:      # ... in every set of the branch",
        "if free & nx:          # ... in every set of the branch",
        ["tests/test_graphs.py"]),
    "maximal-star-edge": (
        "graphs.py",
        "return not (row ^ adj[nb.bit_length() - 1]) & ~smask",
        "return not (row & adj[nb.bit_length() - 1]) & ~smask",
        ["tests/test_graphs.py"]),
    "edge-shift": (
        "graphs.py",
        "row >>= i + 1",
        "row >>= i",
        ["tests/test_graphs.py"]),
    "smallest-group": (
        "graphs.py",
        "if best is not None and a & -a != group:",
        "if best is not None:",
        ["tests/test_graphs.py", "tests/test_oracle.py"]),
    "pair-edge": (
        "graphs.py",
        "top = 1 << mask.bit_length() - 1",
        "top = mask & -mask",
        ["tests/test_graphs.py::"
         "test_maximal_independent_subsets_of_two_vertices"]),
    "family-key": (
        "graphs.py",
        "out.sort(key=itemgetter(0))",
        "out.sort(key=itemgetter(1))",
        ["tests/test_graphs.py::test_family_records_are_in_record_order"]),
    # the byte tables of vertices_of
    "byte-table-bound": (
        "graphs.py",
        "if mask < 1 << 24:",
        "if mask <= 1 << 24:",
        ["tests/test_graphs.py::test_vertices_of_matches_a_bit_walk"]),
    "byte-table-offset": (
        "graphs.py",
        "_byte_table, (0, 8, 16))",
        "_byte_table, (0, 8, 15))",
        ["tests/test_graphs.py::test_vertices_of_matches_a_bit_walk"]),
    "family-shape": (
        "graphs.py",
        '_SHAPES.get((a.bit_count(), b.bit_count()), "OTHER")',
        '_SHAPES.get((a.bit_count(), a.bit_count()), "OTHER")',
        ["tests/test_graphs.py::"
         "test_family_records_carry_the_shape_of_their_sides"]),
    # the structural checks, each one walk over its input
    "cb-sides-swap": (
        "graphs.py",
        "(a if low & b else b)",
        "(b if low & b else a)",
        ["tests/test_graphs.py"]),
    "cb-sides-edge": (
        "graphs.py",
        "return (a, b) if b else None",
        "return a, b",
        ["tests/test_graphs.py"]),
    "star-side": (
        "graphs.py",
        "any(s & (s - 1) == 0 for s in sides)",
        "all(s & (s - 1) == 0 for s in sides)",
        ["tests/test_graphs.py"]),
    "graph-symmetry": (
        "graphs.py",
        "if not adj[u] >> v & 1:",
        "if False and not adj[u] >> v & 1:",
        ["tests/test_graphs.py"]),
    "fields-self-loop": (
        "graphs.py",
        "and i != j):\n            _check_edge(n, i, j)\n",
        "):\n            _check_edge(n, i, j)\n",
        ["tests/test_graphs.py::"
         "test_graph_fields_rejects_bad_input_with_its_message",
         "tests/test_cli.py::test_labelled_self_loop_is_bad_input"]),
    # the exact search's colour-class masks
    "exact-restore": (
        "oracle.py",
        "classes[col] = cls ^ 1 << v",
        "classes[col] = cls",
        ["tests/test_oracle.py"]),
    "exact-filing": (
        "oracle.py",
        "by_last[m.bit_length() - 1]",
        "by_last[(m & -m).bit_length() - 1]",
        ["tests/test_oracle.py"]),
    # the Colouring invariant, the rows of closed_form, and the (a, b)
    # division
    "colouring-empty": (
        "graphs.py",
        "if len(used) != num_colours:",
        "if colours and len(used) != num_colours:",
        ["tests/test_colouring.py::test_colouring_validation"]),
    "c4-row": (
        "colouring.py",
        'elif mode == "biclique" and n <= 3 * k + 1:',
        'elif mode == "biclique" and n <= 3 * k + 2:',
        ["tests/test_colouring.py"]),
    "path-universal-row": (
        "colouring.py",
        'elif kind == "path" and n <= 2 * k:',
        'elif kind == "path" and n <= 2 * k - 1:',
        ["tests/test_colouring.py"]),
    "ab-division": (
        "colouring.py",
        "return AbCertificate(a - t, t) if t <= a else None",
        "return AbCertificate(a - t, t) if t < a else None",
        ["tests/test_colouring.py::test_ab_certificate_frozen"]),
    "ab-bound": (
        "colouring.py",
        'if n < 2 * k + 2:\n        raise InputError(f"block certificate',
        'if n < 2 * k + 1:\n        raise InputError(f"block certificate',
        ["tests/test_colouring.py::test_ab_certificate_frozen"]),
    # the one output route: the graph file's layout, DOT's edge lines and
    # the opener's stdout
    "layout-separator": (
        "graphs.py",
        'sep = ",\\n"',
        'sep = ", \\n"',
        ["tests/test_graphs.py::test_write_graph_writes_json_dumps_layout"]),
    "layout-close": (
        "graphs.py",
        'else "\\n ]")',
        'else "\\n]")',
        ["tests/test_graphs.py::test_write_graph_writes_json_dumps_layout"]),
    "layout-fields": (
        "graphs.py",
        'f",{tail[1:]}\\n"',
        'f",{tail[2:]}\\n"',
        ["tests/test_reduction.py::test_instance_serialization"]),
    "dot-edge": (
        "graphs.py",
        'out.write(f"  {i} -- {j};\\n")',
        'out.write(f"  {i} -- {j};")',
        ["tests/test_graphs.py::test_graph_dict_round_trip"]),
    "output-stdout": (
        "graphs.py",
        "nullcontext(sys.stdout)",
        "nullcontext(sys.stderr)",
        ["tests/test_graphs.py::test_write_graph_writes_json_dumps_layout"]),
    # how a command line run ends (cli.run): each step before os._exit
    "exit-stdout-flush": (
        "cli.py",
        "for stream in (sys.stdout, sys.stderr):",
        "for stream in (sys.stderr,):",
        ["tests/test_cli.py::test_a_command_line_run_ends_as_main_returns",
         "tests/test_cli.py::"
         "test_a_long_output_arrives_whole_through_a_pipe"]),
    "exit-atexit": (
        "cli.py",
        "atexit._run_exitfuncs()",
        "pass",
        ["tests/test_cli.py::test_atexit_handlers_run_before_the_fast_exit"]),
    "exit-dev-mode": (
        "cli.py",
        "if not sys.flags.dev_mode:",
        "if True:",
        ["tests/test_cli.py::test_dev_mode_still_reports_a_file_left_open"]),
}


def _run(copy: Path, tests) -> subprocess.CompletedProcess:
    """pytest on the tests of the copy; its exit code is 0 when all pass, 1
    when one fails (-x stops there), and other codes are errors.  No
    bytecode is written, so a restored file is never read from a mutant's
    cache."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)


def _copy(dest: Path) -> Path:
    """A copy of src/, tests/, pyproject.toml and benchmarks/reference.py,
    which tests/support.py loads, at dest, for pytest to run in."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest)
    (dest / "benchmarks").mkdir()
    shutil.copy2(ROOT / "benchmarks" / "reference.py", dest / "benchmarks")
    return dest


def _mutant_run(copies: queue.Queue, mutant) -> tuple:
    """pytest's run of the mutant's tests, and its wall time, on a copy
    taken from copies with the mutant applied; the copy is restored and
    put back for the next mutant."""
    file, old, new, tests = mutant
    copy = copies.get()
    try:
        path = copy / "src" / "bicliques" / file
        text = path.read_text()
        path.write_text(text.replace(old, new))
        try:
            start = time.perf_counter()
            run = _run(copy, tests)
            return run, time.perf_counter() - start
        finally:
            path.write_text(text)
    finally:
        copies.put(copy)


def _split(tests, parts: int) -> list[list[str]]:
    """The targets in at most parts non-empty groups of about equal weight,
    for the unmutated pass: a test inside a targeted file runs with the
    file, and the targets, a file weighed by its size in bytes and a single
    test as nothing, are dealt out heaviest first."""
    wanted = set(tests)
    weight = {t: 0 if "::" in t else (ROOT / t).stat().st_size
              for t in wanted
              if "::" not in t or t.split("::")[0] not in wanted}
    dealt = sorted(weight, key=lambda t: (-weight[t], t))
    return [g for g in (dealt[i::parts] for i in range(parts)) if g]


def main() -> int:
    for name, (file, old, _, _) in MUTANTS.items():
        count = (ROOT / "src" / "bicliques" / file).read_text().count(old)
        if count != 1:
            sys.exit(f"{name}: {old!r} occurs {count} times in {file}")
    workers = min(os.cpu_count() or 1, len(MUTANTS))
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        paths = [_copy(Path(tmp) / str(i)) for i in range(workers)]
        groups = _split((t for *_, tests in MUTANTS.values() for t in tests),
                        workers)
        start = time.perf_counter()
        with ThreadPoolExecutor(workers) as pool:
            runs = list(pool.map(_run, paths, groups))
        code = max(run.returncode for run in runs)
        print(f"unmutated: exit {code} in {time.perf_counter() - start:.1f} s "
              f"on {len(groups)} copies", flush=True)
        if code != 0:
            print(*(run.stdout for run in runs if run.returncode), sep="\n")
            return 1
        copies: queue.Queue = queue.Queue()
        for path in paths:
            copies.put(path)
        survived = []
        with ThreadPoolExecutor(workers) as pool:
            runs = pool.map(partial(_mutant_run, copies), MUTANTS.values())
            for name, (run, seconds) in zip(MUTANTS, runs):
                code = run.returncode
                verdict = "caught" if code == 1 else "SURVIVED" if code == 0 \
                    else f"ERROR (pytest exit {code})"
                print(f"{name}: {verdict} in {seconds:.1f} s", flush=True)
                if code not in (0, 1):
                    print(run.stdout, flush=True)
                if code != 1:
                    survived.append(name)
    wall = f"{time.perf_counter() - began:.1f} s on {workers} worker(s)"
    if survived:
        print(f"not caught: {', '.join(survived)} ({wall})")
        return 1
    print(f"all {len(MUTANTS)} mutants caught in {wall}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
