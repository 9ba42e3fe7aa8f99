"""End-to-end CLI behaviour through main(argv), including exit codes and
file round-trips between subcommands."""

import ast
import csv
import io
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import support
from bicliques import cli, colouring, oracle, powers, reduction
from bicliques.cli import EXIT_CAPACITY, EXIT_INPUT, EXIT_INVALID, EXIT_OK, main
from bicliques.colouring import biclique_colour_cycle, biclique_colour_path
from bicliques.graphs import (DOT_PALETTE, INPUT_CAP, Graph, read_graph,
                              write_graph)
from bicliques.reduction import CnfFormula, write_dimacs


def test_gen_path_to_file(tmp_path):
    out = tmp_path / "p.json"
    assert main(["gen", "path", "--n", "7", "--k", "3",
                 "--out", str(out)]) == EXIT_OK
    assert read_graph(out) == powers.power_path(7, 3)


def test_gen_cycle_stdout(capsys):
    assert main(["gen", "cycle", "--n", "9", "--k", "2"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "C_9^2"
    assert doc["n"] == 9
    assert len(doc["edges"]) == powers.power_cycle(9, 2).edge_count


def test_gen_circulant(tmp_path):
    out = tmp_path / "c.json"
    assert main(["gen", "circulant", "--n", "9", "--distances", "1,3",
                 "--out", str(out)]) == EXIT_OK
    assert read_graph(out).adj == powers.circulant(9, [1, 3]).adj
    assert main(["gen", "circulant", "--n", "9", "--out", str(out)]) == EXIT_INPUT
    assert main(["gen", "circulant", "--n", "13", "--distances", "1,x",
                 "--out", str(out)]) == EXIT_INPUT
    assert main(["gen", "path", "--n", "9", "--out", str(out)]) == EXIT_INPUT


@pytest.mark.parametrize("n, distances, message", [
    ("100000000", "0", "distances must be positive integers, got 0"),
    ("100000000", "100000000", "distance 100000000 is 0 mod 100000000"),
    ("30000", "-3", "distances must be positive integers, got -3"),
    *(("13", d, "--distances must be comma-separated integers, "
       f"got {d!r}") for d in ("1_0", "\u0661", "1,\u0662", "+1", " 1",
                               "\uff11")),
])
def test_gen_circulant_checks_distances_before_the_caps(tmp_path, capsys, n,
                                                        distances, message):
    """A bad distance is bad input at any n: the first three once exited 3
    on the rows cap, while the same distance at n = 13 exited 2.  A
    distance is -?[0-9]+: int() alone also reads "1_0" as 10, other
    Unicode digits, a "+" and spaces, and such a circulant was built."""
    out = tmp_path / "c.json"
    assert main(["gen", "circulant", "--n", n, "--distances", distances,
                 "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen", "path", "--n", "5", "--k", "2", "--distances", "1,2"],
     "path takes no --distances"),
    (["gen", "cycle", "--n", "5", "--k", "2", "--distances", "1"],
     "cycle takes no --distances"),
    (["gen", "circulant", "--n", "5", "--k", "9", "--distances", "1"],
     "circulant takes no --k"),
], ids=["path", "cycle", "circulant"])
def test_gen_refuses_a_flag_its_kind_does_not_take(tmp_path, capsys, argv,
                                                   message):
    """--distances names a circulant and --k a power: given to the other
    kind, each is bad input, not ignored, and nothing is written."""
    for outputs in ([], ["--out", "g.json", "--dot", "g.dot"]):
        assert main([*argv, *(str(tmp_path / a) if a.startswith("g.") else a
                              for a in outputs)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_gen_dot_output(tmp_path):
    dot = tmp_path / "g.dot"
    assert main(["gen", "path", "--n", "4", "--k", "1", "--out",
                 str(tmp_path / "g.json"), "--dot", str(dot)]) == EXIT_OK
    assert "0 -- 1;" in dot.read_text()


def test_chromatic_value_and_certificate_lines(capsys):
    assert main(["chromatic", "cycle", "--n", "14", "--k", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2"
    assert lines[1] == "certificate: a=2;b=2"

    assert main(["chromatic", "path", "--n", "5", "--k", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "3"
    assert lines[1] == "certificate: universal=1-2-3"

    assert main(["chromatic", "cycle", "--n", "11", "--k", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["3"]

    assert main(["chromatic", "cycle", "--n", "11", "--k", "4",
                 "--mode", "star"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "3"


def test_chromatic_certify(capsys):
    assert main(["chromatic", "cycle", "--n", "40", "--k", "3",
                 "--certify"]) == EXIT_OK
    assert "certified" in capsys.readouterr().out
    assert main(["chromatic", "path", "--n", "33", "--k", "5",
                 "--mode", "star", "--certify"]) == EXIT_OK
    assert "certified" in capsys.readouterr().out


def test_chromatic_emit_then_verify(tmp_path, capsys):
    graph = tmp_path / "g.json"
    col = tmp_path / "c.json"
    assert main(["gen", "cycle", "--n", "14", "--k", "3",
                 "--out", str(graph)]) == EXIT_OK
    assert main(["chromatic", "cycle", "--n", "14", "--k", "3",
                 "--emit-colouring", str(col)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", str(graph), str(col)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "valid"
    # emitted file carries the block certificate
    raw = json.loads(col.read_text())
    assert raw["certificate"] == {"a": 2, "b": 2}


def test_verify_detects_monochromatic_witness(tmp_path, capsys):
    graph = tmp_path / "g.json"
    col = tmp_path / "c.json"
    assert main(["gen", "cycle", "--n", "14", "--k", "3",
                 "--out", str(graph)]) == EXIT_OK
    col.write_text(json.dumps(
        {"n": 14, "colours": [0] * 14, "num_colours": 1}))
    capsys.readouterr()
    assert main(["verify", str(graph), str(col)]) == EXIT_INVALID
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "biclique"
    assert doc["witness"] == [0, 1, 4]  # smallest maximal biclique of C_14^3


def test_verify_star_mode_rejects_biclique_optimum(tmp_path, capsys):
    """C_11^4 separates the modes: its biclique-optimal 2-colouring leaves a
    monochromatic star."""
    graph = tmp_path / "g.json"
    col = tmp_path / "c.json"
    assert main(["gen", "cycle", "--n", "11", "--k", "4",
                 "--out", str(graph)]) == EXIT_OK
    assert main(["chromatic", "cycle", "--n", "11", "--k", "4",
                 "--emit-colouring", str(col)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", str(graph), str(col)]) == EXIT_OK
    assert main(["verify", str(graph), str(col), "--mode", "star"]) == EXIT_INVALID


def test_verify_unlabeled_graph_uses_oracle(tmp_path, capsys):
    # P_5^1 adjacency plus a chord: the label no longer matches, so the
    # oracle enumeration decides; the CLI must agree with it
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)],
                         label="P_5^1")
    graph = tmp_path / "g.json"
    write_graph(g, graph)
    colours = (0, 1, 0, 1, 0)
    col = tmp_path / "c.json"
    col.write_text(json.dumps(
        {"n": 5, "colours": list(colours), "num_colours": 2}))
    expected = oracle.verify_colouring(g, colours)
    code = main(["verify", str(graph), str(col)])
    out = capsys.readouterr().out.strip()
    if expected is None:
        assert code == EXIT_OK and out == "valid"
    else:
        assert code == EXIT_INVALID
        assert json.loads(out)["witness"] == list(expected)


def test_verify_input_errors_and_capacity(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.json"
    col = tmp_path / "c.json"
    assert main(["gen", "path", "--n", "6", "--k", "2",
                 "--out", str(graph)]) == EXIT_OK
    col.write_text(json.dumps({"n": 4, "colours": [0, 0, 0, 0]}))
    assert main(["verify", str(graph), str(col)]) == EXIT_INPUT
    assert main(["verify", str(tmp_path / "nope.json"), str(col)]) == EXIT_INPUT
    col.write_text("{ not json")
    assert main(["verify", str(graph), str(col)]) == EXIT_INPUT

    big = tmp_path / "big.json"
    write_graph(Graph(23, (0,) * 23), big)
    col.write_text(json.dumps({"n": 23, "colours": [0] * 23}))
    assert main(["verify", str(big), str(col)]) == EXIT_CAPACITY

    graph.write_text(json.dumps({"n": True, "edges": []}))
    col.write_text(json.dumps({"n": 1, "colours": [0]}))
    assert main(["verify", str(graph), str(col)]) == EXIT_INPUT

    # a million-vertex graph is read in linear time and then rejected
    # (colouring length), not after a minute of n-bit row checks
    graph.write_text(json.dumps({"n": 1000000, "edges": []}))
    start = time.perf_counter()
    assert main(["verify", str(graph), str(col)]) == EXIT_INPUT
    assert time.perf_counter() - start < 10
    capsys.readouterr()

    # a colouring of the wrong length is rejected before the declared n
    # adjacency rows are allocated
    graph.write_text(json.dumps({"n": 10000000, "edges": []}))
    start = time.perf_counter()
    assert main(["verify", str(graph), str(col)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        "error: colouring has 1 entries for n=10000000\n"
    # nor before the power graph that the label names is rebuilt, which
    # would take O(n^2) bits
    def rebuilt(*args):
        raise AssertionError(f"power graph {args} rebuilt")
    monkeypatch.setattr(powers, "power_graph", rebuilt)
    graph.write_text(json.dumps({"n": 10000000, "edges": [],
                                 "label": "P_10000000^1"}))
    assert main(["verify", str(graph), str(col)]) == EXIT_INPUT
    assert capsys.readouterr().err == \
        "error: colouring has 1 entries for n=10000000\n"


def test_labelled_verify_builds_no_rows_and_no_family(
        tmp_path, capsys, monkeypatch):
    """verify of a file that is the P_20000^1 its label names runs the
    windowed P3 scan: no graph, no n-bit row and no family is built."""
    n = 20000
    graph, col = tmp_path / "g.json", tmp_path / "c.json"
    graph.write_text(json.dumps({"n": n, "label": f"P_{n}^1",
                                 "edges": [[i, i + 1] for i in range(n - 1)]}))
    colours = [i % 2 for i in range(n)]
    col.write_text(json.dumps({"n": n, "colours": colours}))

    def built(*args):
        raise AssertionError(f"graph {args} built")
    monkeypatch.setattr(Graph, "from_edges", staticmethod(built))
    support.forbid_rows_and_families(monkeypatch)
    assert main(["verify", str(graph), str(col)]) == EXIT_OK
    assert capsys.readouterr().out == "valid\n"
    colours[n - 2] = colours[n - 1]
    col.write_text(json.dumps({"n": n, "colours": colours}))
    for mode in ("biclique", "star"):
        assert main(["verify", str(graph), str(col), "--mode", mode]) == \
            EXIT_INVALID
        assert json.loads(capsys.readouterr().out) == \
            {"mode": mode, "witness": [n - 3, n - 2, n - 1]}


def test_unlabelled_verify_checks_the_cap_before_rows(
        tmp_path, capsys, monkeypatch):
    """An unlabelled star on 40000 vertices with its centre last would give
    every leaf a 40000-bit row; the oracle's cap rejects it first, after the
    field errors and the colouring's length, as before."""
    n = 40000
    graph, col = tmp_path / "g.json", tmp_path / "c.json"
    graph.write_text(json.dumps(
        {"n": n, "edges": [[i, n - 1] for i in range(n - 1)]}))
    col.write_text(json.dumps({"n": n, "colours": [0] * (n - 1) + [1]}))

    def built(*args):
        raise AssertionError("rows allocated")
    monkeypatch.setattr(Graph, "from_edges", staticmethod(built))
    start = time.perf_counter()
    assert main(["verify", str(graph), str(col)]) == EXIT_CAPACITY
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        f"error: subset scan is capped at n <= 22, got n={n}\n"
    # the colouring's length is still reported before the cap
    col.write_text(json.dumps({"n": 1, "colours": [0]}))
    assert main(["verify", str(graph), str(col)]) == EXIT_INPUT
    assert capsys.readouterr().err == \
        f"error: colouring has 1 entries for n={n}\n"


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv, absent", [
    (["chromatic", "cycle", "--n", "14", "--k", "3", "--certify"],
     ("bicliques.oracle", "bicliques.reduction", "csv", "json")),
    (["sweep", "--kind", "path", "--k-from", "1", "--k-to", "2",
      "--n-from", "1", "--n-to", "9"],
     ("bicliques.oracle", "bicliques.reduction", "json")),
    (["verify", "{graph}", "{col}"],
     ("bicliques.oracle", "bicliques.reduction", "csv")),
    (["reduce", "{cnf}", "--out-prefix", "{prefix}", "--certify"],
     ("dataclasses", "inspect", "bicliques.oracle", "bicliques.colouring",
      "bicliques.powers", "csv")),
    (["gen", "cycle", "--n", "9", "--k", "2", "--out", "{prefix}.json"],
     ("bicliques.oracle", "bicliques.reduction", "csv")),
    (["bicliques", "--kind", "cycle", "--n", "9", "--k", "2"],
     ("bicliques.oracle", "bicliques.reduction", "csv")),
    (["bicliques", "--graph", "{plain}"],
     ("bicliques.reduction", "bicliques.powers", "bicliques.colouring",
      "csv")),
    (["bicliques", "--graph", "{graph}"],
     ("bicliques.reduction", "bicliques.powers", "bicliques.colouring",
      "csv")),
])
def test_closed_form_subcommands_skip_the_oracle_and_reduction(
        tmp_path, argv, absent):
    """A command line run imports only what its subcommand uses: the
    closed-form subcommands and verify of a labelled power graph leave the
    oracle and the reduction unimported, reduce loads neither dataclasses,
    inspect, colouring nor powers, bicliques --graph of a labelled file or
    not, which reads no label, neither colouring nor powers, and only
    sweep loads csv.  chromatic without --emit-colouring and sweep write
    no JSON, so neither loads json.  Importing the package loads graphs at
    once, and neither colouring nor powers."""
    graph, col = tmp_path / "g.json", tmp_path / "c.json"
    assert main(["gen", "path", "--n", "9", "--k", "2",
                 "--out", str(graph)]) == EXIT_OK
    assert main(["chromatic", "path", "--n", "9", "--k", "2",
                 "--emit-colouring", str(col)]) == EXIT_OK
    cnf, plain = tmp_path / "f.cnf", tmp_path / "plain.json"
    write_dimacs(CnfFormula.of(3, [(1, -2), (2, 3), (-1, -3)]), cnf)
    write_graph(Graph.from_edges(4, [(0, 1), (1, 2)]), plain)
    argv = [a.format(graph=graph, col=col, cnf=cnf, plain=plain,
                     prefix=tmp_path / "f") for a in argv]
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import bicliques\n"
            "eager = sorted(set(sys.modules) - before)\n"
            "from bicliques.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(eager)\n"
            "print(sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    eager, added = (set(ast.literal_eval(line))
                    for line in out.splitlines()[-2:])
    assert "bicliques.graphs" in eager
    assert not eager & {"bicliques.colouring", "bicliques.powers"}
    assert "bicliques.cli" in added
    assert not added & set(absent)


def test_star_import_binds_the_lazy_names():
    """`from bicliques import *` binds every lazily re-exported name (it
    imports colouring, powers, the oracle and the reduction to do so),
    while a plain import leaves all four modules unloaded."""
    code = ("import sys\n"
            "import bicliques\n"
            "lazy = {'bicliques.colouring', 'bicliques.oracle',\n"
            "        'bicliques.powers', 'bicliques.reduction'}\n"
            "print(sorted(lazy & set(sys.modules)))\n"
            "from bicliques import *\n"
            "print(sorted(set(bicliques._SOURCE) - set(dir())))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded, unbound = (ast.literal_eval(line) for line in out.splitlines())
    assert loaded == []
    assert unbound == []


def test_oracle_calls_load_only_the_oracle():
    """The first call of each oracle function after `import bicliques`
    imports the oracle and nothing else: everything it runs is in graphs,
    which the package imports at once, so an in-process caller's first
    timed call does not pay for colouring or powers."""
    code = ("import sys\n"
            "import bicliques\n"
            "before = set(sys.modules)\n"
            "g = bicliques.Graph.from_edges(\n"
            "    5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])\n"
            "bicliques.maximal_bicliques(g)\n"
            "bicliques.maximal_stars(g)\n"
            "bicliques.verify_colouring(g, [0, 1, 0, 1, 2])\n"
            "bicliques.exact_chromatic(g)\n"
            "print(sorted(set(sys.modules) - before))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert ast.literal_eval(out.splitlines()[-1]) == ["bicliques.oracle"]


def test_the_package_loads_no_typing_dataclasses_or_inspect():
    """Every record is a collections.namedtuple class, so importing every
    module of the package loads none of typing, dataclasses and inspect.
    The child runs under python -S, so nothing that site imports (a .pth
    file, say) can load them first."""
    code = ("import sys\n"
            "import bicliques.cli, bicliques.colouring, bicliques.powers\n"
            "import bicliques.oracle, bicliques.reduction\n"
            "print(sorted({'typing', 'dataclasses', 'inspect'}\n"
            "             & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert ast.literal_eval(out.splitlines()[-1]) == []


def _run_limited(argv, cwd, stdin=None):
    """Run the command line in a child whose address space is capped at
    1 GiB, so a request that would outgrow it fails at once rather than
    running the machine out of memory; stdin is passed to Popen.  Returns
    the exit code, stdout, stderr, the wall time in seconds and the
    child's peak RSS in MB."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out, err = cwd / "stdout.txt", cwd / "stderr.txt"
    start = time.perf_counter()
    with open(out, "w") as fo, open(err, "w") as fe:
        child = subprocess.Popen(
            [sys.executable, "-m", "bicliques.cli", *argv], cwd=cwd,
            env=env, stdin=stdin, stdout=fo, stderr=fe, preexec_fn=limit)
        _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return (child.returncode, out.read_text(), err.read_text(), wall,
            usage.ru_maxrss / 1024)


def _write_long_path(tmp_path, n):
    """A labelled P_n^1 file with its valid colouring and a colouring in
    blocks of three, written directly since gen caps n at ROWS_CAP."""
    (tmp_path / "g.json").write_text(json.dumps(
        {"n": n, "label": f"P_{n}^1",
         "edges": [[i, i + 1] for i in range(n - 1)]}))
    (tmp_path / "c.json").write_text(json.dumps(
        {"n": n, "colours": [i % 2 for i in range(n)]}))
    (tmp_path / "bad.json").write_text(json.dumps(
        {"n": n, "colours": [i // 3 % 2 for i in range(n)]}))


def test_labelled_verify_at_n_200000_in_bounded_time_and_memory(tmp_path):
    """verify of a labelled P_200000^1 runs the windowed scan in linear
    memory: a child limited to 1 GiB of address space answers in seconds
    and well under 200 MB."""
    _write_long_path(tmp_path, 200000)
    code, out, err, wall, rss = _run_limited(["verify", "g.json", "c.json"],
                                             tmp_path)
    assert (code, out, err) == (EXIT_OK, "valid\n", "")
    assert wall < 5 and rss < 200, (wall, rss)
    code, out, err, wall, rss = _run_limited(
        ["verify", "g.json", "bad.json"], tmp_path)
    assert (code, err) == (EXIT_INVALID, "")
    assert json.loads(out) == {"mode": "biclique", "witness": [0, 1, 2]}
    assert wall < 5 and rss < 200, (wall, rss)


@pytest.mark.parametrize("argv, message", [
    (["chromatic", "cycle", "--n", "100000000", "--k", "3"],
     "a closed form is capped at n <= 1000000, got n=100000000"),
    (["chromatic", "path", "--n", "1000000000000", "--k", "3"],
     "a closed form is capped at n <= 1000000, got n=1000000000000"),
    (["gen", "path", "--n", "100000000", "--k", "50"],
     "building a graph's rows is capped at n <= 20000, got n=100000000"),
    (["gen", "cycle", "--n", "20000", "--k", "10000"],
     "writing a graph is capped at edges <= 1000000, got edges=199990000"),
    (["gen", "circulant", "--n", "100000000", "--distances", "1,2"],
     "building a graph's rows is capped at n <= 20000, got n=100000000"),
    (["bicliques", "--kind", "path", "--n", "200000", "--k", "1"],
     "building a graph's rows is capped at n <= 20000, got n=200000"),
    (["bicliques", "--graph", "g.json"],
     "subset scan is capped at n <= 22, got n=200000"),
    (["chromatic", "path", "--n", "200000", "--k", "1", "--dot", "x.dot"],
     "building a graph's rows is capped at n <= 20000, got n=200000"),
    (["bicliques", "--kind", "cycle", "--n", "200", "--k", "60"],
     "listing the family of C_200^60 is capped at sets*degree <= 1000000, "
     "got sets*degree=172800000"),
    (["sweep", "--kind", "cycle", "--k-from", "1", "--k-to", "100000",
      "--n-from", "1", "--n-to", "100000"],
     "a sweep is capped at rows <= 10000, got rows=10000000000"),
    (["bicliques", "--kind", "cycle", "--n", "42", "--k", "20"],
     "listing the family of C_42^20 is capped at sets*degree <= 1000000, "
     "got sets*degree=1344000"),
    (["sweep", "--kind", "cycle", "--k-from", "3", "--k-to", "3",
      "--n-from", "990001", "--n-to", "1000000"],
     "a sweep is capped at sum(n) <= 1000000, got sum(n)=9950005000"),
])
def test_huge_requests_exit_3_before_anything_is_built(tmp_path, argv,
                                                       message):
    """A request over one of the command line's caps exits 3 with a message
    that gives the requested size and the cap, at once, with nothing
    printed or written.  Without the caps these ran out of memory, or ran
    until they were stopped."""
    if "g.json" in argv:
        _write_long_path(tmp_path, 200000)
    code, out, err, wall, _ = _run_limited(argv, tmp_path)
    assert (code, out, err) == (EXIT_CAPACITY, "", f"error: {message}\n")
    assert wall < 1
    assert not (tmp_path / "x.dot").exists()


@pytest.mark.parametrize("argv, big", [
    (["verify", "big.json", "c.json"], "big.json"),
    (["verify", "g.json", "big.json"], "big.json"),
    (["bicliques", "--graph", "big.json"], "big.json"),
    (["reduce", "big.cnf", "--out-prefix", "f"], "big.cnf"),
])
def test_files_over_the_input_cap_exit_3_before_they_are_read(tmp_path,
                                                              argv, big):
    """A graph, colouring or DIMACS file of INPUT_CAP + 1 bytes (sparse: no
    disk is written) exits 3 at once, naming the file, its size and the
    cap; unread, it costs no memory.  Before the cap an 18 MB graph file
    took 4.4 s and 351 MB, about 20 times its size."""
    (tmp_path / "g.json").write_text('{"n": 2, "edges": [[0, 1]]}')
    (tmp_path / "c.json").write_text('{"colours": [0, 1], "num_colours": 2}')
    with open(tmp_path / big, "wb") as fh:
        fh.truncate(INPUT_CAP + 1)
    code, out, err, wall, rss = _run_limited(argv, tmp_path)
    assert (code, out, err) == (
        EXIT_CAPACITY, "", f"error: reading {big} is capped at bytes <= "
        f"{INPUT_CAP}, got bytes={INPUT_CAP + 1}\n")
    assert wall < 1 and rss < 100, (wall, rss)
    assert not (tmp_path / "f.json").exists()


def test_a_file_at_the_input_cap_is_read(tmp_path):
    """The cap admits a file of INPUT_CAP bytes: its NUL bytes are read
    and parsed, and refused as JSON."""
    with open(tmp_path / "g.json", "wb") as fh:
        fh.truncate(INPUT_CAP)
    code, out, err, _, _ = _run_limited(["bicliques", "--graph", "g.json"],
                                        tmp_path)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: g.json: line 1: "), err


def test_piped_input_over_the_input_cap_exits_3(tmp_path):
    """A pipe's size reads 0, so its read stops at INPUT_CAP + 1 bytes:
    that many zero bytes through a real pipe exit 3 at once.  Before,
    the whole stream was read and then refused as JSON with exit 2."""
    read_end, write_end = os.pipe()

    def feed():
        chunk, left = bytes(1 << 20), INPUT_CAP + 1
        try:
            while left:
                left -= os.write(write_end, chunk[:left])
        except BrokenPipeError:
            pass
        finally:
            os.close(write_end)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        code, out, err, wall, rss = _run_limited(
            ["bicliques", "--graph", "/dev/stdin"], tmp_path, stdin=read_end)
    finally:
        os.close(read_end)
        feeder.join()
    assert (code, out, err) == (
        EXIT_CAPACITY, "", f"error: reading /dev/stdin is capped at bytes <= "
        f"{INPUT_CAP}, got bytes={INPUT_CAP + 1}\n")
    assert wall < 1 and rss < 100, (wall, rss)


@pytest.mark.parametrize("argv, first", [
    (["chromatic", "path", "--n", "1000000", "--k", "700000"], "400002"),
    (["chromatic", "cycle", "--n", "1000000", "--k", "1000000"], "1000000"),
])
def test_closed_forms_at_the_cap_in_bounded_time_and_memory(tmp_path, argv,
                                                            first):
    """CLOSED_FORM_CAP is priced at the cap: chromatic on P_n^k with a
    universal clique of 400 002 vertices, and on C_n^n, which is K_n,
    answers and certifies its colouring in a child limited to 1 GiB of
    address space, in seconds and under 250 MB."""
    assert int(argv[3]) == cli.CLOSED_FORM_CAP
    code, out, err, wall, rss = _run_limited(argv, tmp_path)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[0] == first
    assert wall < 10 and rss < 250, (wall, rss)


@pytest.mark.parametrize("argv, size, max_rss", [
    (["gen", "cycle", "--n", "20000", "--k", "50", "--out", "out"],
     26889055, 120),
    (["chromatic", "cycle", "--n", "20000", "--k", "50", "--dot", "out"],
     17497950, 120),
], ids=["gen", "dot"])
def test_edges_at_the_cap_in_bounded_time_and_memory(tmp_path, argv, size,
                                                     max_rss):
    """EDGES_CAP is priced at the cap: C_20000^50 has exactly EDGES_CAP
    edges.  gen streams them to a file under INPUT_CAP, so verify can read
    it back, holding no edge list (seen 0.4-1.2 s and 66 MB, against 3-4 s
    and 181 MB with the list); chromatic --dot streams its lines the same
    way (seen 0.6-0.7 s and 67 MB, against 0.8 s and 178 MB with its text
    built whole).  Each runs in a child limited to 1 GiB of address
    space."""
    assert powers.power_edge_count("cycle", 20000, 50) == cli.EDGES_CAP
    code, out, err, wall, rss = _run_limited(argv, tmp_path)
    assert (code, err) == (EXIT_OK, "")
    assert out == ("" if argv[0] == "gen" else "2\ncertificate: a=400;b=0\n")
    assert (tmp_path / "out").stat().st_size == size
    assert size < INPUT_CAP
    assert wall < 10 and rss < max_rss, (wall, rss)


@pytest.mark.parametrize("argv", [
    ["chromatic", "path", "--n", "60", "--k", "30"],
    ["chromatic", "cycle", "--n", "200", "--k", "60"],
    ["sweep", "--kind", "cycle", "--k-from", "20", "--k-to", "21",
     "--n-from", "40", "--n-to", "90"],
])
def test_closed_forms_in_the_dense_ranges_exit_0(tmp_path, argv):
    """chromatic and sweep on P_n^k with k+2 <= n <= 2k and C_n^k with
    2k+2 <= n <= 4k check their colourings by index arithmetic, under no
    family cap, and answer at once with the library's values and
    certificates."""
    code, out, err, wall, _ = _run_limited(argv, tmp_path)
    assert (code, err) == (EXIT_OK, "")
    assert wall < 1
    if argv[0] == "chromatic":
        build = biclique_colour_path if argv[1] == "path" \
            else biclique_colour_cycle
        result = build(int(argv[3]), int(argv[5]))
        cert = cli._certificate_text(result)
        assert out == f"{result.value}\n" + (f"certificate: {cert}\n"
                                             if cert else "")
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
        results = [(n, k, biclique_colour_cycle(n, k)) for k in (20, 21)
                   for n in range(40, 91)]
        assert [(r["n"], r["k"], r["value"], r["certificate"])
                for r in rows] == [
            (str(n), str(k), str(r.value), cli._certificate_text(r))
            for n, k, r in results]


def test_complete_powers_are_checked_without_the_family_cap(
        tmp_path, capsys, monkeypatch):
    """K_n as C_200^100 or P_150^200 is checked by one pass over the
    colours, so chromatic --certify and verify of the labelled file pass
    the family cap, which they once met, and build no rows."""
    graph, col = tmp_path / "g.json", tmp_path / "c.json"
    for kind, n, k in (("cycle", 200, 100), ("path", 150, 200)):
        assert main(["gen", kind, "--n", str(n), "--k", str(k),
                     "--out", str(graph)]) == EXIT_OK
        colours = list(range(n))
        with monkeypatch.context() as patch:
            support.forbid_rows_and_families(patch)
            assert main(["chromatic", kind, "--n", str(n), "--k", str(k),
                         "--certify"]) == EXIT_OK
            out = capsys.readouterr().out.splitlines()
            assert (out[0], out[-1]) == (
                str(n), "certified: colouring verified against the "
                "biclique family")
            for mode in ("biclique", "star"):
                col.write_text(json.dumps({"n": n, "colours": colours}))
                assert main(["verify", str(graph), str(col),
                             "--mode", mode]) == EXIT_OK
                assert capsys.readouterr().out == "valid\n"
                col.write_text(json.dumps(
                    {"n": n, "colours": colours[:-1] + [7]}))
                assert main(["verify", str(graph), str(col),
                             "--mode", mode]) == EXIT_INVALID
                assert json.loads(capsys.readouterr().out) == \
                    {"mode": mode, "witness": [7, n - 1]}


def test_oracle_cap_checked_before_rows_are_allocated(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 10000000, "edges": []}))
    for mode in ("biclique", "star"):
        start = time.perf_counter()
        assert main(["bicliques", "--graph", str(graph),
                     "--mode", mode]) == EXIT_CAPACITY
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == \
            "error: subset scan is capped at n <= 22, got n=10000000\n"


def test_labelled_power_graph_rebuilt_only_on_matching_edge_count(
        tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.json"
    col = tmp_path / "c.json"

    def rebuilt(*args):
        raise AssertionError(f"power graph {args} rebuilt")
    # P_30^2 is past the oracle's cap, so only the label's closed form can
    # answer for its file, and it must do so without the graph rebuilt
    edges = [list(e) for e in powers.power_path(30, 2).edges()]
    assert main(["chromatic", "path", "--n", "30", "--k", "2",
                 "--emit-colouring", str(col)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(powers, "power_graph", rebuilt)
    # edges listed twice still make the named graph; a moved edge does not
    graph.write_text(json.dumps({"n": 30, "edges": edges + edges[:3],
                                 "label": "P_30^2"}))
    assert main(["verify", str(graph), str(col)]) == EXIT_OK
    assert capsys.readouterr().out == "valid\n"
    moved = edges[:-1] + [[0, 29]]
    graph.write_text(json.dumps({"n": 30, "edges": moved, "label": "P_30^2"}))
    assert main(["verify", str(graph), str(col)]) == EXIT_CAPACITY
    assert capsys.readouterr().err == \
        "error: subset scan is capped at n <= 22, got n=30\n"
    # a label that the edges do not match is refused at once, whatever n
    graph.write_text(json.dumps({"n": 10000000, "edges": [],
                                 "label": "P_10000000^1"}))
    start = time.perf_counter()
    assert main(["verify", str(graph), str(col)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        "error: colouring has 30 entries for n=10000000\n"
    # a colouring of matching length: the oracle's cap decides
    graph.write_text(json.dumps({"n": 60000, "edges": [],
                                 "label": "P_60000^1"}))
    col.write_text(json.dumps({"n": 60000, "colours": [0] * 60000}))
    start = time.perf_counter()
    assert main(["verify", str(graph), str(col)]) == EXIT_CAPACITY
    assert time.perf_counter() - start < 1
    capsys.readouterr()


def test_labelled_self_loop_is_bad_input(tmp_path, capsys, monkeypatch):
    """P_30^1 with [10, 11] replaced by [5, 5] has P_30^1's edge count and
    every pair within distance 1, so only the file's self-loop check keeps
    the label's closed form from answering for it."""
    edges = [[i, i + 1] for i in range(29)]
    edges[10] = [5, 5]
    (tmp_path / "g.json").write_text(json.dumps(
        {"n": 30, "edges": edges, "label": "P_30^1"}))
    (tmp_path / "c.json").write_text(json.dumps(
        {"n": 30, "colours": [v % 2 for v in range(30)], "num_colours": 2}))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "g.json", "c.json"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: self-loop edge (5, 5)\n")


def test_matching_labelled_verify_builds_no_graph(
        tmp_path, capsys, monkeypatch):
    """A file that is the power graph its label names is checked by index
    distance and verified against the family, and no Graph is built from
    its edges, no rows or family of the power graph either, nor any colour
    class searched, C_11^4 in the C4 range included."""
    graph, col = tmp_path / "g.json", tmp_path / "c.json"
    cases = []
    for kind, n, k in (("path", 12, 2), ("cycle", 11, 4), ("cycle", 17, 3)):
        g = powers.power_graph(kind, n, k)
        for colours in (biclique_colour_cycle(n, k).colouring.colours
                        if kind == "cycle" else (0, 1) * (n // 2), (0,) * n):
            for mode in ("biclique", "star"):
                cases.append((g, colours, mode,
                              oracle.verify_colouring(g, colours, mode)))

    def built(*args):
        raise AssertionError(f"graph {args} built")
    monkeypatch.setattr(Graph, "from_edges", staticmethod(built))
    for g, colours, mode, expected in cases:
        write_graph(g, graph)
        col.write_text(json.dumps({"n": g.n, "colours": list(colours)}))
        with monkeypatch.context() as patch:
            support.forbid_rows_and_families(patch)
            code = main(["verify", str(graph), str(col), "--mode", mode])
        out = capsys.readouterr().out
        if expected is None:
            assert (code, out) == (EXIT_OK, "valid\n"), (g.label, mode)
        else:
            assert code == EXIT_INVALID, (g.label, mode)
            assert json.loads(out)["witness"] == list(expected)


_JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(),
                       st.integers(-2, 14), st.text(max_size=4))
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
_N = st.one_of(st.integers(-1, 12), st.just(10000000), _JSON_LEAF)
# Labels name small powers only: the huge labelled graph has its own test
# above, which fails at once, rather than growing memory, if it is rebuilt.
_LABEL = st.one_of(
    st.builds("{}_{}^{}".format, st.sampled_from("PC"),
              st.integers(0, 13), st.integers(0, 4)), _JSON)


@st.composite
def _graph_bytes(draw):
    """Graph file contents: mostly graph-shaped objects with small n,
    sometimes any JSON value, or bytes that are not JSON at all."""
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return draw(st.binary(max_size=12) | st.text(max_size=12).map(str.encode))
    if choice == 1:
        return json.dumps(draw(_JSON)).encode()
    n = draw(_N)
    top = n if isinstance(n, int) and not isinstance(n, bool) and \
        0 < n <= 12 else 12
    pair = st.lists(st.integers(-1, top), min_size=2, max_size=2)
    doc = {"n": n, "edges": draw(st.lists(pair | _JSON, max_size=14))}
    if draw(st.booleans()):
        doc["label"] = draw(_LABEL)
    return json.dumps(doc).encode()


@st.composite
def _colouring_bytes(draw):
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return draw(st.binary(max_size=12) | st.text(max_size=12).map(str.encode))
    if choice == 1:
        return json.dumps(draw(_JSON)).encode()
    colours = draw(st.lists(st.integers(-1, 3), max_size=13))
    doc = {"n": draw(st.just(len(colours)) | _N), "colours": colours}
    if draw(st.booleans()):
        doc["num_colours"] = draw(st.integers(-1, 5) | _JSON_LEAF)
    return json.dumps(doc).encode()


_VALID_GRAPH = b'{"n": 1, "edges": []}'
_VALID_COLOURING = b'{"n": 1, "colours": [0]}'


@given(graph=_graph_bytes(), colouring=_colouring_bytes(),
       mode=st.sampled_from(["biclique", "star"]))
@example(graph=_VALID_GRAPH,  # num_colours is not expanded
         colouring=b'{"n": 1, "colours": [0], "num_colours": 10000000}',
         mode="biclique")
@example(graph=b"\xff\xfe", colouring=_VALID_COLOURING,  # not UTF-8
         mode="biclique")
@example(graph=_VALID_GRAPH, colouring=b"[" * 200000,  # parser recursion
         mode="biclique")
@example(graph=b'{"n": ' + b"1" * 5000 + b', "edges": []}',  # int too long
         colouring=_VALID_COLOURING, mode="star")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_file_contents_fuzz_ends_in_a_documented_exit_code(
        tmp_path_factory, graph, colouring, mode):
    """Whatever bytes the graph and colouring files hold, verify and
    bicliques --graph end in exit code 0-3 (main lets any other exception
    through as a traceback) within a second."""
    work = tmp_path_factory.mktemp("fuzz")
    gpath, cpath = work / "g.json", work / "c.json"
    gpath.write_bytes(graph)
    cpath.write_bytes(colouring)
    for argv in (["verify", str(gpath), str(cpath), "--mode", mode],
                 ["bicliques", "--graph", str(gpath), "--mode", mode]):
        start = time.perf_counter()
        assert main(argv) in (EXIT_OK, EXIT_INVALID, EXIT_INPUT,
                              EXIT_CAPACITY)
        assert time.perf_counter() - start < 1


# n, k and sweep bounds: bad, small, or past the caps.  Values just under a
# cap are left out: a request there may take seconds by design.
_ARG = st.one_of(st.integers(-3, 0), st.integers(1, 200),
                 st.sampled_from([cli.ROWS_CAP + 1, cli.CLOSED_FORM_CAP + 1,
                                  10 ** 12]))


@st.composite
def _sweep_range(draw):
    """A sweep range that is narrow, swapped, or reaches past the row
    cap."""
    lo = draw(_ARG)
    shape = draw(st.sampled_from(["narrow", "swapped", "wide"]))
    if shape == "narrow":
        return lo, lo + draw(st.integers(0, 3))
    if shape == "swapped":
        return lo, lo - draw(st.integers(1, 5))
    return lo, lo + draw(st.sampled_from([cli.SWEEP_ROWS_CAP, 10 ** 12]))


@st.composite
def _argv(draw):
    """argv for chromatic, sweep, gen or bicliques --kind, sometimes with
    an unknown flag spliced in."""
    command = draw(st.sampled_from(["chromatic", "sweep", "gen", "bicliques"]))
    kind = draw(st.sampled_from(["path", "cycle"]))
    mode = ["--mode", draw(st.sampled_from(["biclique", "star"]))]
    if command == "sweep":
        (k_from, k_to), (n_from, n_to) = draw(_sweep_range()), \
            draw(_sweep_range())
        argv = ["sweep", "--kind", kind, *mode, "--k-from", str(k_from),
                "--k-to", str(k_to), "--n-from", str(n_from),
                "--n-to", str(n_to)]
    else:
        nk = ["--n", str(draw(_ARG)), "--k", str(draw(_ARG))]
        argv = {"chromatic": ["chromatic", kind, *nk, *mode],
                "gen": ["gen", kind, *nk],
                "bicliques": ["bicliques", "--kind", kind, *nk, *mode]
                }[command]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["--bogus", "-x", "--n"])))
    return argv


class _Overran(Exception):
    """A fuzzed run outlasted twice its time bound."""


def _overran(signum, frame):
    raise _Overran


@given(argv=_argv())
@example(argv=["chromatic", "cycle", "--n", "200", "--k", "100"])
@example(argv=["sweep", "--kind", "cycle", "--mode", "biclique",
               "--k-from", "1", "--k-to", "100000",
               "--n-from", "1", "--n-to", "100000"])
@example(argv=["sweep", "--kind", "cycle", "--k-from", "3", "--k-to", "3",
               "--n-from", "990001", "--n-to", "1000000"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_argv_fuzz_ends_in_a_documented_exit_code(argv):
    """Whatever n, k, sweep bounds and flags chromatic, sweep, gen and
    bicliques --kind are given, they end in exit code 0-3 with no traceback
    within a second."""
    err = io.StringIO()
    start = time.perf_counter()
    # a run that outlasts its bound twice over is stopped, so that a cap
    # that stops working fails the test rather than hanging it
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, 2)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejects the flags
                code = e.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_INPUT, EXIT_CAPACITY)
    assert time.perf_counter() - start < 1
    assert "Traceback" not in err.getvalue()


@st.composite
def _cnf_bytes(draw):
    """DIMACS file contents: mostly small formulas with a header that may
    be missing or wrong, sometimes any bytes, or one byte spliced in."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=16))
    nv = draw(st.integers(-1, 3))
    clauses = draw(st.lists(st.lists(st.integers(-4, 4), max_size=4),
                            max_size=4))
    text = "c fuzz\n" + "".join(" ".join(map(str, c)) + " 0\n"
                                for c in clauses)
    if draw(st.integers(0, 5)):
        text = f"p cnf {nv} {draw(st.integers(-1, 5))}\n" + text
    data = text.encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at:]
    return data


@given(cnf=_cnf_bytes())
@example(cnf=b"p cnf 1 1\nc \xff\n1 0\n")  # not UTF-8
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_dimacs_contents_fuzz_ends_in_a_documented_exit_code(
        tmp_path_factory, cnf):
    """Whatever bytes the DIMACS file holds, reduce --certify ends in exit
    code 0-3 within a second."""
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "f.cnf"
    path.write_bytes(cnf)
    start = time.perf_counter()
    assert main(["reduce", str(path), "--out-prefix", str(work / "f"),
                 "--certify"]) in (EXIT_OK, EXIT_INVALID, EXIT_INPUT,
                                   EXIT_CAPACITY)
    assert time.perf_counter() - start < 1


def test_bicliques_closed_form_and_oracle_agree(tmp_path, capsys):
    assert main(["bicliques", "--kind", "cycle", "--n", "11",
                 "--k", "2"]) == EXIT_OK
    closed = json.loads(capsys.readouterr().out)
    assert closed["source"] == "closed-form"
    assert closed["count"] == 33
    assert all("reach" in b for b in closed["bicliques"])

    graph = tmp_path / "g.json"
    assert main(["gen", "cycle", "--n", "11", "--k", "2",
                 "--out", str(graph)]) == EXIT_OK
    capsys.readouterr()
    assert main(["bicliques", "--graph", str(graph)]) == EXIT_OK
    scanned = json.loads(capsys.readouterr().out)
    assert scanned["source"] == "oracle"
    assert [b["vertices"] for b in scanned["bicliques"]] == \
        [b["vertices"] for b in closed["bicliques"]]
    assert [b["shape"] for b in scanned["bicliques"]] == \
        [b["shape"] for b in closed["bicliques"]]


def test_bicliques_stars_and_output_file(tmp_path):
    out = tmp_path / "stars.json"
    assert main(["bicliques", "--kind", "cycle", "--n", "11", "--k", "4",
                 "--mode", "star", "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["mode"] == "star" and "stars" in doc
    assert doc["count"] == len(powers.cycle_stars(11, 4))
    assert doc["stars"] == [list(s) for s in powers.cycle_stars(11, 4)]


def test_bicliques_argument_validation(tmp_path, capsys):
    assert main(["bicliques", "--kind", "cycle", "--n", "11"]) == EXIT_INPUT
    capsys.readouterr()
    # a file with any of --kind, --n or --k is refused, not listed alone
    graph = tmp_path / "p5.json"
    write_graph(powers.power_path(5, 1), graph)
    for extra in (["--kind", "cycle", "--n", "9", "--k", "2"], ["--n", "5"],
                  ["--kind", "path"], ["--k", "1"]):
        assert main(["bicliques", "--graph", str(graph), *extra]) == \
            EXIT_INPUT
        assert capsys.readouterr() == \
            ("", "error: --graph takes no --kind, --n or --k\n")


def test_reduce_round_trip(tmp_path, capsys, monkeypatch):
    cnf = tmp_path / "phi.cnf"
    write_dimacs(CnfFormula.of(5, [(1, -2, 4), (2, -3, -5), (1, 3, 5)]), cnf)
    prefix = tmp_path / "phi"
    calls = []
    for name in ("check_normalized", "build_instance"):
        def counted(*args, _name=name, _f=getattr(reduction, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(reduction, name, counted)
    assert main(["reduce", str(cnf), "--out-prefix", str(prefix),
                 "--certify"]) == EXIT_OK
    # the gadget is built, and the formula checked, once per run
    assert sorted(calls) == ["build_instance", "check_normalized"]
    out = capsys.readouterr().out
    assert "14 vertices" in out and "|V'| = 11" in out
    inst = json.loads((tmp_path / "phi.instance.json").read_text())
    assert inst["v_prime"] == list(range(11))
    assert inst["roles"]["0"] == "u"
    report = json.loads((tmp_path / "phi.report.json").read_text())
    assert report["equivalent"] is True
    assert report["k4_free"] is True and report["c4_free"] is True
    assert report["witness"] == [0, 1, 3, 5, 7, 9]


def test_reduce_unsat_formula(tmp_path, capsys):
    cnf = tmp_path / "unsat.cnf"
    write_dimacs(CnfFormula.of(1, [(1,), (-1,)]), cnf)
    assert main(["reduce", str(cnf), "--out-prefix",
                 str(tmp_path / "u"), "--certify"]) == EXIT_OK
    report = json.loads((tmp_path / "u.report.json").read_text())
    assert report["satisfiable"] is False
    assert report["containment"] is False
    assert report["equivalent"] is True
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    "p cnf 1 1\n1 -1 1 0\n",
    "p cnf 1 3\n-1 1 0\n1 -1 0\n1 -1 -1 0\n",
    "p cnf 3 1\n-2 2 1 0\n",
    "p cnf 3 0\n",
])
def test_reduce_certifies_a_formula_with_no_surviving_clause(
        tmp_path, capsys, text):
    """A formula with no clause, or only tautologies, is satisfied by
    every assignment; normalize makes it (x1), whose gadget holds the
    biclique {u, x1}, so the reduction certifies rather than reporting a
    mismatch."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    assert main(["reduce", str(cnf), "--out-prefix", str(tmp_path / "f"),
                 "--certify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-> 1 vars, 1 clauses" in out
    assert "satisfiable: True  containment: True  equivalent: True" in out
    assert json.loads((tmp_path / "f.report.json").read_text()) == {
        "num_vars": 1, "num_clauses": 1, "satisfiable": True,
        "assignment": [True], "containment": True, "witness": [0, 1],
        "equivalent": True, "k4_free": True, "c4_free": True,
        "decoded_assignment": [True], "correspondence_ok": True}


def test_reduce_certify_checks_the_containment_cap_first(tmp_path, capsys):
    """A 20-variable formula is inside the truth table's cap, but its |V'|
    of 41 is past the containment cap: that is reported at once, not after
    the 2^20-row truth table."""
    cnf = tmp_path / "f.cnf"
    clauses = [(1,), (-1,)] + [(a, a + 1, a + 2) for a in range(2, 18, 3)]
    write_dimacs(CnfFormula.of(20, clauses + [(20,)]), cnf)
    start = time.perf_counter()
    assert main(["reduce", str(cnf), "--out-prefix", str(tmp_path / "f"),
                 "--certify"]) == EXIT_CAPACITY
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == \
        "error: containment scan is capped at |V'| <= 22, got |V'|=41\n"
    # over both caps, the truth table's is still reported first
    write_dimacs(CnfFormula.of(21, [(v,) for v in range(1, 22)]), cnf)
    assert main(["reduce", str(cnf), "--out-prefix", str(tmp_path / "f"),
                 "--certify"]) == EXIT_CAPACITY
    assert capsys.readouterr().err == \
        "error: a truth table is capped at variables <= 20, got variables=21\n"


@pytest.mark.parametrize("nv, message", (
    (11, "containment scan is capped at |V'| <= 22, got |V'|=23"),
    (21, "a truth table is capped at variables <= 20, got variables=21")))
def test_reduce_certify_checks_its_caps_before_building_the_gadget(
        tmp_path, capsys, monkeypatch, nv, message):
    """A formula of nv unit clauses is past one of certify's caps: reduce
    --certify exits 3 with the cap's message before it builds the gadget,
    writes its instance file or prints a line."""
    cnf = tmp_path / "f.cnf"
    write_dimacs(CnfFormula.of(nv, [(v,) for v in range(1, nv + 1)]), cnf)

    def built(*args):
        raise AssertionError("gadget built")
    monkeypatch.setattr(reduction, "build_instance", built)
    assert main(["reduce", str(cnf), "--out-prefix", str(tmp_path / "f"),
                 "--certify"]) == EXIT_CAPACITY
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == [cnf]


def test_reduce_checks_the_rows_cap_before_building_the_gadget(
        tmp_path, capsys, monkeypatch):
    """7000 clauses over 21000 variables, none sharing a variable, make a
    gadget of 2*21000 + 7000 + 1 vertices, past ROWS_CAP: reduce exits 3
    before the gadget's rows are built or its file written, and the
    normalization before that takes well under a second."""
    cnf = tmp_path / "f.cnf"
    write_dimacs(CnfFormula.of(21000, [(3 * c + 1, -(3 * c + 2), 3 * c + 3)
                                      for c in range(7000)]), cnf)

    def built(*args):
        raise AssertionError("gadget built")
    monkeypatch.setattr(reduction, "build_instance", built)
    start = time.perf_counter()
    assert main(["reduce", str(cnf), "--out-prefix", str(tmp_path / "f"),
                 "--certify"]) == EXIT_CAPACITY
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: building a graph's rows is "
                                   "capped at n <= 20000, got n=49001\n")
    assert not (tmp_path / "f.instance.json").exists()


def test_reduce_of_many_conflicting_clauses_exits_3_at_once(tmp_path):
    """2000 clauses (1, 2, j) share the pair (1, 2), so normalize rewrites
    1999 of them into a gadget of 23996 vertices, past ROWS_CAP: reduce
    exits 3 at once with the cap's message, where rescanning to a fixpoint
    took 36.8 s to get there."""
    write_dimacs(CnfFormula.of(2002, [(1, 2, j) for j in range(3, 2003)]),
                 tmp_path / "f.cnf")
    code, out, err, wall, _ = _run_limited(
        ["reduce", "f.cnf", "--out-prefix", "f"], tmp_path)
    assert (code, out, err) == (EXIT_CAPACITY, "", "error: building a "
                                "graph's rows is capped at n <= 20000, "
                                "got n=23996\n")
    assert wall < 5


@pytest.mark.parametrize("text, line, what", [
    ("p cnf 1 1\n\u0661 0\n", 2, "bad literal '\u0661'"),
    ("p cnf 10 1\n1_0 0\n", 2, "bad literal '1_0'"),
    ("p cnf 1 1\n+1 0\n", 2, "bad literal '+1'"),
    ("p cnf 1 1\n1 \uff10\n", 2, "bad literal '\uff10'"),
    ("p cnf \u0661 1\n1 0\n", 1, "bad header 'p cnf \u0661 1'"),
    ("p cnf 1 1_0\n1 0\n", 1, "bad header 'p cnf 1 1_0'"),
], ids=["arabic-indic", "underscore", "plus", "fullwidth-zero",
        "header-vars", "header-clauses"])
def test_dimacs_numbers_are_ascii_digits(tmp_path, capsys, text, line, what):
    """A DIMACS number is -?[0-9]+: int() alone reads "\u0661" as 1, "1_0"
    as 10 and "+1" as 1, so such a file was reduced and exited 0."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text, encoding="utf-8")
    assert main(["reduce", str(cnf), "--out-prefix",
                 str(tmp_path / "f")]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {cnf}: line {line}: {what}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["f.cnf"]


def test_reduce_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n1\n")
    assert main(["reduce", str(bad), "--out-prefix",
                 str(tmp_path / "x")]) == EXIT_INPUT
    capsys.readouterr()


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kind", "cycle", "--mode", "biclique",
                 "--k-from", "3", "--k-to", "3",
                 "--n-from", "11", "--n-to", "20",
                 "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    for row in rows:
        n = int(row["n"])
        result = biclique_colour_cycle(n, 3)
        assert int(row["value"]) == result.value
        if result.ab is not None:
            assert row["certificate"] == f"a={result.ab.a};b={result.ab.b}"

    empty = tmp_path / "empty.csv"
    for k_to, n_to in ((2, 20), (3, 10)):
        assert main(["sweep", "--kind", "cycle", "--k-from", "3",
                     "--k-to", str(k_to), "--n-from", "11",
                     "--n-to", str(n_to), "--out", str(empty)]) == EXIT_INPUT
    assert not empty.exists()


def test_sweep_stdout(capsys):
    assert main(["sweep", "--kind", "path", "--mode", "star",
                 "--k-from", "2", "--k-to", "2",
                 "--n-from", "2", "--n-to", "6"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,k,kind,mode,value,certificate"
    assert len(lines) == 6


def test_chromatic_dot_colours(tmp_path):
    dot = tmp_path / "c.dot"
    assert main(["chromatic", "path", "--n", "7", "--k", "3",
                 "--dot", str(dot)]) == EXIT_OK
    text = dot.read_text()
    assert DOT_PALETTE[1] in text and DOT_PALETTE[0] in text


@pytest.mark.parametrize("argv", [
    ["gen", "path", "--n", "4", "--k", "1", "--out", ""],
    ["gen", "path", "--n", "4", "--k", "1", "--dot", ""],
    ["chromatic", "path", "--n", "7", "--k", "3", "--dot", ""],
    ["chromatic", "path", "--n", "7", "--k", "3", "--emit-colouring", ""],
    ["bicliques", "--kind", "path", "--n", "7", "--k", "3", "--out", ""],
    ["sweep", "--kind", "path", "--k-from", "1", "--k-to", "1",
     "--n-from", "2", "--n-to", "4", "--out", ""],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_an_empty_output_path_is_bad_input(capsys, argv):
    """An empty file name is a path that cannot be opened, as for every
    output option: it is neither skipped nor taken as stdout, and nothing
    is printed before the error, since files are written before stdout."""
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == \
        ("", "error: [Errno 2] No such file or directory: ''\n")


@pytest.mark.parametrize("argv, first", [
    (["chromatic", "path", "--n", "7", "--k", "3",
      "--emit-colouring", "x.json", "--dot", ""], "x.json"),
    (["gen", "path", "--n", "5", "--k", "1", "--dot", "d.dot",
      "--out", "missing/g.json"], "d.dot"),
    (["reduce", "r.cnf", "--out-prefix", "r", "--certify"],
     "r.instance.json"),  # r.report.json is a directory
], ids=["chromatic", "gen", "reduce"])
def test_an_output_that_cannot_be_opened_leaves_no_file(
        tmp_path, capsys, monkeypatch, argv, first):
    """gen, chromatic and reduce open every output file before writing any,
    so when a later one cannot be opened the run exits 2 with nothing
    printed, removes the files it made, and leaves a file that was already
    at the first path as it was."""
    monkeypatch.chdir(tmp_path)
    write_dimacs(CnfFormula.of(3, [(1, -2), (2, 3), (-1, -3)]), "r.cnf")
    (tmp_path / "r.report.json").mkdir()

    def names():
        return sorted(p.name for p in tmp_path.iterdir())
    before = names()
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().out == ""
    assert names() == before
    (tmp_path / first).write_bytes(b"kept")
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().out == ""
    assert names() == sorted(before + [first])
    assert (tmp_path / first).read_bytes() == b"kept"


@pytest.mark.parametrize("argv", [
    ["chromatic", "cycle", "--n", "2000000", "--k", "0"],
    ["chromatic", "path", "--n", "200000", "--k", "0", "--dot", "x.dot"],
    ["sweep", "--kind", "cycle", "--k-from", "0", "--k-to", "1",
     "--n-from", "999999", "--n-to", "1000001"],
    ["sweep", "--kind", "cycle", "--k-from", "0", "--k-to", "100000",
     "--n-from", "1", "--n-to", "100000"],
    ["gen", "cycle", "--n", "200000", "--k", "0"],
    ["bicliques", "--kind", "cycle", "--n", "200000", "--k", "0"],
])
def test_bad_parameters_come_before_caps(tmp_path, monkeypatch, capsys,
                                         argv):
    """A k of 0 is bad input whatever size is asked for: every subcommand
    exits 2 with powers.check_params's message before any cap is
    checked."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: need k >= 1, got k=0\n")
    assert not (tmp_path / "x.dot").exists()


def test_power_label_past_the_int_digit_limit_names_no_power_graph(
        tmp_path, capsys):
    """A label whose n or k has more digits than int() reads names no power
    graph, so verify asks the oracle."""
    graph, col = tmp_path / "g.json", tmp_path / "c.json"
    col.write_text(json.dumps({"n": 3, "colours": [0, 1, 0]}))
    for label in ("P_3^" + "9" * 5000, "P_" + "0" * 5000 + "3^1"):
        graph.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]],
                                     "label": label}))
        assert main(["verify", str(graph), str(col)]) == EXIT_OK
        assert capsys.readouterr().out == "valid\n"


def test_a_label_of_other_digits_names_no_power_graph(tmp_path, capsys):
    """A label's n and k are ASCII digits: with Arabic-Indic or fullwidth
    digits the label names no power graph, so verify of this 30-vertex path
    asks the oracle, whose cap refuses it, where "P_30^1" is checked as the
    closed form's family."""
    graph, col = tmp_path / "g.json", tmp_path / "c.json"
    col.write_text(json.dumps({"n": 30,
                               "colours": [i // 2 % 2 for i in range(30)]}))
    edges = [[i, i + 1] for i in range(29)]
    for label, code in (("P_30^1", EXIT_OK), ("P_\u0663\u0660^1", EXIT_CAPACITY),
                        ("P_30^\u0661", EXIT_CAPACITY),
                        ("P_\uff13\uff10^1", EXIT_CAPACITY)):
        graph.write_text(json.dumps({"n": 30, "edges": edges,
                                     "label": label}))
        assert (powers.power_params(label, 30, edges) is None) == \
            (code != EXIT_OK)
        assert main(["verify", str(graph), str(col)]) == code
        out, err = capsys.readouterr()
        if code == EXIT_OK:
            assert (out, err) == ("valid\n", "")
        else:
            assert out == "" and "subset scan is capped at n <= 22" in err


@pytest.mark.parametrize("argv, module, name", [
    (["bicliques", "--kind", "cycle", "--n", "1000", "--k", "5"], powers,
     "power_family"),
    (["bicliques", "--graph", "{graph}", "--mode", "star"], oracle,
     "maximal_stars"),
    (["sweep", "--kind", "path", "--k-from", "1", "--k-to", "2",
      "--n-from", "2", "--n-to", "9"], colouring, "closed_form"),
], ids=["bicliques-kind", "bicliques-graph", "sweep"])
def test_an_output_that_cannot_be_opened_stops_before_the_work(
        tmp_path, capsys, monkeypatch, argv, module, name):
    """bicliques and sweep open --out before they list a family or compute
    a row, so a path that cannot be opened exits 2 at once, with nothing
    written."""
    graph = tmp_path / "p5.json"
    write_graph(powers.power_path(5, 1), graph)

    def listed(*args):
        raise AssertionError(f"{name} ran before --out was opened")
    monkeypatch.setattr(module, name, listed)
    out = tmp_path / "missing" / "x.json"
    assert main([a.format(graph=graph) for a in argv]
                + ["--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr() == \
        ("", f"error: [Errno 2] No such file or directory: '{out}'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["p5.json"]


def test_chromatic_bad_params(capsys):
    assert main(["chromatic", "path", "--n", "0", "--k", "2"]) == EXIT_INPUT
    capsys.readouterr()


# ---------------------------------------------------------------------------
# how a command line run ends: cli.run, the entry of `python -m bicliques.cli`

def _exit_env():
    """A child's environment for the exit-path tests: the package on the
    path, no PYTHONUNBUFFERED, so stdout is block-buffered as on a pipe or
    a file, no PYTHONDEVMODE, so the child takes run's os._exit unless it
    asks for dev mode itself, and an 80-column terminal for argparse."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", "PYTHONDEVMODE")}
    return dict(env, PYTHONPATH=str(SRC), COLUMNS="80")


def _cli_child(argv, cwd, stdout=subprocess.PIPE,
               **kwargs) -> subprocess.CompletedProcess:
    """`python -m bicliques.cli` on argv, its stderr and, by default, its
    stdout read as bytes, so a CSV's CRLF line ends are kept."""
    return subprocess.run([sys.executable, "-m", "bicliques.cli", *argv],
                          cwd=cwd, env=_exit_env(), stdout=stdout,
                          stderr=subprocess.PIPE, **kwargs)


@pytest.mark.parametrize("argv", [
    ["gen", "path", "--n", "6", "--k", "2"],
    ["chromatic", "cycle", "--n", "14", "--k", "3", "--certify"],
    ["chromatic", "path", "--n", "5", "--k", "0"],
    ["chromatic", "path", "--n", "5"],
    ["verify", "g.json", "c.json"],
    ["verify", "g.json", "bad.json"],
    ["bicliques", "--kind", "cycle", "--n", "9", "--k", "2", "--mode", "star"],
    ["bicliques", "--graph", "missing.json"],
    ["reduce", "f.cnf", "--out-prefix", "f", "--certify"],
    ["sweep", "--kind", "cycle", "--k-from", "3", "--k-to", "4",
     "--n-from", "8", "--n-to", "20"],
    ["gen", "cycle", "--n", "20000", "--k", "10000"],
], ids=lambda argv: "-".join(argv[:2]))
def test_a_command_line_run_ends_as_main_returns(tmp_path, monkeypatch,
                                                 capsys, argv):
    """Every subcommand and every exit code, argparse's own exit 2 among
    them, gives the same code, stdout and stderr from `python -m
    bicliques.cli`, which ends by os._exit, as from main in-process; the
    child's stdout is block-buffered, so a lost flush shows as lost
    output."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["gen", "cycle", "--n", "14", "--k", "3",
                 "--out", "g.json"]) == EXIT_OK
    assert main(["chromatic", "cycle", "--n", "14", "--k", "3",
                 "--emit-colouring", "c.json"]) == EXIT_OK
    (tmp_path / "bad.json").write_text('{"colours": [0, 0, 0, 0, 0, 0, 0, '
                                       '0, 0, 0, 0, 0, 0, 0]}')
    write_dimacs(CnfFormula.of(3, [(1, -2), (2, 3), (-1, -3)]), "f.cnf")
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    expected = (code, *capsys.readouterr())
    child = _cli_child(argv, tmp_path)
    assert (child.returncode, child.stdout.decode(),
            child.stderr.decode()) == expected


def test_a_long_output_arrives_whole_through_a_pipe(tmp_path, capsys):
    """A 1 399-row sweep, 33 917 bytes, many times the stdout buffer, is
    read whole through a pipe, byte for byte as main prints it."""
    argv = ["sweep", "--kind", "path", "--k-from", "1", "--k-to", "1",
            "--n-from", "2", "--n-to", "1400"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    child = _cli_child(argv, tmp_path)
    assert (child.returncode, child.stderr) == (EXIT_OK, b"")
    assert child.stdout.decode() == out
    assert len(child.stdout) == 33917
    assert len(child.stdout.splitlines()) == 1400


# Launches the command line as `python -m` does, with an atexit handler of
# its own that prints after the run's output, and a file it never closes.
_LAUNCHER = """\
import atexit, runpy, sys
leaked = open(__file__)
atexit.register(print, "handler ran")
sys.argv = ["bicliques", "chromatic", "path", "--n", "5", "--k", "1"]
runpy.run_module("bicliques.cli", run_name="__main__")
"""


def _launch(tmp_path, *options) -> subprocess.CompletedProcess:
    script = tmp_path / "launch.py"
    script.write_text(_LAUNCHER)
    return subprocess.run([sys.executable, *options, str(script)],
                          cwd=tmp_path, env=_exit_env(), capture_output=True,
                          text=True)


def test_atexit_handlers_run_before_the_fast_exit(tmp_path):
    """A handler that the launching script registered still runs, and what
    it prints follows the run's own output."""
    child = _launch(tmp_path)
    assert (child.returncode, child.stdout, child.stderr) == \
        (EXIT_OK, "2\nhandler ran\n", "")


def test_dev_mode_still_reports_a_file_left_open(tmp_path):
    """Dev mode ends by sys.exit, with the interpreter's teardown, so a
    file left open by the launching script is still reported; os._exit
    would drop it silently."""
    child = _launch(tmp_path, "-X", "dev", "-W", "error::ResourceWarning")
    assert (child.returncode, child.stdout) == (EXIT_OK, "2\nhandler ran\n")
    assert "ResourceWarning: unclosed file" in child.stderr, child.stderr


def test_a_closed_stdout_ends_as_python_reports_it(tmp_path):
    """A pipe whose reader has gone fails the final flush: the run then
    ends by sys.exit, so Python reports the BrokenPipeError and exits 120,
    as it did before os._exit.  A stdout whose descriptor was closed
    before the start is None, and the run exits 0 in silence."""
    argv = ["chromatic", "path", "--n", "5", "--k", "1", "--certify"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = _cli_child(argv, tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert child.returncode == 120
    assert child.stderr.startswith(
        b"Exception ignored in: <_io.TextIOWrapper name='<stdout>' ")
    assert child.stderr.endswith(b"BrokenPipeError: [Errno 32] Broken pipe\n")
    child = _cli_child(argv, tmp_path, stdout=subprocess.DEVNULL,
                       preexec_fn=lambda: os.close(1))
    assert (child.returncode, child.stderr) == (EXIT_OK, b"")
