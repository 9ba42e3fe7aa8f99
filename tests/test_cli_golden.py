"""Golden CLI results: every subcommand run in-process through cli.main over
a grid of small powers of paths and cycles, a seeded corpus of formulas and
a set of error inputs, each group's exit codes, stdout, stderr and written
files hashed together and compared with cli_golden.json.

A group is one (subcommand, kind, mode, k); a failure names the groups
whose bytes changed.  The working directory in outputs is replaced by
"<tmp>", so the hashes do not depend on where the files are written.

    python tests/test_cli_golden.py --record

rewrites cli_golden.json from the package on the path; do that only for an
intended change of output, never to make this test pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bicliques.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
KINDS = ("path", "cycle")
MODES = ("biclique", "star")
K_MAX = 4
UNLABELLED_N_MAX = 16  # unlabelled files go to the oracle, capped at 22


class _Recorder:
    """Runs argv through main and appends the normalised result to the
    group's hash."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.groups: dict = {}

    def run(self, group: str, argv, files=()) -> int:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([str(a) for a in argv])
        record = [[str(a) for a in argv], code, out.getvalue(), err.getvalue()]
        for path in files:
            record.append(path.read_text() if path.exists() else None)
        text = json.dumps(record).replace(str(self.tmp), "<tmp>")
        self.groups.setdefault(group, hashlib.sha256()).update(
            text.encode() + b"\n")
        return code

    def digests(self) -> dict[str, str]:
        return {g: h.hexdigest() for g, h in sorted(self.groups.items())}


def _write(path: Path, value) -> Path:
    path.write_text(json.dumps(value))
    return path


def _recoloured(colours: list[int], num: int) -> list[int]:
    """colours with the middle vertex moved to the next colour id."""
    out = list(colours)
    v = len(out) // 2
    out[v] = (out[v] + 1) % max(num, 2)
    return out


def _power_cases(rec: _Recorder, kind: str, k: int, n: int) -> None:
    d = rec.tmp / f"{kind}_{n}_{k}"
    d.mkdir()
    graph, dot = d / "g.json", d / "g.dot"
    size = ["--n", n, "--k", k]
    rec.run(f"gen {kind} - {k}", ["gen", kind, *size])
    rec.run(f"gen {kind} - {k}",
            ["gen", kind, *size, "--out", graph, "--dot", dot], (graph, dot))
    plain = d / "plain.json"
    doc = json.loads(graph.read_text())
    doc.pop("label")
    _write(plain, doc)
    for mode in MODES:
        group = f"{{}} {kind} {mode} {k}"
        emitted = d / f"{mode}.colouring.json"
        rec.run(group.format("chromatic"),
                ["chromatic", kind, *size, "--mode", mode, "--certify",
                 "--emit-colouring", emitted], (emitted,))
        rec.run(group.format("bicliques-kind"),
                ["bicliques", "--kind", kind, *size, "--mode", mode])
        emitted_doc = json.loads(emitted.read_text())
        colourings = [
            emitted,
            _write(d / f"{mode}.zero.json", {"n": n, "colours": [0] * n}),
            _write(d / f"{mode}.moved.json",
                   {"n": n, "colours": _recoloured(emitted_doc["colours"],
                                                   emitted_doc["num_colours"])}),
        ]
        graphs = [graph] + ([plain] if n <= UNLABELLED_N_MAX else [])
        for g in graphs:
            for col in colourings:
                rec.run(group.format("verify"),
                        ["verify", g, col, "--mode", mode])
        rec.run(group.format("bicliques-graph"),
                ["bicliques", "--graph", graph, "--mode", mode])


def _formula_text(rng: random.Random) -> str:
    """A small DIMACS formula; tautologies, repeated literals and clause
    pairs that share two literals are all allowed, to reach every path of
    normalize, and some normalize past the containment cap."""
    nv = rng.randint(1, 5)
    clauses = []
    for _ in range(rng.randint(1, 5)):
        clauses.append([rng.choice((1, -1)) * rng.randint(1, nv)
                        for _ in range(rng.randint(1, 3))])
    lines = [f"p cnf {nv} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _reduce_cases(rec: _Recorder) -> None:
    rng = random.Random(20240601)
    for i in range(40):
        cnf = rec.tmp / f"f{i}.cnf"
        cnf.write_text(_formula_text(rng))
        prefix = rec.tmp / f"f{i}"
        rec.run("reduce - - -",
                ["reduce", cnf, "--out-prefix", prefix, "--certify"],
                (Path(f"{prefix}.instance.json"),
                 Path(f"{prefix}.report.json")))


def _error_cases(rec: _Recorder) -> None:
    t = rec.tmp
    out = t / "err.json"
    graph = _write(t / "p6.json", {"n": 6, "edges": [[0, 1], [1, 2]],
                                   "label": "P_6^2"})
    short = _write(t / "short.json", {"n": 4, "colours": [0, 0, 0, 0]})
    big = _write(t / "big.json", {"n": 23, "edges": []})
    big_col = _write(t / "big_col.json", {"n": 23, "colours": [0] * 23})
    bad = t / "bad.json"
    bad.write_text("{ not json")
    cnf = t / "bad.cnf"
    cnf.write_text("p cnf 1 1\n1\n")
    wide = t / "wide.cnf"
    wide.write_text("p cnf 21 21\n"
                    + "".join(f"{v} 0\n" for v in range(1, 22)))
    for argv in (
            ["gen", "circulant", "--n", 9, "--out", out],
            ["gen", "circulant", "--n", 13, "--distances", "1,x"],
            ["gen", "circulant", "--n", 9, "--distances", "9"],
            ["gen", "path", "--n", 9],
            ["gen", "path", "--n", 0, "--k", 1],
            ["gen", "cycle", "--n", 30000, "--k", 1],
            ["chromatic", "path", "--n", 0, "--k", 2],
            ["chromatic", "cycle", "--n", 5, "--k", 0],
            ["chromatic", "cycle", "--n", 2000000, "--k", 3],
            ["chromatic", "path", "--n", 60, "--k", 30],
            ["verify", graph, short],
            ["verify", graph, bad],
            ["verify", big, big_col],
            ["bicliques", "--kind", "cycle", "--n", 11],
            ["bicliques", "--graph", graph, "--kind", "path", "--n", 6,
             "--k", 2],
            ["bicliques", "--graph", big],
            ["bicliques", "--kind", "cycle", "--n", 30000, "--k", 1],
            ["sweep", "--kind", "cycle", "--k-from", 3, "--k-to", 2,
             "--n-from", 11, "--n-to", 20],
            ["sweep", "--kind", "path", "--k-from", 1, "--k-to", 200,
             "--n-from", 1, "--n-to", 200],
            ["reduce", cnf, "--out-prefix", t / "x"],
            ["reduce", wide, "--out-prefix", t / "w", "--certify"],
    ):
        rec.run("errors - - -", argv)


def golden_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as name:
        rec = _Recorder(Path(name))
        for kind in KINDS:
            for k in range(1, K_MAX + 1):
                for n in range(1, 4 * k + 4):
                    _power_cases(rec, kind, k, n)
                for mode in MODES:
                    rec.run(f"sweep {kind} {mode} {k}",
                            ["sweep", "--kind", kind, "--mode", mode,
                             "--k-from", k, "--k-to", k,
                             "--n-from", 1, "--n-to", 4 * k + 3])
        _reduce_cases(rec)
        _error_cases(rec)
        return rec.digests()


def test_cli_output_matches_the_golden_set():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_digests()
    changed = sorted(g for g in expected.keys() | actual.keys()
                     if expected.get(g) != actual.get(g))
    assert not changed, f"CLI output changed in groups: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    GOLDEN.write_text(json.dumps(golden_digests(), indent=1) + "\n")
