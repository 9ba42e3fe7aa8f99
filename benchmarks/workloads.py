"""The four benchmark workloads: seeded inputs, op decks and output checks.

A workload writes its inputs in setup(), then yields its ops one pass at a
time in groups; ops in a group depend on each other (a verify reads the
colouring the previous op emitted).  Every pass yields the same kinds of
op in the same order, so every run holds the same mix.
CLI ops are argument lists for `bicliques`; in-process ops are callables.
Each op carries a check that returns the causes of failure, empty when the
op's output is right.  Causes start with one of "traceback", "exit code",
"missing output" or "wrong value".
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable, ClassVar

import reference as ref

MODES = ("biclique", "star")
KIND_MODES = (("path", "biclique"), ("path", "star"),
              ("cycle", "biclique"), ("cycle", "star"))


@dataclass
class Outcome:
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None  # in-process exception, as "Type: message"


@dataclass
class Op:
    label: str
    argv: list | None = None               # CLI op: arguments after `bicliques`
    check: Callable[[Outcome], list] | None = None
    call: Callable[[], object] | None = None  # in-process op
    prepare: Callable[[], str | None] | None = None  # makes derived inputs
    error_path: bool = False               # input is bad on purpose
    reuse: bool = False                    # re-uses a graph of an earlier op


@dataclass
class Workload:
    name: str
    seed: int
    tail_pct: int
    in_process: bool = False
    PASS_S: ClassVar[float]  # wall time of a pass on the reference host

    def setup(self) -> None:
        raise NotImplementedError

    def groups(self, pass_index: int):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shared helpers

def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def graph_doc(kind: str, n: int, k: int) -> dict:
    label = f"{'P' if kind == 'path' else 'C'}_{n}^{k}"
    return {"n": n, "edges": [list(e) for e in ref.power_edges(kind, n, k)],
            "label": label}


def exit_causes(out: Outcome, code: int) -> list:
    causes = []
    if "Traceback (most recent call last)" in out.stderr:
        causes.append("traceback")
    if out.code != code:
        causes.append(f"exit code {out.code}, expected {code}")
    return causes


def expect_error(code: int):
    def check(out: Outcome) -> list:
        causes = exit_causes(out, code)
        if not causes and not out.stderr.startswith("error:"):
            causes.append("missing output: no error message")
        return causes
    return check


def value_causes(out: Outcome, kind, mode, n, k, certify=False) -> list:
    """Checks `chromatic` output: value line, certificate, certified line."""
    causes = exit_causes(out, 0)
    if causes:
        return causes
    lines = out.stdout.splitlines()
    if not lines:
        return ["missing output: no value line"]
    want = ref.chromatic_value(kind, mode, n, k)
    if lines[0].strip() != str(want):
        return [f"wrong value {lines[0]!r}, expected {want}"]
    cert = ""
    for line in lines[1:]:
        if line.startswith("certificate: "):
            cert = line[len("certificate: "):].strip()
    problem = ref.certificate_problem(cert, kind, n, k, want)
    if problem:
        return [f"wrong value: {problem}"]
    if certify and not any(line.startswith("certified") for line in lines):
        return ["missing output: no certified line"]
    return []


def read_colours(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
        colours = doc["colours"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return colours if isinstance(colours, list) else None


def colouring_causes(path, n: int, value: int, fam) -> list:
    colours = read_colours(path)
    if colours is None:
        return [f"missing output: no colouring in {path}"]
    if len(colours) != n or set(colours) != set(range(value)):
        return [f"wrong value: emitted colouring is not a {value}-colouring "
                f"of {n} vertices"]
    mono = ref.mono_sets(fam, colours)
    if mono:
        return [f"wrong value: emitted colouring leaves {list(mono[0])} "
                "monochromatic"]
    return []


def verify_valid(out: Outcome) -> list:
    causes = exit_causes(out, 0)
    if not causes and out.stdout.strip() != "valid":
        causes.append(f"wrong value: verify printed {out.stdout.strip()!r}")
    return causes


def verify_witness(mode: str, expected: Callable[[], list]):
    def check(out: Outcome) -> list:
        causes = exit_causes(out, 1)
        if causes:
            return causes
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            return ["missing output: no witness JSON"]
        want = {"mode": mode, "witness": expected()}
        if {key: doc.get(key) for key in want} != want:
            return [f"wrong value: witness {doc}, expected {want}"]
        return []
    return check


class PowerCase:
    """One (kind, mode, n, k) query with its reference family."""

    def __init__(self, kind, mode, n, k, stem):
        self.kind, self.mode, self.n, self.k, self.stem = kind, mode, n, k, stem
        self.graph = f"{stem}.graph.json"
        self.col = f"{stem}.col.json"
        self.bad = f"{stem}.bad.json"
        self._fam = None
        self._bad_for = None
        self.bad_witness = None

    @property
    def fam(self):
        if self._fam is None:
            adj = ref.adjacency(self.n, ref.power_edges(self.kind, self.n,
                                                        self.k))
            self._fam = ref.family(adj, self.mode)
        return self._fam

    def write_graph(self) -> None:
        write_json(self.graph, graph_doc(self.kind, self.n, self.k))

    def chromatic_argv(self, *extra):
        return ["chromatic", self.kind, "--n", str(self.n), "--k", str(self.k),
                "--mode", self.mode, *extra]

    def make_bad_copy(self, rng_seed: str) -> str | None:
        """Recolour one vertex of the emitted colouring so that a hyperedge
        becomes monochromatic while every colour id stays in use."""
        colours = read_colours(self.col)
        if colours is None or len(colours) != self.n:
            return "missing output: no emitted colouring to recolour"
        if colours == self._bad_for:
            return None
        rng = random.Random(rng_seed)
        ids = sorted(set(colours))
        for v in rng.sample(range(self.n), self.n):
            if colours.count(colours[v]) < 2:
                continue
            for c in ids:
                if c == colours[v]:
                    continue
                new = colours[:v] + [c] + colours[v + 1:]
                mono = ref.mono_sets(self.fam, new)
                if mono:
                    write_json(self.bad, {"n": self.n, "colours": new,
                                          "num_colours": len(ids)})
                    self._bad_for = colours
                    self.bad_witness = list(mono[0])
                    return None
        return "missing output: no recolouring makes a hyperedge monochromatic"

    def group(self, seed) -> list:
        """chromatic; chromatic --certify --emit-colouring; verify the emitted
        colouring; verify a copy with one vertex recoloured."""
        kind, mode, n, k = self.kind, self.mode, self.n, self.k
        return [
            Op(f"chromatic {self.stem}", self.chromatic_argv(),
               check=lambda out: value_causes(out, kind, mode, n, k)),
            *self.certify_verify_ops(seed),
        ]

    def certify_verify_ops(self, seed) -> list:
        """chromatic --certify --emit-colouring; verify the emitted
        colouring; verify a copy with one vertex recoloured."""
        mode = self.mode
        return [
            self.certify_op(),
            Op(f"verify {self.stem}",
               ["verify", self.graph, self.col, "--mode", mode],
               check=verify_valid),
            Op(f"verify-recoloured {self.stem}",
               ["verify", self.graph, self.bad, "--mode", mode],
               prepare=lambda: self.make_bad_copy(f"{seed}:{self.stem}"),
               check=verify_witness(mode, lambda: self.bad_witness)),
        ]

    def certify_op(self) -> Op:
        kind, mode, n, k = self.kind, self.mode, self.n, self.k
        value = ref.chromatic_value(kind, mode, n, k)

        def check(out):
            return (value_causes(out, kind, mode, n, k, certify=True)
                    or colouring_causes(self.col, n, value, self.fam))
        return Op(f"chromatic-certify {self.stem}",
                  self.chromatic_argv("--certify", "--emit-colouring",
                                      self.col),
                  check=check)


# ---------------------------------------------------------------------------
# closed-form-wide

class ClosedFormWide(Workload):
    """chromatic, chromatic --certify --emit-colouring, verify and verify of a
    recoloured copy on P_n^k and C_n^k, both modes, k in {4, 6, 8}, n from
    4k+1 to 8k.  ANCHORS gives one n per (kind, mode, k), spread over the
    four quarters of that range; half the cycle anchors have value 2 and
    half value 3.  The seed moves each n by at most 2, to an n of the same
    value, so the cost of a pass hardly depends on the seed."""

    # (kind, mode, k, n), in deck order
    ANCHORS = (("path", "biclique", 4, 18), ("path", "star", 6, 39),
               ("cycle", "biclique", 8, 37), ("path", "star", 4, 22),
               ("cycle", "biclique", 6, 42), ("cycle", "star", 8, 48),
               ("cycle", "biclique", 4, 23), ("cycle", "star", 6, 29),
               ("path", "biclique", 8, 52), ("cycle", "star", 4, 30),
               ("path", "biclique", 6, 33), ("path", "star", 8, 60))

    PASS_S = 7.0

    def __init__(self, seed):
        super().__init__("closed-form-wide", seed, tail_pct=90)
        rng = random.Random(f"closed-form-wide:{seed}")
        self.cases = []
        for kind, mode, k, anchor in self.ANCHORS:
            value = ref.chromatic_value(kind, mode, anchor, k)
            n = rng.choice([
                n for n in range(anchor - 2, anchor + 3)
                if 4 * k + 1 <= n <= 8 * k
                and ref.chromatic_value(kind, mode, n, k) == value])
            self.cases.append(PowerCase(kind, mode, n, k,
                                        f"w-{kind}-{mode}-k{k}"))

    def setup(self) -> None:
        for case in self.cases:
            case.write_graph()

    def groups(self, pass_index):
        for case in self.cases:
            yield case.group(self.seed)


# ---------------------------------------------------------------------------
# closed-form-narrow

class ClosedFormNarrow(Workload):
    """sweep over n in [k+1, 4k+4] for each k in KS, both kinds and modes;
    chromatic --certify --emit-colouring, verify and verify of a recoloured
    copy on C_n^k with n = 3k +- 1, in the middle of the C4 range
    2k+2..4k, both modes; and the error-path inputs, spread over the k so
    that every pass runs each of them once.

    The 45 ops of a pass cost 0.07-0.42 s on the reference host.  Three
    sweeps (cycle at k = 6, cycle star at k = 5) cost 0.25 s or more, and
    the next three (path at k = 6, cycle biclique at k = 5) about 0.2 s, so
    the 90th percentile lands in the middle of those three."""

    KS = (6, 3, 5, 4)  # interleaved
    PASS_S = 6.0

    def __init__(self, seed):
        super().__init__("closed-form-narrow", seed, tail_pct=90)
        # the seed moves n by at most 1, which leaves an op's cost alone
        rng = random.Random(f"closed-form-narrow:{seed}")
        self.c4 = {(k, mode): PowerCase("cycle", mode,
                                        3 * k + rng.randint(-1, 1), k,
                                        f"n-cycle-{mode}-k{k}")
                   for k in self.KS for mode in MODES}

    def setup(self) -> None:
        rng = random.Random(f"closed-form-narrow:errors:{self.seed}")
        for case in self.c4.values():
            case.write_graph()
        n = rng.randint(8, 14)
        good = json.dumps(graph_doc("path", n, 2))
        with open("e-malformed.graph.json", "w") as fh:
            fh.write(good[:rng.randint(1, len(good) - 2)])
        write_json("e-colouring.json",
                   {"n": n, "colours": [v % 2 for v in range(n)]})
        write_json("e-edge.graph.json",
                   {"n": n, "edges": [[0, 1], [rng.randrange(n),
                                               n + rng.randint(0, 9)]]})
        write_json("e-good.graph.json", graph_doc("path", n, 2))
        write_json("e-short.col.json",
                   {"n": n - 1, "colours": [v % 2 for v in range(n - 1)]})
        big = 30000 + rng.randint(0, 500)
        write_json("e-big.graph.json",
                   {"n": big, "edges": sorted(
                       [sorted(rng.sample(range(big), 2)) for _ in range(8)])})
        write_json("e-big.col.json",
                   {"n": big, "colours": [v % 2 for v in range(big)]})
        self.errors = [
            Op("error malformed-json",
               ["verify", "e-malformed.graph.json", "e-colouring.json"],
               check=expect_error(2), error_path=True),
            Op("error edge-out-of-range",
               ["verify", "e-edge.graph.json", "e-colouring.json"],
               check=expect_error(2), error_path=True),
            Op("error colouring-length",
               ["verify", "e-good.graph.json", "e-short.col.json"],
               check=expect_error(2), error_path=True),
            Op("error circulant-distance",
               ["gen", "circulant", "--n", "13", "--distances", "1,x"],
               check=expect_error(2), error_path=True),
            Op("error oversized-graph",
               ["verify", "e-big.graph.json", "e-big.col.json"],
               check=expect_error(3), error_path=True),
        ]

    def sweep_op(self, kind, mode, k) -> Op:
        ns = list(range(k + 1, 4 * k + 5))

        def check(out):
            causes = exit_causes(out, 0)
            if causes:
                return causes
            rows = list(csv.DictReader(io.StringIO(out.stdout)))
            try:
                got = [int(r["n"]) for r in rows]
            except (KeyError, TypeError, ValueError):
                return ["missing output: unreadable sweep CSV"]
            if got != ns:
                return [f"missing output: sweep rows for n={got}"]
            for r in rows:
                n = int(r["n"])
                want = ref.chromatic_value(kind, mode, n, k)
                if (r.get("kind"), r.get("mode"), r.get("k"),
                        r.get("value")) != (kind, mode, str(k), str(want)):
                    return [f"wrong value in sweep row {r}, expected {want}"]
                problem = ref.certificate_problem(
                    r.get("certificate") or "", kind, n, k, want)
                if problem:
                    return [f"wrong value: {problem}"]
            return []
        return Op(f"sweep {kind} {mode} k={k}",
                  ["sweep", "--kind", kind, "--mode", mode,
                   "--k-from", str(k), "--k-to", str(k),
                   "--n-from", str(ns[0]), "--n-to", str(ns[-1])],
                  check=check)

    def groups(self, pass_index):
        for i, k in enumerate(self.KS):
            for kind, mode in KIND_MODES:
                yield [self.sweep_op(kind, mode, k)]
            for mode in MODES:
                yield self.c4[(k, mode)].certify_verify_ops(self.seed)
            for op in self.errors[i::len(self.KS)]:
                yield [op]


# ---------------------------------------------------------------------------
# oracle-scan (in-process)

def _relabel(rng, n, edges):
    perm = rng.sample(range(n), n)
    return sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges)


def _base_graph(rng, gtype, n):
    """(edges, (kind, k) for power graphs else None), before relabelling.

    Only the G(n, m) edges come from the seed: powers use k = 3, circulants
    the distances {1, 1 + n // 4} and G(n, m) has m = 0.3 * n(n-1)/2 edges,
    so an op's cost hardly depends on the seed."""
    if gtype in ("path", "cycle"):
        return ref.power_edges(gtype, n, 3), (gtype, 3)
    if gtype == "circulant":
        return sorted({tuple(sorted((i, (i + d) % n)))
                       for i in range(n) for d in (1, 1 + n // 4)}), None
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sorted(rng.sample(pairs, round(0.3 * len(pairs)))), None


class OracleScan(Workload):
    """In-process calls: maximal_bicliques at n = 15..20 and maximal_stars at
    n = 16 and 18, and the README pattern (verify_colouring with the default
    oracle family, then exact_chromatic on the same graph) at n = 12..14 in
    both modes, on path/cycle powers, circulants and G(n, m).  The graphs
    are fixed by the seed; every pass relabels their vertices afresh, so no
    pass hits the oracle's cache of an earlier one."""

    # (n, mode, graph type), in deck order.  Cost classes of a pass, which
    # the median and the 90th percentile of its 45 ops fall in the middle
    # of: 6 README ops (< 40 ms); 8 biclique scans at n = 15; 16 at n = 16,
    # with the median; 6 at n = 17; 2 star scans at n = 16; 4 biclique
    # scans of C_18^3, with the 90th percentile; and the 3 slowest (a star
    # scan at n = 18, biclique scans at n = 19 and 20).
    SCANS = ((16, "biclique", "cycle"), (15, "biclique", "path"),
             (17, "biclique", "cycle"), (16, "star", "circulant"),
             (16, "biclique", "path"), (15, "biclique", "gnp"),
             (16, "biclique", "circulant"), (20, "biclique", "path"),
             (17, "biclique", "path"), (16, "biclique", "cycle"),
             (15, "biclique", "circulant"), (18, "biclique", "cycle"),
             (16, "biclique", "path"), (16, "biclique", "circulant"),
             (17, "biclique", "cycle"), (18, "biclique", "cycle"),
             (15, "biclique", "cycle"), (16, "biclique", "cycle"),
             (16, "star", "gnp"), (16, "biclique", "path"),
             (17, "biclique", "path"), (15, "biclique", "path"),
             (18, "biclique", "cycle"), (16, "biclique", "circulant"),
             (18, "star", "cycle"), (16, "biclique", "cycle"),
             (15, "biclique", "gnp"), (17, "biclique", "cycle"),
             (16, "biclique", "path"), (19, "biclique", "cycle"),
             (15, "biclique", "circulant"), (16, "biclique", "circulant"),
             (17, "biclique", "path"), (16, "biclique", "cycle"),
             (18, "biclique", "cycle"), (15, "biclique", "cycle"),
             (16, "biclique", "path"), (16, "biclique", "cycle"),
             (16, "biclique", "circulant"))
    EXACT = ((12, "biclique", "path"), (13, "star", "gnp"),
             (14, "biclique", "cycle"))

    PASS_S = 5.4

    def __init__(self, seed):
        super().__init__("oracle-scan", seed, tail_pct=90, in_process=True)
        self.bc = None
        rng = random.Random(f"oracle-scan:{seed}")
        self.scans = [(n, mode, gtype, *_base_graph(rng, gtype, n))
                      for n, mode, gtype in self.SCANS]
        self.exact = []
        for n, mode, gtype in self.EXACT:
            edges, power = _base_graph(rng, gtype, n)
            colours = [rng.randrange(2) for _ in range(n)]
            colours[rng.randrange(n)] = 1 - colours[0]
            self.exact.append((n, mode, gtype, edges, power, colours))
        self._cache = {}

    def setup(self) -> None:
        self._cache = {}
        self._pass_inputs(0)

    def _pass_inputs(self, p):
        if p not in self._cache:
            rng = random.Random(f"oracle-scan:{self.seed}:{p}")
            scans = [(n, mode, gtype, _relabel(rng, n, edges), power)
                     for n, mode, gtype, edges, power in self.scans]
            exact = [(n, mode, gtype, _relabel(rng, n, edges), power, colours)
                     for n, mode, gtype, edges, power, colours in self.exact]
            self._cache = {p: (scans, exact)}
        return self._cache[p]

    def _family(self, n, edges, mode):
        """Reference family: the claw-free enumeration where it applies,
        else the general one."""
        adj = ref.adjacency(n, edges)
        try:
            return ref.family(adj, mode)
        except ValueError:
            return ref.general_family(adj, mode)

    def _scan(self, mode):
        return (self.bc.maximal_bicliques if mode == "biclique"
                else self.bc.maximal_stars)

    def groups(self, pass_index):
        scans, exact = self._pass_inputs(pass_index)
        scan_groups = list(self._scan_groups(scans))
        readme_groups = list(self._readme_groups(exact))
        # spread the README pairs evenly between the scans
        slots = [((i + 0.5) / len(scan_groups), g)
                 for i, g in enumerate(scan_groups)]
        slots += [((i + 0.5) / len(readme_groups), g)
                  for i, g in enumerate(readme_groups)]
        for _, group in sorted(slots, key=lambda slot: slot[0]):
            yield group

    def _scan_groups(self, scans):
        bc = self.bc
        for n, mode, gtype, edges, power in scans:
            def call(n=n, edges=edges, mode=mode):
                return self._scan(mode)(bc.Graph.from_edges(n, edges))

            def check(out, n=n, edges=edges, mode=mode, gtype=gtype):
                if out.error:
                    return [f"traceback: {out.error}"]
                got = [tuple(getattr(s, "vertices", s)) for s in out.value]
                if got != self._family(n, edges, mode):
                    return [f"wrong value: {mode} family of {gtype} n={n}"]
                return []
            yield [Op(f"{mode}-scan {gtype} n={n}", call=call, check=check)]

    def _readme_groups(self, exact):
        bc = self.bc
        for n, mode, gtype, edges, power, colours in exact:
            state = {}

            def verify(n=n, edges=edges, mode=mode, colours=colours,
                       state=state):
                state["g"] = bc.Graph.from_edges(n, edges)
                return bc.verify_colouring(state["g"], colours, mode)

            def check_verify(out, n=n, edges=edges, mode=mode,
                             colours=colours):
                if out.error:
                    return [f"traceback: {out.error}"]
                mono = ref.mono_sets(self._family(n, edges, mode), colours)
                want = mono[0] if mono else None
                got = None if out.value is None else tuple(out.value)
                if got != want:
                    return [f"wrong value: witness {got}, expected {want}"]
                return []

            def exact_call(mode=mode, state=state):
                return bc.exact_chromatic(state["g"], mode)

            def check_exact(out, n=n, edges=edges, mode=mode, power=power,
                            gtype=gtype):
                if out.error:
                    return [f"traceback: {out.error}"]
                value, col = out.value
                colours_ = list(col.colours)
                fam = self._family(n, edges, mode)
                if power is not None and value != ref.chromatic_value(
                        power[0], mode, n, power[1]):
                    return [f"wrong value {value} for {power} n={n}"]
                if power is None and (
                        not fam if value == 2
                        else value == 3 and ref.two_colourable(n, fam)):
                    return [f"wrong value {value}: {gtype} n={n} has a "
                            f"{value - 1}-colouring"]
                if (set(colours_) != set(range(value))
                        or ref.mono_sets(fam, colours_)):
                    return [f"wrong value: exact colouring of {gtype} n={n}"]
                return []
            yield [Op(f"verify-default {gtype} {mode} n={n}", call=verify,
                      check=check_verify),
                   Op(f"exact {gtype} {mode} n={n}", call=exact_call,
                      check=check_exact, reuse=True)]


# ---------------------------------------------------------------------------
# reduce-certify

def _normalised(rng, nv, m, core=()):
    """Seeded CNF over nv variables with every variable used and no two
    clauses sharing two literals; starts from the given core clauses."""
    clauses = [tuple(c) for c in core]
    for _ in range(10000):
        used = {abs(lit) for c in clauses for lit in c}
        unused = [v for v in range(1, nv + 1) if v not in used]
        if not unused and len(clauses) >= m:
            return clauses
        pool = unused + rng.sample(range(1, nv + 1), nv)
        vs = []
        for v in pool:
            if v not in vs:
                vs.append(v)
        clause = tuple(v if rng.random() < 0.5 else -v for v in vs[:3])
        if all(len(set(clause) & set(c)) <= 1 for c in clauses):
            clauses.append(clause)
    raise RuntimeError("could not build a normalised formula")


def _shuffled(rng, nv, clauses):
    """Same formula under a seeded variable renaming, sign flips and clause
    order."""
    perm = rng.sample(range(1, nv + 1), nv)
    flip = [rng.choice((1, -1)) for _ in range(nv)]
    out = [tuple((1 if lit > 0 else -1) * flip[abs(lit) - 1] * perm[abs(lit) - 1]
                 for lit in c) for c in clauses]
    rng.shuffle(out)
    return out


class ReduceCertify(Workload):
    """reduce --certify on a seeded DIMACS corpus: normalised formulas with
    6-8 variables (|V'| = 2v+1 <= 17), normalised unsatisfiable ones, raw
    formulas that need one normalisation rewrite, and one formula over the
    containment cap (expected exit 3).

    The cost of an op is set by its variable count v after normalisation
    (the containment scan visits 2^(2v+1) subsets).  A pass has 12 ops with
    v <= 6 (the over-cap one included), 20 with v = 7 and 8 with v = 8, so
    the median lands in the middle of the v = 7 ops and the 90th percentile
    in the middle of the v = 8 ops."""

    CAP_VARS = 11  # |V'| = 23 > 22
    # (tag, variables before normalisation), in deck order
    DECK = (("sat", 8), ("sat", 7), ("sat", 6), ("sat", 7), ("sat", 6),
            ("sat", 8), ("sat", 7), ("sat", 7), ("raw", 3), ("sat", 7),
            ("sat", 8), ("raw", 4), ("sat", 6), ("sat", 7), ("sat", 6),
            ("sat", 8), ("sat", 7), ("sat", 7), ("sat", 6), ("sat", 7),
            ("sat", 8), ("sat", 7), ("unsat", 6), ("sat", 7), ("sat", 6),
            ("sat", 8), ("sat", 7), ("sat", 7), ("sat", 6), ("unsat", 7),
            ("sat", 8), ("sat", 7), ("over-cap", CAP_VARS), ("sat", 7),
            ("sat", 6), ("sat", 8), ("sat", 7), ("sat", 7), ("sat", 6),
            ("sat", 7))
    RAW = {3: [(1, 2, 3), (1, 2, -3)],                         # -> 6 variables
           4: [(1, 2, 3), (1, 2, -4), (3, -3, 4), (2, 2, -3)]}  # -> 7 variables

    PASS_S = 9.2

    def __init__(self, seed):
        super().__init__("reduce-certify", seed, tail_pct=90)
        # The formulas' structure is fixed, since it moves an op's cost by up
        # to a third; the seed renames variables, flips signs and reorders
        # clauses, which leaves the cost alone.
        shape = random.Random("reduce-certify")
        rng = random.Random(f"reduce-certify:{seed}")
        core = [(1, 2), (1, -2), (-1, 2), (-1, -2)]  # unsatisfiable
        self.corpus = []
        for tag, nv in self.DECK:
            if tag == "unsat":
                clauses = _normalised(shape, nv, 6, core)
            elif tag == "raw":
                clauses = self.RAW[nv]
            else:
                clauses = _normalised(shape, nv, 6 if tag == "over-cap"
                                      else nv + 2)
            self.corpus.append((tag, nv, _shuffled(rng, nv, clauses)))
        self.sat = [ref.satisfiable(nv, clauses)
                    for _, nv, clauses in self.corpus]

    def setup(self) -> None:
        for i, (_, nv, clauses) in enumerate(self.corpus):
            with open(f"f{i}.cnf", "w") as fh:
                fh.write(f"c seeded formula {i}\np cnf {nv} {len(clauses)}\n")
                for c in clauses:
                    fh.write(" ".join(map(str, c)) + " 0\n")

    def groups(self, pass_index):
        for i, (tag, nv, _) in enumerate(self.corpus):
            argv = ["reduce", f"f{i}.cnf", "--out-prefix", f"f{i}",
                    "--certify"]
            if tag == "over-cap":
                yield [Op(f"reduce over-cap v={nv}", argv,
                          check=expect_error(3))]
                continue

            def check(out, i=i, sat=self.sat[i]):
                causes = exit_causes(out, 0)
                if causes:
                    return causes
                try:
                    with open(f"f{i}.report.json") as fh:
                        rep = json.load(fh)
                    with open(f"f{i}.instance.json") as fh:
                        json.load(fh)
                except (OSError, ValueError):
                    return ["missing output: report or instance file"]
                want = {"satisfiable": sat, "equivalent": True,
                        "correspondence_ok": True, "k4_free": True,
                        "c4_free": True}
                got = {key: rep.get(key) for key in want}
                if got != want:
                    return [f"wrong value: report {got}, expected {want}"]
                return []
            yield [Op(f"reduce {tag} v={nv}", argv, check=check)]


WORKLOADS = {
    "closed-form-wide": ClosedFormWide,
    "closed-form-narrow": ClosedFormNarrow,
    "oracle-scan": OracleScan,
    "reduce-certify": ReduceCertify,
}
