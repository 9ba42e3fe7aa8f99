"""Benchmark runner for the bicliques package.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  The load is a closed loop with one client: CLI ops run one
`python -m bicliques.cli` child at a time, in-process ops call the public
functions directly.  Every op's output is checked against the independent
references in reference.py.

--trace 0 runs as many passes of the deck as last S seconds on a host of
reference speed (see calibrate) and reports the end-to-end metrics, with
every time scaled to that host.
--trace 1 runs the first pass of the deck once untraced (in a child, for the
overhead ratio) and once under the span tracer, and reports the per-layer
metrics.  Either way the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3  # so that p90 has at least ten samples beyond it
CALIBRATION_REF_S = 0.005  # calibrate()'s median on the reference host
OP_TIMEOUT_S = 30


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def calibrate() -> float:
    """Time a fixed pure-Python loop of about 5 ms (small-int arithmetic,
    bit counts and dict stores, the kind of work the package does).

    A shared host runs the same code up to 70% slower for seconds to
    minutes at a time, and the ops slow down with this loop (short CLI ops
    somewhat less; see README.md).  So the loop runs before every op
    and set-up (and once after the last), and each time is scaled by
    CALIBRATION_REF_S over the mean of the loop's times just before and
    just after it.  The times then read as seconds on a reference host on
    which the loop takes 5 ms.  On a shared 2-core VM this cut the spread
    of a timing over ten runs from 0.1-0.3 of its median to 0.02-0.07.
    Program changes do not touch the loop."""
    start = time.perf_counter()
    acc, d = 0, {}
    for m in range(1, 40000):
        acc ^= (m & (m >> 3)).bit_count()
        if m % 7 == 0:
            d[m & 1023] = acc
    return time.perf_counter() - start


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = pct / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Runner:
    """Runs ops one at a time and keeps a record of each."""

    def __init__(self, workload, tracer: Tracer | None = None,
                 calibrations: list | None = None):
        self.wl = workload
        self.tracer = tracer
        self.calibrations = calibrations  # a calibrate() time before each op
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(
                            filter(None, [str(SRC),
                                          os.environ.get("PYTHONPATH")])))
        self.records = []   # {"op", "label", "latency", "causes", ...}
        self.traces = []
        self.max_child_rss_kb = 0

    # -- one op ---------------------------------------------------------------

    def run_op(self, op) -> None:
        op_id = len(self.records)
        rec = {"op": op_id, "label": op.label, "error_path": op.error_path,
               "reuse": op.reuse, "spawn": None}
        cause = op.prepare() if op.prepare else None
        if cause:
            rec.update(latency=0.0, causes=[cause], ran=False)
            self.records.append(rec)
            return
        if self.calibrations is not None:
            rec["cal"] = len(self.calibrations)
            self.calibrations.append(calibrate())
        if op.argv is not None:
            out, latency, spawn = self._run_cli(op, op_id)
            rec["spawn"] = spawn
        else:
            out, latency = self._run_call(op, op_id)
        rec.update(latency=latency, causes=op.check(out), ran=True)
        self.records.append(rec)

    def _run_cli(self, op, op_id):
        out_path, err_path = "op.stdout", "op.stderr"
        if self.tracer is None:
            argv = [sys.executable, "-m", "bicliques.cli", *op.argv]
        else:
            trace_path = f"op{op_id}.trace.json"
            argv = [sys.executable, str(HERE / "trace_child.py"), trace_path,
                    str(op_id), "--", *op.argv]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, out_path,
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path,
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        spawn = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env,
                             file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except OpTimeout:  # a hung child is killed, reaped and reported
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - spawn
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        if self.tracer is not None and os.path.exists(trace_path):
            with open(trace_path) as fh:
                self.traces.append(json.load(fh))
            os.remove(trace_path)
        return (Outcome(code=os.waitstatus_to_exitcode(status),
                        stdout=stdout, stderr=stderr), latency, spawn)

    def _run_call(self, op, op_id):
        out = Outcome()
        start = time.perf_counter()
        if self.tracer is not None:
            self.tracer.start(op_id)
        try:
            out.value = op.call()
        except Exception as e:  # the op's failure is recorded, not raised
            out.error = f"{type(e).__name__}: {e}"
        finally:
            if self.tracer is not None:
                self.tracer.stop()
        latency = time.perf_counter() - start
        return out, latency

    # -- loops ----------------------------------------------------------------

    def run_pass(self, index: int) -> float:
        start = time.perf_counter()
        for group in self.wl.groups(index):
            for op in group:
                self.run_op(op)
        return time.perf_counter() - start

    def run_for(self, seconds: float) -> int:
        """Whole passes, as many as last `seconds` on the reference host and
        at least MIN_PASSES.  The count does not depend on the host's speed,
        so every run with the same `seconds` holds the same ops and its
        percentiles land in the same place."""
        passes = max(MIN_PASSES, round(seconds / self.wl.PASS_S))
        for index in range(passes):
            self.run_pass(index)
        return passes

    # -- results --------------------------------------------------------------

    def failed(self):
        return [r for r in self.records if r["causes"]]

    def correct(self) -> bool:
        """No wrong answer and no failure on a valid input.  An error-path op
        that rejects its input with the wrong exit code or a traceback is a
        robustness failure: it counts in `failed`, not against `correct`."""
        for r in self.failed():
            if not r["error_path"]:
                return False
            if any(c.startswith(("wrong value", "missing output"))
                   for c in r["causes"]):
                return False
        return True


def scaled(elapsed: float, i: int, calibrations: list) -> float:
    """A time taken between calibrations i and i + 1, at reference speed."""
    return elapsed * CALIBRATION_REF_S / ((calibrations[i]
                                           + calibrations[i + 1]) / 2)


def setup_once(wl) -> float:
    """Generate the seeded inputs, then start an interpreter that imports the
    package; returns the elapsed time."""
    start = time.perf_counter()
    wl.setup()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pid = os.posix_spawn(sys.executable,
                         [sys.executable, "-c", "import bicliques.cli"], env)
    _, status, _ = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit("error: the bicliques package does not import")
    return elapsed


def summary(runner: Runner, wall: float) -> str:
    lines = []
    recs = runner.records
    failed = runner.failed()
    lines.append(f"ops {len(recs)}  failed {len(failed)}  "
                 f"failed_frac {len(failed) / len(recs):.6f}  "
                 f"reuse_share {sum(r['reuse'] for r in recs) / len(recs):.4f}"
                 f"  wall {wall:.3f} s")
    causes = {}
    for r in failed:
        key = (r["label"], "; ".join(r["causes"]))
        causes[key] = causes.get(key, 0) + 1
    for (label, cause), count in sorted(causes.items()):
        lines.append(f"FAILED x{count} {label}: {cause}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--single-pass", action="store_true",
                   help="run the first pass once untraced and print its wall "
                        "time (the reference for the tracing overhead)")
    args = p.parse_args(argv)

    if not (SRC / "bicliques" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'bicliques'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _alarm)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return measure(args, workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(args, workdir: Path) -> int:
    wl = WORKLOADS[args.workload](args.seed)
    if wl.in_process or args.trace:
        sys.path.insert(0, str(SRC))
    if wl.in_process:
        import bicliques

        wl.bc = bicliques

    if args.single_pass:
        setup_once(wl)
        runner = Runner(wl)
        wall = runner.run_pass(0)
        print(json.dumps({"wall": wall, "ops": len(runner.records),
                          "failed": len(runner.failed())}))
        return 0

    if args.trace:
        try:
            tracer = Tracer()
        except LookupError as e:
            print(f"error: {e}; update the tables in tracing.py",
                  file=sys.stderr)
            return 1
        setup_once(wl)
        ref_out = workdir / "reference-pass.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--single-pass"]
        with open(ref_out, "w") as fh:
            pid = os.posix_spawn(sys.executable, cmd, dict(os.environ),
                                 file_actions=[(os.POSIX_SPAWN_DUP2,
                                                fh.fileno(), 1)])
            _, status, _ = os.wait4(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            print("error: untraced reference pass failed", file=sys.stderr)
            return 1
        untraced = json.loads(ref_out.read_text().splitlines()[-1])["wall"]
        runner = Runner(wl, tracer)
        wall = runner.run_pass(0)
        if wl.in_process:
            runner.traces.append(tracer.to_dict())
        ops = [{"op": r["op"], "latency": r["latency"], "spawn": r["spawn"]}
               for r in runner.records if r["ran"]]
        metrics = layer_metrics(runner.traces, ops)
        metrics["trace.overhead_ratio"] = (wall / untraced, "ratio")
    else:
        calibrations = []
        setups = []
        for _ in range(SETUP_REPEATS):
            calibrations.append(calibrate())
            setups.append(setup_once(wl))
        runner = Runner(wl, calibrations=calibrations)
        start = time.perf_counter()
        passes = runner.run_for(args.seconds)
        wall = time.perf_counter() - start
        calibrations.append(calibrate())
        setups = [scaled(t, i, calibrations) for i, t in enumerate(setups)]
        lat = [scaled(r["latency"], r["cal"], calibrations)
               for r in runner.records if r["ran"]]
        if wl.in_process:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = runner.max_child_rss_kb
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(lat) / sum(lat), "ops/s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_tail_s": (percentile(lat, wl.tail_pct), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "ok_frac": (1 - len(runner.failed()) / len(runner.records),
                        "ratio"),
        }
        beyond = sum(1 for x in lat if x > metrics["latency_tail_s"][0])
        speed = CALIBRATION_REF_S / statistics.median(calibrations)
        print(f"{passes} passes, {len(lat)} samples; latency_tail_s is "
              f"p{wl.tail_pct} ({beyond} samples beyond it); calibration "
              f"loop median {statistics.median(calibrations) * 1e3:.3f} ms; "
              f"{wall * speed / passes:.2f} s a pass at reference speed")

    print(summary(runner, wall))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.correct(),
        "attempted": len(runner.records),
        "failed": len(runner.failed()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
