"""The benchmark's span tracer finds the package's functions by module and
name.  A rename, move or alias of a timed function would otherwise only show
up as a failing traced benchmark run."""

import importlib.util
from pathlib import Path

from bicliques import oracle

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracing = _tracing()
    for table in (tracing.SPANS, tracing.HOT):
        codes = tracing._resolve(table)
        # one code object per entry: an alias would merge two entries
        assert len(codes) == sum(len(entries) for entries in table.values())
    # the tracer counts checked hyperedges from verify_colouring's `sets`
    assert "sets" in oracle.verify_colouring.__code__.co_varnames
