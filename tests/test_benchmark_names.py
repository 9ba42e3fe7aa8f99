"""The benchmark's files as the tests rely on them.  The span tracer finds
the package's functions by module and name: a rename, move or alias of a
timed function would otherwise only show up as a failing traced benchmark
run.  The reference module is the tests' ground truth as well as the
benchmark's, so it must not import the package it checks."""

import ast

import support
from bicliques import oracle


def test_traced_functions_resolve():
    tracing = support.load_benchmark("tracing")
    for table in (tracing.SPANS, tracing.HOT):
        codes = tracing._resolve(table)
        # one code object per entry: an alias would merge two entries
        assert len(codes) == sum(len(entries) for entries in table.values())
    # the tracer counts checked hyperedges from verify_colouring's `sets`
    assert "sets" in oracle.verify_colouring.__code__.co_varnames


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse((support.BENCHMARKS / "reference.py").read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            named.add(node.module or "")
            named.update(alias.name for alias in node.names)
    assert named  # the walk saw the module's imports
    assert not {name for name in named
                if name.split(".")[0] == "bicliques"}, named
