"""Command line interface.

Exit codes: 0 success, 1 a verification answered "invalid" (monochromatic
witness found, or a certification mismatch), 2 bad input, 3 a size cap was
exceeded: the oracle's and the reduction's brute-force caps, graphs.INPUT_CAP
on the bytes of a file read, or the caps below on what one command builds,
checked by graphs.check_cap before anything is allocated or printed, and
after powers.check_params refuses a bad n or k.  verify reads a file's
P_n^k / C_n^k label by powers.power_params; bicliques --graph reads none.
gen, chromatic, reduce, bicliques and sweep open every output file before
writing any, so a run that exits 2 leaves no partial result.

Only graphs is imported at once.  powers, colouring, the oracle, the
reduction and csv are imported by the subcommands that use them, so reduce
and bicliques --graph compile neither powers nor colouring, and chromatic,
gen, bicliques --kind and verify of a generated power graph load neither
the oracle nor the reduction.

A run of `python -m bicliques.cli` or of the installed `bicliques` command
ends in run(): when main returns, the atexit handlers run, stdout and
stderr are flushed, and os._exit ends the process with no teardown of the
modules that site and the package loaded, which took 8-11 ms of a 55-75 ms
run on a shared 2-core host, against about 1 ms this way.  A flush that
fails (a closed pipe) and dev mode take the normal sys.exit.  main called
in-process is unchanged.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys

from .graphs import (
    INPUT_CAP,
    CapacityError,
    Graph,
    InputError,
    check_cap,
    colour_tuple,
    decimal,
    graph_fields,
    output,
    read_json,
    write_dot,
    write_graph,
    write_json,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3

# What one command may build.  Each cap is measured on the worst case just
# under it; the figures are in CHANGES.md.
CLOSED_FORM_CAP = 1_000_000  # n of a closed form: O(n) memory, about 1 s
ROWS_CAP = 20_000            # n of a graph built with its n-bit rows
EDGES_CAP = 1_000_000        # edges written by gen and --dot
FAMILY_CAP = 1_000_000       # bicliques listing a family: sets times degree
SWEEP_ROWS_CAP = 10_000      # rows of one sweep


def _oracle_graph(n: int, edges, label) -> Graph:
    """The graph of a file that the oracle will scan, after the oracle's
    cap is checked, so a huge declared n is rejected before its n
    adjacency rows are allocated."""
    from . import oracle
    oracle.check_scan_cap(n)
    return Graph.from_edges(n, edges, label)


def family_work(kind: str, n: int, k: int) -> int:
    """The work of listing the family of P_n^k / C_n^k (n, k >= 1) as its
    sets times the degree 2m/n (m edges), an overestimate, since a set
    costs about the same at any degree.  A complete graph's sets are its m
    edges; otherwise each is an induced P3 or C4, at most 2*k*m of them."""
    from . import powers
    m = powers.power_edge_count(kind, n, k)
    sets = m if powers.is_complete(kind, n, k) else 2 * k * m
    return sets * (2 * m // n)


def _check_graph(n: int, edges: int = 0) -> None:
    """The caps on building a graph's n-bit rows and writing its edges."""
    check_cap("building a graph's rows", "n", n, ROWS_CAP)
    check_cap("writing a graph", "edges", edges, EDGES_CAP)


def _open_outputs(*paths) -> None:
    """Open each output path of a run (None is stdout) before anything is
    written, in append mode, which creates a missing file and truncates no
    existing one, so a path that cannot be opened exits 2 with nothing
    written; the files made here are removed again when a later path
    fails."""
    made = []
    try:
        for path in paths:
            if path is not None:
                new = not os.path.lexists(path)
                open(path, "a").close()
                if new:
                    made.append(path)
    except OSError:
        for path in made:
            os.remove(path)
        raise


def _constructor(kind: str, mode: str):
    """The named constructor, such as biclique_colour_path, that calls
    colouring.closed_form; the benchmark's tracer times it (ROADMAP item 1)."""
    from . import colouring
    return getattr(colouring, f"{mode}_colour_{kind}")


def _certificate_text(result) -> str:  # of a colouring.ChromaticResult
    if result.ab is not None:
        return f"a={result.ab.a};b={result.ab.b}"
    if result.universal_witness is not None:
        return "universal=" + "-".join(str(v) for v in result.universal_witness)
    return ""


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args) -> int:
    from . import powers
    needs, takes_no = ("distances", "k") if args.kind == "circulant" \
        else ("k", "distances")
    if getattr(args, needs) is None:
        raise InputError(f"{args.kind} needs --{needs}")
    if getattr(args, takes_no) is not None:
        raise InputError(f"{args.kind} takes no --{takes_no}")
    if args.kind == "circulant":
        try:
            distances = [decimal(t) for t in args.distances.split(",") if t]
        except ValueError:
            raise InputError("--distances must be comma-separated integers, "
                             f"got {args.distances!r}") from None
        ds = powers.circulant_distances(args.n, distances)
        _check_graph(args.n, args.n * len(ds))  # at most n edges a distance
        g = powers.circulant(args.n, ds)
    else:
        _check_graph(args.n,
                     powers.power_edge_count(args.kind, args.n, args.k))
        g = powers.power_graph(args.kind, args.n, args.k)
    _open_outputs(args.dot, args.out)
    if args.dot is not None:  # first, as in cmd_chromatic
        write_dot(g, args.dot)
    write_graph(g, args.out)
    return EXIT_OK


def cmd_chromatic(args) -> int:
    from . import colouring, powers
    powers.check_params(args.n, args.k)
    check_cap("a closed form", "n", args.n, CLOSED_FORM_CAP)
    if args.dot is not None:
        _check_graph(args.n,
                     powers.power_edge_count(args.kind, args.n, args.k))
    result = _constructor(args.kind, args.mode)(args.n, args.k)
    _open_outputs(args.emit_colouring, args.dot)
    # the files first, so one that cannot be written leaves stdout empty
    if args.emit_colouring is not None:
        colouring.write_colouring(result.colouring, args.emit_colouring,
                                  ab=result.ab,
                                  universal_witness=result.universal_witness)
    if args.dot is not None:
        write_dot(powers.power_graph(args.kind, args.n, args.k), args.dot,
                  result.colouring.colours)
    print(result.value)
    cert = _certificate_text(result)
    if cert:
        print(f"certificate: {cert}")
    if args.certify:  # the constructor has checked its colouring already
        print("certified: colouring verified against the "
              f"{args.mode} family")
    return EXIT_OK


def cmd_verify(args) -> int:
    # The colouring's length, then the oracle's cap, are checked before the
    # graph's n rows are allocated, so a huge declared n is rejected at
    # once.  A file that is the power graph its label names is checked as
    # that graph's family (powers.first_mono_set, which checks the length
    # too), with no graph built and the oracle not imported.
    from . import colouring, powers
    n, edges, label = graph_fields(read_json(args.graph))
    col = colouring.read_colouring(args.colouring)
    params = powers.power_params(label, n, edges)
    if params is not None:
        kind, _, k = params
        witness = powers.first_mono_set(kind, args.mode, n, k, col)
    else:
        from . import oracle
        colours = colour_tuple(col, n)
        witness = oracle.verify_colouring(
            _oracle_graph(n, edges, label), colours, args.mode)
    if witness is None:
        print("valid")
        return EXIT_OK
    import json
    print(json.dumps({"mode": args.mode, "witness": list(witness)}))
    return EXIT_INVALID


def cmd_bicliques(args) -> int:
    # A file goes to the oracle, whose cap is checked before the n
    # adjacency rows are allocated, so a huge declared n is rejected at
    # once; --kind, --n and --k name a power graph, listed by power_family.
    params = args.kind, args.n, args.k
    if args.graph is not None:
        if params != (None, None, None):
            raise InputError("--graph takes no --kind, --n or --k")
        from . import oracle
        g = _oracle_graph(*graph_fields(read_json(args.graph)))
        label, source = g.label, "oracle"
        _open_outputs(args.out)  # after the checks, before the listing
        fam = oracle.maximal_bicliques(g) if args.mode == "biclique" \
            else oracle.maximal_stars(g)
    elif None in params:
        raise InputError("need --graph FILE, or --kind with --n and --k")
    else:
        from . import powers
        label, source = powers.power_label(*params), "closed-form"
        check_cap(f"listing the family of {label}", "sets*degree",
                  family_work(*params), FAMILY_CAP)
        _check_graph(args.n)
        _open_outputs(args.out)
        fam = powers.power_family(args.kind, args.mode, args.n, args.k)
    if args.mode == "biclique":
        key, body = "bicliques", [
            {"vertices": list(b.vertices), "shape": b.shape,
             **({"reach": b.reach} if b.reach is not None else {})}
            for b in fam]
    else:
        key, body = "stars", [list(s) for s in fam]
    write_json({"label": label, "mode": args.mode, "source": source,
                "count": len(body), key: body}, args.out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    from . import reduction
    f = reduction.read_dimacs(args.cnf)
    nf = reduction.normalize(f)
    _check_graph(2 * nf.num_vars + len(nf.clauses) + 1)  # the gadget's rows
    if args.certify:
        reduction.check_certify_caps(nf)
    inst = reduction.build_instance(nf)
    instance_path = f"{args.out_prefix}.instance.json"
    report_path = f"{args.out_prefix}.report.json"
    _open_outputs(instance_path, report_path if args.certify else None)
    reduction.write_instance(inst, instance_path)
    print(f"normalized: {f.num_vars} vars, {len(f.clauses)} clauses -> "
          f"{nf.num_vars} vars, {len(nf.clauses)} clauses")
    print(f"instance: {inst.graph.n} vertices, |V'| = {len(inst.v_prime)}, "
          f"wrote {instance_path}")
    if not args.certify:
        return EXIT_OK
    report = reduction.certify_reduction(nf, inst)
    write_json(report.to_dict(), report_path)
    print(f"satisfiable: {report.satisfiable}  "
          f"containment: {report.containment}  "
          f"equivalent: {report.equivalent}")
    print(f"k4_free: {report.k4_free}  c4_free: {report.c4_free}  "
          f"wrote {report_path}")
    if not (report.equivalent and report.k4_free and report.c4_free
            and report.correspondence_ok):
        return EXIT_INVALID
    return EXIT_OK


def cmd_sweep(args) -> int:
    ks = range(args.k_from, args.k_to + 1)
    ns = range(args.n_from, args.n_to + 1)
    if not (ks and ns):
        raise InputError(f"empty sweep range: k {args.k_from}..{args.k_to}, "
                         f"n {args.n_from}..{args.n_to}")
    from . import powers
    powers.check_params(args.n_from, args.k_from)  # the grid's least n and k
    check_cap("a sweep", "rows", len(ks) * len(ns), SWEEP_ROWS_CAP)
    # each n >= 1, so this also caps every row's n at CLOSED_FORM_CAP
    check_cap("a sweep", "sum(n)", len(ks) * sum(ns), CLOSED_FORM_CAP)
    import csv
    construct = _constructor(args.kind, args.mode)
    with output(args.out) as out:  # each row written as it is computed
        rows = csv.writer(out)
        rows.writerow(("n", "k", "kind", "mode", "value", "certificate"))
        for k in ks:
            for n in ns:
                result = construct(n, k)
                rows.writerow((n, k, args.kind, args.mode, result.value,
                               _certificate_text(result)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicliques",
        description="Biclique- and star-chromatic numbers of powers of "
                    "paths and cycles, with certified colourings and a 3SAT "
                    "biclique-containment gadget.",
        epilog="Exit codes: 0 ok, 1 a verification found a monochromatic "
               "set or a certification mismatch, 2 bad input, 3 over a "
               "size cap.  Caps, checked before anything is built or "
               f"printed: n <= {CLOSED_FORM_CAP} for a closed form "
               f"(chromatic, sweep); n <= {ROWS_CAP} for a graph built "
               "with its rows (gen, chromatic --dot, bicliques --kind) "
               f"and edges <= {EDGES_CAP} for one written (gen, --dot); "
               f"sets*degree <= {FAMILY_CAP} for a family listed "
               "(bicliques --kind); rows <= "
               f"{SWEEP_ROWS_CAP} and sum(n) <= {CLOSED_FORM_CAP} for a "
               f"sweep; bytes <= {INPUT_CAP} for a file read (graph, "
               "colouring, DIMACS).  A colouring of P_n^k or C_n^k is "
               "checked by index arithmetic with no graph built.  The "
               "oracle's and the reduction's brute-force caps exit 3 as "
               "well.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph as JSON")
    p.add_argument("kind", choices=["path", "cycle", "circulant"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--distances", help="comma-separated, circulant only")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--dot", help="also write Graphviz source here")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("chromatic",
                       help="exact biclique/star chromatic number")
    p.add_argument("kind", choices=["path", "cycle"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["biclique", "star"], default="biclique")
    p.add_argument("--emit-colouring", help="write the optimal colouring here")
    p.add_argument("--certify", action="store_true",
                   help="print that the colouring is certified: the "
                        "construction checks it once for the closed-form "
                        "family by index arithmetic, for an equal-coloured "
                        "pair of the universal clique, a monochromatic "
                        "induced P3 or a monochromatic induced C4")
    p.add_argument("--dot", help="write a coloured Graphviz rendering here")
    p.set_defaults(func=cmd_chromatic)

    p = sub.add_parser("verify", help="check a colouring file against a graph")
    p.add_argument("graph")
    p.add_argument("colouring")
    p.add_argument("--mode", choices=["biclique", "star"], default="biclique")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bicliques", help="list maximal bicliques or stars")
    p.add_argument("--graph", help="graph JSON file, listed by the oracle "
                                   "(n <= 22); not with --kind, --n or --k")
    p.add_argument("--kind", choices=["path", "cycle"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=["biclique", "star"], default="biclique")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_bicliques)

    p = sub.add_parser("reduce",
                       help="build the biclique-containment gadget for a CNF")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--certify", action="store_true",
                   help="truth-table the formula and compare with containment")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("sweep", help="CSV of chromatic values over a grid")
    p.add_argument("--kind", choices=["path", "cycle"], required=True)
    p.add_argument("--mode", choices=["biclique", "star"], default="biclique")
    p.add_argument("--k-from", type=int, required=True)
    p.add_argument("--k-to", type=int, required=True)
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--out", help="CSV file (default stdout)")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CapacityError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY if isinstance(e, CapacityError) else EXIT_INPUT


def run() -> None:
    """The process entry of `python -m bicliques.cli` and of the installed
    `bicliques` command: main's exit code, after the atexit handlers have
    run and stdout and stderr are flushed, ends the process by os._exit,
    with no teardown of the loaded modules.  A flush that raises OSError (a
    closed pipe) and dev mode end by sys.exit instead, so Python still
    reports the failed flush with status 120, and dev mode still reports
    what was left open.  An exception, argparse's SystemExit among them,
    propagates from main as before."""
    code = main()
    if not sys.flags.dev_mode:
        atexit._run_exitfuncs()  # clears them: sys.exit does not rerun them
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when the fd was closed
                    stream.flush()
        except OSError:
            pass
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
