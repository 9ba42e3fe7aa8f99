"""Run one `bicliques` command under the span tracer, as `python -m
bicliques.cli` would, and write the spans to a JSON file at exit.

Usage: trace_child.py OUT.json OP_ID -- ARGS...
"""

import atexit
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main() -> None:
    out_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py OUT.json OP_ID -- ARGS...")
    from bicliques import cli

    tracer = Tracer()
    atexit.register(tracer.dump, out_path)
    tracer.start(int(op_id))
    try:
        code = cli.main(argv)
    finally:
        tracer.stop()
    sys.exit(code)


if __name__ == "__main__":
    main()
