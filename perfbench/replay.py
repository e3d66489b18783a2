"""Traced replay of one sqdiv CLI command in a fresh process.

Usage: python3 perfbench/replay.py RUN_ID SPANS_JSON -- CLI ARGS...
Runs `sqdiv.cli.main(ARGS)` with the benchmark's wrappers installed around
every library layer, writes the spans and counters to SPANS_JSON, and exits
with the command's exit code. Its wall time, set against an untraced run of
the same command, gives the tracing overhead.
"""

import contextlib
import io
import json
import sys

from tracer import Tracer


def main():
    run_id, spans_path, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: replay.py RUN_ID SPANS_JSON -- CLI ARGS...")
    import sqdiv.cli

    tracer = Tracer()
    tracer.run_id = run_id
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()) as stdout, \
            tracer.span(f"cli.{args[0]}"):
        code = sqdiv.cli.main(args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans,
                   "counts": [[run, name, n] for (run, name), n in tracer.counts.items()]}, fh)
    sys.stdout.write(stdout.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
