"""`python -m fps` with the benchmark's tracer installed.

Usage: python perfbench/fps_traced.py SPANS.json FPS-ARGS...

Runs fps.cli.main(FPS-ARGS) like `python -m fps` does, then writes the
tracer's spans and counts to SPANS.json.  stdout is left to the CLI.
"""

import json
import sys

import fps.cli

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return fps.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.record(), handle)


if __name__ == "__main__":
    sys.exit(main())
