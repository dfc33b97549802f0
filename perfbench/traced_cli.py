"""Run one derhed CLI command with spans around derhed's public functions.

    python3 perfbench/traced_cli.py SPANS.json <derhed arguments...>

Behaves like the ``derhed`` console script (same stdout, same exit code)
and writes the span summary of the process to SPANS.json.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import derhed.cli  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        return derhed.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(spans.summarize(tracer.spans), fh)


if __name__ == "__main__":
    sys.exit(main())
