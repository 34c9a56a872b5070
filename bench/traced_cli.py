"""Run ``admrelay.cli`` with every public admrelay function traced.

Usage: ``python3 bench/traced_cli.py --spans FILE <admrelay arguments>``.
The CLI's stdout and exit status are passed through unchanged; the spans of
the process are written to FILE as JSON when the command returns.
"""

from __future__ import annotations

import json
import sys

from admrelay import cli
from tracing import Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        raise SystemExit(__doc__)
    path, argv = sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
