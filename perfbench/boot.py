"""Traced CLI process: install the layer wrappers, then run the CLI.

    python3 perfbench/boot.py SPANS_FILE -- <confocalfit arguments>

Behaves like ``python -m confocalfit.cli <arguments>`` (same output, same
exit code) and writes the spans it recorded to SPANS_FILE as JSON at exit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402 - after the path insert


def main() -> int:
    spans_file = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = Tracer()
    import confocalfit.cli as cli

    tracer.install()
    tracer.op = 0
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_file).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
