"""Fresh-interpreter probes for the per-layer figures that need a new process.

    python3 perfbench/probe.py start
        import time of confocalfit.cli and the first f_upper_tail call
    python3 perfbench/probe.py parse PATH COLS MASS_COL
        tracemalloc peak inside one parse_dataset call (COLS/MASS_COL may be "-")
    python3 perfbench/probe.py layers ROUNDS
        the README commands run in process with the layer wrappers installed,
        for the layers a workload itself never calls

Each mode prints one JSON object on its last line of output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def start() -> dict:
    t0 = time.perf_counter()
    import confocalfit.cli  # noqa: F401
    t1 = time.perf_counter()
    from confocalfit.regression import f_upper_tail

    t2 = time.perf_counter()
    f_upper_tail(5.071564, 4, math.inf)
    t3 = time.perf_counter()
    return {"import_ms": (t1 - t0) * 1e3, "f_tail_ms": (t3 - t2) * 1e3}


def parse(path: str, cols: str, mass_col: str) -> dict:
    import tracemalloc

    from confocalfit import parse_dataset

    tracemalloc.start()
    ds = parse_dataset(path, cols=None if cols == "-" else cols.split(","),
                       mass_col=None if mass_col == "-" else mass_col)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"parse_peak_mb": peak / 2**20, "rows": ds.n_rows}


def layers(rounds: int) -> dict:
    import confocalfit.cli as cli
    from inputs import EXAMPLE_COMMANDS
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    commands = [c.format(out="perfbench/_out").split() for c in EXAMPLE_COMMANDS]
    op = 0
    for _ in range(rounds):
        for argv in commands:
            tracer.op = op
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            op += 1
    tracer.uninstall()
    return layer_metrics(tracer.spans, op, tracer.spans)


def main() -> int:
    mode = sys.argv[1]
    if mode == "start":
        out = start()
    elif mode == "parse":
        out = parse(*sys.argv[2:5])
    else:
        out = layers(int(sys.argv[2]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
