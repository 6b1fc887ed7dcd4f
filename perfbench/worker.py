"""Child process that runs the program in process.

    python3 perfbench/worker.py WORKLOAD MANIFEST RESULT [--seconds S] [--min-ops N]
                                [--trace 0|1] [--setup-only]

Set-up (timed from before ``import confocalfit``): import the program, load
every input through ``parse_dataset`` and ``WeightedPointSet``, run one
warm-up operation.  Then, unless ``--setup-only``, the closed loop runs
whole rounds of the workload's operations until ``S`` seconds have passed
and at least ``--min-ops`` operations were timed, timing each operation.  The first round's
outputs are kept for the parent's checks; every later output must equal
its first-round counterpart byte for byte.  With ``--trace 1`` the odd
rounds run with the layer wrappers installed.

Only the standard library is imported before the clock starts, so set-up
includes the program's own imports (numpy and scipy among them).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pickle
import sys
import time
from pathlib import Path


def _load(api, manifest):
    return [api.parse_dataset(e["path"], cols=e["cols"], mass_col=e["mass_col"]).point_set()
            for e in manifest["load"]]


def _query_op(api, sets, manifest, case):
    s, q = case
    ps = sets[s]
    point = manifest["queries"][s][q]
    pencil = api.build_pencil(ps)
    fits = [api.restricted_best_fit_flat(ps, point, ell) for ell in range(1, ps.dim)]
    pca = api.restricted_pca(ps, point)
    jc = api.jacobi_coordinates(pencil, point)
    flats = []
    for best, worst in fits:
        for fit in (best, worst):
            flat = fit.flat
            if isinstance(flat, api.Hyperplane):
                flats.append(("plane", flat.normal, flat.offset, fit.moment))
            else:
                flats.append(("flat", flat.base_point, flat.basis, fit.moment))
    return {"flats": flats, "pca_moments": pca.moments, "pca_directions": pca.directions,
            "pca_lambdas": pca.lambdas.lambdas, "lambdas": jc.lambdas,
            "degenerate": jc.degenerate}


def _regularize_op(api, sets, manifest, case):
    s, norm, bound = manifest["cases"][case]
    fit = api.constrained_fit(sets[s], norm, bound)
    return {"u": fit.coefficients.u, "moment": fit.moment, "active": fit.active,
            "zeros": fit.zero_coordinates}


def cases(workload, manifest):
    if workload == "query-field":
        return [(s, q) for s, points in enumerate(manifest["queries"])
                for q in range(len(points))]
    return list(range(len(manifest["cases"])))


OPS = {"query-field": _query_op, "regularize-path": _regularize_op}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    manifest = json.loads(Path(args.manifest).read_text())
    cli = args.workload.startswith("cli-")

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()

    start = time.perf_counter()
    if cli:
        import confocalfit.cli as program
    import confocalfit as api
    if tracer:
        tracer.install()
    sets = _load(api, manifest)
    if cli:
        with contextlib.redirect_stdout(io.StringIO()):
            program.main(list(manifest["commands"][0]))
    else:
        op = OPS[args.workload]
        todo = cases(args.workload, manifest)
        op(api, sets, manifest, todo[0])
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "records": [], "first": {}, "spans": []}
    if args.setup_only or cli:
        Path(args.result).write_bytes(pickle.dumps(result))
        return 0

    records, first = result["records"], result["first"]
    clock = time.perf_counter
    loop_start = clock()
    rounds = 0
    op_id = 0
    while len(records) < args.min_ops or clock() - loop_start < args.seconds:
        traced = bool(tracer) and rounds % 2 == 1
        if tracer:
            tracer.install() if traced else tracer.uninstall()
        for index, case in enumerate(todo):
            if tracer:
                tracer.op = op_id
            t0 = clock()
            try:
                out = op(api, sets, manifest, case)
            except Exception as exc:  # a failing operation is recorded, not fatal
                out = {"error": f"{type(exc).__name__}: {exc}"}
            seconds = clock() - t0
            blob = pickle.dumps(out)
            if index not in first:
                first[index] = blob
            records.append((index, seconds, blob == first[index], traced))
            op_id += 1
        rounds += 1
    if tracer:
        tracer.uninstall()
        result["spans"] = tracer.spans
    Path(args.result).write_bytes(pickle.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
