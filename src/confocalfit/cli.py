"""Command-line interface: dataset analysis commands emitting JSON reports.

Exit codes: 0 success, 1 usage error, 2 domain error.  Domain errors are
reported as JSON with the failing module's stable error code.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import report as rp
from .billiards import Ray, caustics_of_flat, higher_axial_moments, joachimsthal_2d, trajectory
from .dataset import Dataset, parse_dataset
from .errors import ConfocalFitError, DegenerateFlat
from .geometry import SymmetricOperator
from .pencil import build_pencil, jacobi_coordinates
from .regression import (
    directional_fit,
    nested_f_test,
    point_hypothesis_test,
    restricted_pca,
)
from .regularize import constrained_fit
from .svg import emit_svg


# Every ray of a billiard run is kept and written out (about 2 KB of memory
# and 170 bytes of JSON per bounce), so ``--bounces`` is capped.
MAX_BOUNCES = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _floats(text: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"{name}: expected comma-separated numbers, got {text!r}") from exc
    if not values or any(not math.isfinite(v) for v in values):
        raise UsageError(f"{name}: expected finite numbers, got {text!r}")
    return values


def _vector(text: str, k: int, name: str) -> np.ndarray:
    values = _floats(text, name)
    if len(values) != k:
        raise UsageError(f"{name}: expected {k} components, got {len(values)}")
    return np.asarray(values)


def _covariance(text: str, k: int) -> SymmetricOperator:
    values = _floats(text, "--error-cov")
    expect = k * (k + 1) // 2
    if len(values) != expect:
        raise UsageError(
            f"--error-cov: expected {expect} upper-triangle entries for k={k}, "
            f"got {len(values)}"
        )
    mat = np.zeros((k, k))
    pos = 0
    for i in range(k):
        for j in range(i, k):
            mat[i, j] = mat[j, i] = values[pos]
            pos += 1
    return SymmetricOperator(mat)


def build_parser() -> _Parser:
    parser = _Parser(prog="confocalfit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("data", nargs="?", help="CSV file with a header row")
        p.add_argument("--batch", help="file listing one CSV path per line")
        p.add_argument("--cols", help="comma-separated coordinate columns, in order")
        p.add_argument("--mass-col", help="name of a positive mass column")
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("fit", help="orthogonal best (and worst) flat, optionally through a point")
    p.add_argument("--ell", type=int, help="flat dimension (default k-1)")
    p.add_argument("--through", help="restrict the fit to pass through this point")

    p = add("pca", help="principal directions and moments at a point")
    p.add_argument("--at", required=True, help="anchor point coordinates")

    p = add("directional", help="least-squares hyperplane along a direction")
    p.add_argument("--dir", required=True, dest="direction", help="measurement direction")
    p.add_argument("--through", help="restrict the hyperplane to this point")

    p = add("test-point", help="F test that the best hyperplane contains a point")
    p.add_argument("--at", required=True, help="hypothesized point")
    p.add_argument(
        "--error-cov", required=True,
        help="upper triangle of the error covariance, row-major",
    )

    p = add("pencil", help="confocal pencil summary, optionally Jacobi coordinates")
    p.add_argument("--jacobi", help="report Jacobi coordinates of this point")

    p = add("regularize", help="bounded-coefficient orthogonal regression")
    p.add_argument("--norm", required=True, choices=["l1", "l2"])
    p.add_argument("--bound", required=True, type=float)

    p = add("billiard", help="billiard trajectory inside a pencil member")
    p.add_argument("--member", required=True, type=float, help="pencil parameter")
    p.add_argument("--start", required=True, help="starting point")
    p.add_argument("--dir", required=True, dest="direction", help="starting direction")
    p.add_argument("--bounces", required=True, type=int)

    p = add("plot", help="SVG figure of the data, fits and conics (k = 2 only)")
    p.add_argument("--through", help="overlay the restricted fit through this point")
    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the report dict)
# ---------------------------------------------------------------------------

def _fit_report(ds: Dataset, args) -> dict:
    ps = ds.point_set()
    pencil = build_pencil(ps)
    ell = args.ell if args.ell is not None else ps.dim - 1
    out = {
        "command": "fit",
        "dataset": rp.dataset_block(ds),
        "pencil": rp.pencil_block(pencil),
        "warnings": [],
    }
    # at the centroid the restricted fits are the unrestricted ones
    point = ps.center if args.through is None else _vector(args.through, ps.dim, "--through")
    res = restricted_pca(ps, point)
    if args.through is not None:
        out["jacobi"] = rp.jacobi_block(pencil, point, res.lambdas)
    out["fits"] = [rp.fit_block(fit) for fit in res.flats(ell)]
    return out


def _pca_report(ds: Dataset, args) -> dict:
    ps = ds.point_set()
    pencil = build_pencil(ps)
    point = _vector(args.at, ps.dim, "--at")
    res = restricted_pca(ps, point)
    return {
        "command": "pca",
        "dataset": rp.dataset_block(ds),
        "pencil": rp.pencil_block(pencil),
        "jacobi": rp.jacobi_block(pencil, point, res.lambdas),
        "pca": {
            "directions": res.directions.T.tolist(),
            "moments": res.moments.tolist(),
            "tied": [bool(t) for t in res.tied],
        },
        "warnings": [],
    }


def _directional_report(ds: Dataset, args) -> dict:
    ps = ds.point_set()
    w = _vector(args.direction, ps.dim, "--dir")
    through = (
        _vector(args.through, ps.dim, "--through") if args.through is not None else None
    )
    fit = directional_fit(ps, w, through=through)
    out = {
        "command": "directional",
        "dataset": rp.dataset_block(ds),
        "pencil": rp.pencil_block(build_pencil(ps)),
        "fits": [rp.fit_block(fit)],
        "warnings": [],
    }
    if through is not None:
        test = nested_f_test(ps, w, through)
        out["test"] = rp.test_block(test)
    return out


def _test_point_report(ds: Dataset, args) -> dict:
    ps = ds.point_set()
    point = _vector(args.at, ps.dim, "--at")
    cov = _covariance(args.error_cov, ps.dim)
    result = point_hypothesis_test(ps, point, cov)
    pencil = build_pencil(ps)
    return {
        "command": "test-point",
        "dataset": rp.dataset_block(ds),
        "pencil": rp.pencil_block(pencil),
        "jacobi": rp.jacobi_block(pencil, point, jacobi_coordinates(pencil, point)),
        "test": rp.test_block(result),
        "warnings": [],
    }


def _pencil_report(ds: Dataset, args) -> dict:
    ps = ds.point_set()
    pencil = build_pencil(ps)
    out = {
        "command": "pencil",
        "dataset": rp.dataset_block(ds),
        "pencil": rp.pencil_block(pencil),
        "warnings": [],
    }
    if args.jacobi is not None:
        point = _vector(args.jacobi, ps.dim, "--jacobi")
        out["jacobi"] = rp.jacobi_block(pencil, point, jacobi_coordinates(pencil, point))
    return out


def _regularize_report(ds: Dataset, args) -> dict:
    ps = ds.point_set()
    fit = constrained_fit(ps, args.norm, args.bound)
    plane = fit.coefficients.hyperplane()
    return {
        "command": "regularize",
        "dataset": rp.dataset_block(ds),
        "regularize": {
            "norm": fit.norm,
            "bound": fit.bound,
            "coefficients": fit.coefficients.u.tolist(),
            "moment": fit.moment,
            "active": fit.active,
            "zero_coordinates": list(fit.zero_coordinates),
            "normal": plane.normal.tolist(),
            "offset": plane.offset,
        },
        "warnings": [],
    }


def _billiard_report(ds: Dataset, args) -> dict:
    if args.bounces > MAX_BOUNCES:
        raise UsageError(f"--bounces: at most {MAX_BOUNCES}, got {args.bounces}")
    ps = ds.point_set()
    pencil = build_pencil(ps)
    member = pencil.member(args.member)
    start = Ray(
        _vector(args.start, ps.dim, "--start"),
        _vector(args.direction, ps.dim, "--dir"),
    )
    rays = trajectory(member, start, args.bounces)
    warnings: list[str] = []
    block = {
        "member": float(args.member),
        "bounces": args.bounces,
        "rays": [
            {"point": r.point.tolist(), "direction": r.direction.tolist()} for r in rays
        ],
    }
    try:
        block["caustics"] = caustics_of_flat(pencil, start.line()).lambdas.tolist()
        block["higher_moments"] = higher_axial_moments(pencil, start).tolist()
    except DegenerateFlat as exc:
        warnings.append(f"caustics omitted: {exc}")
    if ps.dim == 2 and member.is_ellipsoid:
        local = Ray(pencil.to_principal(start.point), pencil.frame.T @ start.direction)
        block["joachimsthal"] = joachimsthal_2d(member.semiaxes_sq, local)[0]
    return {
        "command": "billiard",
        "dataset": rp.dataset_block(ds),
        "pencil": rp.pencil_block(pencil),
        "billiard": block,
        "warnings": warnings,
    }


def _plot_report(ds: Dataset, args) -> dict:
    if args.out is None:
        raise UsageError("plot requires --out FILE.svg")
    fit_args = argparse.Namespace(ell=None, through=args.through)
    out = _fit_report(ds, fit_args)
    out["command"] = "plot"
    if args.through is None:
        out["fits"] = [fit for fit in out["fits"] if fit["role"] == "best"]
    document = emit_svg(out, ds)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(document)
    out["plot"] = {"out": args.out}
    return out


_HANDLERS = {
    "fit": _fit_report,
    "pca": _pca_report,
    "directional": _directional_report,
    "test-point": _test_point_report,
    "pencil": _pencil_report,
    "regularize": _regularize_report,
    "billiard": _billiard_report,
    "plot": _plot_report,
}


def _load(args) -> Dataset:
    if args.data is None:
        raise UsageError("missing dataset path")
    cols = args.cols.split(",") if args.cols else None
    return parse_dataset(args.data, cols=cols, mass_col=args.mass_col)


def _run(args) -> tuple[dict | list, int]:
    handler = _HANDLERS[args.command]
    if args.batch is not None:
        try:
            with open(args.batch, encoding="utf-8") as handle:
                paths = [line.strip() for line in handle if line.strip()]
        except OSError as exc:
            raise UsageError(f"cannot read batch file: {exc}") from exc
        # one bad entry costs only its own report; a usage error anywhere
        # makes the run exit 1, else a domain error makes it exit 2
        reports: list[dict] = []
        code = 0
        for path in paths:
            args.data = path
            try:
                reports.append(handler(_load(args), args))
            except ConfocalFitError as exc:
                reports.append(_error_report(args.command, exc.code, exc))
                code = code or 2
            except (UsageError, ValueError) as exc:
                reports.append(_error_report(args.command, "usage-error", exc))
                code = 1
        return reports, code
    try:
        return handler(_load(args), args), 0
    except ConfocalFitError as exc:
        return _error_report(args.command, exc.code, exc), 2


def _error_report(command: str, code: str, exc: Exception) -> dict:
    return {
        "command": command,
        "error": {"code": code, "message": str(exc)},
        "warnings": [],
    }


def run_command(argv: list[str]) -> tuple[dict | list, int]:
    """Execute one CLI invocation; returns (report, exit_code)."""
    args = build_parser().parse_args(argv)
    return _run(args)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result, code = _run(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    text = rp.dumps(result)
    if args.out and args.command != "plot":
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
