"""Output checks computed apart from the program.

Every checker returns a list of problems (empty when the output is right)
and uses only numpy/scipy on the raw inputs: centred weighted scatters and
their ``eigh``, direct sums of squared distances, an independent secular
function, and search oracles for the regularized fit.  CLI reports carry
nine significant digits, so their tolerances come from that rounding.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPORT_EPS = 1e-8   # twice the relative rounding of a 9-significant-digit float
FEAS_TOL = 1e-6     # the program's own tolerance for an active bound
ORACLE_TOL = 1e-6
PUBLISHED_REL = 1e-3  # tolerance of the acceptance suite's headline numbers


@dataclass
class Cloud:
    values: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        m = self.masses
        self.mass = float(m.sum())
        # two passes: summing offsets from a sample point keeps the centroid
        # exact to rounding of the spread, not of the distance to the origin
        ref = self.values[0]
        self.center = ref + m @ (self.values - ref) / self.mass
        d = self.values - self.center
        self.scatter = (d * m[:, None]).T @ d
        self.moments, self.frame = np.linalg.eigh(self.scatter)
        self.poles = (2 * self.moments[0] - self.moments) / self.mass  # decreasing

    @property
    def k(self) -> int:
        return self.values.shape[1]

    @property
    def centroid_rounding(self) -> float:
        """How far a plain sum of the raw coordinates, as the program forms
        its centroid, can place it: about sqrt(N) eps |x|.  Far from the
        origin this moves the Jacobi coordinates of a point P by up to
        2 |P - c| times it (FOUND in CHANGES.md), which the checks allow."""
        n = len(self.values)
        return 8 * math.sqrt(n) * np.finfo(float).eps * float(np.abs(self.values).max())

    def scatter_about(self, p) -> np.ndarray:
        d = self.values - np.asarray(p, dtype=float)
        return (d * self.masses[:, None]).T @ d


def load_cloud(root: Path, entry: dict) -> Cloud:
    path = root / entry["path"]
    header = [h.strip() for h in path.read_text().splitlines()[0].split(",")]
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    cols = entry["cols"] or [h for h in header if h != entry["mass_col"]]
    values = raw[:, [header.index(c) for c in cols]]
    masses = (raw[:, header.index(entry["mass_col"])] if entry["mass_col"]
              else np.ones(len(raw)))
    return Cloud(values, masses)


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def plane_moment(cloud: Cloud, normal, offset, eps=0.0):
    """Hyperplanar moment of {x : <normal, x> = offset} and a bound on the
    change caused by a relative perturbation ``eps`` of every reported number."""
    n = np.asarray(normal, dtype=float)
    nn = float(np.linalg.norm(n))
    d = (cloud.values @ n - offset) / nn
    moment = float(cloud.masses @ (d * d))
    e = eps * ((np.abs(cloud.values) @ np.abs(n) + abs(offset)) / nn + np.abs(d))
    s2 = float(cloud.masses @ (e * e))
    return moment, 2 * math.sqrt(moment * s2) + s2


def jacobi_problems(cloud: Cloud, point, lambdas, degenerate, rel) -> list[str]:
    """Jacobi coordinates solve sum x_i^2/(p_i - lam) = 1 and interlace the poles.

    A non-degenerate coordinate passes when the independent secular function
    changes sign across ``lam -/+ h``, ``h = rel*(|lam| + spread)`` plus the
    centroid allowance; a degenerate one must sit on a pole.
    """
    lam = np.asarray(lambdas, dtype=float)
    deg = np.asarray(degenerate, dtype=bool)
    offset = np.asarray(point, dtype=float) - cloud.center
    slack = 2 * float(np.linalg.norm(offset)) * cloud.centroid_rounding
    x = cloud.frame.T @ offset
    poles = cloud.poles[::-1]  # ascending
    x2 = (x * x)[::-1]
    spread = float(poles[-1] - poles[0])
    out = []
    if lam.shape != poles.shape or np.any(np.diff(lam) < -rel * (np.abs(lam[1:]) + spread)):
        return [f"jacobi: expected {poles.size} ascending coordinates, got {lam.tolist()}"]
    active = np.ones(poles.size, dtype=bool)
    for value in lam[deg]:
        j = int(np.argmin(np.abs(poles - value)))
        if abs(poles[j] - value) > rel * (abs(value) + spread):
            out.append(f"jacobi: degenerate coordinate {value!r} is not a pole")
        active[j] = False
    a, w = poles[active], x2[active]
    free = lam[~deg]
    for i, value in enumerate(free):
        lo_pole = a[i - 1] if i > 0 else -math.inf
        h = rel * (abs(value) + spread) + slack
        if not (lo_pole - h <= value <= a[i] + h):
            out.append(f"jacobi: {value!r} does not interlace the poles {a.tolist()}")
            continue
        lo = max(value - h, lo_pole)
        hi = min(value + h, a[i])
        with np.errstate(divide="ignore"):
            f_lo = float(np.sum(w / (a - lo)) - 1.0) if lo > lo_pole else -math.inf
            f_hi = float(np.sum(w / (a - hi)) - 1.0) if hi < a[i] else math.inf
        if not (f_lo <= 0.0 <= f_hi):
            out.append(f"jacobi: {value!r} is not a root (f = {f_lo:.3g} .. {f_hi:.3g})")
    return out


def regularize_oracle(cloud: Cloud, norm: str, bound: float, seed: int) -> float:
    """Smallest moment found over unit normals n with the closed-form offset
    p = max(<n, c>, ||n||_q / bound); exact search for k = 2, an upper bound
    on the minimum from dense seeded sampling plus local descent for k >= 3."""
    from scipy.optimize import minimize, minimize_scalar

    c, s, m = cloud.center, cloud.scatter, cloud.mass

    def f(n):
        n = n / np.linalg.norm(n, axis=-1, keepdims=True)
        q = np.abs(n).sum(axis=-1) if norm == "l1" else np.ones(n.shape[:-1])
        nc = n @ c
        p = np.maximum(nc, q / bound)
        return np.einsum("...i,ij,...j->...", n, s, n) + m * (nc - p) ** 2

    if cloud.k == 2:
        theta = np.linspace(0.0, 2 * np.pi, 1 << 16, endpoint=False)
        values = f(np.stack([np.cos(theta), np.sin(theta)], axis=-1))
        step = theta[1]
        best = float(values.min())
        for t in theta[np.argsort(values)[:8]]:
            res = minimize_scalar(lambda u: float(f(np.array([np.cos(u), np.sin(u)]))),
                                  bounds=(t - step, t + step), method="bounded",
                                  options={"xatol": 1e-14})
            best = min(best, float(res.fun))
        return best
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(200_000, cloud.k))
    values = f(dirs)
    best = float(values.min())
    for n0 in dirs[np.argsort(values)[:6]]:
        res = minimize(lambda n: float(f(n)), n0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14 * best, "maxiter": 4000})
        best = min(best, float(res.fun))
    return best


def regularize_problems(cloud: Cloud, norm, bound, u, moment, oracle, eps=0.0) -> list[str]:
    u = np.asarray(u, dtype=float)
    size = float(np.abs(u).sum() if norm == "l1" else np.linalg.norm(u))
    out = []
    if size > bound * (1 + FEAS_TOL):
        out.append(f"regularize: ||u||_{norm[1]} = {size / bound:.9g} * bound, outside the ball")
    nu = float(np.linalg.norm(u))
    n, p = u / nu, 1.0 / nu
    r = (cloud.values - cloud.center) @ n + (n @ cloud.center - p)
    again = float(cloud.masses @ (r * r))
    if abs(again - moment) > (1e-6 + 4 * eps) * abs(again):
        out.append(f"regularize: reported moment {moment!r}, coefficients give {again!r}")
    if moment > oracle * (1 + ORACLE_TOL):
        out.append(f"regularize: moment {moment!r} above the oracle's {oracle!r}")
    return out


# ---------------------------------------------------------------------------
# query-field
# ---------------------------------------------------------------------------

def query_problems(cloud: Cloud, point, out: dict) -> list[str]:
    """Point-inertia duality and the restricted flats through ``point``."""
    p = np.asarray(point, dtype=float)
    k = cloud.k
    sp = cloud.scatter_about(p)
    mu = np.linalg.eigvalsh(sp)
    tol = (1e-9 * float(np.abs(mu).max())
           + 2 * cloud.mass * float(np.linalg.norm(p - cloud.center)) * cloud.centroid_rounding)
    problems = []
    lam = np.asarray(out["lambdas"], dtype=float)
    dual = np.sort(2 * cloud.moments[0] - cloud.mass * lam)
    if lam.shape != (k,) or not _close(dual, mu, tol):
        problems.append(f"duality: 2 J1 - m lambda = {dual.tolist()}, eig = {mu.tolist()}")
    if not _close(out["pca_moments"], mu, tol):
        problems.append("pca: moments differ from the eigenvalues of the scatter about P")
    d = np.asarray(out["pca_directions"], dtype=float)
    if not _close(sp @ d - d * mu, 0.0, tol) or not _close(d.T @ d, np.eye(k), 1e-9):
        problems.append("pca: directions are not orthonormal eigenvectors")
    if not np.array_equal(out["pca_lambdas"], lam):
        problems.append("pca: Jacobi coordinates differ from jacobi_coordinates")
    if len(out["flats"]) != 2 * (k - 1):
        return problems + ["flats: expected a best and a worst flat for every ell"]
    for ell in range(1, k):
        for role, entry in zip(("best", "worst"), out["flats"][2 * (ell - 1): 2 * ell]):
            want = float(mu[: k - ell].sum() if role == "best" else mu[ell:].sum())
            kind, a, b, moment = entry
            if kind == "plane":
                n = np.asarray(a, dtype=float)
                through = abs(float(n @ p) - b) <= 1e-12 * (np.abs(n) @ np.abs(p) + 1.0) * 16
                dist = (cloud.values - p) @ n + (float(n @ p) - b)
            else:
                basis = np.asarray(b, dtype=float)
                through = _close(a, p, 1e-12 * (np.abs(p).max() + 1.0) * 16)
                rel = cloud.values - p
                dist = rel - (rel @ basis) @ basis.T
            again = float(cloud.masses @ (dist * dist if dist.ndim == 1
                                          else np.sum(dist * dist, axis=1)))
            if not through:
                problems.append(f"flats: {role} {ell}-flat misses P")
            if abs(again - want) > tol * (k - ell) or abs(moment - want) > tol * (k - ell):
                problems.append(f"flats: {role} {ell}-flat moment {moment!r} / {again!r}, "
                                f"eigenvalues give {want!r}")
    return problems


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

# Published values of the two worked examples (tests/test_acceptance.py).
PUBLISHED = {
    "data/cells.csv": {"center": [12.7374, 3.5748], "principal_moments": [0.69605, 65.19978],
                       "poles": [0.13921, -12.76154]},
    "data/forbes.csv": {"center": [202.9529, 25.05882],
                        "principal_moments": [0.63839, 676.08147],
                        "poles": [0.037552, -39.69441]},
}


def _line(fit):
    n0, n1 = fit["normal"]
    return -n0 / n1, fit["offset"] / n1


def _rel(actual, expected, what, tol=PUBLISHED_REL):
    ok = all(abs(a - e) <= tol * abs(e) for a, e in zip(actual, expected))
    return [] if ok else [f"published {what}: {actual} vs {expected}"]


def published_problems(argv, report) -> list[str]:
    path = argv[1]
    if path not in PUBLISHED or "pencil" not in report:
        return []
    want = PUBLISHED[path]
    pen = report["pencil"]
    out = []
    for key in ("center", "principal_moments", "poles"):
        out += _rel(pen[key], want[key], key)
    command = argv[0]
    has_through = _option(argv, "--through") is not None
    if path == "data/cells.csv":
        if "jacobi" in report:
            out += _rel(report["jacobi"]["lambdas"], [-186.907, -0.73589], "jacobi")
        if command in ("fit", "plot") and has_through:
            slope, intercept = _line(report["fits"][0])
            out += _rel([slope], [0.30014], "restricted best slope")
            if abs(intercept) >= 1e-9:
                out.append(f"published restricted best intercept: {intercept}")
            if command == "fit":
                out += _rel([_line(report["fits"][1])[0]], [-3.331376], "restricted worst slope")
        elif command == "fit":
            out += _rel(_line(report["fits"][0]), [0.60793, -4.16865], "best line")
            out += _rel(_line(report["fits"][1]), [-1.64493, 24.52689], "worst line")
        if command == "pca":
            out += _rel(report["pca"]["moments"], [5.071564, 935.9271], "pca moments")
        if command == "test-point":
            out += _rel([report["test"]["statistic"]], [5.071564], "test statistic")
            if abs(report["test"]["p_value"] - 0.00043) > 2e-5:
                out.append(f"published p value: {report['test']['p_value']}")
    else:
        if command == "pencil" and "jacobi" in report:
            out += _rel(report["jacobi"]["lambdas"], [-42.0876, 0.007398], "jacobi")
        if command == "directional" and has_through:
            fit = report["fits"][0]
            out += _rel(_line(fit), [0.5141352, -79.0982450], "restricted line")
            out += _rel([fit["moment"]], [1.455877], "restricted moment")
            out += _rel([report["test"]["statistic"]], [11.85647], "F statistic")
            if abs(report["test"]["p_value"] - 0.003621119) > 1e-5:
                out.append(f"published F p value: {report['test']['p_value']}")
    return out


def _option(argv, name):
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def _vector(text):
    return np.array([float(t) for t in text.split(",")])


def report_problems(argv, text, cloud: Cloud, validator, svg_bytes=None) -> list[str]:
    """Check one CLI report (``text``) produced by ``confocalfit <argv>``."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    out = [f"schema: {err.message}" for err in validator.iter_errors(report)]
    if out or "error" in report:
        return out or [f"error report: {report['error']}"]
    scale = float(np.trace(cloud.scatter)) + float(cloud.moments.max())
    pen = report.get("pencil")
    if pen is not None:
        tol = REPORT_EPS * np.abs(cloud.moments).max()
        if not _close(pen["principal_moments"], cloud.moments, tol):
            out.append(f"pencil: moments {pen['principal_moments']} vs {cloud.moments.tolist()}")
        if not _close(pen["poles"], cloud.poles, REPORT_EPS * np.abs(cloud.poles).max()):
            out.append(f"pencil: poles {pen['poles']} vs {cloud.poles.tolist()}")
        if not _close(pen["center"], cloud.center, REPORT_EPS * np.abs(cloud.center).max()):
            out.append("pencil: center is not the weighted centroid")
    command = argv[0]
    direction = _vector(_option(argv, "--dir")) if command == "directional" else None
    for fit in report.get("fits", []):
        if fit["normal"] is None:
            continue
        moment, slack = plane_moment(cloud, fit["normal"], fit["offset"], REPORT_EPS)
        if direction is not None:
            n = np.asarray(fit["normal"], dtype=float)
            cos2 = float(direction @ n) ** 2 / float(direction @ direction) / float(n @ n)
            moment, slack = moment / cos2, slack / cos2 + 4 * REPORT_EPS * moment / cos2
        if abs(moment - fit["moment"]) > slack + REPORT_EPS * abs(moment) + 1e-12 * scale:
            out.append(f"fit: {fit['role']} moment {fit['moment']!r}, plane gives {moment!r}")
    jac = report.get("jacobi")
    if jac is not None:
        # the report rounds the point to nine digits; the command line has it exactly
        given = next(filter(None, (_option(argv, o) for o in ("--through", "--at", "--jacobi"))))
        out += jacobi_problems(cloud, _vector(given), jac["lambdas"], jac["degenerate"],
                               REPORT_EPS)
    if command == "pca":
        mu = np.linalg.eigvalsh(cloud.scatter_about(_vector(_option(argv, "--at"))))
        if not _close(report["pca"]["moments"], mu, REPORT_EPS * mu.max()):
            out.append(f"pca: moments {report['pca']['moments']} vs {mu.tolist()}")
    if command == "regularize":
        block = report["regularize"]
        oracle = regularize_oracle(cloud, block["norm"], block["bound"], 0)
        out += regularize_problems(cloud, block["norm"], block["bound"], block["coefficients"],
                                   block["moment"], oracle, REPORT_EPS)
    if command == "billiard":
        out += billiard_problems(cloud, float(_option(argv, "--member")), report["billiard"])
    if command == "plot":
        try:
            root = ET.fromstring(svg_bytes or b"")
        except ET.ParseError as exc:
            out.append(f"svg: not XML: {exc}")
        else:
            if not root.tag.endswith("svg"):
                out.append(f"svg: root element is {root.tag}")
    return out + published_problems(argv, report)


def billiard_problems(cloud: Cloud, member: float, block: dict) -> list[str]:
    """Rays stay on the member and conserve the Joachimsthal quantity
    F = <x,v>_A^2 - <v,v>_A (<x,x>_A - 1), with <a,b>_A = sum a_i b_i / A_i."""
    axes = cloud.poles - member
    values = []
    out = []
    for i, ray in enumerate(block["rays"]):
        x = cloud.frame.T @ (np.asarray(ray["point"]) - cloud.center)
        v = cloud.frame.T @ np.asarray(ray["direction"])
        xx, xv, vv = np.sum(x * x / axes), np.sum(x * v / axes), np.sum(v * v / axes)
        values.append(xv * xv - vv * (xx - 1.0))
        if i > 0 and abs(xx - 1.0) > 1e-6:
            out.append(f"billiard: bounce {i} is off the member ({xx!r})")
    ref = values[0]
    if any(abs(f - ref) > 1e-6 * abs(ref) for f in values):
        out.append(f"billiard: Joachimsthal quantity drifts {min(values)!r} .. {max(values)!r}")
    if "joachimsthal" in block and abs(block["joachimsthal"] - ref) > 1e-6 * abs(ref):
        out.append(f"billiard: reported Joachimsthal {block['joachimsthal']!r} vs {ref!r}")
    if len(block["rays"]) != block["bounces"] + 1:
        out.append("billiard: wrong number of rays")
    return out


def schema_validator(root: Path):
    import jsonschema

    schema = json.loads((root / "src" / "confocalfit" / "report_schema.json").read_text())
    return jsonschema.Draft7Validator(schema)
