"""Self-check of the checkers: right answers pass, deliberately wrong ones fail.

    python3 perfbench/selfcheck.py

Right answers are built here with numpy alone (the cells example), so the
check needs no program.  ``run.py`` calls ``self_check()`` before every run
and refuses to measure when a checker has gone blind.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

CELLS = {"path": "data/cells.csv", "cols": ["X", "Y"], "mass_col": None}


def _jacobi(cloud, p):
    mu = np.linalg.eigvalsh(cloud.scatter_about(p))
    return np.sort((2 * cloud.moments[0] - mu) / cloud.mass)


def _query_answer(cloud, p):
    sp = cloud.scatter_about(p)
    mu, vecs = np.linalg.eigh(sp)
    lam = _jacobi(cloud, p)
    normal_best, normal_worst = vecs[:, 0], vecs[:, -1]
    return {"flats": [("plane", normal_best, float(normal_best @ p), float(mu[0])),
                      ("plane", normal_worst, float(normal_worst @ p), float(mu[-1]))],
            "pca_moments": mu, "pca_directions": vecs, "pca_lambdas": lam,
            "lambdas": lam, "degenerate": np.zeros(2, dtype=bool)}


def _pencil_report(cloud, p):
    return {
        "command": "pencil",
        "dataset": {"n": 5, "k": 2, "path": CELLS["path"]},
        "pencil": {"center": cloud.center.tolist(), "frame": cloud.frame.tolist(),
                   "poles": cloud.poles.tolist(),
                   "principal_moments": cloud.moments.tolist(), "mass": cloud.mass},
        "jacobi": {"point": list(p), "point_principal": (cloud.frame.T @ (p - cloud.center)).tolist(),
                   "lambdas": _jacobi(cloud, p).tolist(), "degenerate": [False, False]},
        "warnings": [],
    }


def _fit_report(cloud):
    fits = []
    for role, i in (("best", 0), ("worst", 1)):
        n = cloud.frame[:, i] * np.sign(cloud.frame[0, i])
        fits.append({"role": role, "moment": float(cloud.moments[i]), "normal": n.tolist(),
                     "offset": float(n @ cloud.center),
                     "basis": [[float(-n[1]), float(n[0])]]})
    report = _pencil_report(cloud, np.zeros(2))
    report.update(command="fit", fits=fits)
    del report["jacobi"]
    return report


def _billiard(cloud, member, start, direction, bounces):
    """Reflections in the member's ellipse, written here from scratch."""
    axes = cloud.poles - member
    x = cloud.frame.T @ (np.asarray(start) - cloud.center)
    v = cloud.frame.T @ np.asarray(direction)
    rays = [(x, v)]
    for _ in range(bounces):
        a, b, c = np.sum(v * v / axes), 2 * np.sum(x * v / axes), np.sum(x * x / axes) - 1
        t = (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)
        x = x + t * v
        nrm = x / axes / np.linalg.norm(x / axes)
        v = v - 2 * (v @ nrm) * nrm
        rays.append((x, v))
    return {"member": member, "bounces": bounces, "rays": [
        {"point": (cloud.center + cloud.frame @ x).tolist(),
         "direction": (cloud.frame @ v).tolist()} for x, v in rays]}


def self_check(root: Path = HERE.parent) -> list[str]:
    """Names of the checks that accepted a wrong answer or rejected a right one."""
    cloud = checks.load_cloud(root, CELLS)
    validator = checks.schema_validator(root)
    p = np.array([0.0, 0.0])
    broken = []

    def expect(name, problems, wrong):
        if bool(problems) != wrong:
            broken.append(f"{name}: {'accepted' if wrong else 'rejected'} ({problems})")

    answer = _query_answer(cloud, p)
    expect("query-field right answer", checks.query_problems(cloud, p, answer), False)
    shifted = dict(answer, lambdas=answer["lambdas"] * np.array([1.0, 1.0 + 1e-6]))
    expect("query-field shifted Jacobi coordinate", checks.query_problems(cloud, p, shifted), True)
    moved = dict(answer, flats=[("plane", answer["flats"][0][1], answer["flats"][0][2] + 1e-3,
                                 answer["flats"][0][3])] + answer["flats"][1:])
    expect("query-field plane missing P", checks.query_problems(cloud, p, moved), True)

    report = _pencil_report(cloud, p)
    argv = ["pencil", CELLS["path"], "--cols", "X,Y", "--jacobi", "0,0"]
    expect("pencil report right answer",
           checks.report_problems(argv, json.dumps(report), cloud, validator), False)
    bad = json.loads(json.dumps(report))
    bad["jacobi"]["lambdas"][1] *= 1 + 1e-6
    expect("pencil report shifted Jacobi coordinate",
           checks.report_problems(argv, json.dumps(bad), cloud, validator), True)
    bad = json.loads(json.dumps(report))
    bad["jacobi"]["lambdas"] = bad["jacobi"]["lambdas"][::-1]
    expect("pencil report non-interlacing coordinates",
           checks.report_problems(argv, json.dumps(bad), cloud, validator), True)
    bad = json.loads(json.dumps(report))
    bad["pencil"]["poles"][0] *= 1.0001
    expect("pencil report perturbed pole",
           checks.report_problems(argv, json.dumps(bad), cloud, validator), True)
    bad = json.loads(json.dumps(report))
    del bad["warnings"]
    expect("report schema", checks.report_problems(argv, json.dumps(bad), cloud, validator), True)

    fit = _fit_report(cloud)
    argv = ["fit", CELLS["path"], "--cols", "X,Y"]
    expect("fit report right answer",
           checks.report_problems(argv, json.dumps(fit), cloud, validator), False)
    bad = json.loads(json.dumps(fit))
    bad["fits"][0]["moment"] *= 1.001
    expect("fit report perturbed moment",
           checks.report_problems(argv, json.dumps(bad), cloud, validator), True)
    bad = json.loads(json.dumps(fit))
    bad["fits"][0]["normal"] = [0.6, -0.8]
    bad["fits"][0]["moment"] = checks.plane_moment(cloud, [0.6, -0.8], bad["fits"][0]["offset"])[0]
    expect("fit report off the published line",
           checks.published_problems(argv, bad), True)

    block = _billiard(cloud, -20.0, [12.7, 3.6], [0.6, 0.8], 12)
    expect("billiard right answer", checks.billiard_problems(cloud, -20.0, block), False)
    block["rays"][5]["direction"] = (np.asarray(block["rays"][5]["direction"])
                                     @ np.array([[np.cos(1e-4), -np.sin(1e-4)],
                                                 [np.sin(1e-4), np.cos(1e-4)]])).tolist()
    expect("billiard turned ray", checks.billiard_problems(cloud, -20.0, block), True)

    svg_argv = ["plot", CELLS["path"], "--cols", "X,Y", "--out", "x.svg"]
    plot = dict(_fit_report(cloud), command="plot")
    expect("svg not XML", checks.report_problems(svg_argv, json.dumps(plot), cloud, validator,
                                                 b"<svg><g></svg>"), True)

    # regularized fit: the unconstrained optimum is feasible for a large bound
    n = cloud.frame[:, 0]
    u = n / (n @ cloud.center)
    bound = 2 * float(np.linalg.norm(u))
    oracle = checks.regularize_oracle(cloud, "l2", bound, 0)
    expect("regularize right answer",
           checks.regularize_problems(cloud, "l2", bound, u, cloud.moments[0], oracle), False)
    expect("regularize perturbed moment",
           checks.regularize_problems(cloud, "l2", bound, u, cloud.moments[0] * 1.001, oracle),
           True)
    expect("regularize outside the ball",
           checks.regularize_problems(cloud, "l2", 0.99 * float(np.linalg.norm(u)), u,
                                      cloud.moments[0], oracle), True)
    worse = u + 1e-3 * cloud.frame[:, 1] * float(np.linalg.norm(u))
    r = (cloud.values @ worse - 1.0) / np.linalg.norm(worse)
    expect("regularize above the oracle",
           checks.regularize_problems(cloud, "l2", bound, worse, float(cloud.masses @ r**2),
                                      oracle), True)
    return broken


if __name__ == "__main__":
    failures = self_check()
    for line in failures:
        print(line)
    print("self-check:", "FAILED" if failures else "every checker rejects its wrong answer")
    raise SystemExit(1 if failures else 0)
