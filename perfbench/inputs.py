"""Seeded inputs of every workload, generated once and cached on disk.

``prepare(root, workload, seed)`` returns the workload's manifest: the CSV
files the program loads (with their columns), the query points or bound
grid, and the command lines.  Files live in ``perfbench/_inputs/<workload>/
seed-<n>-<hash>/``, where the hash is that of this file, so a changed
generator never reuses stale inputs; the same seed always gives
byte-identical files, and a cached manifest is reused as is.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

# README commands on the shipped datasets, one process each (cli-examples).
EXAMPLE_COMMANDS = [
    "fit data/cells.csv --cols X,Y",
    "fit data/cells.csv --cols X,Y --through 0,0",
    "pca data/cells.csv --cols X,Y --at 0,0",
    "directional data/forbes.csv --dir 0,1 --through 201.5,24.5",
    "test-point data/cells.csv --cols X,Y --at 0,0 --error-cov 0.25,0,0.25",
    "pencil data/forbes.csv --jacobi 201.5,24.5",
    "regularize data/cells.csv --cols X,Y --norm l1 --bound 0.1",
    "regularize data/cells.csv --cols X,Y --norm l2 --bound 0.1",
    "billiard data/cells.csv --cols X,Y --member -20 --start 12.7,3.6 --dir 0.6,0.8 --bounces 12",
    "plot data/cells.csv --cols X,Y --through 0,0 --out {out}/plot.svg",
]
CELLS = {"name": "cells", "path": "data/cells.csv", "cols": ["X", "Y"], "mass_col": None}
FORBES = {"name": "forbes", "path": "data/forbes.csv", "cols": None, "mass_col": None}

LARGE_ROWS = 200_000
QUERY_SETS = {"large": (10_000, 3), "small": (200, 6)}
# per set: this many generic points, half as many on principal hyperplanes
# and half as many far outside
QUERY_GENERIC = 12
OFFSET = 1e6
SHIFT = 1e3

# constrained_fit grid.  The four shipped/shifted sets do not depend on the
# seed, so the failures they show repeat exactly; the seeded sets use bounds
# at which the solver succeeds on every seed (see README).  The 36 calls
# fall into 4 that fail at once, 18 of 20-80 ms (13 of them of 35-45 ms)
# and 14 of 0.2-1.3 s.  The median sits among the 35-45 ms calls: when it
# fell in the gap between the groups (on the lowest slow call, or on the
# edge of the fast group) it moved by a sixth to a third between runs.
SHIPPED_GRID = [("l2", 0.1), ("l2", 0.01), ("l2", 1e-3),
                ("l1", 0.1), ("l1", 0.01), ("l1", 1e-3), ("l1", 1e-4)]
SHIFTED_GRID = [("l2", 0.1), ("l2", 1e-3), ("l1", 1e-4), ("l2", 1.0), ("l1", 1.0)]
SEEDED_GRID = [("l2", 0.1), ("l2", 1e-3), ("l1", 0.01), ("l1", 0.03)]
SEEDED_DIMS = (2, 3, 4)
SEEDED_ROWS = 60


GENERATOR_HASH = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:10]


def directory(root: Path, workload: str, seed: int) -> Path:
    return root / "perfbench" / "_inputs" / workload / f"seed-{seed}-{GENERATOR_HASH}"


def prepare(root: Path, workload: str, seed: int) -> dict:
    target = directory(root, workload, seed)
    base = target.parent
    manifest_path = target / "manifest.json"
    if manifest_path.exists():
        return json.loads(manifest_path.read_text())
    # one seed's files at a time: the large CSV is 11 MB
    if base.exists():
        shutil.rmtree(base)
    tmp = base / f".tmp-{seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    rel = target.relative_to(root).as_posix()
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    manifest = _GENERATORS[workload](root, tmp, rel, rng)
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1))
    tmp.rename(target)
    return manifest


def _cloud(rng, n, k, spread, center):
    """n points with principal standard deviations ``spread`` exactly."""
    z = rng.normal(size=(n, k))
    z -= z.mean(axis=0)
    z = z @ np.linalg.inv(np.linalg.cholesky(z.T @ z / n)).T
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return (z * spread) @ q.T + center


def _write_csv(path: Path, header, columns, fmt) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        np.savetxt(handle, np.column_stack(columns), fmt=fmt, delimiter=",")


def _point_text(p) -> str:
    return ",".join(repr(float(x)) for x in p)


def _frame(values, masses):
    """Centroid and principal axes (ascending moments) of a weighted cloud."""
    c = masses @ values / masses.sum()
    d = values - c
    _, vecs = np.linalg.eigh((d * masses[:, None]).T @ d)
    return c, vecs


def _cli_examples(root, tmp, rel, rng):
    out = "perfbench/_out"
    return {
        "load": [CELLS, FORBES],
        "commands": [cmd.format(out=out).split() for cmd in EXAMPLE_COMMANDS],
    }


def _cli_large(root, tmp, rel, rng):
    k = 3
    spread = np.array([1.0, 2.5, 6.0])
    center = np.array([1e6, -2e6, 3e6]) + rng.uniform(-1e3, 1e3, size=k)
    values = _cloud(rng, LARGE_ROWS, k, spread, center)
    masses = rng.uniform(0.5, 2.0, size=LARGE_ROWS)
    _write_csv(tmp / "large.csv", ["a", "b", "c", "mass"],
               [values, masses], ["%.6f"] * k + ["%.4f"])
    data = {"name": "large", "path": f"{rel}/large.csv", "cols": ["a", "b", "c"],
            "mass_col": "mass"}
    near = [np.round(center + rng.normal(size=k) * spread, 6) for _ in range(3)]
    w = rng.normal(size=k)
    w = np.round(w / np.linalg.norm(w), 6)
    common = [data["path"], "--cols", "a,b,c", "--mass-col", "mass"]
    return {
        "load": [data],
        "commands": [
            # "--opt=value": a negative first coordinate would read as an option
            ["fit", *common, "--through=" + _point_text(near[0])],
            ["pca", *common, "--at=" + _point_text(near[1])],
            ["pencil", *common, "--jacobi=" + _point_text(near[2])],
            ["directional", *common, "--dir=" + _point_text(w)],
        ],
    }


def _query_field(root, tmp, rel, rng):
    sets, queries = [], []
    for name, (n, k) in QUERY_SETS.items():
        spread = np.geomspace(1.0, 4.0 if k == 3 else 5.0, k)
        values = _cloud(rng, n, k, spread, rng.uniform(-20, 20, size=k))
        masses = rng.uniform(0.5, 2.0, size=n) if name == "large" else np.ones(n)
        cols = [f"x{i}" for i in range(k)]
        generic = [rng.normal(size=k) * 1.5 for _ in range(QUERY_GENERIC)]
        far = [rng.normal(size=k) for _ in range(QUERY_GENERIC // 2)]
        far = [30.0 * spread[-1] * v / np.linalg.norm(v) for v in far]
        variants = [(name, 0.0)] + ([(f"{name}+1e6", OFFSET)] if name == "large" else [])
        for label, offset in variants:
            path = tmp / f"{label}.csv"
            _write_csv(path, cols + ["m"], [values + offset, masses], "%.17g")
            loaded = np.loadtxt(path, delimiter=",", skiprows=1)
            c, vecs = _frame(loaded[:, :k], loaded[:, k])
            points = [c + vecs @ (g * spread) for g in generic]
            for i in range(QUERY_GENERIC // 2):
                x = generic[i] * spread
                x[i % k] = 0.0  # on a principal hyperplane: degenerate coordinate
                points.append(c + vecs @ x)
            points += [c + v for v in far]
            sets.append({"name": label, "path": f"{rel}/{label}.csv", "cols": cols,
                         "mass_col": "m"})
            queries.append([[float(x) for x in p] for p in points])
    return {"load": sets, "queries": queries}


def _regularize_path(root, tmp, rel, rng):
    sets = [CELLS, FORBES]
    for shipped in (CELLS, FORBES):
        raw = np.loadtxt(root / shipped["path"], delimiter=",", skiprows=1, ndmin=2)
        header = (root / shipped["path"]).read_text().splitlines()[0].split(",")
        cols = shipped["cols"] or header
        values = raw[:, [header.index(c) for c in cols]] + SHIFT
        label = f"{shipped['name']}+1e3"
        _write_csv(tmp / f"{label}.csv", cols, [values], "%.17g")
        sets.append({"name": label, "path": f"{rel}/{label}.csv", "cols": cols,
                     "mass_col": None})
    for k in SEEDED_DIMS:
        # a fixed base cloud per k, moved by seeded noise of 2 % of its
        # spread: the numbers change with the seed, the solver's cost (which
        # swings tenfold between unrelated clouds) hardly does
        spread = np.geomspace(1.0, 4.0, k)
        values = _cloud(np.random.default_rng([k, 2209]), SEEDED_ROWS, k, spread,
                        np.full(k, 10.0))
        values += 0.02 * spread * rng.normal(size=(SEEDED_ROWS, k))
        cols = [f"x{i}" for i in range(k)]
        label = f"seeded-k{k}"
        _write_csv(tmp / f"{label}.csv", cols, [values], "%.17g")
        sets.append({"name": label, "path": f"{rel}/{label}.csv", "cols": cols,
                     "mass_col": None})
    cases = []
    for index, entry in enumerate(sets):
        grid = (SHIPPED_GRID if index < 2 else SHIFTED_GRID if index < 4 else SEEDED_GRID)
        cases += [[index, norm, bound] for norm, bound in grid]
    return {"load": sets, "cases": cases}


_GENERATORS = {
    "cli-examples": _cli_examples,
    "cli-large": _cli_large,
    "query-field": _query_field,
    "regularize-path": _regularize_path,
}
WORKLOADS = tuple(_GENERATORS)


if __name__ == "__main__":
    import sys

    # python3 perfbench/inputs.py WORKLOAD SEED: generate (or reuse) and print the manifest
    name, seed = sys.argv[1], int(sys.argv[2])
    print(json.dumps(prepare(Path(__file__).resolve().parent.parent, name, seed), indent=1))
