"""Golden reports: the README commands reproduce their JSON reports byte for byte.

Each command runs through ``main`` in a scratch directory holding a copy of
``data/``, so the dataset paths in the reports read as in the README.  The
``plot`` command also writes its SVG, which is compared too, and the printed
output of ``scripts/run_worked_examples.py`` is pinned as
``worked_examples.txt``.  The ``pencil`` block of each report is also checked
against the exact pencil of its CSV rows.  When a change moves a digit on
purpose, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and list the moved digit, with a high-precision reference, in CHANGES.md.
"""

import contextlib
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from confocalfit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# the ten commands of the README's "Command line" section
COMMANDS = {
    "fit": ["fit", "data/cells.csv", "--cols", "X,Y"],
    "fit-through": ["fit", "data/cells.csv", "--cols", "X,Y", "--through", "0,0"],
    "pca": ["pca", "data/cells.csv", "--cols", "X,Y", "--at", "0,0"],
    "directional": ["directional", "data/forbes.csv", "--dir", "0,1"],
    "directional-through": [
        "directional", "data/forbes.csv", "--dir", "0,1", "--through", "201.5,24.5"
    ],
    "test-point": [
        "test-point", "data/cells.csv", "--cols", "X,Y", "--at", "0,0",
        "--error-cov", "0.25,0,0.25",
    ],
    "pencil": ["pencil", "data/forbes.csv", "--jacobi", "201.5,24.5"],
    "regularize": [
        "regularize", "data/cells.csv", "--cols", "X,Y", "--norm", "l1", "--bound", "0.1"
    ],
    "billiard": [
        "billiard", "data/cells.csv", "--cols", "X,Y", "--member", "-20",
        "--start", "12.7,3.6", "--dir", "0.6,0.8", "--bounces", "12",
    ],
    "plot": [
        "plot", "data/cells.csv", "--cols", "X,Y", "--through", "0,0",
        "--out", "figure.svg",
    ],
}


def _render(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one command in ``workdir``; map golden file names to produced bytes."""
    shutil.copytree(ROOT / "data", workdir / "data", dirs_exist_ok=True)
    argv = list(COMMANDS[name])
    if name != "plot":
        argv += ["--out", "report.json"]
    cwd = os.getcwd()
    os.chdir(workdir)  # contextlib.chdir needs Python 3.11
    try:
        with open("stdout.txt", "w", encoding="utf-8", newline="\n") as out:
            with contextlib.redirect_stdout(out):
                code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, name
    if name == "plot":
        return {
            "plot.json": (workdir / "stdout.txt").read_bytes(),
            "plot.svg": (workdir / "figure.svg").read_bytes(),
        }
    return {f"{name}.json": (workdir / "report.json").read_bytes()}


def _worked_examples() -> bytes:
    script = ROOT / "scripts" / "run_worked_examples.py"
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, check=True, timeout=120
    ).stdout


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_matches_golden(name, tmp_path):
    for filename, produced in _render(name, tmp_path).items():
        assert produced == (GOLDEN / filename).read_bytes(), filename


def test_worked_examples_match_golden():
    assert _worked_examples() == (GOLDEN / "worked_examples.txt").read_bytes()


def _rounds_from(printed: float, lo, hi) -> bool:
    """``printed`` is the 9-significant-digit rounding of some value in [lo, hi]."""
    return float(f"{float(lo):.9g}") <= printed <= float(f"{float(hi):.9g}")


@pytest.mark.parametrize(
    "name", [n for n in sorted(COMMANDS) if '"pencil"' in (GOLDEN / f"{n}.json").read_text()]
)
def test_pencil_block_rounds_the_exact_pencil(name, tmp_path):
    # the centre, principal moments, poles, mass and frame recomputed from the
    # CSV's rows by the oracle: each printed value must round some value
    # within tau |ref| of the reference (tau absolute for the unit frame)
    tau = 1e-13
    report = json.loads(_render(name, tmp_path)[f"{name}.json"])
    argv = COMMANDS[name]
    with open(ROOT / report["dataset"]["path"], newline="", encoding="utf-8") as f:
        header, *cells = csv.reader(f)
    cols = argv[argv.index("--cols") + 1].split(",") if "--cols" in argv else header
    rows = [[float(row[header.index(c)]) for c in cols] for row in cells]
    masses = [1.0] * len(rows)
    center = oracle.centroid(rows, masses)
    moments, axes = oracle.eigen(oracle.scatter(rows, masses, center))
    mass = sum(masses)
    poles = [(2 * moments[0] - j) / mass for j in moments]
    block = report["pencil"]
    for key, refs in (("center", center), ("principal_moments", moments), ("poles", poles)):
        for got, ref in zip(block[key], refs, strict=True):
            assert _rounds_from(got, ref - tau * abs(ref), ref + tau * abs(ref)), (key, got)
    assert block["mass"] == mass
    for j, axis in enumerate(axes):
        # the report's sign: the first non-negligible component positive
        sign = 1 if next(v for v in axis if abs(v) > 1e-12) > 0 else -1
        for row, ref in zip(block["frame"], axis, strict=True):
            assert _rounds_from(row[j], sign * ref - tau, sign * ref + tau), ("frame", j, row[j])


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for command in sorted(COMMANDS):
        with tempfile.TemporaryDirectory() as scratch:
            for filename, produced in _render(command, Path(scratch)).items():
                (GOLDEN / filename).write_bytes(produced)
                print(filename)
    (GOLDEN / "worked_examples.txt").write_bytes(_worked_examples())
    print("worked_examples.txt")
