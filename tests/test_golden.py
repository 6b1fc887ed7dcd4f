"""Golden reports: the README commands reproduce their JSON reports byte for byte.

Each command runs through ``main`` in a scratch directory holding a copy of
``data/``, so the dataset paths in the reports read as in the README.  The
``plot`` command also writes its SVG, which is compared too, and the printed
output of ``scripts/run_worked_examples.py`` is pinned as
``worked_examples.txt``.  When a change moves a digit on purpose, regenerate
the files with

    PYTHONPATH=src python tests/test_golden.py

and list the moved digit, with a high-precision reference, in CHANGES.md.
"""

import contextlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
