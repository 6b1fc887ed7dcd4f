"""CSV ingestion, CLI commands, JSON reports and their schema."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from confocalfit import cli, pencil
from confocalfit.cli import UsageError, main, run_command
from confocalfit.dataset import parse_dataset
from confocalfit.errors import EmptyDataset, ParseError
from confocalfit.regularize import L1_MAX_DIM
from confocalfit.report import load_schema

from test_geometry import _record_calls

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
CELLS = str(DATA / "cells.csv")
FORBES = str(DATA / "forbes.csv")

SCHEMA = load_schema()


def run_ok(argv):
    report, code = run_command(argv)
    assert code == 0, report
    # validate the serialized form: exactly what the CLI prints
    from confocalfit.report import dumps

    jsonschema.validate(json.loads(dumps(report)), SCHEMA)
    return report


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_cells_selected_columns():
    ds = parse_dataset(CELLS, cols=["X", "Y"])
    assert ds.n_rows == 5 and ds.n_cols == 2
    assert ds.columns == ("X", "Y")
    assert ds.values[0, 0] == pytest.approx(18.358)


def test_parse_forbes_defaults():
    ds = parse_dataset(FORBES)
    assert ds.n_rows == 17 and ds.n_cols == 2


def test_parse_error_names_the_cell(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(ParseError, match=r"row 3, column 'b'"):
        parse_dataset(str(bad))


def test_parse_rejects_nan_and_inf(tmp_path):
    nan = tmp_path / "nan.csv"
    nan.write_text("a,b\n1,nan\n")
    with pytest.raises(ParseError):
        parse_dataset(str(nan))
    inf = tmp_path / "inf.csv"
    inf.write_text("a,b\n1,inf\n")
    with pytest.raises(ParseError):
        parse_dataset(str(inf))


def test_parse_empty_dataset(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n")
    with pytest.raises(EmptyDataset):
        parse_dataset(str(empty))


def test_parse_mass_column(tmp_path):
    f = tmp_path / "mass.csv"
    f.write_text("x,y,w\n0,0,1\n1,0,2\n0,1,3\n")
    ds = parse_dataset(str(f), mass_col="w")
    assert ds.columns == ("x", "y")
    assert np.allclose(ds.masses, [1, 2, 3])
    f.write_text("x,y,w\n0,0,1\n1,0,-2\n")
    with pytest.raises(ParseError):
        parse_dataset(str(f), mass_col="w")


def test_point_set_reuses_the_dataset_arrays(tmp_path):
    f = tmp_path / "mass.csv"
    f.write_text("x,y,w\n0,0,1\n1,0,2\n0,1,3\n")
    ds = parse_dataset(str(f), mass_col="w")
    ps = ds.point_set()
    assert np.shares_memory(ps.coords, ds.values)
    assert np.shares_memory(ps.masses, ds.masses)


def test_duplicated_header_name_is_a_parse_error(tmp_path):
    # with --cols, picking either 'a' would be a guess; without it, the two
    # copies would make the set rank-deficient and hide the real cause
    f = tmp_path / "dup.csv"
    f.write_text("a,a,b\n1,2,3\n4,5,7\n2,9,1\n")
    for argv in (["fit", str(f), "--cols", "a,b"], ["fit", str(f)]):
        report, code = run_command(argv)
        assert code == 2
        assert report["error"]["code"] == "parse-error"
        assert "column 'a' appears more than once" in report["error"]["message"]
    # a duplicated name that is not selected stays harmless
    assert parse_dataset(str(f), cols=["b"]).values[:, 0].tolist() == [3, 7, 1]


def _unreadable_csvs(tmp_path):
    """A cell past the csv field limit, and a byte that is not UTF-8."""
    huge = tmp_path / "huge.csv"
    huge.write_text("X,Y\n1,2\n3," + "4" * 200_000 + "\n5,7\n")
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"X,Y\n1,2\n3,\xff4\n5,7\n")
    return huge, latin


def test_unreadable_csv_is_a_parse_error(tmp_path, capsys):
    for path, detail in zip(_unreadable_csvs(tmp_path), ("field limit", "utf-8")):
        assert main(["fit", str(path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "parse-error" and detail in error["message"]


def test_batch_keeps_good_reports_past_an_unreadable_csv(tmp_path, capsys):
    huge, latin = _unreadable_csvs(tmp_path)
    listing = tmp_path / "list.txt"
    listing.write_text(f"{FORBES}\n{huge}\n{latin}\n{FORBES}\n")
    assert main(["pencil", "--batch", str(listing)]) == 2
    reports = json.loads(capsys.readouterr().out)
    assert [r.get("error", {}).get("code") for r in reports] == [
        None, "parse-error", "parse-error", None
    ]
    for report in reports:
        jsonschema.validate(report, SCHEMA)


# ---------------------------------------------------------------------------
# commands against the worked examples
# ---------------------------------------------------------------------------

def test_fit_cells(tmp_path):
    report = run_ok(["fit", CELLS, "--cols", "X,Y"])
    best = report["fits"][0]
    slope = -best["normal"][0] / best["normal"][1]
    intercept = best["offset"] / best["normal"][1]
    assert slope == pytest.approx(0.60793, rel=1e-3)
    assert intercept == pytest.approx(-4.16865, rel=1e-3)
    assert report["pencil"]["poles"][0] == pytest.approx(0.13921, rel=1e-3)


def test_fit_through_origin_cells():
    report = run_ok(["fit", CELLS, "--cols", "X,Y", "--through", "0,0"])
    best = report["fits"][0]
    slope = -best["normal"][0] / best["normal"][1]
    assert slope == pytest.approx(0.30014, rel=1e-3)
    assert best["moment"] == pytest.approx(5.071564, rel=1e-3)
    assert report["jacobi"]["lambdas"][0] == pytest.approx(-186.907, rel=1e-3)


def test_fit_through_centroid_equals_unrestricted(tmp_path):
    # a dataset whose best line passes through the origin: centered data
    ds = parse_dataset(CELLS, cols=["X", "Y"])
    centered = ds.values - ds.values.mean(axis=0)
    path = tmp_path / "centered.csv"
    path.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in centered) + "\n")
    plain = run_ok(["fit", str(path)])
    through = run_ok(["fit", str(path), "--through", "0,0"])
    assert np.allclose(plain["fits"][0]["normal"], through["fits"][0]["normal"])
    assert plain["fits"][0]["moment"] == pytest.approx(
        through["fits"][0]["moment"], rel=1e-9
    )


def test_each_point_is_solved_once(monkeypatch):
    holders = [
        (module, "jacobi_coordinates")
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "confocalfit"
        and getattr(module, "jacobi_coordinates", None) is pencil.jacobi_coordinates
    ]
    calls = _record_calls(monkeypatch, *holders)
    run_ok(["fit", CELLS, "--cols", "X,Y", "--through", "0,0"])
    assert len(calls) == 1
    calls.clear()
    # once in the whitened frame for the statistic, once for the jacobi block
    run_ok(["test-point", CELLS, "--cols", "X,Y", "--at", "0,0", "--error-cov", "0.25,0,0.25"])
    assert len(calls) == 2


def test_test_point_cells():
    report = run_ok(
        ["test-point", CELLS, "--cols", "X,Y", "--at", "0,0", "--error-cov", "0.25,0,0.25"]
    )
    assert report["test"]["statistic"] == pytest.approx(5.071564, rel=1e-3)
    assert report["test"]["p_value"] == pytest.approx(0.00043, abs=2e-5)
    assert report["test"]["df1"] == 4
    assert report["test"]["df2"] is None


def test_directional_forbes():
    report = run_ok(["directional", FORBES, "--dir", "0,1"])
    fit = report["fits"][0]
    slope = -fit["normal"][0] / fit["normal"][1]
    assert slope == pytest.approx(0.5228, rel=1e-3)
    assert fit["moment"] == pytest.approx(0.813143014, rel=1e-3)


def test_directional_forbes_restricted_with_test():
    report = run_ok(
        ["directional", FORBES, "--dir", "0,1", "--through", "201.5,24.5"]
    )
    assert report["fits"][0]["moment"] == pytest.approx(1.455877, rel=1e-3)
    assert report["test"]["statistic"] == pytest.approx(11.85647, rel=1e-3)
    assert report["test"]["p_value"] == pytest.approx(0.003621119, abs=1e-5)
    assert report["test"]["df2"] == 15


def test_pca_command():
    report = run_ok(["pca", CELLS, "--cols", "X,Y", "--at", "0,0"])
    assert report["pca"]["moments"][0] == pytest.approx(5.071564, rel=1e-3)
    assert report["jacobi"]["point_principal"] is not None


def test_pca_far_from_the_data_reports_the_pencil_moment():
    # the smallest moment at (300000, 200000) is 0.808619028292259...
    # (tests/test_regression.py::test_restricted_pca_far_from_the_data)
    from confocalfit.report import round_floats

    report = run_ok(["pca", CELLS, "--cols", "X,Y", "--at", "300000,200000"])
    assert round_floats(report)["pca"]["moments"][0] == 0.808619028


def test_pencil_command_with_jacobi():
    report = run_ok(["pencil", FORBES, "--jacobi", "201.5,24.5"])
    assert report["pencil"]["poles"][1] == pytest.approx(-39.69441, rel=1e-3)
    assert report["jacobi"]["lambdas"][0] == pytest.approx(-42.0876, rel=1e-3)
    principal = report["jacobi"]["point_principal"]
    assert principal[0] == pytest.approx(-0.1788025, rel=1e-3)
    assert principal[1] == pytest.approx(-1.5464, rel=1e-3)


def test_regularize_command():
    argv = ["regularize", CELLS, "--cols", "X,Y", "--norm", "l2", "--bound", "0.05"]
    report = run_ok(argv)
    block = report["regularize"]
    assert block["active"] is True
    assert block["moment"] > 0.69605  # tighter than the unconstrained optimum
    assert run_ok(argv) == report
    # a tiny L1 ball is solved, not refused
    argv = ["regularize", CELLS, "--cols", "X,Y", "--norm", "l1", "--bound", "0.0001"]
    block = run_ok(argv)["regularize"]
    assert sum(abs(x) for x in block["coefficients"]) <= 1e-4 * (1 + 1e-8)


def test_regularize_l1_dimension_cap_in_batch(tmp_path):
    rng = np.random.default_rng(1)
    k = L1_MAX_DIM + 1
    wide = tmp_path / "wide.csv"
    wide.write_text(
        ",".join(f"x{i}" for i in range(k)) + "\n"
        + "\n".join(",".join(map(str, row)) for row in rng.normal(size=(3 * k, k)))
        + "\n"
    )
    batch = tmp_path / "list.txt"
    batch.write_text(f"{wide}\n{FORBES}\n")
    reports, code = run_command(
        ["regularize", "--batch", str(batch), "--norm", "l1", "--bound", "0.01"]
    )
    assert code == 2
    assert reports[0]["error"]["code"] == "l1-dimension-too-large"
    assert reports[1]["regularize"]["active"] is True


def test_billiard_command():
    report = run_ok(
        [
            "billiard", CELLS, "--cols", "X,Y",
            "--member", "-20", "--start", "12.7,3.6", "--dir", "0.6,0.8",
            "--bounces", "5",
        ]
    )
    block = report["billiard"]
    assert len(block["rays"]) == 6
    assert len(block["caustics"]) == 1
    assert isinstance(block["joachimsthal"], float)


def test_bounces_above_the_cap_are_a_usage_error(monkeypatch, tmp_path, capsys):
    def no_trajectory(*args):
        raise AssertionError("trajectory must not run")

    monkeypatch.setattr(cli, "trajectory", no_trajectory)
    argv = [
        "billiard", "--cols", "X,Y", "--member", "-20", "--start", "12.7,3.6",
        "--dir", "0.6,0.8", "--bounces", str(cli.MAX_BOUNCES + 1),
    ]
    assert main([*argv, CELLS]) == 1
    assert f"at most {cli.MAX_BOUNCES}" in capsys.readouterr().err
    batch = tmp_path / "list.txt"
    batch.write_text(f"{CELLS}\n")
    reports, code = run_command([*argv, "--batch", str(batch)])
    assert code == 1
    assert reports[0]["error"]["code"] == "usage-error"


def test_fit_ell_one_in_3d(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(12, 3)) * [2.0, 1.0, 0.5] + [1.0, -2.0, 0.5]
    path = tmp_path / "cloud.csv"
    path.write_text(
        "x,y,z\n" + "\n".join(",".join(map(str, row)) for row in pts) + "\n"
    )
    report = run_ok(["fit", str(path), "--ell", "1"])
    best = report["fits"][0]
    assert best["normal"] is None and best["offset"] is None
    assert len(best["basis"]) == 1 and len(best["basis"][0]) == 3


def test_plot_refuses_3d(tmp_path):
    pts = np.eye(3) * 2 + 1
    path = tmp_path / "cloud3.csv"
    path.write_text(
        "x,y,z\n" + "\n".join(",".join(map(str, row)) for row in pts) + "\n"
    )
    out = tmp_path / "fig.svg"
    report, code = run_command(["plot", str(path), "--out", str(out)])
    assert code == 2
    assert report["error"]["code"] in ("not-planar", "rank-deficient")


def test_dataset_block_and_warnings_everywhere():
    report = run_ok(["pencil", CELLS, "--cols", "X,Y"])
    assert report["dataset"] == {"n": 5, "k": 2, "path": CELLS}
    assert report["warnings"] == []


# ---------------------------------------------------------------------------
# exit codes, determinism, serialization
# ---------------------------------------------------------------------------

def test_domain_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,x\n")
    report, code = run_command(["fit", str(bad)])
    assert code == 2
    assert report["error"]["code"] == "parse-error"
    assert "row 3" in report["error"]["message"]


def test_zero_direction_exit_code(capsys):
    assert main(["directional", FORBES, "--dir", "0,0"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["code"] == "direction-degenerate"


def test_rank_deficient_exit_code(tmp_path):
    f = tmp_path / "line.csv"
    f.write_text("x,y\n0,0\n1,1\n2,2\n")
    report, code = run_command(["fit", str(f)])
    assert code == 2
    assert report["error"]["code"] == "rank-deficient"


def test_usage_error_exit_code(capsys):
    assert main(["fit"]) == 1  # missing dataset path
    assert main(["frobnicate", "x.csv"]) == 1  # unknown command
    assert main(["fit", CELLS, "--cols", "X,Y", "--through", "0,zz"]) == 1
    capsys.readouterr()


def test_success_exit_and_stdout(capsys):
    assert main(["pencil", CELLS, "--cols", "X,Y"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["command"] == "pencil"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["pencil", CELLS, "--cols", "X,Y", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["command"] == "pencil"


def test_reports_are_byte_deterministic():
    from confocalfit.report import dumps

    a = dumps(run_ok(["fit", CELLS, "--cols", "X,Y", "--through", "0,0"]))
    b = dumps(run_ok(["fit", CELLS, "--cols", "X,Y", "--through", "0,0"]))
    assert a.encode() == b.encode()


def test_numbers_rounded_to_nine_significant_digits():
    report = run_ok(["pencil", CELLS, "--cols", "X,Y"])
    from confocalfit.report import round_floats

    rounded = round_floats(report)
    text = json.dumps(rounded)
    assert json.loads(text) == rounded  # lossless round trip
    for value in rounded["pencil"]["poles"]:
        assert float(f"{value:.9g}") == value


def test_batch_mode(tmp_path):
    listing = tmp_path / "list.txt"
    listing.write_text(f"{FORBES}\n{FORBES}\n")
    reports, code = run_command(["pencil", "--batch", str(listing)])
    assert code == 0
    assert isinstance(reports, list) and len(reports) == 2
    assert reports[0] == reports[1]


def test_batch_mode_carries_failures(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,0\n1,1\n2,2\n")
    listing = tmp_path / "list.txt"
    listing.write_text(f"{FORBES}\n{bad}\n")
    reports, code = run_command(["pencil", "--batch", str(listing)])
    assert code == 2
    assert "pencil" in reports[0] and reports[1]["error"]["code"] == "rank-deficient"


def test_batch_keeps_good_reports_past_a_usage_error(tmp_path, capsys):
    # cells without --cols is rank deficient (domain error); the k = 4 set
    # cannot take a two-component --through (usage error); forbes succeeds
    quad = tmp_path / "quad.csv"
    rows = np.random.default_rng(2).normal(size=(12, 4))
    quad.write_text("a,b,c,d\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n")
    listing = tmp_path / "list.txt"
    listing.write_text(f"{CELLS}\n{quad}\n{FORBES}\n")
    assert main(["fit", "--batch", str(listing), "--through", "0,0"]) == 1
    reports = json.loads(capsys.readouterr().out)
    assert [r.get("error", {}).get("code") for r in reports] == [
        "rank-deficient", "usage-error", None
    ]
    assert "4 components" in reports[1]["error"]["message"]
    assert "fits" in reports[2] and "error" not in reports[2]
    for report in reports:
        jsonschema.validate(report, SCHEMA)
    # an unreadable list is still a usage error for the whole run
    with pytest.raises(UsageError):
        run_command(["fit", "--batch", str(tmp_path / "missing.txt")])


def test_run_command_rejects_missing_data():
    with pytest.raises(UsageError):
        run_command(["fit"])


def test_cli_process_runs_without_scipy(tmp_path):
    # a fresh interpreter runs the README test-point and directional --through
    # commands; their p-values need no scipy, and the reports match the goldens
    shutil.copytree(DATA, tmp_path / "data")
    script = textwrap.dedent(
        """
        import sys
        from confocalfit.cli import main

        codes = [
            main(["test-point", "data/cells.csv", "--cols", "X,Y", "--at", "0,0",
                  "--error-cov", "0.25,0,0.25", "--out", "test-point.json"]),
            main(["directional", "data/forbes.csv", "--dir", "0,1",
                  "--through", "201.5,24.5", "--out", "directional-through.json"]),
        ]
        assert codes == [0, 0], codes
        loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
        assert not loaded, loaded
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for name in ("test-point.json", "directional-through.json"):
        assert (tmp_path / name).read_bytes() == (ROOT / "tests" / "golden" / name).read_bytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
                    reason="needs Linux thread listing and two cores")
def test_cli_process_runs_on_one_thread():
    # importing the package before numpy leaves OpenBLAS with one thread, so a
    # command's run time does not swing with other load on the cores; a
    # value the caller set is kept
    script = textwrap.dedent(
        """
        import os
        import confocalfit.cli
        import numpy as np

        x = np.ones((200_000, 3))
        x.T @ x
        print(os.environ["OPENBLAS_NUM_THREADS"], len(os.listdir("/proc/self/task")))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    for preset, expected in ((None, "1 1"), ("2", "2 2")):
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == expected.split()
