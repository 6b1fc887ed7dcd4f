"""CSV ingestion, CLI commands, JSON reports and their schema."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from types import ModuleType

import jsonschema
import numpy as np
import pytest

import confocalfit
from confocalfit import cli, pencil
from confocalfit.cli import UsageError, main, run_command
from confocalfit.dataset import parse_dataset
from confocalfit.errors import EmptyDataset, ParseError
from confocalfit.pencil import build_pencil
from confocalfit.regularize import L1_MAX_DIM, constrained_fit
from confocalfit.report import load_schema

from conftest import random_point_set
from test_billiards import circular_section_direction
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
    """A cell past the csv field limit, a byte that is not UTF-8, a NUL in the path."""
    huge = tmp_path / "huge.csv"
    huge.write_text("X,Y\n1,2\n3," + "4" * 200_000 + "\n5,7\n")
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"X,Y\n1,2\n3,\xff4\n5,7\n")
    return huge, latin, f"{tmp_path}/nul\0.csv"


def test_unreadable_csv_is_a_parse_error(tmp_path, capsys):
    for path, detail in zip(_unreadable_csvs(tmp_path), ("field limit", "utf-8", "null byte")):
        assert main(["fit", str(path)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "parse-error" and detail in error["message"]


def test_batch_keeps_good_reports_past_an_unreadable_csv(tmp_path, capsys):
    huge, latin, nul = _unreadable_csvs(tmp_path)
    listing = tmp_path / "list.txt"
    listing.write_text(f"{FORBES}\n{huge}\n{latin}\n{nul}\n{FORBES}\n")
    assert main(["pencil", "--batch", str(listing)]) == 2
    reports = json.loads(capsys.readouterr().out)
    assert [r.get("error", {}).get("code") for r in reports] == [
        None, "parse-error", "parse-error", "parse-error", None
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


def test_directional_through_a_far_point():
    from confocalfit.report import dumps

    # summing A(P) = A(c) + m d d^T at |d| = 1e10 rounded A(c) away, and the
    # solve of the singular sum was reported as direction-degenerate
    report = run_ok(
        ["directional", CELLS, "--cols", "X,Y", "--dir", "0,1", "--through", "1e10,1e10"]
    )
    want = 8.6320652351144625  # 60-digit reference, summed from the CSV's points
    assert report["fits"][0]["moment"] == pytest.approx(want, rel=1e-14)
    assert report["test"]["restricted_moment"] == report["fits"][0]["moment"]
    assert '"moment": 8.63206524' in dumps(report)


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


# the power of the length unit each report key carries; the rest are unitless
_LENGTH_POWER = {
    "center": 1, "point": 1, "point_principal": 1, "offset": 1,
    "poles": 2, "principal_moments": 2, "lambdas": 2, "moment": 2, "moments": 2,
}


def _scaled_back(value, factor, power=0):
    """``value`` with every number of a key in ``_LENGTH_POWER`` divided by
    ``factor`` to that key's power."""
    if isinstance(value, dict):
        return {key: _scaled_back(v, factor, _LENGTH_POWER.get(key, power))
                for key, v in value.items()}
    if isinstance(value, list):
        return [_scaled_back(v, factor, power) for v in value]
    if isinstance(value, float):
        return value / factor**power
    return value


def _assert_close(got, want, rel):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_close(got[key], want[key], rel)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_close(g, w, rel)
    elif isinstance(want, float):
        assert abs(got - want) <= rel * abs(want), (got, want)
    else:
        assert got == want


@pytest.mark.parametrize("j", (-200, 200))
@pytest.mark.parametrize("command", (["fit", "--through"], ["pca", "--at"]))
def test_reports_scale_by_powers_of_two(command, j, tmp_path, capsys):
    # the cells data and the point scaled by 2^j give the same report with
    # lengths scaled by 2^j and moments by 4^j.  Each value is written as
    # repr(x * 2^j), which reads back exactly, but the report rounds every
    # number to nine significant digits in decimal, and the nine digits of
    # x * 2^j are not 2^j times those of x: each printed value moves by up
    # to half a unit in its ninth digit, so two of them may differ by
    # 1e-8 of their size
    s = 2.0**j
    values = parse_dataset(CELLS, cols=["X", "Y"]).values
    reports = []
    for factor in (1.0, s):
        path = tmp_path / f"cells-{factor!r}.csv"
        rows = (values * factor).tolist()
        path.write_text("X,Y\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
        point = ",".join(repr(v * factor) for v in (10.0, 2.5))
        assert main([command[0], str(path), command[1], point]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["dataset"]["path"]
        reports.append(report)
    plain, scaled = reports
    _assert_close(_scaled_back(scaled, s), plain, rel=1e-8)


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


def test_plot_requires_out(capsys):
    assert main(["plot", CELLS, "--cols", "X,Y"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "plot requires --out" in err


# each vector option with a negative first component, the other options
# given in the --opt=value form; run on cells mirrored through the origin
NEGATIVE_VALUES = [
    pytest.param(["pca"], "--at", "-1,2", id="at"),
    pytest.param(["directional", "--dir=0,1"], "--through", "-1e3,-.5", id="through"),
    pytest.param(["directional"], "--dir", "-0.6,0.8", id="dir"),
    pytest.param(["pencil"], "--jacobi", "-1e-3,-.5", id="jacobi"),
    pytest.param(["billiard", "--member", "-20", "--dir=-0.6,-0.8", "--bounces", "3"],
                 "--start", "-12.7,-3.6", id="start"),
]


@pytest.mark.parametrize("argv, option, value", NEGATIVE_VALUES)
def test_negative_vector_values_are_values(argv, option, value, tmp_path):
    from confocalfit.report import dumps

    mirrored = tmp_path / "mirrored.csv"
    rows = (-parse_dataset(CELLS, cols=["X", "Y"]).values).tolist()
    mirrored.write_text("X,Y\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    spaced = run_ok([*argv, str(mirrored), option, value])
    assert dumps(spaced) == dumps(run_ok([*argv, str(mirrored), f"{option}={value}"]))


def test_billiard_on_a_degenerate_line_warns(tmp_path):
    # the line of test_billiards.py::test_degenerate_flat_rejected: the run
    # succeeds and reports its caustics as omitted
    ps = random_point_set(np.random.default_rng(87), 3)
    path = tmp_path / "cloud.csv"
    table = np.column_stack([ps.coords, ps.masses]).tolist()
    path.write_text("x,y,z,m\n" + "".join(",".join(map(repr, row)) + "\n" for row in table))
    pencil = build_pencil(ps)
    report = run_ok([
        "billiard", str(path), "--cols", "x,y,z", "--mass-col", "m",
        f"--member={float(pencil.poles[-1]) - 1.0!r}",
        "--start=" + ",".join(map(repr, ps.center.tolist())),
        "--dir=" + ",".join(map(repr, circular_section_direction(pencil).tolist())),
        "--bounces", "3",
    ])
    assert len(report["warnings"]) == 1
    assert report["warnings"][0].startswith("caustics omitted: ")
    assert "caustics" not in report["billiard"] and len(report["billiard"]["rays"]) == 4


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


@pytest.mark.parametrize("command", [["pencil", CELLS, "--cols", "X,Y"],
                                     ["plot", CELLS, "--cols", "X,Y"]], ids=["report", "svg"])
def test_out_that_cannot_be_written_is_a_usage_error(command, tmp_path, capsys):
    assert main([*command, "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: cannot write --out file")


@pytest.mark.parametrize("argv, unit", [
    (["directional", FORBES], "1,1"),
    (["billiard", CELLS, "--cols", "X,Y", "--member", "-20", "--start", "12.7,3.6",
      "--bounces", "3"], "1,0"),
], ids=["directional", "billiard"])
def test_direction_scale_does_not_change_the_report(argv, unit):
    from confocalfit.report import dumps

    expected = dumps(run_ok([*argv, "--dir", unit]))
    for scale in (1e300, 1e-320):
        direction = ",".join(repr(float(c) * scale) for c in unit.split(","))
        assert dumps(run_ok([*argv, "--dir", direction])) == expected


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_regularize_bound_whose_moment_overflows_is_a_domain_error(norm):
    report, code = run_command(["regularize", FORBES, "--norm", norm, "--bound", "1e-160"])
    assert code == 2
    assert report["error"]["code"] == "bound-too-small"
    # a bound whose moment (about m / bound^2 = 17e300) still fits is solved
    fit = run_ok(["regularize", FORBES, "--norm", norm, "--bound", "1e-150"])["regularize"]
    assert fit["moment"] == pytest.approx(1.7e301, rel=1e-6)
    assert np.abs(fit["coefficients"]).max() <= 1e-150


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
    latin = tmp_path / "latin.txt"
    latin.write_bytes(f"{FORBES}\n\xff.csv\n".encode("latin-1"))
    for unreadable in (tmp_path / "missing.txt", latin):
        with pytest.raises(UsageError, match="cannot read batch file"):
            run_command(["fit", "--batch", str(unreadable)])


def test_run_command_rejects_missing_data():
    with pytest.raises(UsageError):
        run_command(["fit"])


def _billiard(option, value):
    """The README billiard command on cells, with one option replaced."""
    options = {"--member": "-20", "--start": "12.7,3.6", "--dir": "0.6,0.8", "--bounces": "5"}
    options[option] = value
    return ["billiard", "--cols", "X,Y", *(item for pair in options.items() for item in pair)]


_CELLS_POLES = build_pencil(parse_dataset(CELLS, cols=["X", "Y"]).point_set()).poles.tolist()

# every argument failure the library raises: a usage error (exit 1, stderr in
# a single run) or, where it depends on the data's k or poles, a domain error
# (exit 2, JSON error report)
ARGUMENT_FAILURES = [
    pytest.param(["fit", "--cols", "X"], "usage-error", "ambient dimension must be at least 2",
                 id="one-column"),
    pytest.param(_billiard("--dir", "0,0"), "usage-error", "ray direction must be nonzero",
                 id="zero-direction"),
    pytest.param(_billiard("--bounces", "-1"), "usage-error", "bounces must be non-negative",
                 id="negative-bounces"),
    pytest.param(["regularize", "--cols", "X,Y", "--norm", "l2", "--bound", "0"],
                 "usage-error", "bound must be positive", id="zero-bound"),
    pytest.param(["test-point", "--cols", "X,Y", "--at", "0,0", "--error-cov", "1,0"],
                 "usage-error", "expected 3 upper-triangle entries for k=2",
                 id="error-cov-length"),
    pytest.param(["fit", "--cols", "X,Y", "--ell", "0"], "bad-flat-dimension", "1 <= l <= k-1",
                 id="ell-0"),
    pytest.param(["fit", "--cols", "X,Y", "--ell", "2"], "bad-flat-dimension", "1 <= l <= k-1",
                 id="ell-k"),
    pytest.param(["fit", "--cols", "X,Y", "--ell", "-1"], "bad-flat-dimension", "1 <= l <= k-1",
                 id="ell-negative"),
    *(pytest.param(_billiard("--member", repr(pole)), "member-on-pole",
                   "coincides with a pole", id=f"member-on-pole-{i}")
      for i, pole in enumerate(_CELLS_POLES)),
]


@pytest.mark.parametrize("argv, code, message", ARGUMENT_FAILURES)
def test_argument_failures_map_to_their_exit_status(argv, code, message, tmp_path, capsys):
    usage = code == "usage-error"
    assert main([*argv, CELLS]) == (1 if usage else 2)
    out, err = capsys.readouterr()
    if usage:
        assert out == "" and err.startswith("usage error: ") and message in err
    else:
        assert err == ""
        error = json.loads(out)["error"]
        assert error["code"] == code and message in error["message"]
    listing = tmp_path / "list.txt"
    listing.write_text(f"{CELLS}\n{CELLS}\n")
    reports, status = run_command([*argv, "--batch", str(listing)])
    assert status == (1 if usage else 2)
    assert [r["error"]["code"] for r in reports] == [code, code]
    for report in reports:
        jsonschema.validate(report, SCHEMA)


def test_a_value_error_the_package_did_not_raise_is_not_a_usage_error(monkeypatch, tmp_path):
    def boom(ds, args):
        raise ValueError("boom")

    monkeypatch.setitem(cli._HANDLERS, "pencil", boom)
    with pytest.raises(ValueError, match="boom"):
        main(["pencil", FORBES])
    listing = tmp_path / "list.txt"
    listing.write_text(f"{FORBES}\n")
    with pytest.raises(ValueError, match="boom"):
        main(["pencil", "--batch", str(listing)])


@pytest.mark.parametrize("argv", [
    ["regularize", "--cols", "X,Y", "--norm", "l2", "--bound", "nan"],
    ["regularize", "--cols", "X,Y", "--norm", "l1", "--bound", "inf"],
    _billiard("--member", "nan"),
    _billiard("--member", "inf"),
], ids=["bound-nan", "bound-inf", "member-nan", "member-inf"])
def test_scalar_options_must_be_finite(argv, capsys):
    assert main([*argv, CELLS]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "expected finite numbers" in err


def test_constrained_fit_rejects_a_bound_that_is_not_finite_and_positive():
    ps = parse_dataset(FORBES).point_set()
    for bound in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(UsageError, match="positive and finite"):
            constrained_fit(ps, "l2", bound)


def test_plot_takes_no_batch(monkeypatch, tmp_path, capsys):
    def no_dataset(*args, **kwargs):
        raise AssertionError("no dataset may be read")

    monkeypatch.setattr(cli, "parse_dataset", no_dataset)
    listing = tmp_path / "list.txt"
    listing.write_text(f"{FORBES}\n{FORBES}\n")
    out = tmp_path / "f.svg"
    assert main(["plot", "--batch", str(listing), "--out", str(out)]) == 1
    assert "plot takes no --batch" in capsys.readouterr().err
    assert not out.exists()


def test_package_exports_no_module():
    assert "os" not in confocalfit.__all__
    assert not [n for n in confocalfit.__all__ if isinstance(getattr(confocalfit, n), ModuleType)]
    assert {"build_pencil", "restricted_pca", "parse_dataset"} <= set(confocalfit.__all__)


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
