"""SVG figure emission: structure and determinism."""

from pathlib import Path

import numpy as np
import pytest

from confocalfit.cli import run_command
from confocalfit.dataset import Dataset
from confocalfit.errors import NotPlanar
from confocalfit.svg import HEIGHT, PAD, emit_svg

from conftest import CELLS_XY

DATA = Path(__file__).resolve().parent.parent / "data"
CELLS = str(DATA / "cells.csv")
FORBES = str(DATA / "forbes.csv")


def render(tmp_path, argv_tail):
    out = tmp_path / "figure.svg"
    report, code = run_command(["plot", *argv_tail, "--out", str(out)])
    assert code == 0, report
    return out.read_text()


def test_cells_restricted_structure(tmp_path):
    doc = render(tmp_path, [CELLS, "--cols", "X,Y", "--through", "0,0"])
    assert doc.count('class="conic-ellipse"') == 1
    assert doc.count('class="conic-hyperbola"') == 1
    # the hyperbola path holds two branches (two subpath moves)
    hyperbola = doc.split('class="conic-hyperbola" d="')[1].split('"')[0]
    assert hyperbola.count("M") == 2
    assert doc.count("<line") == 2
    assert doc.count('class="point"') == 5
    assert doc.count('class="centroid"') == 1
    assert doc.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert 'viewBox="0 0 800 600"' in doc


def test_plain_plot_is_scatter_plus_best_line(tmp_path):
    doc = render(tmp_path, [CELLS, "--cols", "X,Y"])
    assert doc.count("<line") == 1
    assert '<line class="fit-worst"' not in doc
    assert doc.count("<path") == 0
    assert doc.count('class="point"') == 5


def test_forbes_restricted_structure(tmp_path):
    doc = render(tmp_path, [FORBES, "--through", "201.5,24.5"])
    assert doc.count('class="conic-ellipse"') == 1
    assert doc.count('class="conic-hyperbola"') == 1
    assert doc.count("<line") == 2
    assert doc.count('class="point"') == 17


def test_svg_byte_deterministic(tmp_path):
    a = render(tmp_path, [CELLS, "--cols", "X,Y", "--through", "0,0"])
    b = render(tmp_path, [CELLS, "--cols", "X,Y", "--through", "0,0"])
    assert a.encode() == b.encode()


def test_conics_sampled_at_512_points(tmp_path):
    doc = render(tmp_path, [CELLS, "--cols", "X,Y", "--through", "0,0"])
    ellipse = doc.split('class="conic-ellipse" d="')[1].split('"')[0]
    assert ellipse.count("L") + ellipse.count("M") == 512


def test_not_planar_for_3d():
    ds = Dataset(("a", "b", "c"), np.eye(3) + 1.0, None, "inline")
    with pytest.raises(NotPlanar):
        emit_svg({"pencil": None}, ds)


def test_fit_lines_far_from_the_origin(tmp_path):
    # at 1e12 a boundary point of a line rounds by about eps * 1e12 = 2e-4;
    # clipped against the frame in global coordinates, the worst line was
    # dropped without a warning
    shift = 1e12
    shifted = tmp_path / "cells.csv"
    rows = (CELLS_XY + shift).tolist()
    shifted.write_text("X,Y\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    doc = render(tmp_path, [str(shifted), "--through", f"{shift!r},{shift!r}"])
    assert doc.count('<line class="fit-best"') == 1
    assert doc.count('<line class="fit-worst"') == 1


def _circles(doc):
    return np.array(
        [
            [float(line.split('cx="')[1].split('"')[0]), float(line.split('cy="')[1].split('"')[0])]
            for line in doc.splitlines()
            if line.startswith("<circle")
        ]
    )


def test_tiny_data_fills_the_view(tmp_path):
    # the frame scales with the data: cells scaled by 1e-12 land where the
    # unscaled cells do
    scaled = tmp_path / "cells.csv"
    rows = (CELLS_XY * 1e-12).tolist()
    scaled.write_text("X,Y\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    want = _circles(render(tmp_path, [CELLS, "--cols", "X,Y", "--through", "0,0"]))
    got = _circles(render(tmp_path, [str(scaled), "--through", "0,0"]))
    assert got.shape == want.shape == (6, 2)
    assert np.abs(got - want).max() <= 1e-3


def test_points_on_a_vertical_line_are_spread_along_it():
    # a zero span on one axis takes the other's, so the view stays finite
    ds = Dataset(("a", "b"), np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 5.0]]), None, "inline")
    xy = _circles(emit_svg({}, ds))
    assert np.all(xy[:, 0] == 400.0)
    assert xy[:, 1].min() == pytest.approx(PAD + 0.1 / 1.2 * (HEIGHT - 2 * PAD))
