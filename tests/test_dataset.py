"""CSV ingestion: the vectorized pass agrees bit for bit with the per-cell path."""

import tempfile
import urllib.request
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confocalfit.dataset import _parse_cells, _parse_vectorized, parse_dataset
from confocalfit.errors import EmptyDataset

DATA = Path(__file__).resolve().parent.parent / "data"

# numbers in the forms both parsers read, and the cells that send a file to
# the per-cell path: quotes, '#', underscores, empty cells, text, non-finite
# values, and masses <= 0
NUMBERS = ["1", "-2.5", "3e2", ".5", "7.", "0.1", "-0", "1e-320", "+4", "12345.678901"]
ODD_CELLS = [
    "", " ", '"5"', "#7", "1_0", "x", "nan", "inf", "-inf", "1e400", "0", "-1", "0x10",
]
SPACE = ["", " ", "\t", "\xa0", "\x0b"]
# names with a line break are written quoted, so the header spans two lines
NAMES = ["a", "b", "m", " a ", "c", "d\ne", "f\r\ng", "h\ri"]
# lines before the header that the header read skips: loadtxt must skip them too
LEAD = ["", "   ", " \t", ",,", " , ,"]


def _header_cell(name: str) -> str:
    return f'"{name}"' if "\n" in name or "\r" in name else name


@st.composite
def csv_files(draw):
    """CSV text with a column selection and whether the file is clean: half
    the files use only numbers."""
    clean = draw(st.booleans())
    tokens = NUMBERS if clean else NUMBERS + ODD_CELLS
    cell = st.builds(
        lambda lead, text, trail: lead + text + trail,
        st.sampled_from(SPACE),
        st.sampled_from(tokens),
        st.sampled_from(SPACE),
    )
    header = draw(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique_by=str.strip)
        if clean
        else st.lists(st.sampled_from(NAMES), min_size=1, max_size=4)
    )
    # a body one cell wider or narrower than its header is rejected
    width = len(header) + draw(st.sampled_from([0] * 6 + [1, -1]))
    full_row = st.lists(cell, min_size=width, max_size=width).map(",".join)
    row = full_row if clean else st.one_of(
        full_row,
        st.lists(cell, min_size=0, max_size=width + 1).map(",".join),  # short / long
        st.sampled_from(["", "   ", ",,,", "# comment"]),
    )
    body = draw(st.lists(row, max_size=6))
    lead = draw(st.lists(st.sampled_from(LEAD), max_size=3))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [*lead, ",".join(map(_header_cell, header)), *body]
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    names = sorted({name.strip() for name in header} | (set() if clean else {"z"}))
    cols = draw(st.one_of(st.none(), st.lists(st.sampled_from(names), min_size=1, max_size=3)))
    mass_col = draw(st.one_of(st.none(), st.sampled_from(names)))
    return text, cols, mass_col, clean


def _outcome(parse, path, cols, mass_col):
    try:
        ds = parse(path, cols, mass_col)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    masses = None if ds.masses is None else (ds.masses.shape, ds.masses.tobytes())
    return ds.columns, ds.values.shape, ds.values.tobytes(), masses


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(csv_files())
def test_vectorized_ingest_matches_the_per_cell_path(case):
    text, cols, mass_col, clean = case
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        slow = _outcome(_parse_cells, path, cols, mass_col)
        assert _outcome(parse_dataset, path, cols, mass_col) == slow
        # a clean file that parses took the vectorized pass: a silent fall-back
        # gives the same result about ten times slower
        if clean and isinstance(slow[0], tuple):
            assert _parse_vectorized(path, cols, mass_col) is not None


def _assert_vectorized_bit_identical(path, cols=None, mass_col=None):
    fast = _parse_vectorized(path, cols, mass_col)
    assert fast is not None  # the file took the vectorized pass
    slow = _parse_cells(path, cols, mass_col)
    assert fast.columns == slow.columns
    assert fast.values.tobytes() == slow.values.tobytes()
    assert fast.values.shape == slow.values.shape and fast.values.flags.c_contiguous
    if mass_col is None:
        assert fast.masses is None and slow.masses is None
    else:
        assert fast.masses.tobytes() == slow.masses.tobytes()


def test_shipped_datasets_take_the_vectorized_pass():
    _assert_vectorized_bit_identical(str(DATA / "cells.csv"), ["X", "Y"])
    _assert_vectorized_bit_identical(str(DATA / "forbes.csv"))


def test_large_offset_csv_is_bit_identical(tmp_path):
    rng = np.random.default_rng(11)
    coords = rng.normal(size=(10_000, 3)) * [1.0, 2.0, 4.0] + 1e6
    masses = rng.uniform(0.5, 2.0, size=10_000)
    lines = ["x,y,z,w"] + [
        f"{x!r},{y:.6f},{z:.9e},{w:.4f}" for (x, y, z), w in zip(coords.tolist(), masses)
    ]
    path = tmp_path / "large.csv"
    path.write_text("\n".join(lines) + "\n")
    _assert_vectorized_bit_identical(str(path), ["z", "x", "y"], "w")
    _assert_vectorized_bit_identical(str(path))


def test_line_breaks_and_leading_blank_lines_are_bit_identical(tmp_path):
    cells = (DATA / "cells.csv").read_text().splitlines()
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes("\r\n".join(cells).encode() + b"\r\n")
    _assert_vectorized_bit_identical(str(crlf), ["X", "Y"])
    lead = tmp_path / "lead.csv"
    lead.write_text("\n  \n,,\n\n" + "\n".join(cells) + "\n")
    _assert_vectorized_bit_identical(str(lead), ["X", "Y"])


def test_a_url_like_path_is_read_as_a_local_file(tmp_path, monkeypatch):
    # numpy opens a str path through np.lib._datasource, which fetches a URL
    # and caches it under the working directory; the path must reach it
    # absolute, so that it is a local file
    def no_network(*args, **kwargs):
        raise AssertionError("loadtxt tried to open a URL")

    monkeypatch.setattr(urllib.request, "urlopen", no_network)
    monkeypatch.chdir(tmp_path)
    local = tmp_path / "http:" / "example.invalid" / "d.csv"
    local.parent.mkdir(parents=True)
    local.write_text("x,y,w\n1,2,0.5\n3,5,2\n4,4,1\n")
    before = sorted(tmp_path.rglob("*"))
    _assert_vectorized_bit_identical("http://example.invalid/d.csv", ["x", "y"], "w")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("suffix", ["gz", "bz2", "xz", "lzma"])
def test_a_compressed_name_takes_the_per_cell_path(tmp_path, suffix):
    # numpy would decompress a path of this name; a plain CSV of that name
    # is read by the per-cell parser
    path = tmp_path / f"data.csv.{suffix}"
    path.write_text("x,y\n1,2\n3,5\n4,4\n")
    assert _parse_vectorized(str(path), None, None) is None
    assert _outcome(parse_dataset, str(path), None, None) == _outcome(
        _parse_cells, str(path), None, None
    )


def test_header_only_file_raises_without_a_warning(tmp_path):
    # loadtxt warns on an empty body; the warning must not reach the caller
    path = tmp_path / "header.csv"
    path.write_text("a\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EmptyDataset, match="has a header but no data rows"):
            parse_dataset(str(path))
    assert caught == []
