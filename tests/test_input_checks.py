"""Every input check raises its own error type with its own message."""

import numpy as np
import pytest

from confocalfit import (
    FlatSubspace,
    Hyperplane,
    Ray,
    SymmetricOperator,
    WeightedPointSet,
    build_pencil,
    constrained_fit,
    dual_quadric,
    envelope_for_moment,
    joachimsthal_2d,
    parse_dataset,
    restricted_pca,
    thread_foci,
    thread_slice,
)
from confocalfit.errors import EmptyDataset, InvalidSemiaxes, ParseError, UsageError

from conftest import CELLS_XY

_CELLS = WeightedPointSet(CELLS_XY)
_ORIGIN = np.zeros(3)
_AXES = np.diag([1.0, 2.0, 3.0])
# the pencil of six points at +-1, +-2 and +-3 on the axes: poles 1/3, -2/3, -7/3
_SOLID = build_pencil(WeightedPointSet(np.vstack([_AXES, -_AXES])))


def _csv(tmp_path, text):
    """``parse_dataset`` (the CLI's reader) on a file holding ``text``."""
    path = tmp_path / "data.csv"
    path.write_text(text)
    return parse_dataset(str(path))


# (call on tmp_path, error type, fragment of its message)
INPUT_CHECKS = {
    "vector-not-1d": (lambda tmp: restricted_pca(_CELLS, [[1.0, 2.0]]),
                      ValueError, "point must be one-dimensional"),
    "vector-length": (lambda tmp: restricted_pca(_CELLS, [1.0, 2.0, 3.0]),
                      ValueError, "point must have length 2"),
    "vector-non-finite": (lambda tmp: restricted_pca(_CELLS, [np.nan, 2.0]),
                          ValueError, "point contains non-finite entries"),
    "coords-not-2d": (lambda tmp: WeightedPointSet(np.ones(3)),
                      ValueError, "coords must be an (N, k) array"),
    "masses-length": (lambda tmp: WeightedPointSet(CELLS_XY, np.ones(4)),
                      ValueError, "masses must be a length-N vector"),
    "operator-not-square": (lambda tmp: SymmetricOperator(np.ones((2, 3))),
                            ValueError, "entries must be a square matrix"),
    "operator-nan": (lambda tmp: SymmetricOperator([[np.nan, 0.0], [0.0, 1.0]]),
                     ValueError, "entries contain non-finite values"),
    "operator-inf": (lambda tmp: SymmetricOperator([[np.inf, 0.0], [0.0, 1.0]]),
                     ValueError, "entries contain non-finite values"),
    "zero-normal": (lambda tmp: Hyperplane([0.0, 0.0], 1.0),
                    ValueError, "hyperplane normal must be nonzero"),
    "normal-non-finite": (lambda tmp: Hyperplane([2.0, np.nan, 1.0], 1.0),
                          ValueError, "normal contains non-finite entries"),
    "basis-shape": (lambda tmp: FlatSubspace(_ORIGIN, np.ones((2, 1))),
                    ValueError, "basis must be a (k, l) array of columns"),
    "flat-dimension": (lambda tmp: FlatSubspace(_ORIGIN, np.eye(3)),
                       ValueError, "flat dimension must satisfy 1 <= l <= k-1"),
    "basis-not-orthonormal": (lambda tmp: FlatSubspace(_ORIGIN, [[1.0], [1.0], [0.0]]),
                              ValueError, "basis columns must be orthonormal"),
    "basis-nan": (lambda tmp: FlatSubspace(_ORIGIN, [[np.nan], [0.0], [0.0]]),
                  ValueError, "basis columns must be orthonormal"),
    "thread-samples": (lambda tmp: thread_slice([3.0, 2.0, 1.0], 0.5, 0),
                       ValueError, "n_samples must be positive"),
    "thread-foci-semiaxes": (lambda tmp: thread_foci([1.0, 2.0, 3.0], 0.5),
                             InvalidSemiaxes, "need semiaxes a > b > c > 0"),
    "norm-name": (lambda tmp: constrained_fit(_CELLS, "l3", 1.0),
                  UsageError, "norm must be 'l1' or 'l2'"),
    "norm-type": (lambda tmp: constrained_fit(_CELLS, None, 1.0),
                  UsageError, "norm must be 'l1' or 'l2'"),
    "joachimsthal-3d": (lambda tmp: joachimsthal_2d(_SOLID.member(-3.0), Ray(_ORIGIN, _AXES[0])),
                        ValueError, "joachimsthal_2d requires a planar member"),
    "member-nan": (lambda tmp: _SOLID.member(np.nan),
                   UsageError, "member parameter must be finite"),
    "member-inf": (lambda tmp: _SOLID.member(-np.inf),
                   UsageError, "member parameter must be finite"),
    "envelope-nan": (lambda tmp: envelope_for_moment(_SOLID, np.nan),
                     UsageError, "moment level must be finite"),
    "envelope-inf": (lambda tmp: envelope_for_moment(_SOLID, np.inf),
                     UsageError, "moment level must be finite"),
    "dual-quadric-nan": (lambda tmp: dual_quadric(_SOLID, np.nan),
                         UsageError, "moment level must be finite"),
    "empty-cell": (lambda tmp: _csv(tmp, "x,y\n1,2\n3,\n"),
                   ParseError, "row 3, column 'y': empty cell"),
    "empty-file": (lambda tmp: _csv(tmp, ""), EmptyDataset, "is empty"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_check_raises_its_error(call, error, fragment, tmp_path):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert fragment in str(info.value)
