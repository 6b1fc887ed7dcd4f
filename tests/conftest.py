"""Shared fixtures: the two worked datasets and random full-rank samples."""

import numpy as np
import pytest

from confocalfit import WeightedPointSet

# Spleen-cell counts (square roots of rosette-forming and nucleated cell
# counts for five fetal mice); classical errors-in-variables example.
CELLS_XY = np.array(
    [
        [18.358, 7.211],
        [11.874, 2.449],
        [13.304, 3.742],
        [10.770, 2.236],
        [9.381, 2.236],
    ]
)

# Forbes' seventeen boiling-point / barometric-pressure observations.
FORBES_XY = np.array(
    [
        [194.5, 20.79],
        [194.3, 20.79],
        [197.9, 22.40],
        [198.4, 22.67],
        [199.4, 23.15],
        [199.9, 23.35],
        [200.9, 23.89],
        [201.1, 23.99],
        [201.4, 24.02],
        [201.3, 24.01],
        [203.6, 25.14],
        [204.6, 26.57],
        [209.5, 28.49],
        [208.6, 27.76],
        [210.7, 29.04],
        [211.9, 29.88],
        [212.2, 30.06],
    ]
)


# Unit changes that the worked examples must survive: every moment and
# Jacobi coordinate scales by s^2, to rounding.
SCALES = (1e-6, 1e3)

# Data scaled by 2^j is exact in floating point, but LAPACK rescales an
# operator outside its safe range by factors that are not powers of two, so
# its eigenvalues move by a few ulps of the largest one.
SCALE_ULPS = 64 * np.finfo(float).eps


def assert_scaled(got, want, factor, scale=None):
    """``got`` is ``want * factor`` to ``SCALE_ULPS`` of ``scale * factor``
    (default: of the largest |entry| of ``want``)."""
    want = np.asarray(want, dtype=float) * factor
    scale = np.abs(want).max() if scale is None else scale * factor
    assert np.abs(np.asarray(got, dtype=float) - want).max() <= SCALE_ULPS * scale


@pytest.fixture
def cells():
    return WeightedPointSet(CELLS_XY)


@pytest.fixture
def forbes():
    return WeightedPointSet(FORBES_XY)


def random_point_set(rng, k, n=None, unit_masses=False, spread=None, shift=4.0):
    """Full-rank random sample with anisotropic spread and random rotation."""
    n = n or max(3 * k, 8)
    if spread is None:
        spread = np.geomspace(2.0, 0.5, k)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    coords = rng.normal(size=(n, k)) * spread @ q.T + rng.uniform(-shift, shift, size=k)
    masses = None if unit_masses else rng.uniform(0.5, 2.0, size=n)
    ps = WeightedPointSet(coords, masses)
    if not ps.is_full_rank:  # pragma: no cover - vanishingly unlikely
        return random_point_set(rng, k, n, unit_masses, spread, shift)
    return ps


def random_unit_vector(rng, k):
    v = rng.normal(size=k)
    return v / np.linalg.norm(v)


def gram_moment(ps, base_point, spanning):
    """l-planar moment via the Gram-determinant (wedge-product) inner product.

    ``spanning`` is a (k, l) array of columns that need not be orthonormal;
    the squared volume form is normalized by the basis Gram determinant.
    Independent oracle for the projection-based implementation.
    """
    v = np.asarray(spanning, dtype=float)
    base = np.asarray(base_point, dtype=float)
    g_basis = np.linalg.det(v.T @ v)
    total = 0.0
    for point, mass in zip(ps.coords, ps.masses):
        cols = np.column_stack([point - base, v])
        total += mass * np.linalg.det(cols.T @ cols) / g_basis
    return total
