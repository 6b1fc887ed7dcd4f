"""The secular solver behind Jacobi coordinates, against a high-precision reference.

The roots of sum_i z_i/(p_i - lam) = 1 are taken in mpmath from the exact
float inputs as eigenvalues, apart from the production solver's pole
offsets and rational steps.
"""

import itertools

import mpmath as mp
import numpy as np
import pytest

from confocalfit.pencil import (
    COORD_TOL,
    GAP_TOL,
    _MAX_STEPS,
    ConfocalPencil,
    _secular_root,
    _secular_roots,
    jacobi_coordinates,
)

EPS = float(np.finfo(float).eps)

SCALES = (1e-6, 1e-2, 1.0, 1e4)
SPREADS = (1e-4, 1e-2, 1.0, 1e2, 1e4)  # query coordinates, in units of the pole gaps
OFFSETS = (0.0, 1e3, 1e8)  # of the poles, in units of their gaps
NARROW = (None, 1e-3, 10 * GAP_TOL)  # one gap, relative to the largest |pole|
TINY = (None, 1e-4, 1e-6, 1e-9)  # one coordinate, relative to the focal scale


def secular_problem(k, scale, n):
    """Weights z and decreasing poles of one reference case."""
    group = SCALES.index(scale) + 4 * k
    rng = np.random.default_rng([k, group, n])
    spread, offset = SPREADS[(n + group) % 5], OFFSETS[n % 3]
    narrow, tiny = NARROW[(n // 3 + group) % 3], TINY[(n + group // 3) % 4]
    gaps = rng.uniform(0.5, 1.5, k - 1)
    if narrow is not None:
        gaps[rng.integers(k - 1)] = narrow * (offset + gaps.sum())
    poles = scale * (offset + np.concatenate(([0.0], np.cumsum(gaps))))[::-1]
    x = rng.normal(size=k) * spread * np.sqrt(scale)
    if tiny is not None:
        x[rng.integers(k)] = tiny * np.sqrt(poles[0] - poles[-1])
    return x**2, poles


def reference(z, poles):
    """Ascending roots, the differences p_i - lam_j, and each root's rounding
    radius (sum_i |t_i| + 1) / g' with t_i = z_i/(p_i - lam): the distance
    over which rounding each term once moves the root.

    The roots are the eigenvalues of diag(p) - x x^T (Golub 1973), taken at
    80 digits: a root within 1e-40 of a pole of size 1 still has its
    difference to that pole to 40 digits.
    """
    with mp.workdps(80):
        x = mp.matrix([mp.sqrt(mp.mpf(float(v))) for v in z])
        p = [mp.mpf(float(v)) for v in poles]
        roots = sorted(mp.eigsy(mp.diag(p) - x * x.T, eigvals_only=True))
        radii = []
        for lam in roots:
            terms = [xi**2 / (pi - lam) for xi, pi in zip(x, p)]
            slope = mp.fsum(t / (pi - lam) for t, pi in zip(terms, p))
            radii.append((mp.fsum(abs(t) for t in terms) + 1) / slope)
        diff = [[pi - lam for lam in roots] for pi in p]
    return roots, diff, radii


@pytest.mark.parametrize("k, scale", itertools.product((2, 3, 6), SCALES))
def test_roots_match_an_80_digit_reference(k, scale):
    for n in range(10):
        z, poles = secular_problem(k, scale, n)
        roots, diff = _secular_roots(z, poles)
        exact, exact_diff, radii = reference(z, poles)
        top = float(np.abs(poles).max())
        for j, (got, want) in enumerate(zip(roots, exact)):
            error = float(abs(mp.mpf(float(got)) - want))
            assert error <= 5e-16 * max(top, abs(float(want))), (n, j)
        # every p_i - lam_j to a few ulps of itself, or of the root's
        # rounding radius where the terms of g cancel
        for i, j in itertools.product(range(k), range(k)):
            want = exact_diff[i][j]
            error = float(abs(mp.mpf(float(diff[i, j])) - want))
            assert error <= 4 * EPS * float(abs(want) + radii[j]), (n, i, j)


def test_roots_scale_exactly_by_powers_of_four():
    # z, poles and roots all carry units of length^2: scaled by 4^j they
    # must come out scaled by exactly 4^j, so no intermediate (such as
    # D_l^2 psi') may leave the float range before the inputs do
    rng = np.random.default_rng(4)
    for k in (2, 3, 6):
        poles = np.sort(rng.uniform(-2.0, 2.0, k))[::-1]
        z = 10.0 ** rng.uniform(-2.0, 2.0, k)
        roots, diff = _secular_roots(z, poles)
        for j in range(-500, 501):
            f = 4.0**j
            scaled_roots, scaled_diff = _secular_roots(z * f, poles * f)
            assert np.array_equal(scaled_roots, roots * f), (k, j)
            assert np.array_equal(scaled_diff, diff * f), (k, j)


def test_jacobi_coordinates_scale_exactly_by_powers_of_two():
    poles = np.array([3.0, 1.0, -0.5, -2.0])
    j1 = poles[0]
    pencil = ConfocalPencil(np.zeros(4), np.eye(4), 2 * j1 - poles, 1.0, poles)
    points = [
        [0.3, -1.2, 0.7, 2.0],
        [0.0, 1.5, -0.4, 0.9],  # on a principal hyperplane: one degenerate root
        [1e-3, 0.8, -1.1, 0.2],  # near one
        [40.0, -25.0, 31.0, 12.0],  # far out
    ]
    for point in points:
        jc = jacobi_coordinates(pencil, point)
        for j in range(-250, 251):
            s = 2.0**j
            scaled = ConfocalPencil(np.zeros(4), np.eye(4), (2 * j1 - poles) * s * s, 1.0,
                                    poles * s * s)
            sc = jacobi_coordinates(scaled, np.asarray(point) * s)
            assert np.array_equal(sc.lambdas, jc.lambdas * s * s), (point, j)
            assert np.array_equal(sc.degenerate, jc.degenerate), (point, j)
            assert np.array_equal(sc.normals, jc.normals), (point, j)


def test_a_root_hit_by_the_first_evaluation_is_kept():
    # the first evaluation of each root sits at its bracket's midpoint; where
    # g vanishes there the last step is of zero length and must not be
    # bisected away as leaving the bracket
    cases = [
        ([1.0, 2.0], [0.0, 2.0], [None, 1.0]),  # interior root at the midpoint 1
        ([0.5], [3.0], [2.5]),  # one pole: the root p - z at the midpoint of [p - 2z, p]
        ([0.25, 1.25], [-1.0, 1.0], [None, 0.0]),  # interior root at the midpoint 0
    ]
    for z, p, expected in cases:
        for j, want in enumerate(expected):
            if want is None:
                continue
            origin, tau, steps = _secular_root(z, p, j)
            assert steps == 1
            assert origin + tau == pytest.approx(want, abs=2 * EPS * max(map(abs, p)))


def test_far_points_with_a_tiny_coordinate_stop_before_the_cap():
    # far out the terms of g cancel near the pole of a tiny coordinate, so
    # |eta| <= 2 eps |tau| can stay out of reach; g's rounding test must stop
    # the root instead of the step cap
    rng = np.random.default_rng(12)
    for k, far, tiny in itertools.product((2, 3, 6), (1e2, 1e3, 1e4), (1e-4, 1e-6, COORD_TOL)):
        for _ in range(20):
            p = np.cumsum(rng.uniform(0.5, 1.5, k)).tolist()
            x = rng.normal(size=k)
            x *= far / np.linalg.norm(x)
            x[rng.integers(k)] = tiny
            z = (x**2).tolist()
            for j in range(k):
                origin, tau, steps = _secular_root(z, p, j)
                assert steps < _MAX_STEPS, (k, far, tiny, j)
                low = p[j - 1] if j else p[0] - 2 * sum(z)
                assert low < origin + tau < p[j] or origin + tau in (low, p[j])
