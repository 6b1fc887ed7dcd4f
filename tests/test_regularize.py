"""Bounded-coefficient orthogonal regression and the dual pencil."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confocalfit import (
    CoefficientVector,
    Hyperplane,
    WeightedPointSet,
    best_fit_flat,
    build_pencil,
    constrained_fit,
    dual_quadric,
    hyperplanar_moment,
    moment_of_coefficients,
    tangent_hyperplane,
)
from confocalfit import regularize
from confocalfit.errors import L1DimensionTooLarge, NoEnvelope, ZeroVector
from confocalfit.regularize import L1_MAX_DIM

from conftest import CELLS_XY, FORBES_XY, assert_scaled, random_point_set

from test_geometry import _record_calls
from test_pencil import sample_point_on_member

# six points centred exactly at the origin, with J_1 = 1.82894985...
ORIGIN_XY = np.array([[1.0, 2.0], [-1.0, -2.0], [2.0, 1.5], [-2.0, -1.5], [0.5, -0.3], [-0.5, 0.3]])


def make_2d(rng, n=14):
    return random_point_set(rng, 2, n=n, unit_masses=True, spread=[1.8, 0.6])


def unconstrained_u(ps):
    plane = best_fit_flat(ps, ps.dim - 1).flat
    return plane.normal / plane.offset


def polar_grid_minimum(ps, norm, bound, n_angles=4000, n_radii=200):
    """Dense polar-grid brute force over the norm ball (2D only)."""
    angles = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    if norm == "l2":
        rmax = np.full(n_angles, bound)
    else:
        rmax = bound / np.abs(dirs).sum(axis=1)
    j0 = (ps.coords * ps.masses[:, None]).T @ ps.coords
    s = (ps.masses[:, None] * ps.coords).sum(axis=0)
    m = ps.total_mass
    a = np.einsum("ij,jk,ik->i", dirs, j0, dirs)
    b = dirs @ s
    radii = rmax[:, None] * np.geomspace(1e-4, 1.0, n_radii)[None, :]
    values = a[:, None] - 2 * b[:, None] / radii + m / radii**2
    return float(values.min())


def centred_pieces(ps):
    """Centroid and scatter about it, summed as offsets from the first point."""
    x, w = ps.coords, ps.masses
    c = x[0] + w @ (x - x[0]) / w.sum()
    d = x - c
    return c, (d * w[:, None]).T @ d


def sampled_minimum(ps, norm, bound, rng, n_dirs=100_000, starts=3, rounds=50):
    """Smallest moment over sampled unit normals n, each with its best offset.

    For a unit normal the bound reads p >= ||n||_q / bound, so the best
    admissible offset is p = max(<n, c>, ||n||_q / bound), scored with the
    centred scatter.  Dense sampling is followed by a shrinking random local
    search around each of the best few samples.  Works in any dimension.
    """
    c, scatter = centred_pieces(ps)
    m = ps.total_mass

    def moment(dirs):
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        q = np.abs(dirs).sum(axis=1) if norm == "l1" else 1.0
        nc = dirs @ c
        p = np.maximum(nc, q / bound)
        return np.einsum("ij,jk,ik->i", dirs, scatter, dirs) + m * (nc - p) ** 2

    dirs = rng.normal(size=(n_dirs, ps.dim))
    values = moment(dirs)
    found = []
    for best in dirs[np.argsort(values)[:starts]]:
        value, radius = float(moment(best[None])[0]), 0.2 * np.linalg.norm(best)
        for _ in range(rounds):
            trial = best + radius * rng.normal(size=(1000, ps.dim))
            # copies with random coordinates zeroed reach the L1 ball's faces
            sparse = trial * (rng.random(trial.shape) > 0.3)
            trial = np.vstack([trial, sparse[sparse.any(axis=1)]])
            trial_values = moment(trial)
            if trial_values.min() < value:
                best, value = trial[np.argmin(trial_values)], float(trial_values.min())
            radius *= 0.6
        found.append(value)
    return min(found)


def assert_matches_sampled_minimum(ps, norm, bound, rng):
    """The fit is feasible, its coefficients give its moment, and no sampled
    plane does better.  The sampled minimum only bounds the true one from
    above, so the check from below is loose."""
    fit = constrained_fit(ps, norm, bound)
    u = fit.coefficients.u
    size = np.abs(u).sum() if norm == "l1" else np.linalg.norm(u)
    assert size <= bound * (1 + 1e-12)
    c, scatter = centred_pieces(ps)
    n, p = u / np.linalg.norm(u), 1.0 / np.linalg.norm(u)
    again = n @ scatter @ n + ps.total_mass * (n @ c - p) ** 2
    assert fit.moment == pytest.approx(again, rel=1e-9)
    oracle = sampled_minimum(ps, norm, bound, rng)
    assert fit.moment <= oracle * (1 + 1e-9)
    assert fit.moment >= oracle * (1 - 1e-4)
    return fit


# ---------------------------------------------------------------------------
# moment of coefficients
# ---------------------------------------------------------------------------

def test_moment_of_unconstrained_optimum_is_j1():
    rng = np.random.default_rng(60)
    ps = make_2d(rng)
    u = CoefficientVector(unconstrained_u(ps))
    assert moment_of_coefficients(ps, u) == pytest.approx(
        best_fit_flat(ps, 1).moment, rel=1e-9
    )


def test_moment_of_coefficients_cells_line(cells):
    # the best-fit line y = 0.60793 x - 4.16865 encoded as <u, x> = 1
    slope, intercept = 0.60793, -4.16865
    u = CoefficientVector(np.array([-slope, 1.0]) / intercept)
    assert moment_of_coefficients(cells, u) == pytest.approx(0.69605, abs=1e-4)


def test_moment_of_coefficients_is_hyperplanar_moment(cells):
    # random u against the row sum  sum_j m_j (<u, P_j> - 1)^2 / |u|^2
    rng = np.random.default_rng(61)
    ps = random_point_set(rng, 3)
    for _ in range(10):
        u = rng.normal(size=3)
        want = ps.masses @ (ps.coords @ u - 1.0) ** 2 / (u @ u)
        assert moment_of_coefficients(ps, CoefficientVector(u)) == pytest.approx(want, rel=1e-12)
    # u = base 2^j is the plane {<base, x> = 2^-j}; |u|^2 overflows from j = 513
    base = np.array([0.05, -0.1])
    for j in range(-500, 1001):
        got = moment_of_coefficients(cells, CoefficientVector(np.ldexp(base, j)))
        want = hyperplanar_moment(cells, Hyperplane(base, math.ldexp(1.0, -j)))
        assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(32.3584314, rel=1e-9)  # the plane through 0


def test_zero_coefficients_rejected():
    with pytest.raises(ZeroVector):
        CoefficientVector(np.zeros(2))


def test_coefficients_of_any_scale():
    plane = CoefficientVector([1e300, 1e300]).hyperplane()
    assert np.allclose(plane.normal, [0.5**0.5] * 2, rtol=1e-15, atol=0)
    assert plane.offset == pytest.approx(0.5**0.5 * 1e-300, rel=1e-15)
    assert CoefficientVector([1e-320, 0.0]).u[0] == 1e-320


# ---------------------------------------------------------------------------
# dual quadric
# ---------------------------------------------------------------------------

def test_dual_quadric_minimum_level_is_rank_degenerate(cells):
    pencil = build_pencil(cells)
    dual = dual_quadric(pencil, float(pencil.principal_moments[0]))
    best = best_fit_flat(cells, 1).flat
    assert dual.residual(best) < 1e-12
    # the only tangential solutions are multiples of the best hyperplane's
    # coordinates: the form is negative semidefinite with a 1D kernel
    eigvals = np.linalg.eigvalsh(dual.matrix)
    assert (eigvals < 1e-9).all()
    assert np.sum(np.abs(eigvals) < 1e-9 * np.abs(eigvals).max()) == 1


def test_dual_quadric_annihilates_tangent_planes():
    rng = np.random.default_rng(62)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    spread = pencil.poles[0] - pencil.poles[-1]
    for lam in (pencil.poles[-1] - 0.9 * spread, pencil.poles[-1] - 0.1 * spread):
        member = pencil.member(float(lam))
        level = 2 * pencil.principal_moments[0] - pencil.mass * lam
        dual = dual_quadric(pencil, float(level))
        for _ in range(100):
            plane = tangent_hyperplane(member, sample_point_on_member(member, rng))
            assert dual.residual(plane) < 1e-9


def test_dual_quadric_rejects_unreachable_levels(cells):
    pencil = build_pencil(cells)
    with pytest.raises(NoEnvelope):
        dual_quadric(pencil, float(pencil.principal_moments[0]) - 0.5)


def test_dual_quadrics_form_linear_pencil():
    rng = np.random.default_rng(63)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    j1 = float(pencil.principal_moments[0])
    levels = [j1 * 1.5, j1 * 3.0, j1 * 7.0]
    mats = [dual_quadric(pencil, lv).matrix.ravel() for lv in levels]
    diffs = np.vstack([mats[1] - mats[0], mats[2] - mats[0]])
    # differences of members span one direction: the pencil is linear
    assert np.linalg.matrix_rank(diffs, tol=1e-9 * np.abs(diffs).max()) == 1


# ---------------------------------------------------------------------------
# constrained fits
# ---------------------------------------------------------------------------

def test_inactive_bound_returns_unconstrained_optimum():
    rng = np.random.default_rng(64)
    ps = make_2d(rng)
    ustar = unconstrained_u(ps)
    j1 = best_fit_flat(ps, 1).moment
    for norm, size in [("l2", np.linalg.norm(ustar)), ("l1", np.abs(ustar).sum())]:
        fit = constrained_fit(ps, norm, bound=2.0 * size)
        assert fit.moment == pytest.approx(j1, rel=1e-8)
        assert not fit.active


def test_constrained_fit_matches_polar_grid():
    rng = np.random.default_rng(65)
    for trial in range(3):
        ps = make_2d(rng)
        ustar = unconstrained_u(ps)
        for norm in ("l2", "l1"):
            size = np.linalg.norm(ustar) if norm == "l2" else np.abs(ustar).sum()
            for frac in (0.2, 0.6):
                bound = frac * size
                fit = constrained_fit(ps, norm, bound)
                oracle = polar_grid_minimum(ps, norm, bound)
                assert fit.moment == pytest.approx(oracle, rel=1e-3)
                assert fit.active


def test_l1_vertex_reporting():
    # data aligned so the lasso solution pins one coordinate to zero
    rng = np.random.default_rng(66)
    pts = rng.normal(size=(20, 2)) * [0.4, 1.5] + [6.0, 0.3]
    ps = WeightedPointSet(pts)
    ustar = unconstrained_u(ps)
    fit = constrained_fit(ps, "l1", bound=0.12 * np.abs(ustar).sum())
    assert fit.active
    assert fit.zero_coordinates == (1,)
    assert abs(fit.coefficients.u[1]) <= 1e-8 * np.abs(fit.coefficients.u).max()


def test_kkt_certificate_at_active_solutions():
    rng = np.random.default_rng(67)
    ps = make_2d(rng)
    j0 = (ps.coords * ps.masses[:, None]).T @ ps.coords
    s = (ps.masses[:, None] * ps.coords).sum(axis=0)
    m = ps.total_mass
    ustar = unconstrained_u(ps)

    def gradient(u):
        f = moment_of_coefficients(ps, CoefficientVector(u))
        return (2.0 / (u @ u)) * (j0 @ u - s - f * u)

    for norm in ("l2", "l1"):
        size = np.linalg.norm(ustar) if norm == "l2" else np.abs(ustar).sum()
        fit = constrained_fit(ps, norm, bound=0.3 * size)
        assert fit.active
        u = fit.coefficients.u
        g = -gradient(u)  # must lie in the normal cone at u
        if norm == "l2":
            tau = float(g @ u) / float(u @ u)
            assert tau > 0
            assert np.linalg.norm(g - tau * u) <= 1e-6 * np.linalg.norm(g)
        else:
            support = np.abs(u) > 1e-8 * np.abs(u).max()
            t = float(np.max(np.abs(g[support])))
            assert np.abs(g[support] - t * np.sign(u[support])).max() <= 1e-6 * t
            if np.any(~support):
                assert np.abs(g[~support]).max() <= t * (1 + 1e-6)


def test_moment_monotone_in_bound():
    rng = np.random.default_rng(68)
    ps = make_2d(rng)
    ustar = unconstrained_u(ps)
    for norm in ("l2", "l1"):
        size = np.linalg.norm(ustar) if norm == "l2" else np.abs(ustar).sum()
        moments = [
            constrained_fit(ps, norm, bound=frac * size).moment
            for frac in (0.1, 0.3, 0.5, 0.8, 1.5)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(moments, moments[1:]))


def test_returned_pair_sits_on_its_dual_quadric():
    rng = np.random.default_rng(69)
    ps = make_2d(rng)
    pencil = build_pencil(ps)
    ustar = unconstrained_u(ps)
    fit = constrained_fit(ps, "l2", bound=0.4 * np.linalg.norm(ustar))
    dual = dual_quadric(pencil, fit.moment)
    assert dual.residual(fit.coefficients) < 1e-8


def test_active_solution_misses_centroid():
    # unlike ordinary ridge/lasso, the bounded orthogonal fit need not pass
    # through the centroid
    rng = np.random.default_rng(70)
    pts = rng.normal(size=(16, 2)) * [1.5, 0.5] @ np.array(
        [[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]]
    ) + [3.0, 1.0]
    ps = WeightedPointSet(pts)
    ustar = unconstrained_u(ps)
    fit = constrained_fit(ps, "l2", bound=0.25 * np.linalg.norm(ustar))
    assert fit.active
    plane = fit.coefficients.hyperplane()
    c = ps.center
    assert abs(float(plane.signed_distance(c[None, :])[0])) > 1e-6


@pytest.mark.parametrize(
    "name, shift, norm, bound",
    [
        # tiny L1 balls: the optimum sits on a low face of the cube
        ("cells", 0.0, "l1", 1e-4),
        ("cells", 0.0, "l1", 1e-3),
        ("forbes", 0.0, "l1", 1e-4),
        ("forbes", 0.0, "l1", 1e-3),
        # far from the origin: raw second moments would cancel
        ("cells", 1e3, "l2", 1e-3),
        ("cells", 1e5, "l2", 1e-3),
    ],
)
def test_worked_sets_match_sampled_oracle(name, shift, norm, bound):
    ps = WeightedPointSet((CELLS_XY if name == "cells" else FORBES_XY) + shift)
    assert_matches_sampled_minimum(ps, norm, bound, np.random.default_rng(73))


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_constrained_fit_matches_sampled_oracle(k, shift):
    # far from the origin, bounds just below the unconstrained size keep the
    # moment at the scale of the spread, where rounding would show
    rng = np.random.default_rng(75 + k)
    for trial in range(2):
        base = random_point_set(rng, k)
        ps = WeightedPointSet(base.coords + shift, base.masses)
        ustar = unconstrained_u(ps)
        for norm in ("l2", "l1"):
            size = np.linalg.norm(ustar) if norm == "l2" else np.abs(ustar).sum()
            for frac in (0.9, 0.999) if shift else (0.2, 0.6):
                fit = assert_matches_sampled_minimum(ps, norm, frac * size, rng)
                assert fit.active


def test_l2_hard_case():
    # mirror-symmetric data: the centroid is orthogonal to the bottom
    # eigenvector of S + m c c^T, so large bounds hit the hard case and the
    # optimum is one of a mirror pair
    pts = np.array([[1.5, 2.0], [0.5, 3.0], [1.0, 4.5], [0.25, 1.0]])
    pts = np.vstack([pts, pts * [-1.0, 1.0]])
    ps = WeightedPointSet(pts)
    turn = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    rotated = WeightedPointSet(pts @ turn.T)
    c, s = centred_pieces(ps)
    m = len(pts)
    threshold = m * c[1] / (s[1, 1] + m * c[1] ** 2 - s[0, 0])
    rng = np.random.default_rng(76)
    for bound in (0.5 * threshold, 2.0 * threshold, 10.0 * threshold):
        fit = assert_matches_sampled_minimum(ps, "l2", bound, rng)
        assert fit.active
        assert np.linalg.norm(fit.coefficients.u) == pytest.approx(bound, rel=1e-12)
        mirror = CoefficientVector(fit.coefficients.u * [-1.0, 1.0])
        assert moment_of_coefficients(ps, mirror) == pytest.approx(fit.moment, rel=1e-9)
        # rotation about the origin preserves the L2 problem
        assert constrained_fit(rotated, "l2", bound).moment == pytest.approx(
            fit.moment, rel=1e-9
        )


def steep_plane(rng) -> WeightedPointSet:
    """24 points near the steep plane z = 5 + 0.4 x + 0.1 y."""
    xy = rng.normal(size=(24, 2)) * [3.0, 2.0]
    z = 5.0 + 0.4 * xy[:, 0] + 0.1 * xy[:, 1] + 0.05 * rng.normal(size=24)
    return WeightedPointSet(np.column_stack([xy, z]))


def test_l1_zero_coordinates_are_off_the_face():
    # shrinking the L1 ball zeroes y, then x
    rng = np.random.default_rng(72)
    ps = steep_plane(rng)
    c, s = centred_pieces(ps)
    for bound, zeros in ((0.2, (1,)), (0.15, (0, 1))):
        fit = assert_matches_sampled_minimum(ps, "l1", bound, rng)
        u = fit.coefficients.u
        assert fit.zero_coordinates == zeros
        assert tuple(np.flatnonzero(u == 0.0)) == zeros
        # the moment is the bottom eigenvalue of the face's quadratic form
        face = np.flatnonzero(u != 0.0)
        w = np.sign(u[face]) / bound - c[face]
        form = s[np.ix_(face, face)] + ps.total_mass * np.outer(w, w)
        assert fit.moment == pytest.approx(np.linalg.eigvalsh(form)[0], rel=1e-9)


_STEEP = steep_plane(np.random.default_rng(72))

# (norm, bound, active, zero_coordinates) on _STEEP
_STEEP_FITS = [
    ("l1", 0.2, True, (1,)),
    ("l1", 0.15, True, (0, 1)),
    ("l2", 0.1, True, ()),
    ("l1", 10.0, False, ()),
    ("l2", 10.0, False, ()),
]


@settings(max_examples=60, deadline=None)
@given(j=st.integers(-500, 500))
@example(j=-500)
@example(j=500)
def test_constrained_fit_scales_by_powers_of_two(j):
    # data scaled by 2^j and the bound by 2^-j: the moment scales by 4^j to a
    # few ulps of the largest principal moment, the coefficients by 2^-j, and
    # the same coordinates are zero
    s = 2.0**j
    scaled = WeightedPointSet(_STEEP.coords * s, _STEEP.masses)
    for norm, bound, active, zeros in _STEEP_FITS:
        fit = constrained_fit(_STEEP, norm, bound)
        scaled_fit = constrained_fit(scaled, norm, bound / s)
        assert (fit.active, fit.zero_coordinates) == (active, zeros)
        assert (scaled_fit.active, scaled_fit.zero_coordinates) == (active, zeros)
        top = max(_STEEP.spectrum.values[-1], fit.moment)
        assert_scaled(scaled_fit.moment, fit.moment, s * s, scale=top)
        assert_scaled(scaled_fit.coefficients.u, fit.coefficients.u, 1.0 / s)


def test_l1_dimension_cap():
    rng = np.random.default_rng(77)
    ps = random_point_set(rng, L1_MAX_DIM + 1)
    with pytest.raises(L1DimensionTooLarge) as info:
        constrained_fit(ps, "l1", 1e-3)
    assert info.value.code == "l1-dimension-too-large"
    assert constrained_fit(ps, "l2", 1e-3).active


@pytest.mark.parametrize("bound", [1e160, 1e200, 1e300])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_large_bounds_at_the_origin_reach_j1(norm, bound):
    # |w| = sqrt(m) / bound is far below 1e-154, where its norm would underflow;
    # the plane through the centroid nearly meets the bound, so the moment is J_1
    ps = WeightedPointSet(ORIGIN_XY)
    assert not ps.center.any()
    fit = constrained_fit(ps, norm, bound)
    assert fit.active
    assert fit.moment == pytest.approx(ps.spectrum.values[0], rel=1e-12)


def test_ridge_with_the_centroid_at_the_origin():
    # c = 0: every g~ is zero, so no coordinate is live and the hard case
    # returns the bottom eigenvector, with moment J_1 + m / bound^2
    ps = WeightedPointSet(ORIGIN_XY)
    assert ps._ridge[3] == 0.0
    for bound in (0.1, 1.0, 10.0):
        fit = constrained_fit(ps, "l2", bound)
        assert fit.active
        want = ps.spectrum.values[0] + ps.total_mass / bound**2
        assert fit.moment == pytest.approx(want, rel=1e-14)
        normal = fit.coefficients.u / bound
        assert abs(normal @ ps.spectrum.vectors[:, 0]) == pytest.approx(1.0, rel=1e-14)


def _grid(ps, norm, fracs=(2.0, 0.9, 0.5, 0.2, 0.05)):
    """Bounds at ``fracs`` of the unconstrained plane's coefficient norm."""
    u = unconstrained_u(ps)
    return [frac * (np.abs(u).sum() if norm == "l1" else np.linalg.norm(u)) for frac in fracs]


def test_a_grid_of_l2_bounds_shares_one_ridge_eigensystem(monkeypatch):
    # besides the spectrum, which the grid itself reads, one eigh in all
    ps = random_point_set(np.random.default_rng(78), 3)
    bounds = _grid(ps, "l2", (0.9, 0.5, 0.2, 0.05, 0.01))
    calls = _record_calls(monkeypatch, (np.linalg, "eigh"), (np.linalg, "eigvalsh"))
    assert all(constrained_fit(ps, "l2", bound).active for bound in bounds)
    assert calls == ["eigh"]


def test_a_grid_of_l1_bounds_gathers_the_blocks_once(monkeypatch):
    ps = random_point_set(np.random.default_rng(78), 4)
    bounds = _grid(ps, "l1", (0.9, 0.5, 0.2, 0.05, 0.01))
    calls = _record_calls(monkeypatch, (regularize, "_support_blocks"))
    assert all(constrained_fit(ps, "l1", bound).active for bound in bounds)
    assert calls == ["_support_blocks"]


def _fit_bytes(fit):
    return (fit.coefficients.u.tobytes(), fit.moment, fit.active, fit.zero_coordinates)


@pytest.mark.parametrize("shift", [0.0, 1e6])
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_cached_work_gives_the_same_bits(norm, k, shift):
    # each bound on a fresh set against the same bound on a set that has
    # already answered the rest of the grid
    base = random_point_set(np.random.default_rng(79 + k), k)
    coords = base.coords + shift
    warm = WeightedPointSet(coords, base.masses)
    bounds = _grid(warm, norm)
    fits = [constrained_fit(warm, norm, bound) for bound in bounds]
    assert [fit.active for fit in fits] == [False, True, True, True, True]
    for bound, fit in zip(bounds, fits):
        fresh = constrained_fit(WeightedPointSet(coords, base.masses), norm, bound)
        assert _fit_bytes(fit) == _fit_bytes(fresh)
    cached = warm._ridge[:3] if norm == "l2" else warm._support_blocks
    assert len(cached) == (3 if norm == "l2" else k - 1)
    for array in cached:
        with pytest.raises(ValueError):
            array.flat[0] = 0.0
