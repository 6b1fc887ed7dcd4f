"""Fits, restricted PCA, directional regression and hypothesis tests."""

import math
import sys

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confocalfit import (
    FlatSubspace,
    Hyperplane,
    SymmetricOperator,
    WeightedPointSet,
    best_fit_flat,
    build_pencil,
    constrained_fit,
    directional_fit,
    directional_moment,
    f_upper_tail,
    hyperplanar_moment,
    inertia_operator,
    jacobi_coordinates,
    l_planar_moment,
    nested_f_test,
    point_hypothesis_test,
    restricted_best_fit_flat,
    restricted_pca,
)
from confocalfit import pencil as pencil_module
from confocalfit.errors import (
    BadCovariance,
    BadDegrees,
    ConfocalFitError,
    NonUnitMasses,
    PointOutOfRange,
    RankDeficient,
)

import oracle
from conftest import (
    CELLS_XY,
    FORBES_XY,
    SCALES,
    assert_scaled,
    random_point_set,
    random_unit_vector,
)
from test_geometry import _record_calls


def line_slope_intercept(plane: Hyperplane):
    slope = -plane.normal[0] / plane.normal[1]
    intercept = plane.offset / plane.normal[1]
    return float(slope), float(intercept)


def assert_restricted_moments_scale(xy, point, best, worst):
    """Data and point scaled by s give restricted moments s^2 times these."""
    for s in SCALES:
        b, w = restricted_best_fit_flat(WeightedPointSet(xy * s), np.asarray(point) * s, 1)
        assert b.moment == pytest.approx(s**2 * best.moment, rel=1e-12, abs=0)
        assert w.moment == pytest.approx(s**2 * worst.moment, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# unrestricted best fit
# ---------------------------------------------------------------------------

def test_best_fit_cells_line(cells):
    fit = best_fit_flat(cells, 1)
    slope, intercept = line_slope_intercept(fit.flat)
    assert slope == pytest.approx(0.60793, rel=1e-4)
    assert intercept == pytest.approx(-4.16865, rel=1e-4)
    assert fit.moment == pytest.approx(0.69605, rel=1e-5)


def test_best_fit_forbes_orthogonal_moment(forbes):
    # the orthogonal fit differs from the vertical least-squares line; its
    # moment is the smallest principal moment
    fit = best_fit_flat(forbes, 1)
    assert fit.moment == pytest.approx(0.63839, rel=1e-5)


def test_best_fit_rejects_rank_deficient_data():
    # the generality gate applies even when the requested flat would be
    # well-defined (coplanar data asking for the l = 2 fit)
    rng = np.random.default_rng(40)
    basis, _ = np.linalg.qr(rng.normal(size=(3, 2)))
    base = rng.normal(size=3)
    ps = WeightedPointSet(base + rng.normal(size=(9, 2)) @ basis.T)
    with pytest.raises(RankDeficient):
        best_fit_flat(ps, 2)


def test_best_fit_flat_moment_matches_direct():
    rng = np.random.default_rng(41)
    for k, ell in [(3, 1), (3, 2), (4, 2), (5, 3)]:
        ps = random_point_set(rng, k)
        fit = best_fit_flat(ps, ell)
        flat = fit.flat.as_flat() if isinstance(fit.flat, Hyperplane) else fit.flat
        assert fit.moment == pytest.approx(l_planar_moment(ps, flat), rel=1e-9)


def test_best_fit_worst_line_cells(cells):
    _, worst = restricted_best_fit_flat(cells, cells.center, 1)
    slope, intercept = line_slope_intercept(worst.flat)
    assert slope == pytest.approx(-1.64493, rel=1e-4)
    assert intercept == pytest.approx(24.52689, rel=1e-4)


# ---------------------------------------------------------------------------
# restricted PCA
# ---------------------------------------------------------------------------

def test_restricted_pca_cells_origin(cells):
    res = restricted_pca(cells, [0.0, 0.0])
    assert res.moments[0] == pytest.approx(5.071564, rel=1e-5)
    assert res.moments[1] == pytest.approx(935.9271, rel=1e-5)


def test_restricted_pca_forbes(forbes):
    res = restricted_pca(forbes, [201.5, 24.5])
    assert res.moments[0] == pytest.approx(1.151006, rel=1e-4)
    assert res.moments[1] == pytest.approx(716.76559, rel=1e-5)


def test_restricted_pca_at_centroid_reduces_to_pca(cells):
    res = restricted_pca(cells, cells.center)
    pencil = build_pencil(cells)
    assert np.allclose(res.moments, pencil.principal_moments)
    assert np.allclose(np.abs(res.directions.T @ pencil.frame), np.eye(2), atol=1e-12)


def test_restricted_pca_lambda_identity():
    rng = np.random.default_rng(42)
    ps = random_point_set(rng, 4)
    pencil = build_pencil(ps)
    point = ps.center + rng.normal(size=4) * 2
    res = restricted_pca(ps, point)
    mapped = 2 * pencil.principal_moments[0] - pencil.mass * res.lambdas.lambdas[::-1]
    assert np.allclose(res.moments, mapped, rtol=1e-9)


def test_restricted_pca_directions_match_gradient_formula():
    # 2D basal vectors of the elliptic coordinates, up to normalization
    rng = np.random.default_rng(43)
    ps = random_point_set(rng, 2)
    pencil = build_pencil(ps)
    point = ps.center + np.array([1.3, -2.1])
    res = restricted_pca(ps, point)
    xt = pencil.to_principal(point)
    alpha, beta = pencil.poles
    lam1, lam2 = res.lambdas.lambdas
    # gradient of the lam_i coordinate, expressed in the principal frame
    for lam, direction in [(lam1, res.directions[:, 1]), (lam2, res.directions[:, 0])]:
        grad = np.array([(alpha - lam_other(lam, lam1, lam2)) / xt[0],
                         -(beta - lam_other(lam, lam1, lam2)) / xt[1]])
        grad /= np.linalg.norm(grad)
        local = pencil.frame.T @ direction
        assert np.abs(np.abs(grad @ local) - 1.0) < 1e-9


def lam_other(lam, lam1, lam2):
    return lam2 if lam == lam1 else lam1


def test_restricted_pca_ties_flagged():
    # at a planar focus the two point moments coincide and are flagged
    rng = np.random.default_rng(44)
    ps = random_point_set(rng, 2)
    pencil = build_pencil(ps)
    focus = pencil.attach_points()[0][0]
    res = restricted_pca(ps, focus)
    assert res.tied.all()


def test_restricted_pca_far_from_the_data(cells):
    # the smallest eigenvalue of A(P) at P = (300000, 200000), summed from the
    # five raw points, is 0.808619028292259227707...  Its entries are ~5e11,
    # so eigh of a floating-point A(P) is off by ~3e-5.
    point = [300000.0, 200000.0]
    smallest = oracle.eigen(oracle.scatter(cells.coords, cells.masses, point))[0][0]
    assert abs(float(smallest) / 0.808619028292259 - 1) <= 1e-15
    res = restricted_pca(cells, point)
    assert res.moments[0] == pytest.approx(0.808619028292259, rel=1e-12)


def test_a_point_whose_coordinates_overflow_is_refused(cells):
    # the lowest Jacobi coordinate is about -|x|^2: at 1e155 it is not a
    # float, at 1e150 it is, and so is every other value
    pencil = build_pencil(cells)
    far = [1e155, 1e155 / 3]
    with pytest.raises(PointOutOfRange, match="Jacobi coordinates overflow"):
        jacobi_coordinates(pencil, far)
    with pytest.raises(PointOutOfRange, match="Jacobi coordinates overflow"):
        restricted_pca(cells, far)
    near = [1e150, 1e150 / 3]
    jc, res = jacobi_coordinates(pencil, near), restricted_pca(cells, near)
    for values in (jc.lambdas, jc.normals, res.moments, res.directions):
        assert np.isfinite(values).all()
    assert jc.lambdas[0] == pytest.approx(-1e300 * (1 + 1 / 9), rel=1e-12)
    # with masses of 1e10 the coordinates are the same floats, but the
    # largest moment, about -m times the lowest, is not
    heavy = WeightedPointSet(CELLS_XY, np.full(5, 1e10))
    assert np.isfinite(jacobi_coordinates(build_pencil(heavy), near).lambdas).all()
    with pytest.raises(PointOutOfRange, match="largest moment overflows"):
        restricted_pca(heavy, near)


def test_a_directional_anchor_whose_products_overflow_is_refused(cells):
    # b = sqrt(m) L^-1 (P - c) has |b|^2 past the float range at 1e155, and
    # the nested test inherits the refusal; at 1e150 every value is finite
    w = [0.0, 1.0]
    far = [1e155, 1e155 / 3]
    with pytest.raises(PointOutOfRange, match="directional moment overflows"):
        directional_fit(cells, w, through=far)
    with pytest.raises(PointOutOfRange, match="directional moment overflows"):
        nested_f_test(cells, w, far)
    near = directional_fit(cells, w, through=[1e150, 1e150 / 3])
    assert math.isfinite(near.moment) and np.isfinite(near.flat.normal).all()
    # an anchor 1e150 along w: the moment is about m |P - c|^2, 5e300 for
    # unit masses and past the float range for masses of 1e10, although
    # b, which does not depend on the masses, is the same
    along = cells.center + [0.0, 1e150]
    assert directional_fit(cells, w, through=along).moment == pytest.approx(5e300, rel=1e-9)
    heavy = WeightedPointSet(CELLS_XY, np.full(5, 1e10))
    with pytest.raises(PointOutOfRange, match="directional moment overflows"):
        directional_fit(heavy, w, through=along)
    # data of spread 1e-4: A(c)'s factor is small, so L^-T (a + M b) is past
    # the float range at 1e149 although |b|^2 is not; the normal is the same
    small = WeightedPointSet(CELLS_XY * 1e-4)
    normals = [directional_fit(small, w, through=small.center + [t, -0.3 * t]).flat.normal
               for t in (1e140, 1e149)]
    assert np.abs(normals[0] - normals[1]).max() <= 1e-15


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_restricted_pca_near_a_focal_locus(k, offset):
    # one principal coordinate of P at 3e-9 focal scales, just above the
    # deflation threshold: the root sits closer to its pole than the pole's
    # rounding, so x_i / (p_i - lambda) taken naively is not orthogonal
    rng = np.random.default_rng(k)
    base = random_point_set(rng, k, n=40)
    ps = WeightedPointSet(base.coords + offset, base.masses)
    pencil = build_pencil(ps)
    scale = pencil.focal_scale()
    for i in range(k):
        x = rng.normal(size=k) * scale
        x[i] = 3e-9 * scale
        point = pencil.from_principal(x)
        res = restricted_pca(ps, point)
        assert not res.lambdas.degenerate.any()
        d = res.directions
        assert np.abs(d.T @ d - np.eye(k)).max() <= 1e-12
        # eigenvectors of A(P) summed from the points
        op = inertia_operator(ps, point).entries
        residual = np.abs(op @ d - d * res.moments).max() / res.moments.max()
        assert residual <= 1e-13
        for ell in range(1, k):
            best, worst = restricted_best_fit_flat(ps, point, ell)
            assert best.moment <= worst.moment


# ---------------------------------------------------------------------------
# restricted best fit
# ---------------------------------------------------------------------------

def test_restricted_fit_cells_origin(cells):
    best, worst = restricted_best_fit_flat(cells, [0.0, 0.0], 1)
    slope_b, intercept_b = line_slope_intercept(best.flat)
    assert slope_b == pytest.approx(0.30014, rel=1e-4)
    assert abs(intercept_b) < 1e-10
    assert best.moment == pytest.approx(5.071564, rel=1e-5)
    slope_w, _ = line_slope_intercept(worst.flat)
    assert slope_w == pytest.approx(-3.331376, rel=2e-4)
    assert worst.moment == pytest.approx(935.9271, rel=1e-5)
    assert_restricted_moments_scale(CELLS_XY, [0.0, 0.0], best, worst)


def test_restricted_fit_forbes_moment(forbes):
    best, worst = restricted_best_fit_flat(forbes, [201.5, 24.5], 1)
    assert best.moment == pytest.approx(1.151006, rel=1e-4)
    assert_restricted_moments_scale(FORBES_XY, [201.5, 24.5], best, worst)


def test_restricted_fit_at_centroid_reproduces_unrestricted():
    rng = np.random.default_rng(45)
    ps = random_point_set(rng, 3)
    for ell in (1, 2):
        unrestricted = best_fit_flat(ps, ell)
        best, _ = restricted_best_fit_flat(ps, ps.center, ell)
        assert best.moment == pytest.approx(unrestricted.moment, rel=1e-10)


def test_restricted_fit_moment_identities():
    rng = np.random.default_rng(46)
    for k, ell in [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]:
        ps = random_point_set(rng, k)
        pencil = build_pencil(ps)
        point = ps.center + rng.normal(size=k) * 2
        best, worst = restricted_best_fit_flat(ps, point, ell)
        for fit in (best, worst):
            flat = fit.flat.as_flat() if isinstance(fit.flat, Hyperplane) else fit.flat
            assert fit.moment == pytest.approx(l_planar_moment(ps, flat), rel=1e-9)
        lam = jacobi_coordinates(pencil, point).lambdas
        J1, m = float(pencil.principal_moments[0]), pencil.mass
        assert best.moment == pytest.approx(
            2 * (k - ell) * J1 - m * lam[ell:].sum(), rel=1e-9
        )
        assert worst.moment == pytest.approx(
            2 * (k - ell) * J1 - m * lam[: k - ell].sum(), rel=1e-9
        )


@pytest.mark.parametrize("offset", [0.0, 1e6])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_restricted_flats_for_every_ell_from_one_solve(k, offset):
    # the oracle sums squared distances on the set moved back by the offset,
    # so that it does not cancel itself
    rng = np.random.default_rng(60 + k)
    base = random_point_set(rng, k, n=40)
    ps = WeightedPointSet(base.coords + offset, base.masses)
    local = WeightedPointSet(ps.coords - offset, ps.masses)
    pencil = build_pencil(ps)
    J1, m = float(pencil.principal_moments[0]), pencil.mass
    point = pencil.from_principal(rng.normal(size=k) * pencil.focal_scale())
    res = restricted_pca(ps, point)
    lam = res.lambdas.lambdas
    for ell in range(1, k):
        jacobi_sums = (
            2 * (k - ell) * J1 - m * lam[ell:].sum(),
            2 * (k - ell) * J1 - m * lam[: k - ell].sum(),
        )
        for fit, role, jacobi_sum in zip(res.flats(ell), ("best", "worst"), jacobi_sums):
            assert fit.role == role
            assert isinstance(fit.flat, Hyperplane) == (ell == k - 1)
            flat = fit.flat.as_flat() if isinstance(fit.flat, Hyperplane) else fit.flat
            oracle = l_planar_moment(local, FlatSubspace(point - offset, flat.basis))
            assert fit.moment == pytest.approx(oracle, rel=1e-12, abs=0)
            assert fit.moment == pytest.approx(jacobi_sum, rel=1e-12, abs=0)
    for ell in (0, k):
        with pytest.raises(ValueError):
            res.flats(ell)


def test_restricted_best_hyperplane_is_tangent_to_top_member():
    rng = np.random.default_rng(47)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    point = ps.center + rng.normal(size=3) * 2
    best, worst = restricted_best_fit_flat(ps, point, 2)
    lam = jacobi_coordinates(pencil, point).lambdas
    for fit, lam_i in [(best, lam[-1]), (worst, lam[0])]:
        n = pencil.frame.T @ fit.flat.normal
        p = float(fit.flat.signed_distance(pencil.center[None, :])[0])
        residual = float(np.sum((pencil.poles - lam_i) * n**2) - p**2)
        scale = max(1.0, float(np.abs(pencil.poles).max()))
        assert abs(residual) < 1e-9 * scale


def test_restricted_best_beats_random_hyperplanes():
    rng = np.random.default_rng(48)
    ps = random_point_set(rng, 3)
    point = ps.center + rng.normal(size=3)
    best, worst = restricted_best_fit_flat(ps, point, 2)
    for _ in range(300):
        plane = Hyperplane.through(point, random_unit_vector(rng, 3))
        moment = hyperplanar_moment(ps, plane)
        assert best.moment <= moment + 1e-10 * moment
        assert worst.moment >= moment - 1e-10 * moment


# ---------------------------------------------------------------------------
# directional regression
# ---------------------------------------------------------------------------

def test_directional_fit_forbes_vertical(forbes):
    fit = directional_fit(forbes, [0.0, 1.0])
    slope, intercept = line_slope_intercept(fit.flat)
    assert slope == pytest.approx(0.5228, rel=2e-4)  # quoted to four decimals
    assert intercept == pytest.approx(-81.06373, rel=1e-6)
    assert fit.moment == pytest.approx(0.813143014, rel=1e-7)


def test_directional_fit_forbes_restricted(forbes):
    fit = directional_fit(forbes, [0.0, 1.0], through=[201.5, 24.5])
    slope, intercept = line_slope_intercept(fit.flat)
    assert slope == pytest.approx(0.5141352, rel=1e-6)
    assert intercept == pytest.approx(-79.0982450, rel=1e-6)
    assert fit.moment == pytest.approx(1.455877, rel=1e-6)


def test_directional_fit_through_the_centroid_is_the_unrestricted_fit(forbes):
    free = directional_fit(forbes, [0.0, 1.0])
    anchored = directional_fit(forbes, [0.0, 1.0], through=forbes.center)
    assert np.array_equal(anchored.flat.normal, free.flat.normal)
    assert anchored.flat.offset == free.flat.offset
    assert anchored.moment == free.moment


def test_directional_fit_eigvector_direction_is_orthogonal_fit():
    rng = np.random.default_rng(49)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    w = pencil.frame[:, 1]
    fit = directional_fit(ps, w)
    assert np.allclose(np.abs(fit.flat.normal @ w), 1.0, atol=1e-10)


def test_directional_fit_minimizes_directional_moment():
    rng = np.random.default_rng(50)
    for through in (None, "random"):
        ps = random_point_set(rng, 3)
        w = random_unit_vector(rng, 3)
        anchor = ps.center if through is None else ps.center + rng.normal(size=3)
        fit = directional_fit(ps, w, through=None if through is None else anchor)
        for _ in range(300):
            plane = Hyperplane.through(anchor, random_unit_vector(rng, 3))
            if abs(plane.normal @ w) < 1e-3:
                continue
            assert fit.moment <= directional_moment(ps, plane, w) * (1 + 1e-10)


def test_directional_fit_moment_matches_the_points():
    # the moment is read from A(c) and m (d.n)^2 kept apart; summed into A(P)
    # first, A(c) would round away for P far from the centroid
    rng = np.random.default_rng(57)
    for k in (2, 3, 5):
        ps = random_point_set(rng, k)
        w = random_unit_vector(rng, k)
        for distance in (None, 0.01, 1.0, 1e2, 1e4):
            through = None
            if distance is not None:
                through = ps.center + distance * random_unit_vector(rng, k)
            fit = directional_fit(ps, w, through=through)
            oracle = directional_moment(ps, fit.flat, w)
            assert fit.moment == pytest.approx(oracle, rel=1e-12, abs=0)


def test_directional_fit_vertical_matches_least_squares_formulas():
    rng = np.random.default_rng(51)
    ps = random_point_set(rng, 2, unit_masses=True)
    x, y = ps.coords[:, 0], ps.coords[:, 1]
    slope_ls = ((x - x.mean()) * (y - y.mean())).sum() / ((x - x.mean()) ** 2).sum()
    intercept_ls = y.mean() - slope_ls * x.mean()
    fit = directional_fit(ps, [0.0, 1.0])
    slope, intercept = line_slope_intercept(fit.flat)
    assert slope == pytest.approx(slope_ls, rel=1e-10)
    assert intercept == pytest.approx(intercept_ls, rel=1e-8)


def test_directional_fit_crosses_concentration_ellipse_at_vertical_tangency():
    # the vertical regression line meets the concentration ellipse exactly
    # where the ellipse tangent is vertical
    rng = np.random.default_rng(52)
    ps = random_point_set(rng, 2)
    c = ps.center
    op = inertia_operator(ps, c).entries
    w = np.array([0.0, 1.0])
    fit = directional_fit(ps, w)
    direction = np.array([-fit.flat.normal[1], fit.flat.normal[0]])
    # intersection of the line {c + t d} with the ellipse <K^{-1} x, x> = 1
    k_inv = np.linalg.inv(op)
    t = 1.0 / np.sqrt(direction @ k_inv @ direction)
    for sign in (1.0, -1.0):
        x = sign * t * direction
        tangent_normal = k_inv @ x  # gradient of the ellipse at the point
        tangent_normal /= np.linalg.norm(tangent_normal)
        # vertical tangency: the gradient is horizontal
        assert abs(tangent_normal[1]) < 1e-9


# ---------------------------------------------------------------------------
# F tail probabilities
# ---------------------------------------------------------------------------

def test_f_upper_tail_values():
    assert f_upper_tail(5.07, 4, math.inf) == pytest.approx(0.00043, abs=2e-5)
    assert f_upper_tail(11.85647, 1, 15) == pytest.approx(0.003621119, abs=1e-6)
    assert f_upper_tail(0.0, 3, 7) == 1.0


def test_f_upper_tail_validation():
    with pytest.raises(BadDegrees):
        f_upper_tail(1.0, 0, 10)
    with pytest.raises(BadDegrees):
        f_upper_tail(1.0, 2, 0)


def test_f_upper_tail_matches_large_df_limit():
    for x in (0.5, 1.0, 2.5):
        finite = f_upper_tail(x, 3, 10**7)
        assert finite == pytest.approx(f_upper_tail(x, 3, math.inf), abs=1e-6)


def _tail_tolerance(df2: float) -> float:
    if math.isinf(df2) or df2 <= 1e3:
        return 1e-12
    return 1e-10 if df2 <= 2e5 else 1e-9


def _assert_tail_matches_reference(x, df1, df2):
    ref = oracle.f_tail(x, df1, df2)
    got = f_upper_tail(x, df1, df2)
    if ref < sys.float_info.min:  # below the normal range: only underflow is checked
        assert 0.0 <= got < 1e-300, (x, df1, df2, got)
    else:
        assert abs(got - ref) <= _tail_tolerance(df2) * ref, (x, df1, df2, got, float(ref))
    return ref


# x = 1 puts the Stirling-form prefactor at t = 0, where a series must stop
# at once instead of waiting for a term below eps times a zero sum
@pytest.mark.parametrize("df1", [1, 2, 3, 4, 5, 10, 29, 30, 31, 100, 1000, 10**4, 10**5, 2 * 10**5])
def test_chi2_tail_matches_a_50_digit_reference(df1):
    for x in [*np.geomspace(0.1, 5.0, 13), 1.0]:
        _assert_tail_matches_reference(float(x), df1, math.inf)


@pytest.mark.parametrize("df1", [1, 2, 3, 5, 40])
def test_f_tail_matches_a_50_digit_reference(df1):
    for df2 in (1, 2, 3, 5, 10, 15, 29, 30, 31, 100, 1000, 1e4, 1e5, 2e5, 1e7):
        xs = [*np.geomspace(0.01, 100.0, 13), 1.0]
        if df2 >= 1e5:  # tails of 0.01 ... 0.3, where the prefactor's rounding shows most
            xs += list(np.linspace(1.2, 6.0, 17))
        for x in xs:
            _assert_tail_matches_reference(float(x), df1, df2)


def test_deep_tails_match_a_50_digit_reference():
    def x_at(target, df1, df2):  # bisect f_upper_tail (decreasing in x) in log x
        lo, hi = 1.0, 1e300
        for _ in range(400):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if f_upper_tail(mid, df1, df2) > target else (lo, mid)
        return lo

    for df1 in (1, 2, 5, 40, 1000, 10**5):
        for df2 in (math.inf, 5, 30, 1000, 1e5):
            if df1 > 1000 and not math.isinf(df2):
                continue
            for target in (1e-20, 1e-100, 1e-200, 1e-300):
                ref = _assert_tail_matches_reference(x_at(target, df1, df2), df1, df2)
                assert target / 10 <= ref <= target * 10


def test_tails_at_infinity_and_nan():
    for df1, df2 in ((1, math.inf), (3, math.inf), (1, 15), (4, 1e7)):
        assert f_upper_tail(math.inf, df1, df2) == 0.0
        assert math.isnan(f_upper_tail(math.nan, df1, df2))


# ---------------------------------------------------------------------------
# point hypothesis test
# ---------------------------------------------------------------------------

def test_point_hypothesis_cells(cells):
    cov = SymmetricOperator(np.diag([0.25, 0.25]))
    report = point_hypothesis_test(cells, [0.0, 0.0], cov)
    assert report.statistic == pytest.approx(5.071564, rel=1e-5)
    assert report.statistic == pytest.approx(1.25 * 4.057252, rel=1e-5)
    assert report.p_value == pytest.approx(0.00043, abs=2e-5)
    assert report.df1 == 4 and math.isinf(report.df2)


def test_point_hypothesis_at_centroid_baseline(cells):
    cov = SymmetricOperator(np.eye(2))
    report = point_hypothesis_test(cells, cells.center, cov)
    pencil = build_pencil(cells)
    lam_c = float(pencil.poles[0])
    n = cells.n_points
    assert report.statistic == pytest.approx(n / (n - 1) * lam_c, rel=1e-9)
    assert report.best_moment == pytest.approx(report.restricted_moment, rel=1e-9)


def test_point_hypothesis_matches_generalized_eigen_route():
    # independent oracle: statistic from the smallest root of det(M - t G) = 0
    rng = np.random.default_rng(53)
    ps = random_point_set(rng, 3, unit_masses=True, shift=1.0)
    a = rng.normal(size=(3, 3)) * 0.2
    cov = SymmetricOperator(a @ a.T + np.eye(3) * 0.3)
    point = ps.center + rng.normal(size=3)
    report = point_hypothesis_test(ps, point, cov)
    n, k = ps.n_points, 3
    m_op = inertia_operator(ps, point).entries / n
    roots = np.sort(np.real(np.linalg.eigvals(np.linalg.solve(cov.entries, m_op))))
    oracle = n / (n - k + 1) * n * roots[0] / n
    assert report.statistic == pytest.approx(oracle, rel=1e-8)


def test_point_hypothesis_on_best_plane_equals_baseline():
    rng = np.random.default_rng(54)
    ps = random_point_set(rng, 3, unit_masses=True)
    cov = SymmetricOperator(np.eye(3) * 0.5)
    fit = best_fit_flat(ps, 2)
    # project the centroid's neighbour onto the best plane
    q = ps.center + rng.normal(size=3)
    q -= (fit.flat.normal @ q - fit.flat.offset) * fit.flat.normal
    report = point_hypothesis_test(ps, q, cov)
    base = point_hypothesis_test(ps, ps.center, cov)
    assert report.statistic == pytest.approx(base.statistic, rel=1e-8)


def test_point_hypothesis_scaling_invariance():
    # scalar error covariance: statistic invariant under joint rescaling
    rng = np.random.default_rng(55)
    ps = random_point_set(rng, 2, unit_masses=True)
    point = ps.center + np.array([0.7, -0.4])
    r1 = point_hypothesis_test(ps, point, SymmetricOperator(np.eye(2) * 0.25))
    scaled = WeightedPointSet(ps.coords * 3.0, ps.masses)
    r2 = point_hypothesis_test(
        scaled, point * 3.0, SymmetricOperator(np.eye(2) * 0.25 * 9.0)
    )
    assert r1.statistic == pytest.approx(r2.statistic, rel=1e-9)
    # and whitened moments scale by 1/c for G = c I
    r3 = point_hypothesis_test(ps, point, SymmetricOperator(np.eye(2)))
    assert r3.best_moment == pytest.approx(r1.best_moment * 0.25, rel=1e-9)


def test_point_hypothesis_validation(cells):
    with pytest.raises(NonUnitMasses):
        weighted = WeightedPointSet(cells.coords, np.full(5, 2.0))
        point_hypothesis_test(weighted, [0.0, 0.0], SymmetricOperator(np.eye(2)))
    with pytest.raises(BadCovariance):
        point_hypothesis_test(
            cells, [0.0, 0.0], SymmetricOperator(np.diag([1.0, -1.0]))
        )
    with pytest.raises(BadCovariance) as info:
        point_hypothesis_test(cells, [0.0, 0.0], SymmetricOperator(np.eye(3)))
    assert info.value.code == "bad-covariance"
    with pytest.raises(BadCovariance, match="must be positive definite"):
        point_hypothesis_test(cells, [0.0, 0.0], SymmetricOperator(np.diag([1.0, 0.0])))
    # N = k - 1 points span at most k - 2 dimensions: rank deficient before
    # the degrees of freedom N - k + 1 reach zero
    too_few = WeightedPointSet(np.random.default_rng(58).normal(size=(2, 3)))
    with pytest.raises(RankDeficient):
        point_hypothesis_test(too_few, [0.0, 0.0, 0.0], SymmetricOperator(np.eye(3)))


# ---------------------------------------------------------------------------
# nested directional F test
# ---------------------------------------------------------------------------

def test_nested_f_test_forbes(forbes):
    report = nested_f_test(forbes, [0.0, 1.0], [201.5, 24.5])
    assert report.statistic == pytest.approx(11.85647, rel=1e-5)
    assert report.p_value == pytest.approx(0.003621119, abs=1e-6)
    assert report.df1 == 1 and report.df2 == 15


def test_nested_f_test_zero_on_the_line(forbes):
    fit = directional_fit(forbes, [0.0, 1.0])
    slope, intercept = line_slope_intercept(fit.flat)
    x0 = 205.0
    report = nested_f_test(forbes, [0.0, 1.0], [x0, slope * x0 + intercept])
    assert report.statistic == pytest.approx(0.0, abs=1e-6)


def test_nested_f_test_needs_more_points_than_parameters():
    ps = WeightedPointSet([[0.0, 0.0], [1.0, 0.5]])
    with pytest.raises(BadDegrees) as info:
        nested_f_test(ps, [0.0, 1.0], [0.5, 1.0])
    assert info.value.code == "bad-degrees"


def test_nested_f_test_matches_direct_formula():
    rng = np.random.default_rng(56)
    ps = random_point_set(rng, 2, unit_masses=True)
    w = random_unit_vector(rng, 2)
    point = ps.center + rng.normal(size=2)
    report = nested_f_test(ps, w, point)
    rss2 = directional_fit(ps, w).moment
    rss1 = directional_fit(ps, w, through=point).moment
    n = ps.n_points
    assert report.statistic == pytest.approx(
        (rss1 - rss2) / (rss2 / (n - 2)), rel=1e-10
    )


# ---------------------------------------------------------------------------
# the set's summary, not its points
# ---------------------------------------------------------------------------

_COV = SymmetricOperator(np.array([[0.5, 0.1, 0.0], [0.1, 0.8, 0.2], [0.0, 0.2, 1.2]]))

SUMMARY_QUERIES = {
    "point_hypothesis_test": lambda ps, p, w: point_hypothesis_test(ps, p, _COV),
    "restricted_pca": lambda ps, p, w: restricted_pca(ps, p),
    "directional_fit": lambda ps, p, w: directional_fit(ps, w, through=p),
    "nested_f_test": lambda ps, p, w: nested_f_test(ps, w, p),
    "best_fit_flat": lambda ps, p, w: best_fit_flat(ps, 2),
    "constrained_fit": lambda ps, p, w: constrained_fit(ps, "l2", 0.05),
}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return a == b


@pytest.mark.parametrize("query", SUMMARY_QUERIES.values(), ids=SUMMARY_QUERIES)
def test_queries_read_the_summary_not_the_points(query):
    # once the summary is cached, no query reads the points or masses again
    rng = np.random.default_rng(70)
    ps = random_point_set(rng, 3, unit_masses=True)
    point = ps.center + rng.normal(size=3)
    w = random_unit_vector(rng, 3)
    expected = query(WeightedPointSet(ps.coords, ps.masses), point, w)
    ps.center, ps.centered_inertia, ps.spectrum, ps.total_mass, ps.has_unit_masses
    build_pencil(ps)
    for name in ("coords", "masses"):
        object.__setattr__(ps, name, np.full(getattr(ps, name).shape, np.nan))
    assert _same(query(ps, point, w), expected)


def test_one_pencil_per_point_set(monkeypatch):
    built = _record_calls(monkeypatch, (pencil_module, "_pencil"))
    ps = random_point_set(np.random.default_rng(73), 4)
    point = ps.center + 1.0
    assert build_pencil(ps) is build_pencil(ps)
    restricted_pca(ps, point)
    for ell in range(1, ps.dim):
        restricted_best_fit_flat(ps, point, ell)
    jacobi_coordinates(build_pencil(ps), point)
    assert len(built) == 1
    # an exception is not cached: a set without a pencil raises on every call
    flat = WeightedPointSet([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    tied = WeightedPointSet([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    for bad, code in ((flat, "rank-deficient"), (tied, "degenerate-spectrum")):
        for _ in range(2):
            with pytest.raises(ConfocalFitError) as info:
                build_pencil(bad)
            assert info.value.code == code


def _far_set(unit_masses: bool) -> WeightedPointSet:
    """40 points at k = 3 around (1e6, -2e6, 3e6), where the centroid's last
    addition rounds by about 2e-10."""
    base = random_point_set(np.random.default_rng(71), 3, n=40, unit_masses=unit_masses)
    return WeightedPointSet(base.coords + [1e6, -2e6, 3e6], base.masses)


def test_far_directional_moment_matches_a_50_digit_reference():
    ps = _far_set(unit_masses=False)
    w = [0.0, 1.0, 1.0]
    point = ps.center + [1.0, 0.0, 0.0]
    fit = directional_fit(ps, w, through=point)
    want, _ = oracle.directional(ps.coords, ps.masses, point, w)
    assert float(abs(fit.moment - want) / want) <= 1e-15


@pytest.mark.parametrize("k", (2, 3, 5))
def test_far_directional_fit_matches_a_60_digit_reference(k):
    # A(P) = A(c) + m d d^T summed in floats rounds A(c) away as |d| grows;
    # the fit never forms it, so normal and moment stay exact to rounding
    rng = np.random.default_rng(80 + k)
    ps = random_point_set(rng, k, n=30, shift=1e3)
    w = random_unit_vector(rng, k)
    for distance in (1.0, 1e3, 1e6, 1e9, 1e12):
        u = random_unit_vector(rng, k)
        while abs(u @ w) > 0.9:
            u = random_unit_vector(rng, k)
        point = ps.center + distance * u
        fit = directional_fit(ps, w, through=point)
        moment, normal = oracle.directional(ps.coords, ps.masses, point, w)
        moment, normal = float(moment), np.array(normal, dtype=float)
        normal *= np.sign(normal @ fit.flat.normal)
        assert np.abs(fit.flat.normal - normal).max() <= 1e-14, distance
        assert abs(fit.moment - moment) <= 1e-14 * moment, distance


def test_far_point_test_statistic_matches_a_50_digit_reference():
    ps = _far_set(unit_masses=True)
    point = ps.center + [0.5, -0.3, 0.8]
    report = point_hypothesis_test(ps, point, _COV)
    # the statistic is the smallest eigenvalue of W A(P) W over N - k + 1
    want = oracle.whitened_minimum(ps.coords, ps.masses, point, _COV.entries) / report.df1
    assert float(abs(report.statistic - want) / want) <= 1e-14


# ---------------------------------------------------------------------------
# scale covariance: data scaled by 2^j is exact in floating point
# ---------------------------------------------------------------------------

# principal axes near the coordinate axes, so that P's far coordinate lies
# along the thinnest one; ten unit masses keep m |P - c|^2 finite at 4^500
_BASE = WeightedPointSet(np.random.default_rng(72).normal(size=(10, 3)) * [3.0, 1.0, 0.3])
_FAR = _BASE.center + np.array([0.5, -0.3, 1e3])
_W = np.array([0.3, 1.0, -0.6])
_ULPS = 16 * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(j=st.integers(-500, 500))
@example(j=-500)
@example(j=500)
def test_queries_through_a_point_scale_by_powers_of_two(j):
    # moments scale by 4^j, directions and statistics not at all; LAPACK
    # rescales operators outside its safe range by factors that are not
    # powers of two, so a few ulps are allowed
    s = 2.0**j
    scaled = WeightedPointSet(_BASE.coords * s, _BASE.masses)
    pca, scaled_pca = restricted_pca(_BASE, _FAR), restricted_pca(scaled, _FAR * s)
    assert np.allclose(scaled_pca.moments, pca.moments * s * s, rtol=_ULPS, atol=0)
    assert np.abs(scaled_pca.directions - pca.directions).max() <= _ULPS
    assert np.array_equal(scaled_pca.tied, pca.tied)
    fit = directional_fit(_BASE, _W, through=_FAR)
    scaled_fit = directional_fit(scaled, _W, through=_FAR * s)
    assert scaled_fit.moment == pytest.approx(fit.moment * s * s, rel=_ULPS, abs=0)
    assert np.abs(scaled_fit.flat.normal - fit.flat.normal).max() <= _ULPS
    cov = SymmetricOperator(_COV.entries * s * s)
    statistic = point_hypothesis_test(_BASE, _FAR, _COV).statistic
    scaled_statistic = point_hypothesis_test(scaled, _FAR * s, cov).statistic
    assert scaled_statistic == pytest.approx(statistic, rel=_ULPS, abs=0)


@settings(max_examples=60, deadline=None)
@given(j=st.integers(-500, 500))
@example(j=-500)
@example(j=500)
def test_fits_through_the_centroid_scale_by_powers_of_two(j):
    # best_fit_flat and the CLI's fit path, restricted_pca at the centroid:
    # moments scale by 4^j to a few ulps of the largest principal moment,
    # normals and bases not at all
    s = 2.0**j
    scaled = WeightedPointSet(_BASE.coords * s, _BASE.masses)
    top = _BASE.spectrum.values[-1]
    for ell in range(1, _BASE.dim):
        pairs = [
            (best_fit_flat(_BASE, ell), best_fit_flat(scaled, ell)),
            *zip(
                restricted_pca(_BASE, _BASE.center).flats(ell),
                restricted_pca(scaled, scaled.center).flats(ell),
            ),
        ]
        for fit, scaled_fit in pairs:
            assert_scaled(scaled_fit.moment, fit.moment, s * s, scale=top)
            if ell == _BASE.dim - 1:
                assert_scaled(scaled_fit.flat.normal, fit.flat.normal, 1.0)
            else:
                assert_scaled(scaled_fit.flat.basis, fit.flat.basis, 1.0)
