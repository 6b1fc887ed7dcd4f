"""Fits, restricted PCA, directional regression and hypothesis tests."""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from confocalfit import (
    Hyperplane,
    SymmetricOperator,
    WeightedPointSet,
    best_fit_flat,
    build_pencil,
    centroid,
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
from confocalfit.errors import BadCovariance, BadDegrees, NonUnitMasses, RankDeficient

from conftest import CELLS_XY, FORBES_XY, SCALES, random_point_set, random_unit_vector


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
    _, worst = restricted_best_fit_flat(cells, centroid(cells), 1)
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
    res = restricted_pca(cells, centroid(cells))
    pencil = build_pencil(cells)
    assert np.allclose(res.moments, pencil.principal_moments)
    assert np.allclose(np.abs(res.directions.T @ pencil.frame), np.eye(2), atol=1e-12)


def test_restricted_pca_lambda_identity():
    rng = np.random.default_rng(42)
    ps = random_point_set(rng, 4)
    pencil = build_pencil(ps)
    point = centroid(ps) + rng.normal(size=4) * 2
    res = restricted_pca(ps, point)
    mapped = 2 * pencil.principal_moments[0] - pencil.mass * res.lambdas.lambdas[::-1]
    assert np.allclose(res.moments, mapped, rtol=1e-9)


def test_restricted_pca_directions_match_gradient_formula():
    # 2D basal vectors of the elliptic coordinates, up to normalization
    rng = np.random.default_rng(43)
    ps = random_point_set(rng, 2)
    pencil = build_pencil(ps)
    point = centroid(ps) + np.array([1.3, -2.1])
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
    # Reference: at P = (300000, 200000) the inertia operator A(P) =
    # sum_j (r_j - P)(r_j - P)^T of the five raw points is summed exactly in
    # rationals; its smallest eigenvalue 2 det / (tr + sqrt(tr^2 - 4 det))
    # (no cancellation) at 60 digits is 0.808619028292259227707...  Its
    # entries are ~5e11, so eigh of a floating-point A(P) is off by ~3e-5.
    point = (300000, 200000)
    d = [[Fraction(v) - p for v, p in zip(row, point)] for row in CELLS_XY.tolist()]
    a, b, c = (sum(u[i] * u[j] for u in d) for i, j in ((0, 0), (0, 1), (1, 1)))
    with localcontext() as ctx:
        ctx.prec = 60
        tr, det = (Decimal(q.numerator) / q.denominator for q in (a + c, a * c - b * b))
        smallest = 2 * det / (tr + (tr * tr - 4 * det).sqrt())
    assert abs(float(smallest) / 0.808619028292259 - 1) <= 1e-15
    res = restricted_pca(cells, [300000.0, 200000.0])
    assert res.moments[0] == pytest.approx(0.808619028292259, rel=1e-12)


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
        # eigenvectors of A(P) summed from the points; the centroid is placed
        # to about eps * offset, which bounds the agreement far out
        op = inertia_operator(ps, point).entries
        residual = np.abs(op @ d - d * res.moments).max() / res.moments.max()
        assert residual <= 1e-13 + 1e-16 * offset
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
        best, _ = restricted_best_fit_flat(ps, centroid(ps), ell)
        assert best.moment == pytest.approx(unrestricted.moment, rel=1e-10)


def test_restricted_fit_moment_identities():
    rng = np.random.default_rng(46)
    for k, ell in [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]:
        ps = random_point_set(rng, k)
        pencil = build_pencil(ps)
        point = centroid(ps) + rng.normal(size=k) * 2
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


def test_restricted_best_hyperplane_is_tangent_to_top_member():
    rng = np.random.default_rng(47)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    point = centroid(ps) + rng.normal(size=3) * 2
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
    point = centroid(ps) + rng.normal(size=3)
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
        anchor = centroid(ps) if through is None else centroid(ps) + rng.normal(size=3)
        fit = directional_fit(ps, w, through=None if through is None else anchor)
        for _ in range(300):
            plane = Hyperplane.through(anchor, random_unit_vector(rng, 3))
            if abs(plane.normal @ w) < 1e-3:
                continue
            assert fit.moment <= directional_moment(ps, plane, w) * (1 + 1e-10)


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
    c = centroid(ps)
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


def _tail_reference(x: float, df1: int, df2: float):
    """P(F_{df1, df2} > x), or the chi-square limit, at 50 digits (mpmath)."""
    import mpmath as mp

    with mp.workdps(50):
        x, d1 = mp.mpf(x), mp.mpf(df1)
        if math.isinf(df2):
            return mp.gammainc(d1 / 2, d1 * x / 2, mp.inf, regularized=True)
        d2 = mp.mpf(df2)
        a, b, z = d2 / 2, d1 / 2, d2 / (d2 + d1 * x)
        try:
            return mp.betainc(a, b, 0, z, regularized=True)
        except mp.libmp.NoConvergence:  # deep tails at large df2: positive-term series
            series = mp.hyp2f1(a + b, 1, a + 1, z, maxterms=10**6)
            return z**a * (1 - z) ** b * series / (a * mp.beta(a, b))


def _tail_tolerance(df2: float) -> float:
    if math.isinf(df2) or df2 <= 1e3:
        return 1e-12
    return 1e-10 if df2 <= 2e5 else 1e-9


def _assert_tail_matches_reference(x, df1, df2):
    ref = _tail_reference(x, df1, df2)
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
    report = point_hypothesis_test(cells, centroid(cells), cov)
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
    point = centroid(ps) + rng.normal(size=3)
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
    q = centroid(ps) + rng.normal(size=3)
    q -= (fit.flat.normal @ q - fit.flat.offset) * fit.flat.normal
    report = point_hypothesis_test(ps, q, cov)
    base = point_hypothesis_test(ps, centroid(ps), cov)
    assert report.statistic == pytest.approx(base.statistic, rel=1e-8)


def test_point_hypothesis_scaling_invariance():
    # scalar error covariance: statistic invariant under joint rescaling
    rng = np.random.default_rng(55)
    ps = random_point_set(rng, 2, unit_masses=True)
    point = centroid(ps) + np.array([0.7, -0.4])
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


def test_nested_f_test_matches_direct_formula():
    rng = np.random.default_rng(56)
    ps = random_point_set(rng, 2, unit_masses=True)
    w = random_unit_vector(rng, 2)
    point = centroid(ps) + rng.normal(size=2)
    report = nested_f_test(ps, w, point)
    rss2 = directional_fit(ps, w).moment
    rss1 = directional_fit(ps, w, through=point).moment
    n = ps.n_points
    assert report.statistic == pytest.approx(
        (rss1 - rss2) / (rss2 / (n - 2)), rel=1e-10
    )
