"""Confocal pencil construction, Jacobi coordinates, envelopes, threads."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confocalfit import (
    ConfocalPencil,
    DegenerateHyperplane,
    FlatSubspace,
    Hyperplane,
    NoSolution,
    QuadricMember,
    WeightedPointSet,
    build_pencil,
    envelope_for_moment,
    hyperplanar_moment,
    inertia_operator,
    jacobi_coordinates,
    l_planar_moment,
    symmetric_eigen,
    tangent_hyperplane,
    tangent_moment,
    thread_foci,
    thread_slice,
)
from confocalfit.errors import (
    DegenerateSpectrum,
    InvalidSemiaxes,
    MemberOnPole,
    PointNotOnQuadric,
    RankDeficient,
)
from confocalfit.pencil import COORD_TOL

import oracle
from conftest import (
    CELLS_XY,
    EPS,
    FORBES_XY,
    SCALES,
    assert_scaled,
    random_point_set,
    random_unit_vector,
)


def pencil_with_poles(alpha, beta):
    """Unit-mass 2D sample whose pencil poles are exactly (alpha, beta).

    Four points on the coordinate axes give a diagonal operator with
    J_1 = 4 alpha and J_2 = 8 alpha - 4 beta.
    """
    assert alpha > beta
    j1, j2 = 4.0 * alpha, 8.0 * alpha - 4.0 * beta
    x0, y0 = np.sqrt(j1 / 2.0), np.sqrt(j2 / 2.0)
    ps = WeightedPointSet(
        np.array([[x0, 0.0], [-x0, 0.0], [0.0, y0], [0.0, -y0]])
    )
    return ps, build_pencil(ps)


def assert_jacobi_scale_covariant(xy, point, lambdas):
    """Data and point scaled by s give Jacobi coordinates s^2 * ``lambdas``."""
    for s in SCALES:
        pencil = build_pencil(WeightedPointSet(xy * s))
        p = np.asarray(point) * s
        jc = jacobi_coordinates(pencil, p)
        np.testing.assert_allclose(jc.lambdas, s**2 * lambdas, rtol=1e-12, atol=0)
        # each root to rounding: Newton correction |f/f'| against the poles
        x2 = pencil.to_principal(p) ** 2
        for lam in jc.lambdas:
            f = float(np.sum(x2 / (pencil.poles - lam)) - 1.0)
            slope = float(np.sum(x2 / (pencil.poles - lam) ** 2))
            assert abs(f / slope) <= 1e-13 * np.abs(pencil.poles).max()


def sample_point_on_member(member, rng):
    """Random point of a member in original coordinates.

    Works for every type with a positive leading semiaxis: draw the trailing
    coordinates, shrink them until the leading one can absorb the rest.
    """
    s = member.semiaxes_sq
    x = rng.normal(size=len(s))
    for _ in range(200):
        rest = float(np.sum(x[1:] ** 2 / s[1:]))
        if rest < 1.0 - 1e-9:
            x[0] = np.sqrt((1.0 - rest) * s[0]) * (1 if rng.random() < 0.5 else -1)
            return member.pencil.from_principal(x)
        x[1:] *= 0.5
    raise AssertionError("sampler failed to converge")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_pencil_cells(cells):
    pencil = build_pencil(cells)
    assert pencil.poles[0] == pytest.approx(0.13921, rel=1e-4)
    assert pencil.poles[1] == pytest.approx(-12.76154, rel=1e-6)


def test_build_pencil_forbes(forbes):
    pencil = build_pencil(forbes)
    assert pencil.poles[0] == pytest.approx(0.037552, rel=1e-4)
    assert pencil.poles[1] == pytest.approx(-39.69441, rel=1e-6)


def test_build_pencil_symmetric_square():
    ps = WeightedPointSet(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [2.0, 2.0]])
    )
    pencil = build_pencil(ps)
    diag = np.array([1.0, 1.0]) / np.sqrt(2)
    anti = np.array([1.0, -1.0]) / np.sqrt(2)
    cosines = np.abs(pencil.frame.T @ np.column_stack([diag, anti]))
    # each principal axis is one of the two diagonal directions
    assert np.allclose(np.sort(cosines.ravel()), [0, 0, 1, 1], atol=1e-12)


def test_build_pencil_rejects_rank_deficient():
    with pytest.raises(RankDeficient):
        build_pencil(WeightedPointSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])))


def test_build_pencil_rejects_repeated_moments():
    ps = WeightedPointSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(DegenerateSpectrum):
        build_pencil(ps)


_SCALE_BASE = random_point_set(np.random.default_rng(74), 3)


@settings(max_examples=60, deadline=None)
@given(j=st.integers(-500, 500))
@example(j=-500)
@example(j=500)
def test_build_pencil_scales_by_powers_of_two(j):
    # poles and principal moments scale by 4^j, the frame not at all
    pencil = build_pencil(_SCALE_BASE)
    scaled = build_pencil(WeightedPointSet(_SCALE_BASE.coords * 2.0**j, _SCALE_BASE.masses))
    assert_scaled(scaled.principal_moments, pencil.principal_moments, 4.0**j)
    assert_scaled(scaled.poles, pencil.poles, 4.0**j)
    assert_scaled(scaled.frame, pencil.frame, 1.0)


def test_poles_strictly_decreasing_random():
    rng = np.random.default_rng(20)
    for k in (2, 3, 4):
        pencil = build_pencil(random_point_set(rng, k))
        assert np.all(np.diff(pencil.poles) < 0)
        assert pencil.poles[0] == pytest.approx(
            pencil.principal_moments[0] / pencil.mass
        )


def test_attach_points_have_symmetric_inertia():
    # at each attached point two principal hyperplanar moments coincide
    rng = np.random.default_rng(21)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    for i, (fp, fm) in enumerate(pencil.attach_points(), start=1):
        for point in (fp, fm):
            mu = symmetric_eigen(inertia_operator(ps, point)).values
            gaps = np.abs(mu[:, None] - mu[None, :])
            np.fill_diagonal(gaps, np.inf)
            assert gaps.min() <= 1e-9 * mu.max()
            # the coinciding pair is (J_1 + m a_i^2, J_{i+1})
            assert np.any(
                np.abs(mu - pencil.principal_moments[i]) <= 1e-9 * mu.max()
            )


def test_member_on_pole_test_scales_with_the_poles():
    # poles and parameters scaled by 4^j: the same parameters are members,
    # with semiaxes scaled exactly, and the poles themselves are refused
    poles = np.array([2.0, -1.0, -3.5])
    for j in range(-500, 501, 10):
        f = 4.0**j
        pencil = ConfocalPencil(np.zeros(3), np.eye(3), (2 * poles[0] - poles) * f, 1.0, poles * f)
        for lam, type_index in ((3.0, 0), (0.5, 1), (-2.0, 2), (-7.0, 3)):
            member = pencil.member(lam * f)
            assert member.type_index == type_index
            assert np.array_equal(member.semiaxes_sq, (poles - lam) * f)
        for pole in poles:
            with pytest.raises(MemberOnPole):
                pencil.member(pole * f)


def test_gyration_membership():
    # the mass-normalized axial gyration ellipsoid x_i^2/I_i = 1/m is a member
    rng = np.random.default_rng(22)
    for k in (2, 3, 4):
        ps = random_point_set(rng, k)
        pencil = build_pencil(ps)
        member = pencil.gyration_member()
        J = pencil.principal_moments
        axial = J.sum() - J  # I_i = sum_{j != i} J_j
        assert np.abs(member.semiaxes_sq - axial / pencil.mass).max() <= 1e-9 * np.abs(
            axial / pencil.mass
        ).max()
        assert member.is_ellipsoid


# ---------------------------------------------------------------------------
# Jacobi coordinates
# ---------------------------------------------------------------------------

def test_jacobi_cells_origin(cells):
    pencil = build_pencil(cells)
    jc = jacobi_coordinates(pencil, [0.0, 0.0])
    assert jc.lambdas[0] == pytest.approx(-186.907, rel=1e-5)
    assert jc.lambdas[1] == pytest.approx(-0.73589, rel=1e-5)
    assert not jc.degenerate.any()
    assert_jacobi_scale_covariant(CELLS_XY, [0.0, 0.0], jc.lambdas)


def test_jacobi_centroid_is_poles(cells):
    pencil = build_pencil(cells)
    jc = jacobi_coordinates(pencil, pencil.center)
    assert np.allclose(jc.lambdas, pencil.poles[::-1])
    assert jc.degenerate.all()


def test_jacobi_forbes_point(forbes):
    pencil = build_pencil(forbes)
    jc = jacobi_coordinates(pencil, [201.5, 24.5])
    assert jc.lambdas[0] == pytest.approx(-42.0876, rel=1e-5)
    assert jc.lambdas[1] == pytest.approx(0.007398, rel=1e-3)
    assert_jacobi_scale_covariant(FORBES_XY, [201.5, 24.5], jc.lambdas)


def test_jacobi_interlacing_random():
    rng = np.random.default_rng(23)
    for k in (2, 3, 4, 5):
        ps = random_point_set(rng, k)
        pencil = build_pencil(ps)
        for _ in range(20):
            point = ps.center + rng.normal(size=k) * 5
            jc = jacobi_coordinates(pencil, point)
            asc_poles = pencil.poles[::-1]
            assert jc.lambdas[0] <= asc_poles[0] + 1e-12
            for i in range(k - 1):
                assert asc_poles[i] - 1e-9 <= jc.lambdas[i + 1] <= asc_poles[i + 1] + 1e-9


def test_jacobi_roots_solve_equation():
    rng = np.random.default_rng(24)
    ps = random_point_set(rng, 4)
    pencil = build_pencil(ps)
    point = ps.center + rng.normal(size=4)
    x = pencil.to_principal(point)
    jc = jacobi_coordinates(pencil, point)
    for lam in jc.lambdas:
        assert np.sum(x**2 / (pencil.poles - lam)) == pytest.approx(1.0, abs=1e-9)


def test_jacobi_degenerate_on_principal_hyperplane():
    rng = np.random.default_rng(25)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    # place the point on the second principal hyperplane
    x = rng.normal(size=3) * 2
    x[1] = 0.0
    jc = jacobi_coordinates(pencil, pencil.from_principal(x))
    assert jc.degenerate.sum() == 1
    degenerate_value = jc.lambdas[jc.degenerate][0]
    assert degenerate_value == pytest.approx(pencil.poles[1], abs=1e-12)


@pytest.mark.parametrize("n_zero", (1, 2))
@pytest.mark.parametrize("offset", (0.0, 1e6))
@pytest.mark.parametrize("k", (4, 5, 6))
def test_deflation_keeps_every_coordinate_in_its_place(k, offset, n_zero):
    # one or two principal coordinates exactly zero, next to coordinates a
    # few COORD_TOL above the threshold: each zero must come out as its own
    # pole with its own axis, and the rest as the deflated problem's roots
    rng = np.random.default_rng([k, n_zero, int(offset)])
    poles = np.cumsum(rng.uniform(0.5, 1.5, k))[::-1]
    frame, _ = np.linalg.qr(rng.normal(size=(k, k)))
    pencil = ConfocalPencil(offset + rng.normal(size=k), frame, 2 * poles[0] - poles, 1.0, poles)
    order = rng.permutation(k)
    zero, small = sorted(order[:n_zero]), order[n_zero:n_zero + 2]
    x = rng.normal(size=k) * 2.0
    x[zero] = 0.0
    x[small] = 4 * COORD_TOL * pencil.focal_scale() * rng.choice([-1.0, 1.0], size=2)
    point = pencil.from_principal(x)
    jc = jacobi_coordinates(pencil, point)
    dead = np.flatnonzero(jc.degenerate)
    assert len(dead) == n_zero
    # degenerate values are the poles themselves, ascending with the rest
    assert sorted(jc.lambdas[dead]) == sorted(poles[zero])
    for c in dead:
        (i,) = np.flatnonzero(poles == jc.lambdas[c])
        assert np.array_equal(jc.normals[:, c], np.eye(k)[i])
    # the others: the roots of the deflated problem, as the solver saw it
    live = [i for i in range(k) if i not in zero]
    xs = pencil.to_principal(point)
    exact, exact_diff, _ = oracle.secular(xs[live] ** 2, poles[live])
    top = float(np.abs(poles).max())
    for j, c in enumerate(np.flatnonzero(~jc.degenerate)):
        want = exact[j]
        assert float(abs(want - float(jc.lambdas[c]))) <= 5e-16 * max(top, abs(float(want)))
        # its normal is x_i / (p_i - lam) over the live axes, zero on the others
        assert not jc.normals[zero, c].any()
        v = np.array([float(float(xs[i]) / exact_diff[r][j]) for r, i in enumerate(live)])
        v /= np.linalg.norm(v)
        n = jc.normals[live, c]
        assert np.abs(n - np.copysign(1.0, n @ v) * v).max() <= 4 * k * EPS
    assert np.all(np.diff(jc.lambdas) >= 0)
    assert np.abs(jc.normals.T @ jc.normals - np.eye(k)).max() <= 4 * k * EPS


def test_jacobi_far_point_stability():
    # the secular solver stays accurate when the point is six orders of
    # magnitude away; measure root error by the Newton correction |f/f'|,
    # since the raw residual is amplified by the enormous secular slope
    rng = np.random.default_rng(33)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    point = pencil.center + rng.normal(size=3) * 1e6
    jc = jacobi_coordinates(pencil, point)
    x2 = pencil.to_principal(point) ** 2
    for lam in jc.lambdas:
        f = float(np.sum(x2 / (pencil.poles - lam)) - 1.0)
        slope = float(np.sum(x2 / (pencil.poles - lam) ** 2))
        assert abs(f / slope) <= 1e-10 * max(1.0, abs(lam))
    # the eigen route loses the small eigenvalues at this conditioning
    # (error ~ eps * ||J_P||), so compare with a matched absolute floor
    op = inertia_operator(ps, point)
    mu = symmetric_eigen(op).values
    mapped = 2 * pencil.principal_moments[0] - pencil.mass * jc.lambdas[::-1]
    atol = 1e-14 * float(np.linalg.norm(op.entries))
    assert np.allclose(mapped, mu, rtol=1e-8, atol=atol)


def test_pencil_strong_anisotropy():
    rng = np.random.default_rng(34)
    ps = random_point_set(rng, 3, n=30, spread=[100.0, 1.0, 1e-2])
    pencil = build_pencil(ps)
    assert np.all(np.diff(pencil.poles) < 0)
    point = pencil.center + rng.normal(size=3)
    jc = jacobi_coordinates(pencil, point)
    mu = symmetric_eigen(inertia_operator(ps, point)).values
    mapped = 2 * pencil.principal_moments[0] - pencil.mass * jc.lambdas[::-1]
    assert np.allclose(mapped, mu, rtol=1e-8)


def test_jacobi_duality_with_point_inertia():
    # eigenvalues of the inertia operator at P are 2 J_1 - m lambda, reversed
    rng = np.random.default_rng(26)
    for k in (2, 3, 4):
        ps = random_point_set(rng, k)
        pencil = build_pencil(ps)
        for _ in range(10):
            point = ps.center + rng.normal(size=k) * 3
            jc = jacobi_coordinates(pencil, point)
            mu = symmetric_eigen(inertia_operator(ps, point)).values
            mapped = 2 * pencil.principal_moments[0] - pencil.mass * jc.lambdas[::-1]
            assert np.allclose(mapped, mu, rtol=1e-9)


# ---------------------------------------------------------------------------
# envelopes and tangency
# ---------------------------------------------------------------------------

def test_envelope_at_minimum_is_best_hyperplane(cells):
    pencil = build_pencil(cells)
    result = envelope_for_moment(pencil, float(pencil.principal_moments[0]))
    assert isinstance(result, DegenerateHyperplane)
    assert result.axis_index == 0
    best = Hyperplane.through(pencil.center, pencil.frame[:, 0])
    assert np.allclose(result.hyperplane.normal, best.normal)
    assert result.hyperplane.offset == pytest.approx(best.offset)


def test_envelope_gyration_level_2d(cells):
    # in 2D the gyration member sits at moment level I_1 + I_2 = J_1 + J_2
    pencil = build_pencil(cells)
    J = pencil.principal_moments
    member = envelope_for_moment(pencil, float(J.sum()))
    gyration = pencil.gyration_member()
    assert member.lam == pytest.approx(gyration.lam, rel=1e-12)


def test_envelope_below_minimum(cells):
    pencil = build_pencil(cells)
    result = envelope_for_moment(pencil, float(pencil.principal_moments[0]) - 1.0)
    assert isinstance(result, NoSolution)


def test_envelope_classification_bands():
    rng = np.random.default_rng(27)
    ps = random_point_set(rng, 4)
    pencil = build_pencil(ps)
    J = pencil.principal_moments
    # above the top moment: ellipsoid (type k)
    assert envelope_for_moment(pencil, float(J[-1] * 1.5)).type_index == 4
    # inside band (J_i, J_{i+1}): type i
    for i in range(3):
        level = 0.5 * (J[i] + J[i + 1])
        member = envelope_for_moment(pencil, float(level))
        assert member.type_index == i + 1
    # at J_i exactly: the i-th principal coordinate hyperplane
    for i in range(4):
        result = envelope_for_moment(pencil, float(J[i]))
        assert isinstance(result, DegenerateHyperplane) and result.axis_index == i


def test_envelope_classification_is_relative():
    # moments scaled by 4^-505 sit far below an absolute floor of 1e-300
    for s in (1.0, 2.0**-505):
        pencil = build_pencil(WeightedPointSet(CELLS_XY * s))
        J = pencil.principal_moments
        assert isinstance(envelope_for_moment(pencil, J[1] * (1 + 1e-10)), QuadricMember)
        assert isinstance(envelope_for_moment(pencil, J[1]), DegenerateHyperplane)


def test_tangent_hyperplane_axis_point():
    ps, pencil = pencil_with_poles(8.0, 5.0)
    member = pencil.member(0.0)  # the ellipse x^2/8 + y^2/5 = 1
    plane = tangent_hyperplane(member, [np.sqrt(8.0), 0.0])
    assert np.allclose(plane.normal, [1.0, 0.0], atol=1e-12)
    assert plane.offset == pytest.approx(np.sqrt(8.0))


def test_tangent_hyperplane_cells_restricted_line(cells):
    pencil = build_pencil(cells)
    origin = np.zeros(2)
    lam2 = jacobi_coordinates(pencil, origin).lambdas[1]
    plane = tangent_hyperplane(pencil.member(float(lam2)), origin)
    slope = -plane.normal[0] / plane.normal[1]
    assert slope == pytest.approx(0.30014, rel=1e-4)
    assert abs(plane.offset) < 1e-12


def test_tangent_hyperplane_rejects_off_quadric_points(cells):
    pencil = build_pencil(cells)
    member = pencil.member(float(pencil.poles[-1]) - 1.0)
    with pytest.raises(PointNotOnQuadric):
        tangent_hyperplane(member, pencil.center + 17.0)


def test_tangent_moment_trivial_and_cells(cells):
    pencil = build_pencil(cells)
    J1 = float(pencil.principal_moments[0])
    assert tangent_moment(pencil, float(pencil.poles[0])) == pytest.approx(J1)
    assert tangent_moment(pencil, -0.73589) == pytest.approx(5.071564, rel=1e-4)


def test_tangent_planes_share_the_member_moment():
    rng = np.random.default_rng(28)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    lam = float(pencil.poles[-1]) - 0.7 * (pencil.poles[0] - pencil.poles[-1])
    member = pencil.member(lam)
    expected = tangent_moment(pencil, lam)
    for _ in range(20):
        point = sample_point_on_member(member, rng)
        plane = tangent_hyperplane(member, point)
        assert hyperplanar_moment(ps, plane) == pytest.approx(expected, rel=1e-9)


def test_focal_distance_product_2d():
    # product of the signed distances from the two foci to any tangent line
    # equals the member's trailing semiaxis squared
    rng = np.random.default_rng(29)
    ps, pencil = pencil_with_poles(8.0, 5.0)
    foci = pencil.attach_points()[0]
    for lam in (-2.0, 3.0, 6.5):  # ellipse, ellipse, hyperbola members
        member = pencil.member(lam)
        minor_sq = member.semiaxes_sq[1]
        for _ in range(10):
            point = sample_point_on_member(member, rng)
            plane = tangent_hyperplane(member, point)
            d1 = float(plane.signed_distance(foci[0][None, :])[0])
            d2 = float(plane.signed_distance(foci[1][None, :])[0])
            assert d1 * d2 == pytest.approx(minor_sq, abs=1e-10 * max(1, abs(minor_sq)))


def test_planar_envelope_axial_identity():
    # axial moment of a 2D line = I_x + m * (signed focal-distance product)
    rng = np.random.default_rng(30)
    ps = random_point_set(rng, 2)
    pencil = build_pencil(ps)
    foci = pencil.attach_points()[0]
    i_x = float(pencil.principal_moments.sum() - pencil.principal_moments[0])
    for _ in range(20):
        plane = Hyperplane(random_unit_vector(rng, 2), rng.normal() * 3)
        line = plane.as_flat()
        d1 = float(plane.signed_distance(foci[0][None, :])[0])
        d2 = float(plane.signed_distance(foci[1][None, :])[0])
        expected = i_x + pencil.mass * d1 * d2
        assert l_planar_moment(ps, line) == pytest.approx(expected, rel=1e-9)


def test_any_line_through_a_focus_has_equal_moment():
    # the attach points are the planar foci: every direction gives the same
    # axial moment there
    rng = np.random.default_rng(31)
    ps = random_point_set(rng, 2)
    pencil = build_pencil(ps)
    focus = pencil.attach_points()[0][0]
    moments = []
    for _ in range(12):
        direction = random_unit_vector(rng, 2)
        moments.append(l_planar_moment(ps, FlatSubspace(focus, direction[:, None])))
    assert np.ptp(moments) <= 1e-9 * max(moments)


# ---------------------------------------------------------------------------
# thread construction
# ---------------------------------------------------------------------------

def test_thread_foci_limits():
    f1, _ = thread_foci((10.0, 8.0, 2.0), 0.0)
    assert f1[0] == pytest.approx(np.sqrt(10.0 - 8.0))
    g1, _ = thread_foci((10.0, 8.0, 2.0), np.pi / 2)
    assert g1[0] == pytest.approx(np.sqrt(10.0 - 2.0))


def test_thread_slice_quarter_angle():
    semi = (10.0, 8.0, 2.0)
    f1, f2 = thread_foci(semi, np.pi / 4)
    assert f1[0] ** 2 == pytest.approx(6.8)
    points = thread_slice(semi, np.pi / 4, 500)
    residual = points[:, 0] ** 2 / 10 + points[:, 1] ** 2 / 8 + points[:, 2] ** 2 / 2 - 1
    assert np.abs(residual).max() < 1e-10


def test_thread_length_constant():
    semi = (10.0, 8.0, 2.0)
    for theta in (0.0, 0.3, np.pi / 4, 1.2, np.pi / 2):
        f1, f2 = thread_foci(semi, theta)
        points = thread_slice(semi, theta, 257)
        lengths = np.linalg.norm(points - f1, axis=1) + np.linalg.norm(points - f2, axis=1)
        assert np.abs(lengths - 2 * np.sqrt(10.0)).max() < 1e-10
        # points lie in the slicing plane through the major axis
        plane_normal = np.array([0.0, -np.sin(theta), np.cos(theta)])
        assert np.abs(points @ plane_normal).max() < 1e-12


def test_thread_slice_validation():
    with pytest.raises(InvalidSemiaxes):
        thread_slice((8.0, 10.0, 2.0), 0.1, 10)
    with pytest.raises(InvalidSemiaxes):
        thread_slice((10.0, 8.0, -1.0), 0.1, 10)
    with pytest.raises(ValueError):
        thread_slice((10.0, 8.0, 2.0), 2.0, 10)
