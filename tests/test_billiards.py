"""Reflection, caustics, trajectories, and the conservation laws they obey."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confocalfit import (
    ConfocalPencil,
    FlatSubspace,
    Ray,
    WeightedPointSet,
    build_pencil,
    caustics_of_flat,
    higher_axial_moments,
    joachimsthal_2d,
    l_planar_moment,
    moment_via_caustics,
    tangent_hyperplane,
    trajectory,
)
from confocalfit.billiards import _bounce
from confocalfit.errors import DegenerateFlat, NoIntersection, NotEllipsoidType

import oracle
from conftest import CELLS_XY, assert_scaled, random_point_set, random_unit_vector

from test_pencil import pencil_with_poles, sample_point_on_member


def audin_holds(poles, caustics, tol=1e-9):
    merged = np.sort(np.concatenate([poles, caustics]))
    scale = max(1.0, np.abs(merged).max())
    return all(
        min(abs(g - merged[2 * j]), abs(g - merged[2 * j + 1])) <= tol * scale
        for j, g in enumerate(np.sort(caustics))
    )


def interior_ray(pencil, member, rng):
    """Random ray starting strictly inside an ellipsoid member."""
    s = member.semiaxes_sq
    while True:
        x = rng.normal(size=pencil.dim)
        x /= np.sqrt(np.sum(x * x / s)) * rng.uniform(1.3, 4.0)
        if float(np.sum(x * x / s)) < 0.8:
            return Ray(pencil.from_principal(x), rng.normal(size=pencil.dim))


def reflected(ray, member):
    """The ray after one reflection off the member: row 1 of its trajectory."""
    return Ray(*trajectory(member, ray, 1)[1])


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------

def test_normal_incidence_reverses_direction():
    rng = np.random.default_rng(80)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    member = pencil.member(float(pencil.poles[-1]) - 2.0)
    q = sample_point_on_member(member, rng)
    outward = pencil.frame @ (pencil.to_principal(q) / member.semiaxes_sq)
    outward /= np.linalg.norm(outward)
    start = q - 0.05 * outward  # just inside, aimed along the impact normal
    out = reflected(Ray(start, outward), member)
    assert np.allclose(out.point, q, atol=1e-9)
    assert np.allclose(out.direction, -outward, atol=1e-9)


def test_reflection_keeps_unit_speed_and_boundary_points():
    rng = np.random.default_rng(81)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    member = pencil.member(float(pencil.poles[-1]) - 1.5)
    ray = interior_ray(pencil, member, rng)
    out = reflected(ray, member)
    assert np.linalg.norm(out.direction) == pytest.approx(1.0, abs=1e-12)
    assert member.evaluate(out.point) == pytest.approx(1.0, abs=1e-9)


def test_reflection_preserves_caustics_3d():
    rng = np.random.default_rng(82)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    member = pencil.member(float(pencil.poles[-1]) - 1.0)
    for _ in range(10):
        ray = interior_ray(pencil, member, rng)
        before = caustics_of_flat(pencil, ray.line()).lambdas
        after = caustics_of_flat(pencil, reflected(ray, member).line()).lambdas
        scale = max(1.0, np.abs(before).max())
        assert np.abs(before - after).max() <= 1e-8 * scale


def test_chord_segments_share_the_2d_caustic():
    rng = np.random.default_rng(83)
    ps, pencil = pencil_with_poles(8.0, 5.0)
    member = pencil.member(0.0)
    ray = interior_ray(pencil, member, rng)
    lams = [caustics_of_flat(pencil, Ray(*row).line()).lambdas[0]
            for row in trajectory(member, ray, 6)]
    assert np.ptp(lams) <= 1e-9 * max(1.0, np.abs(lams).max())


def test_trajectory_requires_forward_intersection():
    ps, pencil = pencil_with_poles(8.0, 5.0)
    member = pencil.member(0.0)
    # on the member (semiaxes sqrt 8 and sqrt 5), aimed outward
    outward = Ray(pencil.from_principal(np.array([np.sqrt(8.0), 0.0])), pencil.frame[:, 0])
    with pytest.raises(NoIntersection, match="no forward intersection"):
        trajectory(member, outward, 1)
    # just outside, within the start's tolerance, on a line that misses
    passing = Ray(
        pencil.from_principal(np.array([np.sqrt(8.0) * (1 + 1e-10), 0.0])), pencil.frame[:, 1]
    )
    with pytest.raises(NoIntersection, match="does not meet") as info:
        trajectory(member, passing, 1)
    assert info.value.code == "no-intersection"


# ---------------------------------------------------------------------------
# caustics of flats
# ---------------------------------------------------------------------------

def test_line_tangent_to_member_recovers_parameter():
    rng = np.random.default_rng(84)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    lam = float(pencil.poles[-1]) - 1.3
    member = pencil.member(lam)
    point = sample_point_on_member(member, rng)
    plane = tangent_hyperplane(member, point)
    # a line inside the tangent hyperplane through the tangency point
    q, _ = np.linalg.qr(np.column_stack([plane.normal, np.eye(3)]))
    direction = q[:, 1]
    caustics = caustics_of_flat(pencil, FlatSubspace(point, direction[:, None]))
    assert np.min(np.abs(caustics.lambdas - lam)) <= 1e-8 * max(1.0, abs(lam))


def test_3d_lines_have_two_caustics_of_allowed_types():
    rng = np.random.default_rng(85)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    seen = set()
    for _ in range(60):
        line = FlatSubspace(
            ps.center + rng.normal(size=3) * 2, random_unit_vector(rng, 3)[:, None]
        )
        caustics = caustics_of_flat(pencil, line).lambdas
        assert caustics.shape == (2,)
        assert audin_holds(pencil.poles, caustics)
        # classify each caustic by its band: 3 = ellipsoid, 2/1 hyperboloids
        kinds = tuple(sorted((int(np.sum(pencil.poles > lam)) for lam in caustics), reverse=True))
        seen.add(kinds)
        # the four type pairs allowed for generic lines
        assert kinds in {(3, 2), (3, 1), (2, 2), (2, 1)}
    assert len(seen) >= 2


def test_l2_flats_in_r4_have_two_orthogonal_tangencies():
    rng = np.random.default_rng(86)
    ps = random_point_set(rng, 4)
    pencil = build_pencil(ps)
    for _ in range(20):
        basis, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        flat = FlatSubspace(ps.center + rng.normal(size=4), basis[:, :2])
        caustics = caustics_of_flat(pencil, flat).lambdas
        assert caustics.shape == (2,)
        # tangency points and the normals of the members there
        p = pencil.to_principal(flat.base_point)
        v = pencil.frame.T @ flat.basis
        normals = []
        for lam in caustics:
            d = 1.0 / (pencil.poles - lam)
            m = (v * d[:, None]).T @ v
            t = np.linalg.solve(m, -(v.T @ (d * p)))
            x = p + v @ t
            n = x * d
            normals.append(n / np.linalg.norm(n))
        assert abs(normals[0] @ normals[1]) <= 1e-8


def test_lines_through_a_planar_focus_touch_the_focal_member():
    ps, pencil = pencil_with_poles(8.0, 5.0)
    focus = pencil.attach_points()[0][0]
    rng = np.random.default_rng(87)
    for _ in range(25):
        line = FlatSubspace(focus, random_unit_vector(rng, 2)[:, None])
        lam = caustics_of_flat(pencil, line).lambdas
        assert lam.shape == (1,)
        assert lam[0] == pytest.approx(pencil.poles[1], abs=1e-9)


def circular_section_direction(pencil: ConfocalPencil) -> np.ndarray:
    """A direction, for k = 3, whose line through the centre has a repeated
    tangency parameter."""
    p1, p2, p3 = pencil.poles
    s = np.sqrt((p1 - p2) / (p1 - p3))  # sin of the circular-section angle
    return pencil.frame @ np.array([s, 0.0, np.sqrt(1 - s * s)])


def test_degenerate_flat_rejected():
    # a center line along a circular-section direction is refused
    rng = np.random.default_rng(87)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    line = FlatSubspace(pencil.center, circular_section_direction(pencil)[:, None])
    with pytest.raises(DegenerateFlat):
        caustics_of_flat(pencil, line)


def test_caustic_simplicity_test_scales_with_the_poles():
    # poles scaled by 4^j and the line by 2^j: the same caustics, scaled by
    # 4^j, at every scale
    poles = np.array([2.0, -1.0, -3.5])
    point, direction = np.array([0.4, -1.3, 0.8]), np.array([2.0, 1.0, -2.0]) / 3.0
    caustics = None
    for j in range(-500, 501, 10):
        f, s = 4.0**j, 2.0**j
        pencil = ConfocalPencil(np.zeros(3), np.eye(3), (2 * poles[0] - poles) * f, 1.0, poles * f)
        lam = caustics_of_flat(pencil, FlatSubspace(point * s, direction[:, None])).lambdas
        caustics = lam / f if caustics is None else caustics
        np.testing.assert_allclose(lam, caustics * f, rtol=1e-13, atol=0)


@pytest.mark.parametrize("k", (2, 3, 5))
def test_caustics_do_not_depend_on_the_base_point(k):
    # the same line, given by a base point slid t along it: the parameters
    # come from its foot point, so only the far base point's own rounding,
    # about eps t, is left
    for seed in range(8):
        rng = np.random.default_rng(seed)
        ps = random_point_set(rng, k)
        pencil = build_pencil(ps)
        base = ps.center + 0.3 * rng.normal(size=k)
        direction = random_unit_vector(rng, k)
        for t in (0.0, 1e2, 1e4, 1e6, 1e8):
            flat = FlatSubspace(base + t * direction, direction[:, None])
            lam = caustics_of_flat(pencil, flat).lambdas
            want = np.array(oracle.caustics(pencil, flat), dtype=float)
            scale = max(np.abs(want).max(), np.abs(pencil.poles).max())
            assert np.abs(lam - want).max() <= 1e-15 * max(1.0, t) * scale, (seed, t)


def test_principal_axis_line_moment_pattern():
    # the line along a principal axis has the coordinate hyperplanes as
    # degenerate caustics and moment equal to the complementary J sum
    rng = np.random.default_rng(88)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    J = pencil.principal_moments
    line = FlatSubspace(pencil.center, pencil.frame[:, 0][:, None])
    caustics = caustics_of_flat(pencil, line).lambdas
    assert np.allclose(np.sort(caustics), np.sort(pencil.poles[1:]), rtol=1e-12)
    assert moment_via_caustics(pencil, line) == pytest.approx(J[1] + J[2], rel=1e-10)


def test_moment_via_caustics_equals_axial_moment():
    rng = np.random.default_rng(89)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    for _ in range(25):
        line = FlatSubspace(
            ps.center + rng.normal(size=3) * 3, random_unit_vector(rng, 3)[:, None]
        )
        assert moment_via_caustics(pencil, line) == pytest.approx(
            l_planar_moment(ps, line), rel=1e-8
        )


def test_moment_via_caustics_equals_l_planar_moment():
    rng = np.random.default_rng(90)
    ps = random_point_set(rng, 4)
    pencil = build_pencil(ps)
    for ell in (1, 2, 3):
        for _ in range(10):
            basis, _ = np.linalg.qr(rng.normal(size=(4, ell)))
            flat = FlatSubspace(ps.center + rng.normal(size=4), basis[:, :ell])
            assert moment_via_caustics(pencil, flat) == pytest.approx(
                l_planar_moment(ps, flat), rel=1e-8
            )


def test_moment_via_caustics_reflection_invariant():
    rng = np.random.default_rng(91)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    member = pencil.member(float(pencil.poles[-1]) - 1.0)
    ray = interior_ray(pencil, member, rng)
    after = reflected(ray, member)
    assert moment_via_caustics(pencil, ray.line()) == pytest.approx(
        moment_via_caustics(pencil, after.line()), rel=1e-9
    )


# ---------------------------------------------------------------------------
# higher axial moments
# ---------------------------------------------------------------------------

def test_higher_moments_2d_single_value():
    rng = np.random.default_rng(92)
    ps = random_point_set(rng, 2)
    pencil = build_pencil(ps)
    ray = Ray(ps.center + rng.normal(size=2), random_unit_vector(rng, 2))
    hm = higher_axial_moments(pencil, ray)
    assert hm.shape == (1,)
    assert hm[0] == pytest.approx(l_planar_moment(ps, ray.line()), rel=1e-9)


def test_higher_moments_reflection_invariant():
    rng = np.random.default_rng(93)
    ps = random_point_set(rng, 4)
    pencil = build_pencil(ps)
    member = pencil.member(float(pencil.poles[-1]) - 1.0)
    ray = interior_ray(pencil, member, rng)
    after = reflected(ray, member)
    a = higher_axial_moments(pencil, ray)
    b = higher_axial_moments(pencil, after)
    assert np.allclose(a, b, rtol=1e-8)


def test_lines_with_common_caustics_share_higher_moments():
    rng = np.random.default_rng(94)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    inner = pencil.member(float(pencil.poles[-1]) - 0.8)
    outer = pencil.member(float(pencil.poles[-1]) - 1.6)
    ray = interior_ray(pencil, inner, rng)
    # two reflections off different members keep the caustic set intact
    other = reflected(reflected(ray, inner), outer)
    assert np.allclose(
        higher_axial_moments(pencil, ray),
        higher_axial_moments(pencil, other),
        rtol=1e-8,
    )


# ---------------------------------------------------------------------------
# Joachimsthal invariant
# ---------------------------------------------------------------------------

def test_joachimsthal_minor_axis_ray():
    # the member at -1 has semiaxes squared (9, 6): a unit vertical state on
    # its minor axis has F = 1/6, and that line is tangent to the degenerate
    # member on the pole alpha, 9 above the member
    alpha, beta = 8.0, 5.0
    ps, pencil = pencil_with_poles(alpha, beta)
    member = pencil.member(-1.0)
    ray = Ray(pencil.from_principal([0.0, 0.2]), pencil.frame @ [0.0, 1.0])
    f, lam0 = joachimsthal_2d(member, ray)
    assert f == pytest.approx(1.0 / (beta + 1.0), rel=1e-12)
    assert member.lam + lam0 == pytest.approx(alpha, rel=1e-12)


def test_joachimsthal_constant_along_trajectory():
    rng = np.random.default_rng(95)
    ps, pencil = pencil_with_poles(8.0, 5.0)
    member = pencil.member(0.0)
    values = [
        joachimsthal_2d(member, Ray(p, d))[0]
        for p, d in trajectory(member, interior_ray(pencil, member, rng), 10)
    ]
    assert np.ptp(values) <= 1e-10


def test_joachimsthal_parameter_matches_caustic():
    # lambda_0 is measured from the member: the caustic is member.lam + lambda_0
    rng = np.random.default_rng(96)
    ps, pencil = pencil_with_poles(8.0, 5.0)
    member = pencil.member(-2.0)
    for _ in range(20):
        ray = Ray(pencil.from_principal(rng.normal(size=2) * 1.5), random_unit_vector(rng, 2))
        _, lam0 = joachimsthal_2d(member, ray)
        lam = caustics_of_flat(pencil, ray.line()).lambdas[0]
        assert member.lam + lam0 == pytest.approx(lam, abs=1e-9 * max(1.0, abs(lam)))


def test_joachimsthal_validation():
    ps, pencil = pencil_with_poles(8.0, 5.0)
    with pytest.raises(NotEllipsoidType):
        joachimsthal_2d(pencil.member(6.0), Ray([0.0, 0.0], [1.0, 0.0]))


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_two_periodic_major_axis_orbit():
    ps, pencil = pencil_with_poles(8.0, 5.0)
    member = pencil.member(0.0)
    axis = pencil.frame[:, 0]
    start = Ray(pencil.center.copy(), axis)
    dirs = trajectory(member, start, 4)[:, 1] @ axis
    assert np.allclose(np.abs(dirs), 1.0, atol=1e-10)
    assert np.allclose(dirs[1:], np.array([-1.0, 1.0, -1.0, 1.0]) * dirs[0], atol=1e-10)


def test_trajectory_2d_conserves_caustic():
    rng = np.random.default_rng(97)
    ps, pencil = pencil_with_poles(9.0, 3.0)
    member = pencil.member(-1.0)
    start = interior_ray(pencil, member, rng)
    rays = trajectory(member, start, 50)
    lams = [caustics_of_flat(pencil, Ray(*row).line()).lambdas[0] for row in rays]
    assert np.ptp(lams) <= 1e-8 * max(1.0, np.abs(lams).max())


def test_trajectory_3d_conserves_caustics_and_higher_moments():
    rng = np.random.default_rng(98)
    ps = random_point_set(rng, 3)
    pencil = build_pencil(ps)
    member = pencil.member(float(pencil.poles[-1]) - 1.0)
    start = interior_ray(pencil, member, rng)
    rays = [Ray(*row) for row in trajectory(member, start, 20)]
    base_caustics = caustics_of_flat(pencil, rays[0].line()).lambdas
    base_moments = higher_axial_moments(pencil, rays[0])
    for ray in rays[1:]:
        caustics = caustics_of_flat(pencil, ray.line()).lambdas
        assert np.allclose(caustics, base_caustics, rtol=1e-8, atol=1e-8)
        assert np.allclose(
            higher_axial_moments(pencil, ray), base_moments, rtol=1e-8
        )


def test_trajectory_far_from_the_origin_keeps_its_caustic():
    # the README billiard on the cells data moved by +1e6; the state stays in
    # the principal frame, so the offset's rounding does not build up
    ps = WeightedPointSet(CELLS_XY + 1e6)
    pencil = build_pencil(ps)
    member = pencil.member(-20.0)
    rays = trajectory(member, Ray(np.array([12.7, 3.6]) + 1e6, [0.6, 0.8]), 20_000)
    values = [joachimsthal_2d(member, Ray(p, d))[0] for p, d in rays]
    assert np.ptp(values) <= 1e-10 * abs(values[0])


def _cells_billiard(s: float) -> np.ndarray:
    """Five bounces of a ray from the centroid of the cells data scaled by
    ``s`` inside the member at -20 s^2."""
    ps = WeightedPointSet(CELLS_XY * s)
    member = build_pencil(ps).member(-20.0 * s * s)
    return trajectory(member, Ray(ps.center, [1.0, 0.3]), 5)


@settings(max_examples=60, deadline=None)
@given(j=st.integers(-500, 500))
@example(j=-500)
@example(j=500)
def test_trajectory_scales_by_powers_of_two(j):
    # points scale by 2^j and directions not at all; the escape threshold is
    # relative to the member, so a tiny billiard still finds every impact
    s = 2.0**j
    rays, scaled = _cells_billiard(1.0), _cells_billiard(s)
    assert len(scaled) == len(rays) == 6
    for (point, direction), (scaled_point, scaled_direction) in zip(rays, scaled):
        assert_scaled(scaled_point, point, s)
        assert_scaled(scaled_direction, direction, 1.0)


def test_trajectory_is_one_array_of_states():
    # the README billiard on the cells data moved by +1e6: the rows, converted
    # together, match a conversion after every bounce to 4 ulps of the offset
    ps = WeightedPointSet(CELLS_XY + 1e6)
    pencil = build_pencil(ps)
    member = pencil.member(-20.0)
    start = Ray(np.array([12.7, 3.6]) + 1e6, [0.6, 0.8])
    rays = trajectory(member, start, 2_000)
    assert rays.shape == (2_001, 2, 2)
    assert rays[0].tobytes() == np.stack([start.point, start.direction]).tobytes()
    assert np.abs(np.linalg.norm(rays[:, 1], axis=1) - 1.0).max() <= 1e-15
    p, v = pencil.to_principal(start.point), pencil.frame.T @ start.direction
    want = [(start.point, start.direction)]
    for _ in range(2_000):
        p, v = _bounce(p, v, member.semiaxes_sq)
        want.append((pencil.from_principal(p), pencil.frame @ v))
    want = np.array(want)
    assert np.abs(rays[:, 0] - want[:, 0]).max() <= 4 * np.spacing(1e6)
    assert np.abs(rays[:, 1] - want[:, 1]).max() <= 4 * np.spacing(1.0)


def test_trajectory_rejects_non_ellipsoid_members():
    ps, pencil = pencil_with_poles(8.0, 5.0)
    hyperbola = pencil.member(6.0)
    with pytest.raises(NotEllipsoidType):
        trajectory(hyperbola, Ray([0.0, 0.0], [1.0, 0.0]), 3)


def test_trajectory_rejects_outside_start():
    ps, pencil = pencil_with_poles(8.0, 5.0)
    member = pencil.member(0.0)
    outside = pencil.from_principal(np.array([5.0, 5.0]))
    with pytest.raises(NoIntersection):
        trajectory(member, Ray(outside, [1.0, 0.0]), 3)


# ---------------------------------------------------------------------------
# frame independence
# ---------------------------------------------------------------------------

# Moving the data and a state by the same rigid motion moves every result
# with them, up to the rounding of the two eigensystems and of 20 bounces,
# which stays far below this relative tolerance.
FRAME_RTOL = 1e-9


@pytest.mark.parametrize("shift", (0.0, 1e3))
@pytest.mark.parametrize("det", (1.0, -1.0))
@pytest.mark.parametrize("k", (2, 3))
def test_billiards_do_not_depend_on_the_frame(k, det, shift):
    rng = np.random.default_rng([99, k, int(det > 0), int(shift)])
    ps = random_point_set(rng, k)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    q[:, 0] *= det * np.sign(np.linalg.det(q))
    t = shift * random_unit_vector(rng, k)
    assert np.linalg.det(q) == pytest.approx(det)
    moved = WeightedPointSet(ps.coords @ q.T + t, ps.masses)
    pencil, moved_pencil = build_pencil(ps), build_pencil(moved)
    lam = float(pencil.poles[-1] - 0.5 * (pencil.poles[0] - pencil.poles[-1]))
    member, moved_member = pencil.member(lam), moved_pencil.member(lam)
    start = interior_ray(pencil, member, rng)
    rows = trajectory(member, start, 20)
    moved_rows = trajectory(moved_member, Ray(q @ start.point + t, q @ start.direction), 20)
    want = rows @ q.T
    want[:, 0] += t
    assert np.abs(moved_rows[:, 0] - want[:, 0]).max() <= FRAME_RTOL * np.abs(want[:, 0]).max()
    assert np.abs(moved_rows[:, 1] - want[:, 1]).max() <= FRAME_RTOL
    scale = float(np.abs(pencil.poles).max())
    for row, moved_row in zip(rows, moved_rows):
        ray, moved_ray = Ray(*row), Ray(*moved_row)
        assert np.abs(
            caustics_of_flat(moved_pencil, moved_ray.line()).lambdas
            - caustics_of_flat(pencil, ray.line()).lambdas
        ).max() <= FRAME_RTOL * scale
        assert np.allclose(
            higher_axial_moments(moved_pencil, moved_ray),
            higher_axial_moments(pencil, ray),
            rtol=FRAME_RTOL,
            atol=0.0,
        )
        if k == 2:
            assert joachimsthal_2d(moved_member, moved_ray) == pytest.approx(
                joachimsthal_2d(member, ray), rel=FRAME_RTOL
            )
