"""Core geometry: moments, inertia operators, eigendecomposition."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confocalfit import (
    CausticSet,
    CoefficientVector,
    ConfocalPencil,
    Dataset,
    DualQuadric,
    EigenDecomposition,
    FlatSubspace,
    Hyperplane,
    JacobiCoordinates,
    Ray,
    RestrictedPcaResult,
    SymmetricOperator,
    WeightedPointSet,
    best_fit_flat,
    build_pencil,
    constrained_fit,
    directional_fit,
    directional_moment,
    hyperplanar_moment,
    inertia_operator,
    l_planar_moment,
    moment_of_coefficients,
    nested_f_test,
    restricted_best_fit_flat,
    restricted_pca,
    symmetric_eigen,
)
from confocalfit import geometry
from confocalfit.errors import DirectionParallel, NotSymmetric

import oracle
from conftest import EPS, gram_moment, random_point_set, random_unit_vector


# ---------------------------------------------------------------------------
# centroid
# ---------------------------------------------------------------------------

def test_centroid_cells(cells):
    assert np.allclose(cells.center, [12.7374, 3.5748], atol=1e-10)


def test_centroid_forbes(forbes):
    assert np.allclose(forbes.center, [202.9529, 25.05882], rtol=1e-6)


def test_centroid_single_point():
    ps = WeightedPointSet(np.array([[5.0, 7.0]]), np.array([3.0]))
    assert np.allclose(ps.center, [5.0, 7.0])


def test_centroid_matches_weighted_mean():
    rng = np.random.default_rng(0)
    ps = random_point_set(rng, 3)
    expected = np.average(ps.coords, axis=0, weights=ps.masses)
    assert np.allclose(ps.center, expected)


def test_centroid_far_from_origin():
    # summing raw coordinates would place this centroid only to ~5e-9
    x = np.random.default_rng(0).normal(size=(10_000, 3)) + 1e6
    expected = x[0] + (x - x[0]).mean(axis=0)
    assert np.abs(WeightedPointSet(x).center - expected).max() <= 4 * np.spacing(1e6)


def _far_weighted_set(rng, n):
    x = rng.normal(size=(n, 3)) + [1e6, -2e6, 3e6]
    return WeightedPointSet(x, rng.uniform(0.5, 2.0, size=n))


def test_centroid_residual_keeps_what_the_rounding_lost():
    # one block, and three blocks plus 17 rows of the blocked sums
    rng = np.random.default_rng(1)
    for n in (40, 3 * geometry._BLOCK + 17):
        ps = _far_weighted_set(rng, n)
        exact = oracle.centroid(ps.coords, ps.masses)
        point = ps.center + [1.0, -0.5, 0.25]
        got = ps.offset_from_center(point)
        for i in range(3):
            assert abs(exact[i] - float(ps.center[i]) - float(ps.center_residual[i])) <= 1e-14
            assert abs(float(point[i]) - exact[i] - float(got[i])) <= 1e-14
        assert np.array_equal(ps.offset_from_center(np.stack([point, point])), [got, got])
        # the pencil's frame change takes the residual in both ways: a point
        # placed from principal coordinates is rounded once, at the end
        pencil = build_pencil(ps)
        for x in rng.normal(size=(8, 3)):
            placed = pencil.from_principal(x)
            want = oracle.from_principal(exact, pencil.frame, x)
            for i in range(3):
                assert abs(want[i] - float(placed[i])) <= abs(np.spacing(placed[i])) / 2 + 1e-14


# ---------------------------------------------------------------------------
# inertia operator
# ---------------------------------------------------------------------------

def test_inertia_operator_cells(cells):
    op = inertia_operator(cells, cells.center).entries
    assert op[0, 0] == pytest.approx(47.7937, rel=1e-5)
    assert op[1, 1] == pytest.approx(18.1021, rel=1e-5)
    assert op[0, 1] == pytest.approx(28.6318, rel=1e-5)


def test_inertia_operator_forbes(forbes):
    op = inertia_operator(forbes, forbes.center).entries
    assert op[0, 0] == pytest.approx(530.78235, rel=1e-6)
    assert op[1, 1] == pytest.approx(145.93778, rel=1e-6)
    assert op[0, 1] == pytest.approx(277.54206, rel=1e-6)


def test_inertia_operator_shift_identity():
    # A(P) = A(C) + m (C-P)(C-P)^T, checked against direct summation
    rng = np.random.default_rng(1)
    ps = random_point_set(rng, 4)
    c = ps.center
    p = rng.normal(size=4) * 3
    direct = np.zeros((4, 4))
    for point, mass in zip(ps.coords, ps.masses):
        direct += mass * np.outer(point - p, point - p)
    shifted = inertia_operator(ps, c).entries + ps.total_mass * np.outer(c - p, c - p)
    assert np.allclose(inertia_operator(ps, p).entries, direct)
    assert np.allclose(shifted, direct, rtol=1e-12, atol=1e-9 * np.abs(direct).max())


def test_blocked_inertia_matches_an_exact_reference():
    # A(c) from the oracle, on three blocks plus 17 rows far from the origin.  The bound
    # on each entry is 4e-15 sqrt(A_ii A_jj): on seeds 2-7 of this set the blocked sums
    # read at most 2.0e-15 of that scale (9.4e-16 on seed 2), one sum over all rows at most 4.1e-15
    ps = _far_weighted_set(np.random.default_rng(2), 3 * geometry._BLOCK + 17)
    got = ps.centered_inertia.entries
    exact = oracle.scatter(ps.coords, ps.masses, oracle.centroid(ps.coords, ps.masses))
    for i in range(3):
        for j in range(3):
            scale = float(exact[i, i] * exact[j, j]) ** 0.5
            assert abs(float(exact[i, j] - float(got[i, j]))) <= 4e-15 * scale


@pytest.mark.parametrize("n", [1, 2, 100, geometry._BLOCK])
def test_one_block_sums_are_the_one_shot_expressions(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 3)) * [1.0, 3.0, 9.0] + 1e6
    masses = rng.uniform(0.5, 2.0, size=n)
    ps = WeightedPointSet(x, masses)
    ref = x[0]
    c = ref + masses @ (x - ref) / masses.sum()
    d = x - c
    a = SymmetricOperator((d * masses[:, None]).T @ d).entries
    assert ps.center.tobytes() == c.tobytes()
    assert ps.centered_inertia.entries.tobytes() == a.tobytes()
    plane = Hyperplane(rng.normal(size=3), 1e6)
    r = x @ plane.normal - plane.offset
    assert hyperplanar_moment(ps, plane) == float(masses @ (r * r))
    line = FlatSubspace(c, np.eye(3)[:, :1])
    d = line.distances(x)
    assert l_planar_moment(ps, line) == float(masses @ (d * d))


def test_the_summary_allocates_no_n_by_k_array():
    ps = WeightedPointSet(np.random.default_rng(3).normal(size=(100_000, 3)) + 1e6)
    plane = Hyperplane([1.0, 2.0, -1.0], 2e6)
    line = FlatSubspace(np.full(3, 1e6), np.eye(3)[:, :1])
    u = CoefficientVector([1e-6, 0.0, 0.0])
    calls = {
        "summary": lambda: ps.spectrum,
        "hyperplanar_moment": lambda: hyperplanar_moment(ps, plane),
        "l_planar_moment": lambda: l_planar_moment(ps, line),
        "directional_moment": lambda: directional_moment(ps, plane, [0.0, 0.0, 1.0]),
        "moment_of_coefficients": lambda: moment_of_coefficients(ps, u),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(peak < ps.coords.nbytes for peak in peaks.values()), peaks


# ---------------------------------------------------------------------------
# hyperplanar moment
# ---------------------------------------------------------------------------

def test_hyperplanar_moment_cells_best_line(cells):
    eig = symmetric_eigen(inertia_operator(cells, cells.center))
    plane = Hyperplane.through(cells.center, eig.vectors[:, 0])
    assert hyperplanar_moment(cells, plane) == pytest.approx(0.69605, rel=1e-5)


def test_hyperplanar_moment_coplanar_zero():
    pts = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [0.0, 1.0, 2.0], [5.0, 0.5, -3.5]])
    plane = Hyperplane(np.array([1.0, 1.0, -1.0]), 0.7)
    on_plane = pts - np.outer(plane.signed_distance(pts), plane.normal)
    ps = WeightedPointSet(on_plane)
    assert hyperplanar_moment(ps, plane) == pytest.approx(0.0, abs=1e-18)


@pytest.mark.parametrize("shift", [0.0, 1e3])
@pytest.mark.parametrize("k", [2, 3])
def test_near_zero_moments_are_row_sums(k, shift):
    # thin sets, J_1 / J_k ~ 1e-10: the moment of the best plane read from the
    # summary, n^T A(c) n, would be off by about eps J_k, 1e-6 of J_1; the
    # row sums stay within the rounding of their own distances (at shift 0,
    # about 1e-11 of the moment)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        spread = np.array([1.0] * (k - 1) + [1.2e-5])
        ps = random_point_set(rng, k, n=200, spread=spread, shift=shift)
        assert ps.spectrum.values[0] < 2e-10 * ps.spectrum.values[-1]
        plane = best_fit_flat(ps, k - 1).flat
        for moment, flat in [(hyperplanar_moment, plane), (l_planar_moment, plane.as_flat())]:
            want, spread = oracle.row_moment(ps.coords, ps.masses, flat)
            assert abs(moment(ps, flat) - want) <= (k + 1) * EPS * spread


def test_hyperplanar_moment_equals_quadratic_form():
    rng = np.random.default_rng(2)
    ps = random_point_set(rng, 3)
    plane = Hyperplane(random_unit_vector(rng, 3), rng.normal())
    origin = plane.offset * plane.normal  # closest point of the plane to 0
    op = inertia_operator(ps, origin)
    assert hyperplanar_moment(ps, plane) == pytest.approx(
        op.quadratic_form(plane.normal), rel=1e-12
    )


# ---------------------------------------------------------------------------
# l-planar and axial moments
# ---------------------------------------------------------------------------

def test_l_planar_moment_principal_flats():
    rng = np.random.default_rng(3)
    ps = random_point_set(rng, 4)
    c = ps.center
    eig = symmetric_eigen(inertia_operator(ps, c))
    # coordinate flat spanned by axes (i1..il) leaves the complementary J's
    for axes in [(0,), (3,), (0, 1), (1, 3), (0, 2, 3)]:
        flat = FlatSubspace(c, eig.vectors[:, list(axes)])
        expected = eig.values[[i for i in range(4) if i not in axes]].sum()
        assert l_planar_moment(ps, flat) == pytest.approx(expected, rel=1e-10)


def test_l_planar_moment_containing_flat_is_zero():
    rng = np.random.default_rng(4)
    basis, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    base = rng.normal(size=4)
    coeffs = rng.normal(size=(7, 2))
    ps = WeightedPointSet(base + coeffs @ basis.T)
    assert l_planar_moment(ps, FlatSubspace(base, basis)) == pytest.approx(0.0, abs=1e-18)


def test_l_planar_moment_matches_gram_oracle():
    rng = np.random.default_rng(5)
    ps = random_point_set(rng, 3)
    direction = random_unit_vector(rng, 3)
    base = rng.normal(size=3)
    flat = FlatSubspace(base, direction[:, None])
    assert l_planar_moment(ps, flat) == pytest.approx(
        gram_moment(ps, base, direction[:, None]), rel=1e-9
    )


def test_l_planar_moment_far_from_the_flat_base_point():
    # as_flat() puts the base point at the foot from the origin, 1.7e6 from
    # data at +1e6; |x - b|^2 - |V^T (x - b)|^2 loses 5e-4 of the moment
    rng = np.random.default_rng(23)
    ps = random_point_set(rng, 3, n=200, shift=0.0)
    ps = WeightedPointSet(ps.coords + 1e6, ps.masses)
    plane = best_fit_flat(ps, 2).flat
    assert np.linalg.norm(plane.as_flat().base_point - ps.center) > 1e6
    expected = hyperplanar_moment(ps, plane)
    assert l_planar_moment(ps, plane.as_flat()) == pytest.approx(expected, rel=1e-9)


def test_gram_oracle_accepts_non_orthonormal_spans():
    rng = np.random.default_rng(6)
    ps = random_point_set(rng, 4)
    base = rng.normal(size=4)
    raw = rng.normal(size=(4, 2))
    flat = FlatSubspace.spanned_by(base, raw)
    assert l_planar_moment(ps, flat) == pytest.approx(gram_moment(ps, base, raw), rel=1e-9)


def test_axial_moment_collinear_zero():
    direction = np.array([1.0, 2.0, -1.0]) / np.sqrt(6)
    base = np.array([0.5, -1.0, 2.0])
    ps = WeightedPointSet(base + np.linspace(-2, 3, 6)[:, None] * direction)
    line = FlatSubspace(base, direction[:, None])
    assert l_planar_moment(ps, line) == pytest.approx(0.0, abs=1e-18)


def test_axial_moment_parallel_shift():
    # Huygens-Steiner for lines: I(shifted) = I(through C) + m d^2
    rng = np.random.default_rng(7)
    ps = random_point_set(rng, 3)
    c = ps.center
    direction = random_unit_vector(rng, 3)
    offset = rng.normal(size=3)
    offset -= (offset @ direction) * direction
    line0 = FlatSubspace(c, direction[:, None])
    line1 = FlatSubspace(c + offset, direction[:, None])
    direct = sum(
        m * np.sum((p - c - offset - ((p - c - offset) @ direction) * direction) ** 2)
        for p, m in zip(ps.coords, ps.masses)
    )
    expected = l_planar_moment(ps, line0) + ps.total_mass * offset @ offset
    assert l_planar_moment(ps, line1) == pytest.approx(expected, rel=1e-9)
    assert l_planar_moment(ps, line1) == pytest.approx(direct, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 4),
    dist=st.floats(-5, 5, allow_nan=False),
)
def test_huygens_steiner_hyperplanar(seed, k, dist):
    rng = np.random.default_rng(seed)
    ps = random_point_set(rng, k)
    c = ps.center
    normal = random_unit_vector(rng, k)
    base = Hyperplane.through(c, normal)
    shifted = Hyperplane(normal, float(normal @ c) + dist)
    expected = hyperplanar_moment(ps, base) + ps.total_mass * dist * dist
    assert hyperplanar_moment(ps, shifted) == pytest.approx(expected, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), ell=st.integers(1, 3), dist=st.floats(0.1, 4))
def test_huygens_steiner_l_planar(seed, ell, dist):
    rng = np.random.default_rng(seed)
    k = 4
    ps = random_point_set(rng, k)
    c = ps.center
    basis, _ = np.linalg.qr(rng.normal(size=(k, ell)))
    basis = basis[:, :ell]
    shift = rng.normal(size=k)
    shift -= basis @ (basis.T @ shift)
    shift *= dist / np.linalg.norm(shift)
    flat0 = FlatSubspace(c, basis)
    flat1 = FlatSubspace(c + shift, basis)
    expected = l_planar_moment(ps, flat0) + ps.total_mass * dist * dist
    assert l_planar_moment(ps, flat1) == pytest.approx(expected, rel=1e-9)


def test_axial_decomposition_3d():
    # axial moment about a principal axis = sum of the two complementary
    # principal hyperplanar moments
    rng = np.random.default_rng(8)
    ps = random_point_set(rng, 3)
    c = ps.center
    eig = symmetric_eigen(inertia_operator(ps, c))
    for i, j, p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        line = FlatSubspace(c, eig.vectors[:, i][:, None])
        assert l_planar_moment(ps, line) == pytest.approx(
            eig.values[j] + eig.values[p], rel=1e-10
        )


def test_axial_decomposition_2d():
    # in the plane the axial moment about a principal axis equals the
    # hyperplanar moment of the other axis
    rng = np.random.default_rng(13)
    ps = random_point_set(rng, 2)
    c = ps.center
    eig = symmetric_eigen(inertia_operator(ps, c))
    for i, j in [(0, 1), (1, 0)]:
        line = FlatSubspace(c, eig.vectors[:, i][:, None])
        assert l_planar_moment(ps, line) == pytest.approx(eig.values[j], rel=1e-10)


def test_l_planar_moment_hyperplane_case():
    rng = np.random.default_rng(14)
    ps = random_point_set(rng, 4)
    plane = Hyperplane(random_unit_vector(rng, 4), rng.normal())
    assert l_planar_moment(ps, plane.as_flat()) == pytest.approx(
        hyperplanar_moment(ps, plane), rel=1e-12
    )


# ---------------------------------------------------------------------------
# directional moment
# ---------------------------------------------------------------------------

def test_directional_moment_forbes_values(forbes):
    from confocalfit import directional_fit

    unrestricted = directional_fit(forbes, [0.0, 1.0])
    assert directional_moment(forbes, unrestricted.flat, [0.0, 1.0]) == pytest.approx(
        0.813143014, rel=1e-6
    )
    restricted = directional_fit(forbes, [0.0, 1.0], through=[201.5, 24.5])
    assert directional_moment(forbes, restricted.flat, [0.0, 1.0]) == pytest.approx(
        1.455877, rel=1e-6
    )


def test_directional_moment_normal_direction():
    rng = np.random.default_rng(9)
    ps = random_point_set(rng, 3)
    plane = Hyperplane(random_unit_vector(rng, 3), rng.normal())
    assert directional_moment(ps, plane, plane.normal) == pytest.approx(
        hyperplanar_moment(ps, plane), rel=1e-12
    )


def test_directional_moment_parallel_direction_rejected():
    plane = Hyperplane(np.array([1.0, 0.0]), 0.5)
    ps = WeightedPointSet(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(DirectionParallel):
        directional_moment(ps, plane, [0.0, 1.0])
    with pytest.raises(DirectionParallel) as info:
        directional_moment(ps, plane, [0.0, 0.0])
    assert info.value.code == "direction-parallel"


def test_directional_moment_dominates_hyperplanar():
    rng = np.random.default_rng(10)
    ps = random_point_set(rng, 3)
    plane = Hyperplane(random_unit_vector(rng, 3), rng.normal())
    base = hyperplanar_moment(ps, plane)
    for _ in range(25):
        w = random_unit_vector(rng, 3)
        if abs(w @ plane.normal) < 1e-6:
            continue
        assert directional_moment(ps, plane, w) >= base - 1e-12 * base


# ---------------------------------------------------------------------------
# symmetric eigendecomposition
# ---------------------------------------------------------------------------

def _charpoly_roots(matrix):
    """Independent oracle: bisect sign changes of det(A - t I)."""
    k = matrix.shape[0]
    radius = np.abs(matrix).sum(axis=1).max()
    grid = np.linspace(-radius - 1, radius + 1, 4001)

    def f(t):
        return np.linalg.det(matrix - t * np.eye(k))

    values = np.array([f(t) for t in grid])
    roots = []
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            roots.append(grid[i])
        elif values[i] * values[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < 1e-13 * max(1.0, abs(mid)):
                    break
            roots.append(0.5 * (lo + hi))
    return np.asarray(roots)


def test_symmetric_eigen_cells(cells):
    eig = symmetric_eigen(inertia_operator(cells, cells.center))
    assert eig.values[0] == pytest.approx(0.69605, rel=1e-5)
    assert eig.values[1] == pytest.approx(65.19978, rel=1e-6)


def test_symmetric_eigen_identity():
    eig = symmetric_eigen(SymmetricOperator(np.eye(4)))
    assert np.allclose(eig.values, 1.0)


def test_symmetric_eigen_matches_charpoly_bisection():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    sym = SymmetricOperator(0.5 * (a + a.T))
    eig = symmetric_eigen(sym)
    oracle = _charpoly_roots(sym.entries)
    assert len(oracle) == 5
    assert np.allclose(np.sort(oracle), eig.values, atol=1e-8 * np.abs(eig.values).max())


def test_symmetric_eigen_reconstruction_and_orthonormality():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        sym = SymmetricOperator(0.5 * (a + a.T))
        eig = symmetric_eigen(sym)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        norm = np.linalg.norm(sym.entries)
        assert np.linalg.norm(sym.entries - recon) <= 1e-10 * max(norm, 1e-300)
        assert np.abs(eig.vectors.T @ eig.vectors - np.eye(4)).max() <= 1e-12
        assert np.all(np.diff(eig.values) >= 0)


def _record_calls(monkeypatch, *targets):
    """Names of the calls made to each ``(owner, attribute)`` function."""
    calls = []
    for owner, name in targets:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_centered_spectrum_is_formed_once(monkeypatch):
    calls = _record_calls(monkeypatch, (np.linalg, "eigh"), (np.linalg, "eigvalsh"))
    ps = random_point_set(np.random.default_rng(13), 3)
    assert ps.is_full_rank
    build_pencil(ps)
    build_pencil(ps)
    best_fit_flat(ps, 2)
    assert not constrained_fit(ps, "l2", 1e12).active
    assert len(calls) == 1
    for cached in (
        ps.center, ps.centered_inertia.entries, ps.spectrum.values, ps.spectrum.vectors
    ):
        with pytest.raises(ValueError):
            cached[0] = 0.0


def test_restricted_queries_reuse_the_cached_spectrum(monkeypatch):
    # once the centred spectrum is cached, queries at a point read the
    # pencil and the cached operator: no second pass over the N points, no
    # second eigensolver
    rng = np.random.default_rng(14)
    ps = random_point_set(rng, 4)
    build_pencil(ps)
    point = ps.center + rng.normal(size=4)
    calls = _record_calls(
        monkeypatch,
        (np.linalg, "eigh"),
        (np.linalg, "eigvalsh"),
        (geometry, "inertia_operator"),
        (geometry, "hyperplanar_moment"),
    )
    restricted_pca(ps, point)
    for ell in range(1, 4):
        restricted_best_fit_flat(ps, point, ell)
    w = rng.normal(size=4)
    directional_fit(ps, w, through=point)
    nested_f_test(ps, w, point)
    assert calls == []


def test_symmetric_operator_rejects_asymmetry():
    with pytest.raises(NotSymmetric):
        SymmetricOperator(np.array([[1.0, 2.0], [2.5, 1.0]]))


def test_symmetry_and_rank_tests_scale_with_the_entries():
    # an operator scaled by 4^j (a moment) and spanning vectors scaled by 2^j
    # (lengths) meet the same verdicts at every scale
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    skew = np.array([[0.0, 1e-6], [-1e-6, 0.0]])
    independent = np.array([[1.0, 2.0, 0.5], [1.0, 2.0, 0.5 + 1e-6]])
    dependent = np.array([[1.0, 2.0, 0.5], [-2.0, -4.0, -1.0]])
    for j in range(-500, 501, 10):
        f = 4.0**j
        assert np.array_equal(SymmetricOperator(a * f).entries, a * f)
        with pytest.raises(NotSymmetric):
            SymmetricOperator((a + skew) * f)
        s = 2.0**j
        assert FlatSubspace.spanned_by(np.ones(3) * s, independent * s).flat_dim == 2
        assert FlatSubspace.spanned_by(np.ones(3) * s, dependent * s).flat_dim == 1


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

def test_point_set_validation():
    with pytest.raises(ValueError):
        WeightedPointSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        WeightedPointSet(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        WeightedPointSet(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        WeightedPointSet(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_full_rank_flag():
    collinear = WeightedPointSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert not collinear.is_full_rank
    spread = WeightedPointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert spread.is_full_rank


@settings(max_examples=40, deadline=None)
@given(
    comps=st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=5),
    offset=st.floats(-10, 10, allow_nan=False),
)
def test_hyperplane_canonicalization(comps, offset):
    normal = np.asarray(comps)
    if np.linalg.norm(normal) < 1e-6:
        return
    plane = Hyperplane(normal, offset)
    flipped = Hyperplane(-normal, -offset)
    assert np.allclose(plane.normal, flipped.normal)
    assert plane.offset == pytest.approx(flipped.offset, abs=1e-12)
    assert np.linalg.norm(plane.normal) == pytest.approx(1.0, abs=1e-12)
    lead = plane.normal[np.flatnonzero(np.abs(plane.normal) > 1e-12)[0]]
    assert lead > 0


def test_hyperplane_normal_of_any_scale():
    # |n| is never squared unscaled: 1e300 overflowed to a zero normal and
    # 1e-320 underflowed to "normal must be nonzero"
    big = Hyperplane([1e300, 1e300], 1.0)
    assert np.allclose(big.normal, [0.5**0.5] * 2, rtol=1e-15, atol=0)
    assert big.offset == pytest.approx(0.5**0.5 * 1e-300, rel=1e-15)
    tiny = Hyperplane([1e-320, 0.0], 1e-320)
    assert np.array_equal(tiny.normal, [1.0, 0.0]) and tiny.offset == 1.0
    plane = Hyperplane([3.0, -4.0, 12.0], 2.0)
    for j in range(-1070, 1020, 10):
        s = 2.0**j
        scaled = Hyperplane(np.array([3.0, -4.0, 12.0]) * s, 2.0 * s)
        assert np.array_equal(scaled.normal, plane.normal), j
        assert scaled.offset == pytest.approx(plane.offset, rel=1e-15), j


# ---------------------------------------------------------------------------
# values own read-only arrays
# ---------------------------------------------------------------------------

_PS = random_point_set(np.random.default_rng(31), 3)
_JACOBI = JacobiCoordinates(np.array([-2.0, 0.5, 0.9]), np.zeros(3, bool), np.eye(3))

# (value, caller's array): each value is built from a fresh writeable array
OWNERSHIP_CASES = {
    "WeightedPointSet": (WeightedPointSet, lambda: _PS.coords.copy()),
    "SymmetricOperator": (SymmetricOperator, lambda: np.diag([3.0, 2.0, 1.0])),
    "EigenDecomposition": (
        lambda a: EigenDecomposition(a, np.eye(3)), lambda: np.array([1.0, 2.0, 3.0])
    ),
    "Hyperplane": (lambda a: Hyperplane(a, 1.0), lambda: np.array([1.0, 2.0, 2.0])),
    "FlatSubspace": (
        lambda a: FlatSubspace(np.zeros(3), a), lambda: np.eye(3)[:, :2].copy()
    ),
    "Dataset": (
        lambda a: Dataset(("x", "y", "z"), a, np.ones(len(a)), "memory"),
        lambda: _PS.coords.copy(),
    ),
    "ConfocalPencil": (
        lambda a: ConfocalPencil(np.zeros(3), np.eye(3), np.array([1.0, 2.0, 3.0]), 1.0, a),
        lambda: np.array([1.0, 0.0, -1.0]),
    ),
    "JacobiCoordinates": (
        lambda a: JacobiCoordinates(np.array([-2.0, 0.5, 0.9]), a, np.eye(3)),
        lambda: np.array([False, True, False]),
    ),
    "Ray": (lambda a: Ray(a, np.array([1.0, 0.0, 0.0])), lambda: np.array([0.1, 0.2, 0.3])),
    "CausticSet": (CausticSet, lambda: np.array([0.5, 0.8])),
    "RestrictedPcaResult": (
        lambda a: RestrictedPcaResult(
            np.eye(3), np.array([1.0, 2.0, 3.0]), _JACOBI, np.zeros(3, bool), a
        ),
        lambda: np.array([0.1, 0.2, 0.3]),
    ),
    "CoefficientVector": (CoefficientVector, lambda: np.array([1.0, 2.0, 3.0])),
    "DualQuadric": (lambda a: DualQuadric(a, 1.0), lambda: np.diag([1.0, 2.0, 3.0, -1.0])),
    "restricted_pca": (
        lambda a: restricted_pca(_PS, a), lambda: _PS.center + np.array([1.0, -2.0, 0.5])
    ),
    "restricted_best_fit_flat": (
        lambda a: restricted_best_fit_flat(_PS, a, 1),
        lambda: _PS.center + np.array([1.0, -2.0, 0.5]),
    ),
}


def _stored_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _stored_arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _stored_arrays(getattr(value, f.name))


@pytest.mark.parametrize("build, given", OWNERSHIP_CASES.values(), ids=OWNERSHIP_CASES)
def test_values_never_freeze_or_alias_the_callers_arrays(build, given):
    a = given()
    value = build(a)
    assert a.flags.writeable
    stored = list(_stored_arrays(value))
    assert stored and not any(s.flags.writeable for s in stored)
    assert not any(np.shares_memory(s, a) for s in stored)
    kept = [s.copy() for s in stored]
    if a.dtype == bool:
        a ^= True
    else:
        a += 1.0
    assert all(np.array_equal(s, k) for s, k in zip(stored, kept))
    # a read-only view of a writeable array can still change: it is copied
    b = given()
    view = b.view()
    view.setflags(write=False)
    assert not any(np.shares_memory(s, b) for s in _stored_arrays(build(view)))


def test_read_only_arrays_are_shared_not_copied():
    pencil = build_pencil(_PS)
    assert pencil.center is _PS.center and pencil.frame is _PS.spectrum.vectors
    res = restricted_pca(_PS, _PS.center + 1.0)
    best, worst = res.flats(1)
    assert np.shares_memory(best.flat.basis, res.directions)
    assert np.shares_memory(worst.flat.basis, res.directions)
