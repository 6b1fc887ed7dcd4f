"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from confocalfit import (
    FlatSubspace,
    Ray,
    SymmetricOperator,
    WeightedPointSet,
    best_fit_flat,
    build_pencil,
    caustics_of_flat,
    constrained_fit,
    directional_fit,
    higher_axial_moments,
    hyperplanar_moment,
    inertia_operator,
    jacobi_coordinates,
    joachimsthal_2d,
    l_planar_moment,
    moment_via_caustics,
    nested_f_test,
    point_hypothesis_test,
    restricted_best_fit_flat,
    restricted_pca,
    symmetric_eigen,
    tangent_hyperplane,
    tangent_moment,
    thread_slice,
    trajectory,
)

from conftest import CELLS_XY, FORBES_XY, gram_moment, random_point_set, random_unit_vector
from test_billiards import audin_holds, interior_ray
from test_pencil import sample_point_on_member
from test_regularize import polar_grid_minimum, unconstrained_u


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def rel(actual, expected, tol=1e-3):
    assert actual == pytest.approx(expected, rel=tol), (actual, expected)


def line_of(fit):
    plane = fit.flat
    return -plane.normal[0] / plane.normal[1], plane.offset / plane.normal[1]


def test_criterion_1_cells_end_to_end():
    with criterion(1, "cells example end-to-end"):
        start = time.perf_counter()
        ps = WeightedPointSet(CELLS_XY)
        c = ps.center
        op = inertia_operator(ps, c)
        pencil = build_pencil(ps)
        best = best_fit_flat(ps, 1)
        worst = restricted_best_fit_flat(ps, c, 1)[1]
        jc = jacobi_coordinates(pencil, [0.0, 0.0])
        pca = restricted_pca(ps, [0.0, 0.0])
        rbest, rworst = restricted_best_fit_flat(ps, [0.0, 0.0], 1)
        test = point_hypothesis_test(
            ps, [0.0, 0.0], SymmetricOperator(np.diag([0.25, 0.25]))
        )
        elapsed = time.perf_counter() - start

        rel(c[0], 12.7374)
        rel(c[1], 3.5748)
        rel(op.entries[0, 0], 47.7937)
        rel(op.entries[1, 1], 18.1021)
        rel(op.entries[0, 1], 28.6318)
        rel(pencil.principal_moments[0], 0.69605)
        rel(pencil.principal_moments[1], 65.19978)
        slope, intercept = line_of(best)
        rel(slope, 0.60793)
        rel(intercept, -4.16865)
        slope, intercept = line_of(worst)
        rel(slope, -1.64493)
        rel(intercept, 24.52689)
        rel(pencil.poles[0], 0.13921)
        rel(pencil.poles[1], -12.76154)
        rel(jc.lambdas[0], -186.907)
        rel(jc.lambdas[1], -0.73589)
        rel(pca.moments[0], 5.071564)
        rel(pca.moments[1], 935.9271)
        slope, intercept = line_of(rbest)
        rel(slope, 0.30014)
        assert abs(intercept) < 1e-9
        slope, _ = line_of(rworst)
        rel(slope, -3.331376)
        rel(test.statistic, 5.071564)
        assert test.p_value == pytest.approx(0.00043, abs=2e-5)
        assert elapsed < 0.1, f"runtime {elapsed:.3f}s"


def test_criterion_2_forbes_end_to_end():
    with criterion(2, "Forbes example end-to-end"):
        start = time.perf_counter()
        ps = WeightedPointSet(FORBES_XY)
        c = ps.center
        op = inertia_operator(ps, c)
        pencil = build_pencil(ps)
        vertical = directional_fit(ps, [0.0, 1.0])
        jc = jacobi_coordinates(pencil, [201.5, 24.5])
        pca = restricted_pca(ps, [201.5, 24.5])
        restricted = directional_fit(ps, [0.0, 1.0], through=[201.5, 24.5])
        ftest = nested_f_test(ps, [0.0, 1.0], [201.5, 24.5])
        elapsed = time.perf_counter() - start

        rel(c[0], 202.9529)
        rel(c[1], 25.05882)
        rel(op.entries[0, 0], 530.78235)
        rel(op.entries[1, 1], 145.93778)
        rel(op.entries[0, 1], 277.54206)
        rel(pencil.principal_moments[0], 0.63839)
        rel(pencil.principal_moments[1], 676.08147)
        slope, intercept = line_of(vertical)
        rel(slope, 0.5228)
        rel(intercept, -81.06373)
        rel(vertical.moment, 0.813143014)
        rel(pencil.poles[0], 0.037552)
        rel(pencil.poles[1], -39.69441)
        rel(jc.lambdas[0], -42.0876)
        rel(jc.lambdas[1], 0.007398)
        rel(pca.moments[0], 1.151006)
        rel(pca.moments[1], 716.76559)
        slope, intercept = line_of(restricted)
        rel(slope, 0.5141352)
        rel(intercept, -79.0982450)
        rel(restricted.moment, 1.455877)
        rel(ftest.statistic, 11.85647)
        assert ftest.p_value == pytest.approx(0.003621119, abs=1e-5)
        assert elapsed < 0.1, f"runtime {elapsed:.3f}s"


def test_criterion_3_envelope_constancy():
    with criterion(3, "envelope constancy over 50 random datasets"):
        rng = np.random.default_rng(300)
        for trial in range(50):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k + 1, 41))
            ps = random_point_set(rng, k, n=n)
            pencil = build_pencil(ps)
            poles = pencil.poles
            spread = poles[0] - poles[-1]
            # one deep ellipsoid level, all hyperboloid bands, then shallow
            # ellipsoid levels to fill five
            levels = [poles[-1] - 2.0 * spread]
            levels += [0.5 * (poles[i + 1] + poles[i]) for i in range(k - 1)]
            levels += [poles[-1] - f * spread for f in (1.2, 0.6, 0.3)]
            for lam in levels[:5]:
                member = pencil.member(float(lam))
                expected = tangent_moment(pencil, float(lam))
                for _ in range(20):
                    point = sample_point_on_member(member, rng)
                    plane = tangent_hyperplane(member, point)
                    moment = hyperplanar_moment(ps, plane)
                    assert moment == pytest.approx(expected, rel=1e-9)


def test_criterion_4_duality_and_optimality():
    with criterion(4, "point-inertia duality and restricted optimality"):
        rng = np.random.default_rng(400)
        checked = 0
        while checked < 100:
            k = int(rng.integers(2, 5))
            ps = random_point_set(rng, k)
            pencil = build_pencil(ps)
            j1, m = float(pencil.principal_moments[0]), pencil.mass
            for _ in range(10):
                point = ps.center + rng.normal(size=k) * 3
                lam = jacobi_coordinates(pencil, point).lambdas
                mu = symmetric_eigen(inertia_operator(ps, point)).values
                assert np.allclose(2 * j1 - m * lam[::-1], mu, rtol=1e-9)
                checked += 1
        # the restricted best hyperplane beats 1000 random hyperplanes
        for k in (2, 3, 4):
            ps = random_point_set(rng, k)
            point = ps.center + rng.normal(size=k) * 2
            best, worst = restricted_best_fit_flat(ps, point, k - 1)
            normals = rng.normal(size=(1000, k))
            normals /= np.linalg.norm(normals, axis=1)[:, None]
            offsets = normals @ point
            signed = ps.coords @ normals.T - offsets  # (n, 1000)
            moments = ps.masses @ signed**2
            assert best.moment <= moments.min() * (1 + 1e-12)
            assert worst.moment >= moments.max() * (1 - 1e-12)


def test_criterion_5_caustic_suite():
    with criterion(5, "caustic equivalence and billiard conservation"):
        rng = np.random.default_rng(500)
        ps = random_point_set(rng, 3)
        pencil = build_pencil(ps)
        for _ in range(100):
            line = FlatSubspace(
                ps.center + rng.normal(size=3) * 3,
                random_unit_vector(rng, 3)[:, None],
            )
            caustics = caustics_of_flat(pencil, line).lambdas
            assert audin_holds(pencil.poles, caustics)
            assert moment_via_caustics(pencil, line) == pytest.approx(
                l_planar_moment(ps, line), rel=1e-8
            )
        # 50-bounce 3D trajectory conserves caustics and higher moments
        member = pencil.member(float(pencil.poles[-1] - 0.8 * pencil.focal_scale() ** 2))
        rays = [Ray(*row) for row in trajectory(member, interior_ray(pencil, member, rng), 50)]
        base = caustics_of_flat(pencil, rays[0].line()).lambdas
        base_hm = higher_axial_moments(pencil, rays[0])
        scale = max(1.0, float(np.abs(base).max()))
        for ray in rays[1:]:
            lam = caustics_of_flat(pencil, ray.line()).lambdas
            assert np.abs(lam - base).max() <= 1e-8 * scale
            hm = higher_axial_moments(pencil, ray)
            assert np.allclose(hm, base_hm, rtol=1e-8)
        # 50-bounce 2D trajectory conserves the Joachimsthal value
        ps2 = random_point_set(rng, 2)
        pencil2 = build_pencil(ps2)
        member2 = pencil2.member(float(pencil2.poles[-1] - pencil2.focal_scale() ** 2))
        rays2 = trajectory(member2, interior_ray(pencil2, member2, rng), 50)
        values = [joachimsthal_2d(member2, Ray(p, d))[0] for p, d in rays2]
        assert np.ptp(values) <= 1e-8 * max(1.0, np.abs(values).max())


def test_criterion_6_regularization_oracle():
    with criterion(6, "regularization matches the polar-grid oracle"):
        rng = np.random.default_rng(600)
        for trial in range(20):
            ps = random_point_set(rng, 2, n=14, unit_masses=True, spread=[1.8, 0.6])
            ustar = unconstrained_u(ps)
            for norm in ("l2", "l1"):
                size = (
                    np.linalg.norm(ustar) if norm == "l2" else np.abs(ustar).sum()
                )
                moments = []
                for frac in (0.1, 0.25, 0.45, 0.7, 0.9):
                    fit = constrained_fit(ps, norm, bound=float(frac * size))
                    oracle = polar_grid_minimum(ps, norm, float(frac * size))
                    assert fit.moment == pytest.approx(oracle, rel=1e-3)
                    moments.append(fit.moment)
                assert all(a >= b for a, b in zip(moments, moments[1:]))


def test_criterion_7_l_planar_suite():
    with criterion(7, "l-planar Gram oracle and principal-flat identity"):
        rng = np.random.default_rng(700)
        for trial in range(50):
            ps = random_point_set(rng, 4)
            ell = trial % 3 + 1
            base = ps.center + rng.normal(size=4)
            basis, _ = np.linalg.qr(rng.normal(size=(4, ell)))
            flat = FlatSubspace(base, basis[:, :ell])
            assert l_planar_moment(ps, flat) == pytest.approx(
                gram_moment(ps, base, flat.basis), rel=1e-9
            )
        # principal coordinate flats carry the complementary moment sums
        ps = random_point_set(rng, 4)
        c = ps.center
        eig = symmetric_eigen(inertia_operator(ps, c))
        for axes in [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (0, 3), (0, 1, 2), (1, 2, 3)]:
            flat = FlatSubspace(c, eig.vectors[:, list(axes)])
            expected = float(eig.values[[i for i in range(4) if i not in axes]].sum())
            assert l_planar_moment(ps, flat) == pytest.approx(expected, rel=1e-10)


def test_criterion_8_thread_construction():
    with criterion(8, "thread construction sweeps the ellipsoid"):
        semi = (10.0, 8.0, 2.0)
        for theta in np.linspace(0.0, np.pi / 2, 9):
            points = thread_slice(semi, float(theta), 10_000)
            residual = (
                points[:, 0] ** 2 / 10.0
                + points[:, 1] ** 2 / 8.0
                + points[:, 2] ** 2 / 2.0
                - 1.0
            )
            assert np.abs(residual).max() < 1e-10
