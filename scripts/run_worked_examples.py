#!/usr/bin/env python3
"""Reproduce the two classical worked examples end to end.

Analyzes the spleen-cell counts (restricted orthogonal regression and the
point hypothesis test at the origin) and Forbes' boiling-point data
(directional regression restricted to a target point, with the nested F
test), printing every headline quantity.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from confocalfit import (  # noqa: E402
    SymmetricOperator,
    best_fit_flat,
    build_pencil,
    directional_fit,
    nested_f_test,
    parse_dataset,
    point_hypothesis_test,
    restricted_pca,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def slope_intercept(plane):
    return -plane.normal[0] / plane.normal[1], plane.offset / plane.normal[1]


def cells_example():
    print("=== spleen-cell counts (restricted orthogonal regression) ===")
    ps = parse_dataset(str(DATA / "cells.csv"), cols=["X", "Y"]).point_set()
    c = ps.center
    op = ps.centered_inertia.entries
    pencil = build_pencil(ps)
    print(f"centroid            ({c[0]:.4f}, {c[1]:.4f})")
    print(f"inertia operator    J_xx={op[0,0]:.4f}  J_yy={op[1,1]:.4f}  J_xy={op[0,1]:.4f}")
    j1, j2 = pencil.principal_moments
    print(f"principal moments   J_1={j1:.5f}  J_2={j2:.5f}")
    slope, intercept = slope_intercept(best_fit_flat(ps, 1).flat)
    print(f"best line           y = {slope:.5f} x {intercept:+.5f}")
    print(f"pencil poles        ({pencil.poles[0]:.5f}, {pencil.poles[1]:.5f})")
    origin = np.zeros(2)
    # one Jacobi solve at the origin gives its coordinates, moments and fits
    pca = restricted_pca(ps, origin)
    lam = pca.lambdas.lambdas
    print(f"Jacobi(origin)      ({lam[0]:.4f}, {lam[1]:.5f})")
    print(f"moments at origin   ({pca.moments[0]:.6f}, {pca.moments[1]:.4f})")
    best, worst = pca.flats(1)
    print(f"restricted best     y = {slope_intercept(best.flat)[0]:.5f} x")
    print(f"restricted worst    y = {slope_intercept(worst.flat)[0]:.6f} x")
    test = point_hypothesis_test(ps, origin, SymmetricOperator(np.diag([0.25, 0.25])))
    print(f"statistic           {test.statistic:.6f}  ~ F({test.df1}, inf)")
    print(f"p-value             {test.p_value:.5f}")


def forbes_example():
    print()
    print("=== Forbes' boiling points (restricted directional regression) ===")
    ps = parse_dataset(str(DATA / "forbes.csv")).point_set()
    c = ps.center
    pencil = build_pencil(ps)
    print(f"centroid            ({c[0]:.4f}, {c[1]:.5f})")
    j1, j2 = pencil.principal_moments
    print(f"principal moments   J_1={j1:.5f}  J_2={j2:.5f}")
    vertical = directional_fit(ps, [0.0, 1.0])
    slope, intercept = slope_intercept(vertical.flat)
    print(f"vertical LS line    y = {slope:.4f} x {intercept:+.5f}   moment {vertical.moment:.9f}")
    target = np.array([201.5, 24.5])
    pca = restricted_pca(ps, target)
    lam = pca.lambdas.lambdas
    print(f"Jacobi(201.5,24.5)  ({lam[0]:.4f}, {lam[1]:.6f})")
    print(f"moments at target   ({pca.moments[0]:.6f}, {pca.moments[1]:.5f})")
    restricted = directional_fit(ps, [0.0, 1.0], through=target)
    slope, intercept = slope_intercept(restricted.flat)
    print(f"restricted line     y = {slope:.7f} x {intercept:+.7f}   moment {restricted.moment:.6f}")
    test = nested_f_test(ps, [0.0, 1.0], target)
    print(f"F statistic         {test.statistic:.5f}  ~ F({test.df1}, {int(test.df2)})")
    print(f"p-value             {test.p_value:.9f}")


if __name__ == "__main__":
    cells_example()
    forbes_example()
