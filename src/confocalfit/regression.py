"""Orthogonal, restricted and directional regression; restricted PCA; tests.

The unrestricted problems reduce to the eigendecomposition of the centered
inertia operator.  The restricted ones (fits constrained to pass through a
point P) are solved by the confocal pencil: the best hyperplane through P
is tangent at P to the member carrying P's largest Jacobi coordinate, and
the eigenvalues of the inertia operator recentered at P are exactly
``2 J_1 - m lambda`` over P's Jacobi coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, fdtrc

from .errors import (
    BadCovariance,
    BadDegrees,
    DirectionDegenerate,
    NonUnitMasses,
)
from .geometry import (
    FlatSubspace,
    Hyperplane,
    SymmetricOperator,
    WeightedPointSet,
    _as_vector,
    centroid,
    directional_moment,
    inertia_operator,
    require_full_rank,
    symmetric_eigen,
)
from .pencil import JacobiCoordinates, build_pencil, jacobi_coordinates

# Relative gap below which two point-inertia eigenvalues count as tied
# (point on a focal locus); tied directions are flagged, not resolved.
TIE_TOL = 1e-8


@dataclass(frozen=True)
class FitResult:
    """A fitted flat with its (mass-weighted) residual moment."""

    flat: Hyperplane | FlatSubspace
    moment: float
    role: str  # "best" or "worst"


@dataclass(frozen=True)
class RestrictedPcaResult:
    """Principal directions and moments of the inertia operator at a point.

    ``directions`` holds orthonormal eigenvector columns ordered by
    ascending moment; ``moments[i] = 2 J_1 - m * lambdas[k-1-i]``.
    """

    directions: np.ndarray
    moments: np.ndarray
    lambdas: JacobiCoordinates
    tied: np.ndarray

    def __post_init__(self) -> None:
        for name in ("directions", "moments", "tied"):
            a = np.asarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class TestReport:
    """Statistic, degrees of freedom and upper-tail probability of a test."""

    statistic: float
    df1: int
    df2: float  # math.inf for the chi-square limit
    p_value: float
    whitening: SymmetricOperator
    best_moment: float
    restricted_moment: float


def f_upper_tail(x: float, df1: int, df2: float) -> float:
    """P(F_{df1, df2} > x); ``df2 = math.inf`` uses the chi-square limit."""
    if df1 < 1:
        raise BadDegrees("df1 must be at least 1")
    if not math.isinf(df2) and df2 < 1:
        raise BadDegrees("df2 must be at least 1 or infinity")
    x = float(x)
    if x <= 0.0:
        return 1.0
    if math.isinf(df2):
        return float(chdtrc(df1, df1 * x))
    return float(fdtrc(df1, df2, x))


def best_fit_flat(ps: WeightedPointSet, ell: int) -> FitResult:
    """Unrestricted best l-dimensional flat (total-least-squares solution).

    The flat passes through the centroid, is spanned by the top l principal
    components, and its moment is the sum of the k-l smallest principal
    moments.  For l = k-1 the result is returned as a Hyperplane.
    """
    k = ps.dim
    if not 1 <= ell <= k - 1:
        raise ValueError("flat dimension must satisfy 1 <= l <= k-1")
    require_full_rank(ps)
    c, eig = ps.center, ps.spectrum
    moment = float(eig.values[: k - ell].sum())
    if ell == k - 1:
        flat: Hyperplane | FlatSubspace = Hyperplane.through(c, eig.vectors[:, 0])
    else:
        flat = FlatSubspace(c, eig.vectors[:, k - ell:])
    return FitResult(flat, moment, "best")


def restricted_pca(ps: WeightedPointSet, point) -> RestrictedPcaResult:
    """Principal directions/moments of the inertia operator recentered at ``point``."""
    require_full_rank(ps)
    p = _as_vector(point, ps.dim, "point")
    eig = symmetric_eigen(inertia_operator(ps, p))
    pencil = build_pencil(ps)
    lambdas = jacobi_coordinates(pencil, p)
    mu = eig.values
    gaps = np.diff(mu)
    tied = np.zeros(ps.dim, dtype=bool)
    close = gaps <= TIE_TOL * max(mu[-1], 1e-300)
    tied[:-1] |= close
    tied[1:] |= close
    return RestrictedPcaResult(eig.vectors, mu, lambdas, tied)


def restricted_best_fit_flat(
    ps: WeightedPointSet, point, ell: int
) -> tuple[FitResult, FitResult]:
    """Best and worst l-flats through a fixed point.

    The best flat is the intersection at P of the tangent hyperplanes to the
    members carrying P's largest k-l Jacobi coordinates; equivalently it is
    spanned by the eigenvectors of the l largest point-inertia moments.  The
    moments are ``2(k-l) J_1 - m * sum(lambda)`` over the respective index
    sets.
    """
    k = ps.dim
    if not 1 <= ell <= k - 1:
        raise ValueError("flat dimension must satisfy 1 <= l <= k-1")
    p = _as_vector(point, ps.dim, "point")
    res = restricted_pca(ps, p)
    J1 = float(ps.spectrum.values[0])
    m = ps.total_mass
    lam = res.lambdas.lambdas
    best_moment = 2 * (k - ell) * J1 - m * float(lam[ell:].sum())
    worst_moment = 2 * (k - ell) * J1 - m * float(lam[: k - ell].sum())
    if ell == k - 1:
        best_flat: Hyperplane | FlatSubspace = Hyperplane.through(
            p, res.directions[:, 0]
        )
        worst_flat: Hyperplane | FlatSubspace = Hyperplane.through(
            p, res.directions[:, -1]
        )
    else:
        best_flat = FlatSubspace(p, res.directions[:, k - ell:])
        worst_flat = FlatSubspace(p, res.directions[:, :ell])
    return (
        FitResult(best_flat, best_moment, "best"),
        FitResult(worst_flat, worst_moment, "worst"),
    )


def directional_fit(ps: WeightedPointSet, w, through=None) -> FitResult:
    """Least-squares hyperplane measured along direction ``w``.

    The normal is proportional to ``J^{-1} w`` where J is the inertia
    operator at the anchor (centroid, or ``through`` when given).  The
    reported moment is the directional moment of the returned hyperplane.
    """
    require_full_rank(ps)
    w = _as_vector(w, ps.dim, "direction")
    nw = float(np.linalg.norm(w))
    if nw == 0.0:
        raise DirectionDegenerate("direction vector is zero")
    w = w / nw
    anchor, op = ps.center, ps.centered_inertia
    if through is not None:
        through = _as_vector(through, ps.dim, "through")
        # anchoring at the centroid itself is the unrestricted problem
        if np.linalg.norm(through - anchor) > 1e-12 * ps.scale():
            anchor, op = through, inertia_operator(ps, through)
    try:
        normal = np.linalg.solve(op.entries, w)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by rank check
        raise DirectionDegenerate("inertia operator is singular") from exc
    plane = Hyperplane.through(anchor, normal)
    return FitResult(plane, directional_moment(ps, plane, w), "best")


def _inverse_sqrt(op: SymmetricOperator) -> np.ndarray:
    vals, vecs = np.linalg.eigh(op.entries)
    if np.any(vals <= 0):
        raise BadCovariance("error covariance must be positive definite")
    return (vecs / np.sqrt(vals)) @ vecs.T


def point_hypothesis_test(
    ps: WeightedPointSet, point, error_cov: SymmetricOperator
) -> TestReport:
    """Test whether the best-fit hyperplane passes through ``point``.

    Coordinates are whitened by ``error_cov^{-1/2}``; in whitened space the
    statistic is ``N/(N-k+1) * (2 lambda_kC - lambda_kP)`` over the largest
    Jacobi coordinates of the centroid and of the point, and its null law is
    F with ``(N-k+1, inf)`` degrees of freedom.
    """
    if not ps.has_unit_masses:
        raise NonUnitMasses("the test statistic assumes unit masses")
    if error_cov.dim != ps.dim:
        raise BadCovariance("error covariance has the wrong dimension")
    p = _as_vector(point, ps.dim, "point")
    white = _inverse_sqrt(error_cov)
    ps_w = WeightedPointSet(ps.coords @ white, ps.masses)
    pencil_w = build_pencil(ps_w)
    lam_c = jacobi_coordinates(pencil_w, white @ centroid(ps)).largest
    lam_p = jacobi_coordinates(pencil_w, white @ p).largest
    n, k = ps.n_points, ps.dim
    df1 = n - k + 1
    if df1 < 1:
        raise BadDegrees("need at least k points")
    statistic = n / df1 * (2 * lam_c - lam_p)
    return TestReport(
        statistic=float(statistic),
        df1=df1,
        df2=math.inf,
        p_value=f_upper_tail(statistic, df1, math.inf),
        whitening=SymmetricOperator(white),
        best_moment=float(n * lam_c),
        restricted_moment=float(n * (2 * lam_c - lam_p)),
    )


def nested_f_test(ps: WeightedPointSet, w, point) -> TestReport:
    """Nested F test of a directional fit restricted through ``point``.

    Compares the residual sums of squares of the restricted and unrestricted
    directional fits; the unrestricted hyperplane has k free parameters and
    the restricted one k-1, so the statistic is F(1, N-k) distributed.
    """
    n, k = ps.n_points, ps.dim
    df2 = n - k
    if df2 < 1:
        raise BadDegrees("need more points than parameters")
    rss2 = directional_fit(ps, w).moment
    rss1 = directional_fit(ps, w, through=point).moment
    statistic = max(rss1 - rss2, 0.0) / (rss2 / df2)
    return TestReport(
        statistic=float(statistic),
        df1=1,
        df2=float(df2),
        p_value=f_upper_tail(statistic, 1, df2),
        whitening=SymmetricOperator(np.eye(k)),
        best_moment=float(rss2),
        restricted_moment=float(rss1),
    )


__all__ = [
    "FitResult",
    "RestrictedPcaResult",
    "TestReport",
    "f_upper_tail",
    "best_fit_flat",
    "restricted_pca",
    "restricted_best_fit_flat",
    "directional_fit",
    "point_hypothesis_test",
    "nested_f_test",
]
