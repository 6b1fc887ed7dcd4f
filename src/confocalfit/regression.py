"""Orthogonal, restricted and directional regression; restricted PCA; tests.

The unrestricted problems reduce to the eigendecomposition of the centered
inertia operator.  The restricted ones (fits constrained to pass through a
point P) are solved by the confocal pencil: the best hyperplane through P
is tangent at P to the member carrying P's largest Jacobi coordinate, and
the inertia operator recentered at P has eigenvalues ``2 J_1 - m lambda``
over P's Jacobi coordinates and those members' normals at P as eigenvectors.
One secular solve per point therefore answers every restricted query:
``restricted_pca(ps, P)`` holds it, and its ``flats(ell)`` gives the best
and worst l-flats through P for each l.

The point and nested F tests take their p-values from two upper tails
computed with ``math`` alone (Numerical Recipes §6.2-6.4): the chi-square
tail Q(a, x) by the series for P when x < a + 1 and otherwise by Lentz's
continued fraction for Q, and the F tail I_z(a, b) by Lentz's continued
fraction with the usual symmetry switch, the complement 1 - z taken as an
exact quotient.  Their log-prefactors are built from Stirling remainders
and log1p(t) - t (Loader 2000), which stay accurate when the degrees of
freedom are large, where differences of ``lgamma`` would cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadCovariance,
    BadFlatDimension,
    BadDegrees,
    DirectionDegenerate,
    NonUnitMasses,
    PointOutOfRange,
)
from .geometry import (
    FlatSubspace,
    Hyperplane,
    SymmetricOperator,
    WeightedPointSet,
    _as_vector,
    _canonical_sign,
    _store,
    _unit,
    require_full_rank,
    symmetric_eigen,
)
from .pencil import JacobiCoordinates, _pencil, build_pencil, jacobi_coordinates

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
    """Principal directions and moments of the inertia operator at ``point``.

    Read off the pencil: ``moments[i] = 2 J_1 - m * lambdas[k-1-i]`` and
    ``directions[:, i]`` is the matching member normal at the point
    (``lambdas.normals`` in original coordinates, canonical signs).
    ``tied`` flags moments within ``TIE_TOL`` of a neighbour.
    """

    directions: np.ndarray
    moments: np.ndarray
    lambdas: JacobiCoordinates
    tied: np.ndarray
    point: np.ndarray

    def __post_init__(self) -> None:
        for name, kind in (
            ("directions", float), ("moments", float), ("tied", bool), ("point", float)
        ):
            _store(self, name, getattr(self, name), kind)

    def flats(self, ell: int) -> tuple[FitResult, FitResult]:
        """Best and worst l-flats through ``point``.

        The best flat is spanned by the directions of the l largest moments
        and its moment is the sum of the k-l smallest; the worst flat is
        spanned by the l smallest and its moment is the sum of the k-l
        largest.  For l = k-1 both are returned as Hyperplanes.
        """
        return _flats(self.point, self.directions, self.moments, ell)


def _flats(point, directions, moments, ell: int) -> tuple[FitResult, FitResult]:
    """``RestrictedPcaResult.flats`` for ascending ``moments`` whose principal
    directions are the columns of ``directions``."""
    k = moments.shape[0]
    if not 1 <= ell <= k - 1:
        raise BadFlatDimension("flat dimension must satisfy 1 <= l <= k-1")
    if ell == k - 1:
        best: Hyperplane | FlatSubspace = Hyperplane.through(point, directions[:, 0])
        worst: Hyperplane | FlatSubspace = Hyperplane.through(point, directions[:, -1])
    else:
        best = FlatSubspace(point, directions[:, k - ell:])
        worst = FlatSubspace(point, directions[:, :ell])
    return (
        FitResult(best, float(moments[: k - ell].sum()), "best"),
        FitResult(worst, float(moments[ell:].sum()), "worst"),
    )


@dataclass(frozen=True)
class TestReport:
    """Statistic, degrees of freedom and upper-tail probability of a test."""

    statistic: float
    df1: int
    df2: float  # math.inf for the chi-square limit
    p_value: float
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
    if math.isnan(x):
        return math.nan
    if math.isinf(x):
        return 0.0
    if math.isinf(df2):
        return _chi2_tail(x, df1)
    return _f_tail(x, df1, float(df2))


# Iteration cap of every series and continued fraction below.  They need
# O(sqrt(a)) steps near x = a, so this covers degrees of freedom up to ~1e10.
_MAX_TERMS = 1_000_000
_EPS = 2.0**-53
_TINY = 1e-300
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _nonzero(v: float) -> float:
    """Lentz's guard: a denominator of exactly zero becomes a tiny one."""
    return v if abs(v) >= _TINY else _TINY


def _log1pmx(t: float, r: float) -> float:
    """log(1 + t) - t, given both t and r = 1 + t without rounding either."""
    if not -0.5 <= t <= 1.0:
        return math.log(r) - t
    # log1p(t) = 2 atanh(v) with v = t / (2 + t); the leading -t v carries
    # the cancelling t**2 / 2, so no digits are lost as t -> 0
    v = t / (2.0 + t)
    v2 = v * v
    power, total = v2, 0.0
    for j in range(1, 60):  # |v| <= 1/3: 17 terms reach rounding
        term = power / (2 * j + 1)
        total += term
        if term <= _EPS * total:  # also ends at once when t = 0
            break
        power *= v2
    return -t * v + 2.0 * v * total


def _stirling_remainder(a: float) -> float:
    """lgamma(a) - ((a - 1/2) log a - a + log(2 pi) / 2)."""
    if a < 15.0:
        return math.lgamma(a) - (a - 0.5) * math.log(a) + a - _HALF_LOG_2PI
    r = 1.0 / (a * a)
    return (1.0 / 12 - r * (1.0 / 360 - r * (1.0 / 1260 - r * (
        1.0 / 1680 - r * (1.0 / 1188 - r * 691.0 / 360360))))) / a


def _chi2_tail(x: float, df1: int) -> float:
    """P(chi2_{df1} > df1 x) = Q(a, a x) with a = df1 / 2."""
    a = 0.5 * df1
    y = a * x
    t = x - 1.0  # y / a - 1, exact for x >= 1/2
    # y^a e^-y / Gamma(a), in Stirling form
    front = math.sqrt(a / (2.0 * math.pi)) * math.exp(
        a * _log1pmx(t, x) - _stirling_remainder(a)
    )
    if y < a + 1.0:
        term = total = 1.0 / a
        ap = a
        for _ in range(_MAX_TERMS):
            ap += 1.0
            term *= y / ap
            total += term
            if term <= _EPS * total:
                break
        return 1.0 - front * total
    # Lentz's continued fraction for Q; b starts at y + 1 - a
    b = a * t + 1.0
    c, d = 1.0 / _TINY, 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / _nonzero(an * d + b)
        c = _nonzero(b + an / c)
        step = d * c
        h *= step
        if abs(step - 1.0) <= _EPS:
            break
    return front * h


def _beta_fraction(a: float, b: float, z: float, zc: float) -> float:
    """Lentz's continued fraction for I_z(a, b) (z below its mean); zc = 1 - z."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    # 1 - (a + b) z / (a + 1), formed from zc so that it does not cancel
    d = 1.0 / _nonzero((qap * zc - (b - 1.0) * z) / qap)
    c, h = 1.0, d
    for m in range(1, _MAX_TERMS):
        m2 = 2 * m
        for num in (
            m * (b - m) * z / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * z / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 / _nonzero(1.0 + num * d)
            c = _nonzero(1.0 + num / c)
            step = d * c
            h *= step
        if abs(step - 1.0) <= _EPS:
            break
    return h


def _f_tail(x: float, df1: int, df2: float) -> float:
    """P(F_{df1, df2} > x) = I_z(df2 / 2, df1 / 2) with z = df2 / (df2 + df1 x)."""
    a, b = 0.5 * df2, 0.5 * df1
    w = df1 * x
    s = df2 + w
    z, zc = df2 / s, w / s
    # z^a zc^b / B(a, b) in Stirling form: z and zc sit at 1 + t1 and
    # 1 + t2 times their means df2 / (df1 + df2) and df1 / (df1 + df2)
    u = x - 1.0
    r = (df1 + df2) / s
    log_front = (
        a * _log1pmx(-df1 * u / s, r)
        + b * _log1pmx(df2 * u / s, r * x)
        + _stirling_remainder(a + b)
        - _stirling_remainder(a)
        - _stirling_remainder(b)
    )
    front = math.sqrt(a * b / (2.0 * math.pi * (a + b))) * math.exp(log_front)
    if z < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, z, zc) / a
    return 1.0 - front * _beta_fraction(b, a, zc, z) / b


def best_fit_flat(ps: WeightedPointSet, ell: int) -> FitResult:
    """Unrestricted best l-dimensional flat (total-least-squares solution).

    The flat passes through the centroid, is spanned by the top l principal
    components, and its moment is the sum of the k-l smallest principal
    moments.  For l = k-1 the result is returned as a Hyperplane.
    """
    # a bad l is reported before a rank-deficient set
    best, _ = _flats(ps.center, ps.spectrum.vectors, ps.spectrum.values, ell)
    require_full_rank(ps)
    return best


def restricted_pca(ps: WeightedPointSet, point) -> RestrictedPcaResult:
    """Principal directions/moments of the inertia operator recentered at ``point``."""
    p = _as_vector(point, ps.dim, "point")
    pencil = build_pencil(ps)
    lambdas = jacobi_coordinates(pencil, p)
    two_j1 = 2 * float(pencil.principal_moments[0])
    mu = [two_j1 - pencil.mass * lam for lam in reversed(lambdas.lambdas.tolist())]
    if not math.isfinite(mu[-1]):
        raise PointOutOfRange("point too far out: its largest moment overflows")
    directions = pencil.frame @ lambdas.normals[:, ::-1]
    directions *= [_canonical_sign(v) for v in directions.T.tolist()]
    directions.setflags(write=False)  # a new array: the result keeps it
    close = [b - a <= TIE_TOL * mu[-1] for a, b in zip(mu, mu[1:])]
    tied = [left or right for left, right in zip([False, *close], [*close, False])]
    return RestrictedPcaResult(directions, mu, lambdas, tied, p)


def restricted_best_fit_flat(
    ps: WeightedPointSet, point, ell: int
) -> tuple[FitResult, FitResult]:
    """Best and worst l-flats through a fixed point: ``restricted_pca(ps, point).flats(ell)``.

    The best flat is the intersection at P of the tangent hyperplanes to the
    members carrying P's largest k-l Jacobi coordinates; equivalently it is
    spanned by the eigenvectors of the l largest point-inertia moments.  The
    moments are ``2(k-l) J_1 - m * sum(lambda)`` over the respective index
    sets.  Each call solves P's secular equation again: for several l at
    one point, keep ``restricted_pca(ps, point)`` and call its ``flats(ell)``,
    one solve for all of them.
    """
    return restricted_pca(ps, point).flats(ell)


def directional_fit(ps: WeightedPointSet, w, through=None) -> FitResult:
    """Least-squares hyperplane measured along direction ``w``.

    At the anchor P (centroid, or ``through`` when given) the normal is
    proportional to ``A(P)^{-1} w`` and the moment, the directional moment of
    that hyperplane, is ``1 / (w^T A(P)^{-1} w)`` for unit ``w``.  With
    ``A(c) = L L^T``, ``a = L^{-1} w``, ``b = sqrt(m) L^{-1} (P - c)`` and
    ``M = a b^T - b a^T``, ``A(P) = L (I + b b^T) L^T``: the normal is
    ``L^{-T} (a + M b)`` and the moment ``(1 + |b|^2) / (|a|^2 + |M|_F^2 / 2)``
    (Lagrange's identity).  These are sums of squares and ``A(P)`` is never
    formed, so ``A(c)`` is not rounded away however far P lies from c.
    ``w^T A(P)^{-1} w > 0``, so ``w`` never lies in the plane.
    Raises ``PointOutOfRange`` when ``4 k |b|^2``, a bound on every product
    of ``b`` formed here, or the moment overflows: ``P`` is then too far out.
    """
    require_full_rank(ps)
    w = _as_vector(w, ps.dim, "direction")
    if not w.any():
        raise DirectionDegenerate("direction vector is zero")
    w = _unit(w)
    anchor = ps.center if through is None else _as_vector(through, ps.dim, "through")
    # the rank check bounds cond(A(c)) by 1 / RANK_TOL, so the factor exists
    chol = np.linalg.cholesky(ps.centered_inertia.entries)
    a, d = np.linalg.solve(chol, np.column_stack([w, ps.offset_from_center(anchor)])).T
    reach = math.sqrt(ps.total_mass) * math.hypot(*d.tolist())  # |b|, inf or nan if it overflows
    if not math.isfinite(4.0 * ps.dim * reach * reach):
        raise PointOutOfRange("point too far out: its directional moment overflows")
    # a over its largest |component| keeps |a|^2 |b|^2 in the float range
    scale = float(np.abs(a).max())
    a, b = a / scale, math.sqrt(ps.total_mass) * d
    cross = np.outer(a, b) - np.outer(b, a)
    x = a + cross @ b
    # over a power of two, exactly: L^-T can grow |x| past the float range
    normal = _unit(np.linalg.solve(chol.T, np.ldexp(x, -np.frexp(np.abs(x).max())[1])))
    moment = float((1.0 + b @ b) / (a @ a + 0.5 * np.sum(cross * cross))) / scale / scale
    if not math.isfinite(moment):
        raise PointOutOfRange("point too far out: its directional moment overflows")
    return FitResult(Hyperplane.through(anchor, normal), moment, "best")


def point_hypothesis_test(
    ps: WeightedPointSet, point, error_cov: SymmetricOperator
) -> TestReport:
    """Test whether the best-fit hyperplane passes through ``point``.

    Coordinates are whitened by ``L^{-1}``, ``error_cov = L L^T``; in whitened
    space the statistic is ``N/(N-k+1) * (2 lambda_kC - lambda_kP)`` over the
    largest Jacobi coordinates of the centroid and of the point, and its null
    law is F with ``(N-k+1, inf)`` degrees of freedom.  The whitened set's
    centred operator is ``L^{-1} A(c) L^{-T}``, a rotation of ``W A(c) W`` for
    ``W = error_cov^{-1/2}``, and the point sits at ``L^{-1} (P - c)`` from its
    centroid, so the test reads the set's summary, not its points.
    """
    if not ps.has_unit_masses:
        raise NonUnitMasses("the test statistic assumes unit masses")
    if error_cov.dim != ps.dim:
        raise BadCovariance("error covariance has the wrong dimension")
    p = _as_vector(point, ps.dim, "point")
    try:
        chol = np.linalg.cholesky(error_cov.entries)
    except np.linalg.LinAlgError as exc:
        raise BadCovariance("error covariance must be positive definite") from exc
    half = np.linalg.solve(chol, ps.centered_inertia.entries)
    spectrum_w = symmetric_eigen(SymmetricOperator(np.linalg.solve(chol, half.T)))
    origin = np.zeros(ps.dim)
    pencil_w = _pencil(origin, origin, spectrum_w, ps.total_mass)
    lam_c = float(pencil_w.poles[0])  # the centroid's largest Jacobi coordinate, J_1/m
    white_p = np.linalg.solve(chol, ps.offset_from_center(p))
    lam_p = jacobi_coordinates(pencil_w, white_p).largest
    n, k = ps.n_points, ps.dim
    df1 = n - k + 1
    statistic = n / df1 * (2 * lam_c - lam_p)
    return TestReport(
        statistic=float(statistic),
        df1=df1,
        df2=math.inf,
        p_value=f_upper_tail(statistic, df1, math.inf),
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
