"""Weighted point clouds, inertia operators and moments of every rank.

A sample of ``N`` points in R^k with positive masses is the basic object.
All second-order information lives in the symmetric "hyperplanar" inertia
operator ``A(O) = sum_j m_j (r_j - O)(r_j - O)^T``: the moment of a
hyperplane through ``O`` with unit normal ``n`` is ``n^T A(O) n``, and the
moment of an l-dimensional flat is the trace of ``A`` over the orthogonal
complement of the flat.  Everything here is a pure function over immutable
values; nothing mutates shared state.

Every value owns read-only arrays, set through ``_store``: an input that is
read-only and views only read-only memory is shared; any other input is
copied, so no array a caller passes in is ever frozen, and no array the
caller can still write to is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DirectionParallel,
    NotSymmetric,
    RankDeficient,
)

# Relative threshold of the full-rank ("generality") check: the smallest
# eigenvalue of the centered operator must exceed RANK_TOL times the largest.
RANK_TOL = 1e-10

# Absolute-per-scale tolerances for structural invariants.
SYMMETRY_TOL = 1e-12
UNIT_TOL = 1e-12


def _as_vector(x, k: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if k is not None and v.shape[0] != k:
        raise ValueError(f"{name} must have length {k}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _store(obj, name: str, value, dtype=float) -> np.ndarray:
    """Set the field ``name`` of a frozen value to a read-only array of ``value``.

    A read-only array of the right dtype whose base array, if any, is
    read-only too is kept as it is; anything else is copied and the copy
    frozen.  Never freeze an array in place here: it may be the caller's.
    """
    if not (
        isinstance(value, np.ndarray)
        and value.dtype == dtype
        and not value.flags.writeable
        and not (isinstance(value.base, np.ndarray) and value.base.flags.writeable)
    ):
        value = np.array(value, dtype=dtype)
        value.setflags(write=False)
    object.__setattr__(obj, name, value)
    return value


def _canonical_sign(v: np.ndarray, tol: float = UNIT_TOL) -> float:
    """Sign that makes the first non-negligible component of ``v`` positive."""
    for x in v:
        if abs(x) > tol:
            return 1.0 if x > 0 else -1.0
    return 1.0


@dataclass(frozen=True)
class WeightedPointSet:
    """N points in R^k with positive masses (defaulting to 1 each).

    ``coords`` is an (N, k) array in sample units.  The set owns its centered
    spectrum, computed once on first use and read-only: ``center`` (the
    centroid), ``centered_inertia`` (the inertia operator about it) and
    ``spectrum`` (that operator's ``symmetric_eigen``).  Every fit, the
    pencil and the full-rank check read these instead of recomputing them.
    The set is *full rank* when it does not lie in any hyperplane, measured
    by ``spectrum``.
    """

    coords: np.ndarray
    masses: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        coords = _store(self, "coords", self.coords)
        if coords.ndim != 2:
            raise ValueError("coords must be an (N, k) array")
        n, k = coords.shape
        if n < 1:
            raise ValueError("need at least one point")
        if k < 2:
            raise ValueError("ambient dimension must be at least 2")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords contain non-finite entries")
        masses = _store(self, "masses", np.ones(n) if self.masses is None else self.masses)
        if masses.shape != (n,):
            raise ValueError("masses must be a length-N vector")
        if not np.all(np.isfinite(masses)) or np.any(masses <= 0):
            raise ValueError("masses must be positive and finite")

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def has_unit_masses(self) -> bool:
        return bool(np.all(self.masses == 1.0))

    @cached_property
    def center(self) -> np.ndarray:
        """Mass-weighted mean, summed as offsets from the first point (exact far out)."""
        ref = self.coords[0]
        c = ref + self.masses @ (self.coords - ref) / self.total_mass
        c.setflags(write=False)
        return c

    @cached_property
    def centered_inertia(self) -> "SymmetricOperator":
        return inertia_operator(self, self.center)

    @cached_property
    def spectrum(self) -> "EigenDecomposition":
        return symmetric_eigen(self.centered_inertia)

    @cached_property
    def is_full_rank(self) -> bool:
        vals = self.spectrum.values
        return bool(vals[0] > RANK_TOL * max(vals[-1], 0.0))


@dataclass(frozen=True)
class SymmetricOperator:
    """A k x k symmetric array (inertia/covariance operator)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        scale = max(1.0, float(np.abs(a).max()))
        if np.abs(a - a.T).max() > SYMMETRY_TOL * scale:
            raise NotSymmetric("operator is not symmetric within tolerance")
        _store(self, "entries", 0.5 * (a + a.T))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def quadratic_form(self, v) -> float:
        v = _as_vector(v, self.dim)
        return float(v @ self.entries @ v)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        _store(self, "values", self.values)
        _store(self, "vectors", self.vectors)


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : <normal, x> = offset} with a canonicalized unit normal.

    The stored normal has unit length and its first non-negligible component
    is positive, so equal hyperplanes compare equal.
    """

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        n = _as_vector(self.normal, name="normal")
        norm = float(np.linalg.norm(n))
        if norm == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        n = n / norm
        p = float(self.offset) / norm
        s = _canonical_sign(n)
        _store(self, "normal", s * n)
        object.__setattr__(self, "offset", s * p)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    @classmethod
    def through(cls, point, normal) -> "Hyperplane":
        point = _as_vector(point)
        normal = _as_vector(normal, point.shape[0])
        return cls(normal, float(normal @ point))

    def signed_distance(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.normal - self.offset

    def as_flat(self) -> "FlatSubspace":
        """The same hyperplane as a (k-1)-dimensional flat."""
        k = self.dim
        q, _ = np.linalg.qr(np.column_stack([self.normal.reshape(k, 1), np.eye(k)]))
        return FlatSubspace(self.offset * self.normal, q[:, 1:k])


@dataclass(frozen=True)
class FlatSubspace:
    """An affine l-dimensional plane: base point plus an orthonormal basis.

    ``basis`` holds l orthonormal columns, 1 <= l <= k-1.
    """

    base_point: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        p = _store(self, "base_point", _as_vector(self.base_point, name="base_point"))
        basis = _store(self, "basis", self.basis)
        if basis.ndim != 2 or basis.shape[0] != p.shape[0]:
            raise ValueError("basis must be a (k, l) array of columns")
        k, ell = basis.shape
        if not 1 <= ell <= k - 1:
            raise ValueError("flat dimension must satisfy 1 <= l <= k-1")
        gram = basis.T @ basis
        if np.abs(gram - np.eye(ell)).max() > UNIT_TOL:
            raise ValueError("basis columns must be orthonormal")

    @property
    def dim(self) -> int:
        return self.base_point.shape[0]

    @property
    def flat_dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def spanned_by(cls, point, vectors) -> "FlatSubspace":
        """Build a flat from a point and (possibly non-orthonormal) spanning vectors."""
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        if v.shape[0] == len(np.asarray(point)):
            cols = v
        else:
            cols = v.T
        q, r = np.linalg.qr(cols)
        keep = np.abs(np.diag(r)) > 1e-13 * max(1.0, np.abs(cols).max())
        return cls(np.asarray(point, dtype=float), q[:, keep])

    def distances(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diff = pts - self.base_point
        # the residual itself, not |diff|^2 - |inside|^2, which cancels when
        # the base point is far from the points
        resid = diff - (diff @ self.basis) @ self.basis.T
        return np.sqrt(np.einsum("ij,ij->i", resid, resid))


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def centroid(ps: WeightedPointSet) -> np.ndarray:
    """Mass-weighted mean (read-only; cached on the point set)."""
    return ps.center


def inertia_operator(ps: WeightedPointSet, origin) -> SymmetricOperator:
    """Second-moment operator about ``origin``:  sum_j m_j (r_j-O)(r_j-O)^T."""
    origin = _as_vector(origin, ps.dim, "origin")
    d = ps.coords - origin
    return SymmetricOperator((d * ps.masses[:, None]).T @ d)


def hyperplanar_moment(ps: WeightedPointSet, plane: Hyperplane) -> float:
    """Mass-weighted sum of squared point-to-hyperplane distances."""
    r = plane.signed_distance(ps.coords)
    return float(ps.masses @ (r * r))


def l_planar_moment(ps: WeightedPointSet, flat: FlatSubspace) -> float:
    """Mass-weighted sum of squared distances to an l-dimensional flat.

    Distances are computed by orthogonal projection onto the flat's basis;
    for l = 1 this is the axial moment and for l = k-1 the hyperplanar one.
    """
    d = flat.distances(ps.coords)
    return float(ps.masses @ (d * d))


def axial_moment(ps: WeightedPointSet, line: FlatSubspace) -> float:
    """Moment about a line; convenience alias of the l = 1 planar moment."""
    if line.flat_dim != 1:
        raise ValueError("axial moment requires a one-dimensional flat")
    return l_planar_moment(ps, line)


def directional_moment(ps: WeightedPointSet, plane: Hyperplane, w) -> float:
    """Moment of deviations measured along direction ``w`` instead of orthogonally.

    Equals ``hyperplanar_moment / <w, n>^2`` where ``n`` is the plane normal.
    Raises ``DirectionParallel`` when ``w`` is (numerically) parallel to the
    plane.
    """
    w = _as_vector(w, ps.dim, "direction")
    nw = float(np.linalg.norm(w))
    if nw == 0.0:
        raise DirectionParallel("direction vector is zero")
    w = w / nw
    cos = float(w @ plane.normal)
    if abs(cos) < 1e-12:
        raise DirectionParallel("direction lies in the hyperplane")
    return hyperplanar_moment(ps, plane) / cos**2


def symmetric_eigen(op: SymmetricOperator) -> EigenDecomposition:
    """Eigendecomposition of a symmetric operator, ascending eigenvalues.

    Eigenvector signs are canonicalized (first non-negligible component
    positive) to match the Hyperplane convention.
    """
    vals, vecs = np.linalg.eigh(op.entries)
    for i in range(vecs.shape[1]):
        vecs[:, i] *= _canonical_sign(vecs[:, i])
    return EigenDecomposition(vals, vecs)


def require_full_rank(ps: WeightedPointSet) -> None:
    if not ps.is_full_rank:
        raise RankDeficient("point set lies in a hyperplane within tolerance")
