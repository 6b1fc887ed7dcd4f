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

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import (
    DirectionParallel,
    NotSymmetric,
    RankDeficient,
    UsageError,
)

# Relative threshold of the full-rank ("generality") check: the smallest
# eigenvalue of the centered operator must exceed RANK_TOL times the largest.
RANK_TOL = 1e-10
_RANK_DEFICIENT = "point set lies in a hyperplane within tolerance"

# Absolute-per-scale tolerances for structural invariants.
SYMMETRY_TOL = 1e-12
UNIT_TOL = 1e-12

# Rows per block of every sum over the points (the centroid, the inertia
# operator, the moments): their temporaries stay at _BLOCK x k, and adding
# the block sums in order keeps each rounding chain to about
# _BLOCK + N / _BLOCK terms instead of N (blocked summation, as in
# Chan, Golub & LeVeque 1979).
_BLOCK = 4096


def _as_vector(x, k: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if k is not None and v.shape[0] != k:
        raise ValueError(f"{name} must have length {k}, got {v.shape[0]}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _unit(v: np.ndarray) -> np.ndarray:
    """``v / |v|`` for a nonzero ``v``, or each column of a 2-D ``v`` over its
    own length.  ``v`` is divided by its largest |component| first, so that
    the result does not depend on its scale, down to subnormal entries."""
    v = v / np.abs(v).max(axis=0)
    return v / np.hypot.reduce(v, axis=0)


def _full_rank(values: np.ndarray) -> bool:
    """The generality rule on ascending eigenvalues of a centred operator:
    the smallest exceeds ``RANK_TOL`` times the largest."""
    return bool(values[0] > RANK_TOL * max(values[-1], 0.0))


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


def _block_sum(n: int, term) -> np.ndarray:
    """``term(rows)`` summed over the consecutive row slices of ``_BLOCK`` rows
    that cover ``range(n)``, in order.  For ``n <= _BLOCK`` that is
    ``term(slice(0, _BLOCK))`` itself, the same expression over every row."""
    return reduce(operator.add, (term(slice(s, s + _BLOCK)) for s in range(0, n, _BLOCK)))


def _complement_basis(v: np.ndarray) -> np.ndarray:
    k, ell = v.shape
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(k)]))
    return q[:, ell:k]


def _canonical_sign(v: np.ndarray) -> float:
    """Sign that makes the first non-negligible component of ``v`` positive."""
    for x in v:
        if abs(x) > UNIT_TOL:
            return 1.0 if x > 0 else -1.0
    return 1.0


@dataclass(frozen=True)
class WeightedPointSet:
    """N points in R^k with positive masses (defaulting to 1 each).

    ``coords`` is an (N, k) array in sample units.  The set owns its summary,
    each value computed once on first use and read-only: ``total_mass``,
    ``has_unit_masses``, ``center`` (the centroid) with ``center_residual``
    (what rounding it lost), ``centered_inertia`` (the inertia operator about
    it), ``spectrum`` (its ``symmetric_eigen``), the pencil of
    ``build_pencil``, and the bound-free work of ``constrained_fit``: ``_ridge``
    (the eigensystem of the inertia operator about the origin) and
    ``_support_blocks`` (the lasso's principal submatrices of
    ``centered_inertia``).  Every fit and test reads these, so after the first
    only the moments read ``coords`` and ``masses``; ``offset_from_center``
    forms every P - c.  The set is *full rank* when it does not lie in any
    hyperplane, measured by ``spectrum``.
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
            raise UsageError("ambient dimension must be at least 2")
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

    @cached_property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @cached_property
    def has_unit_masses(self) -> bool:
        return bool(np.all(self.masses == 1.0))

    @cached_property
    def _centroid(self) -> tuple[np.ndarray, np.ndarray]:
        """``(center, center_residual)`` from one pass over the points, summed
        in row blocks of ``_BLOCK``: no N x k offset array is formed."""
        ref = self.coords[0]
        offset = _block_sum(
            self.n_points, lambda rows: self.masses[rows] @ (self.coords[rows] - ref)
        ) / self.total_mass
        c = ref + offset
        # TwoSum (Knuth): ref + offset == c + residual exactly
        back = c - ref
        residual = (ref - (c - back)) + (offset - back)
        c.setflags(write=False)
        residual.setflags(write=False)
        return c, residual

    @property
    def center(self) -> np.ndarray:
        """Mass-weighted mean: the first point plus the mean offset from it,
        rounded to a float vector in that final addition."""
        return self._centroid[0]

    @property
    def center_residual(self) -> np.ndarray:
        """What that final rounding lost: the centroid is ``center +
        center_residual`` to the accuracy of the mean offset, which far from
        the origin ``center`` alone misses by up to eps/2 of its size."""
        return self._centroid[1]

    def offset_from_center(self, points) -> np.ndarray:
        """``points - centroid`` for one point or an (n, k) array of them,
        taken against the unrounded centroid."""
        return _offset(points, self.center, self.center_residual)

    @cached_property
    def centered_inertia(self) -> "SymmetricOperator":
        return inertia_operator(self, self.center)

    @cached_property
    def spectrum(self) -> "EigenDecomposition":
        return symmetric_eigen(self.centered_inertia)

    @cached_property
    def is_full_rank(self) -> bool:
        return _full_rank(self.spectrum.values)

    @cached_property
    def _pencil(self):
        from .pencil import _pencil  # pencil imports this module
        return _pencil(self.center, self.center_residual, self.spectrum, self.total_mass)

    @cached_property
    def _ridge(self):
        from .regularize import _ridge_eigensystem  # regularize imports this module
        return _ridge_eigensystem(self)

    @cached_property
    def _support_blocks(self):
        from .regularize import _support_blocks
        return _support_blocks(self)


def _offset(points, center: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """``points - (center + residual)``, with the centre never rounded: the one
    rule for P - c, which ``WeightedPointSet`` and ``ConfocalPencil`` share."""
    return (np.asarray(points, dtype=float) - center) - residual


@dataclass(frozen=True)
class SymmetricOperator:
    """A k x k symmetric array (inertia/covariance operator)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.isfinite(a).all():
            raise ValueError("entries contain non-finite values")
        if np.abs(a - a.T).max() > SYMMETRY_TOL * np.abs(a).max():
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
        given = np.asarray(self.normal, dtype=float)
        if given.ndim != 1:
            raise ValueError(f"normal must be one-dimensional, got shape {given.shape}")
        i = int(np.abs(given).argmax())
        top = float(given[i])
        # argmax meets a nan or an infinity first: this is the finiteness check
        if not math.isfinite(top):
            raise ValueError("normal contains non-finite entries")
        if top == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        n = _unit(given)
        # n_i / given_i is 1/|given| for every i; the largest is the most exact
        p = float(self.offset) / top * float(n[i])
        s = _canonical_sign(n.tolist())
        n = n if s > 0 else -n
        n.setflags(write=False)  # a new array: stored as it is
        _store(self, "normal", n)
        object.__setattr__(self, "offset", s * p)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    @classmethod
    def through(cls, point, normal) -> "Hyperplane":
        point = _as_vector(point, name="point")
        normal = _as_vector(normal, point.shape[0], "normal")
        return cls(normal, float(normal @ point))

    def signed_distance(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.normal - self.offset

    def as_flat(self) -> "FlatSubspace":
        """The same hyperplane as a (k-1)-dimensional flat."""
        return FlatSubspace(self.offset * self.normal, _complement_basis(self.normal[:, None]))


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
        gram = (basis.T @ basis).tolist()
        # written so that a nan entry fails it too
        if not all(abs(g - (r == c)) <= UNIT_TOL
                   for r, row in enumerate(gram) for c, g in enumerate(row)):
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
        keep = np.abs(np.diag(r)) > 1e-13 * np.abs(cols).max()
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

def inertia_operator(ps: WeightedPointSet, origin) -> SymmetricOperator:
    """Second-moment operator about ``origin``:  sum_j m_j (r_j-O)(r_j-O)^T.

    The sum runs in row blocks of ``_BLOCK``, so its temporaries are
    ``_BLOCK`` x k however large N is."""
    origin = _as_vector(origin, ps.dim, "origin")

    def block(rows: slice) -> np.ndarray:
        d = ps.coords[rows] - origin
        return (d * ps.masses[rows, None]).T @ d

    return SymmetricOperator(_block_sum(ps.n_points, block))


def _weighted_squares(ps: WeightedPointSet, distance) -> float:
    """``sum_j m_j distance(r_j)^2`` for a row-wise ``distance``, summed in row
    blocks of ``_BLOCK``: the one rule behind every moment of a flat."""

    def block(rows: slice) -> float:
        d = distance(ps.coords[rows])
        return ps.masses[rows] @ (d * d)

    return float(_block_sum(ps.n_points, block))


def hyperplanar_moment(ps: WeightedPointSet, plane: Hyperplane) -> float:
    """Mass-weighted sum of squared point-to-hyperplane distances."""
    return _weighted_squares(ps, plane.signed_distance)


def l_planar_moment(ps: WeightedPointSet, flat: FlatSubspace) -> float:
    """Mass-weighted sum of squared distances to an l-dimensional flat.

    Distances are computed by orthogonal projection onto the flat's basis;
    for l = 1 this is the axial moment and for l = k-1 the hyperplanar one.
    """
    return _weighted_squares(ps, flat.distances)


def directional_moment(ps: WeightedPointSet, plane: Hyperplane, w) -> float:
    """Moment of deviations measured along direction ``w`` instead of orthogonally.

    Equals ``hyperplanar_moment / <w, n>^2`` where ``n`` is the plane normal.
    Raises ``DirectionParallel`` when ``w`` is (numerically) parallel to the
    plane.
    """
    w = _as_vector(w, ps.dim, "direction")
    if not w.any():
        raise DirectionParallel("direction vector is zero")
    w = _unit(w)
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
        raise RankDeficient(_RANK_DEFICIENT)
