"""Ridge- and lasso-type regularization of orthogonal least squares.

A hyperplane ``{x : <u, x> = 1}`` is encoded by its tangential coefficients
``u`` (planes through the origin are outside this gauge; shift the data if
needed), and its mass-weighted orthogonal residual

    f(u) = sum_j m_j (<u, r_j> - 1)^2 / ||u||^2

is minimized subject to an L1 or L2 bound on ``u``.  The planes of one
residual level form a quadric in tangential coordinates, and the levels a
linear pencil dual to the confocal family.  The regularized plane is where
the bound's level set touches that pencil; ``constrained_fit`` solves for it.

The bounds are usually a path: one cloud, many bounds.  Everything no bound
enters (the ridge's eigensystem, the lasso's principal submatrices) is
computed once per point set and kept on it, so each further bound pays only
its own secular equation or face scores.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundTooSmall, L1DimensionTooLarge, NoEnvelope, UsageError, ZeroVector
from .geometry import Hyperplane, WeightedPointSet, _as_vector, _store, hyperplanar_moment
from .pencil import ConfocalPencil

# The L1 solver scores all 3^k - 1 faces of the cube: one eigh per face of two
# or more coordinates.  At k = 10 a call takes about 0.3 s on a 2-core VM.
L1_MAX_DIM = 10

# Largest float whose square is finite.
_ROOT_MAX = math.sqrt(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CoefficientVector:
    """Tangential coefficients of the hyperplane {x : <u, x> = 1}."""

    u: np.ndarray

    def __post_init__(self) -> None:
        u = _as_vector(self.u, name="coefficients")
        if not u.any():
            raise ZeroVector("coefficient vector must be nonzero")
        _store(self, "u", u)

    def hyperplane(self) -> Hyperplane:
        return Hyperplane(self.u, 1.0)


@dataclass(frozen=True)
class DualQuadric:
    """Homogeneous tangential form of one residual level.

    A hyperplane ``{x : <v, x> = c}`` has hyperplanar moment equal to
    ``moment`` exactly when its tangential coordinates ``t = (v, c)``
    annihilate the symmetric (k+1)-form ``matrix``.
    """

    matrix: np.ndarray
    moment: float

    def __post_init__(self) -> None:
        _store(self, "matrix", self.matrix)

    def residual(self, plane: Hyperplane | CoefficientVector) -> float:
        """Scale-free violation |t^T M t| / (||M|| ||t||^2)."""
        if isinstance(plane, CoefficientVector):
            t = np.append(plane.u, 1.0)
        else:
            t = np.append(plane.normal, plane.offset)
        raw = float(t @ self.matrix @ t)
        return abs(raw) / (float(np.linalg.norm(self.matrix)) * float(t @ t))


@dataclass(frozen=True)
class RegularizedFit:
    """Solution of a bounded-coefficient orthogonal regression."""

    coefficients: CoefficientVector
    moment: float
    norm: str
    bound: float
    active: bool
    zero_coordinates: tuple[int, ...]


def moment_of_coefficients(ps: WeightedPointSet, u: CoefficientVector) -> float:
    """``f(u)``: the ``hyperplanar_moment`` of ``u.hyperplane()``, whose unit
    normal and offset 1/|u| are formed without squaring ``u``."""
    return hyperplanar_moment(ps, u.hyperplane())


def dual_quadric(pencil: ConfocalPencil, j_pi: float) -> DualQuadric:
    """Tangential form of the envelope at moment level ``j_pi``.

    In the centered principal frame a plane ``<v~, x~> = c~`` is tangent to
    the envelope iff ``sum_i sigma_i v~_i^2 = c~^2`` with
    ``sigma_i = (j_pi - J_i)/m``; this is homogenized and pushed back to the
    original frame.  Raises ``NoEnvelope`` below the attainable minimum.
    """
    J = pencil.principal_moments
    j_pi = float(j_pi)
    if j_pi < J[0] - 1e-12 * max(float(J[-1]), abs(j_pi)):
        raise NoEnvelope("no hyperplane attains a moment below J_1")
    sigma = (j_pi - J) / pencil.mass
    frame = pencil.frame
    c = pencil.center
    k = pencil.dim
    top = (frame * sigma) @ frame.T - np.outer(c, c)
    m = np.zeros((k + 1, k + 1))
    m[:k, :k] = top
    m[:k, k] = c
    m[k, :k] = c
    m[k, k] = -1.0
    return DualQuadric(m, j_pi)


# ---------------------------------------------------------------------------
# Constrained fits
# ---------------------------------------------------------------------------

def _reflected_eigh(s: np.ndarray, w: np.ndarray):
    """Eigensystem of ``S + w w^T`` (batched) in the frame of the Householder
    reflection ``h`` with ``h w = r e_1``.  There ``w`` only adds ``|w|^2`` to
    one diagonal entry, so a huge ``w`` (data far from the origin) cannot
    round ``S`` away.  The norms and the reflection are formed from ``w``
    over a power of two just above its largest |entry|, an exact scaling
    that the reflection does not depend on, so a tiny ``w`` (a large L1
    bound) does not underflow.  Returns ``(vals, vecs, h, r)``."""
    scale = np.ldexp(1.0, np.frexp(np.abs(w).max(axis=-1))[1])
    u = w / scale[..., None]
    size = np.linalg.norm(u, axis=-1)
    r = np.where(u[..., 0] < 0, size, -size)
    u[..., 0] -= r
    u /= np.maximum(np.linalg.norm(u, axis=-1, keepdims=True), np.finfo(float).tiny)
    h = np.eye(w.shape[-1]) - 2.0 * u[..., :, None] * u[..., None, :]
    a = h @ s @ h
    a[..., 0, 0] += (size * scale) ** 2
    return *np.linalg.eigh(a), h, r * scale


def _ridge_eigensystem(ps: WeightedPointSet):
    """``(vals, vecs, h, r)`` of ``_reflected_eigh(S, sqrt(m) c)``: the
    eigensystem of A(0) = S + m c c^T, which no bound enters, with read-only
    arrays and ``r`` a float.  ``WeightedPointSet._ridge`` keeps it."""
    vals, vecs, h, r = _reflected_eigh(
        ps.centered_inertia.entries, np.sqrt(ps.total_mass) * ps.center
    )
    for array in (vals, vecs, h):
        array.setflags(write=False)
    return vals, vecs, h, float(r)


@functools.lru_cache(maxsize=L1_MAX_DIM)
def _faces(k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``(supports, signs)`` per support size 2..k, read-only: the supports
    ``T`` as rows of coordinate indices and the sign patterns ``sigma`` of
    one support, in ``itertools`` order.  They depend on k alone."""
    tables = []
    for size in range(2, k + 1):
        supports = np.array(list(itertools.combinations(range(k), size)))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=size)))
        supports.setflags(write=False)
        signs.setflags(write=False)
        tables.append((supports, signs))
    return tuple(tables)


def _support_blocks(ps: WeightedPointSet) -> tuple[np.ndarray, ...]:
    """``S_TT`` for every support ``T`` of two or more coordinates, one
    read-only (supports, size, size) stack per size, in ``_faces`` order:
    2^k - k - 1 blocks, bound-free.  ``WeightedPointSet._support_blocks``
    keeps them."""
    s = ps.centered_inertia.entries
    stacks = []
    for supports, _ in _faces(ps.dim):
        stack = s[supports[:, :, None], supports[:, None, :]]
        stack.setflags(write=False)
        stacks.append(stack)
    return tuple(stacks)


def _ridge_normal(ps: WeightedPointSet, bound: float) -> np.ndarray:
    """Unit ``n`` minimizing ``n^T A n - 2 <g, n>``, ``A = S + m c c^T``, ``g = m c / bound``.

    With ``t = L_1 - mu`` for the least eigenvalue ``L_1`` of ``A`` and ``d_i =
    L_i - L_1``, the stationary point ``(A - mu I) n = g`` has unit length where
    ``sum_i g~_i^2 / (d_i + t)^2 = 1`` (Gander, Golub and von Matt).  Newton's
    method on ``1/||n(t)|| - 1``, concave in ``t``, climbs monotonically to the
    root (More and Sorensen).  In the hard case, ``g~_1 = 0`` and ``||n(0)|| <=
    1``, the bottom eigenvector makes up the missing length.  ``A``'s
    eigensystem is the set's ``_ridge``; the secular equation runs on floats.
    """
    vals, vecs, h, r = ps._ridge
    g = math.sqrt(ps.total_mass) * r / bound  # h g = g e_1
    lam, first = vals.tolist(), vecs[0].tolist()
    # a coordinate with g~_i = 0 drops out (all of them when c = 0)
    live = [i for i, v in enumerate(first) if v * g != 0.0]
    gt = [first[i] * g for i in live]
    d = [lam[i] - lam[0] for i in live]
    t = max([0.0] + [abs(x) - y for x, y in zip(gt, d)])  # ||n(t)|| >= 1 up to here
    if t == 0.0:
        q = [x / y for x, y in zip(gt, d)]
        nn = sum(v * v for v in q)
        if nn <= 1.0:
            n = vecs[:, live] @ q
            return h @ (n + math.sqrt(max(0.0, 1.0 - float(n @ n))) * vecs[:, 0])
    for _ in range(100):
        q = [x / (y + t) for x, y in zip(gt, d)]
        nn = sum(v * v for v in q)
        step = nn * (math.sqrt(nn) - 1.0) / sum(v * (v / (y + t)) for v, y in zip(q, d))
        if not step > 4 * _EPS * t:
            break
        t += step
    n = vecs[:, live] @ [x / (y + t) for x, y in zip(gt, d)]
    return h @ n / np.linalg.norm(n)


def _lasso_normal(ps: WeightedPointSet, bound: float) -> np.ndarray:
    """Unit ``n`` minimizing ``n^T S n + m (<n, c> - ||n||_1 / bound)^2``.

    On the face of the cube with support ``T`` and signs ``sigma`` this is the
    quadratic form of ``S_TT + m w w^T``, ``w = sigma / bound - c_T``, so the
    face's one candidate is its bottom eigenvector, kept if its signs match
    ``sigma``.  A one-coordinate face scores ``S_ii + m w^2`` with ``n =
    sigma e_i``; larger supports take one batched ``eigh`` per size over the
    set's ``_support_blocks``.  Ties go to the smaller support.
    """
    c, s = ps.center, ps.centered_inertia.entries
    root_m = np.sqrt(ps.total_mass)
    w = root_m * (np.array([1.0, -1.0]) / bound - c[:, None])  # faces sigma e_i
    score = np.diagonal(s)[:, None] + w * w
    i, j = divmod(int(np.argmin(score)), 2)
    best, best_n = score[i, j], np.zeros(ps.dim)
    best_n[i] = (1.0, -1.0)[j]
    for (supports, signs), blocks in zip(_faces(ps.dim), ps._support_blocks):
        w = root_m * (signs / bound - c[supports][:, None, :])
        vals, vecs, h, _ = _reflected_eigh(blocks[:, None], w)
        v = (h @ vecs[..., :1])[..., 0] * signs
        score = np.where(np.all(v > 0, axis=-1) | np.all(v < 0, axis=-1), vals[..., 0], np.inf)
        i, j = divmod(int(np.argmin(score)), len(signs))
        if score[i, j] < best:
            best, best_n = score[i, j], np.zeros(ps.dim)
            best_n[supports[i]] = np.abs(v[i, j]) * signs[j]
    return best_n


def constrained_fit(ps: WeightedPointSet, norm: str, bound: float) -> RegularizedFit:
    """Minimize the orthogonal residual subject to ``||u||_norm <= bound``.

    The plane ``{<n, x> = p}`` (unit ``n``, ``u = n/p``) has moment ``n^T S n
    + m (<n, c> - p)^2`` for the scatter ``S`` about the centroid ``c`` and
    total mass ``m``, and meets the bound iff ``p >= ||n||_q / bound``.  The
    bound is inactive if the best plane, through ``c``, meets it; otherwise
    the optimum touches it, ``p = ||n||_q / bound``.  An L2 bound then leaves
    a secular equation, an L1 bound one eigenproblem per face of the cube
    (at most ``L1_MAX_DIM`` coordinates, else ``L1DimensionTooLarge``), and
    the lasso's ``zero_coordinates`` are the coordinates off the best face.
    The result is exact to rounding.  The bound-free work is kept on ``ps``
    (``WeightedPointSet``), so a path of bounds on one set pays it once, and
    each bound gives the same result whichever bounds came before it.
    A ``norm`` other than L1 or L2 and a bound that is not positive and
    finite raise ``UsageError``.
    """
    norm = norm.lower() if isinstance(norm, str) else norm
    if norm not in ("l1", "l2"):
        raise UsageError("norm must be 'l1' or 'l2'")
    try:
        bound = float(bound)
    except (TypeError, ValueError):
        bound = math.nan  # not a number: refused below like any bad bound
    if not 0 < bound < np.inf:
        raise UsageError("bound must be positive and finite")
    if norm == "l1" and ps.dim > L1_MAX_DIM:
        raise L1DimensionTooLarge(f"L1 bounds take at most {L1_MAX_DIM} coordinates, got {ps.dim}")
    c, s = ps.center, ps.centered_inertia.entries
    m = ps.total_mass
    n = ps.spectrum.vectors[:, 0]
    n = n if n @ c >= 0 else -n
    q = float(np.abs(n).sum()) if norm == "l1" else 1.0
    active = float(n @ c) < q / bound
    # a touching plane lies at distance >= 1/bound, so its moment, and the
    # rank-one terms of both solvers, grow as m (sqrt(k)/bound + |c|)^2
    reach = math.sqrt(m) * (math.sqrt(ps.dim) / bound + float(np.linalg.norm(c)))
    if active and reach > _ROOT_MAX:
        raise BoundTooSmall(f"bound {bound!r} is too small: the fit's moment would overflow")
    if not active:
        p = float(n @ c)
    elif norm == "l2":
        n = _ridge_normal(ps, bound)
        p = 1.0 / bound
    else:
        n = _lasso_normal(ps, bound)
        p = float(np.abs(n).sum()) / bound
    zeros = tuple(int(i) for i in np.flatnonzero(n == 0.0))
    moment = float(n @ s @ n) + m * (float(n @ c) - p) ** 2
    return RegularizedFit(CoefficientVector(n / p), moment, norm, bound, active, zeros)


__all__ = [
    "CoefficientVector",
    "DualQuadric",
    "RegularizedFit",
    "moment_of_coefficients",
    "dual_quadric",
    "constrained_fit",
    "L1_MAX_DIM",
]
