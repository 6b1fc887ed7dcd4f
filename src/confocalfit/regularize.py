"""Ridge- and lasso-type regularization of orthogonal least squares.

A hyperplane ``{x : <u, x> = 1}`` is encoded by its tangential coefficients
``u`` (planes through the origin are outside this gauge; shift the data if
needed), and its mass-weighted orthogonal residual

    f(u) = sum_j m_j (<u, r_j> - 1)^2 / ||u||^2

is minimized subject to an L1 or L2 bound on ``u``.  The planes of one
residual level form a quadric in tangential coordinates, and the levels a
linear pencil dual to the confocal family.  The regularized plane is where
the bound's level set touches that pencil; ``constrained_fit`` solves for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundTooSmall, L1DimensionTooLarge, NoEnvelope, UsageError, ZeroVector
from .geometry import Hyperplane, WeightedPointSet, _as_vector, _store
from .pencil import ConfocalPencil

# The L1 solver visits all 3^k - 1 faces of the cube; one call stays below ~1 s.
L1_MAX_DIM = 10

# Largest float whose square is finite.
_ROOT_MAX = math.sqrt(np.finfo(float).max)


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
    """Hyperplanar moment of the plane {x : <u, x> = 1}."""
    r = ps.coords @ u.u - 1.0
    return float(ps.masses @ (r * r) / (u.u @ u.u))


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
    round ``S`` away.  Returns ``(vals, vecs, h, r)``."""
    size = np.linalg.norm(w, axis=-1)
    r = np.where(w[..., 0] < 0, size, -size)
    u = w.copy()
    u[..., 0] -= r
    u /= np.maximum(np.linalg.norm(u, axis=-1, keepdims=True), np.finfo(float).tiny)
    h = np.eye(w.shape[-1]) - 2.0 * u[..., :, None] * u[..., None, :]
    a = h @ s @ h
    a[..., 0, 0] += size**2
    return *np.linalg.eigh(a), h, r


def _ridge_normal(s: np.ndarray, c: np.ndarray, m: float, bound: float) -> np.ndarray:
    """Unit ``n`` minimizing ``n^T A n - 2 <g, n>``, ``A = S + m c c^T``, ``g = m c / bound``.

    With ``t = L_1 - mu`` for the least eigenvalue ``L_1`` of ``A`` and ``d_i =
    L_i - L_1``, the stationary point ``(A - mu I) n = g`` has unit length where
    ``sum_i g~_i^2 / (d_i + t)^2 = 1`` (Gander, Golub and von Matt).  Newton's
    method on ``1/||n(t)|| - 1``, concave in ``t``, climbs monotonically to the
    root (More and Sorensen).  In the hard case, ``g~_1 = 0`` and ``||n(0)|| <=
    1``, the bottom eigenvector makes up the missing length.
    """
    vals, vecs, h, r = _reflected_eigh(s, np.sqrt(m) * c)
    gt = vecs[0] * (np.sqrt(m) * r / bound)  # h g = (sqrt(m) r / bound) e_1
    live = gt != 0.0
    gt, d, basis = gt[live], vals[live] - vals[0], vecs[:, live]
    t = float(np.max(np.abs(gt) - d, initial=0.0))  # ||n(t)|| >= 1 up to here
    if t == 0.0 and float(np.sum((gt / d) ** 2)) <= 1.0:
        n = basis @ (gt / d)
        return h @ (n + np.sqrt(max(0.0, 1.0 - float(n @ n))) * vecs[:, 0])
    for _ in range(100):
        q = gt / (d + t)
        nn = float(q @ q)
        step = nn * (np.sqrt(nn) - 1.0) / float(q @ (q / (d + t)))
        if not step > 4 * np.finfo(float).eps * t:
            break
        t += step
    n = basis @ (gt / (d + t))
    return h @ n / np.linalg.norm(n)


def _lasso_normal(s: np.ndarray, c: np.ndarray, m: float, bound: float) -> np.ndarray:
    """Unit ``n`` minimizing ``n^T S n + m (<n, c> - ||n||_1 / bound)^2``.

    On the face of the cube with support ``T`` and signs ``sigma`` this is the
    quadratic form of ``S_TT + m w w^T``, ``w = sigma / bound - c_T``, so the
    face's one candidate is its bottom eigenvector, kept if its signs match
    ``sigma``.  One batched ``eigh`` per support size; ties go to the smaller.
    """
    k = c.size
    best, best_n = np.inf, np.zeros(k)
    for size in range(1, k + 1):
        supports = np.array(list(itertools.combinations(range(k), size)))
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=size)))
        t = np.repeat(supports, len(signs), axis=0)
        sigma = np.tile(signs, (len(supports), 1))
        w = np.sqrt(m) * (sigma / bound - c[t])
        vals, vecs, h, _ = _reflected_eigh(s[t[:, :, None], t[:, None, :]], w)
        v = (h @ vecs[:, :, :1])[:, :, 0] * sigma
        score = np.where(np.all(v > 0, axis=1) | np.all(v < 0, axis=1), vals[:, 0], np.inf)
        i = int(np.argmin(score))
        if score[i] < best:
            best, best_n = score[i], np.zeros(k)
            best_n[t[i]] = np.abs(v[i]) * sigma[i]
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
    The result is exact to rounding.
    """
    norm = norm.lower()
    if norm not in ("l1", "l2"):
        raise ValueError("norm must be 'l1' or 'l2'")
    bound = float(bound)
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
        n = _ridge_normal(s, c, m, bound)
        p = 1.0 / bound
    else:
        n = _lasso_normal(s, c, m, bound)
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
