"""The confocal pencil of quadrics attached to a full-rank point set.

Writing ``J_1 < ... < J_k`` for the principal moments at the centroid and
``m`` for the total mass, the attached family in the centered principal
frame is

    sum_i  x_i^2 / (p_i - lambda) = 1,      p_i = (2 J_1 - J_i) / m,

so the pole values ``p_i`` are strictly decreasing and ``p_1 = J_1/m``.
Every member of the family is the envelope of all hyperplanes whose moment
equals ``2 J_1 - m lambda``, which is what makes the pencil the universal
object behind orthogonal, restricted and directional regression.

The k solutions of ``Q_lambda(x) = 1`` in ``lambda`` are the Jacobi
coordinates of ``x``: the eigenvalues of ``diag(p) - x x^T`` (Golub 1973),
so the inertia operator at the point has eigenvalues ``2 J_1 - m lambda``
and, as eigenvectors, the normals there of the members through it.  Each
root is halved in its interlacing bracket as an offset from the nearer
pole (``dlaed4``; Bunch, Nielsen & Sorensen 1978; Li 1994), so no
``p_i - lambda`` cancels, and the normals use ``x`` recomputed from the
roots (Gu & Eisenstat 1995) to stay orthonormal near the poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, InvalidSemiaxes, PointNotOnQuadric
from .geometry import (
    Hyperplane,
    WeightedPointSet,
    _as_vector,
    _store,
    require_full_rank,
)

# Relative gap below which two principal moments count as equal (the pencil
# poles would collide, as in the circular planar case).
GAP_TOL = 1e-8

# Relative size below which a principal coordinate of a point counts as zero
# and produces a degenerate Jacobi coordinate (the pole itself).
COORD_TOL = 1e-9

# Halvings of every Jacobi bracket; 2^-64 of a bracket is below rounding.
_HALVINGS = 64


@dataclass(frozen=True)
class ConfocalPencil:
    """Center, principal frame, moments and pole values of the family.

    ``frame`` holds orthonormal principal axes as columns, ordered by
    ascending principal moment; ``poles`` are the corresponding (strictly
    decreasing) pole values ``(2 J_1 - J_i)/m``.
    """

    center: np.ndarray
    frame: np.ndarray
    principal_moments: np.ndarray
    mass: float
    poles: np.ndarray

    def __post_init__(self) -> None:
        for name in ("center", "frame", "principal_moments", "poles"):
            _store(self, name, getattr(self, name))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def to_principal(self, point) -> np.ndarray:
        point = _as_vector(point, self.dim, "point")
        return self.frame.T @ (point - self.center)

    def from_principal(self, coords) -> np.ndarray:
        coords = _as_vector(coords, self.dim, "coords")
        return self.center + self.frame @ coords

    def focal_scale(self) -> float:
        """Length scale of the focal set, sqrt((J_k - J_1)/m)."""
        return float(np.sqrt(self.poles[0] - self.poles[-1]))

    def attach_points(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The k-1 symmetric point pairs determining the family.

        Pair ``i`` sits at distance ``a_i = sqrt((J_{i+1} - J_1)/m)`` from the
        center along the first principal axis; there the principal moments
        ``J_1 + m a_i^2`` and ``J_{i+1}`` coincide.
        """
        J = self.principal_moments
        axis = self.frame[:, 0]
        out = []
        for i in range(1, self.dim):
            a = float(np.sqrt((J[i] - J[0]) / self.mass))
            out.append((self.center + a * axis, self.center - a * axis))
        return out

    def member(self, lam: float) -> "QuadricMember":
        """The pencil member at parameter ``lam`` (must not sit on a pole)."""
        lam = float(lam)
        scale = max(1.0, float(np.abs(self.poles).max()))
        if np.any(np.abs(self.poles - lam) <= 1e-14 * scale):
            raise ValueError(
                "parameter coincides with a pole; that member is a coordinate hyperplane"
            )
        positive = int(np.sum(self.poles > lam))
        return QuadricMember(self, lam, positive)

    def gyration_member(self) -> "QuadricMember":
        """The member coinciding with the mass-normalized axial gyration ellipsoid.

        Its semiaxes squared are ``I_i/m`` where ``I_i = sum_{j != i} J_j`` are
        the axial moments of the principal axes.
        """
        J = self.principal_moments
        return self.member(float((2 * J[0] - J.sum()) / self.mass))


@dataclass(frozen=True)
class QuadricMember:
    """One quadric of the family: semiaxes squared are ``poles - lam``.

    ``type_index`` counts the positive semiaxes: ``k`` for an ellipsoid, and
    ``i`` in ``1..k-1`` for the i-th hyperboloid-like type.
    """

    pencil: ConfocalPencil
    lam: float
    type_index: int

    @property
    def semiaxes_sq(self) -> np.ndarray:
        return self.pencil.poles - self.lam

    @property
    def is_ellipsoid(self) -> bool:
        return self.type_index == self.pencil.dim

    def evaluate(self, point) -> float:
        """Q_lambda at a point given in original coordinates."""
        x = self.pencil.to_principal(point)
        return float(np.sum(x * x / self.semiaxes_sq))


@dataclass(frozen=True)
class JacobiCoordinates:
    """Increasing roots of Q_lambda(x) = 1, degenerate-pole flags, and the
    unit normals of those members at the point (columns, principal frame).
    """

    lambdas: np.ndarray
    degenerate: np.ndarray
    normals: np.ndarray

    def __post_init__(self) -> None:
        for name, kind in (("lambdas", float), ("degenerate", bool), ("normals", float)):
            _store(self, name, getattr(self, name), kind)

    @property
    def largest(self) -> float:
        return float(self.lambdas[-1])


@dataclass(frozen=True)
class DegenerateHyperplane:
    """Envelope degenerated to the ``axis_index``-th principal coordinate hyperplane."""

    hyperplane: Hyperplane
    axis_index: int


@dataclass(frozen=True)
class NoSolution:
    """No hyperplane attains the requested moment (below the minimum J_1)."""

    requested_moment: float


def build_pencil(ps: WeightedPointSet) -> ConfocalPencil:
    """Construct the confocal family attached to a full-rank point set."""
    require_full_rank(ps)
    J = ps.spectrum.values
    if np.any(np.diff(J) <= GAP_TOL * J[-1]):
        raise DegenerateSpectrum("principal moments are not pairwise distinct")
    m = ps.total_mass
    poles = (2 * J[0] - J) / m
    return ConfocalPencil(ps.center, ps.spectrum.vectors, J, m, poles)


# ---------------------------------------------------------------------------
# Jacobi coordinates (secular equation, joint halving of interlacing brackets)
# ---------------------------------------------------------------------------

def _secular_roots(x2: np.ndarray, poles_desc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All roots of sum_i x2_i/(p_i - lam) = 1 for strictly positive x2.

    The left side increases strictly between consecutive poles, so there is
    one root in each open gap (p_(i+1), p_i) and one below the smallest pole,
    in ``[p_min - 2 sum(x2), p_min]``: at its left end every term is below
    1/2 whatever the data's units.  Each root is sought as an offset from
    the end pole of its bracket that the midpoint shows to be nearer (the
    leftmost bracket has only its upper one), halving all k offsets together
    ``_HALVINGS`` times.  Returns the ascending roots and the (pole, root)
    differences ``p_i - lam_j``, which do not cancel.
    """
    asc = poles_desc[::-1]
    width = np.concatenate(([2.0 * x2.sum()], np.diff(asc)))
    # as offsets from a pole no bracket rounds away, even if sum(x2) < 1 ulp
    at_mid = (poles_desc - asc[:, None]) + 0.5 * width[:, None]
    upper = (np.reciprocal(at_mid) @ x2 < 1.0) | (np.arange(len(asc)) == 0)
    origin = np.where(upper, asc, np.roll(asc, 1))
    shifted = poles_desc - origin[:, None]
    lo, hi = np.where(upper, -width, 0.0), np.where(upper, 0.0, width)
    for _ in range(_HALVINGS):
        tau = 0.5 * (lo + hi)
        below = np.reciprocal(shifted - tau[:, None]) @ x2 < 1.0
        lo = np.where(below, tau, lo)
        hi = np.where(below, hi, tau)
    tau = 0.5 * (lo + hi)
    # one step of tau = x2_o / (psi - 1) (x2_o: the origin pole's weight, psi:
    # the other terms) makes tau exact to rounding when it is far below the
    # bracket width; where x2_o is negligible the clip keeps the halving's tau
    at_origin = shifted == 0.0
    psi = np.where(at_origin, 0.0, x2 / (shifted - tau[:, None])).sum(axis=1)
    with np.errstate(divide="ignore", over="ignore"):
        tau = np.clip(np.where(at_origin, x2, 0.0).sum(axis=1) / (psi - 1.0), lo, hi)
    return origin + tau, (shifted - tau[:, None]).T


def jacobi_coordinates(pencil: ConfocalPencil, point) -> JacobiCoordinates:
    """Jacobi elliptic coordinates of a point (given in original coordinates).

    Principal coordinates smaller than ``COORD_TOL`` times the problem scale
    are treated as exact zeros: the corresponding pole is emitted as a
    degenerate coordinate with its principal axis as normal, and the secular
    equation is deflated.  The other normals are ``x_i/(p_i - lam)`` with
    ``x`` recomputed from the roots by the Loewner formula.
    """
    x = pencil.to_principal(point)
    # the 1e-6 * |x| term keeps the threshold a few ulps above the rounding
    # noise of the frame change for far-away points without swallowing
    # genuinely small coordinates
    scale = max(pencil.focal_scale(), 1e-6 * float(np.linalg.norm(x)), 1e-300)
    zero = np.abs(x) < COORD_TOL * scale
    k, nz = pencil.dim, int(zero.sum())
    values, normals = np.empty(k), np.zeros((k, k))
    values[:nz] = pencil.poles[zero]
    normals[zero, :nz] = np.eye(nz)
    if nz < k:
        poles = pencil.poles[~zero]
        roots, diff = _secular_roots(x[~zero] ** 2, poles)
        # x_i^2 = prod_j (p_i - lam_j) / prod_(l != i) (p_i - p_l), pairing
        # each pole with the root just below it so every ratio is O(1)
        gaps = poles[:, None] - poles
        np.fill_diagonal(gaps, 1.0)
        x_hat = np.copysign(np.sqrt(np.prod(diff[:, ::-1] / gaps, axis=1)), x[~zero])
        vectors = x_hat[:, None] / diff
        values[nz:] = roots
        normals[~zero, nz:] = vectors / np.linalg.norm(vectors, axis=0)
    order = np.argsort(values, kind="stable")
    return JacobiCoordinates(values[order], (np.arange(k) < nz)[order], normals[:, order])


# ---------------------------------------------------------------------------
# Envelopes and tangency
# ---------------------------------------------------------------------------

def tangent_moment(pencil: ConfocalPencil, lam: float) -> float:
    """Common hyperplanar moment of every tangent hyperplane of member ``lam``.

    The affine map ``lam -> 2 J_1 - m lam`` also carries the Jacobi
    coordinates of a point onto the eigenvalues of the inertia operator at
    that point (in reversed order).
    """
    return float(2 * pencil.principal_moments[0] - pencil.mass * lam)


def envelope_for_moment(pencil: ConfocalPencil, j_pi: float):
    """Envelope of all hyperplanes with hyperplanar moment ``j_pi``.

    Returns a ``QuadricMember`` (semiaxes squared ``(j_pi - J_i)/m``), a
    ``DegenerateHyperplane`` when ``j_pi`` equals a principal moment, or
    ``NoSolution`` when ``j_pi`` lies below the attainable minimum ``J_1``.
    """
    J = pencil.principal_moments
    j_pi = float(j_pi)
    tol = 1e-12 * max(float(J[-1]), abs(j_pi), 1e-300)
    hits = np.flatnonzero(np.abs(J - j_pi) <= tol)
    if hits.size:
        i = int(hits[0])
        plane = Hyperplane.through(pencil.center, pencil.frame[:, i])
        return DegenerateHyperplane(plane, i)
    if j_pi < J[0]:
        return NoSolution(j_pi)
    lam = (2 * J[0] - j_pi) / pencil.mass
    return pencil.member(float(lam))


def tangent_hyperplane(member: QuadricMember, point_on_quadric) -> Hyperplane:
    """Tangent hyperplane of a member at one of its points.

    The point must satisfy ``|Q_lambda(x) - 1| < 1e-8``; the normal is the
    gradient direction ``x_i / (p_i - lam)`` in the principal frame.
    """
    pencil = member.pencil
    x = pencil.to_principal(point_on_quadric)
    s = member.semiaxes_sq
    q = float(np.sum(x * x / s))
    if abs(q - 1.0) >= 1e-8:
        raise PointNotOnQuadric(f"Q_lambda(point) = {q:.3e}, expected 1")
    normal = pencil.frame @ (x / s)
    return Hyperplane.through(np.asarray(point_on_quadric, dtype=float), normal)


# ---------------------------------------------------------------------------
# Thread construction of 3D ellipsoid slices
# ---------------------------------------------------------------------------

def thread_slice(semiaxes_sq, theta: float, n_samples: int) -> np.ndarray:
    """Points of the ellipsoid x^2/a + y^2/b + z^2/c = 1 traced by a thread.

    The slicing plane contains the major axis and forms angle ``theta`` with
    the (x, y)-plane.  Within it the section is an ellipse with major
    semiaxis sqrt(a) and minor semiaxis ``r(theta)``; a thread of length
    ``2 sqrt(a)`` anchored at the section's foci ``(+-c(theta), 0, 0)``
    sweeps exactly this section.  Returns an (n_samples, 3) array.
    """
    a, b, c = (float(v) for v in semiaxes_sq)
    if not (a > b > c > 0):
        raise InvalidSemiaxes("need semiaxes a > b > c > 0")
    theta = float(theta)
    if not 0.0 <= theta <= np.pi / 2:
        raise ValueError("theta must lie in [0, pi/2]")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    ct, st = np.cos(theta), np.sin(theta)
    r2 = b * c / (c * ct**2 + b * st**2)
    r = np.sqrt(r2)
    phi = np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False)
    x = np.sqrt(a) * np.cos(phi)
    rho = r * np.sin(phi)
    return np.column_stack([x, rho * ct, rho * st])


def thread_foci(semiaxes_sq, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Anchor points (+-c(theta), 0, 0) of the thread for the given slice."""
    a, b, c = (float(v) for v in semiaxes_sq)
    if not (a > b > c > 0):
        raise InvalidSemiaxes("need semiaxes a > b > c > 0")
    ct, st = np.cos(float(theta)), np.sin(float(theta))
    r2 = b * c / (c * ct**2 + b * st**2)
    cc = np.sqrt(a - r2)
    return np.array([cc, 0.0, 0.0]), np.array([-cc, 0.0, 0.0])
