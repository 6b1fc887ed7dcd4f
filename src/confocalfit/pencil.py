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
root is found apart, in its interlacing bracket, as an offset from the
nearer pole, so no ``p_i - lambda`` cancels, by a safeguarded rational
iteration (Bunch, Nielsen & Sorensen 1978; Li 1994, the "middle way" of
LAPACK ``dlaed4``) that stops when it has converged.  Its first evaluation,
at the bracket's midpoint, both picks the nearer pole and serves as the
first step.  The normals use ``x`` recomputed from the roots (Gu & Eisenstat
1995) to stay orthonormal near the poles.  A point's k-sized work (the
deflation, the roots, the normals and their order) runs on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    InvalidSemiaxes,
    MemberOnPole,
    PointNotOnQuadric,
    PointOutOfRange,
    RankDeficient,
)
from .geometry import (
    EigenDecomposition,
    Hyperplane,
    WeightedPointSet,
    _RANK_DEFICIENT,
    _as_vector,
    _full_rank,
    _offset,
    _store,
)

# Relative gap below which two principal moments count as equal (the pencil
# poles would collide, as in the circular planar case).
GAP_TOL = 1e-8

# Relative size below which a principal coordinate of a point counts as zero
# and produces a degenerate Jacobi coordinate (the pole itself).
COORD_TOL = 1e-9

# Rational steps one root may take, a safeguard only: every root stops on
# its own tests well before it.
_MAX_STEPS = 60

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ConfocalPencil:
    """Center, principal frame, moments and pole values of the family.

    ``frame`` holds orthonormal principal axes as columns, ordered by
    ascending principal moment; ``poles`` are the corresponding (strictly
    decreasing) pole values ``(2 J_1 - J_i)/m``.  ``center_residual`` is the
    point set's: the centre is ``center + center_residual`` (zeros when not
    given), and the frame change takes it in.
    """

    center: np.ndarray
    frame: np.ndarray
    principal_moments: np.ndarray
    mass: float
    poles: np.ndarray
    center_residual: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.center_residual is None:
            object.__setattr__(self, "center_residual", np.zeros(len(self.center)))
        for name in ("center", "frame", "principal_moments", "poles", "center_residual"):
            _store(self, name, getattr(self, name))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def to_principal(self, point) -> np.ndarray:
        point = _as_vector(point, self.dim, "point")
        return self.frame.T @ _offset(point, self.center, self.center_residual)

    def from_principal(self, coords) -> np.ndarray:
        coords = _as_vector(coords, self.dim, "coords")
        return self.center + (self.frame @ coords + self.center_residual)

    def focal_scale(self) -> float:
        """Length scale of the focal set, sqrt((J_k - J_1)/m)."""
        return math.sqrt(self.poles[0] - self.poles[-1])

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
        if np.any(np.abs(self.poles - lam) <= 1e-14 * float(np.abs(self.poles).max())):
            raise MemberOnPole(
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
    """The confocal family of a full-rank point set: the set's one pencil,
    built on the first call (a set without one raises on every call)."""
    return ps._pencil


def _pencil(
    center: np.ndarray, residual: np.ndarray, spectrum: EigenDecomposition, mass: float
) -> ConfocalPencil:
    """The family of the centred operator with eigensystem ``spectrum`` and
    total mass ``mass``, centred at ``center + residual``."""
    J = spectrum.values
    if not _full_rank(J):
        raise RankDeficient(_RANK_DEFICIENT)
    if np.any(np.diff(J) <= GAP_TOL * J[-1]):
        raise DegenerateSpectrum("principal moments are not pairwise distinct")
    poles = (2 * J[0] - J) / mass
    return ConfocalPencil(center, spectrum.vectors, J, mass, poles, residual)


# ---------------------------------------------------------------------------
# Jacobi coordinates (secular equation, one rational iteration per root)
# ---------------------------------------------------------------------------

def _secular_root(z: list[float], p: list[float], j: int) -> tuple[float, float, int]:
    """Root ``j``, counted from below, of sum_i z_i/(p_i - lam) = 1 for ascending ``p``.

    The left side increases strictly between consecutive poles, so root
    ``j > 0`` is the one in (p_(j-1), p_j) and root 0 the one in
    ``[p_0 - 2 sum(z), p_0]``: at its left end every term is below 1/2
    whatever the data's units.  The root is sought as an offset ``tau`` from
    the end pole that the midpoint shows to be nearer (root 0 has only its
    upper one), so no ``p_i - lam`` cancels.  The first step's evaluation,
    at the midpoint as an offset from ``p_j``, is the one that shows it: a
    root in the lower half moves its origin to ``p_(j-1)`` and goes on from
    that evaluation.

    Each step evaluates g = psi + phi - 1 at ``tau`` (psi and phi: the terms
    of the poles left and right of the root) with both derivatives, shrinks
    the bracket by the sign of g and moves to the root of the model
    c + s/(D_l - eta) + S/(D_r - eta).  Its poles are the bracket's end poles
    at offsets D_l, D_r from ``tau``, with s = D_l^2 psi', S = D_r^2 phi' and
    c chosen so that it matches g and g' at ``tau`` (Li 1994, the "middle
    way" of LAPACK ``dlaed4``); root 0 has no left poles and takes the
    one-pole model c + S/(D_r - eta).  The model is solved for the new offset
    from the origin rather than for ``eta``, so a root next to its pole keeps
    its relative accuracy.  A step that leaves the bracket falls back to the
    bracket's midpoint.  The loop stops when |eta| <= 2 eps |tau|, when g is
    zero to within its rounding error, or when the bracket has collapsed;
    ``_MAX_STEPS`` only guards.  Returns ``(origin, tau, steps)``, the root
    being origin + tau.
    """
    width = p[j] - p[j - 1] if j else 2.0 * sum(z)
    upper, origin = True, p[j]
    d = [pi - origin for pi in p]
    left, right = list(zip(z[:j], d[:j])), list(zip(z[j:], d[j:]))
    lo, hi = -width, 0.0
    # g sums k + 1 terms, each rounded twice, and psi <= 0 <= phi, so
    # tol * (phi - psi + 1) bounds its rounding error
    tol = (len(p) + 2) * _EPS
    tau = 0.5 * (lo + hi)
    for steps in range(1, _MAX_STEPS + 1):
        # the derivatives enter only as D_l psi' and D_r phi', summed as
        # t_i D/(d_i - tau) with ratios of at most 1, so like every other
        # intermediate below they stay in the float range with the roots
        dl, dr = (d[j - 1] - tau if j else 0.0), d[j] - tau
        psi = dl_dpsi = phi = dr_dphi = 0.0
        for zi, di in left:
            gap = di - tau
            t = zi / gap
            psi += t
            dl_dpsi += t * (dl / gap)
        for zi, di in right:
            gap = di - tau
            t = zi / gap
            phi += t
            dr_dphi += t * (dr / gap)
        g = psi + phi - 1.0
        if steps == 1 and j and g >= 0.0:
            # the root is in the lower half, nearer p_(j-1): measure from it;
            # D_l = -width/2 and D_r = width/2 whichever end is the origin
            upper, origin = False, p[j - 1]
            d = [pi - origin for pi in p]
            left, right = list(zip(z[:j], d[:j])), list(zip(z[j:], d[j:]))
            lo, hi, tau = 0.0, width, 0.5 * width
        converged = abs(g) <= tol * (phi - psi + 1.0)
        if not converged:
            if g < 0.0:
                lo = tau
            else:
                hi = tau
        c = g - dl_dpsi - dr_dphi
        if j == 0:
            step = tau * (dr_dphi / -c) if c < 0.0 else math.nan
        else:
            # with the weights w = s/width, S/width of the origin pole (w_o)
            # and the other one (w_x), on side e = +-1 of the origin, the new
            # offset zeta in units of the width solves
            # c zeta^2 - (e c + w_o + w_x) zeta + e w_o = 0
            w_l, w_r = dl / width * dl_dpsi, dr / width * dr_dphi
            e, w_o, w_x = (-1.0, w_r, w_l) if upper else (1.0, w_l, w_r)
            b = e * c + w_o + w_x
            root = math.sqrt(abs(b * b - 4.0 * e * c * w_o))
            if b > 0.0:
                step = e * width * (2.0 * w_o / (b + root))
            elif c != 0.0:
                step = width * ((b - root) / (2.0 * c))
            else:
                step = math.nan
        eta = step - tau
        inside = lo < step < hi
        if converged or abs(eta) <= 2.0 * _EPS * abs(tau):
            # a last step of a few ulps is kept or dropped, never bisected
            return origin, (step if inside else tau), steps
        if not inside:
            step = 0.5 * (lo + hi)
            if step == lo or step == hi:
                return origin, tau, steps
        tau = step
    return origin, tau, _MAX_STEPS


def _secular_roots(x2, poles_desc) -> tuple[np.ndarray, np.ndarray]:
    """All roots of sum_i x2_i/(p_i - lam) = 1 for strictly positive x2.

    ``x2`` and the descending ``poles_desc`` are float sequences or arrays.
    Solves for each root apart with ``_secular_root``.  Returns the ascending
    roots and the (pole, root) differences ``p_i - lam_j``, which do not
    cancel.
    """
    p, z = [float(v) for v in reversed(poles_desc)], [float(v) for v in reversed(x2)]
    found = [_secular_root(z, p, j)[:2] for j in range(len(p))]
    diff = [[(pi - origin) - tau for origin, tau in found] for pi in reversed(p)]
    return np.array([origin + tau for origin, tau in found]), np.array(diff)


def jacobi_coordinates(pencil: ConfocalPencil, point) -> JacobiCoordinates:
    """Jacobi elliptic coordinates of a point (given in original coordinates).

    Principal coordinates smaller than ``COORD_TOL`` times the problem scale
    are treated as exact zeros: the corresponding pole is emitted as a
    degenerate coordinate with its principal axis as normal, and the secular
    equation is deflated.  The other normals are ``x_i/(p_i - lam)`` with
    ``x`` recomputed from the roots by the Loewner formula.  The k-sized
    work runs on Python floats; only the normals' lengths are numpy's.
    Raises ``PointOutOfRange`` when twice |x|^2, the width of the lowest
    root's bracket, overflows: that root is then not a float.
    """
    x, poles = pencil.to_principal(point).tolist(), pencil.poles.tolist()
    k = len(x)
    norm = math.hypot(*x)
    if not math.isfinite(2.0 * norm * norm):
        raise PointOutOfRange("point too far out: its Jacobi coordinates overflow")
    # the 1e-6 * |x| term keeps the threshold a few ulps above the rounding
    # noise of the frame change for far-away points without swallowing
    # genuinely small coordinates
    tol = COORD_TOL * max(pencil.focal_scale(), 1e-6 * norm)
    zero = [abs(xi) < tol for xi in x]
    live = [i for i in range(k) if not zero[i]]
    # (value, degenerate, normal) of each coordinate
    coords = [(poles[i], True, [float(r == i) for r in range(k)]) for i in range(k) if zero[i]]
    if live:
        p = [poles[i] for i in live]
        roots, diff = _secular_roots([x[i] * x[i] for i in live], p)
        # x_i^2 = prod_j (p_i - lam_j) / prod_(l != i) (p_i - p_l), pairing
        # each pole with the root just below it so every ratio is O(1)
        vectors = []
        for i, row in enumerate(diff.tolist()):
            prod = 1.0
            for l, dl in enumerate(reversed(row)):
                prod *= dl / (p[i] - p[l] if l != i else 1.0)
            x_hat = math.copysign(math.sqrt(prod), x[live[i]])
            vectors.append([x_hat / dl for dl in row])
        # each column over its largest |entry|, then over its length (``_unit``)
        top = [max(map(abs, column)) for column in zip(*vectors)]
        vectors = [[v / t for v, t in zip(row, top)] for row in vectors]
        lengths = np.hypot.reduce(vectors, axis=0).tolist()
        for j, lam in enumerate(roots.tolist()):
            normal = [0.0] * k
            for i, row in zip(live, vectors):
                normal[i] = row[j] / lengths[j]
            coords.append((lam, False, normal))
    coords.sort(key=lambda c: c[0])
    lambdas, degenerate, normals = zip(*coords)
    return JacobiCoordinates(lambdas, degenerate, list(zip(*normals)))


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
    tol = 1e-12 * max(float(J[-1]), abs(j_pi))
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
