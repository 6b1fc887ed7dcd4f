"""Billiards inside pencil members, caustics, and moment-invariance laws.

A generic l-dimensional flat is tangent to exactly k-l members of the
confocal family.  Their parameters are computed exactly as the eigenvalues
of the compressed symmetric matrix ``U^T (diag(poles) - p p^T) U``, where U
spans the orthogonal complement of the flat's direction space and p is the
flat's foot point, its point nearest the centre (in exact arithmetic any
point of the flat gives the same matrix; a far one adds its rounding).
Summing the tangent moments ``2 J_1 - m lambda`` over the caustics
reproduces the l-planar moment of the flat, and billiard reflection
preserves the caustic set, which yields the conservation laws checked in
the test suite.  A billiard trajectory is one array of states, each a point
and a unit direction.  Every function takes its flats, rays and states in
the data's own coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFlat, NoIntersection, NotEllipsoidType, UsageError
from .geometry import FlatSubspace, _as_vector, _complement_basis, _store, _unit
from .pencil import ConfocalPencil, QuadricMember, tangent_moment

_ESCAPE_T = 1e-10


@dataclass(frozen=True)
class Ray:
    """A point and a unit direction."""

    point: np.ndarray
    direction: np.ndarray

    def __post_init__(self) -> None:
        p = _store(self, "point", _as_vector(self.point, name="point"))
        d = _as_vector(self.direction, len(p), "direction")
        if not d.any():
            raise UsageError("ray direction must be nonzero")
        _store(self, "direction", _unit(d))

    def line(self) -> FlatSubspace:
        return FlatSubspace(self.point, self.direction[:, None])


@dataclass(frozen=True)
class CausticSet:
    """Sorted tangency parameters of an l-flat (k-l of them)."""

    lambdas: np.ndarray

    def __post_init__(self) -> None:
        _store(self, "lambdas", self.lambdas)


def caustics_of_flat(pencil: ConfocalPencil, flat: FlatSubspace) -> CausticSet:
    """The k-l members tangent to the flat.

    Raises ``DegenerateFlat`` when the tangency parameters are not simple
    roots (the flat meets the focal structure).  Parameters that collide
    with a pole are legitimate: the caustic degenerates to a principal
    coordinate hyperplane, as happens for principal axes.
    """
    p = pencil.to_principal(flat.base_point)
    v = pencil.frame.T @ flat.basis
    foot = p - v @ (v.T @ p)
    u = _complement_basis(v)
    # the eigenvalue form of the tangency condition; eigvalsh sorts ascending
    lam = np.linalg.eigvalsh(u.T @ (np.diag(pencil.poles) - np.outer(foot, foot)) @ u)
    scale = max(float(np.abs(pencil.poles).max()), float(np.abs(lam).max()))
    if lam.size > 1 and np.min(np.diff(lam)) <= 1e-9 * scale:
        raise DegenerateFlat("tangency parameters are not simple roots")
    return CausticSet(lam)


def moment_via_caustics(pencil: ConfocalPencil, flat: FlatSubspace) -> float:
    """l-planar moment of the flat computed from its caustic parameters."""
    caustics = caustics_of_flat(pencil, flat)
    return float(sum(tangent_moment(pencil, t) for t in caustics.lambdas))


def higher_axial_moments(pencil: ConfocalPencil, ray: Ray) -> np.ndarray:
    """Power sums of the caustic tangent moments of a line, s = 1 .. k-1.

    The first entry is the axial moment; the full vector is preserved by
    billiard reflection off any member.
    """
    caustics = caustics_of_flat(pencil, ray.line())
    hats = np.array([tangent_moment(pencil, t) for t in caustics.lambdas])
    return np.array([float(np.sum(hats**s)) for s in range(1, pencil.dim)])


def _bounce(p: np.ndarray, v: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One reflection in the principal frame off the member with semiaxes
    squared ``s``: the impact point and the unit outgoing direction."""
    a = float(np.sum(v * v / s))
    b = 2.0 * float(np.sum(p * v / s))
    c = float(np.sum(p * p / s)) - 1.0
    disc = b * b - 4 * a * c
    if disc <= 0.0:
        raise NoIntersection("ray does not meet the member")
    # a > 0, so the larger root takes +sqrt(disc)
    t = (-b + np.sqrt(disc)) / (2 * a)
    if t <= _ESCAPE_T * np.sqrt(s.max()):
        raise NoIntersection("no forward intersection with the member")
    impact = p + t * v
    normal = impact / s
    normal = normal / np.linalg.norm(normal)
    v_out = v - 2.0 * float(v @ normal) * normal
    return impact, v_out / np.linalg.norm(v_out)


def trajectory(member: QuadricMember, start: Ray, bounces: int) -> np.ndarray:
    """Billiard trajectory inside an ellipsoid-type member.

    Returns one array of shape ``(bounces + 1, 2, k)``: row i holds the point
    and the unit direction after i reflections, and row 0 is the start as
    given.  Each impact is the forward intersection beyond ``_ESCAPE_T``
    times the member's largest semiaxis, so a state on the boundary leaves
    its impact point, and the direction is mirrored across the tangent
    hyperplane there.  Raises ``NotEllipsoidType`` for unbounded members and
    ``NoIntersection`` when the start lies outside.  The state is carried in
    the principal frame, where the member is centred, and the rows are
    converted back together at the end; far from the origin a round trip
    per bounce would add the offset's rounding to every step.
    """
    if not member.is_ellipsoid:
        raise NotEllipsoidType("billiard domain must be an ellipsoid member")
    if bounces < 0:
        raise UsageError("bounces must be non-negative")
    if member.evaluate(start.point) > 1.0 + 1e-9:
        raise NoIntersection("start point lies outside the member")
    pencil, s = member.pencil, member.semiaxes_sq
    states = np.empty((bounces + 1, 2, pencil.dim))
    states[0] = start.point, start.direction
    p, v = pencil.to_principal(start.point), pencil.frame.T @ start.direction
    for i in range(1, bounces + 1):
        p, v = _bounce(p, v, s)
        states[i] = p, v
    # the rows of the points and directions are x^T, so frame @ x is x^T @ frame.T
    moved = states[1:]
    moved[:, 0] = pencil.center + (moved[:, 0] @ pencil.frame.T + pencil.center_residual)
    moved[:, 1] = moved[:, 1] @ pencil.frame.T
    return states


def joachimsthal_2d(member: QuadricMember, ray: Ray) -> tuple[float, float]:
    """Joachimsthal's conserved billiard quantity F in a planar ellipse
    member, and the caustic parameter ``a b F``, measured from the member.

    With the member x^2/a + y^2/b = 1 (a > b > 0) in the principal frame and
    the unit-speed state (x, v) of the original-frame ``ray`` moved there,

        F = v_x^2/a + v_y^2/b - (v_x y - v_y x)^2 / (a b),

    and the line through the state is tangent to the pencil member at
    ``member.lam + a b F``.  Raises ``ValueError`` for a member that is not
    planar and ``NotEllipsoidType`` for a hyperbola.
    """
    pencil = member.pencil
    if pencil.dim != 2:
        raise ValueError("joachimsthal_2d requires a planar member")
    if not member.is_ellipsoid:
        raise NotEllipsoidType("joachimsthal_2d requires an ellipse member")
    local = Ray(pencil.to_principal(ray.point), pencil.frame.T @ ray.direction)
    a, b = member.semiaxes_sq.tolist()
    x, y = local.point
    vx, vy = local.direction
    f = vx * vx / a + vy * vy / b - (vx * y - vy * x) ** 2 / (a * b)
    return float(f), float(a * b * f)


__all__ = [
    "Ray",
    "CausticSet",
    "caustics_of_flat",
    "moment_via_caustics",
    "higher_axial_moments",
    "trajectory",
    "joachimsthal_2d",
]
