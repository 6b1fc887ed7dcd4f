"""Billiards inside pencil members, caustics, and moment-invariance laws.

A generic l-dimensional flat is tangent to exactly k-l members of the
confocal family.  Their parameters are computed exactly as the eigenvalues
of the compressed symmetric matrix ``U^T (diag(poles) - p p^T) U``, where U
spans the orthogonal complement of the flat's direction space and p is any
point of the flat (the matrix does not depend on the choice).  Summing the
tangent moments ``2 J_1 - m lambda`` over the caustics reproduces the
l-planar moment of the flat, and billiard reflection preserves the caustic
set, which yields the conservation laws checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFlat,
    InvalidSemiaxes,
    NoIntersection,
    NotEllipsoidType,
)
from .geometry import FlatSubspace, _as_vector, _store
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
        nrm = float(np.linalg.norm(d))
        if nrm == 0.0:
            raise ValueError("ray direction must be nonzero")
        _store(self, "direction", d / nrm)

    def line(self) -> FlatSubspace:
        return FlatSubspace(self.point, self.direction[:, None])


@dataclass(frozen=True)
class CausticSet:
    """Sorted tangency parameters of an l-flat (k-l of them)."""

    lambdas: np.ndarray

    def __post_init__(self) -> None:
        _store(self, "lambdas", self.lambdas)


def _complement_basis(v: np.ndarray) -> np.ndarray:
    k, ell = v.shape
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(k)]))
    return q[:, ell:k]


def _tangency_parameters(poles: np.ndarray, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Eigenvalue form of the tangency condition; ``v`` has orthonormal columns."""
    u = _complement_basis(v)
    compressed = u.T @ (np.diag(poles) - np.outer(p, p)) @ u
    return np.sort(np.linalg.eigvalsh(compressed))


def caustics_of_flat(pencil: ConfocalPencil, flat: FlatSubspace) -> CausticSet:
    """The k-l members tangent to the flat.

    Raises ``DegenerateFlat`` when the tangency parameters are not simple
    roots (the flat meets the focal structure).  Parameters that collide
    with a pole are legitimate: the caustic degenerates to a principal
    coordinate hyperplane, as happens for principal axes.
    """
    p = pencil.to_principal(flat.base_point)
    v = pencil.frame.T @ flat.basis
    lam = _tangency_parameters(pencil.poles, p, v)
    scale = max(1.0, float(np.abs(pencil.poles).max()), float(np.abs(lam).max()))
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
    if a == 0.0 or disc <= 0.0:
        raise NoIntersection("ray does not meet the member")
    root = np.sqrt(disc)
    t = max((-b - root) / (2 * a), (-b + root) / (2 * a))
    if t <= _ESCAPE_T:
        raise NoIntersection("no forward intersection with the member")
    impact = p + t * v
    normal = impact / s
    normal = normal / np.linalg.norm(normal)
    v_out = v - 2.0 * float(v @ normal) * normal
    return impact, v_out / np.linalg.norm(v_out)


def reflect(ray: Ray, member: QuadricMember) -> Ray:
    """Billiard reflection of a ray off a pencil member.

    The impact point is the forward intersection of the ray with the member
    (largest parameter beyond a small escape threshold, so a ray starting on
    the boundary leaves its current impact point); the direction is mirrored
    across the tangent hyperplane, preserving unit speed.
    """
    pencil = member.pencil
    impact, v_out = _bounce(
        pencil.to_principal(ray.point), pencil.frame.T @ ray.direction, member.semiaxes_sq
    )
    return Ray(pencil.from_principal(impact), pencil.frame @ v_out)


def trajectory(member: QuadricMember, start: Ray, bounces: int) -> list[Ray]:
    """Billiard trajectory inside an ellipsoid-type member.

    Returns ``bounces + 1`` rays: the starting ray followed by the state
    after each reflection.  Raises ``NotEllipsoidType`` for unbounded
    members and ``NoIntersection`` when the start lies outside.  The state
    is carried in the principal frame, where the member is centred, and
    each reported ray is converted back once; far from the origin a round
    trip per bounce would add the offset's rounding to every step.
    """
    if not member.is_ellipsoid:
        raise NotEllipsoidType("billiard domain must be an ellipsoid member")
    if bounces < 0:
        raise ValueError("bounces must be non-negative")
    if member.evaluate(start.point) > 1.0 + 1e-9:
        raise NoIntersection("start point lies outside the member")
    pencil, s = member.pencil, member.semiaxes_sq
    p, v = pencil.to_principal(start.point), pencil.frame.T @ start.direction
    rays = [start]
    for _ in range(bounces):
        p, v = _bounce(p, v, s)
        rays.append(Ray(pencil.from_principal(p), pencil.frame @ v))
    return rays


def joachimsthal_2d(semiaxes_sq, ray: Ray) -> tuple[float, float]:
    """Conserved billiard quantity in the ellipse x^2/a + y^2/b = 1, plus the
    caustic parameter it encodes.

    For a unit-speed state (x, v) the invariant is

        F = v_x^2/a + v_y^2/b - (v_x y - v_y x)^2 / (a b),

    and the line through the state is tangent to the confocal conic with
    parameter ``lambda_0 = a b F``.
    """
    a, b = (float(t) for t in semiaxes_sq)
    if not (a > b > 0):
        raise InvalidSemiaxes("need ellipse semiaxes a > b > 0")
    if ray.point.shape[0] != 2:
        raise ValueError("joachimsthal_2d requires a planar ray")
    x, y = ray.point
    vx, vy = ray.direction
    f = vx * vx / a + vy * vy / b - (vx * y - vy * x) ** 2 / (a * b)
    return float(f), float(a * b * f)


__all__ = [
    "Ray",
    "CausticSet",
    "caustics_of_flat",
    "moment_via_caustics",
    "higher_axial_moments",
    "reflect",
    "trajectory",
    "joachimsthal_2d",
]
