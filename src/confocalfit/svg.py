"""Deterministic SVG rendering of 2D fits and the confocal conics through a point.

Fixed 800x600 viewport, isotropic data-driven scaling, conics sampled at 512
points, all coordinates formatted to fixed precision: identical inputs give
byte-identical documents.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .errors import NotPlanar

WIDTH, HEIGHT = 800, 600
PAD = 40.0
CONIC_SAMPLES = 512

_STYLE = (
    ".point{fill:#1f3b70;}"
    ".centroid{fill:#b01c1c;}"
    ".fit-best{stroke:#111111;stroke-width:1.6;}"
    ".fit-worst{stroke:#777777;stroke-width:1.2;stroke-dasharray:6 4;}"
    ".conic-ellipse{stroke:#2a6fb0;fill:none;stroke-width:1.2;}"
    ".conic-hyperbola{stroke:#c23c3c;fill:none;stroke-width:1.2;}"
)


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


class _Frame:
    """Isotropic map from data coordinates to the SVG viewport."""

    def __init__(self, points: np.ndarray):
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = hi - lo
        # points on one axis-parallel line borrow the other axis's span
        span = np.where(span > 0, span, span.max() or 1.0)
        margin = 0.1 * span
        lo = lo - margin
        hi = hi + margin
        scale = min((WIDTH - 2 * PAD) / (hi[0] - lo[0]), (HEIGHT - 2 * PAD) / (hi[1] - lo[1]))
        self.scale = scale
        self.lo = lo
        self.hi = hi
        size = (hi - lo) * scale
        self.offset = np.array(
            [(WIDTH - size[0]) / 2.0, (HEIGHT - size[1]) / 2.0]
        )

    def map(self, xy: np.ndarray) -> np.ndarray:
        xy = np.atleast_2d(xy)
        out = np.empty_like(xy, dtype=float)
        out[:, 0] = self.offset[0] + (xy[:, 0] - self.lo[0]) * self.scale
        out[:, 1] = HEIGHT - self.offset[1] - (xy[:, 1] - self.lo[1]) * self.scale
        return out

    def reach(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))


def _path(points_data: np.ndarray, frame: _Frame, css: str, segments) -> str:
    mapped = frame.map(points_data)
    parts = []
    for seg in segments:
        op = "M"
        for i in seg:
            parts.append(f"{op}{_fmt(mapped[i, 0])} {_fmt(mapped[i, 1])}")
            op = "L"
    return f'<path class="{css}" d="{" ".join(parts)}"/>'


def _clip_line(normal: np.ndarray, offset: float, frame: _Frame):
    """Endpoints of {<n,x>=p} clipped to the framed data rectangle.

    The clip runs in coordinates from the frame's lower corner, where the
    rounding of a point on an edge is relative to the frame's span, not to
    the data's distance from the origin.
    """
    d = np.array([-normal[1], normal[0]])
    span = frame.hi - frame.lo
    q = (offset - normal @ frame.lo) * normal
    tol = 1e-9 * span.max()
    ts = []
    for axis in (0, 1):
        if abs(d[axis]) > 1e-15:
            for bound in (0.0, span[axis]):
                ts.append((bound - q[axis]) / d[axis])
    if not ts:
        return None
    pts = [q + t * d for t in ts]
    inside = [p for p in pts if np.all((-tol <= p) & (p <= span + tol))]
    if len(inside) < 2:
        return None
    inside.sort(key=lambda p: (p[0], p[1]))
    return frame.lo + inside[0], frame.lo + inside[-1]


def _line_element(normal, offset, frame: _Frame, css: str) -> str:
    clipped = _clip_line(np.asarray(normal, dtype=float), float(offset), frame)
    if clipped is None:
        return ""
    a = frame.map(clipped[0])[0]
    b = frame.map(clipped[1])[0]
    return (
        f'<line class="{css}" x1="{_fmt(a[0])}" y1="{_fmt(a[1])}"'
        f' x2="{_fmt(b[0])}" y2="{_fmt(b[1])}"/>'
    )


def _conics_through(report: dict, frame: _Frame) -> list[str]:
    pencil = report["pencil"]
    center = np.asarray(pencil["center"], dtype=float)
    axes = np.asarray(pencil["frame"], dtype=float)
    poles = np.asarray(pencil["poles"], dtype=float)
    lambdas = report["jacobi"]["lambdas"]
    out = []
    for lam in lambdas:
        s = poles - lam
        if s[0] > 0 and s[1] > 0:
            t = np.linspace(0.0, 2 * np.pi, CONIC_SAMPLES, endpoint=False)
            local = np.column_stack([np.sqrt(s[0]) * np.cos(t), np.sqrt(s[1]) * np.sin(t)])
            pts = center + local @ axes.T
            out.append(_path(pts, frame, "conic-ellipse", [range(CONIC_SAMPLES)]))
        elif s[0] > 0 > s[1]:
            reach = max(frame.reach() / np.sqrt(s[0]), 1.5)
            tmax = float(np.arccosh(reach))
            half = CONIC_SAMPLES // 2
            t = np.linspace(-tmax, tmax, half)
            branches = []
            for sign in (1.0, -1.0):
                local = np.column_stack(
                    [sign * np.sqrt(s[0]) * np.cosh(t), np.sqrt(-s[1]) * np.sinh(t)]
                )
                branches.append(center + local @ axes.T)
            pts = np.vstack(branches)
            out.append(
                _path(pts, frame, "conic-hyperbola", [range(half), range(half, 2 * half)])
            )
    return out


def emit_svg(report: dict, dataset: Dataset) -> str:
    """Render scatter, centroid, fitted lines and any confocal conics of a report."""
    if dataset.n_cols != 2:
        raise NotPlanar("SVG rendering supports two-dimensional data only")
    pts = dataset.values
    anchors = [pts]
    if "pencil" in report:
        anchors.append(np.asarray(report["pencil"]["center"], dtype=float)[None, :])
    if "jacobi" in report:
        anchors.append(np.asarray(report["jacobi"]["point"], dtype=float)[None, :])
    frame = _Frame(np.vstack(anchors))

    body: list[str] = []
    if "jacobi" in report and "pencil" in report:
        body.extend(_conics_through(report, frame))
    for fit in report.get("fits", []):
        if fit.get("normal") is None:
            continue
        css = "fit-best" if fit["role"] == "best" else "fit-worst"
        element = _line_element(fit["normal"], fit["offset"], frame, css)
        if element:
            body.append(element)
    for row in frame.map(pts):
        body.append(
            f'<circle class="point" cx="{_fmt(row[0])}" cy="{_fmt(row[1])}" r="4"/>'
        )
    if "pencil" in report:
        c = frame.map(np.asarray(report["pencil"]["center"], dtype=float))[0]
        body.append(
            f'<circle class="centroid" cx="{_fmt(c[0])}" cy="{_fmt(c[1])}" r="5"/>'
        )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"'
        f' viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<style>{_STYLE}</style>",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
