"""Deterministic SVG figures: colored points, class trees, thickening fills.

A fixed scale of 72 SVG units per lattice step keeps figures from different
runs overlayable; all numbers are written with a fixed format so a given
configuration renders byte-identically.
"""
from __future__ import annotations

import math

import numpy as np

from . import lattice, spanning
from .constructions import Coloring
from .lattice import Metric, PointCloud

SCALE = 72.0
MARGIN = 54.0
POINT_RADIUS = 7.0

CLASS_FILLS = ("#4878cf", "#ffffff", "#d65f5f", "#6acc65")
THICKEN_FILLS = {1: "#bcd2ee", 2: "#f6c8dc"}

_HEX_CORNERS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def _f(x: float) -> str:
    out = f"{x:.3f}"
    return "0.000" if out == "-0.000" else out


class SvgCanvas:
    def __init__(self):
        self.elements: list[str] = []
        self.min_x = self.min_y = math.inf
        self.max_x = self.max_y = -math.inf

    def _touch(self, x: float, y: float):
        self.min_x = min(self.min_x, x)
        self.max_x = max(self.max_x, x)
        self.min_y = min(self.min_y, y)
        self.max_y = max(self.max_y, y)

    def line(self, a, b, stroke: str, width: float):
        self._touch(*a)
        self._touch(*b)
        self.elements.append(
            f'<line x1="{_f(a[0])}" y1="{_f(a[1])}" x2="{_f(b[0])}" y2="{_f(b[1])}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"/>'
        )

    def circle(self, c, r: float, fill: str, stroke: str = "#000000"):
        self._touch(c[0] - r, c[1] - r)
        self._touch(c[0] + r, c[1] + r)
        self.elements.append(
            f'<circle cx="{_f(c[0])}" cy="{_f(c[1])}" r="{_f(r)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1.5"/>'
        )

    def polygon(self, pts, fill: str, stroke: str = "none"):
        for p in pts:
            self._touch(*p)
        body = " ".join(f"{_f(x)},{_f(y)}" for x, y in pts)
        self.elements.append(f'<polygon points="{body}" fill="{fill}" stroke="{stroke}"/>')

    def to_svg(self) -> str:
        if not self.elements:
            self.min_x = self.min_y = 0.0
            self.max_x = self.max_y = 1.0
        w = self.max_x - self.min_x + 2 * MARGIN
        h = self.max_y - self.min_y + 2 * MARGIN
        tx = MARGIN - self.min_x
        ty = MARGIN - self.min_y
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(w)}" height="{_f(h)}" '
            f'viewBox="0 0 {_f(w)} {_f(h)}">\n'
            f'<rect width="{_f(w)}" height="{_f(h)}" fill="#ffffff"/>\n'
            f'<g transform="translate({_f(tx)},{_f(ty)})">\n'
        )
        return head + "\n".join(self.elements) + "\n</g>\n</svg>\n"


def _positions(cloud: PointCloud) -> np.ndarray:
    # SVG y grows downward; flip so figures match the usual orientation.
    pts = cloud.cartesian * SCALE
    return np.column_stack([pts[:, 0], -pts[:, 1]])


def _edge_segment(cloud: PointCloud, a: int, b: int) -> tuple:
    """Endpoints of an edge, mapping b to its nearest torus image of a."""
    pa = cloud.cartesian[a]
    pb = cloud.cartesian[b]
    if cloud.topology.is_torus:
        di, dj = cloud.coords[b] - cloud.coords[a]
        ci, cj = lattice.nearest_image(cloud.basis, cloud.topology.n, np.array([di]), np.array([dj]))
        pb = pa + np.array([ci[0], cj[0]]) @ cloud.basis.reduced().matrix()
    return (pa * SCALE)[0], -(pa * SCALE)[1], (pb * SCALE)[0], -(pb * SCALE)[1]


def render_svg(
    cloud: PointCloud,
    coloring: Coloring | None,
    metric: Metric,
    thicken: int | None = None,
) -> str:
    """Figure with per-class trees; optional hexagon fills for levels 1..thicken."""
    canvas = SvgCanvas()
    pos = _positions(cloud)

    if thicken is not None and coloring is not None:
        if cloud.coords is None:
            raise ValueError("thickening fills need lattice coordinates")
        blue = coloring.class_indices(0)
        for k in sorted(range(1, thicken + 1), reverse=True):
            fill = THICKEN_FILLS.get(k, "#e8e8e8")
            for p in blue:
                ci, cj = cloud.coords[p]
                corners = []
                for di, dj in _HEX_CORNERS:
                    x, y = (
                        np.array([ci + k * di, cj + k * dj], dtype=float)
                        @ cloud.basis.matrix()
                    ) * SCALE
                    corners.append((x, -y))
                canvas.polygon(corners, fill)

    if coloring is None:
        strokes = [(np.arange(cloud.size), "#555555")]
    else:
        fills = [CLASS_FILLS[c % len(CLASS_FILLS)] for c in range(coloring.arity)]
        strokes = [
            (coloring.class_indices(c), "#888888" if fill == "#ffffff" else fill)
            for c, fill in enumerate(fills)
        ]
    for idx, stroke in strokes:
        tree = spanning.mst(cloud.subset(idx), metric)
        for e in tree.edges:
            x1, y1, x2, y2 = _edge_segment(cloud, int(idx[e.a]), int(idx[e.b]))
            canvas.line((x1, y1), (x2, y2), stroke, 3.0)

    labels = coloring.labels if coloring is not None else [0] * cloud.size
    for p in range(cloud.size):
        fill = CLASS_FILLS[labels[p] % len(CLASS_FILLS)]
        canvas.circle((pos[p, 0], pos[p, 1]), POINT_RADIUS, fill)
    return canvas.to_svg()
