"""Slow, obvious reference implementations for the tests.

Nothing here uses ``mstratio.spanning``: squared pair distances come from
``mstratio.lattice`` (tested on its own), hexagonal lengths from a
wide-window search written here, the tree comes from a plain sort of Python
tuples and a union-find, and component labels from a depth-first search.
"""
from __future__ import annotations

import numpy as np

from mstratio.lattice import Basis, Metric, PointCloud, pair_sq

WINDOW = 4  # torus translates n·(s, t) with |s|, |t| <= WINDOW


def hex_lengths(cloud: PointCloud, ia, ib) -> np.ndarray:
    """Hexagonal lengths max(|i|, |j|, |i + j|) of the pair offsets; on a
    torus of period n, the least over the offset's translates by n·(s, t),
    |s|, |t| <= WINDOW."""
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    di = cloud.coords[ib, 0] - cloud.coords[ia, 0]
    dj = cloud.coords[ib, 1] - cloud.coords[ia, 1]
    n = cloud.topology.n if cloud.topology.is_torus else 0
    window = range(-WINDOW, WINDOW + 1) if n else [0]
    best = None
    for s in window:
        for t in window:
            i, j = di + s * n, dj + t * n
            h = np.maximum(np.maximum(np.abs(i), np.abs(j)), np.abs(i + j))
            best = h if best is None else np.minimum(best, h)
    return best


def window_coords(basis: Basis, r: float) -> np.ndarray:
    """Lattice coordinates (i, j) of the points with cartesian coordinates in
    [-r, r]², sorted by (j, i): every point of the window's bounding box in
    (i, j), widened by one, is measured and masked."""
    minv = np.linalg.inv(basis.matrix().T)
    corners = np.array([[r, r], [r, -r], [-r, r], [-r, -r]], dtype=float)
    ij = corners @ minv.T
    lo = np.floor(ij.min(axis=0)).astype(int) - 1
    hi = np.ceil(ij.max(axis=0)).astype(int) + 1
    ii, jj = np.meshgrid(
        np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1), indexing="ij"
    )
    coords = np.column_stack([ii.ravel(), jj.ravel()])
    cart = coords @ basis.matrix()
    tol = 1e-9
    mask = (np.abs(cart[:, 0]) <= r + tol) & (np.abs(cart[:, 1]) <= r + tol)
    coords = coords[mask]
    return coords[np.lexsort((coords[:, 0], coords[:, 1]))]


def kruskal(cloud: PointCloud, metric: Metric) -> list[tuple]:
    """Minimum spanning tree edges (a, b, sq_len, hex_len) in key order.

    Every pair a < b is an edge.  The order is (hex_len, sq_len, a, b) for hex
    metrics and (sq_len, a, b) otherwise; hex_len is None for cartesian
    clouds.
    """
    v = cloud.size
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    ia = [p[0] for p in pairs]
    ib = [p[1] for p in pairs]
    sq = pair_sq(cloud, Metric.euclidean(cloud.topology), ia, ib)
    if cloud.coords is None:
        hx = [None] * len(pairs)
    else:
        hx = hex_lengths(cloud, ia, ib).tolist()
    edges = list(zip(ia, ib, sq.tolist(), hx))
    if metric.is_hex:
        edges.sort(key=lambda e: (e[3], e[2], e[0], e[1]))
    else:
        edges.sort(key=lambda e: (e[2], e[0], e[1]))

    parent = list(range(v))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for e in edges:
        ra, rb = find(e[0]), find(e[1])
        if ra != rb:
            parent[ra] = rb
            tree.append(e)
    return tree


def component_labels(count: int, edges) -> list[int]:
    """Component label of each vertex, 0, 1, ... in the order of each
    component's smallest vertex."""
    adjacent = [[] for _ in range(count)]
    for x, y in edges:
        adjacent[x].append(y)
        adjacent[y].append(x)
    labels = [-1] * count
    current = 0
    for start in range(count):
        if labels[start] >= 0:
            continue
        labels[start] = current
        stack = [start]
        while stack:
            for y in adjacent[stack.pop()]:
                if labels[y] < 0:
                    labels[y] = current
                    stack.append(y)
        current += 1
    return labels
