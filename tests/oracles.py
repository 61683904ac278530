"""Slow, obvious reference implementations for the tests.

Nothing here uses ``mstratio.spanning``: pair distances come from
``mstratio.lattice`` (tested on its own), the tree comes from a plain sort
of Python tuples and a union-find, and component labels from a depth-first
search.
"""
from __future__ import annotations

from mstratio.lattice import Metric, PointCloud, pair_hex, pair_sq


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
    torus = metric.requires_torus
    sq = pair_sq(cloud, Metric.EUCLIDEAN_TORUS if torus else Metric.EUCLIDEAN_PLANE, ia, ib)
    if cloud.coords is None:
        hx = [None] * len(pairs)
    else:
        hx = pair_hex(cloud, Metric.HEX_TORUS if torus else Metric.HEX_PLANE, ia, ib).tolist()
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
