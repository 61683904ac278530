"""Slow, obvious reference implementations for the tests.

Nothing here uses ``mstratio.spanning``: pair distances come from
``mstratio.lattice`` (tested on its own), and the tree comes from a plain
sort of Python tuples and a union-find.
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
