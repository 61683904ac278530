"""Minimum spanning trees, hexagonal-length trees, and filtration forests.

One deterministic Kruskal implementation serves every metric.  Edges are
consumed in ``order_key`` order: (sq_len, sq_len, a, b) for Euclidean trees and
(hex_len, sq_len, a, b) for hexagonal-length trees, so the edge set is
reproducible bit-for-bit.  Small clouds enumerate all pairs; large lattice
clouds enumerate only offsets below a distance cutoff that is grown until the
candidate graph spans (the Kruskal prefix of a spanning threshold graph is the
exact MST).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice
from .errors import InvariantViolation, NotHexagonal, TopologyMismatch
from .lattice import Metric, PointCloud

_FULL_PAIR_LIMIT = 420  # below this, all pairs are enumerated directly


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    sq_len: float
    hex_len: int | None = None

    @property
    def length(self) -> float:
        return math.sqrt(self.sq_len)

    def order_key(self, hex_primary: bool = False) -> tuple:
        if hex_primary:
            return (self.hex_len, self.sq_len, self.a, self.b)
        return (self.sq_len, self.sq_len, self.a, self.b)


@dataclass(frozen=True)
class SpanningTree:
    edges: tuple[Edge, ...]
    point_count: int
    total_length: float
    kind: str = "euclidean"  # "euclidean" | "hex"

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def validate(self) -> None:
        """Acyclic, spanning, and consistent total length, or InvariantViolation."""
        labels = label_components(
            self.point_count, [e.a for e in self.edges], [e.b for e in self.edges]
        )
        parts = int(labels.max()) + 1 if self.point_count else 0
        if len(self.edges) > self.point_count - parts:
            raise InvariantViolation("cycle in spanning tree")
        if parts > 1:
            raise InvariantViolation("tree does not span")
        expect = math.fsum(e.length for e in self.edges)
        if abs(expect - self.total_length) > 1e-9 * max(1.0, abs(expect)):
            raise InvariantViolation("total length inconsistent")

    def to_json(self) -> dict:
        return {
            "edges": [[e.a, e.b] for e in self.edges],
            "length": self.total_length,
        }


@dataclass(frozen=True)
class Forest:
    threshold: int
    components: tuple[tuple[int, ...], ...]
    edges: tuple[Edge, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)


# -- Kruskal core ------------------------------------------------------------


def _kruskal(
    n_points: int,
    a: np.ndarray,
    b: np.ndarray,
    sq: np.ndarray,
    hx: np.ndarray | None,
    hex_primary: bool,
) -> list[Edge] | None:
    """Run Kruskal over the candidate edges; None if the graph does not span."""
    if hex_primary:
        order = np.lexsort((b, a, sq, hx))
    else:
        order = np.lexsort((b, a, sq))
    a_l = a[order].tolist()
    b_l = b[order].tolist()
    sq_l = sq[order].tolist()
    hx_l = hx[order].tolist() if hx is not None else None

    parent = list(range(n_points))
    size = [1] * n_points
    chosen: list[Edge] = []
    need = n_points - 1

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in range(len(a_l)):
        ra = find(a_l[k])
        rb = find(b_l[k])
        if ra == rb:
            continue
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        chosen.append(
            Edge(a_l[k], b_l[k], sq_l[k], None if hx_l is None else int(hx_l[k]))
        )
        if len(chosen) == need:
            return chosen
    return chosen if len(chosen) == need else None


def _canonical_pairs(ia: np.ndarray, ib: np.ndarray):
    lo = np.minimum(ia, ib)
    hi = np.maximum(ia, ib)
    return lo, hi


def _full_pair_arrays(cloud: PointCloud, metric: Metric):
    v = cloud.size
    ia, ib = np.triu_indices(v, k=1)
    sq = lattice.pair_sq(cloud, _euclid_of(metric), ia, ib)
    hx = None
    if cloud.coords is not None:
        hx = lattice.pair_hex(cloud, _hex_of(metric, cloud), ia, ib)
    return ia.astype(np.int64), ib.astype(np.int64), sq, hx


def _euclid_of(metric: Metric) -> Metric:
    return Metric.EUCLIDEAN_TORUS if metric.requires_torus else Metric.EUCLIDEAN_PLANE


def _hex_of(metric: Metric, cloud: PointCloud) -> Metric:
    return Metric.HEX_TORUS if metric.requires_torus else Metric.HEX_PLANE


def _min_basis_sq(basis: lattice.Basis) -> float:
    best = math.inf
    for di in range(-3, 4):
        for dj in range(-3, 4):
            if di == 0 and dj == 0:
                continue
            best = min(best, basis.sq_offset(di, dj))
    return best


def _plane_offsets(basis: lattice.Basis, sq_cut: float, hex_cut: int | None):
    """Nonzero offsets (half-plane canonical) with measure below the cutoff."""
    g = basis.matrix() @ basis.matrix().T
    tr = g[0, 0] + g[1, 1]
    disc = math.sqrt((g[0, 0] - g[1, 1]) ** 2 + 4 * g[0, 1] ** 2)
    lam_min = max((tr - disc) / 2.0, 1e-12)
    if hex_cut is not None:
        m = int(hex_cut) + 1
    else:
        m = int(math.ceil(math.sqrt(sq_cut / lam_min))) + 1
    rng = np.arange(-m, m + 1)
    di, dj = np.meshgrid(rng, rng, indexing="ij")
    di = di.ravel()
    dj = dj.ravel()
    half = (dj > 0) | ((dj == 0) & (di > 0))
    di, dj = di[half], dj[half]
    sq = basis.sq_offset_arr(di, dj)
    hx = lattice.hex_distance_arr(di, dj)
    keep = hx <= hex_cut if hex_cut is not None else sq <= sq_cut + 1e-9
    return di[keep], dj[keep], sq[keep], hx[keep]


def _torus_offsets(basis: lattice.Basis, n: int, sq_cut: float, hex_cut: int | None):
    rng = np.arange(n)
    s, t = np.meshgrid(rng, rng, indexing="ij")
    s = s.ravel()
    t = t.ravel()
    nz = (s != 0) | (t != 0)
    s, t = s[nz], t[nz]
    sq = lattice._torus_sq_arr(basis, n, s, t)
    hx = lattice._torus_hex_arr(n, s, t)
    keep = hx <= hex_cut if hex_cut is not None else sq <= sq_cut + 1e-9
    return s[keep], t[keep], sq[keep], hx[keep]


def _lattice_candidates(cloud: PointCloud, metric: Metric, sq_cut: float, hex_cut):
    """Candidate edges of the cutoff graph, one row per unordered pair."""
    coords = cloud.coords
    if cloud.topology.is_torus:
        n = cloud.topology.n
        offs = _torus_offsets(cloud.basis, n, sq_cut, hex_cut)
        grid = np.full((n, n), -1, dtype=np.int64)
        grid[coords[:, 0], coords[:, 1]] = np.arange(cloud.size)
        pieces = []
        idx = np.arange(cloud.size, dtype=np.int64)
        for s, t, sq, hx in zip(*offs):
            ni = (coords[:, 0] + s) % n
            nj = (coords[:, 1] + t) % n
            nb = grid[ni, nj]
            ok = nb >= 0
            lo, hi = _canonical_pairs(idx[ok], nb[ok])
            pieces.append(
                (lo, hi, np.full(len(lo), sq), np.full(len(lo), hx, dtype=np.int64))
            )
        if not pieces:
            return None
        a = np.concatenate([p[0] for p in pieces])
        b = np.concatenate([p[1] for p in pieces])
        sq = np.concatenate([p[2] for p in pieces])
        hx = np.concatenate([p[3] for p in pieces])
        key = a * cloud.size + b
        _, first = np.unique(key, return_index=True)
        return a[first], b[first], sq[first], hx[first]

    offs = _plane_offsets(cloud.basis, sq_cut, hex_cut)
    imin, jmin = coords.min(axis=0)
    imax, jmax = coords.max(axis=0)
    grid = np.full((imax - imin + 1, jmax - jmin + 1), -1, dtype=np.int64)
    grid[coords[:, 0] - imin, coords[:, 1] - jmin] = np.arange(cloud.size)
    pieces = []
    idx = np.arange(cloud.size, dtype=np.int64)
    for di, dj, sq, hx in zip(*offs):
        ni = coords[:, 0] + di
        nj = coords[:, 1] + dj
        ok = (ni >= imin) & (ni <= imax) & (nj >= jmin) & (nj <= jmax)
        nb = grid[ni[ok] - imin, nj[ok] - jmin]
        hit = nb >= 0
        lo, hi = _canonical_pairs(idx[ok][hit], nb[hit])
        pieces.append(
            (lo, hi, np.full(len(lo), sq), np.full(len(lo), hx, dtype=np.int64))
        )
    if not pieces:
        return None
    a = np.concatenate([p[0] for p in pieces])
    b = np.concatenate([p[1] for p in pieces])
    sq = np.concatenate([p[2] for p in pieces])
    hx = np.concatenate([p[3] for p in pieces])
    return a, b, sq, hx


def _max_sq(cloud: PointCloud) -> float:
    if cloud.topology.is_torus:
        n = cloud.topology.n
        return 4.0 * cloud.basis.sq_offset(n, 0) + 4.0 * cloud.basis.sq_offset(0, n)
    span = cloud.cartesian.max(axis=0) - cloud.cartesian.min(axis=0)
    return float(span[0] ** 2 + span[1] ** 2) + 1.0


def _mst_edges(cloud: PointCloud, metric: Metric) -> list[Edge]:
    v = cloud.size
    if v <= 1:
        return []
    if cloud.coords is None or v <= _FULL_PAIR_LIMIT:
        a, b, sq, hx = _full_pair_arrays(cloud, metric)
        edges = _kruskal(v, a, b, sq, hx, metric.is_hex)
        if edges is None:
            raise InvariantViolation("complete graph failed to span")
        return edges
    # cutoff graph with growth; exact by the Kruskal prefix property
    sq_cut = 9.5 * _min_basis_sq(cloud.basis)
    hex_cut = 3 if metric.is_hex else None
    sq_max = _max_sq(cloud)
    while True:
        cand = _lattice_candidates(
            cloud, metric, sq_cut, hex_cut if metric.is_hex else None
        )
        if cand is not None:
            edges = _kruskal(v, cand[0], cand[1], cand[2], cand[3], metric.is_hex)
            if edges is not None:
                return edges
        if metric.is_hex:
            if hex_cut > 2 * (cloud.topology.n or 0) + int(math.isqrt(int(sq_max))) + 2:
                raise InvariantViolation("hex cutoff growth failed to span")
            hex_cut *= 2
        else:
            if sq_cut > 4 * sq_max:
                raise InvariantViolation("cutoff growth failed to span")
            sq_cut *= 4


def mst(cloud: PointCloud, metric: Metric) -> SpanningTree:
    """Exact minimum spanning tree of the cloud under the metric.

    Hex metrics minimize hexagonal length with Euclidean tie-break;
    ``total_length`` is always the Euclidean total.
    """
    if metric.requires_torus and not cloud.topology.is_torus:
        raise TopologyMismatch("torus metric on a plane cloud")
    if metric.is_hex and cloud.coords is None:
        raise NotHexagonal("hex trees need lattice coordinates")
    edges = _mst_edges(cloud, metric)
    total = math.fsum(math.sqrt(e.sq_len) for e in edges)
    return SpanningTree(
        tuple(edges), cloud.size, total, "hex" if metric.is_hex else "euclidean"
    )


def hex_mst(cloud: PointCloud) -> SpanningTree:
    """Spanning tree minimizing hexagonal length, ties by Euclidean length then index."""
    if not cloud.basis.is_hexagonal:
        raise NotHexagonal("hex_mst requires the unit hexagonal basis")
    return mst(cloud, Metric.hexagonal(cloud.topology))


def filtered_forest(tree: SpanningTree, ell: int) -> Forest:
    """Forest of tree edges with hexagonal length at most ell.

    By the Kruskal prefix property its components equal the components of the
    full hex-distance-<= ell graph on the same points.
    """
    if tree.kind != "hex":
        raise ValueError("filtered_forest expects a tree built by hex_mst")
    kept = tuple(e for e in tree.edges if e.hex_len is not None and e.hex_len <= ell)
    labels = label_components(tree.point_count, [e.a for e in kept], [e.b for e in kept])
    comps = tuple(tuple(g) for g in label_groups(labels))
    return Forest(ell, comps, kept)


# -- component labeling ----------------------------------------------------------


def label_components(count: int, a, b) -> np.ndarray:
    """Component label of each of ``count`` vertices in the graph with edges (a, b).

    Labels are 0, 1, ... in the order of each component's smallest vertex.  Each
    round hooks every root joined to a smaller root onto the smallest such
    root, then compresses paths until every vertex points at a root; a root
    never points above itself, so the final root of a component is its
    smallest vertex.
    """
    root = np.arange(count, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    while True:
        ra, rb = root[a], root[b]
        cross = ra != rb
        if not cross.any():
            break
        a, b = a[cross], b[cross]  # an edge inside one component stays inside
        np.minimum.at(
            root, np.maximum(ra[cross], rb[cross]), np.minimum(ra[cross], rb[cross])
        )
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
    return np.unique(root, return_inverse=True)[1]


def label_groups(labels: np.ndarray) -> list[list[int]]:
    """Members of each label 0, 1, ..., in increasing order."""
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [order[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]
