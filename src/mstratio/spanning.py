"""Minimum spanning trees, hexagonal-length trees, and filtration forests.

Candidate edges are ranked in ``order_key`` order: (sq_len, sq_len, a, b) for
Euclidean trees and (hex_len, sq_len, a, b) for hexagonal-length trees.  The
order is strict, so the tree is unique and reproducible bit for bit.

One kernel, a vectorized Borůvka over edge ranks, builds every tree.  It is
fed bands of candidates, each continuing a prefix of the order:

* Small clouds and cartesian clouds enumerate all pairs; a band is the pairs
  whose primary measure is at most the (4V)-th smallest, then the (16V)-th
  smallest of the rest, and so on, found by partitioning, not sorting.
* Large lattice clouds enumerate only offsets below a distance cutoff, which
  meet each unordered pair once (on a torus, one residue of each inverse
  pair (s, t), (-s, -t) mod n is an offset); a band is the pairs between the
  previous cutoff and the next, and the cutoff is grown until the tree spans.

By the Kruskal prefix property the forest grown from a prefix is part of the
final tree, so each band starts from the components of the forest so far and
keeps only the pairs that join two of them, and only those are ranked.  The
bands are consecutive key ranges, so their tree edges, concatenated, are in
key order.  Component labels come from the same kernel.

Trees are stored as arrays in key order; ``edges`` builds ``Edge`` objects on
demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lattice
from .errors import InvariantViolation, NotHexagonal
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


@dataclass(frozen=True, eq=False)
class _EdgeArrays:
    """Endpoints a < b, squared lengths and hexagonal lengths (None for
    cartesian clouds) of edges in key order."""

    a: np.ndarray
    b: np.ndarray
    sq: np.ndarray
    hex: np.ndarray | None

    def __post_init__(self):
        for col in (self.a, self.b, self.sq, self.hex):
            if col is not None:
                col.setflags(write=False)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        hx = [None] * len(self.a) if self.hex is None else self.hex.tolist()
        return tuple(map(Edge, self.a.tolist(), self.b.tolist(), self.sq.tolist(), hx))


@dataclass(frozen=True, eq=False)
class SpanningTree(_EdgeArrays):
    point_count: int
    total_length: float
    kind: str = "euclidean"  # "euclidean" | "hex"

    @property
    def edge_count(self) -> int:
        return len(self.a)

    def validate(self) -> None:
        """Acyclic, spanning, and consistent total length, or InvariantViolation."""
        labels = label_components(self.point_count, self.a, self.b)
        parts = int(labels.max()) + 1 if self.point_count else 0
        if self.edge_count > self.point_count - parts:
            raise InvariantViolation("cycle in spanning tree")
        if parts > 1:
            raise InvariantViolation("tree does not span")
        expect = math.fsum(np.sqrt(self.sq).tolist())
        if abs(expect - self.total_length) > 1e-9 * max(1.0, abs(expect)):
            raise InvariantViolation("total length inconsistent")

    def to_json(self) -> dict:
        return {
            "edges": np.column_stack([self.a, self.b]).tolist(),
            "length": self.total_length,
        }


@dataclass(frozen=True, eq=False)
class Forest(_EdgeArrays):
    threshold: int
    components: tuple[tuple[int, ...], ...]

    @property
    def component_count(self) -> int:
        return len(self.components)


# -- MST engines ---------------------------------------------------------------


def _rank(a, b, sq, hx, hex_primary: bool) -> tuple:
    """The candidate arrays (a, b, sq, hx) sorted by the strict key order."""
    order = np.lexsort((b, a, sq, hx) if hex_primary else (b, a, sq))
    return a[order], b[order], sq[order], None if hx is None else hx[order]


def _select(ranked: tuple, pos: np.ndarray) -> tuple:
    return tuple(None if x is None else x[pos] for x in ranked)


def _boruvka(n_points: int, a: np.ndarray, b: np.ndarray, root: np.ndarray):
    """Borůvka over ranked edges, starting from the components of a forest.

    ``root`` maps each vertex to its component's representative.  Each round
    every component hooks onto the far end of its smallest-rank outgoing
    edge; ranks are distinct, so the hooks form trees plus 2-cycles in which
    both components chose the same edge, and the smaller of the two stays the
    root.  Returns the positions of the chosen edges in rank order and the
    new ``root``.
    """
    pos = np.arange(len(a))
    ra, rb = root[a], root[b]
    chosen = np.zeros(len(a), dtype=bool)
    while True:
        cross = ra != rb
        pos, ra, rb = pos[cross], ra[cross], rb[cross]
        m = len(pos)
        if not m:
            break
        best = np.full(n_points, m)
        k = np.arange(m)
        np.minimum.at(best, ra, k)
        np.minimum.at(best, rb, k)
        comp = (best < m).nonzero()[0]  # every component with an outgoing edge
        e = best[comp]
        far = ra[e] + rb[e] - comp
        hook = np.arange(n_points)
        hook[comp] = far
        mutual = (hook[far] == comp) & (comp < far)
        hook[comp[mutual]] = comp[mutual]
        chosen[pos[e]] = True
        up = hook[comp]  # hooks lead from comp to comp, so compress only those
        while True:
            nxt = hook[up]
            if (nxt == up).all():
                break
            hook[comp] = up = nxt
        ra, rb, root = hook[ra], hook[rb], hook[root]
    return chosen.nonzero()[0], root


def _grow(n_points: int, bands, hex_primary: bool) -> tuple:
    """Tree edges (a, b, sq, hx) in key order, grown over bands of candidates
    that are consecutive key ranges.

    Each band keeps only the pairs that join two components of the forest so
    far, and only those are ranked.
    """
    root = np.arange(n_points)
    forest = []  # tree edges of each band, each in key order
    found = 0
    for band in bands:
        if found:
            band = _select(band, root[band[0]] != root[band[1]])
        band = _rank(*band, hex_primary)
        pos, root = _boruvka(n_points, band[0], band[1], root)
        forest.append(_select(band, pos))
        found += len(pos)
        if found >= n_points - 1:
            if len(forest) == 1:
                return forest[0]
            return tuple(None if col[0] is None else np.concatenate(col) for col in zip(*forest))
    raise InvariantViolation("candidate edges ran out before the tree spanned")


def _prefix_bands(n_points: int, a, b, sq, hx, hex_primary: bool):
    """The candidates in bands of consecutive key ranges: those whose primary
    measure is at most the (4V)-th smallest, then at most the (16V)-th
    smallest of the rest, and so on, ties included."""
    cand = (a, b, sq, hx)
    size = 4 * n_points
    while True:
        primary = cand[3] if hex_primary else cand[2]
        if len(primary) <= size:
            yield cand
            return
        low = primary <= np.partition(primary, size - 1)[size - 1]
        yield _select(cand, low)
        cand = _select(cand, ~low)
        size *= 4


def _kruskal(
    n_points: int,
    a: np.ndarray,
    b: np.ndarray,
    sq: np.ndarray,
    hx: np.ndarray | None,
    hex_primary: bool,
) -> list[Edge] | None:
    """Tree edges of the candidate graph in key order, or None if it does not span."""
    try:
        tree = _grow(n_points, _prefix_bands(n_points, a, b, sq, hx, hex_primary), hex_primary)
    except InvariantViolation:
        return None
    return list(_EdgeArrays(*tree).edges)


def _full_pair_arrays(cloud: PointCloud, metric: Metric):
    ia, ib = np.triu_indices(cloud.size, k=1)
    if cloud.coords is None:
        return ia, ib, lattice.pair_sq(cloud, metric, ia, ib), None
    di, dj = lattice._pair_offsets(cloud.coords, ia, ib)
    sq = lattice.offset_sq(cloud.basis, cloud.topology, di, dj)
    return ia, ib, sq, lattice.offset_hex(cloud.topology, di, dj)


def _seed_cutoff(basis: lattice.Basis) -> float:
    """First squared cutoff: 9.5 times the squared length of the shortest
    lattice vector, which is the first vector of the reduced basis."""
    return 9.5 * basis.reduced().sq_offset(1, 0)


def _in_band(cloud: PointCloud, di, dj, sq_cut: float, hex_cut: int | None, floor) -> tuple:
    """The offsets (di, dj, sq, hx) whose primary measure is at most the cutoff
    and above ``floor``, the cutoff of the previous round (-inf in the first
    round), and the mask that picked them."""
    sq = lattice.offset_sq(cloud.basis, cloud.topology, di, dj)
    hx = lattice.offset_hex(cloud.topology, di, dj)
    if hex_cut is not None:
        keep = (hx <= hex_cut) & (hx > floor)
    else:
        keep = (sq <= sq_cut + 1e-9) & (sq > floor + 1e-9)
    return keep, (di, dj, sq, hx)


def _plane_offsets(cloud: PointCloud, sq_cut: float, hex_cut: int | None, floor):
    """Nonzero offsets (half-plane canonical) with measure in the cutoff band."""
    g = cloud.basis.matrix() @ cloud.basis.matrix().T
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
    keep, offs = _in_band(cloud, di[half], dj[half], sq_cut, hex_cut, floor)
    return _select(offs, keep)


def _torus_offsets(cloud: PointCloud, sq_cut: float, hex_cut: int | None, floor):
    """Nonzero residues (s, t) mod n with measure in the cutoff band, one of each
    inverse pair {(s, t), (-s, -t)}: the first in (s, t) order that passes."""
    n = cloud.topology.n
    rng = np.arange(n)
    s, t = np.meshgrid(rng, rng, indexing="ij")
    s = s.ravel()
    t = t.ravel()
    keep, offs = _in_band(cloud, s, t, sq_cut, hex_cut, floor)
    keep[0] = False  # the zero residue
    inv = (-s % n) * n + (-t % n)  # flat index of the inverse residue
    keep &= ~(keep[inv] & (inv < np.arange(n * n)))
    return _select(offs, keep)


def _lattice_candidates(
    cloud: PointCloud, metric: Metric, sq_cut: float, hex_cut, floor: float = -math.inf
):
    """Candidate edges of the cutoff graph, one row per unordered pair, whose
    primary measure lies above ``floor``.

    Every point p looks up p + (s, t) for each offset in a grid that wraps with
    a period per axis.  A torus is its own grid.  A plane cloud, shifted to
    start at 0, sits in a grid of period ptp + 1 + 2·reach per axis, where
    reach is the largest offset component: then no offset wraps onto a point
    or onto its own inverse, so the plane's half-plane offsets meet each pair
    once, as the torus's residues do.  A pair {p, q} differs by the residues
    q - p and p - q, and only one of them is an offset; a self-inverse one
    meets it from both ends, so only the end with nb > idx is kept.
    """
    torus = cloud.topology.is_torus
    offs = (_torus_offsets if torus else _plane_offsets)(cloud, sq_cut, hex_cut, floor)
    if not len(offs[0]):
        return None
    if torus:
        coords, period = cloud.coords, (cloud.topology.n,) * 2
    else:
        reach = int(np.abs(np.concatenate(offs[:2])).max())
        coords = cloud.coords - cloud.coords.min(axis=0)
        period = tuple((coords.max(axis=0) + 1 + 2 * reach).tolist())
    pi, pj = period
    ci, cj = np.ascontiguousarray(coords.T)
    idx = np.arange(cloud.size, dtype=np.int64)
    grid = np.full(period, -1, dtype=np.int64)
    grid[ci, cj] = idx
    pairs = []  # (first ends, second ends) for each offset
    for s, t in zip(offs[0].tolist(), offs[1].tolist()):
        nb = grid[(ci + s) % pi, (cj + t) % pj]
        hit = nb > idx if (2 * s) % pi == 0 and (2 * t) % pj == 0 else nb >= 0
        pairs.append((idx[hit], nb[hit]))
    ia = np.concatenate([p[0] for p in pairs])
    ib = np.concatenate([p[1] for p in pairs])
    counts = [len(p[0]) for p in pairs]
    return (
        np.minimum(ia, ib),
        np.maximum(ia, ib),
        np.repeat(offs[2], counts),
        np.repeat(offs[3], counts),
    )


def _max_sq(cloud: PointCloud) -> float:
    if cloud.topology.is_torus:
        n = cloud.topology.n
        return 4.0 * cloud.basis.sq_offset(n, 0) + 4.0 * cloud.basis.sq_offset(0, n)
    span = cloud.cartesian.max(axis=0) - cloud.cartesian.min(axis=0)
    return float(span[0] ** 2 + span[1] ** 2) + 1.0


def _cutoff_bands(cloud: PointCloud, metric: Metric):
    """Candidates of each cutoff band, the cutoff growing fourfold (hex cutoffs
    twofold) until it exceeds every distance in the cloud."""
    hex_primary = metric.is_hex
    sq_cut = _seed_cutoff(cloud.basis)
    hex_cut = 3 if hex_primary else None
    floor = -math.inf
    sq_max = _max_sq(cloud)
    while True:
        cand = _lattice_candidates(cloud, metric, sq_cut, hex_cut, floor)
        if cand is not None:
            yield cand
        if hex_primary:
            if hex_cut > 2 * (cloud.topology.n or 0) + int(math.isqrt(int(sq_max))) + 2:
                return
            floor, hex_cut = hex_cut, hex_cut * 2
        else:
            if sq_cut > 4 * sq_max:
                return
            floor, sq_cut = sq_cut, sq_cut * 4


def _mst_arrays(cloud: PointCloud, metric: Metric) -> tuple:
    """Tree edges (a, b, sq, hx) in key order."""
    if cloud.coords is None or cloud.size <= _FULL_PAIR_LIMIT:
        bands = _prefix_bands(cloud.size, *_full_pair_arrays(cloud, metric), metric.is_hex)
    else:
        bands = _cutoff_bands(cloud, metric)
    return _grow(cloud.size, bands, metric.is_hex)


def mst(cloud: PointCloud, metric: Metric) -> SpanningTree:
    """Exact minimum spanning tree of the cloud under the metric.

    Hex metrics minimize hexagonal length with Euclidean tie-break;
    ``total_length`` is always the Euclidean total.
    """
    lattice.check_topology(cloud, metric)
    if metric.is_hex and cloud.coords is None:
        raise NotHexagonal("hex trees need lattice coordinates")
    a, b, sq, hx = _mst_arrays(cloud, metric)
    total = math.fsum(np.sqrt(sq).tolist())
    return SpanningTree(
        a, b, sq, hx, cloud.size, total, "hex" if metric.is_hex else "euclidean"
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
    keep = tree.hex <= ell
    a, b = tree.a[keep], tree.b[keep]
    comps = tuple(tuple(g) for g in label_groups(label_components(tree.point_count, a, b)))
    return Forest(a, b, tree.sq[keep], tree.hex[keep], ell, comps)


# -- component labeling ----------------------------------------------------------


def label_components(count: int, a, b) -> np.ndarray:
    """Component label of each of ``count`` vertices in the graph with edges (a, b).

    Labels are 0, 1, ... in the order of each component's smallest vertex.  The
    components come from ``_boruvka`` with the edges ranked in the given order.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    idx = np.arange(count)
    root = _boruvka(count, a, b, idx)[1]
    low = np.full(count, count)
    np.minimum.at(low, root, idx)
    low = low[root]  # the smallest vertex of each vertex's component
    return (np.cumsum(low == idx) - 1)[low]


def label_groups(labels: np.ndarray) -> list[list[int]]:
    """Members of each label 0, 1, ..., in increasing order."""
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [order[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]
