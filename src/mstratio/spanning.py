"""Minimum spanning trees, hexagonal-length trees, and filtration forests.

Candidate edges are ranked in ``order_key`` order: (sq_len, sq_len, a, b) for
Euclidean trees and (hex_len, sq_len, a, b) for hexagonal-length trees.  The
order is strict, so the tree is unique and reproducible bit for bit.

One kernel, a vectorized Borůvka over edge ranks, builds every tree.  It is
fed bands of candidates, each continuing a prefix of the order:

* Small clouds and cartesian clouds enumerate all pairs; a band is the pairs
  whose primary measure is at most the (4V)-th smallest, then the (16V)-th
  smallest of the rest, and so on, found by partitioning, not sorting.  A
  torus offset's measures depend only on its residue mod n, so a torus cloud
  with at least n² pairs gathers them from a table of all n² residues,
  measured once per basis and period and cached.
* Large lattice clouds enumerate only offsets below a distance cutoff, which
  meet each unordered pair once (on a torus, one residue of each inverse
  pair (s, t), (-s, -t) mod n is an offset).  One enumerator serves plane and
  torus: it measures a box of offsets that holds every one within the cutoff,
  clipped to the cloud's spreads on the plane and taken mod n on a torus.  A
  round takes the pairs between the previous cutoff and the next, one band
  per measure class, and the cutoff is grown until the tree spans, which it
  does at the latest once the cutoff reaches the largest measure an offset of
  the cloud can have, taken at the corners of the box of its coordinate
  spreads on the plane and of [-n/2, n/2]² on a torus; that bound is measured
  only when a round ends without the tree spanning.  Bands are generated
  lazily, so no class after the one that completes the tree is looked up.

By the Kruskal prefix property the forest grown from a prefix is part of the
final tree, so each band starts from the components of the forest so far and
keeps only the pairs that join two of them, and only those are ranked.  The
bands are consecutive key ranges, so their tree edges, concatenated, are in
key order.  Component labels come from the same kernel.

Cutoff bands are filtered where they are generated: after each band the
tree sends its forest into the band generator (``send(root)``), and the next
class band drops its rows inside one component and, with c components and
at least c² rows left, keeps only the least row of each pair of components
(Borůvka contraction) before any key is sorted.  Plain iteration sends None
and yields every row.

Ranking is a stable sort by measure alone, because every band's rows arrive
in (a, b) order within each measure: prefix bands come from all pairs in
(a, b) order and boolean masks keep that order, and a cutoff band, one
measure class, is emitted in key order by one sort of int64 keys that pack
(measure class, a, b), so it is not ranked again.

Trees are stored as arrays in key order; ``edges`` builds ``Edge`` objects on
demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import lattice
from .errors import InvariantViolation, NotHexagonal, TooLarge
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
    """The candidate arrays (a, b, sq, hx) sorted by the strict key order.

    Rows must arrive in (a, b) order within each measure, so that a stable
    sort by measure alone completes the order.
    """
    order = np.lexsort((sq, hx)) if hex_primary else np.argsort(sq, kind="stable")
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
    if not len(a):  # no edge, as in a class band whose pairs all lie in one component
        return a, root
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


def _grow(n_points: int, bands, hex_primary: bool, ranked: bool = False) -> tuple:
    """Tree edges (a, b, sq, hx) in key order, grown over bands of candidates
    that are consecutive key ranges.

    After each band the forest so far goes back to the band generator as
    ``bands.send(root)``.  Unless the bands arrive ``ranked`` (in key order,
    and filtered by that forest, as cutoff bands do), each band keeps only
    the pairs that join two components of the forest, and only those are
    ranked.
    """
    root = np.arange(n_points)
    forest = []  # tree edges of each band, each in key order
    found = 0
    band = next(bands, None)
    while band is not None:
        if not ranked:
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
        try:
            band = bands.send(root)
        except StopIteration:
            band = None
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


@lru_cache(maxsize=4)
def _pair_index(v: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair a < b of ``v`` points in (a, b) order, as ``np.triu_indices(v,
    k=1)`` gives them; read-only and cached per size."""
    counts = np.arange(v - 1, -1, -1)
    first = np.arange(v)
    pairs = np.repeat(first, counts), lattice._runs(first + 1, counts)
    for side in pairs:
        side.setflags(write=False)
    return pairs


@lru_cache(maxsize=16)
def _residue_measures(basis: lattice.Basis, topology: lattice.Topology) -> tuple:
    """Squared and hexagonal lengths of every residue (s, t) of the torus, at
    flat index s·n + t; read-only and cached per torus.

    Both depend only on the residue: ``nearest_image`` reduces the offset mod
    n first, and ``offset_hex`` is the torus norm for |di|, |dj| < n.
    """
    n = topology.n
    s, t = np.divmod(np.arange(n * n), n)
    measures = lattice.offset_sq(basis, topology, s, t), lattice.offset_hex(topology, s, t)
    for col in measures:
        col.setflags(write=False)
    return measures


def _full_pair_arrays(cloud: PointCloud, metric: Metric):
    """Every pair a < b with its measures (a, b, sq, hx).  A torus with no
    more residues than pairs gathers them from its residue table."""
    ia, ib = _pair_index(cloud.size)
    if cloud.coords is None:
        return ia, ib, lattice.pair_sq(cloud, metric, ia, ib), None
    di, dj = lattice._pair_offsets(cloud.coords, ia, ib)
    topology, n = cloud.topology, cloud.topology.n
    if topology.is_torus and n * n <= len(ia):
        sq, hx = _residue_measures(cloud.basis, topology)
        flat = di % n * n + dj % n
        return ia, ib, sq[flat], hx[flat]
    sq = lattice.offset_sq(cloud.basis, topology, di, dj)
    return ia, ib, sq, lattice.offset_hex(topology, di, dj)


def _seed_cutoff(basis: lattice.Basis) -> float:
    """First squared cutoff: 9.5 times the squared length of the shortest
    lattice vector, which is the first vector of the reduced basis."""
    return 9.5 * basis.reduced().sq_offset(1, 0)


def _offsets(cloud: PointCloud, sq_cut: float, hex_cut: int | None, floor) -> tuple:
    """Nonzero offsets (di, dj, sq, hx) with primary measure at most the cutoff
    and above ``floor``, the cutoff of the previous round (-inf in the first),
    one of each inverse pair: half-plane canonical on the plane, on a torus
    the residue (s, t) mod n whose flat index s·n + t is the smaller.

    They come from one box: |di|, |dj| <= hex_cut for hex cutoffs; for
    Euclidean ones, a box in the coefficients of the reduced basis, whose
    smallest Gram eigenvalue bounds it even when the cloud's own basis is
    skewed.  The box is mapped to the cloud's basis, and on the plane clipped
    to the cloud's coordinate spreads (no pair differs by more).  On a torus
    it is taken mod n, or is all of Z_n per axis once it is that wide; every
    residue within the cutoff has its nearest image in the box.
    """
    if hex_cut is not None:
        m, ((a, b), (c, d)) = int(hex_cut), ((1, 0), (0, 1))
    else:
        reduced, ((a, b), (c, d)) = cloud.basis._reduction
        g = reduced.matrix() @ reduced.matrix().T
        lam_min = (g[0, 0] + g[1, 1] - math.hypot(g[0, 0] - g[1, 1], 2 * g[0, 1])) / 2.0
        m = int(math.ceil(math.sqrt(sq_cut / max(lam_min, 1e-12)))) + 1
    torus, n = cloud.topology.is_torus, cloud.topology.n
    rng = np.arange(n) if torus and 2 * m + 1 >= n else np.arange(-m, m + 1)
    ri, rj = (x.ravel() for x in np.meshgrid(rng, rng, indexing="ij"))
    det = a * d - b * c  # ±1
    di, dj = det * (ri * d - rj * c), det * (rj * a - ri * b)
    if torus:
        di, dj = di % n, dj % n
        flat = di * n + dj
        keep = (flat > 0) & (flat <= (-di % n) * n + (-dj % n))
    else:
        spread = cloud.bounds[1]
        half = (dj > 0) | ((dj == 0) & (di > 0))
        keep = half & (np.abs(di) <= spread[0]) & (np.abs(dj) <= spread[1])
    di, dj = di[keep], dj[keep]
    sq = lattice.offset_sq(cloud.basis, cloud.topology, di, dj)
    hx = lattice.offset_hex(cloud.topology, di, dj)
    if hex_cut is not None:
        band = (hx <= hex_cut) & (hx > floor)
    else:
        band = (sq <= sq_cut + 1e-9) & (sq > floor + 1e-9)
    return di[band], dj[band], sq[band], hx[band]


def _key_shifts(n_points: int, n_offsets: int) -> tuple[int, int, int]:
    """Bit shifts of the class, a and b fields of a candidate key whose lowest
    bits hold the offset index, for ``n_points`` points and ``n_offsets``
    offsets (at most as many classes); TooLarge if a key would not fit in 63
    bits."""
    v_bits = max(n_points - 1, 1).bit_length()
    k_bits = max(n_offsets - 1, 1).bit_length()
    if 2 * v_bits + 2 * k_bits > 63:
        raise TooLarge(
            f"candidate keys of {n_points} points and {n_offsets} offsets exceed 63 bits"
        )
    return k_bits + 2 * v_bits, k_bits + v_bits, k_bits


def _round_bands(cloud: PointCloud, metric: Metric, sq_cut, hex_cut, floor, root=None):
    """Candidate edges (a, b, sq, hx) of one cutoff round, one row per
    unordered pair, whose primary measure lies above ``floor``: one band per
    measure class, in increasing measure, each band in key order.

    Every point p looks up p + (s, t) for each offset in a grid padded on each
    axis by that axis's largest offset component, so no lookup wraps.  A plane
    cloud, shifted to start at 0, sits inside its padding: no offset meets a
    point it does not lead to, none is its own inverse, and the half-plane
    offsets meet each pair once.  A torus tiles its n x n grid into the
    padding and takes each residue nearest 0.  A pair {p, q} differs by the
    residues q - p and p - q, and only one of them is an offset; a
    self-inverse one (2s = 2t = 0 mod n) meets it from both ends, so only the
    end with nb > idx is kept.

    All rows of one offset share its measure, so the offsets are ranked by
    measure, equal measures sharing a class, and each row becomes one int64
    key: class, a, b, offset index, from the high bits down.  The grid and
    the classes are built once per round; a class's offsets are looked up
    together, only once the band before it has been taken, and one sort of
    their keys puts the rows in key order.  The offset index never decides it
    (each pair occurs once) and only recovers the row's measures.

    A forest, as ``_boruvka``'s ``root``, may be passed in and sent after
    each band; the round returns the last one.  With a forest, each class
    band keeps only its rows that join two components, contracted by
    ``_contract``, before its keys are sorted.
    """
    torus, n = cloud.topology.is_torus, cloud.topology.n
    di, dj, off_sq, off_hx = _offsets(cloud, sq_cut, hex_cut, floor)
    if not len(di):
        return root
    if torus:
        di, dj = (np.where(2 * x > n, x - n, x) for x in (di, dj))  # the residue nearest 0
        lo, extent = (0, 0), np.array([n, n])
    else:
        lo, spread = cloud.bounds
        extent = spread + 1
    reach = np.abs(np.stack((di, dj), axis=1)).max(axis=0)
    shape = tuple((extent + 2 * reach).tolist())
    ci, cj = (col + (r - m) for col, r, m in zip(cloud.coords.T, reach, lo))
    idx = np.arange(cloud.size, dtype=np.int64)
    if torus:
        grid = np.full((n, n), -1, dtype=np.int64)
        grid[cloud.coords[:, 0], cloud.coords[:, 1]] = idx
        wrap = [(np.arange(m) - r) % n for m, r in zip(shape, reach.tolist())]
        grid = grid[np.ix_(*wrap)]
    else:
        grid = np.full(shape, -1, dtype=np.int64)
        grid[ci, cj] = idx
    grid = grid.ravel()
    cell = ci * shape[1] + cj
    k = len(off_sq)
    c_shift, a_shift, b_shift = _key_shifts(cloud.size, k)
    v_mask = (1 << (a_shift - b_shift)) - 1
    measure = np.column_stack((off_hx, off_sq)) if metric.is_hex else off_sq
    cls = np.unique(measure, axis=0, return_inverse=True)[1].reshape(k)
    head = (cls << c_shift) | np.arange(k)
    step = di * shape[1] + dj  # each offset's step in the flat grid
    twice = ((2 * di) % n == 0) & ((2 * dj) % n == 0) if torus else np.zeros(k, dtype=bool)

    def band(o):  # the offsets o of one class; its temporaries die before the yield
        nb = grid[cell + step[o, None]]  # row j: the point each point meets by offset o[j]
        j, p = ((nb > idx) | ((nb >= 0) & ~twice[o, None])).nonzero()
        q = nb[j, p]
        del nb
        key = np.minimum(p, q) << a_shift
        key |= np.maximum(p, q) << b_shift
        key |= head[o[j]]
        if root is not None:
            rp, rq = root[p], root[q]
            del j, p, q
            cross = rp != rq
            key, rp, rq = key[cross], rp[cross], rq[cross]
            key = _contract(key, rp, rq, root)
        key.sort()
        off = key & ((1 << b_shift) - 1)
        return (key >> a_shift) & v_mask, (key >> b_shift) & v_mask, off_sq[off], off_hx[off]

    order = np.argsort(cls, kind="stable")  # the offsets grouped by class
    ends = np.cumsum(np.bincount(cls)).tolist()
    for lo, hi in zip([0] + ends[:-1], ends):
        root = yield band(order[lo:hi])
    return root


def _contract(key: np.ndarray, rp: np.ndarray, rq: np.ndarray, root: np.ndarray) -> np.ndarray:
    """Of the keys of rows that join two components (roots ``rp``, ``rq`` in
    ``root``), the least for each pair of components if there are c
    components and at least c² rows, else all.  Exact within one key range:
    once its least X-Y row is taken, no later X-Y row can join the tree."""
    if len(key) < 4:  # c >= 2 once any row joins two components
        return key
    rep = root == np.arange(len(root))
    c = int(np.count_nonzero(rep))
    if c * c > len(key):
        return key
    comp = np.cumsum(rep) - 1  # component ids 0 .. c - 1 at the representatives
    pair = np.minimum(comp[rp], comp[rq]) * c
    pair += np.maximum(comp[rp], comp[rq])
    least = np.full(c * c, np.iinfo(np.int64).max)
    np.minimum.at(least, pair, key)
    return least[least < np.iinfo(np.int64).max]


def _lattice_candidates(
    cloud: PointCloud, metric: Metric, sq_cut: float | None, hex_cut, floor: float = -math.inf
):
    """Candidate edges (a, b, sq, hx) of the cutoff graph, one row per unordered
    pair, whose primary measure lies above ``floor``, in key order: one round's
    class bands, concatenated; None if no offset lies in the band."""
    bands = list(_round_bands(cloud, metric, sq_cut, hex_cut, floor))
    return tuple(map(np.concatenate, zip(*bands))) if bands else None


def _largest_measure(cloud: PointCloud, hex_primary: bool) -> float:
    """An upper bound on the primary measure of an offset between two points:
    the largest at a corner (both measures are convex) of a box holding an
    image of each such offset, the coordinate spreads on the plane; on a
    torus [-n/2, n/2]², which does so in the coefficients of any basis."""
    if cloud.topology.is_torus:
        basis, p, q = cloud.basis.reduced(), cloud.topology.n / 2, cloud.topology.n / 2
    else:
        basis, (p, q) = cloud.basis, cloud.bounds[1].tolist()
    di, dj = np.array([p, p]), np.array([q, -q])
    if hex_primary:
        return float(lattice.hex_distance_arr(di, dj).max())
    # the corner with the larger measure sums the absolute terms of the
    # quadratic form, so float rounding elsewhere in the box stays far below
    # this relative margin
    return float(basis.sq_offset(di, dj).max()) * (1 + 1e-9)


def _cutoff_bands(cloud: PointCloud, metric: Metric):
    """Candidates of each cutoff round, one measure class at a time, the
    cutoff growing fourfold (hex cutoffs twofold) until it is at least the
    largest measure in the cloud, which is measured only if a round ends
    without the tree spanning.  A forest sent in goes to the round's bands,
    and the last one a round held starts the next round."""
    hex_primary = metric.is_hex
    cut, growth = (3, 2) if hex_primary else (_seed_cutoff(cloud.basis), 4)
    floor, top, root = -math.inf, None, None
    while True:
        cuts = (None, cut) if hex_primary else (cut, None)
        root = yield from _round_bands(cloud, metric, *cuts, floor, root)
        top = _largest_measure(cloud, hex_primary) if top is None else top
        if cut >= top:
            return
        floor, cut = cut, cut * growth


def _mst_arrays(cloud: PointCloud, metric: Metric) -> tuple:
    """Tree edges (a, b, sq, hx) in key order."""
    if cloud.coords is None or cloud.size <= _FULL_PAIR_LIMIT:
        bands = _prefix_bands(cloud.size, *_full_pair_arrays(cloud, metric), metric.is_hex)
        return _grow(cloud.size, bands, metric.is_hex)
    return _grow(cloud.size, _cutoff_bands(cloud, metric), metric.is_hex, ranked=True)


def mst(cloud: PointCloud, metric: Metric) -> SpanningTree:
    """Exact minimum spanning tree of the cloud under the metric.

    Hex metrics minimize hexagonal length with Euclidean tie-break;
    ``total_length`` is always the Euclidean total.
    """
    lattice.check_measurable(cloud, metric)
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
