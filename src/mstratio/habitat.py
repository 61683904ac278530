"""Thickening hierarchy on the hexagonal torus and the edge-cost table.

Levels of the hierarchy are defined by threshold graphs on the blue points:

* rooms(k):     edges with hex distance <= 2k-1
* houses(k):    rooms(k) plus (hex = 2k and Euclidean < 2k)
* blocks(k):    edges with hex distance <= 2k
* compounds(k): blocks(k) plus (hex = 2k+1 and Euclidean < 2k+1)

This phrasing is tie-break-free and matches the nested component chain
B1 ⊆ B2' ⊆ B2 ⊆ B3'.  Each threshold graph keeps the pairs whose (hex, sq)
falls below a fixed bound, so its edges are a prefix of the strict
(hex, sq, a, b) order that ``spanning.hex_mst`` sorts by.  By the Kruskal
prefix property the hex-MST edges inside that prefix span the same components:
every count is m - #(tree edges in the prefix), the house and room labels are
the components of those tree edges, and one tree per blue set serves every
level.  The depth is read off the longest tree edge.

Thickenings are exact unit-triangle sets on the torus, and backyards are the
edge-connected components of their complement; both are computed on the
torus's (n, n, 2) triangle array.  Each level's coverage costs one dilation of
an n x n image, so memory is O(n²) per level whatever the points and the level.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache, reduce
from itertools import islice

import numpy as np

from . import lattice, spanning
from .errors import EmptySet, PeriodTooSmall, TopologyMismatch
from .lattice import PointCloud

# -- unit triangles ----------------------------------------------------------
#
# Triangle (i, j, 0) is the "up" triangle with vertices (i,j), (i+1,j), (i,j+1);
# (i, j, 1) is the "down" triangle with vertices (i+1,j), (i,j+1), (i+1,j+1).
# On the n-torus triangle (i, j, o) has the flat index (i*n + j)*2 + o, which
# orders triangles as their tuples sort.

Tri = tuple[int, int, int]


def _tri_neighbors(t: Tri, n: int):
    """Edge-adjacent triangles with the shared edge (pair of vertices)."""
    i, j, o = t
    if o == 0:
        raw = (
            ((i, j, 1), ((i + 1, j), (i, j + 1))),
            ((i, j - 1, 1), ((i, j), (i + 1, j))),
            ((i - 1, j, 1), ((i, j), (i, j + 1))),
        )
    else:
        raw = (
            ((i, j, 0), ((i + 1, j), (i, j + 1))),
            ((i + 1, j, 0), ((i + 1, j), (i + 1, j + 1))),
            ((i, j + 1, 0), ((i, j + 1), (i + 1, j + 1))),
        )
    out = []
    for (a, b, oo), edge in raw:
        nb = (a % n, b % n, oo)
        out.append((nb, frozenset((x % n, y % n) for x, y in edge)))
    return out


@lru_cache(maxsize=1)
def _triangle_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat (up, down) index pairs of every edge-adjacent triangle pair on the torus.

    Up triangle (i, j) meets down triangles (i, j), (i, j-1) and (i-1, j).  The
    arrays are read-only and cached for the last n only, as they grow with n².
    """
    flat = np.arange(2 * n * n, dtype=np.int64).reshape(n, n, 2)
    up, down = flat[:, :, 0].ravel(), flat[:, :, 1]
    shifted = (down, np.roll(down, 1, axis=1), np.roll(down, 1, axis=0))
    edges = np.tile(up, 3), np.concatenate([d.ravel() for d in shifted])
    for side in edges:
        side.setflags(write=False)
    return edges


def _tri_tuples(flat: np.ndarray, n: int) -> list[Tri]:
    i, rest = np.divmod(flat, 2 * n)
    j, o = np.divmod(rest, 2)
    return list(zip(i.tolist(), j.tolist(), o.tolist()))


def _covers(cloud: PointCloud, blue):
    """Yield, for k = 1, 2, ..., an (n, n, 2) triangle array: 1 + the index into
    ``blue`` of a point whose k-disk holds the triangle, or 0 where none does.

    A k-disk holds a triangle when it holds its three vertices, so the centres
    covering (i, j, 0) are (i, j) + B(k-1) + {(0,0), (1,0), (0,1)} and those
    covering (i, j, 1) are (i, j) + B(k-1) + {(1,0), (0,1), (1,1)}, where the
    hexagonal ball B(k) = B(k-1) + B(1) grows by one dilation per level.  Centres
    covering one triangle lie within hexagonal distance 2k-1, so share a room.
    """
    ball = np.zeros((cloud.topology.n,) * 2, dtype=np.int64)  # max over (i, j) + B(k-1)
    i, j = cloud.coords[np.asarray(blue, dtype=np.int64)].T
    ball[i, j] = np.arange(1, len(i) + 1)
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))  # B(1) without the origin
    while True:
        right, up = np.roll(ball, -1, axis=0), np.roll(ball, -1, axis=1)
        shared, far = np.maximum(right, up), np.roll(right, -1, axis=1)
        yield np.stack([np.maximum(shared, ball), np.maximum(shared, far)], axis=-1)
        ball = reduce(np.maximum, (np.roll(ball, s, axis=(0, 1)) for s in steps), ball)


def _regions(labels: np.ndarray, n: int) -> list[frozenset[Tri]]:
    """Triangles of each label 0, 1, ... in a flat triangle array (-1 is unlabelled)."""
    flat = np.flatnonzero(labels >= 0)
    tris = _tri_tuples(flat, n)
    return [frozenset(tris[i] for i in g) for g in spanning.label_groups(labels[flat])]


def _triangle_components(mask: np.ndarray, n: int) -> np.ndarray:
    """Component label of each triangle in the flat mask (-1 off the mask)."""
    up, down = _triangle_edges(n)
    both = mask[up] & mask[down]
    labels = spanning.label_components(len(mask), up[both], down[both])
    # number the labels met on the mask 0, 1, ... in increasing order
    used = np.bincount(labels[mask], minlength=len(mask)) > 0
    return np.where(mask, (np.cumsum(used) - 1)[labels], -1)


@dataclass(frozen=True)
class TriangleRegion:
    """Set of unit triangles on the torus, closed under the identification."""

    n: int
    triangles: frozenset[Tri]

    def __len__(self) -> int:
        return len(self.triangles)

    def components(self) -> list[frozenset[Tri]]:
        n = self.n
        mask = np.zeros(2 * n * n, dtype=bool)
        if self.triangles:
            i, j, o = np.array(list(self.triangles), dtype=np.int64).T
            mask[(i * n + j) * 2 + o] = True
        return _regions(_triangle_components(mask, n), n)

    def boundary_edges(self) -> set[frozenset]:
        out = set()
        for t in self.triangles:
            for nb, edge in _tri_neighbors(t, self.n):
                if nb not in self.triangles:
                    out.add(edge)
        return out

    def frontier_vertices(self) -> set[tuple[int, int]]:
        verts: set[tuple[int, int]] = set()
        for edge in self.boundary_edges():
            verts.update(edge)
        return verts


def _require_torus(cloud: PointCloud, k: int) -> int:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not cloud.topology.is_torus or cloud.coords is None:
        raise TopologyMismatch("thickenings live on the hexagonal torus")
    n = cloud.topology.n
    if n <= 4 * k:
        raise PeriodTooSmall(f"period {n} <= 4k = {4 * k}")
    return n


def thickening(cloud: PointCloud, blue, k: int) -> TriangleRegion:
    """Union of the hexagonal k-disks centered at the selected points."""
    n = _require_torus(cloud, k)
    blue = list(blue)
    if not blue:
        raise EmptySet("thickening of an empty set")
    cover = next(islice(_covers(cloud, blue), k - 1, None))
    return TriangleRegion(n, frozenset(_tri_tuples(np.flatnonzero(cover), n)))


# -- levels from the hex MST ----------------------------------------------------


class _HexTree:
    """Edge arrays of ``hex_mst`` on the selected points (indices into ``blue``)."""

    def __init__(self, cloud: PointCloud, blue):
        tree = spanning.hex_mst(cloud.subset(blue))
        self.size = len(blue)
        self.a, self.b, self.hex_len, self.sq_len = tree.a, tree.b, tree.hex, tree.sq

    def _prefix(self, k: int, kind: str) -> np.ndarray:
        """Tree edges inside the level's threshold graph: hex <= h, and for
        houses and compounds also hex = h+1 with Euclidean length < h+1."""
        h = {"rooms": 2 * k - 1, "houses": 2 * k - 1, "blocks": 2 * k, "compounds": 2 * k}[kind]
        inside = self.hex_len <= h
        if kind in ("houses", "compounds"):
            inside |= (self.hex_len == h + 1) & (self.sq_len < (h + 1) ** 2 - 1e-9)
        return inside

    def count(self, k: int, kind: str) -> int:
        return self.size - int(self._prefix(k, kind).sum())

    def labels(self, k: int, kind: str) -> np.ndarray:
        keep = self._prefix(k, kind)
        return spanning.label_components(self.size, self.a[keep], self.b[keep])

    def depth(self) -> int:
        """Smallest k with one room at level k+1: rooms(k) = 1 iff 2k-1 >= max hex."""
        return int(self.hex_len.max()) // 2 if len(self.hex_len) else 0


@dataclass(frozen=True)
class HabitatLevel:
    rooms: int
    houses: int
    blocks: int
    compounds: int
    alpha: int  # backyards adjacent to at most two houses
    beta: int  # backyards adjacent to three or more houses


@dataclass(frozen=True)
class HabitatSummary:
    levels: dict[int, HabitatLevel]
    depth: int  # smallest k with rooms(k+1) == 1

    def chain_ok(self) -> bool:
        """Monotonicity r_k >= h_k >= b_k >= c_k >= r_(k+1) over computed levels."""
        ks = sorted(self.levels)
        for k in ks:
            lv = self.levels[k]
            if not (lv.rooms >= lv.houses >= lv.blocks >= lv.compounds):
                return False
            if k + 1 in self.levels and lv.compounds < self.levels[k + 1].rooms:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "levels": {str(k): asdict(lv) for k, lv in sorted(self.levels.items())},
        }


def house_labels(cloud: PointCloud, blue: list[int], k: int) -> np.ndarray:
    """House index for every selected point at level k."""
    _require_torus(cloud, k)
    return _HexTree(cloud, blue).labels(k, "houses")


def habitat_summary(cloud: PointCloud, blue, k_max: int = 1) -> HabitatSummary:
    """Rooms, houses, blocks, compounds, and backyard counts for levels 1..k_max."""
    blue = sorted(int(p) for p in blue)
    if not blue:
        raise EmptySet("habitat of an empty set")
    _require_torus(cloud, k_max)
    tree = _HexTree(cloud, blue)
    levels: dict[int, HabitatLevel] = {}
    for k, cover in zip(range(1, k_max + 1), _covers(cloud, blue)):
        counts = [tree.count(k, kind) for kind in ("rooms", "houses", "blocks", "compounds")]
        yard, yard_house, stride = _yard_codes(cover, tree.labels(k, "houses"))
        adjacent = np.bincount(yard_house // stride, minlength=yard.max() + 1)
        beta = int((adjacent >= 3).sum())
        levels[k] = HabitatLevel(*counts, len(adjacent) - beta, beta)
    return HabitatSummary(levels, tree.depth())


def _yard_codes(cover: np.ndarray, houses: np.ndarray) -> tuple:
    """Backyard label of each triangle (-1 on the thickening), the sorted codes
    yard * stride + house of each backyard and house that share a triangle
    edge, and the stride; ``cover`` is a level of ``_covers`` and ``houses``
    labels the points it indexes."""
    n = len(cover)
    house = np.append(-1, houses)[cover.ravel()]
    background = house < 0
    yard = _triangle_components(background, n)
    stride = int(house.max()) + 1
    up, down = _triangle_edges(n)
    pairs = []
    for t, nb in ((up, down), (down, up)):
        side = background[t] & ~background[nb]
        pairs.append(yard[t[side]] * stride + house[nb[side]])
    return yard, np.unique(np.concatenate(pairs)), stride


def backyards(cloud: PointCloud, blue, k: int):
    """Components of the background with their adjacent-house counts.

    Returns (alpha, beta, components): alpha counts backyards adjacent to at
    most two houses, beta those adjacent to three or more.  Adjacency means a
    shared triangle edge.
    """
    blue = sorted(int(p) for p in blue)
    n = _require_torus(cloud, k)
    if not blue:
        raise EmptySet("backyards of an empty set")
    cover = next(islice(_covers(cloud, blue), k - 1, None))
    yard, yard_house, stride = _yard_codes(cover, house_labels(cloud, blue, k))
    owners = (yard_house % stride).tolist()
    out = [
        (members, {owners[i] for i in adj})
        for members, adj in zip(_regions(yard, n), spanning.label_groups(yard_house // stride))
    ]
    beta = sum(len(adj) >= 3 for _, adj in out)
    return len(out) - beta, beta, out


def check_backyard_bound(summary: HabitatSummary, k: int) -> bool:
    """beta_k <= 2*houses_k - 2*blocks_k + 2."""
    lv = summary.levels[k]
    return lv.beta <= 2 * lv.houses - 2 * lv.blocks + 2


def room_regions(cloud: PointCloud, blue, k: int) -> list[TriangleRegion]:
    """Thickening of each room separately (frontiers are per-room notions)."""
    blue = sorted(int(p) for p in blue)
    n = _require_torus(cloud, k)
    rooms = _HexTree(cloud, blue).labels(k, "rooms")
    cover = next(islice(_covers(cloud, blue), k - 1, None))
    return [TriangleRegion(n, r) for r in _regions(np.append(-1, rooms)[cover.ravel()], n)]


# -- edge-cost table -------------------------------------------------------------

CREDIT = 0.25  # credit per short edge; one Euro after conversion
TARGET_AVG = 1.25


def edge_cost(euclid_len: float) -> float:
    """Cost in Euros of a long edge: (length - 5/4) / (1/4)."""
    return (euclid_len - TARGET_AVG) / CREDIT


def cost_w(k: int) -> float:
    return edge_cost(math.sqrt(4 * k * k - 2 * k + 1))


def cost_x(k: int) -> float:
    return edge_cost(2.0 * k)


def cost_y(k: int) -> float:
    return edge_cost(math.sqrt(4 * k * k + 2 * k + 1))


def cost_z(k: int) -> float:
    return edge_cost(2.0 * k + 1.0)


@dataclass(frozen=True)
class CostRow:
    hex_len: int
    sq_len: int
    euclid_len: float
    cost_euros: float


@dataclass(frozen=True)
class CostTable:
    rows: tuple[CostRow, ...]
    alpha: float = CREDIT


def _sq_values_for_hex(h: int) -> list[int]:
    vals = set()
    for i in range(-h, h + 1):
        for j in range(-h, h + 1):
            if lattice.hex_distance(i, j) == h:
                vals.add(i * i + i * j + j * j)
    return sorted(vals)


def cost_table(k_max: int) -> CostTable:
    """Realizable edge lengths for hexagonal lengths 2..2k_max+1 with their costs."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rows = []
    for h in range(2, 2 * k_max + 2):
        for sq in _sq_values_for_hex(h):
            e = math.sqrt(sq)
            rows.append(CostRow(h, sq, e, edge_cost(e)))
    return CostTable(tuple(rows))


@dataclass(frozen=True)
class GapRecord:
    k: int
    w_minus_z: float
    x_minus_w: float
    y_minus_x: float
    z_minus_y: float
    ok: bool

    def failing_gaps(self) -> list[str]:
        """Names of the asserted gaps of this record that fall outside GAP_BOUNDS."""
        return [nm for nm in _asserted_gaps(self.k) if not _within(nm, getattr(self, nm))]


@dataclass(frozen=True)
class GapAudit:
    ok: bool
    k1_anomaly: float  # w_1 - z_0, which falls short of the stated lower bound 2
    records: tuple[GapRecord, ...]

    def __bool__(self) -> bool:
        return self.ok


#: Closed bounds for the four cost differences (checked for k >= 2;
#: the w-z gap at k = 1 with z_0 = 0 is reported, not asserted).
GAP_BOUNDS = {
    "w_minus_z": (2.0, 4.0 * (math.sqrt(3.0) - 1.0)),
    "x_minus_w": (4.0 * (2.0 - math.sqrt(3.0)), 2.0),
    "y_minus_x": (2.0, 4.0 * (math.sqrt(7.0) - 2.0)),
    "z_minus_y": (math.sqrt(2.0), 2.0),
}

_GAP_TOL = 1e-12


def _within(name: str, value: float) -> bool:
    lo, hi = GAP_BOUNDS[name]
    return lo - _GAP_TOL <= value <= hi + _GAP_TOL


def _asserted_gaps(k: int) -> tuple[str, ...]:
    return tuple(GAP_BOUNDS) if k >= 2 else ("x_minus_w", "y_minus_x", "z_minus_y")


def audit_cost_gaps(k_max: int) -> GapAudit:
    """Check the four cost-difference intervals for 1 <= k <= k_max.

    With z_0 = 0 the first gap w_1 - z_0 = 1.928... falls below 2 at k = 1; it is
    reported in ``k1_anomaly`` while only the other three gaps are asserted
    there.  All four intervals are asserted for k >= 2.
    """
    records = []
    ok = True
    for k in range(1, k_max + 1):
        z_prev = 0.0 if k == 1 else cost_z(k - 1)
        gaps = {
            "w_minus_z": cost_w(k) - z_prev,
            "x_minus_w": cost_x(k) - cost_w(k),
            "y_minus_x": cost_y(k) - cost_x(k),
            "z_minus_y": cost_z(k) - cost_y(k),
        }
        k_ok = all(_within(nm, gaps[nm]) for nm in _asserted_gaps(k))
        ok = ok and k_ok
        records.append(GapRecord(k, *gaps.values(), k_ok))
    return GapAudit(ok, cost_w(1) - 0.0, tuple(records))
