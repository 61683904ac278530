"""Lattice bases, point clouds, topologies, and the four distance functions.

Everything downstream (spanning trees, ratios, habitats, persistence) works on
the types defined here.  Distances between lattice points are evaluated from
integer quadratic forms whenever the Gram matrix of the basis is recognizably
half-integral, so squared lengths are exact; square roots are taken once at
the end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce

import numpy as np

from .errors import (
    DegenerateBasis,
    DuplicatePoints,
    MstRatioError,
    NotHexagonal,
    TooLarge,
    TopologyMismatch,
)

EPS_DET = 1e-12
_GRAM_SNAP = 1e-9

Vec = tuple[float, float]


def integral(values, what: str) -> np.ndarray:
    """``values`` (numbers or numeric text, any shape) as int64.  Each must lie
    within 1e-9 of an integer of magnitude below 2**63; anything else, NaN and
    infinities included, raises MstRatioError."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "biu" and (np.can_cast(arr.dtype, np.int64) or np.all(arr < 2**63)):
            return arr.astype(np.int64, copy=False)
        x = arr.astype(float)
    except (TypeError, ValueError, OverflowError):
        raise MstRatioError(f"{what} must be a 64-bit integer, not {values!r}") from None
    off = ~((np.abs(x) < 2.0**63) & np.isclose(x, np.round(x), rtol=0, atol=1e-9))
    if off.any():
        raise MstRatioError(f"{what} must be a 64-bit integer, not {x[off][0]:g}")
    return np.round(x).astype(np.int64)


def _dot(w: Vec, z: Vec) -> float:
    return w[0] * z[0] + w[1] * z[1]


def _det2(w: Vec, z: Vec) -> float:
    return w[0] * z[1] - w[1] * z[0]


@dataclass(frozen=True)
class Basis:
    """Two linearly independent vectors spanning a lattice.

    The doubled Gram entries (2u·u, 2u·v, 2v·v) are snapped to integers when
    within 1e-9, which makes squared point distances exact for the unit
    hexagonal basis, the integer grid, and the stretched variants used by the
    constructions.
    """

    u: Vec
    v: Vec

    def __post_init__(self):
        u = (float(self.u[0]), float(self.u[1]))
        v = (float(self.v[0]), float(self.v[1]))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if abs(_det2(u, v)) <= EPS_DET:
            raise DegenerateBasis(f"det {u}, {v} below {EPS_DET}")
        g2 = (2.0 * _dot(u, u), 2.0 * _dot(u, v), 2.0 * _dot(v, v))
        if not all(map(math.isfinite, g2)):
            raise DegenerateBasis(f"Gram entries of {u}, {v} are not finite")
        snapped = tuple(round(x) for x in g2)
        exact = all(abs(x - s) < _GRAM_SNAP for x, s in zip(g2, snapped))
        object.__setattr__(self, "_g2", snapped if exact else g2)
        object.__setattr__(self, "exact_gram", exact)

    # -- geometry ---------------------------------------------------------

    @property
    def nu(self) -> float:
        """Length ratio ‖v‖/‖u‖ (the ν of a reduced basis normalized to ‖u‖=1)."""
        return math.sqrt(_dot(self.v, self.v) / _dot(self.u, self.u))

    @property
    def is_hexagonal(self) -> bool:
        """True for the unit hexagonal basis with a +60° angle (u·v = +1/2)."""
        return self.exact_gram and self._g2 == (2, 1, 2)

    def matrix(self) -> np.ndarray:
        """Rows u, v; cartesian = coords @ matrix()."""
        return np.array([self.u, self.v], dtype=float)

    def sq_offset(self, di: int, dj: int) -> float:
        """Squared Euclidean length of di·u + dj·v (exact when Gram is exact)."""
        a, b, c = self._g2
        return (a * di * di + 2 * b * di * dj + c * dj * dj) / 2.0

    def sq_offset_arr(self, di: np.ndarray, dj: np.ndarray) -> np.ndarray:
        a, b, c = self._g2
        if self.exact_gram:
            di = di.astype(np.int64)
            dj = dj.astype(np.int64)
        return (a * di * di + 2 * b * di * dj + c * dj * dj) / 2.0

    def reduced(self) -> "Basis":
        """Lagrange-Gauss reduction: ‖u‖ ≤ ‖v‖ and |u·v| ≤ ½‖u‖²."""
        return self._reduction[0]

    @cached_property
    def _reduction(self) -> tuple["Basis", tuple[tuple[int, int], ...]]:
        """The reduced basis and the inverse of the unimodular U with
        (u', v') = U (u, v).

        Comparisons carry a relative tolerance so half-integral inputs (the
        hexagonal basis in particular) are already fixed points of the
        reduction despite float rounding.
        """
        u, v = self.u, self.v
        (p, q), (r, s) = (1, 0), (0, 1)
        if _dot(v, v) < _dot(u, u) * (1.0 - 1e-12):
            u, v, (p, q), (r, s) = v, u, (r, s), (p, q)
        while True:
            mu = round(_dot(u, v) / _dot(u, u))
            v = (v[0] - mu * u[0], v[1] - mu * u[1])
            r, s = r - mu * p, s - mu * q
            if _dot(v, v) >= _dot(u, u) * (1.0 - 1e-12):
                break
            u, v, (p, q), (r, s) = v, u, (r, s), (p, q)
        det = p * s - q * r  # ±1
        inverse = ((det * s, -det * q), (-det * r, det * p))
        return Basis(u, v), inverse


def make_basis(u: Vec, v: Vec) -> Basis:
    """Validate and Lagrange-Gauss-reduce a basis (same lattice, shortest pair)."""
    return Basis(u, v).reduced()


def hexagonal_basis() -> Basis:
    return Basis((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


def square_basis() -> Basis:
    return Basis((1.0, 0.0), (0.0, 1.0))


# -- topology and metric ---------------------------------------------------


@dataclass(frozen=True)
class Topology:
    kind: str  # "plane" | "torus"
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("plane", "torus"):
            raise ValueError(f"unknown topology {self.kind!r}")
        if self.kind == "torus" and (self.n is None or self.n < 2):
            raise ValueError("torus period must be an integer >= 2")

    @classmethod
    def plane(cls) -> "Topology":
        return cls("plane")

    @classmethod
    def torus(cls, n: int) -> "Topology":
        return cls("torus", int(integral(n, "torus period")))

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"


class Metric(Enum):
    EUCLIDEAN_PLANE = "euclidean-plane"
    EUCLIDEAN_TORUS = "euclidean-torus"
    HEX_PLANE = "hex-plane"
    HEX_TORUS = "hex-torus"

    @property
    def requires_torus(self) -> bool:
        return self in (Metric.EUCLIDEAN_TORUS, Metric.HEX_TORUS)

    @property
    def is_hex(self) -> bool:
        return self in (Metric.HEX_PLANE, Metric.HEX_TORUS)

    @classmethod
    def euclidean(cls, topology: Topology) -> "Metric":
        return cls.EUCLIDEAN_TORUS if topology.is_torus else cls.EUCLIDEAN_PLANE

    @classmethod
    def hexagonal(cls, topology: Topology) -> "Metric":
        return cls.HEX_TORUS if topology.is_torus else cls.HEX_PLANE


# -- hexagonal distance and tri-coordinates --------------------------------


def hex_distance(di: int, dj: int) -> int:
    """Hexagonal length of the lattice offset (di, dj): max(|i|, |j|, |i+j|)."""
    return max(abs(di), abs(dj), abs(di + dj))


def hex_distance_arr(di: np.ndarray, dj: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(di), np.maximum(np.abs(dj), np.abs(di + dj)))


@dataclass(frozen=True)
class TriCoord:
    """Three-coordinate address (a, b, c) with a + b + c = 0."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a + self.b + self.c != 0:
            raise ValueError("tri-coordinates must sum to zero")

    def to_lattice(self) -> tuple[int, int]:
        return self.c, self.a


def tri_coords(i: int, j: int) -> TriCoord:
    """Map lattice coordinates to the zero-sum three-coordinate frame.

    Orientation convention: (a, b, c) = (j, -i-j, i), so the hexagonal length
    max(|a|,|b|,|c|) coincides with hex_distance(i, j) and the inverse map is
    (i, j) = (c, a).
    """
    return TriCoord(j, -i - j, i)


# -- point clouds -----------------------------------------------------------


def _distinct_rows(rows: np.ndarray) -> bool:
    """True if no two rows (x, y) of an (N, 2) array coincide: one lexsort,
    then a comparison of neighbours (for floats, 0.0 == -0.0 and NaN rows
    never coincide, as with np.unique(axis=0))."""
    x, y = rows[np.lexsort((rows[:, 1], rows[:, 0]))].T
    return not np.any((x[1:] == x[:-1]) & (y[1:] == y[:-1]))


@dataclass(frozen=True)
class PointCloud:
    """Finite ordered point set: lattice coords plus derived cartesian positions.

    ``coords`` is None for clouds given directly by cartesian coordinates
    (the perturbed constructions); those are always planar.
    """

    basis: Basis
    topology: Topology
    coords: np.ndarray | None
    cartesian: np.ndarray

    def __post_init__(self):
        cart = np.asarray(self.cartesian, dtype=float)
        object.__setattr__(self, "cartesian", cart)
        if self.coords is not None:
            coords = integral(self.coords, "lattice coordinate")
            if self.topology.is_torus:
                coords = np.mod(coords, self.topology.n)
            object.__setattr__(self, "coords", coords)
            if not _distinct_rows(coords):
                raise DuplicatePoints("coincident lattice points (mod period)")
        else:
            if self.topology.is_torus:
                raise TopologyMismatch("cartesian-only clouds must be planar")
            if not np.isfinite(cart).all():
                raise MstRatioError("cartesian coordinates must be finite")
            with np.errstate(over="ignore"):  # bounds every squared pair difference
                if len(cart) and not np.isfinite(np.sum(np.ptp(cart, axis=0) ** 2)):
                    raise MstRatioError("squared cartesian spreads must be finite")
            if not _distinct_rows(cart):
                raise DuplicatePoints("coincident cartesian points")
        self.cartesian.setflags(write=False)
        if self.coords is not None:
            self.coords.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.cartesian)

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis minimum and spread (maximum - minimum) of the lattice
        coordinates, reduced one column at a time."""
        x, y = self.coords.T
        lo = np.array([x.min(), y.min()])
        return lo, np.array([x.max(), y.max()]) - lo

    def subset(self, indices) -> "PointCloud":
        """The points at ``indices``, in that order.

        Distinct indices pick distinct rows, so the rows are not checked again;
        a repeated index (after wrapping negative ones) raises DuplicatePoints.
        """
        idx = np.asarray(indices, dtype=np.int64)
        cart = self.cartesian[idx]
        idx = np.where(idx < 0, idx + self.size, idx)
        seen = np.zeros(self.size, dtype=bool)
        seen[idx] = True
        if np.count_nonzero(seen) != idx.size:
            raise DuplicatePoints("repeated index in subset")
        coords = None if self.coords is None else self.coords[idx]
        for rows in (coords, cart):
            if rows is not None:
                rows.setflags(write=False)
        sub = object.__new__(PointCloud)
        sub.__dict__.update(basis=self.basis, topology=self.topology, coords=coords, cartesian=cart)
        return sub


def lattice_cloud(basis: Basis, topology: Topology, coords) -> PointCloud:
    coords = integral(coords, "lattice coordinate").reshape(-1, 2)
    cart = coords @ basis.matrix()
    return PointCloud(basis, topology, coords, cart)


def cloud_from_cartesian(points, basis: Basis | None = None) -> PointCloud:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    return PointCloud(basis or square_basis(), Topology.plane(), None, pts)


def _runs(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs first[k], first[k] + 1, ..., first[k] + counts[k] - 1,
    concatenated in order of k (counts are non-negative)."""
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) + np.repeat(first - ends + counts, counts)


def generate_square(basis: Basis, r: float, topology: Topology | None = None) -> PointCloud:
    """All lattice points with cartesian coordinates in the closed square [-r, r]².

    Points are ordered row-major by (j, i).  Each row j of the window's
    bounding box in (i, j) is cut to the i that meet both axis constraints
    |i·u_k + j·v_k| <= r + tol, widened by one on each side, and emitted in
    order; the float test then keeps exactly the points in the window.
    """
    topology = topology or Topology.plane()
    if topology.is_torus:
        raise TopologyMismatch("square windows are planar")
    if r <= 0:
        raise ValueError("window radius must be positive")
    minv = np.linalg.inv(basis.matrix().T)
    corners = np.array([[r, r], [r, -r], [-r, r], [-r, -r]], dtype=float)
    ij = corners @ minv.T
    lo = np.floor(ij.min(axis=0)).astype(int) - 1
    hi = np.ceil(ij.max(axis=0)).astype(int) + 1
    tol = 1e-9
    j = np.arange(lo[1], hi[1] + 1)
    first, last = np.full(len(j), lo[0]), np.full(len(j), hi[0])
    for uk, vk in zip(basis.u, basis.v):
        if uk:
            ends = (np.array([[-r - tol], [r + tol]]) - j * vk) / uk
            first = np.maximum(first, np.floor(ends.min(axis=0)).astype(int) - 1)
            last = np.minimum(last, np.ceil(ends.max(axis=0)).astype(int) + 1)
    counts = np.maximum(last - first + 1, 0)
    coords = np.column_stack([_runs(first, counts), np.repeat(j, counts)])
    cart = coords @ basis.matrix()
    mask = (np.abs(cart[:, 0]) <= r + tol) & (np.abs(cart[:, 1]) <= r + tol)
    return lattice_cloud(basis, topology, coords[mask])


def generate_rhombus(basis: Basis, n: int, topology: Topology | None = None) -> PointCloud:
    """The n² points i·u + j·v with 0 ≤ i, j ≤ n-1, row-major by (j, i)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    topology = topology or Topology.plane()
    if topology.is_torus and topology.n != n:
        raise TopologyMismatch(f"rhombus size {n} != torus period {topology.n}")
    jj, ii = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    coords = np.column_stack([ii.ravel(), jj.ravel()])
    return lattice_cloud(basis, topology, coords)


# -- distances ---------------------------------------------------------------


_SHIFT_I = np.repeat([-1, 0, 1], 3)[:, None]
_SHIFT_J = np.tile([-1, 0, 1], 3)[:, None]
_IMAGE_BLOCK = 4096  # offsets per block: keeps the 9 candidates of a block in cache


def nearest_image(basis: Basis, n: int, di, dj) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients in ``basis.reduced()`` of the shortest vector congruent to
    di·u + dj·v modulo the torus period (n·u, n·v), for 1-D arrays di, dj.

    (di, dj) is re-expressed in the reduced basis, which spans the same
    lattice and the same torus, and taken mod n there; the nearest image is
    then among its 9 translates by n·(s, t), s, t in {-1, 0, 1}, and the first
    of equally near ones in (s, t) order is taken.
    """
    reduced, ((a, b), (c, d)) = basis._reduction
    di, dj = (di * a + dj * c) % n, (di * b + dj * d) % n
    k = np.empty(len(di), dtype=np.int64)
    for lo in range(0, len(di), _IMAGE_BLOCK):
        block = slice(lo, lo + _IMAGE_BLOCK)
        sq = reduced.sq_offset_arr(di[block] + _SHIFT_I * n, dj[block] + _SHIFT_J * n)
        k[block] = sq.argmin(axis=0)
    return di + _SHIFT_I[k, 0] * n, dj + _SHIFT_J[k, 0] * n


def offset_sq(basis: Basis, topology: Topology, di: np.ndarray, dj: np.ndarray) -> np.ndarray:
    """Squared Euclidean length of the offset di·u + dj·v; on a torus, of its
    nearest image."""
    if topology.is_torus:
        return basis.reduced().sq_offset_arr(*nearest_image(basis, topology.n, di, dj))
    return basis.sq_offset_arr(di, dj)


def offset_hex(topology: Topology, di: np.ndarray, dj: np.ndarray) -> np.ndarray:
    """Hexagonal length of the offset (di, dj); on a torus of period n, with
    |di|, |dj| < n, the least over its 9 translates by n·(s, t)."""
    if not topology.is_torus:
        return hex_distance_arr(di, dj)
    shifts = zip(_SHIFT_I[:, 0] * topology.n, _SHIFT_J[:, 0] * topology.n)
    return reduce(np.minimum, (hex_distance_arr(di + s, dj + t) for s, t in shifts))


def check_measurable(cloud: PointCloud, metric: Metric) -> None:
    """Raise TopologyMismatch unless the metric measures on the cloud's topology,
    and TooLarge when the largest doubled Gram entry times the squared coordinate
    spread (at least 1; 2n on a torus, which nearest images reach) passes 2**53."""
    if metric.requires_torus != cloud.topology.is_torus:
        raise TopologyMismatch(f"{metric.value} metric on a {cloud.topology.kind} cloud")
    if cloud.coords is None:
        return
    spread = 2 * cloud.topology.n if cloud.topology.is_torus else 1
    if cloud.size and not cloud.topology.is_torus:  # int64 spreads from 2**63 on wrap below 0
        spread = max(1, *(s % 2**64 for s in cloud.bounds[1].tolist()))
    if spread**2 * max(map(abs, cloud.basis._g2)) > 2**53:
        raise TooLarge(f"lattice coordinate spread {spread} is too wide for exact squared lengths")


def _pair_offsets(rows: np.ndarray, ia, ib) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of rows[ib] - rows[ia]."""
    ia = np.atleast_1d(np.asarray(ia, dtype=np.int64))
    ib = np.atleast_1d(np.asarray(ib, dtype=np.int64))
    x, y = rows.T
    return x[ib] - x[ia], y[ib] - y[ia]


def pair_sq(cloud: PointCloud, metric: Metric, ia, ib) -> np.ndarray:
    """Squared Euclidean pair distances on the cloud's topology (vectorized)."""
    check_measurable(cloud, metric)
    if cloud.coords is None:
        dx, dy = _pair_offsets(cloud.cartesian, ia, ib)
        return dx**2 + dy**2
    return offset_sq(cloud.basis, cloud.topology, *_pair_offsets(cloud.coords, ia, ib))


def pair_hex(cloud: PointCloud, metric: Metric, ia, ib) -> np.ndarray:
    """Hexagonal pair distances on the cloud's topology (vectorized)."""
    if cloud.coords is None:
        raise NotHexagonal("hexagonal distance requires lattice coordinates")
    check_measurable(cloud, metric)
    return offset_hex(cloud.topology, *_pair_offsets(cloud.coords, ia, ib))


def distance(metric: Metric, cloud: PointCloud, p: int, q: int) -> float:
    """Distance between points p and q of the cloud under the chosen metric."""
    if metric.is_hex:
        return float(pair_hex(cloud, metric, [p], [q])[0])
    return math.sqrt(float(pair_sq(cloud, metric, [p], [q])[0]))


def distance_matrix(cloud: PointCloud, metric: Metric) -> np.ndarray:
    """Dense (V, V) matrix of pair distances (lengths, not squares)."""
    v = cloud.size
    ii, jj = np.meshgrid(np.arange(v), np.arange(v), indexing="ij")
    if metric.is_hex:
        d = pair_hex(cloud, metric, ii.ravel(), jj.ravel()).astype(float)
    else:
        d = np.sqrt(pair_sq(cloud, metric, ii.ravel(), jj.ravel()))
    return d.reshape(v, v)


# -- canonical JSON document -------------------------------------------------


def cloud_to_doc(cloud: PointCloud, colors=None) -> dict:
    doc: dict = {
        "basis": {"u": list(cloud.basis.u), "v": list(cloud.basis.v)},
        "topology": (
            {"type": "torus", "n": cloud.topology.n}
            if cloud.topology.is_torus
            else {"type": "plane"}
        ),
        "coords": None if cloud.coords is None else cloud.coords.tolist(),
    }
    if cloud.coords is None:
        doc["cartesian"] = [[float(x), float(y)] for x, y in cloud.cartesian]
    if colors is not None:
        doc["colors"] = [int(c) for c in colors]
    return doc


def cloud_from_doc(doc: dict) -> tuple[PointCloud, list[int] | None]:
    basis = Basis(tuple(doc["basis"]["u"]), tuple(doc["basis"]["v"]))
    topo = doc.get("topology", {"type": "plane"})
    if topo.get("type") not in ("plane", "torus"):
        raise MstRatioError(f"topology type must be 'plane' or 'torus', not {topo.get('type')!r}")
    topology = Topology.torus(topo["n"]) if topo["type"] == "torus" else Topology.plane()
    coords = doc.get("coords")
    if coords is not None:
        cloud = lattice_cloud(basis, topology, coords)
    else:
        cloud = cloud_from_cartesian(doc["cartesian"], basis)
    colors = doc.get("colors")
    return cloud, colors
