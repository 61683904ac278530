"""Named configurations, colorings, MST-ratio evaluation, and closed-form oracles.

The construction registry exposes every named instance to the CLI: the 10x10
hexagonal demo ("fig8"), the four sublattice packings on the torus, the
horizontally stretched lattice, the integer-grid checkerboard, the seven-point
two-triangle configuration, the near-collapse family, and the three-way split.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import spanning
from .errors import (
    DegenerateSublattice,
    EmptyCloud,
    InvariantViolation,
    MstRatioError,
    RegionTooSmall,
    TopologyMismatch,
    ZeroDenominator,
)
from .lattice import (
    Basis,
    Metric,
    PointCloud,
    Topology,
    generate_rhombus,
    generate_square,
    hexagonal_basis,
    cloud_from_cartesian,
    integral,
    square_basis,
)

#: Universal cap on any 2-class MST-ratio: twice the reciprocal of the
#: published planar Steiner-ratio lower bound 0.824.
SUPMAX_CAP = 2.0 / 0.824

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

SQRT3 = math.sqrt(3.0)


# -- colorings ---------------------------------------------------------------


@dataclass(frozen=True)
class Coloring:
    """Per-point labels partitioning a cloud into classes 0..arity-1.

    ``labels`` is a tuple; a read-only int64 copy of it serves
    ``class_indices`` and ``counts``.
    """

    labels: tuple[int, ...]
    arity: int = 2

    def __post_init__(self):
        labels = self.labels
        if isinstance(labels, Iterator):
            labels = list(labels)
        arr = integral(np.array(labels), "label")  # a copy, never the caller's array
        if arr.ndim != 1:
            raise TypeError("labels must be a flat sequence of integers")
        if self.arity < 2:
            raise ValueError("arity must be >= 2")
        # as unsigned, a negative label is huge, so one comparison checks both ends
        if np.any(arr.view(np.uint64) >= self.arity):
            raise ValueError("label out of range")
        object.__setattr__(self, "labels", tuple(arr.tolist()))
        arr.setflags(write=False)
        object.__setattr__(self, "_array", arr)

    def __len__(self) -> int:
        return len(self.labels)

    def class_indices(self, c: int) -> np.ndarray:
        return np.flatnonzero(self._array == c)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(np.bincount(self._array, minlength=self.arity).tolist())

    def flipped(self, index: int) -> "Coloring":
        if self.arity != 2:
            raise ValueError("flip is a 2-class operation")
        labels = list(self.labels)
        labels[index] = 1 - labels[index]
        return Coloring(tuple(labels), 2)

    def swapped(self) -> "Coloring":
        if self.arity != 2:
            raise ValueError("swap is a 2-class operation")
        return Coloring(tuple(1 - c for c in self.labels), 2)


def random_coloring(rng: np.random.Generator, size: int) -> Coloring:
    """A 2-class coloring of uniform random labels; if they all agree, the
    first one is flipped."""
    labels = rng.integers(0, 2, size)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return Coloring(labels, 2)


# -- ratio reports ------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    class_lengths: tuple[float, ...]
    len_total: float
    ratio: float
    class_counts: tuple[int, ...]

    @property
    def len_b(self) -> float:
        return self.class_lengths[0]

    @property
    def len_complement(self) -> float:
        return self.class_lengths[1]

    @property
    def len_a(self) -> float:
        return self.len_total

    def to_json(self) -> dict:
        return {
            "class_lengths": list(self.class_lengths),
            "class_counts": list(self.class_counts),
            "len_total": self.len_total,
            "ratio": self.ratio,
        }


def supmax_check(report: RatioReport) -> bool:
    """Universal sanity gate: no 2-class ratio may exceed 2/0.824 = 2.4271..."""
    return report.ratio <= SUPMAX_CAP + 1e-9


def multiway_ratio(cloud: PointCloud, coloring: Coloring, metric: Metric) -> RatioReport:
    """Sum of class MST lengths over the MST length of the whole cloud."""
    if cloud.size == 0:
        raise EmptyCloud("ratio of an empty cloud")
    if cloud.size < 2:
        raise ZeroDenominator("ratio needs at least two points")
    if len(coloring) != cloud.size:
        raise ValueError("coloring size mismatch")
    lengths = tuple(
        spanning.mst(cloud.subset(coloring.class_indices(c)), metric).total_length
        for c in range(coloring.arity)
    )
    len_total = spanning.mst(cloud, metric).total_length
    report = RatioReport(
        lengths, len_total, math.fsum(lengths) / len_total, coloring.counts
    )
    if coloring.arity == 2 and not supmax_check(report):
        raise InvariantViolation(f"ratio {report.ratio} exceeds the universal cap")
    return report


def mst_ratio(cloud: PointCloud, coloring: Coloring, metric: Metric) -> RatioReport:
    """MST-ratio of a bi-colored cloud: (L(MST(B)) + L(MST(C))) / L(MST(A))."""
    if coloring.arity != 2:
        raise ValueError("mst_ratio expects a 2-class coloring")
    return multiway_ratio(cloud, coloring, metric)


# -- sublattice colorings ------------------------------------------------------


def sublattice_coloring(cloud: PointCloud, generators, offset=(0, 0)) -> Coloring:
    """Label 0 exactly on the points congruent to ``offset`` mod the generator lattice.

    ``generators`` holds the two generator vectors as rows of a 2x2 integer
    matrix.  On a torus the generator lattice must contain (n,0) and (0,n),
    otherwise membership would depend on the representative.
    """
    g = np.asarray(generators, dtype=np.int64).reshape(2, 2)
    det = int(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    if abs(det) < 2:
        raise DegenerateSublattice(f"|det| = {abs(det)} < 2")
    if cloud.coords is None:
        raise ValueError("sublattice coloring needs lattice coordinates")

    def member(di, dj):
        # Cramer numerators; membership iff both divisible by det.
        na = di * g[1, 1] - dj * g[1, 0]
        nb = g[0, 0] * dj - g[0, 1] * di
        return (na % det == 0) & (nb % det == 0)

    if cloud.topology.is_torus:
        n = cloud.topology.n
        if not (member(n, 0) and member(0, n)):
            raise TopologyMismatch(
                f"sublattice is not {n}-periodic; choose n divisible by the index"
            )
    di = cloud.coords[:, 0] - int(offset[0])
    dj = cloud.coords[:, 1] - int(offset[1])
    blue = member(di, dj)
    return Coloring(np.where(blue, 0, 1), 2)


#: family -> (generator rows, lattice index, squared minimum blue distance)
PACKING_FAMILIES: dict[str, tuple[tuple[tuple[int, int], tuple[int, int]], int, int]] = {
    "third": (((1, 1), (2, -1)), 3, 3),
    "quarter": (((2, 0), (0, 2)), 4, 4),
    "seventh": (((1, 2), (3, -1)), 7, 7),
    "ninth": (((3, 0), (0, 3)), 9, 9),
}


def packing_coloring(cloud: PointCloud, family: str) -> Coloring:
    """One of the four hexagonal packing colorings (indices 3, 4, 7, 9)."""
    if family not in PACKING_FAMILIES:
        raise KeyError(f"unknown packing family {family!r}")
    if not cloud.basis.is_hexagonal:
        raise ValueError("packing colorings are defined on the hexagonal lattice")
    generators, _, _ = PACKING_FAMILIES[family]
    return sublattice_coloring(cloud, generators)


def asymptotic_sublattice_ratio(m: int, delta: float) -> float:
    """Limit ratio for an index-m sublattice with minimum blue distance delta."""
    if m < 2 or delta < 1:
        raise ValueError("need index >= 2 and spacing >= 1")
    return (delta + m - 1) / m


# -- closed forms --------------------------------------------------------------


def quarter_torus_ratio(n: int) -> float:
    """Exact quarter-sublattice ratio on the torus of even period n."""
    if n % 2:
        raise ValueError("quarter sublattice needs an even period")
    return (5 * n * n / 4 - 3) / (n * n - 1)


def packing_torus_ratio(family: str, n: int) -> float:
    """Exact packing ratio on Torus(n): all three trees use shortest edges only."""
    _, m, min_sq = PACKING_FAMILIES[family]
    blue = n * n // m
    return (math.sqrt(min_sq) * (blue - 1) + (n * n - blue - 1)) / (n * n - 1)


def checkerboard_ratio(n: int) -> float:
    even = (n * n + 1) // 2
    odd = n * n - even
    return math.sqrt(2.0) * ((even - 1) + (odd - 1)) / (n * n - 1)


def threeway_torus_ratio(n: int) -> float:
    if n % 3:
        raise ValueError("three-way split needs period divisible by 3")
    return 3 * SQRT3 * (n * n // 3 - 1) / (n * n - 1)


@dataclass(frozen=True)
class StretchedForm:
    """Exact window statistics and tree lengths for the stretched lattice."""

    r: float
    p: int  # number of columns
    q: int  # points in the central column
    b: int  # blue points in the central column
    n: int  # total points
    m: int  # blue points
    len_a: float
    len_b: float
    len_c: float

    @property
    def ratio(self) -> float:
        return (self.len_b + self.len_c) / self.len_a


def stretched_form(r: float) -> StretchedForm:
    """Closed form for the stretched-lattice window, from floor arithmetic only.

    Columns sit at x = 4.5c with points j = c (mod 2) and |j|·sqrt(3)/2 <= r;
    blue points are those with j = 0 (mod 3).  The full and blue trees follow
    the per-column formulas; the complement tree bridges each removed blue
    point at cost 2*sqrt(3) except at column ends, which the per-column span
    accounts for exactly.
    """
    if r < 9:
        raise RegionTooSmall("stretched window needs r >= 9")
    cmax = int(math.floor(2 * r / 9))
    p = 2 * cmax + 1
    bigj = int(math.floor(2 * r / SQRT3))
    n_total = 0
    m_total = 0
    comp_span = 0  # sum over columns of (max - min) complement j
    q_center = b_center = 0
    for c in range(-cmax, cmax + 1):
        top = bigj - ((bigj - c) % 2)
        q_c = top + 1
        rc = 0 if c % 2 == 0 else 3
        m_c = (top - rc) // 6 + (top + rc) // 6 + 1 if top >= rc else 0
        jmax = top if top % 6 != rc else top - 2
        n_total += q_c
        m_total += m_c
        comp_span += 2 * jmax
        if c == 0:
            q_center, b_center = q_c, m_c
    len_a = SQRT3 * (n_total - p) + math.sqrt(21.0) * (p - 1)
    len_b = math.sqrt(27.0) * (m_total - 1)
    len_c = SQRT3 / 2.0 * comp_span + math.sqrt(21.0) * (p - 1)
    return StretchedForm(r, p, q_center, b_center, n_total, m_total, len_a, len_b, len_c)


# -- named constructions --------------------------------------------------------


def stretched_basis() -> Basis:
    return Basis((9.0, 0.0), (4.5, SQRT3 / 2.0))


def stretched_hex(r: float) -> tuple[PointCloud, Coloring]:
    """Stretched hexagonal lattice in [-r, r]² with the one-third blue subset.

    Blue points have j = 0 (mod 3); their minimum distance is 3*sqrt(3) and the
    window counts are validated against the closed form at construction time.
    """
    form = stretched_form(r)  # raises RegionTooSmall below r = 9
    cloud = generate_square(stretched_basis(), r)
    labels = np.where(cloud.coords[:, 1] % 3 == 0, 0, 1)
    cols = 2 * cloud.coords[:, 0] + cloud.coords[:, 1]
    p = len(np.unique(cols))
    center = cols == 0
    q = int(center.sum())
    b = int((center & (labels == 0)).sum())
    n, m = cloud.size, int((labels == 0).sum())
    if (p, q, b, n, m) != (form.p, form.q, form.b, form.n, form.m):
        raise InvariantViolation("stretched window disagrees with the closed form")
    if not (n - 2 * p <= 3 * m <= n + 2 * p):
        raise InvariantViolation("blue count outside the expected band")
    return cloud, Coloring(labels, 2)


def seven_points(eps: float) -> tuple[PointCloud, Coloring]:
    """Two unit triangles eps/2 apart plus the barycenter of the second.

    The blue class is the first triangle (tree length exactly 2); the
    complement is the translated triangle with its barycenter (length sqrt(3)).
    """
    if not 0 < eps < 0.1:
        raise ValueError("eps must lie in (0, 0.1)")
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])
    shift = (eps / 2.0) * np.array([math.cos(GOLDEN_ANGLE), math.sin(GOLDEN_ANGLE)])
    tri2 = tri + shift
    bary = tri2.mean(axis=0)
    pts = np.vstack([tri, tri2, bary])
    cloud = cloud_from_cartesian(pts)
    return cloud, Coloring((0, 0, 0, 1, 1, 1, 1), 2)


def near_collapse(n: int, eps: float) -> tuple[PointCloud, Coloring]:
    """Origin, n-2 points within eps of it, and one point b at unit distance.

    The returned coloring puts b and one cluster point in the blue class, the
    configuration whose ratio stays within delta(eps) of 1.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    pts = [(0.0, 0.0)]
    for k in range(1, n - 1):
        rad = eps * k / (n - 2)
        ang = k * GOLDEN_ANGLE
        pts.append((rad * math.cos(ang), rad * math.sin(ang)))
    pts.append((1.0, 0.0))
    cloud = cloud_from_cartesian(np.array(pts))
    labels = [1] * n
    labels[n - 1] = 0
    labels[1] = 0
    return cloud, Coloring(tuple(labels), 2)


def integer_checkerboard(n: int) -> tuple[PointCloud, Coloring]:
    """n x n portion of the integer grid, colored by the parity of i + j."""
    if n < 2:
        raise ValueError("need n >= 2")
    cloud = generate_rhombus(square_basis(), n)
    labels = (cloud.coords[:, 0] + cloud.coords[:, 1]) % 2
    return cloud, Coloring(labels, 2)


def fig8() -> tuple[PointCloud, Coloring]:
    """The 10x10 hexagonal rhombus in the plane with the quarter sublattice blue."""
    cloud = generate_rhombus(hexagonal_basis(), 10)
    return cloud, sublattice_coloring(cloud, ((2, 0), (0, 2)))


def packing(family: str, n: int) -> tuple[PointCloud, Coloring]:
    cloud = generate_rhombus(hexagonal_basis(), n, Topology.torus(n))
    return cloud, packing_coloring(cloud, family)


def threeway(n: int) -> tuple[PointCloud, Coloring]:
    """Hexagonal torus split into the three congruent index-3 sublattices."""
    if n % 3:
        raise ValueError("three-way split needs period divisible by 3")
    cloud = generate_rhombus(hexagonal_basis(), n, Topology.torus(n))
    labels = (cloud.coords[:, 1] - cloud.coords[:, 0]) % 3
    return cloud, Coloring(labels, 3)


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Construction:
    name: str
    params: dict
    cloud: PointCloud
    coloring: Coloring
    metric: Metric
    closed_form: float | None = None


@dataclass(frozen=True)
class Base:
    """A registry entry.  ``params`` maps each parameter to its default, whose
    type is the parameter's: int, float, or str for a name.  ``build`` and
    ``closed_form`` take the parameters as keywords; a packing alias fixes
    its ``family``."""

    build: Callable[..., tuple[PointCloud, Coloring]]
    params: dict
    metric: Metric
    closed_form: Callable[..., float] | None = None
    family: str | None = None

    def typed(self, name: str, value):
        """``value`` (text or a number) as parameter ``name``'s type: an int
        within 1e-9 of an integer, a finite float, or a name; else MstRatioError."""
        default = self.params[name]
        if isinstance(default, int):
            return int(integral(value, name))
        if isinstance(default, str) and isinstance(value, str):
            return value
        if isinstance(default, float):
            try:
                if math.isfinite(float(value)):
                    return float(value)
            except (TypeError, ValueError, OverflowError):
                pass
        kind = "name" if isinstance(default, str) else "finite number"
        raise MstRatioError(f"{name} must be a {kind}, not {value!r}")


REGISTRY = {
    "fig8": Base(fig8, {}, Metric.EUCLIDEAN_PLANE, lambda: 122.0 / 99.0),
    "packing": Base(
        packing, {"family": "quarter", "n": 84}, Metric.EUCLIDEAN_TORUS, packing_torus_ratio
    ),
    **{
        f: Base(packing, {"n": 84}, Metric.EUCLIDEAN_TORUS, packing_torus_ratio, f)
        for f in PACKING_FAMILIES
    },
    "stretched": Base(
        stretched_hex, {"r": 50.0}, Metric.EUCLIDEAN_PLANE, lambda r: stretched_form(r).ratio
    ),
    "checkerboard": Base(
        integer_checkerboard, {"n": 50}, Metric.EUCLIDEAN_PLANE, checkerboard_ratio
    ),
    "seven": Base(seven_points, {"eps": 1e-6}, Metric.EUCLIDEAN_PLANE),
    "collapse": Base(near_collapse, {"n": 10, "eps": 1e-4}, Metric.EUCLIDEAN_PLANE),
    "threeway": Base(threeway, {"n": 60}, Metric.EUCLIDEAN_TORUS, threeway_torus_ratio),
}


def build_construction(descriptor: str, **overrides) -> Construction:
    """Build a registry construction from e.g. "stretched:r=200" or "packing:ninth:n=60".

    Keyword overrides (n=..., r=..., eps=..., family=...) win over inline parts;
    a parameter the construction does not take, or a value not of its type,
    raises MstRatioError.
    """
    parts = descriptor.split(":")
    base = parts[0]
    if base not in REGISTRY:
        raise KeyError(f"unknown construction {base!r}")
    entry = REGISTRY[base]
    params: dict = {}
    for part in parts[1:]:
        for piece in part.split(","):
            if not piece:
                continue
            if "=" in piece:
                k, v = (x.strip() for x in piece.split("=", 1))
                params[k] = v
            elif base == "packing" and piece in PACKING_FAMILIES:
                params["family"] = piece
            else:
                raise KeyError(f"cannot parse construction parameter {piece!r}")
    params.update((k, v) for k, v in overrides.items() if v is not None)
    extra = sorted(set(params) - set(entry.params))
    if extra:
        raise MstRatioError(f"construction {base!r} takes no parameter {', '.join(extra)}")
    args = {**entry.params, **{k: entry.typed(k, v) for k, v in params.items()}}
    if entry.family:
        args["family"] = entry.family
    cloud, coloring = entry.build(**args)
    closed = None if entry.closed_form is None else entry.closed_form(**args)
    name = f"packing:{args['family']}" if "family" in args else base
    return Construction(name, args, cloud, coloring, entry.metric, closed)
