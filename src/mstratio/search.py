"""Exhaustive and stochastic search for ratio-maximizing colorings.

The landscape of the coloring problem is rugged but shallow, so the module
offers an exact enumerator for small clouds (complement symmetry halves the
space), a seeded simulated-annealing hill climber, and the incremental ratio
maintenance both rely on: the denominator never changes and a single flip only
touches two class trees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice, spanning
from .constructions import Coloring, RatioReport, supmax_check
from .errors import InvariantViolation, StaleCache, TooLarge
from .lattice import Metric, PointCloud

_DENSE_LIMIT = 1500  # cache a dense distance matrix up to this many points


def _prim_length(d: np.ndarray) -> float:
    """Exact MST length of a dense symmetric distance matrix."""
    k = len(d)
    if k <= 1:
        return 0.0
    in_tree = np.zeros(k, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    best[0] = np.inf
    picked = []
    for _ in range(k - 1):
        nxt = int(np.argmin(best))
        picked.append(float(best[nxt]))
        in_tree[nxt] = True
        best[nxt] = np.inf
        np.minimum(best, np.where(in_tree, np.inf, d[nxt]), out=best)
    return math.fsum(picked)


@dataclass
class RatioCache:
    """Class tree lengths for one coloring; the denominator is fixed."""

    labels: tuple[int, ...]
    arity: int
    metric: Metric
    class_lengths: list[float]
    len_total: float
    dense: np.ndarray | None  # distance matrix when the cloud is small enough

    @property
    def ratio(self) -> float:
        return math.fsum(self.class_lengths) / self.len_total


def build_cache(cloud: PointCloud, coloring: Coloring, metric: Metric) -> RatioCache:
    dense = (
        lattice.distance_matrix(cloud, metric) if cloud.size <= _DENSE_LIMIT else None
    )
    lengths = [
        _subset_length(cloud, metric, dense, coloring.class_indices(c))
        for c in range(coloring.arity)
    ]
    len_total = (
        _prim_length(dense)
        if dense is not None
        else spanning.mst(cloud, metric).total_length
    )
    return RatioCache(coloring.labels, coloring.arity, metric, lengths, len_total, dense)


def _subset_length(cloud, metric, dense, idx) -> float:
    if len(idx) <= 1:
        return 0.0
    if dense is not None:
        return _prim_length(dense[np.ix_(idx, idx)])
    return spanning.mst(cloud.subset(idx), metric).total_length


def incremental_ratio(
    cloud: PointCloud, coloring: Coloring, cache: RatioCache, flip: int
) -> float:
    """Ratio after flipping one label, recomputing only the two affected trees."""
    if coloring.arity != 2:
        raise ValueError("single flips are a 2-class operation")
    if cache.labels != coloring.labels or cache.arity != coloring.arity:
        raise StaleCache("cache was built for a different coloring")
    old = coloring.labels[flip]
    new = 1 - old
    labels = np.asarray(coloring.labels)
    lengths = list(cache.class_lengths)
    for c in (old, new):
        idx = np.flatnonzero(labels == c)
        if c == old:
            idx = idx[idx != flip]
        else:
            idx = np.sort(np.append(idx, flip))
        lengths[c] = _subset_length(cloud, cache.metric, cache.dense, idx)
    return math.fsum(lengths) / cache.len_total


def _apply_flip(cloud, cache: RatioCache, flip: int) -> RatioCache:
    labels = list(cache.labels)
    old = labels[flip]
    new = 1 - old
    labels[flip] = new
    arr = np.asarray(labels)
    lengths = list(cache.class_lengths)
    for c in (old, new):
        lengths[c] = _subset_length(
            cloud, cache.metric, cache.dense, np.flatnonzero(arr == c)
        )
    return RatioCache(
        tuple(labels), cache.arity, cache.metric, lengths, cache.len_total, cache.dense
    )


# -- exhaustive search ---------------------------------------------------------


def brute_force_max(
    cloud: PointCloud, metric: Metric, max_points: int = 22
) -> tuple[Coloring, RatioReport]:
    """Exact maximizer over all 2^(V-1) - 1 nontrivial unordered partitions.

    Point 0 is pinned to the blue class (complement symmetry); the trivial
    partition with an empty class is skipped.  Ties resolve to the
    lexicographically smallest label vector.
    """
    v = cloud.size
    if v > max_points:
        raise TooLarge(f"{v} points exceed the cap of {max_points}")
    if v < 2:
        raise TooLarge("need at least two points")
    d = lattice.distance_matrix(cloud, metric)
    len_total = _prim_length(d)
    all_idx = np.arange(v)
    best_ratio = -1.0
    best_labels: tuple[int, ...] | None = None
    best_lengths = (0.0, 0.0)
    for mask in range(1, 1 << (v - 1)):
        labels = np.zeros(v, dtype=np.int8)
        rest = mask
        bit = 1
        while rest:
            if rest & 1:
                labels[bit] = 1
            rest >>= 1
            bit += 1
        idx_b = all_idx[labels == 0]
        idx_c = all_idx[labels == 1]
        len_b = _prim_length(d[np.ix_(idx_b, idx_b)]) if len(idx_b) > 1 else 0.0
        len_c = _prim_length(d[np.ix_(idx_c, idx_c)]) if len(idx_c) > 1 else 0.0
        ratio = (len_b + len_c) / len_total
        if ratio > best_ratio + 1e-12:
            best_ratio, best_labels = ratio, tuple(int(x) for x in labels)
            best_lengths = (len_b, len_c)
        elif abs(ratio - best_ratio) <= 1e-12:
            cand = tuple(int(x) for x in labels)
            if best_labels is None or cand < best_labels:
                best_labels = cand
                best_lengths = (len_b, len_c)
    coloring = Coloring(best_labels, 2)
    report = RatioReport(best_lengths, len_total, best_ratio, coloring.counts)
    if not supmax_check(report):
        raise InvariantViolation(f"ratio {report.ratio} exceeds the universal cap")
    return coloring, report


def sampled_max(
    cloud: PointCloud, metric: Metric, samples: int, seed: int
) -> tuple[Coloring, float]:
    """Best ratio over uniformly random nontrivial colorings (fixed seed)."""
    rng = np.random.Generator(np.random.Philox(seed))
    v = cloud.size
    d = lattice.distance_matrix(cloud, metric)
    len_total = _prim_length(d)
    all_idx = np.arange(v)
    best = -1.0
    best_labels = None
    for _ in range(samples):
        labels = rng.integers(0, 2, v)
        if labels.min() == labels.max():
            continue
        idx_b = all_idx[labels == 0]
        idx_c = all_idx[labels == 1]
        ratio = (
            _prim_length(d[np.ix_(idx_b, idx_b)])
            + _prim_length(d[np.ix_(idx_c, idx_c)])
        ) / len_total
        if ratio > best:
            best = ratio
            best_labels = tuple(int(x) for x in labels)
    return Coloring(best_labels, 2), best


# -- local search ----------------------------------------------------------------


@dataclass(frozen=True)
class SearchTrace:
    seed: int
    steps: tuple[tuple[int, float], ...]  # accepted (flip index, ratio after)
    best_coloring: Coloring
    best_ratio: float
    local_max_flag: bool

    def to_csv(self) -> str:
        lines = ["step,flip,ratio"]
        for k, (flip, ratio) in enumerate(self.steps):
            lines.append(f"{k},{flip},{ratio:.12g}")
        return "\n".join(lines) + "\n"


def local_search(
    cloud: PointCloud,
    metric: Metric,
    init: Coloring,
    seed: int,
    budget: int,
    t0: float = 0.05,
    alpha: float = 0.999,
) -> SearchTrace:
    """Single-flip hill climbing with geometric annealing T_k = t0 * alpha^k.

    With t0 = 0 the walk is strictly improving.  The trace is reproducible
    from the seed: one index draw per proposal plus one uniform draw per
    non-improving proposal while the temperature is positive.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if init.arity != 2:
        raise ValueError("local search flips a 2-class coloring")
    rng = np.random.Generator(np.random.Philox(seed))
    v = cloud.size
    cache = build_cache(cloud, init, metric)
    current = cache.ratio
    best_cache = cache
    best = current
    steps: list[tuple[int, float]] = []
    for k in range(budget):
        flip = int(rng.integers(v))
        cand = incremental_ratio(cloud, Coloring(cache.labels, 2), cache, flip)
        delta = cand - current
        temp = t0 * alpha**k
        if delta > 0:
            accept = True
        elif temp > 0:
            accept = rng.random() < math.exp(delta / temp)
        else:
            accept = False
        if accept:
            cache = _apply_flip(cloud, cache, flip)
            current = cand
            steps.append((flip, current))
            if current > best:
                best = current
                best_cache = cache
    best_coloring = Coloring(best_cache.labels, 2)
    flag = True
    for p in range(v):
        if incremental_ratio(cloud, best_coloring, best_cache, p) > best + 1e-12:
            flag = False
            break
    return SearchTrace(seed, tuple(steps), best_coloring, best, flag)
