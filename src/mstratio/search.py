"""Exhaustive and stochastic search for ratio-maximizing colorings.

The landscape of the coloring problem is rugged but shallow, so the module
offers an exact enumerator for small clouds (complement symmetry halves the
space), a seeded simulated-annealing hill climber, and the incremental ratio
maintenance it relies on: the denominator never changes and a single flip only
touches two class trees.

Two exact evaluators measure classes, chosen by the shape of the input.
Batches of label rows (the exhaustive and sampled searches, the local-maximum
check) go to `class_lengths`, a forest Prim batched over the rows.  A single
class that the annealer's memo lacks, on a cloud of at most `_LIST_PRIM_LIMIT`
points, goes to `_tree_length`, a Prim over Python lists: on one row the numpy
forest Prim spends most of its time in per-call overhead.  The memo maps a
class's membership bitmask (a Python int, bit p for point p) to its length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lattice, spanning
from .constructions import Coloring, RatioReport, supmax_check
from .errors import InvariantViolation, MstRatioError, StaleCache, TooLarge
from .lattice import Metric, PointCloud

_DENSE_LIMIT = 1500  # cache a dense distance matrix up to this many points
_LIST_PRIM_LIMIT = 400  # one class up to this many points is measured by `_tree_length`
_BATCH = 256  # label rows per evaluator call in the exhaustive and sampled searches
_TIE = 1e-12  # ratios this close to the best count as tied
_CELLS = 1 << 21  # bound on the (rows, V, V) masked distances of one evaluator pass


def class_lengths(d: np.ndarray, rows: np.ndarray, arity: int) -> np.ndarray:
    """Exact MST length of every class of every label row, as a (B, arity) array.

    `d` is a dense (V, V) distance matrix and `rows` a (B, V) batch of labels
    in 0..arity-1.  A forest Prim runs over the batch: each nonempty class
    grows from its first member, distances between classes are infinite, and
    a point's key freezes when it joins, so the non-root keys are the tree's
    edge weights.  Their `math.fsum` is exact whatever the tie-break, since
    all MSTs share one multiset of weights.
    """
    rows = np.asarray(rows, dtype=np.intp)
    b, v = rows.shape
    per_pass = max(1, _CELLS // (v * v))
    if b > per_pass:
        parts = [class_lengths(d, rows[i : i + per_pass], arity) for i in range(0, b, per_pass)]
        return np.concatenate(parts)
    cols = np.arange(v)
    base = np.arange(b) * v
    members = rows[:, None, :] == np.arange(arity)[:, None]
    root_of = np.take_along_axis(members.argmax(axis=2), rows, axis=1)
    dist = np.where(rows[:, :, None] == rows[:, None, :], d, np.inf).reshape(b * v, v)
    key = dist[base[:, None] + root_of, cols]
    grown = root_of != cols
    outside = grown.copy()
    flat_outside = outside.reshape(-1)
    for _ in range(grown.sum(axis=1).max(initial=0)):
        nxt = base + np.where(outside, key, np.inf).argmin(axis=1)
        flat_outside[nxt] = False
        np.minimum(key, dist[nxt], out=key, where=outside)
    weights = [np.where(grown & members[:, c], key, 0.0).tolist() for c in range(arity)]
    return np.array([[math.fsum(w) for w in per_class] for per_class in weights]).T


def _tree_length(dense_rows: list[list[float]], members: list[int]) -> float:
    """Exact MST length of the points `members` (ascending) under the distance
    rows `dense_rows`, by a Prim over Python lists.

    The tree grows from the first member, and the first of equal keys joins
    next, as in `class_lengths`; the `math.fsum` of the weights is exact and
    equals that evaluator's bit for bit.
    """
    if not members:
        return 0.0
    row = dense_rows[members[0]]
    out = members[1:]  # points not yet in the tree, ascending
    keys = [row[q] for q in out]
    weights = []
    for _ in range(len(members) - 1):  # a tree on k points has k - 1 edges
        weight = min(keys)
        i = keys.index(weight)
        weights.append(weight)
        del keys[i]
        row = dense_rows[out.pop(i)]
        keys = [k if k <= row[q] else row[q] for k, q in zip(keys, out)]
    return math.fsum(weights)


def _members(mask: int) -> list[int]:
    """The points whose bits are set in `mask`, ascending."""
    return [p for p, bit in enumerate(f"{mask:b}"[::-1]) if bit == "1"]


def _class_masks(rows, arity: int) -> list[list[int]]:
    """Membership bitmask of every class of every label row."""
    members = np.asarray(rows)[:, None, :] == np.arange(arity)[:, None]
    packed = np.packbits(members, axis=-1, bitorder="little")
    return [[int.from_bytes(m.tobytes(), "little") for m in row] for row in packed]


@dataclass
class RatioCache:
    """Class tree lengths for one coloring; the denominator is fixed."""

    labels: tuple[int, ...]
    arity: int
    metric: Metric
    class_lengths: list[float]
    len_total: float
    dense: np.ndarray | None  # distance matrix when the cloud is small enough
    # `dense` as lists for `_tree_length`, up to `_LIST_PRIM_LIMIT` points
    dense_rows: list[list[float]] | None = field(default=None, repr=False)
    # class membership bitmask -> tree length, shared by the caches of one search
    memo: dict[int, float] = field(default_factory=dict, repr=False, compare=False)

    @property
    def ratio(self) -> float:
        return math.fsum(self.class_lengths) / self.len_total


def _mask_length(cloud: PointCloud, cache: RatioCache, mask: int) -> float:
    """Tree length of the class with membership bitmask `mask`, measured once:
    by `_tree_length` up to `_LIST_PRIM_LIMIT` points, by `class_lengths` on
    the class's distances up to `_DENSE_LIMIT`, by one spanning tree above."""
    length = cache.memo.get(mask)
    if length is None:
        members = _members(mask)
        if cache.dense_rows is not None:
            length = _tree_length(cache.dense_rows, members)
        elif cache.dense is None:
            length = spanning.mst(cloud.subset(members), cache.metric).total_length
        elif members:
            sub = cache.dense[np.ix_(members, members)]
            length = float(class_lengths(sub, np.zeros((1, len(members)), dtype=np.intp), 1)[0, 0])
        else:
            length = 0.0
        cache.memo[mask] = length
    return length


def _lengths(cloud: PointCloud, cache: RatioCache, rows: np.ndarray) -> list[list[float]]:
    """Class lengths of label rows; only subsets the memo lacks are evaluated,
    in one `class_lengths` batch when more than one row has some."""
    masks = _class_masks(rows, cache.arity)
    missing = [i for i, row in enumerate(masks) if not all(m in cache.memo for m in row)]
    if len(missing) > 1 and cache.dense is not None:
        fresh = class_lengths(cache.dense, rows[missing], cache.arity).tolist()
        for i, lengths in zip(missing, fresh):
            cache.memo.update(zip(masks[i], lengths))
    return [[_mask_length(cloud, cache, m) for m in row] for row in masks]


def build_cache(cloud: PointCloud, coloring: Coloring, metric: Metric) -> RatioCache:
    dense = lattice.distance_matrix(cloud, metric) if cloud.size <= _DENSE_LIMIT else None
    rows = dense.tolist() if dense is not None and cloud.size <= _LIST_PRIM_LIMIT else None
    cache = RatioCache(coloring.labels, coloring.arity, metric, [], math.nan, dense, rows)
    cache.len_total = _mask_length(cloud, cache, (1 << cloud.size) - 1)
    return _recolor(cloud, cache, coloring.labels)


def _recolor(cloud: PointCloud, cache: RatioCache, labels: tuple[int, ...]) -> RatioCache:
    """The cache of another coloring of the same cloud, sharing the memo."""
    lengths = [_mask_length(cloud, cache, m) for m in _class_masks([labels], cache.arity)[0]]
    return replace(cache, labels=labels, class_lengths=lengths)


def _flip(cloud: PointCloud, cache: RatioCache, flip: int) -> RatioCache:
    """The cache of the coloring with one label flipped, sharing the memo."""
    labels = list(cache.labels)
    labels[flip] = 1 - labels[flip]
    return _recolor(cloud, cache, tuple(labels))


def incremental_ratio(
    cloud: PointCloud, coloring: Coloring, cache: RatioCache, flip: int
) -> float:
    """Ratio after flipping one label; only subsets the cache's memo lacks are evaluated."""
    if coloring.arity != 2:
        raise ValueError("single flips are a 2-class operation")
    if cache.labels != coloring.labels or cache.arity != coloring.arity:
        raise StaleCache("cache was built for a different coloring")
    return _flip(cloud, cache, flip).ratio


# -- exhaustive search ---------------------------------------------------------


def brute_force_max(
    cloud: PointCloud, metric: Metric, max_points: int = 22
) -> tuple[Coloring, RatioReport]:
    """Exact maximizer over all 2^(V-1) - 1 nontrivial unordered partitions.

    Point 0 is pinned to the blue class (complement symmetry); the trivial
    partition with an empty class is skipped.  Ties: the candidates are the
    largest ratio and every ratio within 1e-12 of it; among them the
    lexicographically smallest label row wins, and the report carries that
    row's own class lengths and ratio.
    """
    v = cloud.size
    if v > max_points:
        raise TooLarge(f"{v} points exceed the cap of {max_points}")
    if v < 2:
        raise TooLarge("need at least two points")
    d = lattice.distance_matrix(cloud, metric)
    len_total = float(class_lengths(d, np.zeros((1, v), dtype=np.int8), 1)[0, 0])
    bits = np.arange(v - 1)
    end = 1 << (v - 1)
    cand_rows = np.empty((0, v), dtype=np.int8)
    cand_lengths = np.empty((0, 2))
    for start in range(1, end, _BATCH):
        masks = np.arange(start, min(start + _BATCH, end))
        rows = np.zeros((len(masks), v), dtype=np.int8)
        rows[:, 1:] = (masks[:, None] >> bits) & 1
        cand_rows = np.concatenate([cand_rows, rows])
        cand_lengths = np.concatenate([cand_lengths, class_lengths(d, rows, 2)])
        ratios = (cand_lengths[:, 0] + cand_lengths[:, 1]) / len_total
        keep = ratios >= ratios.max() - _TIE
        cand_rows, cand_lengths = cand_rows[keep], cand_lengths[keep]
    win = np.lexsort(cand_rows.T[::-1])[0]
    len_b, len_c = cand_lengths[win].tolist()
    coloring = Coloring(cand_rows[win], 2)
    report = RatioReport((len_b, len_c), len_total, (len_b + len_c) / len_total, coloring.counts)
    if not supmax_check(report):
        raise InvariantViolation(f"ratio {report.ratio} exceeds the universal cap")
    return coloring, report


def sampled_max(
    cloud: PointCloud, metric: Metric, samples: int, seed: int
) -> tuple[Coloring, float]:
    """Best ratio over uniformly random nontrivial colorings (fixed seed); the
    first sample reaching it wins.  Trivial samples (one empty class) are
    skipped, and MstRatioError is raised if every sample is trivial."""
    if samples < 1:
        raise MstRatioError(f"samples must be >= 1, got {samples}")
    v = cloud.size
    if v < 2:
        raise TooLarge("need at least two points")
    rng = np.random.Generator(np.random.Philox(seed))
    d = lattice.distance_matrix(cloud, metric)
    len_total = float(class_lengths(d, np.zeros((1, v), dtype=np.int8), 1)[0, 0])
    best = -1.0
    best_labels = None
    for start in range(0, samples, _BATCH):
        # one (k, v) draw is the same stream as k draws of v labels
        rows = rng.integers(0, 2, (min(_BATCH, samples - start), v))
        rows = rows[rows.min(axis=1) != rows.max(axis=1)]
        if not len(rows):
            continue
        lengths = class_lengths(d, rows, 2)
        ratios = (lengths[:, 0] + lengths[:, 1]) / len_total
        i = int(ratios.argmax())
        if ratios[i] > best:
            best = float(ratios[i])
            best_labels = rows[i]
    if best_labels is None:
        raise MstRatioError(f"no nontrivial coloring among {samples} samples")
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
    full = (1 << v) - 1
    blue = _class_masks([init.labels], 2)[0][0]  # the class-0 bitmask of the walk
    current = cache.ratio
    best_blue = blue
    best = current
    steps: list[tuple[int, float]] = []
    for k in range(budget):
        flip = int(rng.integers(v))
        cand_blue = blue ^ (1 << flip)
        # `+` of two floats rounds like the `math.fsum` of `RatioCache.ratio`
        cand = (
            _mask_length(cloud, cache, cand_blue) + _mask_length(cloud, cache, full ^ cand_blue)
        ) / cache.len_total
        delta = cand - current
        temp = t0 * alpha**k
        if delta > 0:
            accept = True
        elif temp > 0:
            accept = rng.random() < math.exp(delta / temp)
        else:
            accept = False
        if accept:
            blue = cand_blue
            current = cand
            steps.append((flip, current))
            if current > best:
                best = current
                best_blue = blue
    labels = tuple(1 - (best_blue >> p & 1) for p in range(v))
    flips = np.asarray(labels) ^ np.eye(v, dtype=np.int64)  # row p flips point p
    flag = all(
        math.fsum(lengths) / cache.len_total <= best + _TIE
        for lengths in _lengths(cloud, cache, flips)
    )
    return SearchTrace(seed, tuple(steps), Coloring(labels, 2), best, flag)
