import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import kruskal

from mstratio import search
from mstratio.constructions import Coloring, mst_ratio
from mstratio.errors import MstRatioError, StaleCache, TooLarge
from mstratio.lattice import (
    Metric,
    Topology,
    cloud_from_cartesian,
    distance_matrix,
    generate_rhombus,
    hexagonal_basis,
    square_basis,
)


def torus6():
    return generate_rhombus(hexagonal_basis(), 6, Topology.torus(6))


class TestBruteForce:
    def test_unit_square_diagonal_split(self):
        cloud = generate_rhombus(square_basis(), 2)
        coloring, report = search.brute_force_max(cloud, Metric.EUCLIDEAN_PLANE)
        assert report.ratio == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)
        # the winning split pairs opposite corners
        blue = {tuple(cloud.coords[i]) for i in coloring.class_indices(0)}
        assert blue in ({(0, 0), (1, 1)}, {(1, 0), (0, 1)})

    def test_unit_triangle(self):
        cloud = cloud_from_cartesian(
            [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
        )
        _, report = search.brute_force_max(cloud, Metric.EUCLIDEAN_PLANE)
        assert report.ratio == pytest.approx(0.5, abs=1e-12)

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            search.brute_force_max(torus6(), Metric.EUCLIDEAN_TORUS)

    def test_dominates_explicit_colorings(self):
        cloud = generate_rhombus(square_basis(), 3)
        _, best = search.brute_force_max(cloud, Metric.EUCLIDEAN_PLANE)
        labels = (cloud.coords[:, 0] + cloud.coords[:, 1]) % 2
        checker = mst_ratio(
            cloud, Coloring(tuple(labels.tolist()), 2), Metric.EUCLIDEAN_PLANE
        )
        assert best.ratio >= checker.ratio - 1e-12


    def test_tied_rows_report_their_own_ratio(self):
        # (0,0,1,1) and (0,1,0,1) tie within 1e-12 at different floats; the
        # reported ratio must be the winning row's own
        cloud = cloud_from_cartesian([[4, 1], [2, 3], [1, 4], [3, 2]])
        coloring, report = search.brute_force_max(cloud, Metric.EUCLIDEAN_PLANE)
        assert coloring.labels == (0, 0, 1, 1)
        assert report.ratio == (report.len_b + report.len_complement) / report.len_total
        assert report.ratio == 4 / 3


class TestLocalSearch:
    def test_global_max_is_locally_maximal(self):
        cloud = generate_rhombus(hexagonal_basis(), 4, Topology.torus(4))
        best_coloring, best_report = search.brute_force_max(
            cloud, Metric.EUCLIDEAN_TORUS
        )
        trace = search.local_search(
            cloud, Metric.EUCLIDEAN_TORUS, best_coloring, seed=5, budget=500, t0=0.0
        )
        assert trace.local_max_flag
        assert not trace.steps
        assert trace.best_ratio == pytest.approx(best_report.ratio)

    def test_torus6_reaches_known_feasible_value(self):
        cloud = torus6()
        rng = np.random.Generator(np.random.Philox(3))
        init = Coloring(tuple(int(x) for x in rng.integers(0, 2, cloud.size)), 2)
        trace = search.local_search(cloud, Metric.EUCLIDEAN_TORUS, init, 3, 10000)
        assert trace.best_ratio >= 1.20  # quarter coloring value (2*8+26)/35

    def test_same_seed_same_trace(self):
        cloud = torus6()
        init = Coloring(tuple([0, 1] * 18), 2)
        a = search.local_search(cloud, Metric.EUCLIDEAN_TORUS, init, 42, 800)
        b = search.local_search(cloud, Metric.EUCLIDEAN_TORUS, init, 42, 800)
        assert a.steps == b.steps
        assert a.best_ratio == b.best_ratio
        assert a.best_coloring.labels == b.best_coloring.labels

    def test_zero_temperature_is_monotone(self):
        cloud = torus6()
        init = Coloring(tuple([0, 1] * 18), 2)
        trace = search.local_search(
            cloud, Metric.EUCLIDEAN_TORUS, init, 11, 2000, t0=0.0
        )
        ratios = [r for _, r in trace.steps]
        assert ratios == sorted(ratios)

    def test_trace_csv_shape(self):
        cloud = torus6()
        init = Coloring(tuple([0, 1] * 18), 2)
        trace = search.local_search(cloud, Metric.EUCLIDEAN_TORUS, init, 1, 100)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "step,flip,ratio"
        assert len(lines) == len(trace.steps) + 1


class TestIncrementalRatio:
    def test_flip_and_flip_back(self):
        cloud = torus6()
        coloring = Coloring(tuple([0, 1] * 18), 2)
        metric = Metric.EUCLIDEAN_TORUS
        cache = search.build_cache(cloud, coloring, metric)
        base = cache.ratio
        flipped = coloring.flipped(7)
        cache2 = search.build_cache(cloud, flipped, metric)
        back = search.incremental_ratio(cloud, flipped, cache2, 7)
        assert back == pytest.approx(base, abs=1e-12)

    def test_matches_scratch_on_random_flips(self):
        from mstratio.audits import incremental_audit

        assert incremental_audit(samples=100, seed=123).ok

    def test_flip_isolating_a_class(self):
        cloud = generate_rhombus(square_basis(), 2)
        coloring = Coloring((0, 0, 1, 1), 2)
        metric = Metric.EUCLIDEAN_PLANE
        cache = search.build_cache(cloud, coloring, metric)
        # flipping point 1 leaves class 0 as the singleton {0}
        ratio = search.incremental_ratio(cloud, coloring, cache, 1)
        three = cloud.subset([1, 2, 3])
        from mstratio.spanning import mst

        assert ratio == pytest.approx(
            mst(three, metric).total_length / cache.len_total
        )

    def test_stale_cache_detected(self):
        cloud = torus6()
        coloring = Coloring(tuple([0, 1] * 18), 2)
        cache = search.build_cache(cloud, coloring, Metric.EUCLIDEAN_TORUS)
        with pytest.raises(StaleCache):
            search.incremental_ratio(cloud, coloring.flipped(0), cache, 3)


def test_sampled_max_stays_below_cap():
    # Exhausting the 2^35 colorings of Torus(6) is out of reach, so the
    # below-5/4 bound is checked on a large sample instead (the exhaustive
    # variant runs on Torus(4) in the acceptance suite).
    cloud = torus6()
    _, best = search.sampled_max(cloud, Metric.EUCLIDEAN_TORUS, samples=20000, seed=9)
    assert best <= (5 / 4) * (36 - 2) / 35  # total length cap 5/4 (n^2 - 2)
    assert best < 1.25


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_max_rejects_no_samples(samples):
    cloud = generate_rhombus(square_basis(), 2)
    with pytest.raises(MstRatioError, match=r"samples must be >= 1"):
        search.sampled_max(cloud, Metric.EUCLIDEAN_PLANE, samples=samples, seed=1)


def test_sampled_max_rejects_one_point_cloud():
    cloud = cloud_from_cartesian([[0.0, 0.0]])
    with pytest.raises(TooLarge, match="at least two points"):
        search.sampled_max(cloud, Metric.EUCLIDEAN_PLANE, samples=10, seed=1)


def test_sampled_max_rejects_only_trivial_samples():
    # seed 0 draws (0, 0) first, the trivial coloring of two points
    cloud = cloud_from_cartesian([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(MstRatioError, match="no nontrivial coloring among 1 samples"):
        search.sampled_max(cloud, Metric.EUCLIDEAN_PLANE, samples=1, seed=0)
    _, best = search.sampled_max(cloud, Metric.EUCLIDEAN_PLANE, samples=1, seed=3)
    assert best == 0.0


@pytest.mark.slow
def test_sampled_max_torus6_million_colorings():
    cloud = torus6()
    _, best = search.sampled_max(
        cloud, Metric.EUCLIDEAN_TORUS, samples=10**6, seed=9
    )
    assert best < 1.25


# -- the batched class-length evaluator against the pure-Python Kruskal --------


def oracle_length(cloud, metric, idx) -> float:
    """fsum of the oracle tree's weights: hex lengths for hex metrics,
    sqrt(sq) otherwise, the floats `distance_matrix` holds."""
    if len(idx) <= 1:
        return 0.0
    tree = kruskal(cloud.subset(idx), metric)
    return math.fsum(e[3] if metric.is_hex else math.sqrt(e[2]) for e in tree)


def label_rows(size: int, arity: int, seed: int) -> np.ndarray:
    """A batch of label rows with uneven classes: one row with a singleton and
    (for arity 3) an empty class, the rest random with skewed class weights."""
    rng = np.random.default_rng(seed)
    pinned = np.zeros(size, dtype=np.int64)
    pinned[-1] = 1
    rows = [pinned]
    for _ in range(4):
        rows.append(rng.choice(arity, size=size, p=rng.dirichlet(np.full(arity, 0.5))))
    return np.array(rows)


def lattice_case(basis_name, torus, n, keep, seed, hex_metric):
    basis = hexagonal_basis() if basis_name == "hex" else square_basis()
    topology = Topology.torus(n) if torus else Topology.plane()
    cloud = generate_rhombus(basis, n, topology)
    rng = np.random.default_rng(seed)
    cloud = cloud.subset(np.flatnonzero(rng.random(cloud.size) < keep))
    if hex_metric and basis_name == "hex":
        return cloud, Metric.hexagonal(topology)
    return cloud, Metric.euclidean(topology)


def assert_lengths_match_oracle(cloud, metric, arity, seed):
    rows = label_rows(cloud.size, arity, seed)
    got = search.class_lengths(distance_matrix(cloud, metric), rows, arity)
    assert got.shape == (len(rows), arity)
    for row, lengths in zip(rows, got):
        for c in range(arity):
            assert lengths[c] == oracle_length(cloud, metric, np.flatnonzero(row == c))


@given(
    basis_name=st.sampled_from(["hex", "square"]),
    torus=st.booleans(),
    n=st.integers(2, 6),
    keep=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**32 - 1),
    hex_metric=st.booleans(),
    arity=st.sampled_from([2, 3]),
)
@settings(max_examples=80, deadline=None)
def test_class_lengths_match_oracle_on_lattices(basis_name, torus, n, keep, seed, hex_metric, arity):
    cloud, metric = lattice_case(basis_name, torus, n, keep, seed, hex_metric)
    if cloud.size >= 2:
        assert_lengths_match_oracle(cloud, metric, arity, seed)


@given(
    points=st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=2, max_size=25, unique=True
    ),
    scale=st.sampled_from([1.0, 0.5, 0.1]),
    seed=st.integers(0, 2**32 - 1),
    arity=st.sampled_from([2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_class_lengths_match_oracle_on_cartesian_clouds(points, scale, seed, arity):
    cloud = cloud_from_cartesian(np.array(points, dtype=float) * scale)
    assert_lengths_match_oracle(cloud, Metric.EUCLIDEAN_PLANE, arity, seed)


def test_class_lengths_split_into_passes_agree(monkeypatch):
    cloud = torus6()
    d = distance_matrix(cloud, Metric.EUCLIDEAN_TORUS)
    rows = label_rows(cloud.size, 3, 7)
    whole = search.class_lengths(d, rows, 3)
    monkeypatch.setattr(search, "_CELLS", 1)  # one row per pass
    assert np.array_equal(search.class_lengths(d, rows, 3), whole)


def test_spanning_path_matches_dense_path(monkeypatch):
    # above the dense limit every new subset goes through spanning.mst instead
    cloud = torus6()
    init = Coloring(tuple([0, 1] * 18), 2)
    dense = search.local_search(cloud, Metric.EUCLIDEAN_TORUS, init, 42, 200)
    monkeypatch.setattr(search, "_DENSE_LIMIT", 0)
    sparse = search.local_search(cloud, Metric.EUCLIDEAN_TORUS, init, 42, 200)
    assert sparse == dense


def enumerated_max(cloud, metric):
    """Plain enumeration over the oracle under the documented tie rule: the
    candidates are the largest ratio and every ratio within 1e-12 of it, the
    lexicographically smallest label row wins and carries its own ratio."""
    v = cloud.size
    total = oracle_length(cloud, metric, np.arange(v))
    scored = []
    for tail in itertools.product((0, 1), repeat=v - 1):
        labels = (0,) + tail
        if 1 not in labels:
            continue
        arr = np.array(labels)
        len_b = oracle_length(cloud, metric, np.flatnonzero(arr == 0))
        len_c = oracle_length(cloud, metric, np.flatnonzero(arr == 1))
        scored.append(((len_b + len_c) / total, labels, (len_b, len_c)))
    top = max(ratio for ratio, _, _ in scored)
    return min((labels, lengths, ratio) for ratio, labels, lengths in scored if ratio >= top - 1e-12)


@given(
    basis_name=st.sampled_from(["hex", "square"]),
    torus=st.booleans(),
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    hex_metric=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_brute_force_matches_enumeration_on_lattices(basis_name, torus, n, seed, hex_metric):
    cloud, metric = lattice_case(basis_name, torus, n, 0.6, seed, hex_metric)
    if 2 <= cloud.size <= 8:
        assert_brute_matches_enumeration(cloud, metric)


@given(
    points=st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=8, unique=True
    ),
)
@settings(max_examples=25, deadline=None)
def test_brute_force_matches_enumeration_on_cartesian_clouds(points):
    # small integer grids: many exact and near ties between partitions
    assert_brute_matches_enumeration(cloud_from_cartesian(points), Metric.EUCLIDEAN_PLANE)


def assert_brute_matches_enumeration(cloud, metric):
    coloring, report = search.brute_force_max(cloud, metric)
    labels, lengths, ratio = enumerated_max(cloud, metric)
    assert coloring.labels == labels
    assert report.class_lengths == lengths
    assert report.ratio == ratio


# -- pinned outputs ------------------------------------------------------------

#: sha256 of outputs recorded before the evaluator and the anneal memo landed;
#: both must stay bit-identical
LOCAL_SEARCH_CSV_SHA256 = "1b2c4723f9771a7333963224649f5ca3366a8f57072336c28dadd3e7dca8c0e7"
SAMPLED_MAX_SHA256 = "bb6d3d7209c02ecedf06c72838af0effba40f866f0aa6327b205f51bf96b897e"


def test_search_outputs_are_pinned():
    cloud = torus6()
    metric = Metric.EUCLIDEAN_TORUS
    trace = search.local_search(cloud, metric, Coloring(tuple([0, 1] * 18), 2), 42, 800)
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == LOCAL_SEARCH_CSV_SHA256
    coloring, best = search.sampled_max(cloud, metric, samples=20000, seed=9)
    digest = hashlib.sha256(repr((coloring.labels, best)).encode()).hexdigest()
    assert digest == SAMPLED_MAX_SHA256


# -- the list Prim for single classes ------------------------------------------


def assert_tree_length_matches(cloud, metric, seed):
    """`_tree_length` equals `class_lengths` bit for bit and the oracle, on the
    classes of uneven label rows (one of them empty, one a singleton) and on
    two-point classes."""
    d = distance_matrix(cloud, metric)
    dense_rows = d.tolist()
    rows = label_rows(cloud.size, 3, seed)
    batched = search.class_lengths(d, rows, 3)
    classes = [(np.flatnonzero(row == c).tolist(), lengths[c])
               for row, lengths in zip(rows, batched) for c in range(3)]
    assert any(not members for members, _ in classes)
    assert any(len(members) == 1 for members, _ in classes)
    pair = np.zeros((1, cloud.size), dtype=np.intp)
    pair[0, [0, -1]] = 1
    classes.append(([0, cloud.size - 1], search.class_lengths(d, pair, 2)[0, 1]))
    for members, expected in classes:
        got = search._tree_length(dense_rows, members)
        assert got == expected
        assert got == oracle_length(cloud, metric, members)


@given(
    basis_name=st.sampled_from(["hex", "square"]),
    torus=st.booleans(),
    n=st.integers(2, 6),
    keep=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**32 - 1),
    hex_metric=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_tree_length_matches_forest_prim_on_lattices(basis_name, torus, n, keep, seed, hex_metric):
    cloud, metric = lattice_case(basis_name, torus, n, keep, seed, hex_metric)
    if cloud.size >= 2:
        assert_tree_length_matches(cloud, metric, seed)


@given(
    points=st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=2, max_size=25, unique=True
    ),
    scale=st.sampled_from([1.0, 0.5, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_tree_length_matches_forest_prim_on_cartesian_clouds(points, scale, seed):
    cloud = cloud_from_cartesian(np.array(points, dtype=float) * scale)
    assert_tree_length_matches(cloud, Metric.EUCLIDEAN_PLANE, seed)


def test_tree_length_sums_exactly():
    # ten edges of 0.1 on a path: a plain float sum gives 0.9999999999999999
    d = np.abs(np.subtract.outer(np.arange(11), np.arange(11))) * 0.1
    whole = search.class_lengths(d, np.zeros((1, 11), dtype=np.intp), 1)[0, 0]
    assert search._tree_length(d.tolist(), list(range(11))) == whole == 1.0


def test_forest_path_matches_list_path(monkeypatch):
    # with the list limit at 0 every single class goes through class_lengths
    cloud = torus6()
    metric = Metric.EUCLIDEAN_TORUS
    init = Coloring(tuple([0, 1] * 18), 2)
    assert search.build_cache(cloud, init, metric).dense_rows is not None
    listed = search.local_search(cloud, metric, init, 42, 200)
    monkeypatch.setattr(search, "_LIST_PRIM_LIMIT", 0)
    assert search.build_cache(cloud, init, metric).dense_rows is None
    forest = search.local_search(cloud, metric, init, 42, 200)
    assert forest == listed
