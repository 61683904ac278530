"""``mst``, ``hex_mst`` and ``label_components`` against the pure-Python
references in ``oracles``.

Both candidate sources are covered: clouds of at most 420 points and
cartesian clouds rank all pairs and grow the tree over prefix bands, larger
lattice clouds take the cutoff path with its growth rounds.
"""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import component_labels, kruskal

from mstratio import spanning
from mstratio.lattice import (
    Basis,
    Metric,
    Topology,
    cloud_from_cartesian,
    generate_rhombus,
    hexagonal_basis,
    lattice_cloud,
    square_basis,
)
from mstratio.spanning import hex_mst, mst

BASES = {
    "hex": hexagonal_basis(),
    "square": square_basis(),
    "sheared-exact": Basis((1.0, 0.0), (5.0, 1.0)),  # not reduced, integral Gram
    "sheared": Basis((1.0, 0.0), (3.3, 0.2)),  # not reduced, inexact Gram
}


def random_cloud(basis_name: str, torus: bool, n: int, keep: float, seed: int):
    topology = Topology.torus(n) if torus else Topology.plane()
    cloud = generate_rhombus(BASES[basis_name], n, topology)
    rng = np.random.default_rng(seed)
    return cloud.subset(np.flatnonzero(rng.random(cloud.size) < keep))


def assert_matches_oracle(cloud, metric):
    tree = hex_mst(cloud) if metric.is_hex else mst(cloud, metric)
    expect = kruskal(cloud, metric)
    assert [(e.a, e.b, e.sq_len, e.hex_len) for e in tree.edges] == expect
    assert tree.total_length == math.fsum(math.sqrt(e[2]) for e in expect)
    tree.validate()


def metric_of(cloud, hex_metric: bool):
    if hex_metric and cloud.basis.is_hexagonal:
        return Metric.hexagonal(cloud.topology)
    return Metric.euclidean(cloud.topology)


@given(
    basis_name=st.sampled_from(sorted(BASES)),
    torus=st.booleans(),
    n=st.integers(2, 12),
    keep=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
    hex_metric=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_full_pair_path_matches_oracle(basis_name, torus, n, keep, seed, hex_metric):
    cloud = random_cloud(basis_name, torus, n, keep, seed)
    assert_matches_oracle(cloud, metric_of(cloud, hex_metric))


@given(
    basis_name=st.sampled_from(sorted(BASES)),
    torus=st.booleans(),
    n=st.integers(22, 25),
    keep=st.floats(0.75, 1.0),
    seed=st.integers(0, 2**32 - 1),
    hex_metric=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_cutoff_path_matches_oracle(basis_name, torus, n, keep, seed, hex_metric):
    cloud = random_cloud(basis_name, torus, n, keep, seed)
    assume(cloud.size > spanning._FULL_PAIR_LIMIT)
    assert_matches_oracle(cloud, metric_of(cloud, hex_metric))


@given(
    points=st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=40, unique=True
    ),
    scale=st.sampled_from([1.0, 0.5, 0.1]),
)
@settings(max_examples=60, deadline=None)
def test_cartesian_clouds_match_oracle(points, scale):
    # integer grids scaled: many equal lengths, so the (a, b) tie-break decides
    cloud = cloud_from_cartesian(np.array(points, dtype=float) * scale)
    assert_matches_oracle(cloud, Metric.EUCLIDEAN_PLANE)


def two_clusters(topology):
    block = [(i, j) for i in range(15) for j in range(15)]
    far = 30 if topology.is_torus else 60
    coords = block + [(i + far, j + far) for i, j in block]
    return lattice_cloud(hexagonal_basis(), topology, coords)


@pytest.mark.parametrize("topology", [Topology.plane(), Topology.torus(60)], ids=["plane", "torus"])
@pytest.mark.parametrize("hex_metric", [False, True])
def test_growth_across_clusters_matches_oracle(topology, hex_metric, monkeypatch):
    # 450 points in two blocks farther apart than the first cutoff: the first
    # round spans each block only, and later rounds start from its components
    cloud = two_clusters(topology)
    starts = []
    boruvka = spanning._boruvka

    def counting(n_points, a, b, root):
        starts.append(len(np.unique(root)))
        return boruvka(n_points, a, b, root)

    monkeypatch.setattr(spanning, "_boruvka", counting)
    metric = Metric.hexagonal(topology) if hex_metric else Metric.euclidean(topology)
    assert_matches_oracle(cloud, metric)
    assert starts[0] == cloud.size
    assert len(starts) > 1 and starts[1] == 2


def strips(topology, count: int):
    """``count`` strips of the hexagonal lattice, 480 points in all, 30 wide
    and 12 rows apart: the first round spans each strip, and the class that
    joins neighbouring strips meets every column."""
    rows = 480 // (30 * count)
    strip = [(i, j) for i in range(30) for j in range(rows)]
    return lattice_cloud(
        hexagonal_basis(), topology, [(i, j + s * (rows + 12)) for s in range(count) for i, j in strip]
    )


def assert_contraction_exact(cloud, metric):
    # the cutoff path's tree, from bands filtered and contracted by the forest
    # sent in, equals one grown over the same bands iterated without send
    # (every row), and both equal the oracle
    assert cloud.size > spanning._FULL_PAIR_LIMIT
    tree = spanning._mst_arrays(cloud, metric)
    plain = (band for band in spanning._cutoff_bands(cloud, metric))
    for got, want in zip(tree, spanning._grow(cloud.size, plain, metric.is_hex, ranked=True)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert list(zip(*(col.tolist() for col in tree))) == kruskal(cloud, metric)


@given(
    basis_name=st.sampled_from(sorted(BASES)),
    torus=st.booleans(),
    n=st.integers(21, 30),
    keep=st.floats(0.45, 1.0),
    seed=st.integers(0, 2**32 - 1),
    hex_metric=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_contracted_bands_grow_the_same_tree(basis_name, torus, n, keep, seed, hex_metric):
    cloud = random_cloud(basis_name, torus, n, keep, seed)
    assume(spanning._FULL_PAIR_LIMIT < cloud.size <= 650)
    assert_contraction_exact(cloud, metric_of(cloud, hex_metric))


@pytest.mark.parametrize("build", [two_clusters, lambda t: strips(t, 2), lambda t: strips(t, 4)],
                         ids=["two-clusters", "two-strips", "four-strips"])
@pytest.mark.parametrize("topology", [Topology.plane(), Topology.torus(64)], ids=["plane", "torus"])
@pytest.mark.parametrize("hex_metric", [False, True])
def test_contracted_bands_on_clusters(build, topology, hex_metric):
    # later rounds start from a few components
    cloud = build(topology)
    assert_contraction_exact(cloud, Metric.hexagonal(topology) if hex_metric else Metric.euclidean(topology))


@given(
    skew=st.integers(2, 40),
    dy=st.floats(0.005, 0.5),
    torus=st.booleans(),
    drop=st.integers(0, 10),
    hex_metric=st.booleans(),
)
@settings(max_examples=6, deadline=None)
def test_contracted_bands_on_skewed_bases(skew, dy, torus, drop, hex_metric):
    cloud = collapsed_cloud(skew, 0.25, dy, 2, torus, 5, drop)
    assert_contraction_exact(cloud, Metric.hexagonal(cloud.topology) if hex_metric else Metric.euclidean(cloud.topology))


@pytest.mark.parametrize("count", [2, 4])
@pytest.mark.parametrize("topology", [Topology.plane(), Topology.torus(64)], ids=["plane", "torus"])
@pytest.mark.parametrize("hex_metric", [False, True])
def test_joining_band_reaches_boruvka_as_one_row_per_pair(count, topology, hex_metric, monkeypatch):
    cloud = strips(topology, count)
    metric = Metric.hexagonal(topology) if hex_metric else Metric.euclidean(topology)
    boruvka = spanning._boruvka

    def joining(bands):
        # the rows and the component pairs of the band that joins the strips,
        # and whether every band's rows join two components
        joins, crossing = [], []

        def counting(n_points, a, b, root):
            pos, after = boruvka(n_points, a, b, root)
            if len(np.unique(root)) == count and len(np.unique(after)) == 1:
                ra, rb = root[a], root[b]
                joins.append((len(a), len(set(zip(np.minimum(ra, rb).tolist(), np.maximum(ra, rb).tolist())))))
            crossing.append(bool((root[a] != root[b]).all()))
            return pos, after

        monkeypatch.setattr(spanning, "_boruvka", counting)
        tree = spanning._grow(cloud.size, bands, metric.is_hex, ranked=True)
        monkeypatch.undo()
        return tree, joins, all(crossing)

    tree, joins, crossing = joining(spanning._cutoff_bands(cloud, metric))
    plain, plain_joins, plain_crossing = joining(band for band in spanning._cutoff_bands(cloud, metric))
    # neighbouring strips, and on the torus the last and the first, once more
    pairs = count if topology.is_torus and count > 2 else count - 1
    assert joins == [(pairs, pairs)] and crossing
    assert len(plain_joins) == 1 and plain_joins[0][0] >= 30 * pairs and not plain_crossing
    for got, want in zip(tree, plain):
        assert np.array_equal(got, want)


def test_seed_cutoff_uses_shortest_vector():
    # (10.01, 0.1) - 10·(1, 0) = (0.01, 0.1) is far shorter than u
    sheared = Basis((1.0, 0.0), (10.01, 0.1))
    assert spanning._seed_cutoff(sheared) == pytest.approx(9.5 * 0.0101, rel=1e-9)
    assert spanning._seed_cutoff(hexagonal_basis()) == 9.5
    stretched = Basis((9.0, 0.0), (4.5, math.sqrt(3.0) / 2.0))  # 2v - u = (0, √3)
    assert spanning._seed_cutoff(stretched) == pytest.approx(9.5 * 3.0)


def cluster_with_outliers(cartesian: bool):
    # 64 points within a few units and 4 points far from them and from each
    # other: the 2016 cluster pairs rank before every other pair and fill the
    # first two prefix bands (4V = 272 and 16V = 1088 pairs, plus ties), so
    # the outliers join in the third
    far = [(40, 0), (0, 45), (50, 50), (-35, 20)]
    if cartesian:
        near = np.random.default_rng(3).random((64, 2))
        return cloud_from_cartesian(np.vstack([near, np.array(far, dtype=float)]))
    block = [(i, j) for i in range(8) for j in range(8)]
    return lattice_cloud(hexagonal_basis(), Topology.plane(), block + far)


@pytest.mark.parametrize(
    "cartesian,hex_metric", [(True, False), (False, False), (False, True)],
    ids=["cartesian", "lattice", "lattice-hex"],
)
def test_full_pair_prefix_bands_match_oracle(cartesian, hex_metric, monkeypatch):
    cloud = cluster_with_outliers(cartesian)
    assert cloud.size <= spanning._FULL_PAIR_LIMIT  # mst ranks all pairs
    bands = []
    boruvka = spanning._boruvka

    def counting(n_points, a, b, root):
        bands.append(len(a))
        # a band keeps only the pairs that join two components so far
        assert (root[a] != root[b]).all()
        return boruvka(n_points, a, b, root)

    monkeypatch.setattr(spanning, "_boruvka", counting)
    metric = Metric.HEX_PLANE if hex_metric else Metric.EUCLIDEAN_PLANE
    tree = hex_mst(cloud) if hex_metric else mst(cloud, metric)
    assert len(bands) == 3
    monkeypatch.undo()
    expect = kruskal(cloud, metric)
    assert [(e.a, e.b, e.sq_len, e.hex_len) for e in tree.edges] == expect
    assert tree.total_length == math.fsum(math.sqrt(e[2]) for e in expect)


def multigraphs():
    # self-loops, repeated edges and isolated vertices all occur
    return st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
        )
    )


@given(graph=multigraphs())
@example(graph=(7, [(5, 6), (0, 5), (1, 2), (3, 3), (1, 2)]))
@settings(max_examples=200, deadline=None)
def test_label_components_matches_oracle(graph):
    count, edges = graph
    a = [x for x, _ in edges]
    b = [y for _, y in edges]
    labels = spanning.label_components(count, a, b)
    assert labels.tolist() == component_labels(count, edges)


def test_labels_follow_smallest_vertex_not_boruvka_root():
    # (5, 6) ranks first, so the 2-cycle 5 <-> 6 makes 5 the root of {0, 5, 6},
    # above the root 1 of {1, 2}
    a, b = [5, 0, 1, 3, 1], [6, 5, 2, 3, 2]
    root = spanning._boruvka(7, np.array(a), np.array(b), np.arange(7))[1]
    assert root[0] == 5 and root[1] == 1
    assert spanning.label_components(7, a, b).tolist() == [0, 1, 1, 2, 3, 0, 0]
    assert spanning.label_components(0, [], []).tolist() == []


def collapsed_cloud(skew: int, dx: float, dy: float, rows: int, torus: bool, pad: int, drop: int):
    """Points (-skew·k + r, k), r < rows, of the skewed basis u = (1, 0),
    v = (skew + dx, dy): far apart in lattice coordinates, much closer in
    the plane.  On the torus of period (points per row) + pad they stay
    distinct.  The last ``drop`` points are left out."""
    count = -(-(spanning._FULL_PAIR_LIMIT + 30) // rows)
    coords = [(-skew * k + r, k) for k in range(count) for r in range(rows)]
    topology = Topology.torus(count + pad) if torus else Topology.plane()
    return lattice_cloud(Basis((1.0, 0.0), (skew + dx, dy)), topology, coords[: len(coords) - drop])


@given(
    skew=st.integers(2, 40),
    dx=st.sampled_from([0.0, 0.001, 0.25]),
    dy=st.floats(0.005, 0.5),
    rows=st.integers(2, 3),
    torus=st.booleans(),
    pad=st.integers(0, 20),
    drop=st.integers(0, 10),
    hex_metric=st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_cutoff_path_on_skewed_bases_matches_oracle(skew, dx, dy, rows, torus, pad, drop, hex_metric):
    # hex lengths here are coefficient lengths, which the Euclidean spread of
    # the cloud does not bound, so cutoff growth must run on coordinates
    cloud = collapsed_cloud(skew, dx, dy, rows, torus, pad, drop)
    assert cloud.size > spanning._FULL_PAIR_LIMIT
    metric = Metric.hexagonal(cloud.topology) if hex_metric else Metric.euclidean(cloud.topology)
    tree = mst(cloud, metric)
    assert [(e.a, e.b, e.sq_len, e.hex_len) for e in tree.edges] == kruskal(cloud, metric)


def test_skewed_plane_hex_tree_of_450_points():
    # 225 rows of two points: the rows pair up at hex length 1, and
    # neighbouring rows join at hex length 29 through Euclidean length ~1.001
    coords = [(-30 * k + r, k) for k in range(225) for r in (0, 1)]
    cloud = lattice_cloud(Basis((1.0, 0.0), (30.001, 0.01)), Topology.plane(), coords)
    tree = mst(cloud, Metric.HEX_PLANE)
    assert [(e.a, e.b, e.sq_len, e.hex_len) for e in tree.edges] == kruskal(cloud, Metric.HEX_PLANE)
    assert tree.edge_count == 449
    assert tree.total_length == pytest.approx(449.235189, abs=1e-6)
