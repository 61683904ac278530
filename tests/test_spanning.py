import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import hex_lengths, kruskal

from mstratio import constructions as cons
from mstratio import spanning
from mstratio.errors import InvariantViolation, NotHexagonal, TooLarge, TopologyMismatch
from mstratio.lattice import (
    Basis,
    Metric,
    Topology,
    cloud_from_cartesian,
    distance_matrix,
    generate_rhombus,
    hexagonal_basis,
    lattice_cloud,
    offset_hex,
    offset_sq,
    pair_hex,
    pair_sq,
    square_basis,
)
from mstratio.spanning import filtered_forest, hex_mst, mst

SQRT3 = math.sqrt(3.0)


def unit_triangle():
    return cloud_from_cartesian([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2]])


class TestMst:
    def test_unit_triangle_length_two(self):
        tree = mst(unit_triangle(), Metric.EUCLIDEAN_PLANE)
        assert tree.total_length == pytest.approx(2.0)
        tree.validate()

    def test_single_point(self):
        tree = mst(cloud_from_cartesian([[0.0, 0.0]]), Metric.EUCLIDEAN_PLANE)
        assert tree.edge_count == 0
        assert tree.total_length == 0.0

    def test_hex_rhombus_all_unit_edges(self):
        cloud = generate_rhombus(hexagonal_basis(), 10)
        tree = mst(cloud, Metric.EUCLIDEAN_PLANE)
        assert tree.total_length == pytest.approx(99.0, abs=1e-9)
        assert all(e.sq_len == 1.0 for e in tree.edges)

    def test_row_plus_column_formula_for_reduced_bases(self):
        # (n+1)² points of a reduced basis: length (n+1)n + n*nu
        for nu in (1.0, 1.2, 1.5):
            basis = hexagonal_basis() if nu == 1.0 else Basis((1.0, 0.0), (0.0, nu))
            for n in (5, 10, 20):
                cloud = generate_rhombus(basis, n + 1)
                got = mst(cloud, Metric.EUCLIDEAN_PLANE).total_length
                assert got == pytest.approx((n + 1) * n + n * nu, abs=1e-9)

    def test_total_length_invariant_under_permutation(self):
        rng = np.random.default_rng(7)
        cloud = generate_rhombus(hexagonal_basis(), 6, Topology.torus(6))
        base = mst(cloud, Metric.EUCLIDEAN_TORUS).total_length
        for _ in range(5):
            perm = rng.permutation(cloud.size)
            shuffled = cloud.subset(perm)
            got = mst(shuffled, Metric.EUCLIDEAN_TORUS).total_length
            assert got == pytest.approx(base, rel=1e-9)

    def test_cutoff_path_matches_full_enumeration(self):
        # 576 points force the offset-cutoff path; replay with the all-pairs core.
        cloud = generate_rhombus(hexagonal_basis(), 24, Topology.torus(24))
        fast = mst(cloud, Metric.EUCLIDEAN_TORUS)
        a, b, sq, hx = spanning._full_pair_arrays(cloud, Metric.EUCLIDEAN_TORUS)
        slow = spanning._kruskal(cloud.size, a, b, sq, hx, False)
        assert fast.total_length == pytest.approx(
            math.fsum(math.sqrt(e.sq_len) for e in slow), rel=1e-12
        )
        assert [(e.a, e.b) for e in fast.edges] == [(e.a, e.b) for e in slow]

    def test_hex_cutoff_path_matches_full_enumeration(self):
        cloud = generate_rhombus(hexagonal_basis(), 24, Topology.torus(24))
        fast = hex_mst(cloud)
        a, b, sq, hx = spanning._full_pair_arrays(cloud, Metric.HEX_TORUS)
        slow = spanning._kruskal(cloud.size, a, b, sq, hx, True)
        assert [(e.a, e.b, e.hex_len) for e in fast.edges] == [
            (e.a, e.b, e.hex_len) for e in slow
        ]

    def test_empty_cloud_tree(self):
        tree = mst(cloud_from_cartesian(np.zeros((0, 2))), Metric.EUCLIDEAN_PLANE)
        assert tree.edge_count == 0
        assert tree.total_length == 0.0

    def test_cut_property_spot_check(self):
        cloud = generate_rhombus(hexagonal_basis(), 4)
        tree = mst(cloud, Metric.EUCLIDEAN_PLANE)
        for drop in tree.edges:
            parent = list(range(cloud.size))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for e in tree.edges:
                if e is not drop:
                    parent[find(e.a)] = find(e.b)
            side = np.array([find(p) == find(drop.a) for p in range(cloud.size)])
            ia, ib = np.meshgrid(np.flatnonzero(side), np.flatnonzero(~side))
            sq = pair_sq(cloud, Metric.EUCLIDEAN_PLANE, ia.ravel(), ib.ravel())
            assert sq.min() == pytest.approx(drop.sq_len, abs=1e-12)

    def test_edges_sorted_and_oriented(self):
        cloud = generate_rhombus(hexagonal_basis(), 5, Topology.torus(5))
        tree = mst(cloud, Metric.EUCLIDEAN_TORUS)
        keys = [e.order_key() for e in tree.edges]
        assert keys == sorted(keys)
        assert all(e.a < e.b for e in tree.edges)

    def test_hex_len_at_least_ceil_sqrt(self):
        cloud = generate_rhombus(hexagonal_basis(), 7, Topology.torus(7))
        tree = mst(cloud, Metric.EUCLIDEAN_TORUS)
        for e in tree.edges:
            assert e.hex_len >= math.isqrt(max(0, int(e.sq_len) - 1)) + 1

    def test_torus_metric_on_plane_cloud(self):
        with pytest.raises(TopologyMismatch):
            mst(generate_rhombus(hexagonal_basis(), 3), Metric.EUCLIDEAN_TORUS)


class TestHexMst:
    def test_requires_hexagonal_basis(self):
        with pytest.raises(NotHexagonal):
            hex_mst(generate_rhombus(Basis((9.0, 0.0), (4.5, SQRT3 / 2)), 3))

    def test_euclidean_never_shorter_than_hex_tree(self):
        rng = np.random.default_rng(2)
        cloud = generate_rhombus(hexagonal_basis(), 8, Topology.torus(8))
        for _ in range(25):
            mask = rng.random(cloud.size) < rng.uniform(0.2, 0.9)
            if mask.sum() < 2:
                continue
            sub = cloud.subset(np.flatnonzero(mask))
            assert (
                mst(sub, Metric.EUCLIDEAN_TORUS).total_length
                <= hex_mst(sub).total_length + 1e-9
            )

    def test_two_point_tree(self):
        cloud = lattice_cloud(hexagonal_basis(), Topology.plane(), [[0, 0], [1, 1]])
        tree = hex_mst(cloud)
        assert tree.edge_count == 1
        assert tree.edges[0].hex_len == 2
        assert tree.edges[0].length == pytest.approx(SQRT3)

    def test_collinear_chain_matches_euclidean(self):
        coords = [[i, 0] for i in range(9)]
        cloud = lattice_cloud(hexagonal_basis(), Topology.plane(), coords)
        assert hex_mst(cloud).total_length == pytest.approx(8.0)
        assert mst(cloud, Metric.EUCLIDEAN_PLANE).total_length == pytest.approx(8.0)


class TestFilteredForest:
    def test_zero_threshold_isolates_everything(self):
        cloud = generate_rhombus(hexagonal_basis(), 5, Topology.torus(5))
        forest = filtered_forest(hex_mst(cloud), 0)
        assert forest.component_count == cloud.size
        assert not forest.edges

    def test_large_threshold_single_component(self):
        cloud = generate_rhombus(hexagonal_basis(), 5, Topology.torus(5))
        tree = hex_mst(cloud)
        forest = filtered_forest(tree, 10)
        assert forest.component_count == 1
        assert len(forest.edges) == tree.edge_count

    def test_quarter_sublattice_isolated_below_spacing(self):
        cloud = generate_rhombus(hexagonal_basis(), 8, Topology.torus(8))
        coloring = cons.packing_coloring(cloud, "quarter")
        sub = cloud.subset(coloring.class_indices(0))
        forest = filtered_forest(hex_mst(sub), 1)
        assert forest.component_count == 16
        assert all(len(c) == 1 for c in forest.components)

    def test_matches_threshold_graph_components(self):
        rng = np.random.default_rng(9)
        cloud = generate_rhombus(hexagonal_basis(), 8, Topology.torus(8))
        from mstratio.lattice import pair_hex

        for _ in range(10):
            mask = rng.random(cloud.size) < 0.4
            if mask.sum() < 2:
                continue
            sub = cloud.subset(np.flatnonzero(mask))
            tree = hex_mst(sub)
            for ell in (1, 2, 3):
                forest = filtered_forest(tree, ell)
                # oracle: union-find over the full threshold graph
                m = sub.size
                ia, ib = np.triu_indices(m, k=1)
                hx = pair_hex(sub, Metric.HEX_TORUS, ia, ib)
                parent = list(range(m))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for a, b, h in zip(ia, ib, hx):
                    if h <= ell:
                        parent[find(int(a))] = find(int(b))
                oracle = len({find(p) for p in range(m)})
                assert forest.component_count == oracle

    def test_rejects_euclidean_trees(self):
        cloud = generate_rhombus(hexagonal_basis(), 4)
        with pytest.raises(ValueError):
            filtered_forest(mst(cloud, Metric.EUCLIDEAN_PLANE), 1)


# -- torus candidates of the cutoff path ----------------------------------------


def _candidate_rows(cloud, metric, sq_cut, hex_cut, floor=-math.inf):
    cand = spanning._lattice_candidates(cloud, metric, sq_cut, hex_cut, floor)
    if cand is None:
        return []
    return list(zip(*(x.tolist() for x in cand)))


def _torus_pairs(cloud):
    """Every pair a < b with its nearest-image measures: (a, b, sq, hx)."""
    ia, ib = np.triu_indices(cloud.size, k=1)
    sq = pair_sq(cloud, Metric.EUCLIDEAN_TORUS, ia, ib)
    return ia, ib, sq, pair_hex(cloud, Metric.HEX_TORUS, ia, ib)


def _brute_candidate_rows(pairs, sq_cut, hex_cut):
    """The ``pairs`` whose measure is within the cutoff."""
    sq, hx = pairs[2:]
    keep = hx <= hex_cut if hex_cut is not None else sq <= sq_cut + 1e-9
    return list(zip(*(x[keep].tolist() for x in pairs)))


NON_REDUCED = Basis((1.0, 0.0), (3.3, 0.2))
SKEWED = Basis((1.0, 0.0), (30.001, 0.01))  # reduced: (0.001, 0.01), (0.99, -0.1)


# at n = 17 and 40 the offset box of a small cutoff is narrower than the torus
# (the seed cutoff scales with the basis's shortest vector, so the skewed
# basis gets one too); the box of the whole-torus cutoff covers it
@pytest.mark.parametrize("basis", [hexagonal_basis(), NON_REDUCED, SKEWED],
                         ids=["hex", "non-reduced", "skewed"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 11, 17, 40])
@pytest.mark.parametrize("subset", [False, True], ids=["full", "subset"])
def test_torus_candidates_once_per_pair(basis, n, subset):
    cloud = generate_rhombus(basis, n, Topology.torus(n))
    if subset:
        rng = np.random.default_rng(n)
        cloud = cloud.subset(rng.permutation(cloud.size)[: max(2, cloud.size // 2)])
    whole = 4.0 * (basis.sq_offset(n, 0) + basis.sq_offset(0, n))  # the whole torus
    seed = spanning._seed_cutoff(basis)
    measured = _torus_pairs(cloud)
    for metric, cuts in (
        (Metric.EUCLIDEAN_TORUS,
         [(0.5, None), (1.0, None), (3.0, None), (9.5, None), (seed, None), (whole, None)]),
        (Metric.HEX_TORUS, [(None, 1), (None, 2), (None, 3), (None, 2 * n)]),
    ):
        for sq_cut, hex_cut in cuts:
            rows = _candidate_rows(cloud, metric, sq_cut, hex_cut)
            pairs = [(a, b) for a, b, _, _ in rows]
            assert len(set(pairs)) == len(pairs)
            assert all(a < b for a, b in pairs)
            assert sorted(rows) == _brute_candidate_rows(measured, sq_cut, hex_cut)


@pytest.mark.parametrize("topology", ["plane", "torus"])
def test_band_candidates_are_the_new_shell(topology):
    n = 11
    cloud = generate_rhombus(hexagonal_basis(), n, Topology.torus(n) if topology == "torus" else None)
    cloud = cloud.subset(np.random.default_rng(3).permutation(cloud.size)[:70])
    for metric, cuts in (
        (Metric.euclidean(cloud.topology), [(1.0, None), (3.0, None), (9.5, None), (38.0, None)]),
        (Metric.hexagonal(cloud.topology), [(None, 1), (None, 2), (None, 3), (None, 6)]),
    ):
        for (lo_sq, lo_hex), (sq_cut, hex_cut) in zip(cuts, cuts[1:]):
            floor = lo_hex if metric.is_hex else lo_sq
            band = _candidate_rows(cloud, metric, sq_cut, hex_cut, floor)
            below = set(_candidate_rows(cloud, metric, lo_sq, lo_hex))
            whole = _candidate_rows(cloud, metric, sq_cut, hex_cut)
            assert band and sorted(band) == sorted(r for r in whole if r not in below)


@pytest.mark.parametrize("topology", ["plane", "torus"])
@pytest.mark.parametrize("hexagonal", [False, True], ids=["euclidean", "hex"])
def test_growth_rounds_match_full_enumeration(monkeypatch, topology, hexagonal):
    # sparse random subsets leave the first cutoff graph disconnected
    n = 60
    full = generate_rhombus(hexagonal_basis(), n, Topology.torus(n) if topology == "torus" else None)
    cloud = full.subset(np.sort(np.random.default_rng(5).permutation(full.size)[:500]))
    metric = Metric.hexagonal(cloud.topology) if hexagonal else Metric.euclidean(cloud.topology)
    rounds = []
    round_bands = spanning._round_bands  # called once per growth round
    monkeypatch.setattr(
        spanning, "_round_bands", lambda *a: rounds.append(a) or round_bands(*a)
    )
    fast = mst(cloud, metric)
    assert len(rounds) > 1
    slow = spanning._kruskal(cloud.size, *spanning._full_pair_arrays(cloud, metric), hexagonal)
    assert [(e.a, e.b, e.sq_len, e.hex_len) for e in fast.edges] == [
        (e.a, e.b, e.sq_len, e.hex_len) for e in slow
    ]


def _sublattice(basis, n, keep):
    cloud = generate_rhombus(basis, n, Topology.torus(n))
    i, j = cloud.coords.T
    return cloud.subset(np.flatnonzero(keep(i, j)))


# sha256 of the ranked candidate arrays, recorded on the implementation that
# emitted each pair from both ends and deduplicated afterwards
RANKED_DIGESTS = [
    ("hex21", Metric.EUCLIDEAN_TORUS, 38.0, None,
     "06fd4eb6233427e16f995bbced96f26f33c719e6a3592f1cc09dfc7933e89432"),
    ("hex21", Metric.HEX_TORUS, None, 6,
     "b4a139c6b8ec9fa0308a35bcd7c4c2b4361442ecd13871c07d0553a40385a993"),
    ("sq30sub", Metric.EUCLIDEAN_TORUS, 38.0, None,
     "c448bd3a64952b445a57284e2fb109a79e59920130627c38242612a0d51ad1c4"),
    ("sq30sub", Metric.HEX_TORUS, None, 3,
     "8982839966daa77c58183a47d1b0a2d183fc93f14909a08fa3c43cfe9aedefa8"),
    ("hex40sub", Metric.EUCLIDEAN_TORUS, 9.5, None,
     "f10c9010763d78e64d0344d17173254593d67ed6273c097e91f656946c20e798"),
    ("hex40sub", Metric.HEX_TORUS, None, 6,
     "0a1c3388299c5dd1549e6a1d89e674356049345f938a76fab172a0e016fd5f7b"),
]


@pytest.mark.parametrize("name,metric,sq_cut,hex_cut,digest", RANKED_DIGESTS)
def test_ranked_torus_candidates_unchanged(name, metric, sq_cut, hex_cut, digest):
    cloud = {
        "hex21": lambda: generate_rhombus(hexagonal_basis(), 21, Topology.torus(21)),
        "sq30sub": lambda: _sublattice(square_basis(), 30, lambda i, j: (7 * i + 3 * j) % 5 != 0),
        "hex40sub": lambda: _sublattice(hexagonal_basis(), 40, lambda i, j: (i * j + i) % 3 != 1),
    }[name]()
    assert cloud.size > spanning._FULL_PAIR_LIMIT  # mst takes the cutoff path
    cand = spanning._lattice_candidates(cloud, metric, sq_cut, hex_cut)
    ranked = spanning._rank(*cand, metric.is_hex)
    assert hashlib.sha256(repr([x.tolist() for x in ranked]).encode()).hexdigest() == digest


def test_tree_json_export():
    tree = mst(unit_triangle(), Metric.EUCLIDEAN_PLANE)
    doc = tree.to_json()
    assert len(doc["edges"]) == 2
    assert {v for e in doc["edges"] for v in e} == {0, 1, 2}
    assert doc["length"] == pytest.approx(2.0)


def _split_torus_cloud(n, s):
    """A hexagonal torus cloud of columns i = 0 (mod s), each a band of rows
    near j = 0 that wraps across the seam; its plane and torus trees differ."""
    coords = [(i, j) for i in range(n) for j in range(n) if i % s == 0 and (j < 8 or j > n - 4)]
    return lattice_cloud(hexagonal_basis(), Topology.torus(n), coords)


@pytest.mark.parametrize("n,s", [(60, 3), (90, 2)], ids=["220-full-pair", "495-cutoff"])
@pytest.mark.parametrize("metric", [Metric.EUCLIDEAN_PLANE, Metric.HEX_PLANE])
def test_plane_metric_on_torus_cloud_rejected(n, s, metric):
    cloud = _split_torus_cloud(n, s)
    assert (cloud.size > spanning._FULL_PAIR_LIMIT) == (n == 90)
    for call in (
        lambda: mst(cloud, metric),
        lambda: pair_sq(cloud, metric, [0], [1]),
        lambda: pair_hex(cloud, metric, [0], [1]),
        lambda: distance_matrix(cloud, metric),
    ):
        with pytest.raises(TopologyMismatch):
            call()


# -- plane candidates of the cutoff path ----------------------------------------


def _stripe(basis, long, wide, transpose, keep):
    """A (long x wide) block of lattice points, thin along one axis."""
    i, j = np.meshgrid(np.arange(long) - 7, np.arange(wide) - 2, indexing="ij")
    coords = np.column_stack([i.ravel(), j.ravel()])
    if transpose:
        coords = coords[:, ::-1]
    coords = coords[np.random.default_rng(long).random(len(coords)) < keep]
    return lattice_cloud(basis, Topology.plane(), coords)


def _brute_plane_rows(cloud, sq_cut, hex_cut, floor=-math.inf):
    ia, ib = np.triu_indices(cloud.size, k=1)
    sq = pair_sq(cloud, Metric.EUCLIDEAN_PLANE, ia, ib)
    hx = pair_hex(cloud, Metric.HEX_PLANE, ia, ib)
    if hex_cut is not None:
        keep = (hx <= hex_cut) & (hx > floor)
    else:
        keep = (sq <= sq_cut + 1e-9) & (sq > floor + 1e-9)
    return list(zip(*(x[keep].tolist() for x in (ia, ib, sq, hx))))


@pytest.mark.parametrize("basis", [hexagonal_basis(), square_basis(), NON_REDUCED],
                         ids=["hex", "square", "non-reduced"])
@pytest.mark.parametrize("wide", [1, 2, 3])
@pytest.mark.parametrize("transpose", [False, True], ids=["thin-j", "thin-i"])
def test_plane_candidates_on_thin_clouds(basis, wide, transpose):
    # thinner than the offset reach on one axis, so an unpadded grid would
    # wrap offsets onto points of the same rows
    cloud = _stripe(basis, 700 // wide, wide, transpose, keep=0.9)
    assert cloud.size > spanning._FULL_PAIR_LIMIT
    seed = spanning._seed_cutoff(basis)
    for metric, cuts in (
        (Metric.EUCLIDEAN_PLANE, [(seed, None, -math.inf), (4 * seed, None, seed)]),
        (Metric.HEX_PLANE, [(None, 3, -math.inf), (None, 6, 3)]),
    ):
        for sq_cut, hex_cut, floor in cuts:
            rows = _candidate_rows(cloud, metric, sq_cut, hex_cut, floor)
            assert len(set((a, b) for a, b, _, _ in rows)) == len(rows)
            assert sorted(rows) == _brute_plane_rows(cloud, sq_cut, hex_cut, floor)


@pytest.mark.parametrize("hexagonal", [False, True], ids=["euclidean", "hex"])
def test_thin_plane_cloud_tree_matches_oracle(hexagonal):
    cloud = _stripe(hexagonal_basis(), 300, 2, False, keep=0.8)
    metric = Metric.HEX_PLANE if hexagonal else Metric.EUCLIDEAN_PLANE
    tree = mst(cloud, metric)
    assert [(e.a, e.b, e.sq_len, e.hex_len) for e in tree.edges] == kruskal(cloud, metric)


# -- key order of cutoff-band candidates ------------------------------------------

KEY_BASES = {"hex": hexagonal_basis(), "square": square_basis(),
             "non-reduced": NON_REDUCED, "skewed": SKEWED}


def _brute_band_rows(cloud, sq_cut, hex_cut, floor):
    """Every pair a < b whose measure lies in the band, in (a, b) order."""
    ia, ib = np.triu_indices(cloud.size, k=1)
    sq = pair_sq(cloud, Metric.euclidean(cloud.topology), ia, ib)
    hx = pair_hex(cloud, Metric.hexagonal(cloud.topology), ia, ib)
    if hex_cut is not None:
        keep = (hx <= hex_cut) & (hx > floor)
    else:
        keep = (sq <= sq_cut + 1e-9) & (sq > floor + 1e-9)
    return list(zip(*(x[keep].tolist() for x in (ia, ib, sq, hx))))


@given(
    basis_name=st.sampled_from(sorted(KEY_BASES)),
    torus=st.booleans(),
    n=st.integers(3, 14),
    keep=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**32 - 1),
    hexagonal=st.booleans(),
    band=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_cutoff_candidates_come_in_key_order(basis_name, torus, n, keep, seed, hexagonal, band):
    basis = KEY_BASES[basis_name]
    cloud = generate_rhombus(basis, n, Topology.torus(n) if torus else None)
    cloud = cloud.subset(np.flatnonzero(np.random.default_rng(seed).random(cloud.size) < keep))
    assume(cloud.size >= 2)
    metric = Metric.hexagonal(cloud.topology) if hexagonal else Metric.euclidean(cloud.topology)
    first, growth = (3, 2) if hexagonal else (spanning._seed_cutoff(basis), 4)
    cut = first * growth**band
    floor = cut / growth if band else -math.inf
    cuts = (None, cut) if hexagonal else (cut, None)
    rows = _candidate_rows(cloud, metric, *cuts, floor)
    if hexagonal:
        expect = sorted(rows, key=lambda r: (r[3], r[2], r[0], r[1]))
    else:
        expect = sorted(rows, key=lambda r: (r[2], r[0], r[1]))
    assert rows == expect
    assert sorted(rows) == _brute_band_rows(cloud, *cuts, floor)


def test_candidate_key_width_guard():
    # class, a, b and offset index in 2 * 17 + 2 * 9 = 52 bits
    assert spanning._key_shifts(128_783, 400) == (43, 26, 9)
    assert spanning._key_shifts(2**24, 2**7) == (55, 31, 7)  # 62 bits
    assert spanning._key_shifts(2**23, 2**8) == (54, 31, 8)  # 62 bits
    # a size limit of the input (exit 3), not a failed invariant (exit 6)
    for points, offsets in ((2**24 + 1, 2**7), (2**24, 2**7 + 1), (2**23 + 1, 2**8 + 1), (2**30, 400)):
        with pytest.raises(TooLarge, match="63 bits") as err:
            spanning._key_shifts(points, offsets)
        assert not isinstance(err.value, InvariantViolation)


# -- class bands of a cutoff round ------------------------------------------------


@given(
    basis_name=st.sampled_from(sorted(KEY_BASES)),
    torus=st.booleans(),
    n=st.integers(3, 14),
    keep=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**32 - 1),
    hexagonal=st.booleans(),
    band=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_round_comes_in_class_bands(basis_name, torus, n, keep, seed, hexagonal, band):
    basis = KEY_BASES[basis_name]
    cloud = generate_rhombus(basis, n, Topology.torus(n) if torus else None)
    cloud = cloud.subset(np.flatnonzero(np.random.default_rng(seed).random(cloud.size) < keep))
    assume(cloud.size >= 2)
    metric = Metric.hexagonal(cloud.topology) if hexagonal else Metric.euclidean(cloud.topology)
    first, growth = (3, 2) if hexagonal else (spanning._seed_cutoff(basis), 4)
    cut = first * growth**band
    floor = cut / growth if band else -math.inf
    cuts = (None, cut) if hexagonal else (cut, None)
    bands = list(spanning._round_bands(cloud, metric, *cuts, floor))
    classes = []
    for a, b, sq, hx in bands:
        measures = set(zip(hx.tolist(), sq.tolist()) if hexagonal else sq.tolist())
        assert len(measures) <= 1  # one measure class per band
        pairs = list(zip(a.tolist(), b.tolist()))
        assert pairs == sorted(set(pairs))  # in (a, b) order, each pair once
        classes += measures
    assert classes == sorted(set(classes))  # classes rise strictly
    rows = [row for band_rows in bands for row in zip(*(x.tolist() for x in band_rows))]
    assert rows == _candidate_rows(cloud, metric, *cuts, floor)


@pytest.mark.parametrize("metric", [Metric.EUCLIDEAN_TORUS, Metric.HEX_TORUS])
def test_torus_tree_measures_only_its_box(monkeypatch, metric):
    # the first round spans the dense cloud, so no offset outside its box is
    # measured, and never all n² residues
    n = 60
    cloud = cons.build_construction("packing:quarter", n=n).cloud
    sizes = []
    offset_sq = spanning.lattice.offset_sq
    monkeypatch.setattr(
        spanning.lattice, "offset_sq", lambda *a: sizes.append(len(a[2])) or offset_sq(*a)
    )
    tree = mst(cloud, metric)
    monkeypatch.undo()
    assert sizes and max(sizes) < n * n
    assert tree.edge_count == cloud.size - 1


@pytest.mark.parametrize("metric", [Metric.EUCLIDEAN_TORUS, Metric.HEX_TORUS])
def test_sparse_torus_tree_measures_no_residue_table(monkeypatch, metric):
    # the first round leaves 430 points of the 300-torus unspanned, so the
    # stopping bound is needed; it comes from corners, not all n² residues
    n = 300
    full = generate_rhombus(hexagonal_basis(), n, Topology.torus(n))
    cloud = full.subset(np.sort(np.random.default_rng(11).permutation(full.size)[:430]))
    sizes, rounds = [], []
    offset_sq, offset_hex = spanning.lattice.offset_sq, spanning.lattice.offset_hex
    round_bands = spanning._round_bands
    monkeypatch.setattr(
        spanning.lattice, "offset_sq", lambda *a: sizes.append(len(a[2])) or offset_sq(*a)
    )
    monkeypatch.setattr(
        spanning.lattice, "offset_hex", lambda *a: sizes.append(len(a[1])) or offset_hex(*a)
    )
    monkeypatch.setattr(spanning, "_round_bands", lambda *a: rounds.append(a) or round_bands(*a))
    tree = mst(cloud, metric)
    monkeypatch.undo()
    assert len(rounds) > 1 and max(sizes) < n * n
    assert [(e.a, e.b, e.sq_len, e.hex_len) for e in tree.edges] == kruskal(cloud, metric)


def test_tree_stops_at_the_class_that_spans(monkeypatch):
    # the unit-distance class spans the full quarter-packing cloud, so no
    # later class of the first round is ever looked up
    cloud = cons.build_construction("packing:quarter", n=24).cloud
    assert cloud.size == 576 > spanning._FULL_PAIR_LIMIT
    yielded = []
    round_bands = spanning._round_bands

    def counting(*args):
        for band in round_bands(*args):
            yielded.append(band)
            yield band

    monkeypatch.setattr(spanning, "_round_bands", counting)
    tree = mst(cloud, Metric.EUCLIDEAN_TORUS)
    monkeypatch.undo()
    assert [set(band[2].tolist()) for band in yielded] == [{1.0}]
    assert sum(len(band[0]) for band in yielded) == 3 * 576
    seed = spanning._seed_cutoff(cloud.basis)
    assert len(spanning._lattice_candidates(cloud, Metric.EUCLIDEAN_TORUS, seed, None)[0]) == 18 * 576
    assert tree.edge_count == 575 and (tree.sq == 1.0).all()


def test_stretched_tree_peak_memory():
    # 128,783 points in 223 columns: the first class band joins each column,
    # and the later bands reach Borůvka contracted to at most one row per
    # pair of columns instead of 256k rows, which bounds the traced peak
    cloud = cons.stretched_hex(500)[0]
    tracemalloc.start()
    try:
        tree = mst(cloud, Metric.EUCLIDEAN_PLANE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45e6
    # the same tree as one grown over every row of every band
    bands = (band for band in spanning._cutoff_bands(cloud, Metric.EUCLIDEAN_PLANE))
    plain = spanning._grow(cloud.size, bands, False, ranked=True)
    for got, want in zip((tree.a, tree.b, tree.sq, tree.hex), plain):
        assert np.array_equal(got, want)


# sha256 of the (a, b, sq, hex) arrays of each class tree and the whole
# cloud's tree, recorded on the implementation that generated every class of
# a cutoff round before growing the tree over it
TREE_DIGESTS = [
    ("stretched:r=60", {}, [
        "0bb5a9ab4f9d2a0102f5ece51003e699bb22404b9bc8852a7b18a764658d406a",
        "174dede0e992ad698f0495051f0d4e2a7bfaebd295fbffc3fe9687ce80b031f9",
        "eb70738506eacaefd81a8b0f7a55001aea10691ec458579a32674d23a2c5600b",
    ]),
    ("packing:quarter", {"n": 24}, [
        "6d12a835fb39d856132f60dee25cc3f6e5880e1967ea01d071d81fbbac608ddb",
        "6b58fd00cce5ed6936416f553c1b49b10c5890123056c4746c4ae24b8c556fbb",
        "f436f476e4f0f130b0ec8135012f195d28a5b32e94c66faab7ef6028919e688e",
    ]),
]


@pytest.mark.parametrize("descriptor,overrides,digests", TREE_DIGESTS, ids=["stretched60", "quarter24"])
def test_construction_trees_unchanged(descriptor, overrides, digests):
    built = cons.build_construction(descriptor, **overrides)
    clouds = [built.cloud.subset(built.coloring.class_indices(c)) for c in range(2)] + [built.cloud]
    assert clouds[-1].size > spanning._FULL_PAIR_LIMIT  # the whole cloud takes the cutoff path
    found = []
    for cloud in clouds:
        tree = mst(cloud, built.metric)
        found.append(hashlib.sha256(
            repr([x.tolist() for x in (tree.a, tree.b, tree.sq, tree.hex)]).encode()
        ).hexdigest())
    assert found == digests


# -- full-pair arrays: index builder and residue tables ---------------------------


def _measured_pairs(cloud):
    """Every pair a < b with sq and hx measured offset by offset."""
    ia, ib = np.triu_indices(cloud.size, k=1)
    di = cloud.coords[ib, 0] - cloud.coords[ia, 0]
    dj = cloud.coords[ib, 1] - cloud.coords[ia, 1]
    return ia, ib, offset_sq(cloud.basis, cloud.topology, di, dj), offset_hex(cloud.topology, di, dj)


def _assert_same_arrays(got, expect):
    for g, e in zip(got, expect, strict=True):
        assert g.dtype == e.dtype
        assert np.array_equal(g, e)


@pytest.mark.parametrize("v", range(26))
def test_pair_index_is_triu_indices(v):
    _assert_same_arrays(spanning._pair_index(v), np.triu_indices(v, k=1))


def test_cached_pair_tables_are_read_only():
    tables = spanning._pair_index(7) + spanning._residue_measures(SKEWED, Topology.torus(6))
    for arr in tables:
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("basis_name", sorted(KEY_BASES))
@pytest.mark.parametrize("hexagonal", [False, True], ids=["euclidean", "hex"])
def test_residue_gather_matches_measured_pairs(basis_name, hexagonal):
    """The points (i, 0), (0, j) and (1, 1) of the n-torus differ by every
    residue, the self-inverse ones of even n included, and have more pairs
    than residues, so they gather from the table; n of them have fewer pairs
    and are measured directly.  Both give the arrays of measuring every pair,
    and hx is the torus norm."""
    basis = KEY_BASES[basis_name]
    for n in range(2, 31):
        axes = [(i, 0) for i in range(n)] + [(0, j) for j in range(1, n)] + [(1, 1)]
        cloud = lattice_cloud(basis, Topology.torus(n), axes)
        metric = Metric.hexagonal(cloud.topology) if hexagonal else Metric.euclidean(cloud.topology)
        assert n * n <= cloud.size * (cloud.size - 1) // 2
        for part in (cloud, cloud.subset(np.arange(n))):
            got = spanning._full_pair_arrays(part, metric)
            _assert_same_arrays(got, _measured_pairs(part))
            assert np.array_equal(got[3], hex_lengths(part, got[0], got[1]))


@given(
    basis_name=st.sampled_from(sorted(KEY_BASES)),
    n=st.integers(2, 30),
    keep=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_sampled_torus_pair_arrays_match_measured_pairs(basis_name, n, keep, seed):
    cloud = generate_rhombus(KEY_BASES[basis_name], n, Topology.torus(n))
    rng = np.random.default_rng(seed)
    cloud = cloud.subset(rng.permutation(np.flatnonzero(rng.random(cloud.size) < keep)))
    got = spanning._full_pair_arrays(cloud, Metric.euclidean(cloud.topology))
    _assert_same_arrays(got, _measured_pairs(cloud))
