import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mstratio import audits, habitat, lattice, spanning
from mstratio.constructions import packing_coloring
from mstratio.errors import EmptySet, PeriodTooSmall
from mstratio.lattice import Metric, Topology, generate_rhombus, hexagonal_basis
from mstratio.spanning import filtered_forest, hex_mst

SQRT3 = math.sqrt(3.0)


def torus(n):
    return generate_rhombus(hexagonal_basis(), n, Topology.torus(n))


def point_index(cloud, i, j):
    hits = np.flatnonzero((cloud.coords[:, 0] == i) & (cloud.coords[:, 1] == j))
    return int(hits[0])


# -- dense reference: threshold graphs on m x m pair tables, DFS components ------


def _pair_tables(cloud, blue):
    sub = cloud.subset(blue)
    m = sub.size
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    hexd = lattice.pair_hex(sub, Metric.HEX_TORUS, ii.ravel(), jj.ravel()).reshape(m, m)
    sq = lattice.pair_sq(sub, Metric.EUCLIDEAN_TORUS, ii.ravel(), jj.ravel()).reshape(m, m)
    return hexd, sq


def _component_labels(adj):
    labels = np.full(len(adj), -1, dtype=int)
    current = 0
    for s in range(len(adj)):
        if labels[s] >= 0:
            continue
        stack = [s]
        labels[s] = current
        while stack:
            x = stack.pop()
            for y in np.flatnonzero(adj[x]):
                if labels[y] < 0:
                    labels[y] = current
                    stack.append(int(y))
        current += 1
    return labels


def _level_adjacency(hexd, sq, k, kind):
    tol = 1e-9
    if kind == "rooms":
        adj = hexd <= 2 * k - 1
    elif kind == "houses":
        adj = (hexd <= 2 * k - 1) | ((hexd == 2 * k) & (sq < 4 * k * k - tol))
    elif kind == "blocks":
        adj = hexd <= 2 * k
    else:
        w = 2 * k + 1
        adj = (hexd <= 2 * k) | ((hexd == w) & (sq < w * w - tol))
    np.fill_diagonal(adj, False)
    return adj


def _reference_triangles(cloud, points, k):
    n = cloud.topology.n
    tris = set()
    for p in points:
        ci, cj = (int(x) for x in cloud.coords[p])
        for i in range(-k - 1, k + 1):
            for j in range(-k - 1, k + 1):
                for o in (0, 1):
                    corners = ((i + 1, j), (i, j + 1), (i + o, j + o))
                    if all(lattice.hex_distance(a, b) <= k for a, b in corners):
                        tris.add(((ci + i) % n, (cj + j) % n, o))
    return tris


def _reference_components(triangles, n):
    """Edge-connected components by a set-based search, ordered by smallest triangle."""
    seen, comps = set(), []
    for start in sorted(triangles):
        if start in seen:
            continue
        stack, comp = [start], {start}
        seen.add(start)
        while stack:
            for nb, _ in habitat._tri_neighbors(stack.pop(), n):
                if nb in triangles and nb not in seen:
                    seen.add(nb)
                    comp.add(nb)
                    stack.append(nb)
        comps.append(frozenset(comp))
    return comps


def _reference_backyards(cloud, blue, k, houses):
    """(alpha, beta, background, backyards) by set-based search over the triangles."""
    n = cloud.topology.n
    owner = {}
    for p, h in zip(blue, houses):
        for t in _reference_triangles(cloud, [p], k):
            owner[t] = int(h)
    background = {
        (i, j, o) for i in range(n) for j in range(n) for o in (0, 1)
    } - set(owner)
    yards = _reference_components(background, n)
    beta = sum(
        len({owner[nb] for t in yard for nb, _ in habitat._tri_neighbors(t, n) if nb in owner})
        >= 3
        for yard in yards
    )
    return len(yards) - beta, beta, background, yards


def _reference_summary(cloud, blue, k_max):
    hexd, sq = _pair_tables(cloud, blue)
    levels, labels = {}, {}
    for k in range(1, k_max + 1):
        kinds = ("rooms", "houses", "blocks", "compounds")
        labels[k] = {
            kind: _component_labels(_level_adjacency(hexd, sq, k, kind)) for kind in kinds
        }
        counts = [int(labels[k][kind].max()) + 1 for kind in kinds]
        alpha, beta, _, _ = _reference_backyards(cloud, blue, k, labels[k]["houses"])
        levels[k] = habitat.HabitatLevel(*counts, alpha, beta)
    depth = 1
    while _component_labels(_level_adjacency(hexd, sq, depth, "rooms")).max() > 0:
        depth += 1
    return habitat.HabitatSummary(levels, depth - 1), labels


def _partition(labels):
    return sorted(sorted(np.flatnonzero(labels == c).tolist()) for c in set(labels.tolist()))


class TestThickening:
    def test_disk_triangle_counts(self):
        for k in (1, 2, 3, 4):
            assert len(habitat.thickening(torus(17), [0], k)) == 6 * k * k

    def test_single_point_hexagon(self):
        region = habitat.thickening(torus(8), [0], 1)
        assert len(region) == 6

    def test_touching_at_even_distance(self):
        cloud = torus(12)
        a = point_index(cloud, 0, 0)
        b = point_index(cloud, 2, 0)
        ra = habitat.thickening(cloud, [a], 1)
        rb = habitat.thickening(cloud, [b], 1)
        assert not (ra.triangles & rb.triangles)
        assert ra.frontier_vertices() & rb.frontier_vertices()

    def test_overlap_below_double_radius(self):
        cloud = torus(12)
        a = point_index(cloud, 0, 0)
        b = point_index(cloud, 1, 0)
        ra = habitat.thickening(cloud, [a], 1)
        rb = habitat.thickening(cloud, [b], 1)
        assert ra.triangles & rb.triangles

    def test_touch_and_overlap_at_level_two(self):
        cloud = torus(12)
        a = point_index(cloud, 0, 0)
        ra = habitat.thickening(cloud, [a], 2)
        touch = habitat.thickening(cloud, [point_index(cloud, 4, 0)], 2)
        assert not (ra.triangles & touch.triangles)
        assert ra.frontier_vertices() & touch.frontier_vertices()
        overlap = habitat.thickening(cloud, [point_index(cloud, 3, 0)], 2)
        assert ra.triangles & overlap.triangles

    def test_period_guard(self):
        with pytest.raises(PeriodTooSmall):
            habitat.thickening(torus(8), [0], 2)

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            habitat.thickening(torus(8), [], 1)

    @pytest.mark.parametrize("level", [
        habitat.thickening, habitat.backyards, habitat.room_regions, habitat.house_labels,
        habitat.habitat_summary,
    ])
    def test_levels_start_at_one(self, level):
        with pytest.raises(ValueError, match="k must be >= 1"):
            level(torus(9), [0, 5], 0)


class TestCovers:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(9, 40), st.integers(0, 2**32 - 1))
    def test_each_level_matches_the_disk_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        cloud = torus(n)
        # few points on the large tori keep the per-point reference cheap
        blue = rng.choice(cloud.size, int(rng.integers(1, max(2, 160 // n))), replace=False)
        covers = habitat._covers(cloud, blue.tolist())
        for k, cover in zip(range(1, (n - 1) // 4 + 1), covers):
            disks = [_reference_triangles(cloud, [p], k) for p in blue]
            assert cover.shape == (n, n, 2)
            tris = [tuple(t) for t in np.argwhere(cover).tolist()]
            assert set(tris) == set().union(*disks)
            assert all(t in disks[cover[t] - 1] for t in tris)

    def test_packing_summary_on_torus200_stays_small(self):
        cloud = torus(200)
        blue = [int(i) for i in packing_coloring(cloud, "quarter").class_indices(0)]
        tracemalloc.start()
        try:
            summary = habitat.habitat_summary(cloud, blue, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert summary.depth == 1
        assert summary.levels[1] == habitat.HabitatLevel(10_000, 10_000, 1, 1, 0, 20_000)
        assert all(summary.levels[k] == habitat.HabitatLevel(1, 1, 1, 1, 0, 0) for k in range(2, 13))


class TestHabitatSummary:
    def test_six_point_configuration(self):
        # a-b share a hexagon edge; e-f overlap; a..f form one compound; c is remote
        cloud = torus(16)
        pts = [(0, 0), (1, 1), (2, 14), (3, 13), (3, 2), (8, 8)]
        blue = [point_index(cloud, i, j) for i, j in pts]
        summary = habitat.habitat_summary(cloud, blue, k_max=2)
        lv = summary.levels[1]
        assert (lv.rooms, lv.houses, lv.blocks, lv.compounds) == (5, 4, 3, 2)
        assert summary.levels[2].rooms == 2

    def test_quarter_sublattice_on_torus8(self):
        cloud = torus(8)
        blue = [int(i) for i in packing_coloring(cloud, "quarter").class_indices(0)]
        lv = habitat.habitat_summary(cloud, blue, 1).levels[1]
        assert (lv.rooms, lv.houses, lv.blocks, lv.compounds) == (16, 16, 1, 1)

    def test_singleton(self):
        summary = habitat.habitat_summary(torus(8), [0], 1)
        lv = summary.levels[1]
        assert (lv.rooms, lv.houses, lv.blocks, lv.compounds) == (1, 1, 1, 1)
        assert summary.depth == 0

    def test_room_counts_match_filtered_forest(self):
        rng = np.random.default_rng(17)
        cloud = torus(10)
        for _ in range(20):
            mask = rng.random(cloud.size) < rng.uniform(0.1, 0.6)
            if not mask.any():
                continue
            blue = [int(i) for i in np.flatnonzero(mask)]
            summary = habitat.habitat_summary(cloud, blue, k_max=2)
            tree = hex_mst(cloud.subset(blue))
            for k in (1, 2):
                forest = filtered_forest(tree, 2 * k - 1)
                assert summary.levels[k].rooms == forest.component_count


class TestAgainstDenseReference:
    @pytest.mark.parametrize("n", [10, 13, 17])
    def test_levels_labels_and_rooms_match(self, n):
        rng = np.random.default_rng(n)
        cloud = torus(n)
        k_max = (n - 1) // 4
        for _ in range(8):
            mask = rng.random(cloud.size) < rng.uniform(0.02, 0.9)
            mask[int(rng.integers(cloud.size))] = True
            blue = [int(i) for i in np.flatnonzero(mask)]
            expect, labels = _reference_summary(cloud, blue, k_max)
            assert habitat.habitat_summary(cloud, blue, k_max) == expect
            for k in range(1, k_max + 1):
                houses = habitat.house_labels(cloud, blue, k)
                assert _partition(houses) == _partition(labels[k]["houses"])
                rooms = labels[k]["rooms"]
                expect_rooms = sorted(
                    sorted(_reference_triangles(cloud, [blue[i] for i in members], k))
                    for members in _partition(rooms)
                )
                got_rooms = sorted(
                    sorted(r.triangles) for r in habitat.room_regions(cloud, blue, k)
                )
                assert got_rooms == expect_rooms

    @pytest.mark.parametrize("n", [10, 13])
    def test_region_components_match(self, n):
        rng = np.random.default_rng(100 + n)
        cloud = torus(n)
        for _ in range(6):
            mask = rng.random(cloud.size) < rng.uniform(0.02, 0.5)
            mask[int(rng.integers(cloud.size))] = True
            blue = [int(i) for i in np.flatnonzero(mask)]
            houses = habitat.house_labels(cloud, blue, 1)
            _, _, background, yards = _reference_backyards(cloud, blue, 1, houses)
            assert habitat.TriangleRegion(n, frozenset(background)).components() == yards
            assert [comp for comp, _ in habitat.backyards(cloud, blue, 1)[2]] == yards
            thick = habitat.thickening(cloud, blue, 1)
            assert thick.components() == _reference_components(thick.triangles, n)

    def test_quarter_packing_on_torus200(self):
        cloud = torus(200)
        blue = [int(i) for i in packing_coloring(cloud, "quarter").class_indices(0)]
        lv = habitat.habitat_summary(cloud, blue, 1).levels[1]
        assert (lv.rooms, lv.houses, lv.blocks, lv.compounds) == (10_000, 10_000, 1, 1)
        assert (lv.alpha, lv.beta) == (0, 20_000)


class TestBackyards:
    def test_singleton_backyard(self):
        alpha, beta, comps = habitat.backyards(torus(8), [0], 1)
        assert (alpha, beta) == (1, 0)
        assert len(comps) == 1
        assert len(comps[0][1]) == 1  # adjacent to exactly one house

    def test_quarter_packing_backyards_touch_three_houses(self):
        cloud = torus(8)
        blue = [int(i) for i in packing_coloring(cloud, "quarter").class_indices(0)]
        alpha, beta, comps = habitat.backyards(cloud, blue, 1)
        assert alpha == 0
        assert beta == len(comps) == 32  # twice the number of houses
        assert all(len(adj) == 3 for _, adj in comps)

    def test_full_blue_has_no_backyard(self):
        cloud = torus(8)
        alpha, beta, comps = habitat.backyards(cloud, list(range(cloud.size)), 1)
        assert (alpha, beta) == (0, 0)
        assert not comps

    def test_bound_equality_at_quarter_packing(self):
        cloud = torus(8)
        blue = [int(i) for i in packing_coloring(cloud, "quarter").class_indices(0)]
        summary = habitat.habitat_summary(cloud, blue, 1)
        assert habitat.check_backyard_bound(summary, 1)
        lv = summary.levels[1]
        assert lv.beta == 2 * lv.houses - 2 * lv.blocks + 2

    def test_bound_on_singleton(self):
        summary = habitat.habitat_summary(torus(8), [0], 1)
        assert habitat.check_backyard_bound(summary, 1)


    @pytest.mark.parametrize("n", [8, 11, 16])
    def test_summary_counts_match_backyards(self, n):
        rng = np.random.default_rng(n)
        cloud = torus(n)
        k_max = 2 if n > 8 else 1
        sets = [[0], list(range(cloud.size))]
        for _ in range(8):
            mask = rng.random(cloud.size) < rng.uniform(0.02, 0.5)
            sets.append(np.flatnonzero(mask).tolist() or [int(rng.integers(cloud.size))])
        for blue in sets:
            summary = habitat.habitat_summary(cloud, blue, k_max)
            for k in range(1, k_max + 1):
                lv = summary.levels[k]
                assert (lv.alpha, lv.beta) == habitat.backyards(cloud, blue, k)[:2]

    def test_summary_builds_no_triangle_lists(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("habitat_summary built per-triangle lists")

        for name in ("backyards", "_tri_tuples"):
            monkeypatch.setattr(habitat, name, fail)
        monkeypatch.setattr(habitat.spanning, "label_groups", fail)
        cloud = torus(8)
        blue = [int(i) for i in packing_coloring(cloud, "quarter").class_indices(0)]
        lv = habitat.habitat_summary(cloud, blue, 1).levels[1]
        assert (lv.alpha, lv.beta) == (0, 32)

    def test_component_renumbering_matches_unique(self):
        rng = np.random.default_rng(5)
        for n in (3, 8, 13):
            up, down = habitat._triangle_edges(n)
            for density in (0.0, 0.1, 0.5, 0.9, 1.0):
                mask = rng.random(2 * n * n) < density
                both = mask[up] & mask[down]
                labels = spanning.label_components(len(mask), up[both], down[both])
                expected = np.full(len(mask), -1)
                expected[mask] = np.unique(labels[mask], return_inverse=True)[1]
                assert np.array_equal(habitat._triangle_components(mask, n), expected)


class TestFrontier:
    def test_frontier_vertices_avoid_blue(self):
        rng = np.random.default_rng(23)
        cloud = torus(9)
        coords = {tuple(c) for c in cloud.coords.tolist()}
        for _ in range(20):
            mask = rng.random(cloud.size) < 0.3
            if not mask.any():
                continue
            blue = [int(i) for i in np.flatnonzero(mask)]
            blue_coords = {tuple(cloud.coords[p].tolist()) for p in blue}
            for region in habitat.room_regions(cloud, blue, 1):
                frontier = region.frontier_vertices()
                assert frontier <= coords
                assert not (frontier & blue_coords)


class TestCostTable:
    def test_frozen_table_values(self):
        from mstratio.audits import cost_table_audit

        assert cost_table_audit().ok

    def test_cost_constants(self):
        assert habitat.cost_w(1) == pytest.approx(4 * (SQRT3 - 1.25))
        assert habitat.cost_x(1) == pytest.approx(3.0)
        assert habitat.cost_y(1) == pytest.approx(4 * (math.sqrt(7) - 1.25))
        assert habitat.cost_z(1) == pytest.approx(7.0)
        assert habitat.cost_y(2) == pytest.approx(13.3303, abs=1e-4)
        assert habitat.cost_z(2) == pytest.approx(15.0)

    def test_last_gap_approaches_two(self):
        gap = habitat.cost_z(1000) - habitat.cost_y(1000)
        assert math.sqrt(2) <= gap < 2.0
        assert gap == pytest.approx(2.0, abs=1e-3)

    def test_gap_audit(self):
        audit = habitat.audit_cost_gaps(1000)
        assert audit.ok
        assert audit.k1_anomaly == pytest.approx(4 * (SQRT3 - 1.25))
        assert audit.k1_anomaly < 2.0  # the reported, unasserted case
        rec1 = audit.records[0]
        lo, hi = habitat.GAP_BOUNDS["x_minus_w"]
        assert lo - 1e-12 <= rec1.x_minus_w <= hi

    def test_failing_gap_audit_names_the_failure(self, monkeypatch):
        bad = habitat.GapRecord(2, 2.5, 1.5, 2.5, 3.0, False)
        failing = habitat.GapAudit(False, 1.928, (habitat.audit_cost_gaps(1).records[0], bad))
        monkeypatch.setattr(habitat, "audit_cost_gaps", lambda k_max: failing)
        outcome = audits.cost_gap_audit(2)
        assert not outcome.ok
        assert "intervals hold" not in outcome.detail
        assert "k=2: z_minus_y=3" in outcome.detail

    def test_realizable_lengths_per_hex_length(self):
        table = habitat.cost_table(2)
        by_hex = {}
        for row in table.rows:
            by_hex.setdefault(row.hex_len, []).append(row.sq_len)
        assert by_hex[2] == [3, 4]
        assert by_hex[3] == [7, 9]
        assert by_hex[4] == [12, 13, 16]
        assert by_hex[5] == [19, 21, 25]
