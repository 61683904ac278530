import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import hex_lengths, window_coords

from mstratio.errors import (
    DegenerateBasis,
    DuplicatePoints,
    MstRatioError,
    TooLarge,
    TopologyMismatch,
)
from mstratio.lattice import (
    Basis,
    Metric,
    Topology,
    cloud_from_cartesian,
    cloud_from_doc,
    cloud_to_doc,
    distance,
    generate_rhombus,
    generate_square,
    hex_distance,
    hexagonal_basis,
    integral,
    lattice_cloud,
    make_basis,
    nearest_image,
    pair_hex,
    pair_sq,
    square_basis,
    tri_coords,
)

SQRT3 = math.sqrt(3.0)


def enumerate_window(basis, r, span=60):
    """Brute-force oracle: all lattice points of the basis inside [-r, r]²."""
    pts = set()
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            x = i * basis.u[0] + j * basis.v[0]
            y = i * basis.u[1] + j * basis.v[1]
            if abs(x) <= r + 1e-9 and abs(y) <= r + 1e-9:
                pts.add((round(x, 9), round(y, 9)))
    return pts


class TestMakeBasis:
    def test_hexagonal_unchanged(self):
        b = make_basis((1.0, 0.0), (0.5, SQRT3 / 2))
        assert b.u == (1.0, 0.0)
        assert b.v == (0.5, SQRT3 / 2)
        assert abs(b.nu - 1.0) < 1e-12
        assert b.is_hexagonal

    def test_parallel_vectors_rejected(self):
        with pytest.raises(DegenerateBasis):
            make_basis((1.0, 0.0), (1.0, 0.0))

    @pytest.mark.parametrize("u", [(1e200, 0.0), (1e154, 0.0), (math.nan, 0.0), (math.inf, 0.0)])
    def test_non_finite_gram_rejected(self, u):
        with pytest.raises(DegenerateBasis, match="Gram entries .* are not finite"):
            Basis(u, (0.0, 1.0))

    def test_reduction_spans_same_lattice(self):
        raw = Basis((1.0, 0.0), (5.0, 1.0))
        red = make_basis((1.0, 0.0), (5.0, 1.0))
        assert math.hypot(*red.v) <= math.sqrt(2.0) + 1e-12
        assert enumerate_window(raw, 10) == enumerate_window(red, 10)

    @given(
        ux=st.integers(-6, 6), uy=st.integers(-6, 6),
        vx=st.integers(-6, 6), vy=st.integers(-6, 6),
    )
    @settings(max_examples=200)
    def test_reduced_invariants(self, ux, uy, vx, vy):
        if ux * vy - uy * vx == 0:
            return
        red = make_basis((float(ux), float(uy)), (float(vx), float(vy)))
        uu = red.u[0] ** 2 + red.u[1] ** 2
        vv = red.v[0] ** 2 + red.v[1] ** 2
        uv = red.u[0] * red.v[0] + red.u[1] * red.v[1]
        assert uu <= vv + 1e-9
        assert 2 * abs(uv) <= uu + 1e-9
        # same covolume up to sign
        raw_det = abs(ux * vy - uy * vx)
        red_det = abs(red.u[0] * red.v[1] - red.u[1] * red.v[0])
        assert abs(raw_det - red_det) < 1e-9


class TestGeneration:
    def test_hexagonal_unit_window_has_seven_points(self):
        cloud = generate_square(hexagonal_basis(), 1.0)
        assert cloud.size == 7
        # oracle: enumerate and filter
        assert len(enumerate_window(hexagonal_basis(), 1.0, span=4)) == 7

    def test_tiny_window_is_origin_only(self):
        cloud = generate_square(hexagonal_basis(), 1e-9)
        assert cloud.size == 1
        assert tuple(cloud.coords[0]) == (0, 0)

    def test_stretched_window_column_count(self):
        basis = Basis((9.0, 0.0), (4.5, SQRT3 / 2))
        cloud = generate_square(basis, 10.0)
        cols = np.unique(2 * cloud.coords[:, 0] + cloud.coords[:, 1])
        assert len(cols) == 2 * (2 * 10 // 9) + 1 == 5

    def test_rhombus_sizes(self):
        assert generate_rhombus(hexagonal_basis(), 6, Topology.torus(6)).size == 36
        assert generate_rhombus(hexagonal_basis(), 1).size == 1
        assert generate_rhombus(hexagonal_basis(), 10).size == 100

    def test_generation_deterministic_and_duplicate_free(self):
        a = generate_square(hexagonal_basis(), 7.25)
        b = generate_square(hexagonal_basis(), 7.25)
        assert np.array_equal(a.coords, b.coords)
        assert len(np.unique(a.coords, axis=0)) == a.size

    def test_row_major_order(self):
        cloud = generate_rhombus(square_basis(), 3)
        expect = [(i, j) for j in range(3) for i in range(3)]
        assert [tuple(c) for c in cloud.coords] == expect

    @pytest.mark.parametrize("r", [1e-9, 0.5, 1.0, 2.0, 3.7, 7.25, 10.0, 31.0, 64.5])
    @pytest.mark.parametrize("basis", [
        hexagonal_basis(),
        square_basis(),
        Basis((9.0, 0.0), (4.5, SQRT3 / 2)),
        Basis((3.3, 0.2), (0.5, 5.0)),
        Basis((0.0, 1.0), (-1.0, 0.5)),
    ], ids=["hex", "square", "stretched", "skewed", "vertical-u"])
    def test_window_rows_match_bounding_box(self, basis, r):
        cloud = generate_square(basis, r)
        expect = window_coords(basis, r)
        assert cloud.coords.dtype == expect.dtype
        assert np.array_equal(cloud.coords, expect)

    def test_square_windows_are_planar(self):
        with pytest.raises(TopologyMismatch):
            generate_square(hexagonal_basis(), 2.0, Topology.torus(4))

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 60),
        torus=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_are_column_minimum_and_spread(self, seed, size, torus):
        rng = np.random.default_rng(seed)
        coords = np.unique(rng.integers(-400, 400, size=(size, 2)), axis=0)  # distinct mod 997
        topology = Topology.torus(997) if torus else Topology.plane()
        cloud = lattice_cloud(square_basis(), topology, rng.permutation(coords))
        lo, spread = cloud.bounds
        assert np.array_equal(lo, cloud.coords.min(axis=0))
        assert np.array_equal(spread, np.ptp(cloud.coords, axis=0))
        sub = cloud.subset(np.arange(cloud.size)[::2])
        assert np.array_equal(sub.bounds[1], np.ptp(sub.coords, axis=0))

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoints):
            lattice_cloud(square_basis(), Topology.plane(), [[0, 0], [0, 0]])
        with pytest.raises(DuplicatePoints):
            lattice_cloud(square_basis(), Topology.torus(4), [[0, 0], [4, 4]])
        with pytest.raises(DuplicatePoints):
            cloud_from_cartesian([[0.5, 0.5], [0.5, 0.5]])

    def test_cartesian_signed_zeros_coincide(self):
        # 0.0 == -0.0, as np.unique(axis=0) had it
        with pytest.raises(DuplicatePoints, match="coincident cartesian points"):
            cloud_from_cartesian([[1.0, 0.0], [0.0, 2.0], [-0.0, 2.0]])
        with pytest.raises(DuplicatePoints):
            cloud_from_cartesian([[0.0, -0.0], [-0.0, 0.0]])
        assert cloud_from_cartesian([[0.0, -0.0], [-0.0, 1.0]]).size == 2
        assert cloud_from_cartesian([]).size == 0

    def test_cartesian_spread_must_square_to_a_finite_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for far in (1e200, 1.5e154, -1e200):
                with pytest.raises(MstRatioError, match="squared cartesian spreads"):
                    cloud_from_cartesian([[0.0, 0.0], [far, 0.0], [0.0, 1.0]])
            assert cloud_from_cartesian([[0.0, 0.0], [1e153, 0.0], [0.0, 1e153]]).size == 3
            # the spread, not the position, is bounded
            assert cloud_from_cartesian([[1e300, 0.0], [1e300, 1.0]]).size == 2


class TestDistinctCoords:
    """Lattice clouds reject coincident rows, after the torus wrap."""

    def test_empty_cloud(self):
        assert lattice_cloud(square_basis(), Topology.plane(), []).size == 0
        assert lattice_cloud(square_basis(), Topology.torus(3), []).size == 0

    def test_negative_plane_coords(self):
        coords = [[-3, -1], [-1, -3], [0, -1], [-1, 0], [-3, 1]]
        assert lattice_cloud(square_basis(), Topology.plane(), coords).size == 5
        with pytest.raises(DuplicatePoints, match="coincident lattice points"):
            lattice_cloud(square_basis(), Topology.plane(), coords + [[-1, -3]])

    def test_far_apart_coords(self):
        big = 2**62
        coords = [[big, -big], [-big, big], [big, big - 1], [-big, -big], [big - 1, big]]
        assert lattice_cloud(square_basis(), Topology.plane(), coords).size == 5
        with pytest.raises(DuplicatePoints):
            lattice_cloud(square_basis(), Topology.plane(), coords + [[-big, big]])

    def test_measuring_far_apart_coords_raises_too_large(self):
        # the int64 spreads of these rows wrap below zero; the clouds exist,
        # but no offset of theirs can be measured exactly
        top = 2**63 - 1
        for coords in ([[-top, 0], [top, 0]], [[2**62, 0], [-2**62, 1]]):
            cloud = lattice_cloud(square_basis(), Topology.plane(), coords)
            with pytest.raises(TooLarge, match="too wide for exact squared lengths"):
                distance(Metric.EUCLIDEAN_PLANE, cloud, 0, 1)

    def test_torus_duplicates_after_wrap(self):
        # (-1, -5) and (4, 0) are the same point of the 5-torus
        coords = [[-1, -5], [0, 0], [4, 1]]
        assert lattice_cloud(square_basis(), Topology.torus(5), coords).size == 3
        assert lattice_cloud(square_basis(), Topology.plane(), coords + [[4, 0]]).size == 4
        with pytest.raises(DuplicatePoints, match=r"\(mod period\)"):
            lattice_cloud(square_basis(), Topology.torus(5), coords + [[4, 0]])

    def test_shuffled_rows(self):
        coords = generate_rhombus(square_basis(), 6).coords
        rng = np.random.default_rng(3)
        shuffled = coords[rng.permutation(36)]
        assert lattice_cloud(square_basis(), Topology.plane(), shuffled).size == 36
        with_copy = np.concatenate([coords, coords[[17]]])[rng.permutation(37)]
        with pytest.raises(DuplicatePoints):
            lattice_cloud(square_basis(), Topology.plane(), with_copy)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=12),
        st.sampled_from([None, 2, 3, 4, 7]),
    )
    def test_verdict_matches_set_of_rows(self, coords, n):
        topology = Topology.plane() if n is None else Topology.torus(n)
        rows = coords if n is None else [(i % n, j % n) for i, j in coords]
        if len(set(rows)) == len(rows):
            assert lattice_cloud(square_basis(), topology, coords).size == len(coords)
        else:
            with pytest.raises(DuplicatePoints):
                lattice_cloud(square_basis(), topology, coords)


class TestDistance:
    def test_torus_wraps_to_adjacent(self):
        cloud = generate_rhombus(hexagonal_basis(), 6, Topology.torus(6))
        p = [k for k in range(36) if tuple(cloud.coords[k]) == (0, 0)][0]
        q = [k for k in range(36) if tuple(cloud.coords[k]) == (5, 0)][0]
        assert distance(Metric.EUCLIDEAN_TORUS, cloud, p, q) == pytest.approx(1.0)
        assert distance(Metric.HEX_TORUS, cloud, p, q) == 1

    def test_hexagonal_plane_pairs(self):
        cloud = lattice_cloud(
            hexagonal_basis(), Topology.plane(), [[0, 0], [1, 1], [2, -1]]
        )
        assert distance(Metric.EUCLIDEAN_PLANE, cloud, 0, 1) == pytest.approx(SQRT3)
        assert distance(Metric.EUCLIDEAN_PLANE, cloud, 0, 2) == pytest.approx(SQRT3)

    def test_torus_metric_on_plane_cloud_rejected(self):
        cloud = generate_rhombus(hexagonal_basis(), 4)
        with pytest.raises(TopologyMismatch):
            distance(Metric.EUCLIDEAN_TORUS, cloud, 0, 1)

    def test_torus_at_most_plane(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            coords = rng.integers(0, n, size=(12, 2))
            coords = np.unique(coords, axis=0)
            if len(coords) < 2:
                continue
            plane = lattice_cloud(hexagonal_basis(), Topology.plane(), coords)
            torus = lattice_cloud(hexagonal_basis(), Topology.torus(n), coords)
            ia, ib = np.triu_indices(len(coords), k=1)
            sq_p = pair_sq(plane, Metric.EUCLIDEAN_PLANE, ia, ib)
            sq_t = pair_sq(torus, Metric.EUCLIDEAN_TORUS, ia, ib)
            assert (sq_t <= sq_p + 1e-9).all()

    def test_nine_translates_match_twenty_five(self):
        basis = hexagonal_basis()
        n = 7
        rng = np.random.default_rng(3)
        for _ in range(200):
            di, dj = (int(x) for x in rng.integers(-n + 1, n, size=2))
            nine = min(
                basis.sq_offset(di + s * n, dj + t * n)
                for s in (-1, 0, 1)
                for t in (-1, 0, 1)
            )
            twenty_five = min(
                basis.sq_offset(di + s * n, dj + t * n)
                for s in range(-2, 3)
                for t in range(-2, 3)
            )
            assert nine == twenty_five

    @staticmethod
    def _reach(basis):
        """Translate coefficients the nearest torus translate can need.

        For x = d·M with |d| < n the nearest translate y has |y| <= |x|, so
        its translate coefficients are at most 2(|u| + |v|)·‖M⁻¹‖ in size.
        """
        norm_inv = np.linalg.norm(np.linalg.inv(basis.matrix()), 2)
        return 2 * (np.hypot(*basis.u) + np.hypot(*basis.v)) * norm_inv

    def _assert_matches_wide_window(self, basis, n):
        cloud = generate_rhombus(basis, n, Topology.torus(n))
        ia, ib = np.triu_indices(cloud.size, k=1)
        offsets, inverse = np.unique(
            cloud.coords[ib] - cloud.coords[ia], axis=0, return_inverse=True
        )
        w = int(np.ceil(self._reach(basis))) + 1
        s, t = np.meshgrid(np.arange(-w, w + 1), np.arange(-w, w + 1))
        shifts = n * np.column_stack([s.ravel(), t.ravel()])
        cart = (offsets[:, None, :] + shifts[None]) @ basis.matrix()
        expect = (cart**2).sum(axis=2).min(axis=1)[inverse.ravel()]
        got = pair_sq(cloud, Metric.EUCLIDEAN_TORUS, ia, ib)
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_non_reduced_basis(self):
        # 190 of these 300 pair distances were too large with 9 raw translates
        self._assert_matches_wide_window(Basis((1.0, 0.0), (3.3, 0.2)), 5)

    @given(
        entries=st.lists(st.integers(-20, 20), min_size=4, max_size=4),
        shear=st.integers(-3, 3),
        n=st.integers(2, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_torus_sq_matches_wide_window(self, entries, shear, n):
        ux, uy, vx, vy = (x / 10 for x in entries)
        vx, vy = vx + shear * ux, vy + shear * uy  # often leaves the basis unreduced
        assume(abs(ux * vy - uy * vx) >= 1.0)
        basis = Basis((ux, uy), (vx, vy))
        assume(self._reach(basis) <= 25)
        self._assert_matches_wide_window(basis, n)


class TestHexDistance:
    def test_examples(self):
        assert hex_distance(1, 0) == 1
        assert hex_distance(1, 1) == 2
        assert hex_distance(3, -1) == 3
        assert 3 * 3 - 3 * 1 + 1 * 1 == 7  # Euclidean square of the same offset

    def test_dominates_euclidean_with_known_equality_cases(self):
        for i in range(-50, 51):
            for j in range(-50, 51):
                sq = i * i + i * j + j * j
                h = hex_distance(i, j)
                assert h * h >= sq
                assert (h * h == sq) == (i == 0 or j == 0 or i + j == 0)

    @given(st.integers(-100, 100), st.integers(-100, 100),
           st.integers(-100, 100), st.integers(-100, 100))
    @settings(max_examples=200)
    def test_is_a_norm(self, i, j, k, l):
        assert hex_distance(i, j) == hex_distance(-i, -j)
        assert hex_distance(i + k, j + l) <= hex_distance(i, j) + hex_distance(k, l)
        assert (hex_distance(i, j) == 0) == (i == 0 and j == 0)

    def test_squared_euclidean_is_integer_on_hex_lattice(self):
        basis = hexagonal_basis()
        for i in range(-10, 11):
            for j in range(-10, 11):
                sq = basis.sq_offset(i, j)
                assert sq == round(sq)
                assert sq == i * i + i * j + j * j


class TestTriCoords:
    def test_origin(self):
        t = tri_coords(0, 0)
        assert (t.a, t.b, t.c) == (0, 0, 0)

    def test_unit_step_has_hex_distance_one(self):
        t = tri_coords(1, 0)
        assert max(abs(t.a), abs(t.b), abs(t.c)) == 1

    def test_roundtrip_exhaustive(self):
        for i in range(-20, 21):
            for j in range(-20, 21):
                t = tri_coords(i, j)
                assert t.a + t.b + t.c == 0
                assert t.to_lattice() == (i, j)
                assert max(abs(t.a), abs(t.b), abs(t.c)) == hex_distance(i, j)


class TestTopology:
    def test_torus_needs_period_at_least_two(self):
        with pytest.raises(ValueError):
            Topology.torus(1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Topology("klein")

    def test_metric_selection(self):
        assert Metric.euclidean(Topology.plane()) is Metric.EUCLIDEAN_PLANE
        assert Metric.euclidean(Topology.torus(4)) is Metric.EUCLIDEAN_TORUS
        assert Metric.hexagonal(Topology.torus(4)) is Metric.HEX_TORUS


class TestJsonDocument:
    def test_lattice_roundtrip(self):
        cloud = generate_rhombus(hexagonal_basis(), 4, Topology.torus(4))
        doc = cloud_to_doc(cloud, [0, 1] * 8)
        back, colors = cloud_from_doc(doc)
        assert np.array_equal(back.coords, cloud.coords)
        assert back.topology == cloud.topology
        assert colors == [0, 1] * 8

    def test_cartesian_roundtrip(self):
        cloud = cloud_from_cartesian([[0.0, 0.0], [1.25, -3.5]])
        back, _ = cloud_from_doc(cloud_to_doc(cloud))
        assert np.allclose(back.cartesian, cloud.cartesian)


class TestSubsetIndices:
    def test_repeated_index_rejected(self):
        cloud = generate_rhombus(hexagonal_basis(), 4, Topology.torus(4))
        with pytest.raises(DuplicatePoints):
            cloud.subset([0, 0])
        with pytest.raises(DuplicatePoints):
            cloud.subset([-1, cloud.size - 1])

    def test_repeated_index_rejected_for_cartesian_clouds(self):
        cloud = cloud_from_cartesian([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
        with pytest.raises(DuplicatePoints):
            cloud.subset([2, 1, -1])

    def test_negative_indices_pick_rows_from_the_end(self):
        cloud = generate_rhombus(square_basis(), 3)
        sub = cloud.subset([-1, 0, 4])
        assert sub.coords.tolist() == [[2, 2], [0, 0], [1, 1]]
        assert sub.cartesian.tolist() == cloud.cartesian[[8, 0, 4]].tolist()
        assert not sub.coords.flags.writeable and not sub.cartesian.flags.writeable
        assert cloud.subset([]).size == 0

    def test_out_of_range_index_raises(self):
        cloud = generate_rhombus(square_basis(), 3)
        with pytest.raises(IndexError):
            cloud.subset([9])


class TestNearestImage:
    @given(
        st.integers(-30, 30), st.integers(-30, 30),
        st.sampled_from([(1.0, 0.0), (0.5, SQRT3 / 2)]),
        st.sampled_from([(3.3, 0.2), (5.0, 1.0), (0.0, 1.0), (2.5, 0.9)]),
        st.integers(2, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_image_is_congruent_and_shortest(self, di, dj, u, v, n):
        basis = Basis(u, v)
        ci, cj = nearest_image(basis, n, np.array([di]), np.array([dj]))
        reduced = basis.reduced()
        image = ci[0] * np.array(reduced.u) + cj[0] * np.array(reduced.v)
        offset = di * np.array(basis.u) + dj * np.array(basis.v)
        # the difference is a whole number of periods of the original basis
        k = np.linalg.solve(basis.matrix().T, image - offset) / n
        assert np.allclose(k, np.round(k), atol=1e-6)
        # and no translate in a wide window is shorter
        s, t = np.meshgrid(np.arange(-100, 101), np.arange(-25, 26))
        shifts = np.column_stack([s.ravel(), t.ravel()]) @ (n * basis.matrix())
        best = float(np.min(np.sum((offset + shifts) ** 2, axis=1)))
        assert float(np.sum(image**2)) == pytest.approx(best, rel=1e-9, abs=1e-9)


class TestTorusHexLength:
    @pytest.mark.parametrize("n", range(2, 16))
    def test_every_offset_matches_wide_window(self, n):
        # ordered pairs of the full torus meet every coordinate difference
        # (di, dj) with |di|, |dj| < n
        cloud = generate_rhombus(hexagonal_basis(), n, Topology.torus(n))
        ia, ib = (x.ravel() for x in np.meshgrid(np.arange(cloud.size), np.arange(cloud.size)))
        expect = hex_lengths(cloud, ia, ib)
        assert pair_hex(cloud, Metric.HEX_TORUS, ia, ib).tolist() == expect.tolist()


class TestIntegralInputs:
    """Torus periods and lattice coordinates are integers, or within 1e-9 of one."""

    def test_integer_arrays_pass_through(self):
        coords = np.array([[0, 0], [3, 0]], dtype=np.int64)
        assert integral(coords, "coordinate") is coords
        assert integral([2, 3.0, -1e-12, "4"], "value").tolist() == [2, 3, 0, 4]
        big = np.array([2**62 + 1], dtype=np.uint64)  # exact, not through a float
        assert integral(big, "value").tolist() == [2**62 + 1]

    @pytest.mark.parametrize(
        "value", [2.5, 4 + 1e-6, math.inf, -math.inf, math.nan, 1e30, 2**63, 10**400, "abc", None]
    )
    def test_other_values_rejected(self, value):
        with pytest.raises(MstRatioError, match="must be a 64-bit integer"):
            integral(value, "value")

    def test_fractional_torus_period_rejected(self):
        with pytest.raises(MstRatioError, match="torus period"):
            Topology.torus(2.5)
        assert Topology.torus(4.0) == Topology.torus(4)
        assert type(Topology.torus(np.int64(4)).n) is int

    def test_fractional_coordinate_rejected(self):
        with pytest.raises(MstRatioError, match="lattice coordinate"):
            lattice_cloud(square_basis(), Topology.plane(), [[0, 0], [3.5, 0], [0, 1]])
        cloud = lattice_cloud(square_basis(), Topology.plane(), [[0, 0], [3.0, 0], [0, 1]])
        assert cloud.coords.tolist() == [[0, 0], [3, 0], [0, 1]]

    def test_fractional_document_rejected(self):
        doc = {"basis": {"u": [1, 0], "v": [0, 1]}, "coords": [[0, 0], [1, 0]]}
        with pytest.raises(MstRatioError, match="torus period"):
            cloud_from_doc({**doc, "topology": {"type": "torus", "n": 2.5}})
        with pytest.raises(MstRatioError, match="lattice coordinate"):
            cloud_from_doc({**doc, "coords": [[0, 0], [1, 0.25]]})
