import math

import numpy as np
import pytest

from mstratio import constructions as cons
from mstratio.constructions import (
    Coloring,
    RatioReport,
    asymptotic_sublattice_ratio,
    build_construction,
    mst_ratio,
    multiway_ratio,
    packing_coloring,
    sublattice_coloring,
    supmax_check,
)
from mstratio.errors import (
    DegenerateSublattice,
    DuplicatePoints,
    EmptyCloud,
    MstRatioError,
    RegionTooSmall,
    TopologyMismatch,
    ZeroDenominator,
)
from mstratio.lattice import (
    Metric,
    Topology,
    cloud_from_cartesian,
    generate_rhombus,
    hexagonal_basis,
    pair_sq,
)
SQRT3 = math.sqrt(3.0)


class TestMstRatio:
    def test_fig8_lengths_and_ratio(self):
        cloud, coloring = cons.fig8()
        report = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE)
        assert report.len_b == pytest.approx(48.0, abs=1e-9)
        assert report.len_complement == pytest.approx(74.0, abs=1e-9)
        assert report.len_a == pytest.approx(99.0, abs=1e-9)
        assert report.ratio == pytest.approx(122.0 / 99.0, abs=1e-9)

    def test_whole_set_blue_gives_one(self):
        cloud = generate_rhombus(hexagonal_basis(), 4)
        coloring = Coloring((0,) * 16, 2)
        assert mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE).ratio == 1.0

    def test_quarter_on_torus_four(self):
        cloud, coloring = cons.packing("quarter", 4)
        report = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_TORUS)
        assert report.ratio == pytest.approx(17.0 / 15.0, abs=1e-12)
        assert report.class_lengths == (6.0, 11.0)

    def test_errors(self):
        empty = cloud_from_cartesian(np.zeros((0, 2)))
        with pytest.raises(EmptyCloud):
            mst_ratio(empty, Coloring((), 2), Metric.EUCLIDEAN_PLANE)
        single = cloud_from_cartesian([[0.0, 0.0]])
        with pytest.raises(ZeroDenominator):
            mst_ratio(single, Coloring((0,), 2), Metric.EUCLIDEAN_PLANE)

    def test_swap_symmetry_exact(self):
        cloud, coloring = cons.integer_checkerboard(7)
        a = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE).ratio
        b = mst_ratio(cloud, coloring.swapped(), Metric.EUCLIDEAN_PLANE).ratio
        assert a == b

    def test_quarter_formula_exact_for_small_even_n(self):
        for n in (4, 6, 8, 10):
            cloud, coloring = cons.packing("quarter", n)
            report = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_TORUS)
            expect = (2 * (n * n / 4 - 1) + (3 * n * n / 4 - 1)) / (n * n - 1)
            assert report.ratio == pytest.approx(expect, abs=1e-9)


class TestColoringLabels:
    def test_labels_become_a_tuple_of_ints(self):
        for labels in ((0, 1, 1), [0, 1, 1], np.array([0, 1, 1], dtype=np.int8), (x for x in (0, 1, 1))):
            coloring = Coloring(labels, 2)
            assert coloring.labels == (0, 1, 1)
            assert all(type(x) is int for x in coloring.labels)
        assert Coloring((), 2).labels == ()

    @pytest.mark.parametrize(
        "labels, arity",
        [((0, -1), 2), ((0, 2), 2), ((0, 1, 3), 3), (np.array([1, -1], dtype=np.int8), 2)],
        ids=["negative", "equal-arity", "above-arity", "int8-negative"],
    )
    def test_out_of_range_labels_rejected(self, labels, arity):
        with pytest.raises(ValueError, match="out of range"):
            Coloring(labels, arity)

    def test_arity_below_two_rejected(self):
        with pytest.raises(ValueError, match="arity"):
            Coloring((0, 0), 1)

    def test_caller_array_is_copied_not_frozen(self):
        labels = np.array([0, 2, 2, 0, 2])
        coloring = Coloring(labels, 3)
        labels[0] = 1  # still writable, and the coloring keeps its own copy
        assert coloring.labels == (0, 2, 2, 0, 2)
        assert coloring.class_indices(0).tolist() == [0, 3]
        assert coloring.class_indices(1).tolist() == []
        assert coloring.counts == (2, 0, 3)
        assert all(type(x) is int for x in coloring.counts)

    def test_equality_and_hash_follow_labels(self):
        a, b = Coloring(np.array([1, 0, 1]), 2), Coloring((1, 0, 1), 2)
        assert a == b and hash(a) == hash(b)
        assert a != Coloring((1, 0, 1), 3)


class TestMultiway:
    def test_two_classes_agree_with_mst_ratio(self):
        cloud, coloring = cons.integer_checkerboard(5)
        a = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE)
        b = multiway_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE)
        assert a.ratio == b.ratio

    def test_three_congruent_sublattices(self):
        cloud, coloring = cons.threeway(12)
        report = multiway_ratio(cloud, coloring, Metric.EUCLIDEAN_TORUS)
        assert report.ratio == pytest.approx(cons.threeway_torus_ratio(12), abs=1e-9)
        # the finite-n deficit is exactly 2*sqrt(3)/(n^2 - 1)
        assert abs(report.ratio - SQRT3) == pytest.approx(2 * SQRT3 / 143, abs=1e-9)

    def test_singleton_classes_scores_zero(self):
        cloud = generate_rhombus(hexagonal_basis(), 2)
        coloring = Coloring((0, 1, 2, 3), 4)
        assert multiway_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE).ratio == 0.0


def min_blue_sq_in_window(generators, span=20):
    """Brute-force oracle: min squared distance among sublattice points."""
    pts = []
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            g = np.asarray(generators)
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            na = i * g[1, 1] - j * g[1, 0]
            nb = g[0, 0] * j - g[0, 1] * i
            if na % det == 0 and nb % det == 0:
                pts.append((i, j))
    best = math.inf
    for k, (i1, j1) in enumerate(pts):
        for i2, j2 in pts[k + 1 :]:
            di, dj = i1 - i2, j1 - j2
            best = min(best, di * di + di * dj + dj * dj)
    return best


class TestSublatticeColoring:
    def test_quarter_counts_on_even_torus(self):
        for n in (4, 8):
            cloud = generate_rhombus(hexagonal_basis(), n, Topology.torus(n))
            coloring = sublattice_coloring(cloud, ((2, 0), (0, 2)))
            assert coloring.counts[0] == n * n // 4

    def test_index_three_min_distance(self):
        assert min_blue_sq_in_window(((1, 1), (2, -1))) == 3

    def test_index_seven_min_distance(self):
        assert min_blue_sq_in_window(((1, 2), (3, -1))) == 7

    def test_degenerate_generators(self):
        cloud = generate_rhombus(hexagonal_basis(), 4)
        with pytest.raises(DegenerateSublattice):
            sublattice_coloring(cloud, ((1, 0), (0, 1)))

    def test_incompatible_torus_period(self):
        cloud = generate_rhombus(hexagonal_basis(), 5, Topology.torus(5))
        with pytest.raises(TopologyMismatch):
            sublattice_coloring(cloud, ((2, 0), (0, 2)))

    def test_offset_selects_coset(self):
        cloud = generate_rhombus(hexagonal_basis(), 4, Topology.torus(4))
        a = sublattice_coloring(cloud, ((2, 0), (0, 2)), offset=(0, 0))
        b = sublattice_coloring(cloud, ((2, 0), (0, 2)), offset=(1, 1))
        assert a.counts == b.counts
        assert a.labels != b.labels


class TestPackings:
    def test_min_blue_distances_on_torus(self):
        cloud = generate_rhombus(hexagonal_basis(), 84, Topology.torus(84))
        for family, (_, index, min_sq) in cons.PACKING_FAMILIES.items():
            coloring = packing_coloring(cloud, family)
            blue = coloring.class_indices(0)
            assert len(blue) == 84 * 84 // index
            sub = cloud.subset(blue)
            # min pairwise torus distance via a coarse sample plus local window
            ia, ib = np.triu_indices(min(len(blue), 300), k=1)
            sq = pair_sq(sub.subset(np.arange(min(len(blue), 300))),
                         Metric.EUCLIDEAN_TORUS, ia, ib)
            assert sq.min() == min_sq

    def test_asymptotic_ratios(self):
        assert asymptotic_sublattice_ratio(4, 2) == pytest.approx(1.25)
        assert asymptotic_sublattice_ratio(9, 3) == pytest.approx(11.0 / 9.0)
        assert asymptotic_sublattice_ratio(3, SQRT3) == pytest.approx((2 + SQRT3) / 3)
        assert asymptotic_sublattice_ratio(7, math.sqrt(7)) == pytest.approx(
            (6 + math.sqrt(7)) / 7
        )

    def test_families_approach_their_limits(self):
        targets = {
            "third": (2 + SQRT3) / 3,
            "quarter": 1.25,
            "seventh": (6 + math.sqrt(7)) / 7,
            "ninth": 11.0 / 9.0,
        }
        for family, target in targets.items():
            cloud, coloring = cons.packing(family, 42)
            got = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_TORUS).ratio
            assert abs(got - target) < 2e-3
            assert got == pytest.approx(cons.packing_torus_ratio(family, 42), abs=1e-9)


class TestStretched:
    def test_window_counts(self):
        form = cons.stretched_form(20)
        assert form.p == 2 * (2 * 20 // 9) + 1 == 9
        assert form.q == 2 * int(20 / SQRT3) + 1
        assert form.b == 2 * int(20 / (3 * SQRT3)) + 1

    def test_exact_tree_lengths(self):
        for r in (9, 12.5, 25, 40):
            cloud, coloring = cons.stretched_hex(r)
            form = cons.stretched_form(r)
            rep = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE)
            assert rep.len_a == pytest.approx(
                SQRT3 * (form.n - form.p) + math.sqrt(21) * (form.p - 1), abs=1e-9
            )
            assert rep.len_b == pytest.approx(
                math.sqrt(27) * (form.m - 1), abs=1e-9
            )
            assert rep.ratio == pytest.approx(form.ratio, abs=1e-9)

    def test_blue_min_distance(self):
        cloud, coloring = cons.stretched_hex(15)
        blue = cloud.subset(coloring.class_indices(0))
        ia, ib = np.triu_indices(blue.size, k=1)
        sq = pair_sq(blue, Metric.EUCLIDEAN_PLANE, ia, ib)
        assert sq.min() == pytest.approx(27.0)

    def test_window_too_small(self):
        with pytest.raises(RegionTooSmall):
            cons.stretched_hex(5)


class TestSevenPoints:
    def test_exact_class_lengths(self):
        cloud, coloring = cons.seven_points(0.01)
        rep = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE)
        assert rep.len_b == pytest.approx(2.0, abs=1e-12)
        assert rep.len_complement == pytest.approx(SQRT3, abs=1e-12)
        assert rep.ratio > (2 + SQRT3) / (SQRT3 + 3 * 0.01)
        assert rep.ratio > 2.114

    def test_limit_value(self):
        cloud, coloring = cons.seven_points(1e-6)
        rep = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE)
        assert abs(rep.ratio - (2 + SQRT3) / SQRT3) < 1e-4

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            cons.seven_points(0.5)


class TestNearCollapse:
    def test_ratio_stays_near_one(self):
        cloud, coloring = cons.near_collapse(10, 1e-4)
        rep = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE)
        assert rep.ratio < 1.01

    def test_lone_far_point_makes_ratio_tiny(self):
        cloud, _ = cons.near_collapse(10, 1e-4)
        labels = [1] * 10
        labels[9] = 0  # only the unit-distance point
        rep = mst_ratio(cloud, Coloring(tuple(labels), 2), Metric.EUCLIDEAN_PLANE)
        assert rep.ratio <= 2 * 8 * 1e-4

    def test_zero_eps_collapses_to_duplicates(self):
        with pytest.raises(DuplicatePoints):
            cons.near_collapse(10, 0.0)


class TestCheckerboard:
    def test_two_by_two(self):
        cloud, coloring = cons.integer_checkerboard(2)
        rep = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE)
        assert rep.ratio == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)

    def test_parity_classes_are_symmetric(self):
        cloud, coloring = cons.integer_checkerboard(9)
        a = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE).ratio
        b = mst_ratio(cloud, coloring.swapped(), Metric.EUCLIDEAN_PLANE).ratio
        assert a == b

    def test_matches_closed_form(self):
        for n in (6, 9, 14):
            cloud, coloring = cons.integer_checkerboard(n)
            got = mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE).ratio
            assert got == pytest.approx(cons.checkerboard_ratio(n), abs=1e-9)


class TestSupmaxGate:
    def test_known_instances_pass(self):
        cloud, coloring = cons.seven_points(1e-6)
        assert supmax_check(mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE))
        cloud, coloring = cons.fig8()
        assert supmax_check(mst_ratio(cloud, coloring, Metric.EUCLIDEAN_PLANE))

    def test_synthetic_violation_fails(self):
        bogus = RatioReport((2.0, 0.5), 1.0, 2.5, (2, 2))
        assert not supmax_check(bogus)


class TestRegistry:
    def test_inline_parameters(self):
        built = build_construction("stretched:r=12")
        assert built.params == {"r": 12.0}
        built = build_construction("packing:ninth:n=12")
        assert built.params == {"family": "ninth", "n": 12}

    def test_overrides_win(self):
        built = build_construction("packing:quarter", n=8)
        assert built.cloud.size == 64

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_construction("nonesuch")

    def test_closed_forms_attached(self):
        assert build_construction("fig8").closed_form == pytest.approx(122 / 99)
        assert build_construction("quarter", n=10).closed_form == pytest.approx(
            cons.quarter_torus_ratio(10)
        )


@pytest.mark.parametrize("name", sorted(cons.REGISTRY))
def test_every_base_rejects_a_parameter_it_does_not_take(name):
    with pytest.raises(MstRatioError, match="takes no parameter bogus"):
        build_construction(f"{name}:bogus=1")
    with pytest.raises(MstRatioError, match="takes no parameter bogus"):
        build_construction(name, bogus=1.0)


class TestColoringIntegralLabels:
    def test_fractional_label_rejected(self):
        with pytest.raises(MstRatioError, match="label"):
            Coloring((0, 1, 1.7), 2)
        with pytest.raises(MstRatioError, match="label"):
            Coloring(np.array([0.0, 1.0, np.nan]), 2)

    def test_integral_float_labels_accepted(self):
        coloring = Coloring((0, 1.0, 2.0), 3)
        assert coloring.labels == (0, 1, 2)
        assert all(type(x) is int for x in coloring.labels)


NUMERIC_PARAMS = [
    (name, param)
    for name, entry in sorted(cons.REGISTRY.items())
    for param, default in entry.params.items()
    if not isinstance(default, str)
]


@pytest.mark.parametrize(
    "name,param", NUMERIC_PARAMS, ids=[f"{name}-{param}" for name, param in NUMERIC_PARAMS]
)
def test_every_numeric_parameter_takes_only_its_type(name, param):
    default = cons.REGISTRY[name].params[param]
    bad = ["inf", "-inf", "nan", "1e400", "abc", math.inf, math.nan, 10**400]
    if isinstance(default, int):
        bad += ["8.5", 8.5, default + 0.25]
    for value in bad:
        with pytest.raises(MstRatioError, match=f"^{param} must be"):
            build_construction(f"{name}:{param}={value}")
        with pytest.raises(MstRatioError, match=f"^{param} must be"):
            build_construction(name, **{param: value})
    want = build_construction(name, **{param: default})
    for got in (
        build_construction(name, **{param: float(default)}),
        build_construction(name, **{param: str(default)}),
        build_construction(f"{name}:{param}={float(default)!r}"),
    ):
        assert (got.name, got.params, got.closed_form) == (want.name, want.params, want.closed_form)
        assert all(type(got.params[k]) is type(v) for k, v in want.params.items())
        assert got.coloring == want.coloring
        assert np.array_equal(got.cloud.cartesian, want.cloud.cartesian)


def test_packing_alias_fixes_its_family():
    with pytest.raises(MstRatioError, match="takes no parameter family"):
        build_construction("quarter:family=ninth")
    alias, full = build_construction("ninth", n=9), build_construction("packing:ninth", n=9)
    assert (alias.name, alias.params, alias.closed_form) == (full.name, full.params, full.closed_form)
    assert alias.coloring == full.coloring
