"""Randomized empirical audits shared by the CLI and the acceptance suite.

Each audit runs a fixed number of seeded cases and returns an outcome with a
pass flag and a short detail string; any violation is a build-stopping bug,
not a statistical event.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import habitat, persistence, search, spanning
from .constructions import mst_ratio, random_coloring
from .lattice import (
    Metric,
    Topology,
    cloud_from_cartesian,
    generate_rhombus,
    hexagonal_basis,
    lattice_cloud,
    square_basis,
)

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class AuditOutcome:
    name: str
    ok: bool
    cases: int
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def square_bound_audit(samples: int = 500, seed: int = DEFAULT_SEED) -> AuditOutcome:
    """L(MST) <= 2 m sqrt(m-1) for m random points in [0, m]²."""
    rng = _rng(seed)
    worst = -math.inf
    for _ in range(samples):
        m = int(rng.integers(2, 201))
        pts = rng.uniform(0.0, m, size=(m, 2))
        cloud = cloud_from_cartesian(pts)
        length = spanning.mst(cloud, Metric.EUCLIDEAN_PLANE).total_length
        bound = 2.0 * m * math.sqrt(m - 1)
        worst = max(worst, length - bound)
        if length > bound + 1e-9:
            return AuditOutcome(
                "square-bound", False, samples, f"violated by {length - bound:.3g}"
            )
    return AuditOutcome("square-bound", True, samples, f"closest margin {-worst:.3g}")


def torus_gap_audit(samples: int = 200, seed: int = DEFAULT_SEED) -> AuditOutcome:
    """L_torus <= L_plane <= L_torus + 32*sqrt(2)*n*sqrt(n) for random subsets."""
    rng = _rng(seed)
    basis = hexagonal_basis()
    for _ in range(samples):
        n = int(rng.integers(4, 13))
        density = rng.uniform(0.15, 0.95)
        mask = rng.random(n * n) < density
        if mask.sum() < 2:
            mask[:2] = True
        plane = generate_rhombus(basis, n)
        coords = plane.coords[mask]
        sub_plane = lattice_cloud(basis, Topology.plane(), coords)
        sub_torus = lattice_cloud(basis, Topology.torus(n), coords)
        lp = spanning.mst(sub_plane, Metric.EUCLIDEAN_PLANE).total_length
        lt = spanning.mst(sub_torus, Metric.EUCLIDEAN_TORUS).total_length
        gap = 32.0 * math.sqrt(2.0) * n * math.sqrt(n)
        if not (lt <= lp + 1e-9 and lp <= lt + gap + 1e-9):
            return AuditOutcome(
                "torus-gap", False, samples, f"n={n}: lt={lt:.6g} lp={lp:.6g}"
            )
    return AuditOutcome("torus-gap", True, samples, "plane/torus ordering holds")


def _random_blue(rng, size: int) -> list[int]:
    density = rng.uniform(0.1, 0.9)
    mask = rng.random(size) < density
    if not mask.any():
        mask[int(rng.integers(size))] = True
    return [int(i) for i in np.flatnonzero(mask)]


def backyard_audit(
    samples: int = 200, seed: int = DEFAULT_SEED, n: int = 10, k_max: int = 2
) -> AuditOutcome:
    """Backyard bound beta_k <= 2h_k - 2b_k + 2 and the monotone count chain."""
    rng = _rng(seed)
    cloud = generate_rhombus(hexagonal_basis(), n, Topology.torus(n))
    for _ in range(samples):
        blue = _random_blue(rng, cloud.size)
        summary = habitat.habitat_summary(cloud, blue, k_max=k_max)
        if not summary.chain_ok():
            return AuditOutcome("backyard-bound", False, samples, f"chain broken, B={blue}")
        for k in range(1, k_max + 1):
            if not habitat.check_backyard_bound(summary, k):
                lv = summary.levels[k]
                return AuditOutcome(
                    "backyard-bound", False, samples,
                    f"k={k}: beta={lv.beta} > 2h-2b+2={2 * lv.houses - 2 * lv.blocks + 2}",
                )
    return AuditOutcome("backyard-bound", True, samples, f"torus {n}, k <= {k_max}")


def norms_audit(samples: int = 200, seed: int = DEFAULT_SEED) -> AuditOutcome:
    """Kernel norm >= 0, shares sum to 1, and the norm/ratio round trip."""
    rng = _rng(seed)
    for case in range(samples):
        if case % 2 == 0:
            n = int(rng.integers(4, 9))
            cloud = generate_rhombus(hexagonal_basis(), n, Topology.torus(n))
            metric = Metric.EUCLIDEAN_TORUS
        else:
            n = int(rng.integers(3, 8))
            cloud = generate_rhombus(square_basis(), n)
            metric = Metric.EUCLIDEAN_PLANE
        coloring = random_coloring(rng, cloud.size)
        norms = persistence.chromatic_norms(cloud, coloring, "max-death")
        if norms.kernel_norm < -1e-9:
            return AuditOutcome("chromatic-norms", False, samples, "negative kernel")
        if abs(norms.image_share + norms.kernel_share - 1.0) > 1e-12:
            return AuditOutcome("chromatic-norms", False, samples, "shares do not sum to 1")
        direct = mst_ratio(cloud, coloring, metric).ratio
        via_norms = persistence.ratio_from_norms(norms)
        if abs(direct - via_norms) > 1e-9:
            return AuditOutcome(
                "chromatic-norms", False, samples,
                f"round trip off by {abs(direct - via_norms):.3g}",
            )
    return AuditOutcome("chromatic-norms", True, samples, "identities hold")


def incremental_audit(samples: int = 200, seed: int = DEFAULT_SEED) -> AuditOutcome:
    """Incremental single-flip ratios match from-scratch recomputation."""
    rng = _rng(seed)
    cloud = generate_rhombus(hexagonal_basis(), 6, Topology.torus(6))
    metric = Metric.EUCLIDEAN_TORUS
    coloring = random_coloring(rng, cloud.size)
    cache = search.build_cache(cloud, coloring, metric)
    for _ in range(samples):
        flip = int(rng.integers(cloud.size))
        fast = search.incremental_ratio(cloud, coloring, cache, flip)
        flipped = coloring.flipped(flip)
        slow = mst_ratio(cloud, flipped, metric).ratio
        if abs(fast - slow) > 1e-9:
            return AuditOutcome(
                "incremental-ratio", False, samples, f"flip {flip}: {fast} vs {slow}"
            )
        # walk to the flipped coloring half the time to vary the base state
        if rng.random() < 0.5:
            coloring = flipped
            cache = search.build_cache(cloud, coloring, metric)
    return AuditOutcome("incremental-ratio", True, samples, "matches from-scratch")


TABLE_ONE = (
    (2, 3, "1.92"),
    (2, 4, "3.00"),
    (3, 7, "5.58"),
    (3, 9, "7.00"),
    (4, 12, "8.85"),
    (4, 13, "9.42"),
    (4, 16, "11.00"),
    (5, 19, "12.43"),
    (5, 21, "13.33"),
    (5, 25, "15.00"),
)


def _truncate2(x: float) -> str:
    return f"{math.floor(x * 100) / 100:.2f}"


def cost_table_audit() -> AuditOutcome:
    """The ten frozen cost values for hexagonal lengths 2..5 (two truncated decimals)."""
    table = habitat.cost_table(2)
    by_key = {(row.hex_len, row.sq_len): row for row in table.rows}
    for hex_len, sq, expect in TABLE_ONE:
        row = by_key.get((hex_len, sq))
        if row is None:
            return AuditOutcome("cost-table", False, len(TABLE_ONE), f"missing {hex_len}/{sq}")
        if _truncate2(row.cost_euros) != expect:
            return AuditOutcome(
                "cost-table", False, len(TABLE_ONE),
                f"hex {hex_len} sq {sq}: {row.cost_euros:.4f} != {expect}",
            )
    return AuditOutcome("cost-table", True, len(TABLE_ONE), "all ten values reproduced")


def _first_gap_failure(gaps: habitat.GapAudit) -> str:
    rec, nm = next((rec, nm) for rec in gaps.records for nm in rec.failing_gaps())
    lo, hi = habitat.GAP_BOUNDS[nm]
    return f"first failure at k={rec.k}: {nm}={getattr(rec, nm):.6g} outside [{lo:.6g}, {hi:.6g}]"


def cost_gap_audit(k_max: int = 1000) -> AuditOutcome:
    gaps = habitat.audit_cost_gaps(k_max)
    verdict = f"intervals hold for 2 <= k <= {k_max}" if gaps.ok else _first_gap_failure(gaps)
    detail = f"k=1 anomaly w1-z0={gaps.k1_anomaly:.3f} < 2 (reported, not asserted); {verdict}"
    return AuditOutcome("cost-gaps", gaps.ok, k_max, detail)


def run_all(
    k_max: int = 1000,
    samples: int = 200,
    torus: int = 10,
    seed: int = DEFAULT_SEED,
) -> list[AuditOutcome]:
    return [
        cost_table_audit(),
        cost_gap_audit(k_max),
        square_bound_audit(max(samples, 200), seed),
        torus_gap_audit(samples, seed),
        backyard_audit(samples, seed, n=torus),
        norms_audit(samples, seed),
        incremental_audit(samples, seed),
    ]
