"""The benchmark's workloads: op lists, generated inputs and output checks.

Each op is one `mstratio` command line.  Why each workload exists (which
layer does most of its work, and which layers it bypasses):

* ratio-large: the paper's headline ratio at the sizes the roadmap names.
  Almost all time is in `spanning`'s cutoff path; no `search`, no `habitat`.
* coloring-search: tiny clouds evaluated tens of thousands of times through
  `search`'s dense Prim; the lattice MST path is never taken.
* habitat-torus80: the m x m pair tables and triangle passes of `habitat` on
  1,600 blue points, once on the quarter packing and once on a seeded random
  blue set, which use the backyard pass differently.
* audit-small: thousands of calls into `spanning`, `persistence`, `habitat`
  and `search` on clouds of at most 200 points, so per-call overhead shows.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from mstratio import build_construction
from mstratio.constructions import packing_torus_ratio, stretched_form
from mstratio.lattice import cloud_from_doc

HABITAT_N = 80
HABITAT_BLUE = 1600
ANNEAL_N = 6
ANNEAL_BUDGET = 10000
#: A quarter of the default: an op of about 1.3 s instead of 3.7 s, so a run holds
#: enough passes for its median to ride out a short change in the host's speed.
AUDIT_SAMPLES = 50


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[str], int]
    seeded: bool  # False when the output does not depend on the workload seed


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    warmup: tuple[tuple[str, ...], ...]  # small ops run untimed: lazy set-up, caches
    item: str  # what the throughput counts


def _ratio_large(seed: int, work_dir: Path) -> Workload:
    return Workload(
        ops=(
            Op(
                ("ratio", "--construction", "stretched:r=500"),
                checks.ratio_check(stretched_form(500).ratio),
                seeded=False,
            ),
            Op(
                ("ratio", "--construction", "packing:quarter", "--torus", "200"),
                checks.ratio_check(packing_torus_ratio("quarter", 200)),
                seeded=False,
            ),
        ),
        warmup=(
            ("ratio", "--construction", "stretched:r=40"),
            ("ratio", "--construction", "packing:quarter", "--torus", "24"),
        ),
        item="mst_points",
    )


def _coloring_search(seed: int, work_dir: Path) -> Workload:
    small = build_construction("packing:quarter", n=ANNEAL_N)
    return Workload(
        ops=(
            Op(
                ("brute", "--construction", "packing:quarter", "--torus", "4"),
                checks.brute_check,
                seeded=False,
            ),
            Op(
                (
                    "anneal", "--construction", "packing:quarter", "--torus", str(ANNEAL_N),
                    "--budget", str(ANNEAL_BUDGET), "--seed", str(seed),
                ),
                checks.anneal_check(small.cloud, small.metric, seed, ANNEAL_BUDGET),
                seeded=True,
            ),
        ),
        warmup=(
            ("brute", "--construction", "packing:quarter", "--torus", "2"),
            ("anneal", "--construction", "packing:quarter", "--torus", "4", "--budget", "100"),
        ),
        item="colorings",
    )


def random_blue_doc(seed: int, n: int, blue: int) -> dict:
    """Canonical document of the hexagonal n-torus with `blue` seeded points in class 0."""
    rng = np.random.Generator(np.random.Philox(seed))
    colors = np.ones(n * n, dtype=np.int64)
    colors[rng.choice(n * n, size=blue, replace=False)] = 0
    return {
        "basis": {"u": [1.0, 0.0], "v": [0.5, math.sqrt(3.0) / 2.0]},
        "topology": {"type": "torus", "n": n},
        "coords": [[i, j] for j in range(n) for i in range(n)],
        "colors": colors.tolist(),
    }


def _habitat_torus80(seed: int, work_dir: Path) -> Workload:
    doc = random_blue_doc(seed, HABITAT_N, HABITAT_BLUE)
    path = work_dir / f"blue-{seed}.json"  # relative, so stdout names no checkout
    path.write_text(json.dumps(doc))
    random_cloud, colors = cloud_from_doc(doc)
    packing = build_construction("packing:quarter", n=HABITAT_N)
    base = ("habitat", "--torus", str(HABITAT_N), "--k-max", "1")
    return Workload(
        ops=(
            Op(
                base + ("--construction", "packing:quarter"),
                checks.habitat_check(packing.cloud, packing.coloring.class_indices(0)),
                seeded=False,
            ),
            Op(
                base + ("--in", str(path)),
                checks.habitat_check(random_cloud, np.flatnonzero(np.asarray(colors) == 0)),
                seeded=True,
            ),
        ),
        warmup=(("habitat", "--construction", "packing:quarter", "--torus", "8", "--k-max", "1"),),
        item="blue_points",
    )


def _audit_small(seed: int, work_dir: Path) -> Workload:
    argv = ("audit", "--seed", str(seed), "--samples", str(AUDIT_SAMPLES))
    return Workload(
        ops=(Op(argv, checks.audit_check, seeded=True),),
        warmup=(("audit", "--samples", "2", "--k-max", "10", "--torus", "9"),),
        item="audit_cases",
    )


WORKLOADS = {
    "ratio-large": _ratio_large,
    "coloring-search": _coloring_search,
    "habitat-torus80": _habitat_torus80,
    "audit-small": _audit_small,
}


def build(name: str, seed: int, work_dir: Path) -> Workload:
    """Generate the workload's inputs from the seed (writing them under work_dir)."""
    return WORKLOADS[name](seed, work_dir)

