"""In-memory span tracer that wraps mstratio's public functions from outside.

Every binding site is patched: the defining module and each mstratio module
that imported the function by name (``from .constructions import mst_ratio``
in ``cli`` and ``audits``, for instance), so callers holding their own
reference are traced too.  A span records name, start, end, parent span and
op id; counts are recorded per op at the same boundaries.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

#: `spanning`'s full-pair limit when this benchmark was written.  Fixed here so that
#: ``spanning.mst_calls_cutoff`` keeps its meaning if the library changes.
FULL_PAIR_LIMIT = 420


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_mst(add, args, kwargs, result):
    cloud = _arg(args, kwargs, 0, "cloud")
    add["spanning.mst_calls"] += 1
    add["spanning.mst_points"] += cloud.size
    add["spanning.mst_calls_cutoff"] += int(
        cloud.coords is not None and cloud.size > FULL_PAIR_LIMIT
    )


def _count_pairs(add, args, kwargs, result):
    add["lattice.pairs"] += int(np.size(_arg(args, kwargs, 2, "ia")))


def _count_subset(add, args, kwargs, result):
    add["lattice.subset_calls"] += 1


def _count_incremental(add, args, kwargs, result):
    add["search.incremental_ratio_calls"] += 1


def _count_local_search(add, args, kwargs, result):
    add["search.accepted_steps"] += len(result.steps)
    add["search.proposals"] += _arg(args, kwargs, 4, "budget")


def _count_thickening(add, args, kwargs, result):
    add["habitat.triangles"] += len(result)


def _count_backyards(add, args, kwargs, result):
    add["habitat.backyard_components"] += len(result[2])


def _count_norms(add, args, kwargs, result):
    add["persistence.calls"] += 1


#: (defining module, attribute, span name, counter).  A span's self time is
#: reported as ``<span name>_s``.
TRACED = (
    ("mstratio.spanning", "mst", "spanning.mst", _count_mst),
    ("mstratio.spanning", "hex_mst", "spanning.hex_mst", None),
    ("mstratio.spanning", "filtered_forest", "spanning.filtered_forest", None),
    ("mstratio.lattice", "PointCloud.subset", "lattice.subset", _count_subset),
    ("mstratio.lattice", "pair_sq", "lattice.pair", _count_pairs),
    ("mstratio.lattice", "pair_hex", "lattice.pair", _count_pairs),
    ("mstratio.lattice", "distance_matrix", "lattice.distance_matrix", None),
    ("mstratio.lattice", "generate_square", "lattice.generate", None),
    ("mstratio.lattice", "generate_rhombus", "lattice.generate", None),
    ("mstratio.lattice", "cloud_from_doc", "lattice.generate", None),
    ("mstratio.constructions", "build_construction", "constructions.build", None),
    ("mstratio.constructions", "mst_ratio", "constructions.mst_ratio", None),
    ("mstratio.search", "brute_force_max", "search.brute_force_max", None),
    ("mstratio.search", "local_search", "search.local_search", _count_local_search),
    ("mstratio.search", "build_cache", "search.build_cache", None),
    ("mstratio.search", "incremental_ratio", "search.incremental_ratio", _count_incremental),
    ("mstratio.habitat", "habitat_summary", "habitat.summary", None),
    ("mstratio.habitat", "backyards", "habitat.backyards", _count_backyards),
    ("mstratio.habitat", "thickening", "habitat.thickening", _count_thickening),
    ("mstratio.habitat", "house_labels", "habitat.house_labels", None),
    ("mstratio.persistence", "chromatic_norms", "persistence.chromatic_norms", _count_norms),
    ("mstratio.audits", "cost_table_audit", "audits.cost_table", None),
    ("mstratio.audits", "cost_gap_audit", "audits.cost_gaps", None),
    ("mstratio.audits", "square_bound_audit", "audits.square_bound", None),
    ("mstratio.audits", "torus_gap_audit", "audits.torus_gap", None),
    ("mstratio.audits", "backyard_audit", "audits.backyard", None),
    ("mstratio.audits", "norms_audit", "audits.norms", None),
    ("mstratio.audits", "incremental_audit", "audits.incremental", None),
)

CLI_SPAN = "cli.main"

COUNTS = (
    "spanning.mst_calls",
    "spanning.mst_points",
    "spanning.mst_calls_cutoff",
    "lattice.subset_calls",
    "lattice.pairs",
    "search.incremental_ratio_calls",
    "habitat.triangles",
    "habitat.backyard_components",
    "persistence.calls",
)


def _self_metric(span: str) -> str:
    return "cli.self_s" if span == CLI_SPAN else f"{span}_s"


#: Every per-layer metric and its unit, in report order.
METRICS = {
    **{_self_metric(name): "s" for _, _, name, _ in TRACED},
    **{name: "count" for name in COUNTS},
    "search.accept_ratio": "ratio",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records spans and counts while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[int, Counter] = defaultdict(Counter)  # op id -> counts
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn, args, kwargs, count):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            count(self.counts[self._op], args, kwargs, result)
        return result

    def call(self, main, argv):
        """Run one op as a new op id under a `cli.main` span."""
        self._op += 1
        return self._span(CLI_SPAN, main, (argv,), {}, None)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs, count)

        return traced

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        package = [
            mod for key, mod in sys.modules.items()
            if key == "mstratio" or key.startswith("mstratio.")
        ]
        for module_name, attr, name, count in TRACED:
            owner = sys.modules[module_name]
            cls_name, _, attr_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr_name)
            wrapper = self._wrap(original, name, count)
            self._patch(owner, attr_name, original, wrapper)
            if isinstance(owner, types.ModuleType):
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pass_metrics(self, ops_per_pass: int) -> list[dict[str, float]]:
        """Per-layer metrics of each traced pass (self times in seconds, counts)."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        passes: dict[int, Counter] = defaultdict(Counter)
        for (name, start, end, _, op), covered in zip(self.spans, children):
            values = passes[op // ops_per_pass]
            values[_self_metric(name)] += end - start - covered
            if name == CLI_SPAN:
                values["cli.main_s"] += end - start
        for op, counts in self.counts.items():
            passes[op // ops_per_pass].update(counts)
        out = []
        for key in sorted(passes):
            values = passes[key]
            proposals = values.pop("search.proposals", 0)
            accepted = values.pop("search.accepted_steps", 0)
            values["search.accept_ratio"] = accepted / proposals if proposals else 0.0
            out.append({name: float(values.get(name, 0.0)) for name in METRICS})
        return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
