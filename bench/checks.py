"""Output checks for the benchmark's ops.

A check parses one op's stdout, raises ``CheckError`` when the output is
wrong, and returns the number of work items the output accounts for: the unit
in which the workload's throughput is counted.  Checks run outside the timed
region; the expensive references are computed on first use and kept.
"""
from __future__ import annotations

import json
import re

from mstratio import Coloring, filtered_forest, hex_mst, mst_ratio

TOL = 1e-9

#: The exhaustive maximum on the quarter packing of the 4-torus (17/15), and
#: its lexicographically smallest argmax, as `brute` reports it.
BRUTE_RATIO = 17.0 / 15.0
BRUTE_LABELS = [0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1]

AUDIT_COUNT = 7
_AUDIT_LINE = re.compile(r"audit (\S+): (PASS|FAIL) \((\d+) cases; .*\)")


class CheckError(Exception):
    """An op's output failed its check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _doc(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None
    _require(isinstance(doc, dict), "stdout is not a JSON object")
    return doc


def verify(check, text: str) -> int:
    """Run ``check`` on ``text``; a missing or mistyped field is a failed check."""
    try:
        return check(text)
    except (KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None


def ratio_check(closed_form: float):
    """`ratio` on a construction with an exact closed form.

    Items: points passed into MSTs, i.e. the B, C and A trees (twice the cloud).
    """

    def check(text: str) -> int:
        doc = _doc(text)
        diff = abs(doc["ratio"] - closed_form)
        _require(diff <= TOL, f"ratio {doc['ratio']!r} is {diff:.3g} from {closed_form!r}")
        _require(
            doc["closed_form_diff"] <= TOL,
            f"reported closed_form_diff {doc['closed_form_diff']!r}",
        )
        return 2 * sum(doc["class_counts"])

    return check


def brute_check(text: str) -> int:
    """`brute` on the quarter packing of the 4-torus.  Items: partitions."""
    doc = _doc(text)
    _require(abs(doc["ratio"] - BRUTE_RATIO) <= TOL, f"brute ratio {doc['ratio']!r} != 17/15")
    _require(doc["labels"] == BRUTE_LABELS, f"brute labels {doc['labels']} != {BRUTE_LABELS}")
    return 2 ** (len(doc["labels"]) - 1) - 1


def anneal_check(cloud, metric, seed: int, budget: int):
    """`anneal`: the best ratio and the local-max flag, recomputed by `mst_ratio`.

    The flag must tell the truth: false when some single flip gains more than
    TOL, true when none gains 1e-13 (the search decides with a 1e-12 margin).
    Items: proposals, i.e. the budget.
    """

    def check(text: str) -> int:
        doc = _doc(text)
        _require(doc["seed"] == seed, f"anneal seed {doc['seed']!r} != {seed}")
        labels = doc["best_labels"]
        _require(len(labels) == cloud.size, f"{len(labels)} labels for {cloud.size} points")
        coloring = Coloring(tuple(labels), 2)
        best = mst_ratio(cloud, coloring, metric).ratio
        _require(
            abs(doc["best_ratio"] - best) <= TOL,
            f"best_ratio {doc['best_ratio']!r} != mst_ratio {best!r}",
        )
        gain = max(
            mst_ratio(cloud, coloring.flipped(p), metric).ratio for p in range(cloud.size)
        ) - best
        if gain > TOL:
            _require(doc["local_max"] is False, f"local_max claimed, a flip gains {gain:.3g}")
        elif gain < 1e-13:
            _require(doc["local_max"] is True, "local_max denied, no flip gains")
        return budget

    return check


def habitat_check(cloud, blue):
    """`habitat --k-max 1`: the count chain, the backyard bound, and rooms(1)
    and blocks(1) against the components of the blue hex MST cut at hexagonal
    lengths 1 and 2.  Items: blue points.
    """
    reference: dict[str, int] = {}

    def check(text: str) -> int:
        if not reference:
            tree = hex_mst(cloud.subset(blue))
            reference["rooms"] = filtered_forest(tree, 1).component_count
            reference["blocks"] = filtered_forest(tree, 2).component_count
        lv = _doc(text)["levels"]["1"]
        rooms, houses, blocks, compounds = (
            lv["rooms"], lv["houses"], lv["blocks"], lv["compounds"]
        )
        _require(
            rooms >= houses >= blocks >= compounds >= 1,
            f"chain broken: rooms {rooms}, houses {houses}, blocks {blocks}, "
            f"compounds {compounds}",
        )
        _require(
            lv["beta"] <= 2 * houses - 2 * blocks + 2,
            f"beta {lv['beta']} > 2h - 2b + 2 = {2 * houses - 2 * blocks + 2}",
        )
        for key in ("rooms", "blocks"):
            _require(
                lv[key] == reference[key],
                f"{key} {lv[key]} != {reference[key]} hex-MST components",
            )
        return len(blue)

    return check


def audit_check(text: str) -> int:
    """`audit`: all seven lines read PASS.  Items: the reported case counts."""
    lines = text.splitlines()
    _require(len(lines) == AUDIT_COUNT, f"{len(lines)} audit lines, expected {AUDIT_COUNT}")
    cases = 0
    for line in lines:
        match = _AUDIT_LINE.fullmatch(line)
        _require(match is not None and match[2] == "PASS", f"audit line not PASS: {line}")
        cases += int(match[3])
    return cases
