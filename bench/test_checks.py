"""Tests of the benchmark's own code: output checks, tracer and source gate.

Run from the repository root:

    python3 -m pytest bench/test_checks.py

Each output check is fed a valid op output, which it must accept, and a
corrupted one, which it must reject.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mstratio import audits, build_construction, cli, constructions  # noqa: E402
from mstratio.constructions import packing_torus_ratio  # noqa: E402
from mstratio.lattice import cloud_from_doc  # noqa: E402

BRUTE_OUTPUT = json.dumps({
    "construction": "packing:quarter",
    "labels": checks.BRUTE_LABELS,
    "class_lengths": [11.0, 6.0],
    "class_counts": [12, 4],
    "len_total": 15.0,
    "ratio": 1.13333333333,
})


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _edit(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def _rejects(check, text: str) -> None:
    with pytest.raises(checks.CheckError):
        checks.verify(check, text)


def test_ratio_check_rejects_ratio_off_by_1e6():
    out = _stdout(["ratio", "--construction", "packing:quarter", "--torus", "8"])
    check = checks.ratio_check(packing_torus_ratio("quarter", 8))
    assert checks.verify(check, out) == 2 * 64
    _rejects(check, _edit(out, lambda d: d.update(ratio=d["ratio"] + 1e-6)))
    _rejects(check, _edit(out, lambda d: d.update(closed_form_diff=1e-6)))


def test_brute_check_rejects_permuted_labels():
    assert checks.verify(checks.brute_check, BRUTE_OUTPUT) == 2**15 - 1
    labels = list(checks.BRUTE_LABELS)
    random.Random(0).shuffle(labels)
    assert labels != checks.BRUTE_LABELS
    _rejects(checks.brute_check, _edit(BRUTE_OUTPUT, lambda d: d.update(labels=labels)))
    _rejects(checks.brute_check, _edit(BRUTE_OUTPUT, lambda d: d.update(ratio=1.2)))


@pytest.mark.parametrize("seed", [1, 3])  # seed 1 ends on a local max, seed 3 does not
def test_anneal_check_rejects_wrong_ratio_and_false_flag(seed):
    small = build_construction("packing:quarter", n=4)
    argv = [
        "anneal", "--construction", "packing:quarter", "--torus", "4",
        "--budget", "200", "--seed", str(seed),
    ]
    out = _stdout(argv)
    assert json.loads(out)["local_max"] is (seed == 1)
    check = checks.anneal_check(small.cloud, small.metric, seed, 200)
    assert checks.verify(check, out) == 200
    _rejects(check, _edit(out, lambda d: d.update(best_ratio=d["best_ratio"] + 1e-6)))
    _rejects(check, _edit(out, lambda d: d.update(local_max=not d["local_max"])))
    _rejects(check, _edit(out, lambda d: d.update(seed=seed + 1)))


def test_audit_check_rejects_fail_line():
    out = _stdout(["audit", "--samples", "2", "--k-max", "10", "--torus", "9"])
    assert checks.verify(checks.audit_check, out) > 0
    _rejects(checks.audit_check, out.replace("PASS", "FAIL", 1))
    _rejects(checks.audit_check, "".join(out.splitlines(keepends=True)[:-1]))


@pytest.mark.parametrize("source", ["packing", "random"])
def test_habitat_check_rejects_broken_counts(source, tmp_path):
    if source == "packing":
        built = build_construction("packing:quarter", n=8)
        cloud, blue = built.cloud, built.coloring.class_indices(0)
        argv = ["habitat", "--construction", "packing:quarter", "--torus", "8"]
    else:
        doc = workloads.random_blue_doc(3, 9, 20)
        path = tmp_path / "blue.json"
        path.write_text(json.dumps(doc))
        cloud, colors = cloud_from_doc(doc)
        blue = [i for i, c in enumerate(colors) if c == 0]
        argv = ["habitat", "--in", str(path)]
    out = _stdout(argv)
    check = checks.habitat_check(cloud, blue)
    assert checks.verify(check, out) == len(blue)

    def level(change):
        return _edit(out, lambda d: change(d["levels"]["1"]))

    _rejects(check, level(lambda lv: lv.update(houses=lv["rooms"] + 1)))
    _rejects(check, level(lambda lv: lv.update(compounds=lv["blocks"] + 1)))
    _rejects(check, level(lambda lv: lv.update(beta=2 * lv["houses"] - 2 * lv["blocks"] + 3)))
    _rejects(check, level(lambda lv: lv.update(rooms=lv["rooms"] + 1, houses=lv["rooms"] + 1)))


def test_tracer_patches_every_binding_site_and_restores_them():
    originals = {
        (cli, "mst_ratio"): cli.mst_ratio,
        (audits, "mst_ratio"): audits.mst_ratio,
        (constructions, "generate_square"): constructions.generate_square,
        (audits, "generate_rhombus"): audits.generate_rhombus,
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module, name), fn in originals.items():
            assert getattr(module, name) is not fn, (module.__name__, name)
        buf = io.StringIO()
        argv = ["ratio", "--construction", "packing:quarter", "--torus", "24"]
        with contextlib.redirect_stdout(buf):
            assert tracer.call(cli.main, argv) == 0
    finally:
        tracer.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn
    assert buf.getvalue() == _stdout(argv)
    names = {record[0] for record in tracer.spans}
    assert {"cli.main", "constructions.build", "constructions.mst_ratio",
            "spanning.mst", "lattice.generate", "lattice.subset"} <= names
    (metrics,) = tracer.pass_metrics(1)
    assert metrics["spanning.mst_calls"] == 3
    assert metrics["spanning.mst_points"] == 2 * 24 * 24
    assert metrics["spanning.mst_calls_cutoff"] == 2  # A (576) and C (432), not B (144)
    assert 0 < metrics["cli.self_s"] < metrics["cli.main_s"]


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(spans.METRICS)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ratio-large",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_traced_run_alternates_with_untraced_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ratio-large",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    detail = json.loads(proc.stdout.splitlines()[-2])["detail"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert len(detail["pass_s"]) == len(detail["traced_pass_s"]) == 1
    assert detail["traced_stdout_identical"]
    assert result["correct"] and result["attempted"] == 4
    assert list(result["metrics"]) == list(spans.METRICS)


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "ratio-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
