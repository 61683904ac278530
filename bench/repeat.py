"""Run the benchmark over several seeds; report each metric's median and spread.

Run from the repository root:

    python3 bench/repeat.py --workloads audit-small --seeds 10 --out result.json

Each run is ``bench/run.py`` in its own process with ``run_seconds`` from
``BENCHMARK.json``.  The spread of a metric is the distance between its first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of its
median; the benchmark wants it below a third of the metric's bound.
``--traced N`` adds N traced runs per workload and reports the medians of the
per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0, "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=names)
    p.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    p.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    p.add_argument("--out", help="write the summary as JSON")
    args = p.parse_args(argv)
    if args.seeds < 2:
        p.error("--seeds must be at least 2 for quartiles")

    seconds = spec["run_seconds"]
    seeds = range(1, args.seeds + 1)
    report: dict = {"run_seconds": seconds, "seeds": list(seeds), "workloads": {}}
    for workload in args.workloads:
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        detail = runs[0][0]
        digests = {d["seed"]: [op["stdout_sha256"] for op in d["ops"]] for d, _ in runs}
        unseeded = [i for i, op in enumerate(detail["ops"]) if not op["seed_applies"]]
        entry: dict = {
            "environment": {k: v for k, v in detail["environment"].items() if k != "seed"},
            "item": detail["item"],
            "ops": [{"argv": op["argv"], "seed_applies": op["seed_applies"]} for op in detail["ops"]],
            "failed": sum(result["failed"] for _, result in runs),
            "attempted": sum(result["attempted"] for _, result in runs),
            # ops the seed does not apply to must print the same bytes for every seed
            "unseeded_stdout_identical": all(
                digests[seed][i] == digests[seeds[0]][i] for seed in seeds for i in unseeded
            ),
            "stdout_sha256": digests,
            "pass_s": {d["seed"]: d["pass_s"] for d, _ in runs},
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            summary = _summary([result["metrics"][name]["value"] for _, result in runs])
            summary["bound"] = bound
            entry["end_to_end"][name] = summary
            print(
                f"{workload:16} {name:12} median {summary['median']:.6g} "
                f"spread {summary['spread']:.4f} (bound/3 {bound / 3:.4f})",
                flush=True,
            )
        if args.traced:
            traced = [_run(workload, seed, seconds, 1) for seed in seeds[: args.traced]]
            # a second process with the same seed must print the same bytes
            entry["same_seed_stdout_identical"] = all(
                [op["stdout_sha256"] for op in d["ops"]] == digests[d["seed"]] for d, _ in traced
            )
            entry["per_layer"] = {
                name: statistics.median(result["metrics"][name]["value"] for _, result in traced)
                for name in traced[0][1]["metrics"]
            }
            entry["cli_self_share"] = [d["cli_self_share"] for d, _ in traced]
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
