"""mstratio benchmark: one workload, measured end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload ratio-large --seed 1 --seconds 25 --trace 0

A closed loop with a single client runs the workload's op list as one pass,
one op at a time, each op an in-process ``mstratio.cli.main(argv)`` call with
captured stdout; passes repeat until ``--seconds`` have elapsed.  Every op's
output is checked after the timed region, and an op that exits nonzero or
fails its check is a failed op.

With ``--trace 0`` the result reports the end-to-end metrics: the median pass
time, items per second at the stated input size, peak RSS of this process
(which runs only this workload) and the median of several set-up times, each
measured in a fresh process that imports ``mstratio`` and generates the
workload's inputs.  With ``--trace 1`` untraced passes alternate with passes
under the span tracer of ``spans.py``, so that a drift in the host's speed
falls on both alike; the result reports the per-layer metrics, and traced
stdout must be byte-identical to untraced stdout.

The line before the result is a detail record: the environment, every pass
and op time, and a digest of each op's stdout.  Spans of a traced run are
written to ``bench/.work/``.
"""
import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# BLAS reads these when numpy is first imported, so they are fixed before that.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("MSTRATIO_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH.relative_to(ROOT) / ".work"  # relative: the run works from ROOT
SETUP_PROBES = 5
EXIT_NO_SOURCE = 2


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def _setup(workload: str, seed: int):
    """Import mstratio from this checkout and generate the workload's inputs."""
    import mstratio.cli

    import workloads

    if not Path(mstratio.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: mstratio imported from {mstratio.cli.__file__}")
    return mstratio.cli, workloads.build(workload, seed, WORK)


def _setup_seconds(workload: str, seed: int) -> list[float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _call(main, argv):
    """One op: (exit code, stdout, stderr).  A crash is an op failure, not ours."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # recorded with its traceback; the op counts as failed
            traceback.print_exc()
            rc = None
    return rc, out.getvalue(), err.getvalue()


def _passes(ops, seconds: float, *runs):
    """Whole passes until `seconds` elapse, taking turns through `runs`.

    Returns, for each run, (pass times, per-op times, outputs).
    """
    per_run = [([], [[] for _ in ops], []) for _ in runs]
    start = time.perf_counter()
    while not per_run[-1][2] or time.perf_counter() - start < seconds:
        for run, (pass_times, op_times, outputs) in zip(runs, per_run):
            gc.collect()
            results = []
            t_pass = time.perf_counter()
            for op, times in zip(ops, op_times):
                t_op = time.perf_counter()
                results.append(run(op.argv))
                times.append(time.perf_counter() - t_op)
            pass_times.append(time.perf_counter() - t_pass)
            outputs.append(results)
    return per_run


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _judge(checks, op, rc, out, err):
    if rc != 0:
        return 0, f"exit {rc}: {err.strip()[-300:]}"
    try:
        return checks.verify(op.check, out), None
    except checks.CheckError as exc:
        return 0, str(exc)


def _verify(checks, ops, outputs):
    """Check every op of every pass against its check and the first pass's stdout.

    Returns (failed ops, ops whose stdout differs from the first pass, items of
    the first pass, first-pass digests, problems).
    """
    first = [_digest(out) for _, out, _ in outputs[0]]
    verdicts: dict = {}
    failed, differing, items, problems = 0, 0, 0, []
    for k, results in enumerate(outputs):
        for i, (op, (rc, out, err)) in enumerate(zip(ops, results)):
            digest = _digest(out)
            key = (i, rc, digest)
            if key not in verdicts:
                verdicts[key] = _judge(checks, op, rc, out, err)
            count, problem = verdicts[key]
            if problem is None and digest != first[i]:
                differing += 1
                problem = "stdout differs from the first pass"
            if problem is not None:
                failed += 1
                problems.append(f"pass {k} op {i}: {problem}")
            elif k == 0:
                items += count
    return failed, differing, items, first, problems


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS + ("MSTRATIO_THREADS",)},
    }


def _op_records(ops, op_times, digests) -> list[dict]:
    return [
        {
            "argv": list(op.argv),
            "seed_applies": op.seeded,
            "stdout_sha256": digest,
            "seconds_p50": statistics.median(times),
        }
        for op, times, digest in zip(ops, op_times, digests)
    ]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0:
        _parser().error("--seed must be non-negative")
    if not (SRC / "mstratio" / "__init__.py").is_file():
        print(f"error: no mstratio source under {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCE
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)

    if args.setup_probe:
        start = time.perf_counter()
        _setup(args.workload, args.seed)
        print(repr(time.perf_counter() - start))
        return 0

    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _parser().error(f"unknown workload; choose from {', '.join(workloads.WORKLOADS)}")
    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
    cli, wl = _setup(args.workload, args.seed)

    run_plain = lambda argv: _call(cli.main, argv)  # noqa: E731
    for argv in wl.warmup:
        rc, _, err = run_plain(argv)
        if rc != 0:
            print(f"error: warm-up {' '.join(argv)} exited {rc}: {err}", file=sys.stderr)
            return 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(args.seed),
        "item": wl.item,
    }
    if not args.trace:
        [(times, op_times, outputs)] = _passes(wl.ops, args.seconds, run_plain)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        failed, _, items, digests, problems = _verify(checks, wl.ops, outputs)
        p50 = statistics.median(times)
        metrics = {
            "pass_s_p50": _metric(p50, "s"),
            "items_per_s": _metric(items / p50, "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "setup_s": _metric(statistics.median(setup), "s"),
        }
        detail.update(setup_s_samples=setup, pass_s=times, items_per_pass=items)
    else:
        tracer = spans.Tracer()

        def run_traced(argv):
            tracer.install()
            try:
                return _call(lambda a: tracer.call(cli.main, a), argv)
            finally:
                tracer.uninstall()

        (times, op_times, plain), (traced_times, _, traced) = _passes(
            wl.ops, args.seconds, run_plain, run_traced
        )
        outputs = plain + traced
        # the first pass is untraced, so every traced op is compared with it
        failed, differing, items, digests, problems = _verify(checks, wl.ops, outputs)
        layer = spans.median_metrics(tracer.pass_metrics(len(wl.ops)))
        layer["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(times)
        metrics = {name: _metric(layer[name], unit) for name, unit in spans.METRICS.items()}
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for record in tracer.spans:
                fh.write(json.dumps(record) + "\n")
        detail.update(
            pass_s=times, traced_pass_s=traced_times, items_per_pass=items,
            traced_stdout_identical=differing == 0, spans_file=str(spans_path),
            cli_self_share=layer["cli.self_s"] / layer["cli.main_s"],
        )

    attempted = len(outputs) * len(wl.ops)
    detail.update(
        ops=_op_records(wl.ops, op_times, digests),
        failed_ops_ratio=failed / attempted,
        problems=problems[:20],
    )
    correct = failed == 0
    print(json.dumps({"detail": detail}))
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
