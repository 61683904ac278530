"""Command-line surface: gen, ratio, sweep, brute, anneal, habitat, persist, audit, render.

Exit codes: 0 success, 2 bad configuration (argparse), 3 construction error,
4 audit violation, 5 render/output failure, 6 internal invariant violated (a
bug, reported instead of a traceback).  All machine output uses '.' as the
decimal separator and 12 significant digits; runs that take a --seed are
byte-reproducible.  MSTRATIO_THREADS > 1 parallelizes sweeps across parameter
values with deterministic output ordering, in at most one worker process per
value; a value that is not an integer exits 2.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import audits, habitat, persistence, render, search
from .constructions import (
    REGISTRY,
    Coloring,
    build_construction,
    mst_ratio,
    multiway_ratio,
    random_coloring,
)
from .errors import InvariantViolation, MstRatioError
from .lattice import Metric, cloud_from_doc, cloud_to_doc, integral

EXIT_CONFIG = 2
EXIT_CONSTRUCTION = 3
EXIT_AUDIT = 4
EXIT_IO = 5
EXIT_INVARIANT = 6


def _f12(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _f12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_f12(v) for v in x]
    return x


def _emit(text: str, out: str | None):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(obj: dict, out: str | None):
    _emit(json.dumps(_f12(obj), indent=2) + "\n", out)


def _instance(args):
    """Resolve (cloud, coloring, metric, closed_form, name) from the arguments."""
    if getattr(args, "construction", None):
        built = build_construction(
            args.construction,
            n=getattr(args, "n", None),
            r=getattr(args, "r", None),
            eps=getattr(args, "eps", None),
        )
        cloud, coloring = built.cloud, built.coloring
        metric = built.metric
        closed = built.closed_form
        name = built.name
    elif getattr(args, "infile", None):
        with open(args.infile) as fh:
            doc = json.load(fh)
        cloud, colors = cloud_from_doc(doc)
        coloring = None
        if colors is not None:
            colors = integral(colors, "color")
            if colors.ndim != 1:
                raise MstRatioError("colors must be a flat list of integers")
            if np.any(colors >= cloud.size):  # a class index of V or more names an empty class
                raise MstRatioError(f"colors must be below the point count {cloud.size}")
            coloring = Coloring(colors, max(2, int(colors.max(initial=0)) + 1))
        metric = Metric.euclidean(cloud.topology)
        closed = None
        name = args.infile
    else:
        raise MstRatioError("need --construction or --in")
    if getattr(args, "metric", None) == "hex":
        metric = Metric.hexagonal(cloud.topology)
    return cloud, coloring, metric, closed, name


# -- subcommands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    cloud, coloring, _, _, _ = _instance(args)
    colors = coloring.labels if coloring is not None else None
    _emit_json(cloud_to_doc(cloud, colors), args.out)
    return 0


def cmd_ratio(args) -> int:
    cloud, coloring, metric, closed, name = _instance(args)
    if coloring is None:
        raise MstRatioError("instance carries no coloring")
    if coloring.arity == 2:
        report = mst_ratio(cloud, coloring, metric)
    else:
        report = multiway_ratio(cloud, coloring, metric)
    doc = {"construction": name, **report.to_json()}
    if closed is not None:
        doc["closed_form"] = closed
        doc["closed_form_diff"] = abs(report.ratio - closed)
    _emit_json(doc, args.out)
    return 0


def _parse_values(text: str) -> list[float]:
    if ":" in text:
        parts = [float(x) for x in text.split(":")]
        start, stop = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1.0
        if step <= 0:
            raise MstRatioError(f"sweep step must be positive, got {step:g}")
        count = math.floor((stop - start) / step + 1e-9) + 1
        return [start + i * step for i in range(max(count, 0))]
    return [float(x) for x in text.split(",") if x]


def _sweep_row(task):
    family, param, value = task
    built = build_construction(family, **{param: value})
    report = multiway_ratio(built.cloud, built.coloring, built.metric)
    closed = built.closed_form
    return {
        "param": value,
        "ratio": report.ratio,
        "closed_form": closed if closed is not None else float("nan"),
        "abs_diff": abs(report.ratio - closed) if closed is not None else float("nan"),
    }


def cmd_sweep(args) -> int:
    values = _parse_values(args.values)
    if not values:
        raise MstRatioError("empty sweep range")
    entry = REGISTRY[args.family]
    (param,) = entry.params  # a sweep family takes one parameter
    tasks = [(args.family, param, entry.typed(param, v)) for v in values]
    threads = os.environ.get("MSTRATIO_THREADS", "1")
    try:
        workers = min(int(threads), len(tasks))
    except ValueError:
        print(f"error: MSTRATIO_THREADS must be an integer, not {threads!r}", file=sys.stderr)
        return EXIT_CONFIG
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    lines = ["param,ratio,closed_form,abs_diff"]
    for row in rows:
        lines.append(
            f"{row['param']:.12g},{row['ratio']:.12g},"
            f"{row['closed_form']:.12g},{row['abs_diff']:.12g}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_brute(args) -> int:
    cloud, _, metric, _, name = _instance(args)
    coloring, report = search.brute_force_max(cloud, metric, args.max_points)
    _emit_json(
        {"construction": name, "labels": list(coloring.labels), **report.to_json()},
        args.out,
    )
    return 0


def cmd_anneal(args) -> int:
    cloud, coloring, metric, _, name = _instance(args)
    if args.init == "random" or coloring is None or coloring.arity != 2:
        coloring = random_coloring(np.random.Generator(np.random.Philox(args.seed)), cloud.size)
    trace = search.local_search(
        cloud, metric, coloring, args.seed, args.budget, args.t0, args.alpha
    )
    if args.trace:
        _emit(trace.to_csv(), args.trace)
    if args.best_out:
        _emit_json(cloud_to_doc(cloud, trace.best_coloring.labels), args.best_out)
    _emit_json(
        {
            "construction": name,
            "seed": trace.seed,
            "accepted_steps": len(trace.steps),
            "best_ratio": trace.best_ratio,
            "local_max": trace.local_max_flag,
            "best_labels": list(trace.best_coloring.labels),
        },
        args.out,
    )
    return 0


def cmd_habitat(args) -> int:
    cloud, coloring, _, _, name = _instance(args)
    if coloring is None:
        raise MstRatioError("habitat needs a coloring (blue = class 0)")
    summary = habitat.habitat_summary(cloud, coloring.class_indices(0).tolist(), args.k_max)
    _emit_json({"construction": name, **summary.to_json()}, args.out)
    return 0


def cmd_persist(args) -> int:
    cloud, coloring, _, _, name = _instance(args)
    if coloring is None or coloring.arity != 2:
        raise MstRatioError("persistence needs a 2-class coloring")
    policy = args.policy if args.policy in ("max-death", "exclude") else float(args.policy)
    norms = persistence.chromatic_norms(cloud, coloring, policy)
    if args.diagram_out:
        metric = Metric.euclidean(cloud.topology)
        dgm_b = persistence.zero_dim_diagram(
            cloud, coloring.class_indices(0), metric, norms.cutoff or None
        )
        dgm_c = persistence.zero_dim_diagram(
            cloud, coloring.class_indices(1), metric, norms.cutoff or None
        )
        merged = persistence.PersistenceDiagram(
            dgm_b.points + dgm_c.points, max(dgm_b.cutoff, dgm_c.cutoff)
        )
        _emit(merged.to_csv(), args.diagram_out)
    out = {"construction": name, **norms.to_json()}
    out["ratio_from_norms"] = persistence.ratio_from_norms(norms)
    _emit_json(out, args.out)
    return 0


def cmd_audit(args) -> int:
    outcomes = audits.run_all(args.k_max, args.samples, args.torus, args.seed)
    ok = True
    lines = []
    for o in outcomes:
        ok = ok and o.ok
        lines.append(f"audit {o.name}: {'PASS' if o.ok else 'FAIL'} ({o.cases} cases; {o.detail})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else EXIT_AUDIT


def cmd_render(args) -> int:
    cloud, coloring, metric, _, _ = _instance(args)
    svg = render.render_svg(cloud, coloring, metric, args.thicken)
    try:
        _emit(svg, args.out)
    except OSError as exc:
        print(f"render failed: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


# -- parser ---------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_instance_args(p: argparse.ArgumentParser):
    p.add_argument("--construction", help="registry name, e.g. fig8 or stretched:r=200")
    p.add_argument("--in", dest="infile", help="canonical JSON point-set document")
    p.add_argument("--torus", "--n", dest="n", type=int,
                   help="torus period or size parameter of lattice families")
    p.add_argument("--r", type=float, help="window radius override")
    p.add_argument("--eps", type=float, help="perturbation override")
    p.add_argument("--metric", choices=["euclidean", "hex"], default="euclidean")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstratio",
        description="MST-ratio toolbox: constructions, searches, audits, persistence",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name, fn, extra in (
        ("gen", cmd_gen, None),
        ("ratio", cmd_ratio, None),
        ("brute", cmd_brute, "brute"),
        ("anneal", cmd_anneal, "anneal"),
        ("habitat", cmd_habitat, "habitat"),
        ("persist", cmd_persist, "persist"),
        ("render", cmd_render, "render"),
    ):
        p = sub.add_parser(name)
        _add_instance_args(p)
        p.set_defaults(fn=fn)
        if extra == "brute":
            p.add_argument("--max-points", type=int, default=22)
        elif extra == "anneal":
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--budget", type=_positive_int, default=10000)
            p.add_argument("--t0", type=float, default=0.05)
            p.add_argument("--alpha", type=float, default=0.999)
            p.add_argument("--init", choices=["given", "random"], default="random")
            p.add_argument("--trace", help="CSV trace output path")
            p.add_argument("--best-out", help="write the best coloring as a canonical document")
        elif extra == "habitat":
            p.add_argument("--k-max", type=_positive_int, default=1)
        elif extra == "persist":
            p.add_argument("--policy", default="max-death",
                           help="max-death, exclude, or an explicit cutoff")
            p.add_argument("--diagram-out", help="domain diagram CSV path")
        elif extra == "render":
            p.add_argument("--thicken", type=int, help="fill thickenings up to level k")

    p = sub.add_parser("sweep")
    p.add_argument("--family", required=True, choices=[
        name for name, entry in REGISTRY.items() if len(entry.params) == 1 and entry.closed_form
    ])
    p.add_argument("--values", required=True,
                   help="comma list '4,6,8' or range 'start:stop[:step]'")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("audit")
    p.add_argument("--k-max", type=_positive_int, default=1000)
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--torus", type=int, default=10)
    p.add_argument("--seed", type=int, default=audits.DEFAULT_SEED)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_audit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (MstRatioError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
