"""Command-line entry points: gen, train, solve, bench, sweep, report.

Exit codes: 0 success, 2 specification/usage error, 3 missing artifact,
each with a one-line message from ``main``: an input path (instance, spec,
config, checkpoint, results CSV, ``--resume`` state) that is missing, a
directory, under a file or not permitted exits 3, and any ``ValueError``
(``bench.SpecError``, ``io.ParseError``, malformed JSON, an unknown field
in a ``train --config`` file) exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .bench import DEFAULT_HGS, SWEEPABLE, BenchSpec, load_checkpoint, report_table, run_bench, solve, sweep
from .core import check_feasible
from .expert import HgsConfig
from .io import generate_batch, generate_uniform, load_instance, write_vrplib
from .training import TrainConfig, config_from_dict, train

EXIT_SPEC = 2
EXIT_MISSING = 3


def _cmd_gen(args) -> int:
    if args.n < 1 or args.count < 1:  # checked before anything is written
        raise ValueError(f"--n and --count must be >= 1, got {args.n} and {args.count}")
    os.makedirs(args.out_dir, exist_ok=True)
    for instance in generate_batch(args.n, args.count, args.seed):
        with open(os.path.join(args.out_dir, f"{instance.name}.vrp"), "w") as fh:
            fh.write(write_vrplib(instance))
    print(f"wrote {args.count} instances to {args.out_dir}")
    return 0


def _cmd_train(args) -> int:
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        try:
            cfg = config_from_dict(raw)
        except (TypeError, AttributeError) as exc:  # an unknown field
            raise ValueError(f"bad train config {args.config}: {exc}") from None
    else:
        cfg = TrainConfig()
    overrides = {}
    for name in ("n", "epochs", "instances_per_epoch", "seed", "out_dir"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    state = train(cfg, resume_from=args.resume)
    print(f"trained {state.epoch} epochs; checkpoints in {cfg.out_dir}")
    return 0


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance) if args.instance else generate_uniform(args.n, args.seed)
    policy = load_checkpoint(args.checkpoint) if args.method.startswith("neural") else None
    hgs = HgsConfig(max_iterations=args.iterations, time_budget_s=args.time_budget)
    solution = solve(args.method, instance, args.seed, policy, hgs, args.k_nn)
    report = check_feasible(instance, solution)
    print(f"instance: {instance.name or '(unnamed)'}")
    print(f"objective: {solution.total_cost:.6f}")
    print(f"feasible: {report.feasible}")
    for i, route in enumerate(solution.routes):
        print(f"route {i}: {' '.join(str(c) for c in route.nodes)} (load {route.load})")
    return 0


def _cmd_bench(args) -> int:
    spec = BenchSpec.from_json(args.spec)
    if args.out:
        spec = replace(spec, out_csv=args.out)
    run_bench(spec)
    print(f"wrote {spec.out_csv}")
    return 0


def _cmd_sweep(args) -> int:
    spec = BenchSpec.from_json(args.spec)
    values = [int(v) for v in args.values.split(",")]
    sweep(spec, args.param, values, out_csv=args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    print(report_table(args.csvs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routeflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="instances")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("train", help="run adversarial training")
    p.add_argument("--config", help="JSON file with TrainConfig fields")
    p.add_argument("--n", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--instances-per-epoch", type=int, dest="instances_per_epoch")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--resume", help="training checkpoint to continue from")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("solve", help="solve one instance with one method")
    p.add_argument("--instance", help="path to a .vrp/.tsp file")
    p.add_argument("--n", type=int, default=20, help="synthetic size when no file given")
    p.add_argument("--method", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-nn", type=int, dest="k_nn")
    p.add_argument("--iterations", type=int, default=DEFAULT_HGS.max_iterations)
    p.add_argument("--time-budget", type=float, dest="time_budget")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("bench", help="run a benchmark specification")
    p.add_argument("--spec", required=True, help="JSON file with BenchSpec fields")
    p.add_argument("--out", help="override the output CSV path")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("sweep", help="sweep one parameter over a benchmark")
    p.add_argument("--spec", required=True)
    p.add_argument("--param", required=True, choices=SWEEPABLE)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("report", help="merge result CSVs into a text table")
    p.add_argument("csvs", nargs="+")
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ValueError as exc:  # bench.SpecError and io.ParseError included
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
