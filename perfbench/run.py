"""Run one benchmark workload of routeflow and print its metrics.

    python3 perfbench/run.py --workload hgs-n100 --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; the benchmark
never edits it. One closed-loop client runs the workload's fixed list of
ops, and repeats it in whole rounds, until ``--seconds`` have passed. With
``--trace 0`` the last stdout line is a JSON object carrying the end-to-end
metrics; with ``--trace 1`` every op is paired with a traced repeat, and the
JSON carries the per-layer metrics and the tracing overhead. Spans of a
traced run are written to ``.bench_out/`` as JSON lines. See README.md for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = ROOT / "BENCHMARK.json"  # the metric names and units
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
LAYERS = ("core", "neural", "autodiff", "training", "expert")
# Median seconds of host_kernel() on the 2-vCPU machine the bounds were set
# on; op times are scaled by this over the kernel's time around each op.
HOST_KERNEL_REF_S = 0.0192
_KERNEL_N = 64
_KERNEL_D = [[random.Random(2026 + i).random() for _ in range(_KERNEL_N)] for i in range(_KERNEL_N)]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train-n20", "hgs-n100", "refine-n200"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(workload: str, seed: int):
    """Import the package from this checkout's ``src/`` and build the
    workload, ``SETUP_REPEATS`` times from a fresh package import; returns
    the last workload and the median seconds, each repeat scaled to the
    reference host speed by the kernel times just before and after it.
    numpy is loaded once before timing: its import is a fixed cost of the
    dependency, not of routeflow."""
    src = ROOT / "src"
    if not (src / "routeflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no routeflow package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy  # noqa: F401

    OUT_DIR.mkdir(exist_ok=True)
    times = []
    kernels = [host_kernel()]
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] in ("routeflow", "workloads")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        import routeflow.bench  # noqa: F401  (with workloads: every module a traced call reaches)
        import workloads

        wl = workloads.WORKLOADS[workload](seed, str(OUT_DIR))
        wl.setup()
        times.append(time.perf_counter() - t0)
        kernels.append(host_kernel())
    scaled = [t * 2 * HOST_KERNEL_REF_S / (a + b) for t, a, b in zip(times, kernels, kernels[1:])]
    return wl, statistics.median(scaled)


def host_kernel() -> float:
    """Seconds for a fixed piece of interpreter work (list indexing, float
    arithmetic, slicing), with the collector off so the program's heap does
    not change it. The host's speed drifts by a third over minutes on a
    shared machine; this measures it between ops."""
    D = _KERNEL_D
    n = _KERNEL_N
    gc.disable()
    try:
        t0 = time.perf_counter()
        tour = list(range(n))
        best = 0.0
        for _ in range(100):
            for i in range(n - 1):
                a, b = tour[i], tour[i + 1]
                row_a, row_b = D[a], D[b]
                for j in range(i + 1, n - 1):
                    c, d = tour[j], tour[j + 1]
                    delta = row_a[c] + row_b[d] - row_a[b] - D[c][d]
                    if delta < best:
                        best = delta
                tour[i : i + 3] = tour[i : i + 3][::-1]
        return time.perf_counter() - t0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# tracing targets and per-layer metrics


def _rollout_hook(span, args, kwargs, result):
    instance = args[1] if len(args) > 1 else kwargs["instance"]
    span.attrs["actions"] = len(result.actions)
    span.attrs["to_judge"] = (instance, result.solution)  # checked after the op


def _decompose_hook(span, args, kwargs, result):
    _, subproblems = result
    span.attrs["clusters"] = len(subproblems)
    span.attrs["max_cluster"] = max((len(s.mapping) for s in subproblems), default=0)


def trace_targets():
    from routeflow import autodiff, core, expert, neural, training

    def fns(module, names, hooks=None):
        layer = module.__name__.rsplit(".", 1)[-1]
        return [(f"{layer}.{n}", module, n, (hooks or {}).get(n)) for n in names]

    return (
        fns(core, ("build_distance_matrix", "knn_sparsify"))
        + fns(
            neural,
            ("encode", "build_edge_index", "gat_embed", "rollout", "batch_rollouts", "batch_log_pf",
             "trajectory_from_solution", "disc_forward", "disc_traj_scores_t"),
            {"rollout": _rollout_hook},
        )
        + fns(autodiff, ("backward",))
        + fns(training, ("generator_update", "discriminator_update", "make_training_pair"))
        + [("training.adam_step", training, "Adam.step", None)]
        + fns(
            expert,
            ("hgs_solve", "split_giant_tour", "initial_solution", "decompose", "solve_subproblems",
             "expert_refine"),
            {"decompose": _decompose_hook},
        )
    )


def judge_rollouts(spans) -> None:
    from routeflow.core import check_feasible

    for s in spans:
        pending = s.attrs.pop("to_judge", None)
        if pending is not None:
            s.attrs["feasible"] = int(check_feasible(*pending).feasible)


def op_layer_metrics(spans, selfs, tensors: int, span_names) -> dict[str, float]:
    """Per-layer metrics of one op from its spans."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    m = {f"{name}.s": sum(s.duration for s in by[name]) for name in span_names}
    hgs = by["expert.hgs_solve"]
    m["expert.hgs_solve.self_s"] = sum(selfs[s.id] for s in hgs)
    m["expert.hgs_solve.wait_s"] = sum(s.duration - s.cpu for s in hgs)
    m["expert.split_giant_tour.calls"] = len(by["expert.split_giant_tour"])
    actions = sum(s.attrs["actions"] for s in by["neural.rollout"])
    m["neural.actions"] = actions
    m["neural.decode_step.us"] = 1e6 * m["neural.rollout.s"] / actions if actions else 0.0
    m["autodiff.tensors"] = tensors
    m["expert.decompose.clusters"] = sum(s.attrs["clusters"] for s in by["expert.decompose"])
    m["expert.decompose.max_cluster"] = max(
        (s.attrs["max_cluster"] for s in by["expert.decompose"]), default=0
    )
    pool_wall = sum(s.duration for s in by["expert.solve_subproblems"])
    pool_cpu = sum(s.attrs["proc_cpu"] for s in by["expert.solve_subproblems"])
    m["expert.solve_subproblems.cpu_per_wall"] = pool_cpu / pool_wall if pool_wall else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.name.split(".")[0] == layer)
    return m


def feasible_share(spans_by_op) -> float:
    """Lowest per-op share of rollouts that pass check_feasible (fleet limit
    included); 0 where no rollout ran."""
    shares = []
    for spans in spans_by_op.values():
        rolls = [s for s in spans if s.name == "neural.rollout"]
        if rolls:
            shares.append(sum(s.attrs["feasible"] for s in rolls) / len(rolls))
    return min(shares, default=0.0)


# ---------------------------------------------------------------------------
# the closed loop


class Run:
    """One closed-loop client timing a workload's ops, and, in a traced run,
    pairing each op with a traced repeat on a copy of its state."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # repeats whose output differs
        self.keys: list[str] = []  # fingerprint items
        self.durations: list[float] = []  # wall seconds of the ops that passed
        self.scaled: list[float] = []  # the same, scaled to the reference host speed
        self.kernels: list[float] = []  # host_kernel() seconds, before and after each op
        self.costs: list[float] = []  # first round's costs
        self.overheads: list[float] = []
        self.tensors: dict[str, int] = {}
        self.report: list[str] = []
        self.rss_mb = 0.0  # peak RSS when the first round is done

    def _attempt(self, label: str, fn):
        """(output, seconds, error text or None)."""
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - t0, f"{label}: raised {type(exc).__name__}: {exc}"
        return out, time.perf_counter() - t0, None

    def _traced(self, op_id: str, fn):
        from routeflow.autodiff import Tensor

        tracer = self.tracer
        tracer.op = op_id
        start_index = len(tracer.spans)
        tensors0 = tracer.tensors
        tracer.install(trace_targets())
        tracer.count_init(Tensor)
        try:
            result = self._attempt(f"{self.wl.name} {op_id} (traced)", fn)
        finally:
            tracer.uninstall()
            tracer.op = None
        judge_rollouts(tracer.spans[start_index:])
        self.tensors[op_id] = tracer.tensors - tensors0
        return result

    def one(self, op_id: str, run_op, check):
        """Time ``run_op(None)``, check and count it; returns (OpResult or
        None when it raised, seconds, passed). In a traced run the op is
        paired with a traced repeat on ``fork()`` state that must agree; the
        pair's order alternates so that neither side always runs warm."""
        label = f"{self.wl.name} {op_id}"
        if self.tracer is not None:
            state = self.wl.fork()
            traced_first = len(self.overheads) % 2 == 1
            if traced_first:
                traced = self._traced(op_id, lambda: run_op(state))
        out, dt, err = self._attempt(label, lambda: run_op(None))
        self.attempted += 1
        res = None if err else check(out)
        problems = [err] if err else res.problems
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)
        if self.tracer is not None:
            if not traced_first:
                traced = self._traced(op_id, lambda: run_op(state))
            out2, dt2, err2 = traced
            res2 = None if err2 else check(out2)
            if res is None or res2 is None or res2.keys != res.keys:
                self.wrong.append(f"{label}: traced repeat differs ({err2 or 'outputs differ'})")
            else:
                self.overheads.append(100.0 * (dt2 / dt - 1.0))
        return res, dt, not problems

    def loop(self, seconds: float) -> None:
        """Ops in list order, in whole rounds of the list, until ``seconds``
        have passed; so every op of the list has the same weight."""
        from workloads import BKS_COST

        wl = self.wl
        first: list[list[str]] = []
        i = 0
        t_begin = time.perf_counter()
        self.kernels.append(host_kernel())
        while i % wl.size or time.perf_counter() - t_begin < seconds:
            j = i % wl.size
            if i and j == 0:
                wl.new_round()
            res, dt, passed = self.one(
                f"op{i}", lambda state, j=j: wl.op(j, state), lambda out, j=j: wl.check(j, out)
            )
            self.kernels.append(host_kernel())
            if passed:
                self.durations.append(dt)
                self.scaled.append(dt * 2 * HOST_KERNEL_REF_S / (self.kernels[-2] + self.kernels[-1]))
            keys = res.keys if res is not None else [f"op{j}:raised"]
            if i < wl.size:
                first.append(keys)
                self.keys.extend(keys)
                if passed and j == wl.bks_index:
                    gap = 100.0 * (res.cost - BKS_COST) / BKS_COST
                    self.report.append(f"A-n32-k5: objective {float(res.cost)!r}, gap_pct.bks {gap:.4f}, {dt:.3f} s")
                elif passed:
                    self.costs.append(res.cost)
            elif keys != first[j]:
                self.wrong.append(f"{wl.name} op{i}: output differs from its first run as op{j}")
            i += 1
            if i == wl.size:
                self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def probe(self) -> None:
        """The workload's untimed probe."""
        wl = self.wl
        keys, lines = wl.probe()
        if self.tracer is not None and keys:
            self._traced("probe", wl.probe)
        self.keys.extend(keys)
        self.report.extend(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads: the only threads besides the
    # client are then the program's own pool in expert.solve_subproblems.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    wl, setup_s = set_up(args.workload, args.seed)
    from spans import Tracer, self_times

    run = Run(wl, Tracer() if args.trace else None)
    run.loop(args.seconds)
    run.probe()

    fingerprint = hashlib.sha256("\n".join(run.keys).encode()).hexdigest()[:16]
    ops = len(run.durations)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(
        f"ops {ops} passed of {run.attempted} attempted ({wl.size} ops in the list), failed {run.failed}, "
        f"fail_share {run.failed / run.attempted:.4f}"
    )
    print("op seconds " + " ".join(f"{d:.3f}" for d in run.durations))
    if run.durations:
        print(
            f"wall op_s.p50 {statistics.median(run.durations)!r}; host kernel median "
            f"{statistics.median(run.kernels) * 1e3:.2f} ms (reference {HOST_KERNEL_REF_S * 1e3:.2f} ms)"
        )
    if run.costs:
        print(f"cost.mean {statistics.fmean(run.costs)!r} over {len(run.costs)} ops of the first round")
    for line in run.report:
        print(line)
    print(f"fingerprint {fingerprint}")
    for w in run.wrong:
        print(f"WRONG {w}", file=sys.stderr)

    if args.trace:
        tracer = run.tracer
        selfs = self_times(tracer.spans)
        spans_by_op = defaultdict(list)
        for s in tracer.spans:
            spans_by_op[s.op].append(s)
        loop_ops = [op for op in spans_by_op if op.startswith("op")]
        span_names = [name for name, *_ in trace_targets()]
        per_op = {
            op: op_layer_metrics(spans_by_op[op], selfs, run.tensors[op], span_names) for op in loop_ops
        }
        names = sorted({k for m in per_op.values() for k in m})
        values = {k: statistics.median([m[k] for m in per_op.values()]) if per_op else 0.0 for k in names}
        bks = [m["expert.hgs_solve.s"] for op, m in per_op.items() if int(op[2:]) % wl.size == wl.bks_index]
        values["expert.hgs_solve.bks_s"] = statistics.median(bks) if bks else 0.0
        values["neural.rollout.feasible_share"] = feasible_share(spans_by_op)
        values["trace.overhead_pct"] = statistics.median(run.overheads) if run.overheads else 0.0
        path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.jsonl"
        tracer.write_jsonl(str(path))
        print(f"self seconds per op by layer (median of {len(per_op)} traced ops):")
        for layer in LAYERS:
            print(f"  {layer:<9} {values.get(f'{layer}.self_s', 0.0):.4f}")
        print(f"trace.overhead_pct {values['trace.overhead_pct']:.2f}; {len(tracer.spans)} spans in {path}")
    else:
        scaled = run.scaled
        values = {
            "setup_s": setup_s,
            "op_s.p50": statistics.median(scaled) if scaled else 0.0,
            "ops_per_s": len(scaled) / sum(scaled) if scaled else 0.0,
            "peak_rss_mb": run.rss_mb,
        }
    contract = json.loads(CONTRACT.read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in contract["per_layer" if args.trace else "end_to_end"]
    }
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and not run.wrong,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
