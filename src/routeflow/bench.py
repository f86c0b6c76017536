"""Benchmark harness: objective/gap/latency measurement over instance sets,
parameter sweeps, and text report tables.

Every entry point solves through :func:`solve`: ``run_bench`` (and so
``sweep``) times one call per (instance, method), and ``routeflow solve``
makes one call. Neural methods take their policy from
:func:`load_checkpoint`. Results are written in the one CSV format of
:mod:`routeflow.io` (``CSV_HEADER``; floats as ``repr(float(x))``; an empty
field for a missing gap): per-instance rows sorted by (instance, method),
then one ``(mean)`` row per method in spec order. ``sweep`` writes the same
rows behind ``param,value`` columns, and ``report_table`` reads results back
through ``io.read_results_csv``.
"""

from __future__ import annotations

import csv
import glob as globlib
import json
import math
import re
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Instance, Solution, build_distance_matrix, check_fields, exact_solve_small, is_int, is_number,
)
from .expert import HgsConfig, expert_refine, hgs_solve, initial_solution
from .io import (
    AGGREGATE,
    CSV_HEADER,
    RunRecord,
    derive_seed,
    format_record,
    generate_batch,
    load_instance,
    read_results_csv,
    write_results_csv,
)
from .neural import (
    GREEDY, SAMPLE, batch_rollouts, best_of, encode_graph, instance_graph, load_policy, rollout,
)


class SpecError(ValueError):
    """The benchmark specification is inconsistent or incomplete."""


class MissingArtifactError(FileNotFoundError):
    """A required file (checkpoint, instance) does not exist."""


DEFAULT_HGS = HgsConfig(max_iterations=200)


@dataclass(frozen=True)
class BenchSpec:
    methods: tuple[str, ...]
    synthetic: dict | None = None  # {"n":, "count":, optional "seed":}
    files: tuple[str, ...] = ()
    reference: str | None = None  # method name whose objective anchors gaps
    ref_table: dict | None = None  # instance name -> fixed reference objective
    checkpoint: str | None = None
    k_nn: int | None = None
    hgs: HgsConfig = DEFAULT_HGS
    seed: int = 0
    out_csv: str = "results.csv"

    def __post_init__(self):
        check_fields(self, _FIELD_TYPES, SpecError)
        for name in ("methods", "files"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.methods:
            raise SpecError("at least one method is required")
        if self.synthetic is None and not self.files:
            raise SpecError("an instance source (synthetic or files) is required")
        if self.synthetic is not None:
            _check_synthetic(self.synthetic)
        if self.reference is not None and self.reference not in self.methods:
            raise SpecError(f"reference method {self.reference!r} is not in methods")
        for m in self.methods:
            _parse_method(m)

    @classmethod
    def from_json(cls, path: str) -> "BenchSpec":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise MissingArtifactError(path) from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"malformed spec file {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise SpecError(f"spec must be an object, got {type(raw).__name__}")
        kwargs = dict(raw)
        unknown = set(kwargs) - set(cls.__dataclass_fields__)
        if unknown:
            raise SpecError(f"unknown spec fields {sorted(unknown)}")
        try:
            if "hgs" in kwargs:
                kwargs["hgs"] = HgsConfig(**kwargs["hgs"])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:  # a bad HgsConfig field included
            raise SpecError(str(exc)) from None


_STRINGS = (lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v),
            "a list of strings")
_STR_OR_NONE = (lambda v: v is None or isinstance(v, str), "None or a string")
# BenchSpec field -> (test, what it must be), checked before any other rule
_FIELD_TYPES = {
    "methods": _STRINGS, "files": _STRINGS, "reference": _STR_OR_NONE, "checkpoint": _STR_OR_NONE,
    "ref_table": (lambda v: v is None or isinstance(v, dict) and all(
        isinstance(k, str) and is_number(x) and 0 < x < math.inf for k, x in v.items()),
        "None or an object of finite positive numbers"),
    "k_nn": (lambda v: v is None or is_int(v) and v >= 1, "None or an integer >= 1"),
    "hgs": (lambda v: isinstance(v, HgsConfig), "an HgsConfig"), "seed": (is_int, "an integer"),
    "out_csv": (lambda v: isinstance(v, str), "a string"),
}


def _check_synthetic(src) -> None:
    """A synthetic source is {"n": int >= 1, "count": int >= 1} plus an
    optional integer "seed", and nothing else."""
    if not isinstance(src, dict):
        raise SpecError(f"synthetic must be an object, got {type(src).__name__}")
    unknown = set(src) - {"n", "count", "seed"}
    if unknown:
        raise SpecError(f"unknown synthetic fields {sorted(unknown)}")
    for key in ("n", "count"):
        if not (is_int(src.get(key)) and src[key] >= 1):
            raise SpecError(f"synthetic {key!r} must be an integer >= 1, got {src.get(key)!r}")
    if "seed" in src and not is_int(src["seed"]):
        raise SpecError(f"synthetic 'seed' must be an integer, got {src['seed']!r}")


_METHOD_RE = re.compile(r"(neural-greedy|hgs|exact)|(neural-best-of|expert-refine)-([1-9]\d*)")


def _parse_method(name: str) -> tuple[str, int | None]:
    """(kind, count): a count N >= 1 follows ``neural-best-of-`` and ``expert-refine-``."""
    m = _METHOD_RE.fullmatch(name)
    if not m:
        raise SpecError(f"unknown method {name!r}")
    return (name, None) if m[1] else (m[2], int(m[3]))


def gap_percent(obj: float, ref: float) -> float:
    """Signed percentage excess over a reference objective."""
    if ref <= 0:
        raise ValueError(f"reference objective must be positive, got {ref}")
    return 100.0 * (obj - ref) / ref


def _load_instances(spec: BenchSpec) -> list[Instance]:
    instances: list[Instance] = []
    if spec.synthetic is not None:
        src = spec.synthetic
        instances.extend(generate_batch(src["n"], src["count"], src.get("seed", spec.seed)))
    for pattern in spec.files:
        paths = sorted(globlib.glob(pattern))
        if not paths:
            raise MissingArtifactError(f"no instance files match {pattern!r}")
        for p in paths:
            instances.append(load_instance(p))
    return instances


def solve(
    method: str,
    instance: Instance,
    seed: int,
    policy=None,
    hgs: HgsConfig = DEFAULT_HGS,
    k_nn: int | None = None,
) -> Solution:
    """Solve one instance with one method at ``seed``, which replaces
    ``hgs.seed``. Builds the distance matrix and the sparse graph itself, so
    a caller timing it times those too. Neural methods need ``policy`` and
    encode ``neural.instance_graph(instance, k_nn)``; every method refuses a
    ``k_nn`` that ``BenchSpec`` would refuse."""
    kind, arg = _parse_method(method)
    ok, what = _FIELD_TYPES["k_nn"]
    if not ok(k_nn):
        raise ValueError(f"k_nn must be {what}, got {k_nn!r}")
    if kind == "exact":
        return exact_solve_small(instance)
    if kind == "hgs":
        return hgs_solve(instance, cfg=replace(hgs, seed=seed))
    if kind == "expert-refine":
        dm = build_distance_matrix(instance)
        start = initial_solution(instance, seed, dm)
        return expert_refine(instance, start, arg, replace(hgs, seed=seed), dm)
    if policy is None:
        raise MissingArtifactError("neural methods need a checkpoint")
    ctx = encode_graph(policy, instance_graph(instance, k_nn), training=False)
    if kind == "neural-greedy":
        return rollout(policy, instance, ctx, GREEDY, seed).solution
    return best_of(batch_rollouts(policy, instance, ctx, arg, SAMPLE, seed)).solution


def load_checkpoint(path: str | None):
    """The policy of the neural methods; MissingArtifactError when no path is
    given or the file does not exist."""
    if path is None:
        raise MissingArtifactError("neural methods need a checkpoint")
    try:
        return load_policy(path)
    except FileNotFoundError:
        raise MissingArtifactError(f"checkpoint not found: {path}") from None


def run_bench(spec: BenchSpec, write_csv: bool = True) -> list[RunRecord]:
    """Objective, wall time, and gap per (instance, method), plus per-method
    aggregate rows under the pseudo-instance name ``(mean)``."""
    instances = _load_instances(spec)
    policy = None
    if any(m.startswith("neural") for m in spec.methods):
        policy = load_checkpoint(spec.checkpoint)
    records = []
    for idx, instance in enumerate(instances):
        seed = derive_seed(spec.seed, idx)
        solved: dict[str, tuple[float, float]] = {}  # method -> (objective, seconds)
        for method in spec.methods:
            t0 = time.monotonic()
            solution = solve(method, instance, seed, policy, spec.hgs, spec.k_nn)
            solved[method] = (solution.total_cost, time.monotonic() - t0)
        ref = _reference_for(spec, instance.name, solved)
        for method in spec.methods:
            obj, elapsed = solved[method]
            records.append(
                RunRecord(
                    instance=instance.name,
                    method=method,
                    obj=obj,
                    gap_pct=None if ref is None else gap_percent(obj, ref),
                    time_s=elapsed,
                    seed=seed,
                )
            )
    records += _aggregate(records, spec.methods)
    if write_csv:
        write_results_csv(records, spec.out_csv)
    return records


def _reference_for(spec: BenchSpec, name: str, solved) -> float | None:
    if spec.ref_table is not None:
        value = spec.ref_table.get(name)
        return float(value) if value is not None else None
    if spec.reference is not None:
        return solved[spec.reference][0]
    return None


def _aggregate(records: list[RunRecord], methods) -> list[RunRecord]:
    out = []
    for method in methods:
        rows = [r for r in records if r.method == method]
        gaps = [r.gap_pct for r in rows if r.gap_pct is not None]
        out.append(
            RunRecord(
                instance=AGGREGATE,
                method=method,
                obj=float(np.mean([r.obj for r in rows])),
                gap_pct=float(np.mean(gaps)) if gaps else None,
                time_s=float(np.mean([r.time_s for r in rows])),
                seed=rows[0].seed if rows else 0,
            )
        )
    return out


SWEEPABLE = ("nhat", "k_nn", "m")
# the prefix of the methods that read each parameter; nhat and m set their count
_READ_BY = {"nhat": "neural-best-of", "m": "expert-refine", "k_nn": "neural"}


def sweep(spec: BenchSpec, parameter: str, values, out_csv: str | None = None) -> list[tuple]:
    """Repeat run_bench once per integer value of one parameter: ``nhat``
    and ``m`` set the count of every ``neural-best-of-N`` or
    ``expert-refine-N`` method, and of ``reference`` when it names one;
    ``k_nn`` sets the spec field. Every value's spec is built, and so
    checked, before any run; then a parameter that no method of the spec
    reads (``nhat`` without a ``neural-best-of-N``, ``m`` without an
    ``expert-refine-N``, ``k_nn`` without a neural method) is refused.
    Returns (value, record) pairs, written to ``out_csv`` as
    ``param,value`` followed by the results columns."""
    if parameter not in SWEEPABLE:
        raise SpecError(f"parameter must be one of {SWEEPABLE}, got {parameter!r}")
    prefix = _READ_BY[parameter]
    varied = []
    for value in values:
        if not is_int(value):
            raise SpecError(f"{parameter} values must be integers, got {value!r}")
        if parameter == "k_nn":
            changes = {"k_nn": value}
        else:
            rename = lambda m: f"{prefix}-{value}" if m.startswith(prefix) else m
            reference = None if spec.reference is None else rename(spec.reference)
            changes = {"methods": tuple(map(rename, spec.methods)), "reference": reference}
        varied.append((value, replace(spec, **changes)))
    if not any(m.startswith(prefix) for m in spec.methods):
        raise SpecError(f"no method of the spec reads {parameter}: it needs a {prefix} method")
    rows = [(value, r) for value, one in varied for r in run_bench(one, write_csv=False)]
    if out_csv:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["param", "value", *CSV_HEADER])
            writer.writerows([parameter, value, *format_record(r)] for value, r in rows)
    return rows


def report_table(csv_paths: list[str]) -> str:
    """Text grid of per-method aggregate Obj/Gap/Time, one column group per
    CSV (columns follow the given order, labelled by file name, so two CSVs
    of one name keep their own columns); missing cells render as a dash."""
    columns = [path.rsplit("/", 1)[-1].removesuffix(".csv") for path in csv_paths]
    cells: dict[tuple[str, int], tuple] = {}  # (method, column position) -> cell
    methods_order: list[str] = []
    for col, path in enumerate(csv_paths):
        for r in read_results_csv(path):
            if r.instance != AGGREGATE:
                continue
            if r.method not in methods_order:
                methods_order.append(r.method)
            cells[(r.method, col)] = (r.obj, r.gap_pct, r.time_s)
    header = ["method"] + [f"{c} Obj | Gap% | Time(s)" for c in columns]
    body = [[method, *(_cell(cells.get((method, col))) for col in range(len(columns)))]
            for method in methods_order]
    widths = [max(len(row[i]) for row in (header, *body)) for i in range(len(header))]
    fmt = lambda row: "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
    return "\n".join([fmt(header), "  ".join("-" * w for w in widths), *map(fmt, body)])


def _cell(entry: tuple | None) -> str:
    """One report cell: "obj | gap | time" of an aggregate row, or a dash."""
    if entry is None:
        return "-"
    obj, gap, t = entry
    return f"{obj:.6f} | {'-' if gap is None else f'{gap:.2f}'} | {t:.2f}"
