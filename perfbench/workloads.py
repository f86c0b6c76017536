"""The benchmark's workloads, composed from routeflow's public functions.

The solve functions mirror ``bench._solve`` for the methods ``hgs``,
``neural-best-of-N`` and ``expert-refine-N``; the training op mirrors the
loop body of ``training.train``. ``tests/test_mirror.py`` proves both against
the package. Calls go through module attributes (``expert.hgs_solve``) so a
tracer that patches those modules sees the benchmark's calls too.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from routeflow import core, expert, io, neural, training

BKS_FILE = Path(__file__).resolve().parent / "data" / "A-n32-k5.vrp"
BKS_COST = 784.0  # proven optimum of A-n32-k5
BKS_INDEX = 1_000_000  # seed index of the A-n32-k5 solve, clear of the uniform instances
BENCH_HGS = expert.HgsConfig(max_iterations=200)  # BenchSpec's default


def radial_lower_bound(instance: core.Instance) -> float:
    """2 * sum_i d(0, i) * q_i / Q: every route costs at least twice its
    farthest customer's depot distance, which bounds its demand-weighted mean
    depot distance. Valid for continuous distances."""
    pts = instance.all_points()
    depot_dist = np.sqrt(((pts[1:] - pts[0]) ** 2).sum(axis=1))
    return 2.0 * float(depot_dist @ np.asarray(instance.demands, dtype=np.float64)) / instance.capacity


def float_key(x: float) -> str:
    return float(x).hex()


# ---------------------------------------------------------------------------
# mirrored bench methods


def solve_hgs(instance, seed: int, hgs: expert.HgsConfig = BENCH_HGS) -> core.Solution:
    return expert.hgs_solve(instance, cfg=replace(hgs, seed=seed))


def solve_expert_refine(instance, seed: int, m: int, hgs: expert.HgsConfig = BENCH_HGS):
    """(start, refined): the sweep start is returned for the monotonicity check."""
    dm = core.build_distance_matrix(instance)
    start = expert.initial_solution(instance, seed, dm)
    return start, expert.expert_refine(instance, start, m, replace(hgs, seed=seed), dm)


def solve_best_of(policy, instance, seed: int, count: int):
    """(best solution, every sampled trajectory), with BenchSpec's default k_nn."""
    dm = core.build_distance_matrix(instance)
    graph = core.knn_sparsify(dm, neural.default_knn(instance.n_nodes))
    ctx = neural.encode(policy, instance, graph, dm, training=False)
    trajs = neural.batch_rollouts(policy, instance, ctx, count, neural.SAMPLE, seed)
    return neural.best_of(trajs).solution, trajs


# ---------------------------------------------------------------------------
# output checks


def check_solution(instance, solution: core.Solution, label: str) -> list[str]:
    """Feasibility (fleet limit included), a cost that matches the routes,
    and, for continuous instances, a cost no lower than the radial bound."""
    problems = []
    report = core.check_feasible(instance, solution)
    if not report.feasible:
        kinds = sorted({v.kind for v in report.violations})
        problems.append(f"{label}: infeasible ({', '.join(kinds)}; {solution.n_routes} routes)")
    recomputed = core.solution_cost(core.build_distance_matrix(instance), solution.routes)
    if not math.isclose(solution.total_cost, recomputed, rel_tol=core.COST_REL_TOL):
        problems.append(f"{label}: objective {solution.total_cost!r} != route cost {recomputed!r}")
    if instance.distance_mode == core.CONTINUOUS:
        bound = radial_lower_bound(instance)
        if solution.total_cost < bound * (1 - core.COST_REL_TOL):
            problems.append(f"{label}: objective {solution.total_cost!r} below lower bound {bound!r}")
    return problems


def check_refine(start: core.Solution, refined: core.Solution, label: str) -> list[str]:
    if refined.total_cost > start.total_cost * (1 + core.COST_REL_TOL):
        return [f"{label}: refined cost {refined.total_cost!r} exceeds its start {start.total_cost!r}"]
    return []


@dataclass
class OpResult:
    """What one op produced: its fingerprint items, its cost (the quality a
    user sees) and the problems its checks found."""

    keys: list[str]
    cost: float
    problems: list[str]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A fixed list of ``size`` ops built from the seed by ``setup``.

    A run times the list in order and repeats it in whole rounds until its
    time is up; every repeat of an op must reproduce the first output
    exactly. ``op(j, state)`` is one timed unit of user work and ``check``
    verifies what it returned, untimed. ``new_round`` restores the starting
    state before a repeat. ``fork`` returns a copy of the current state for
    a traced repeat of the next op. ``bks_index`` is the index of the
    A-n32-k5 op, or None.
    """

    name = ""
    size = 1
    bks_index: int | None = None

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        raise NotImplementedError

    def new_round(self) -> None:
        pass

    def fork(self):
        return None

    def op(self, j: int, state=None):
        raise NotImplementedError

    def check(self, j: int, out) -> OpResult:
        raise NotImplementedError

    def probe(self) -> tuple[list[str], list[str]]:
        """Untimed measurements that are data, not ops: (keys, report lines)."""
        return [], []


class TrainN20(Workload):
    """``train_step`` on successive fixed-seed n=20 instances from one fresh
    ``TrainState``, default ``TrainConfig``, checkpointing off. A repeat
    starts again from the fresh state, so a faster program repeats the same
    steps instead of reaching later, longer ones."""

    name = "train-n20"
    size = 12

    def setup(self) -> None:
        self.cfg = training.TrainConfig(
            seed=self.seed, checkpoint_every=0, out_dir=os.path.join(self.out_dir, "train")
        )
        self.initial = training.init_train_state(self.cfg)
        self.state = copy.deepcopy(self.initial)
        # training._instance_for, epoch 0
        self.instances = [
            io.generate_uniform(self.cfg.n, io.derive_seed(io.derive_seed(self.cfg.seed, 31), j))
            for j in range(self.size)
        ]

    def new_round(self) -> None:
        self.state = copy.deepcopy(self.initial)

    def fork(self):
        return copy.deepcopy(self.state)

    def op(self, j: int, state=None):
        state = self.state if state is None else state
        training.train_step(state, [self.instances[j]], self.cfg, 0, j)
        return state.history[-1]

    def check(self, j: int, out) -> OpResult:
        label = f"{self.name} op{j}"
        problems = [
            f"{label}: {key} is {value!r}"
            for key, value in out.items()
            if key != "step" and not math.isfinite(value)
        ]
        keys = [f"{k}={float_key(v)}" for k, v in sorted(out.items())]
        return OpResult(keys, out["mean_greedy_cost"], problems)


class _UniformSolves(Workload):
    """Ops on ``generate_batch(n, uniform, seed)``, then one on A-n32-k5.
    Op j uses seed ``derive_seed(seed, j)``, as ``run_bench`` does for
    instance j; the A-n32-k5 op uses ``derive_seed(seed, BKS_INDEX)``."""

    n = 0
    uniform = 0

    def setup(self) -> None:
        self.instances = io.generate_batch(self.n, self.uniform, self.seed)
        self.instances.append(io.load_instance(str(BKS_FILE)))
        self.size = len(self.instances)
        self.bks_index = self.uniform

    def op_seed(self, j: int) -> int:
        return io.derive_seed(self.seed, BKS_INDEX if j == self.bks_index else j)

    def check_cost(self, j: int, solution: core.Solution, label: str) -> list[str]:
        """check_solution, and on A-n32-k5 an objective no lower than the
        proven optimum."""
        problems = check_solution(self.instances[j], solution, label)
        if j == self.bks_index and solution.total_cost < BKS_COST:
            problems.append(f"{label}: objective {solution.total_cost!r} below the proven optimum {BKS_COST}")
        return problems


class HgsN100(_UniformSolves):
    """Bench method ``hgs`` on fixed-seed n=100 uniform instances, then on
    A-n32-k5."""

    name = "hgs-n100"
    n = 100
    uniform = 6

    def op(self, j: int, state=None):
        return solve_hgs(self.instances[j], self.op_seed(j))

    def check(self, j: int, out) -> OpResult:
        problems = self.check_cost(j, out, f"{self.name} op{j} hgs")
        return OpResult([float_key(out.total_cost)], out.total_cost, problems)


class RefineN200(_UniformSolves):
    """Per instance, bench methods ``neural-best-of-100`` then
    ``expert-refine-50`` on fixed-seed n=200 uniform instances, with a
    seed-initialised policy saved and loaded during set-up. The A-n32-k5 op
    is ``expert-refine-50`` alone; its neural solve is an untimed probe."""

    name = "refine-n200"
    n = 200
    uniform = 8
    rollouts = 100
    m = 50

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"policy-{os.getpid()}.json")
        neural.save_policy(neural.init_params(neural.Dims(), self.seed), path)
        try:
            self.policy = neural.load_policy(path)
        finally:
            os.remove(path)
        super().setup()

    def op(self, j: int, state=None):
        inst, seed = self.instances[j], self.op_seed(j)
        best = None if j == self.bks_index else solve_best_of(self.policy, inst, seed, self.rollouts)[0]
        start, refined = solve_expert_refine(inst, seed, self.m)
        return best, start, refined

    def check(self, j: int, out) -> OpResult:
        best, start, refined = out
        label = f"{self.name} op{j}"
        refine_label = f"{label} expert-refine-{self.m}"
        problems = self.check_cost(j, refined, refine_label) + check_refine(start, refined, refine_label)
        keys = [float_key(refined.total_cost)]
        if best is not None:
            problems += check_solution(self.instances[j], best, f"{label} neural-best-of-{self.rollouts}")
            keys.insert(0, float_key(best.total_cost))
        return OpResult(keys, refined.total_cost, problems)

    def probe(self) -> tuple[list[str], list[str]]:
        """The neural decoder ignores the fleet limit (ROADMAP item 4), so
        its A-n32-k5 output is measured here and reported as data."""
        bks = self.instances[self.bks_index]
        best, trajs = solve_best_of(self.policy, bks, self.op_seed(self.bks_index), self.rollouts)
        feasible = sum(core.check_feasible(bks, t.solution).feasible for t in trajs)
        verdict = "feasible" if core.check_feasible(bks, best).feasible else "infeasible"
        line = (
            f"fleet probe: A-n32-k5 neural-best-of-{self.rollouts} pick uses {best.n_routes} routes "
            f"(limit {bks.fleet_limit}), {verdict}; {feasible}/{len(trajs)} rollouts within the limit"
        )
        return [float_key(best.total_cost)], [line]


WORKLOADS = {w.name: w for w in (TrainN20, HgsN100, RefineN200)}
