"""The benchmark's ops measure the real program: its composed solves give the
objectives ``bench.run_bench`` records, and its training ops reproduce the
history of ``training.train``, bit for bit."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from routeflow import bench, core, expert, io, neural, training

BENCH_DIR = Path(__file__).resolve().parents[1]


def test_benchmark_uses_bench_spec_defaults():
    spec = bench.BenchSpec(methods=("hgs",), synthetic={"n": 5, "count": 1})
    assert workloads.BENCH_HGS == spec.hgs
    assert spec.k_nn is None


def test_solves_match_run_bench(tmp_path):
    policy_path = str(tmp_path / "policy.json")
    neural.save_policy(neural.init_params(neural.Dims(), 4), policy_path)
    spec = bench.BenchSpec(
        methods=("hgs", "neural-best-of-6", "expert-refine-8"),
        synthetic={"n": 14, "count": 2, "seed": 9},
        files=(str(workloads.BKS_FILE),),
        checkpoint=policy_path,
        hgs=expert.HgsConfig(max_iterations=20),
        seed=9,
    )
    records = [r for r in bench.run_bench(spec, write_csv=False) if r.instance != "(mean)"]
    instances = io.generate_batch(14, 2, 9) + [io.load_instance(str(workloads.BKS_FILE))]
    policy = neural.load_policy(policy_path)
    mirrored = {}
    for idx, inst in enumerate(instances):
        seed = io.derive_seed(spec.seed, idx)
        mirrored[(inst.name, "hgs")] = workloads.solve_hgs(inst, seed, spec.hgs)
        mirrored[(inst.name, "neural-best-of-6")] = workloads.solve_best_of(policy, inst, seed, 6)[0]
        mirrored[(inst.name, "expert-refine-8")] = workloads.solve_expert_refine(inst, seed, 8, spec.hgs)[1]
    assert len(records) == len(mirrored) == 9
    for r in records:
        assert mirrored[(r.instance, r.method)].total_cost == r.obj, (r.instance, r.method)


def test_train_ops_reproduce_train_history(tmp_path):
    k = 2
    cfg = training.TrainConfig(instances_per_epoch=k, seed=11, out_dir=str(tmp_path / "train"))
    expected = training.train(cfg).history

    wl = workloads.TrainN20(11, str(tmp_path / "bench"))
    wl.setup()
    assert dataclasses.replace(wl.cfg, instances_per_epoch=k, out_dir=cfg.out_dir) == cfg
    got = [wl.op(i) for i in range(k)]
    assert got == expected


def test_solve_lists_end_with_the_a_n32_k5_op(tmp_path):
    wl = workloads.HgsN100(5, str(tmp_path))
    wl.setup()
    assert (wl.size, wl.bks_index) == (7, 6)
    assert wl.instances[-1].fleet_limit == 5
    assert wl.op_seed(6) == io.derive_seed(5, workloads.BKS_INDEX)
    assert wl.op_seed(5) == io.derive_seed(5, 5)


def test_checks_flag_fleet_excess_and_a_worse_refine():
    bks = io.load_instance(str(workloads.BKS_FILE))
    dm = core.build_distance_matrix(bks)
    one_per_customer = core.make_solution(bks, dm, [[c] for c in range(1, bks.n_customers + 1)])
    problems = workloads.check_solution(bks, one_per_customer, "x")
    assert len(problems) == 1 and "fleet" in problems[0]
    start = core.make_solution(bks, dm, [list(range(1, 9))] + [[c] for c in range(9, 32)])
    assert workloads.check_refine(start, one_per_customer, "x")
    assert not workloads.check_refine(one_per_customer, start, "x")


def test_radial_bound_is_below_a_solved_cost():
    inst = io.generate_uniform(30, 2)
    sol = workloads.solve_hgs(inst, 1, expert.HgsConfig(max_iterations=5))
    assert workloads.radial_lower_bound(inst) <= sol.total_cost
    assert not workloads.check_solution(inst, sol, "x")


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hgs-n100", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
