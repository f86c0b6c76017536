"""The benchmark harness in ``perfbench/`` patches package functions by name
and reads attributes that its hooks set. These tests load its tracer by path,
run it over tiny solves and a tiny training step, and check that the names
still resolve, that every hook still works, and that uninstalling restores
the package."""

import importlib.util
import sys
from pathlib import Path

import pytest

from routeflow import bench, training
from routeflow.expert import HgsConfig
from routeflow.io import generate_uniform
from routeflow.neural import Dims, init_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TINY = Dims(n_layers=1, n_heads=2, d_units=8, mlp_hidden=8)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    return _load("run"), _load("spans")


def _resolve(module, path: str):
    owner = module
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_trace_target_resolves(harness):
    run, _ = harness
    targets = run.trace_targets()
    assert targets
    for name, module, path, _hook in targets:
        assert callable(_resolve(module, path)), name


def test_tracer_hooks_see_the_package_and_uninstall_restores_it(harness, tmp_path, cpus):
    run, spans = harness
    targets = run.trace_targets()
    originals = [_resolve(module, path) for _, module, path, _ in targets]
    inst = generate_uniform(9, 2)
    policy = init_params(TINY, 3)
    cfg = training.TrainConfig(
        n=6, n_rollouts=3, dims=TINY, seed=1, out_dir=str(tmp_path),
        expert_hgs=HgsConfig(population_size=4, max_iterations=4),
    )
    state = training.init_train_state(cfg)
    tracer = spans.Tracer()
    tracer.install(targets)
    try:
        bench.solve("neural-greedy", inst, 5, policy, k_nn=3)
        bench.solve("expert-refine-4", inst, 5, hgs=HgsConfig(population_size=4, max_iterations=6))
        cpus(1)  # the inline path: the tracer sees this process only, not a step's worker
        training.train_step(state, [generate_uniform(cfg.n, 4)], cfg)
    finally:
        tracer.uninstall()
    assert [_resolve(module, path) for _, module, path, _ in targets] == originals

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    rolls = by_name["neural.rollout"]
    assert rolls and all(s.attrs["actions"] > 0 and "to_judge" in s.attrs for s in rolls)
    run.judge_rollouts(rolls)
    assert all(s.attrs["feasible"] in (0, 1) for s in rolls)
    decomposed = by_name["expert.decompose"]
    assert decomposed and all(
        s.attrs["clusters"] >= 1 and s.attrs["max_cluster"] >= 1 for s in decomposed
    )
    for name in ("training.generator_update", "training.discriminator_update",
                 "training.make_training_pair", "training.adam_step", "autodiff.backward"):
        assert name in by_name, name
