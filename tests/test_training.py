"""The training loop's promises at tiny sizes: resuming from a checkpoint is
bit-identical to an uninterrupted run and refuses another run's config, a
state's one forked worker gives the inline step's bits over many steps,
is sent the discriminator only when it does not hold it already, raises
its errors here where the inline step raises them, is replaced after
a step that fails or finds it dead, and lives no longer than its state or a
``train`` call, a divergence writes its snapshot before raising, one update
runs each network's encoder once, one step builds each instance's graph
once, and the discriminator loss has the gradients of its central
differences."""

import copy
import gc
import json
import math
import multiprocessing
import os
import signal
import time
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from routeflow import autodiff as F
from routeflow import neural, training
from routeflow.core import Instance, InstanceError
from routeflow.expert import HgsConfig
from routeflow.io import generate_uniform
from routeflow.neural import CheckpointError, Dims

TINY = Dims(n_layers=2, n_heads=2, d_units=8, mlp_hidden=8)


def tiny_config(out_dir, **fields):
    base = dict(
        n=6, instances_per_epoch=2, n_rollouts=4, epochs=2, dims=TINY, seed=3,
        expert_hgs=HgsConfig(population_size=4, max_iterations=5), out_dir=str(out_dir),
    )
    return training.TrainConfig(**{**base, **fields})


@pytest.mark.parametrize("fields", [
    {"n": "20"}, {"n": 0}, {"instances_per_epoch": 1.0}, {"n_rollouts": 0}, {"epsilon": "0.1"},
    {"update_ratio": True}, {"lr_gen": -1e-3}, {"lr_disc": None}, {"lr_logz": False},
    {"epochs": 2.0}, {"m": 0}, {"k_nn": 0}, {"seed": 1.5}, {"checkpoint_every": -1},
    {"grad_clip": "10"}, {"out_dir": 5}, {"expert_hgs": {"population_size": 4}},
    {"dims": {"n_heads": 2}}, {"epsilon": 1.5}, {"epsilon": -0.2}, {"epsilon": float("nan")},
    {"epochs": -3}, {"instances_per_epoch": -2},
    *({name: value} for name in ("grad_clip", "lr_gen", "lr_disc", "lr_logz")
      for value in (float("nan"), float("inf"), -1)),
], ids=repr)
def test_a_bad_config_field_is_a_value_error(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        training.TrainConfig(**fields)


def test_rates_and_epsilon_may_be_integers():
    cfg = training.TrainConfig(epsilon=0, lr_gen=1, lr_disc=0, lr_logz=1, grad_clip=5)
    assert (cfg.epsilon, cfg.lr_gen, cfg.grad_clip) == (0, 1, 5)
    assert training.TrainConfig(epsilon=1, epochs=0, instances_per_epoch=0).epsilon == 1


def test_a_zero_grad_clip_clips_nothing():
    assert training.TrainConfig(grad_clip=0).grad_clip == 0
    grads = {"w": np.full(3, 1e6)}
    assert training._clip_grads(grads, 0) is grads


def test_a_train_step_keeps_its_recorded_bits(tmp_path):
    # recorded when the discriminator half moved to the policy as the step
    # found it (n=8: at n=6 the updated policy drew the same negatives).
    # Like the benchmark fingerprints, they hold for one numpy and BLAS build.
    cfg = tiny_config(tmp_path, n=8)
    state = training.init_train_state(cfg)
    training.train_step(state, [generate_uniform(cfg.n, 1), generate_uniform(cfg.n, 2)], cfg)
    (record,) = state.history
    assert {k: float(v).hex() for k, v in record.items() if k != "step"} == {
        "tb_loss": "0x1.478dd08fa52f2p+0",
        "disc_loss": "0x1.fe9e54496bf2ap-1",
        "mean_reward": "0x1.17db1757441f7p-14",
        "mean_greedy_cost": "0x1.c4a7dac795b01p+2",
    }


def hexed(history):
    return [{k: float(v).hex() for k, v in record.items()} for record in history]


def arrays(state):
    out = {}
    for prefix, container in (("policy", state.policy), ("disc", state.disc)):
        for name, arr in (*container.named_arrays(), *container.named_state()):
            out[f"{prefix}.{name}"] = arr
    return out


def test_resume_from_an_epoch_checkpoint_is_bit_identical(tmp_path):
    whole = training.train(tiny_config(tmp_path / "whole"))
    training.train(tiny_config(tmp_path / "first", epochs=1, checkpoint_every=1))
    resumed = training.train(
        tiny_config(tmp_path / "resumed"), resume_from=str(tmp_path / "first" / "checkpoint_epoch1.json")
    )
    assert resumed.epoch == whole.epoch == 2
    assert len(resumed.history) == 4
    assert resumed.history == whole.history
    expected = arrays(whole)
    got = arrays(resumed)
    assert got.keys() == expected.keys()
    for name, arr in expected.items():
        assert np.array_equal(got[name], arr), name


def test_non_finite_tb_loss_writes_a_snapshot_before_raising(tmp_path):
    cfg = tiny_config(tmp_path / "run")
    state = training.init_train_state(cfg)
    state.policy.log_z[...] = np.nan
    with pytest.raises(training.TrainingDivergedError):
        training.train_step(state, [generate_uniform(cfg.n, 1)], cfg)
    snapshot = json.loads((tmp_path / "run" / "divergence_snapshot.json").read_text())
    assert snapshot["where"] == "tb_loss"
    assert snapshot["loss"] == "nan"
    assert state.history == []


def test_one_cpu_a_diverged_generator_update_runs_no_expert(cpus, monkeypatch, tmp_path):
    # on one CPU the discriminator half runs after the generator updates,
    # so a step that fails in its first update never reaches the expert
    refined = []
    monkeypatch.setattr(training, "expert_refine", lambda *args: refined.append(args))
    cpus(1)
    cfg = tiny_config(tmp_path / "run")
    state = training.init_train_state(cfg)
    state.policy.log_z[...] = np.nan
    with pytest.raises(training.TrainingDivergedError, match="tb_loss"):
        training.train_step(state, [generate_uniform(cfg.n, 1)], cfg)
    assert refined == []
    assert state.history == [] and state.opt_policy.t == state.opt_disc.t == 0


def moments(state):
    out = {}
    for prefix, opt in (("opt_policy", state.opt_policy), ("opt_disc", state.opt_disc)):
        out[f"{prefix}.t"] = np.array(opt.t)
        for kind in ("m", "v"):
            out.update({f"{prefix}.{kind}.{name}": arr for name, arr in getattr(opt, kind).items()})
    return out


@pytest.mark.parametrize("host", ["one_cpu", "two_cpus"])
def test_the_worker_gives_the_inline_bits(host, request, cpus, starts, tmp_path):
    # one_cpu with cpus(2): the worker forks and shares this process's CPU
    if host == "one_cpu":
        request.getfixturevalue("one_cpu")
    cfg = tiny_config(tmp_path, n=8)
    instances = [generate_uniform(cfg.n, 1), generate_uniform(cfg.n, 2)]
    runs = []
    for k in (1, 2):
        cpus(k)
        state = training.init_train_state(cfg)
        for step in range(3):
            training.train_step(state, instances, cfg, 0, step)
        runs.append(state)
    assert starts() == [os.getpid()]  # one worker for three steps on two CPUs, none on one
    inline, forked = runs
    assert hexed(forked.history) == hexed(inline.history)
    for expected, got in ((arrays(inline), arrays(forked)), (moments(inline), moments(forked))):
        assert got.keys() == expected.keys()
        for name, arr in expected.items():
            assert np.array_equal(got[name], arr), name


@pytest.mark.parametrize("k", [1, 2], ids=["inline", "worker"])
def test_non_finite_disc_loss_writes_a_snapshot_before_raising(k, cpus, starts, monkeypatch, tmp_path):
    real = training.disc_loss
    monkeypatch.setattr(training, "disc_loss", lambda neg, pos: real(neg, pos) * math.nan)
    cpus(k)
    cfg = tiny_config(tmp_path / "run")
    state = training.init_train_state(cfg)
    with pytest.raises(training.TrainingDivergedError, match="disc_loss"):
        training.train_step(state, [generate_uniform(cfg.n, 1)], cfg)
    assert starts() == [os.getpid()] * (k - 1)
    snapshot = json.loads((tmp_path / "run" / "divergence_snapshot.json").read_text())
    assert snapshot["where"] == "disc_loss"
    assert snapshot["loss"] == "nan"
    assert state.history == []


@pytest.mark.parametrize("k", [1, 2], ids=["inline", "worker"])
def test_an_error_in_the_expert_reaches_the_caller(k, cpus, monkeypatch, tmp_path):
    def failing(*args):
        raise InstanceError(f"refined in {os.getpid()}")

    monkeypatch.setattr(training, "expert_refine", failing)
    cpus(k)
    cfg = tiny_config(tmp_path)
    state = training.init_train_state(cfg)
    with pytest.raises(InstanceError, match="refined in") as raised:
        training.train_step(state, [generate_uniform(cfg.n, 1)], cfg)
    assert (str(raised.value) == f"refined in {os.getpid()}") == (k == 1)
    assert state.history == []


def test_a_failed_discriminator_half_leaves_the_same_state(cpus, tmp_path, monkeypatch):
    # inline, the half runs after the generator updates, where the
    # worker's answer is read, so both hosts update the policy before it fails
    def failing(*args):
        raise InstanceError("the expert failed")

    monkeypatch.setattr(training, "expert_refine", failing)
    cfg = tiny_config(tmp_path, n=8)
    states = []
    for k in (1, 2):
        cpus(k)
        state = training.init_train_state(cfg)
        with pytest.raises(InstanceError, match="the expert failed"):
            training.train_step(state, [generate_uniform(cfg.n, 1)], cfg)
        states.append(state)
    inline, forked = states
    assert inline.opt_policy.t == forked.opt_policy.t == cfg.update_ratio
    assert float(inline.policy.log_z).hex() == float(forked.policy.log_z).hex()
    assert inline.opt_disc.t == forked.opt_disc.t == 0
    assert inline.history == forked.history == []


def test_the_worker_lives_until_its_state_is_freed(cpus, tmp_path):
    cpus(2)
    cfg = tiny_config(tmp_path)
    state = training.init_train_state(cfg)
    training.train_step(state, [generate_uniform(cfg.n, 1)], cfg)
    (worker,) = multiprocessing.active_children()
    training.train_step(state, [generate_uniform(cfg.n, 2)], cfg, 0, 1)
    assert multiprocessing.active_children() == [worker]  # the same process, idle between steps
    del state
    assert multiprocessing.active_children() == []
    assert worker.exitcode == -signal.SIGKILL


def test_train_returns_with_no_child_alive(cpus, starts, tmp_path):
    cpus(2)
    state = training.train(tiny_config(tmp_path))
    assert len(state.history) == 4
    assert starts() == [os.getpid()]  # one worker for the four steps
    assert multiprocessing.active_children() == []


def test_an_empty_instance_list_is_refused_before_any_fork(cpus, starts, tmp_path):
    cpus(2)
    cfg = tiny_config(tmp_path)
    state = training.init_train_state(cfg)
    with pytest.raises(ValueError, match="at least one instance"):
        training.train_step(state, [], cfg)
    assert starts() == []
    assert state.history == [] and state.opt_policy.t == state.opt_disc.t == 0


def test_copies_and_checkpoints_carry_no_worker(cpus, tmp_path):
    cpus(2)
    cfg = tiny_config(tmp_path)
    state = training.init_train_state(cfg)
    training.train_step(state, [generate_uniform(cfg.n, 1)], cfg)
    assert len(multiprocessing.active_children()) == 1
    path = str(tmp_path / "state.json")
    training.save_train_state(state, path)
    names = {f.name for f in fields(training.TrainState)}
    for twin in (copy.deepcopy(state), copy.copy(state), training.load_train_state(path)):
        assert vars(twin).keys() == names
    del state  # the copies keep no worker alive
    assert multiprocessing.active_children() == []


def test_a_new_state_never_reaches_another_states_worker(cpus, starts, tmp_path):
    # a state freed and one made after it may share an id, never a worker
    cfg = tiny_config(tmp_path, n=8)
    instances = [generate_uniform(cfg.n, 1)]
    cpus(1)
    inline = training.init_train_state(cfg)
    training.train_step(inline, instances, cfg)
    cpus(2)
    first = training.init_train_state(cfg)
    training.train_step(first, instances, cfg)
    (worker,) = multiprocessing.active_children()
    # while it lives it counts as a child, so a second state runs inline
    second = training.init_train_state(cfg)
    training.train_step(second, instances, cfg)
    assert starts() == [os.getpid()]
    assert hexed(first.history) == hexed(inline.history)
    del first
    assert worker.exitcode == -signal.SIGKILL
    third = training.init_train_state(cfg)
    training.train_step(third, instances, cfg)
    assert starts() == [os.getpid()] * 2
    (fresh,) = multiprocessing.active_children()
    assert fresh is not worker and fresh.pid != worker.pid
    for state in (second, third):
        assert hexed(state.history) == hexed(inline.history)


def inline_history(cfg, instances, cpus, steps=1):
    cpus(1)
    state = training.init_train_state(cfg)
    for step in range(steps):
        training.train_step(state, instances, cfg, 0, step)
    return hexed(state.history)


def test_a_worker_that_dies_is_an_error(cpus, starts, monkeypatch, tmp_path):
    cfg = tiny_config(tmp_path)
    instances = [generate_uniform(cfg.n, 1)]
    cpus(2)
    state = training.init_train_state(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(training, "expert_refine", lambda *a: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match=f"worker exited with code {-signal.SIGKILL}"):
            training.train_step(state, instances, cfg)
    assert state.history == []
    # the next step forks a fresh worker, which sees the real expert
    cpus(1)
    inline = training.train_step(copy.deepcopy(state), instances, cfg, 0, 1)
    cpus(2)
    training.train_step(state, instances, cfg, 0, 1)
    assert starts() == [os.getpid()] * 2
    assert hexed(state.history) == hexed(inline.history)


def test_a_worker_that_died_between_steps_is_replaced(cpus, starts, tmp_path):
    cfg = tiny_config(tmp_path)
    instances = [generate_uniform(cfg.n, 1)]
    inline = inline_history(cfg, instances, cpus, steps=2)
    cpus(2)
    state = training.init_train_state(cfg)
    training.train_step(state, instances, cfg, 0, 0)
    (worker,) = multiprocessing.active_children()
    worker.kill()
    worker.join(30)
    training.train_step(state, instances, cfg, 0, 1)
    assert starts() == [os.getpid()] * 2
    assert hexed(state.history) == inline


def test_an_error_in_a_generator_update_kills_the_worker(cpus, starts, deadline, monkeypatch, tmp_path):
    # the worker would sleep out the test if it were waited for, not killed
    cfg = tiny_config(tmp_path)
    instances = [generate_uniform(cfg.n, 1)]
    inline = inline_history(cfg, instances, cpus)
    cpus(2)
    state = training.init_train_state(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(training, "expert_refine", lambda *a: time.sleep(60))
        state.policy.log_z[...] = np.nan
        with deadline(20), pytest.raises(training.TrainingDivergedError, match="tb_loss"):
            training.train_step(state, instances, cfg)
    assert multiprocessing.active_children() == []
    # the step failed before any update, so the state is the one it found
    state.policy.log_z[...] = training.init_train_state(cfg).policy.log_z
    training.train_step(state, instances, cfg)
    assert starts() == [os.getpid()] * 2  # a fresh worker, which sees the real expert
    assert hexed(state.history) == inline


@pytest.fixture
def sent(monkeypatch):
    """``sent()`` lists the requests that ``train_step`` sends to its
    workers, in order, as the objects they were when sent."""
    requests = []

    class Recording(training.Worker):
        def __init__(self, fn, what):
            super().__init__(fn, what)

            def send(request, _send=self.requests.send):
                requests.append(request)
                _send(request)

            self.requests.send = send

    monkeypatch.setattr(training, "Worker", Recording)
    return lambda: list(requests)


def holds_disc(request) -> bool:
    """Whether a request carries a discriminator or its optimizer."""
    return any(isinstance(part, (neural.DiscParams, training.Adam)) for part in request)


def assert_same_bits(expected, got):
    assert hexed(got.history) == hexed(expected.history)
    for want, have in ((arrays(expected), arrays(got)), (moments(expected), moments(got))):
        assert have.keys() == want.keys()
        for name, arr in want.items():
            assert np.array_equal(have[name], arr), name


def test_after_its_first_step_the_worker_is_sent_no_discriminator(cpus, starts, sent, tmp_path):
    cpus(2)
    cfg = tiny_config(tmp_path)
    state = training.init_train_state(cfg)
    for step in range(3):
        training.train_step(state, [generate_uniform(cfg.n, 1)], cfg, 0, step)
    assert starts() == [os.getpid()]
    # it was forked with the (disc, opt_disc), and keeps the pair it answers with
    assert not any(holds_disc(request) for request in sent())


# the first trained array of a discriminator, or the first moment of its optimizer
FIRST = {"disc": lambda disc: next(iter(disc.named_arrays()))[1],
         "opt_disc": lambda opt: next(iter(opt.m.values()))}


@pytest.mark.parametrize("name", sorted(FIRST))
def test_a_rebound_discriminator_is_trained_by_a_fresh_worker_and_sent_nowhere(name, cpus, starts, sent, tmp_path):
    cfg = tiny_config(tmp_path, n=8)
    instances = [generate_uniform(cfg.n, 1), generate_uniform(cfg.n, 2)]
    cpus(2)
    state = training.init_train_state(cfg)
    training.train_step(state, instances, cfg, 0, 0)
    untouched = copy.deepcopy(state)
    twin = copy.deepcopy(getattr(state, name))
    FIRST[name](twin).flat[0] += 1e-3
    setattr(state, name, twin)
    cpus(1)
    inline = training.train_step(copy.deepcopy(state), instances, cfg, 0, 1)
    training.train_step(untouched, instances, cfg, 0, 1)
    cpus(2)
    training.train_step(state, instances, cfg, 0, 1)
    assert starts() == [os.getpid()] * 2  # a fresh worker, forked with the rebound pair
    assert not any(holds_disc(request) for request in sent())
    assert_same_bits(inline, state)
    # and the nudge shows, so a worker that trained what it kept would differ
    assert not all(np.array_equal(arrays(untouched)[k], arr) for k, arr in arrays(state).items())


@pytest.fixture
def collector_off():
    """Automatic garbage collection is off during the test, so an object
    that only a reference cycle holds stays alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_after_a_failed_half_a_fresh_worker_is_sent_no_discriminator(cpus, starts, sent, monkeypatch,
                                                                      tmp_path, collector_off):
    # a file flag, so that it reaches the worker forked before it is set
    failing = tmp_path / "failing"
    real = training.expert_refine

    def refine(*args):
        if failing.exists():
            raise InstanceError("the expert failed")
        return real(*args)

    monkeypatch.setattr(training, "expert_refine", refine)
    cfg = tiny_config(tmp_path, n=8)
    instances = [generate_uniform(cfg.n, 1)]
    runs = []
    for k in (1, 2):
        cpus(k)
        state = training.init_train_state(cfg)
        training.train_step(state, instances, cfg, 0, 0)
        failing.touch()
        with pytest.raises(InstanceError, match="the expert failed"):
            training.train_step(state, instances, cfg, 0, 1)
        failing.unlink()
        training.train_step(state, instances, cfg, 0, 1)
        runs.append(state)
    assert starts() == [os.getpid()] * 2  # the failed half killed the first worker
    assert not any(holds_disc(request) for request in sent())
    assert_same_bits(*runs)
    # the failed step's traceback holds no reference cycle, so freeing the
    # state reaps its fresh worker at once, without the collector
    del state, runs
    assert multiprocessing.active_children() == []


def test_a_half_that_failed_here_leaves_no_cycle_to_hold_a_later_worker(cpus, starts, monkeypatch,
                                                                       tmp_path, collector_off):
    # the half runs here (one CPU) and fails; the next step forks a worker
    failing = tmp_path / "failing"
    real = training.expert_refine

    def refine(*args):
        if failing.exists():
            raise InstanceError("the expert failed")
        return real(*args)

    monkeypatch.setattr(training, "expert_refine", refine)
    cfg = tiny_config(tmp_path, n=8)
    instances = [generate_uniform(cfg.n, 1)]
    cpus(1)
    state = training.init_train_state(cfg)
    failing.touch()
    with pytest.raises(InstanceError, match="the expert failed"):
        training.train_step(state, instances, cfg, 0, 0)
    failing.unlink()
    cpus(2)
    training.train_step(state, instances, cfg, 0, 0)
    assert starts() == [os.getpid()]
    del state
    assert multiprocessing.active_children() == []


def test_one_encoder_pass_per_network_per_update(tmp_path, monkeypatch, cpus):
    cpus(1)  # the inline path: a worker's calls would not be counted here
    calls = []
    embed = neural.gat_embed

    def counted(gat, *args, **kwargs):
        calls.append(gat)
        return embed(gat, *args, **kwargs)

    monkeypatch.setattr(neural, "gat_embed", counted)
    monkeypatch.setattr(training, "gat_embed", counted)
    cfg = tiny_config(tmp_path)
    state = training.init_train_state(cfg)
    training.train_step(state, [generate_uniform(cfg.n, 1)], cfg)
    # the discriminator half: the policy as the step found it, for the
    # negatives, and the lifted discriminator; then the frozen discriminator
    # once and the lifted policy per generator update; and the updated
    # policy once, for the greedy rollout
    assert cfg.update_ratio == 4
    assert len(calls) == 1 + 1 + 1 + 4 + 1


def test_one_graph_per_instance_per_step(tmp_path, monkeypatch):
    # patched where the graph builder calls them; the expert's own k-NN
    # lists for its granular search are not the networks' graph
    calls = {"build_distance_matrix": 0, "knn_sparsify": 0, "build_edge_index": 0, "node_features": 0}
    for name in calls:
        original = getattr(neural, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(neural, name, counted)
    cfg = tiny_config(tmp_path)
    state = training.init_train_state(cfg)
    training.train_step(state, [generate_uniform(cfg.n, 1)], cfg)
    assert calls == {"build_distance_matrix": 1, "knn_sparsify": 1, "build_edge_index": 1, "node_features": 1}


def test_resuming_with_other_dims_is_refused_and_writes_nothing(tmp_path):
    training.train(tiny_config(tmp_path / "first", epochs=1, checkpoint_every=1))
    wider = tiny_config(tmp_path / "resumed", dims=Dims(n_layers=2, n_heads=2, d_units=16, mlp_hidden=8))
    with pytest.raises(CheckpointError, match="dims"):
        training.train(wider, resume_from=str(tmp_path / "first" / "checkpoint_epoch1.json"))
    assert not (tmp_path / "resumed").exists()


def test_resuming_another_run_is_refused_with_every_differing_field(tmp_path):
    training.train(tiny_config(tmp_path / "first", epochs=1, checkpoint_every=1))
    other = tiny_config(tmp_path / "resumed", seed=4, n=9)
    with pytest.raises(CheckpointError) as exc:
        training.train(other, resume_from=str(tmp_path / "first" / "checkpoint_epoch1.json"))
    assert "seed (3 != 4)" in str(exc.value) and "n (6 != 9)" in str(exc.value)
    assert not (tmp_path / "resumed").exists()


# another value of every field that defines a run
OTHER_RUN = {
    "n": 9, "instances_per_epoch": 3, "n_rollouts": 5, "epsilon": 0.1, "update_ratio": 2,
    "lr_gen": 2e-3, "lr_disc": 2e-3, "lr_logz": 2e-2, "m": 100, "k_nn": 3, "seed": 4,
    "grad_clip": 5.0, "expert_hgs": HgsConfig(population_size=4, max_iterations=6),
    "dims": Dims(n_layers=1, n_heads=2, d_units=8, mlp_hidden=8),
}


def test_every_field_but_the_resumable_ones_defines_the_run():
    names = {f.name for f in fields(training.TrainConfig)}
    assert OTHER_RUN.keys() == names - set(training.RESUMABLE_FIELDS)


@pytest.mark.parametrize("name", sorted(OTHER_RUN))
def test_resuming_with_another_value_of_a_run_field_is_refused(tmp_path, name):
    cfg = tiny_config(tmp_path / "run")
    state = training.init_train_state(cfg)
    with pytest.raises(CheckpointError, match=rf"\b{name} \("):
        training.train(replace(cfg, **{name: OTHER_RUN[name]}), resume_from=state)


def test_a_checkpoint_records_its_run_config(tmp_path):
    cfg = tiny_config(tmp_path, k_nn=3, expert_hgs=HgsConfig(population_size=4, time_budget_s=0.5))
    path = str(tmp_path / "state.json")
    training.save_train_state(training.init_train_state(cfg), path)
    assert training.load_train_state(path).config == cfg


def test_a_checkpoint_records_its_own_dims(tmp_path):
    state = training.init_train_state(tiny_config(tmp_path))
    path = str(tmp_path / "state.json")
    training.save_train_state(state, path)
    assert json.loads((tmp_path / "state.json").read_text())["dims"] == asdict(TINY)
    loaded = training.load_train_state(path)
    assert loaded.policy.dims == loaded.disc.dims == TINY


def test_load_train_state_checks_the_format_version(tmp_path):
    # one training run serves every refused version
    training.train(tiny_config(tmp_path, epochs=1, instances_per_epoch=1))
    path = tmp_path / "checkpoint_final.json"
    payload = json.loads(path.read_text())
    for version in (2, neural.CHECKPOINT_VERSION + 1):
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}$"):
            training.load_train_state(str(path))


def test_disc_loss_gradients_match_central_differences():
    dims = Dims(n_layers=2, n_heads=2, d_units=4, mlp_hidden=6)
    inst = Instance(
        (0.5, 0.5), ((0.1, 0.2), (0.9, 0.8), (0.3, 0.7), (0.6, 0.1), (0.8, 0.4)), (3, 4, 2, 5, 3), 10
    )
    graph = neural.instance_graph(inst, 2)
    disc = neural.init_disc(dims, 4)
    # (2, 4) is not an arc of the sparse graph
    assert not ((graph.ei.src == 2) & (graph.ei.dst == 4)).any()
    neg = [(1, 3, 0, 2, 4, 0, 5, 0), (5, 0, 4, 2, 0, 3, 1, 0)]
    pos = [(1, 4, 0, 3, 5, 0, 2, 0)]

    def loss(params):
        # generic over modes: raw arrays give the value
        emb = neural.gat_embed(params.gat, graph, training=True)
        rewards = F.exp(neural.disc_traj_scores_t(params, emb, graph, neg + pos))
        return training.disc_loss(rewards[: len(neg)], rewards[len(neg):])

    lifted = neural.lift(disc)
    F.backward(loss(lifted))
    grads = neural.backward_grads(lifted)
    arrays = dict(disc.named_arrays())
    rng = np.random.default_rng(0)
    eps = 1e-6
    for name in ("gat.layers.0.w", "edge_mlp.w1", "edge_mlp.b2", "gat.w_edge"):
        arr = arrays[name]
        assert np.abs(grads[name]).max() > 1e-6, name
        for flat in rng.choice(arr.size, size=min(4, arr.size), replace=False):
            idx = np.unravel_index(flat, arr.shape)
            keep = arr[idx]
            arr[idx] = keep + eps
            hi = float(loss(disc))
            arr[idx] = keep - eps
            lo = float(loss(disc))
            arr[idx] = keep
            fd = (hi - lo) / (2 * eps)
            assert grads[name][idx] == pytest.approx(fd, rel=1e-5, abs=1e-10), (name, idx)
