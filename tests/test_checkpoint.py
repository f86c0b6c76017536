"""Checkpoints and the parameter walk they are written from.

The parameter names and their order are pinned: checkpoint keys, Adam's
moment keys and the order in which gradients are summed for clipping all
follow them. The two files under ``tests/data/`` were written by
``save_policy`` and ``save_train_state`` at commit 53031b6, checkpoint
version 2, before the parameter containers shared one walk: the state
after one epoch of ``TrainConfig(n=6, instances_per_epoch=1, n_rollouts=3,
epochs=1, dims=TINY, seed=11, expert_hgs=HgsConfig(population_size=4,
max_iterations=4))`` and its policy. They must keep loading bit for bit.
A checkpoint that lacks a field, whose dims, config, Adam step or array
objects are of the wrong kind, or whose arrays, batch-norm state or Adam
moments are missing, unknown or wrongly shaped, is a ``CheckpointError``,
and the CLI exits 2 on it.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from routeflow import cli, training
from routeflow.io import generate_uniform
from routeflow.neural import (
    GREEDY, CheckpointError, Dims, encode_graph, init_disc, init_params, instance_graph,
    load_policy, rollout,
)

TINY = Dims(n_layers=2, n_heads=2, d_units=4, mlp_hidden=3)
DATA = Path(__file__).parent / "data"
POLICY = DATA / "policy_v2_tiny.json"
TRAIN_STATE = DATA / "train_state_v2_tiny.json"

GAT = [
    ("gat.w_node", (4, 4)), ("gat.b_node", (4,)), ("gat.w_edge", (1, 4)), ("gat.b_edge", (4,)),
    ("gat.layers.0.w", (4, 4)), ("gat.layers.0.a_src", (2, 2)), ("gat.layers.0.a_dst", (2, 2)),
    ("gat.layers.0.w_edge", (2, 4)), ("gat.layers.0.gamma", (4,)), ("gat.layers.0.beta", (4,)),
    ("gat.layers.1.w", (4, 8)), ("gat.layers.1.a_src", (2, 4)), ("gat.layers.1.a_dst", (2, 4)),
    ("gat.layers.1.w_edge", (2, 4)), ("gat.layers.1.gamma", (4,)), ("gat.layers.1.beta", (4,)),
]
BN_STATE = [
    ("gat.layers.0.run_mean", (4,)), ("gat.layers.0.run_var", (4,)),
    ("gat.layers.1.run_mean", (4,)), ("gat.layers.1.run_var", (4,)),
]
POLICY_ARRAYS = GAT + [("dec.w1", (8, 3)), ("dec.b1", (3,)), ("dec.w2", (3,)), ("dec.b2", ()),
                       ("log_z", ())]
DISC_ARRAYS = GAT + [("edge_mlp.w1", (12, 3)), ("edge_mlp.b1", (3,)), ("edge_mlp.w2", (3,)),
                     ("edge_mlp.b2", ())]

# the greedy rollout of the fixture's policy on generate_uniform(9, 4) at k = 4
GREEDY_ACTIONS = (1, 0, 7, 0, 3, 0, 5, 0, 4, 0, 8, 0, 2, 0, 6, 0, 9, 0)
GREEDY_COST = 6.421800378439895
GREEDY_LOG_PF = -20.938794415485987


def shapes(named):
    return [(name, arr.shape) for name, arr in named]


@pytest.mark.parametrize("make, arrays", [(init_params, POLICY_ARRAYS), (init_disc, DISC_ARRAYS)])
def test_the_walk_names_every_array_in_a_fixed_order(make, arrays):
    container = make(TINY, 0)
    assert shapes(container.named_arrays()) == arrays
    assert shapes(container.named_state()) == BN_STATE
    assert list(training.Adam(container).m) == [name for name, _ in arrays]


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_holds(named, recorded: dict):
    """The (name, array) pairs are exactly the recorded ones, in order and bit for bit."""
    named = list(named)
    assert [name for name, _ in named] == list(recorded)
    for name, arr in named:
        assert bits(arr) == bits(recorded[name]), name


def assert_holds_container(container, payload: dict):
    assert_holds(container.named_arrays(), payload["arrays"])
    assert_holds(container.named_state(), payload["state"])


def greedy(policy):
    inst = generate_uniform(9, 4)
    return rollout(policy, inst, encode_graph(policy, instance_graph(inst, 4)), GREEDY)


class TestVersion2Files:
    def test_the_policy_loads_bit_for_bit(self):
        policy = load_policy(str(POLICY))
        assert policy.dims == TINY
        assert_holds_container(policy, json.loads(POLICY.read_text()))

    def test_the_training_state_loads_bit_for_bit(self):
        payload = json.loads(TRAIN_STATE.read_text())
        state = training.load_train_state(str(TRAIN_STATE))
        assert state.epoch == payload["epoch"] == 1
        assert state.history == payload["history"]
        assert state.config == training.config_from_dict(payload["config"])
        assert state.policy.dims == state.disc.dims == state.config.dims == TINY
        assert_holds_container(state.policy, payload["policy"])
        assert_holds_container(state.disc, payload["disc"])
        assert (state.opt_policy.t, state.opt_disc.t) == (4, 1)
        for opt, recorded in ((state.opt_policy, payload["opt_policy"]),
                              (state.opt_disc, payload["opt_disc"])):
            assert opt.t == recorded["t"]
            assert_holds(opt.m.items(), recorded["m"])
            assert_holds(opt.v.items(), recorded["v"])

    @pytest.mark.parametrize("load", [
        lambda: load_policy(str(POLICY)),
        lambda: training.load_train_state(str(TRAIN_STATE)).policy,
    ], ids=["policy", "train_state"])
    def test_the_loaded_policy_decodes_as_it_did(self, load):
        traj = greedy(load())
        assert traj.actions == GREEDY_ACTIONS
        assert traj.solution.total_cost == GREEDY_COST
        assert traj.log_pf == GREEDY_LOG_PF


def without(path: Path, key: str, tmp_path) -> str:
    payload = json.loads(path.read_text())
    del payload[key]
    out = tmp_path / path.name
    out.write_text(json.dumps(payload))
    return str(out)


def resume_argv(checkpoint: str, tmp_path) -> list[str]:
    """``train --resume`` with the config of the fixture's run, one epoch
    longer, so that a checkpoint that loads resumes and exits 0."""
    config = json.loads(TRAIN_STATE.read_text())["config"] | {"epochs": 2}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return ["train", "--config", str(path), "--out-dir", str(tmp_path / "run"), "--resume", checkpoint]


def test_the_version_2_training_state_resumes_from_the_cli(tmp_path):
    assert cli.main(resume_argv(str(TRAIN_STATE), tmp_path)) == 0
    assert json.loads((tmp_path / "run" / "checkpoint_final.json").read_text())["epoch"] == 2


@pytest.mark.parametrize("key", sorted(json.loads(POLICY.read_text())))
def test_a_policy_without_a_field_is_a_checkpoint_error(key, tmp_path):
    path = without(POLICY, key, tmp_path)
    with pytest.raises(CheckpointError, match=repr(key)):
        load_policy(path)
    argv = ["solve", "--method", "neural-greedy", "--n", "6", "--checkpoint", path]
    assert cli.main(argv) == cli.EXIT_SPEC


@pytest.mark.parametrize("key", sorted(json.loads(TRAIN_STATE.read_text())))
def test_a_training_state_without_a_field_is_a_checkpoint_error(key, tmp_path):
    path = without(TRAIN_STATE, key, tmp_path)
    with pytest.raises(CheckpointError, match=repr(key)):
        training.load_train_state(path)
    assert cli.main(resume_argv(path, tmp_path)) == cli.EXIT_SPEC
    assert not (tmp_path / "run").exists()


def no_state(payload):
    payload["policy"]["state"] = {}


def unknown_state(payload):
    payload["disc"]["state"]["gat.layers.2.run_mean"] = [0.0] * 4


def scalar_run_var(payload):
    payload["policy"]["state"]["gat.layers.1.run_var"] = 1.0


def unknown_parameter(payload):
    payload["disc"]["arrays"]["edge_mlp.w3"] = [0.0]


def no_moment(payload):
    del payload["opt_policy"]["m"]["dec.w1"]


def unknown_moment(payload):
    payload["opt_disc"]["v"]["w1"] = [0.0]


def wrongly_shaped_moment(payload):
    payload["opt_disc"]["v"]["edge_mlp.b1"] = [0.0, 0.0]


def unknown_dims_field(payload):
    payload["dims"]["n_experts"] = 2


def heads_that_do_not_divide_the_units(payload):
    payload["dims"]["n_heads"] = 3


def unknown_config_field(payload):
    payload["config"]["epochz"] = 1


def unknown_nested_config_field(payload):
    payload["config"]["expert_hgs"]["elite_fraction"] = 0.5


def config_list(payload):
    payload["config"] = [6, 1]


def string_step(payload):
    payload["opt_policy"]["t"] = "4"


def fractional_step(payload):
    payload["opt_disc"]["t"] = 1.5


def parameter_list(payload):
    payload["policy"]["arrays"] = [1, 2]


def state_string(payload):
    payload["disc"]["state"] = "run_mean"


def first_moment_list(payload):
    payload["opt_policy"]["m"] = [0.0]


def second_moment_number(payload):
    payload["opt_disc"]["v"] = 3


@pytest.mark.parametrize("damage, message", [
    (no_state, "missing state gat.layers.0.run_mean"),
    (unknown_state, "unknown state"),
    (scalar_run_var, "shape mismatch for state gat.layers.1.run_var"),
    (unknown_parameter, "unknown parameter"),
    (no_moment, "missing first moment dec.w1"),
    (unknown_moment, "unknown second moment"),
    (wrongly_shaped_moment, "shape mismatch for second moment edge_mlp.b1"),
    (unknown_dims_field, "bad checkpoint field 'dims'"),
    (heads_that_do_not_divide_the_units, "bad checkpoint field 'dims'"),
    (unknown_config_field, "bad checkpoint field 'config'"),
    (unknown_nested_config_field, "bad checkpoint field 'config'"),
    (config_list, "bad checkpoint field 'config'"),
    (string_step, "bad checkpoint field 't'"),
    (fractional_step, "bad checkpoint field 't'"),
    (parameter_list, "checkpoint field 'arrays' is not an object"),
    (state_string, "checkpoint field 'state' is not an object"),
    (first_moment_list, "checkpoint field 'm' is not an object"),
    (second_moment_number, "checkpoint field 'v' is not an object"),
])
def test_a_damaged_training_state_is_a_checkpoint_error(damage, message, tmp_path):
    payload = json.loads(TRAIN_STATE.read_text())
    damage(payload)
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=message):
        training.load_train_state(str(path))
    assert cli.main(resume_argv(str(path), tmp_path)) == cli.EXIT_SPEC
    assert not (tmp_path / "run").exists()


def policy_parameter_list(payload):
    payload["arrays"] = [1, 2]


def policy_state_number(payload):
    payload["state"] = 0


@pytest.mark.parametrize("damage, message", [
    (unknown_dims_field, "bad checkpoint field 'dims'"),
    (heads_that_do_not_divide_the_units, "bad checkpoint field 'dims'"),
    (policy_parameter_list, "checkpoint field 'arrays' is not an object"),
    (policy_state_number, "checkpoint field 'state' is not an object"),
])
def test_a_damaged_policy_is_a_checkpoint_error(damage, message, tmp_path):
    payload = json.loads(POLICY.read_text())
    damage(payload)
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=message):
        load_policy(str(path))
    argv = ["solve", "--method", "neural-greedy", "--n", "6", "--checkpoint", str(path)]
    assert cli.main(argv) == cli.EXIT_SPEC
