"""Checkpoints and the parameter walk they are written from.

The parameter names and their order are pinned: checkpoint keys, Adam's
moment keys and the order in which gradients are summed for clipping all
follow them. The files under ``tests/data/`` hold the state after one epoch
of ``TrainConfig(n=6, instances_per_epoch=1, n_rollouts=3, epochs=1,
dims=TINY, seed=11, expert_hgs=HgsConfig(population_size=4,
max_iterations=4))`` and its policy, each pair written by ``train`` (its
``checkpoint_final.json``) and ``save_policy``:

- ``*_v3_tiny.json``: checkpoint version 3, each array as its shape and the
  base64 of its little-endian float64 bytes, written by the run above
  (``out_dir`` left at ``"runs"``) once version 3 was the writer's;
- ``*_v2_tiny.json``: checkpoint version 2, arrays as nested lists of
  floats, written at commit 53031b6, before the parameter containers shared
  one walk. They hold the same values as the version-3 pair.

The version-3 pair must keep loading bit for bit, and saving a loaded file
writes it again byte for byte; the version-2 pair is refused, as a file of
any version other than ``CHECKPOINT_VERSION`` is. A checkpoint that is not
a JSON object, lacks a field, whose dims, config, epoch, history, Adam step
or objects are of the wrong kind, or whose arrays, batch-norm state or Adam
moments are missing, unknown, undecodable or wrongly shaped, is a
``CheckpointError``, and the CLI exits 2 on it. A save that fails midway
leaves the earlier file at its path whole.
"""
import base64
import errno
import json
from pathlib import Path

import numpy as np
import pytest

from routeflow import cli, neural, training
from routeflow.io import generate_uniform
from routeflow.neural import (
    GREEDY, CheckpointError, Dims, batch_log_pf, encode_graph, init_disc, init_params,
    instance_graph, load_policy, rollout, save_policy,
)

TINY = Dims(n_layers=2, n_heads=2, d_units=4, mlp_hidden=3)
DATA = Path(__file__).parent / "data"
POLICY = DATA / "policy_v3_tiny.json"
TRAIN_STATE = DATA / "train_state_v3_tiny.json"
POLICY_V2 = DATA / "policy_v2_tiny.json"
TRAIN_STATE_V2 = DATA / "train_state_v2_tiny.json"

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
GREEDY_LOG_PF = "-0x1.4f054d4b02e04p+4"  # batch_log_pf of the greedy actions, float.hex


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


def decoded(entries: dict) -> dict:
    """name -> array of a version-3 arrays object, decoded here apart from the loader."""
    return {
        name: np.frombuffer(base64.b64decode(entry["<f8"]), dtype="<f8").reshape(entry["shape"])
        for name, entry in entries.items()
    }


def assert_holds_container(container, payload: dict):
    assert_holds(container.named_arrays(), decoded(payload["arrays"]))
    assert_holds(container.named_state(), decoded(payload["state"]))


def assert_policy_file(path: Path):
    policy = load_policy(str(path))
    assert policy.dims == TINY
    assert_holds_container(policy, json.loads(path.read_text()))


def assert_train_state_file(path: Path):
    payload = json.loads(path.read_text())
    state = training.load_train_state(str(path))
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
        assert_holds(opt.m.items(), decoded(recorded["m"]))
        assert_holds(opt.v.items(), decoded(recorded["v"]))


def container_bits(container) -> list:
    return [(name, bits(arr)) for name, arr in [*container.named_arrays(), *container.named_state()]]


def every_array(state) -> list:
    """(name, bits) of every array of a training state, and its Adam steps."""
    out = []
    for label, container, opt in (("policy", state.policy, state.opt_policy),
                                  ("disc", state.disc, state.opt_disc)):
        moments = [(f"{m}.{k}", bits(v)) for m in ("m", "v") for k, v in getattr(opt, m).items()]
        out += [(f"{label}.{name}", b) for name, b in container_bits(container) + moments]
        out.append((f"{label}.t", opt.t))
    return out


def assert_decodes_as_it_did(policy):
    inst = generate_uniform(9, 4)
    ctx = encode_graph(policy, instance_graph(inst, 4))
    traj = rollout(policy, inst, ctx, GREEDY)
    assert traj.actions == GREEDY_ACTIONS
    assert traj.solution.total_cost == GREEDY_COST
    assert float(batch_log_pf(ctx, [traj.actions])[0]).hex() == GREEDY_LOG_PF


class TestVersion3Files:
    def test_the_policy_loads_bit_for_bit(self):
        assert_policy_file(POLICY)

    def test_the_training_state_loads_bit_for_bit(self):
        assert_train_state_file(TRAIN_STATE)

    def test_loading_draws_no_weights(self, monkeypatch):
        # Generator.uniform cannot be patched (numpy's Generator is an
        # immutable type), so a loader may not even make a generator
        def no_generator(*args, **kwargs):
            raise AssertionError("a loader made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        assert_policy_file(POLICY)
        assert_train_state_file(TRAIN_STATE)

    @pytest.mark.parametrize("load", [
        lambda: load_policy(str(POLICY)),
        lambda: training.load_train_state(str(TRAIN_STATE)).policy,
    ], ids=["policy", "train_state"])
    def test_the_loaded_policy_decodes_as_it_did(self, load):
        assert_decodes_as_it_did(load())

    @pytest.mark.parametrize("path, load, save", [
        (POLICY, load_policy, save_policy),
        (TRAIN_STATE, training.load_train_state, training.save_train_state),
    ], ids=["policy", "train_state"])
    def test_saving_the_loaded_file_writes_it_again(self, path, load, save, tmp_path):
        out = tmp_path / path.name
        save(load(str(path)), str(out))
        assert out.read_bytes() == path.read_bytes()


# -0.0, +-inf, the least subnormal, -max, a quiet NaN with a payload and a
# negative signalling NaN, as float64 bit patterns
SPECIAL = np.array([
    0x8000_0000_0000_0000, 0x7FF0_0000_0000_0000, 0xFFF0_0000_0000_0000, 0x0000_0000_0000_0001,
    0xFFEF_FFFF_FFFF_FFFF, 0x7FF8_0000_0000_0123, 0xFFF0_0000_0000_0001, 0x3FB9_9999_9999_999A,
], dtype=np.uint64).view(np.float64)


def test_a_round_trip_keeps_every_bit(tmp_path):
    state = training.init_train_state(training.TrainConfig(n=6, dims=TINY, out_dir=str(tmp_path)))
    for opt, container in ((state.opt_policy, state.policy), (state.opt_disc, state.disc)):
        named = [*container.named_arrays(), *container.named_state(), *opt.m.items(), *opt.v.items()]
        for k, (_, arr) in enumerate(named):
            arr[...] = np.roll(np.resize(SPECIAL, arr.size), k).reshape(arr.shape)
        opt.t = 7
    path = str(tmp_path / "state.json")
    training.save_train_state(state, path)
    assert every_array(training.load_train_state(path)) == every_array(state)
    save_policy(state.policy, path)
    assert container_bits(load_policy(path)) == container_bits(state.policy)


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


def test_the_training_state_resumes_from_the_cli(tmp_path):
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


def assert_refused(fixture: Path, text: str, message: str, tmp_path):
    """``text`` in place of ``fixture`` is a CheckpointError matching
    ``message`` for the loader of the fixture's kind, and the CLI exits 2 on it."""
    path = tmp_path / "damaged.json"
    path.write_text(text)
    if fixture in (POLICY, POLICY_V2):
        with pytest.raises(CheckpointError, match=message):
            load_policy(str(path))
        argv = ["solve", "--method", "neural-greedy", "--n", "6", "--checkpoint", str(path)]
        assert cli.main(argv) == cli.EXIT_SPEC
    else:
        with pytest.raises(CheckpointError, match=message):
            training.load_train_state(str(path))
        assert cli.main(resume_argv(str(path), tmp_path)) == cli.EXIT_SPEC
        assert not (tmp_path / "run").exists()


def no_state(payload):
    payload["policy"]["state"] = {}


def unknown_state(payload):
    payload["disc"]["state"]["gat.layers.2.run_mean"] = neural.encode_array(np.zeros(4))


def scalar_run_var(payload):
    payload["policy"]["state"]["gat.layers.1.run_var"] = neural.encode_array(np.array(1.0))


def unknown_parameter(payload):
    payload["disc"]["arrays"]["edge_mlp.w3"] = neural.encode_array(np.zeros(1))


def no_moment(payload):
    del payload["opt_policy"]["m"]["dec.w1"]


def unknown_moment(payload):
    payload["opt_disc"]["v"]["w1"] = neural.encode_array(np.zeros(1))


def wrongly_shaped_moment(payload):
    payload["opt_disc"]["v"]["edge_mlp.b1"] = neural.encode_array(np.zeros(2))


def unknown_dims_field(payload):
    payload["dims"]["n_experts"] = 2


def heads_that_do_not_divide_the_units(payload):
    payload["dims"]["n_heads"] = 3


def zero_heads(payload):
    payload["dims"]["n_heads"] = 0


def fractional_heads(payload):
    payload["dims"]["n_heads"] = 2.0


def boolean_heads(payload):
    payload["dims"]["n_heads"] = True


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


def policy_list(payload):
    payload["policy"] = [1]


def disc_string(payload):
    payload["disc"] = "x"


def policy_moments_number(payload):
    payload["opt_policy"] = 5


def disc_moments_null(payload):
    payload["opt_disc"] = None


def string_epoch(payload):
    payload["epoch"] = "x"


def negative_epoch(payload):
    payload["epoch"] = -1


def history_number(payload):
    payload["history"] = 5


def history_of_numbers(payload):
    payload["history"] = [1.5]


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
    (zero_heads, "bad checkpoint field 'dims'"),
    (fractional_heads, "bad checkpoint field 'dims'"),
    (boolean_heads, "bad checkpoint field 'dims'"),
    (unknown_config_field, "bad checkpoint field 'config'"),
    (unknown_nested_config_field, "bad checkpoint field 'config'"),
    (config_list, "bad checkpoint field 'config'"),
    (string_step, "bad checkpoint field 't'"),
    (fractional_step, "bad checkpoint field 't'"),
    (parameter_list, "checkpoint field 'arrays' is not an object"),
    (state_string, "checkpoint field 'state' is not an object"),
    (first_moment_list, "checkpoint field 'm' is not an object"),
    (second_moment_number, "checkpoint field 'v' is not an object"),
    (policy_list, "checkpoint field 'policy' is not an object"),
    (disc_string, "checkpoint field 'disc' is not an object"),
    (policy_moments_number, "checkpoint field 'opt_policy' is not an object"),
    (disc_moments_null, "checkpoint field 'opt_disc' is not an object"),
    (string_epoch, "bad checkpoint field 'epoch'"),
    (negative_epoch, "bad checkpoint field 'epoch'"),
    (history_number, "bad checkpoint field 'history'"),
    (history_of_numbers, "bad checkpoint field 'history'"),
])
def test_a_damaged_training_state_is_a_checkpoint_error(damage, message, tmp_path):
    payload = json.loads(TRAIN_STATE.read_text())
    damage(payload)
    assert_refused(TRAIN_STATE, json.dumps(payload), message, tmp_path)


def policy_parameter_list(payload):
    payload["arrays"] = [1, 2]


def policy_state_number(payload):
    payload["state"] = 0


@pytest.mark.parametrize("damage, message", [
    (unknown_dims_field, "bad checkpoint field 'dims'"),
    (heads_that_do_not_divide_the_units, "bad checkpoint field 'dims'"),
    (zero_heads, "bad checkpoint field 'dims'"),
    (fractional_heads, "bad checkpoint field 'dims'"),
    (boolean_heads, "bad checkpoint field 'dims'"),
    (policy_parameter_list, "checkpoint field 'arrays' is not an object"),
    (policy_state_number, "checkpoint field 'state' is not an object"),
])
def test_a_damaged_policy_is_a_checkpoint_error(damage, message, tmp_path):
    payload = json.loads(POLICY.read_text())
    damage(payload)
    assert_refused(POLICY, json.dumps(payload), message, tmp_path)


def invalid_base64(payload):
    payload["arrays"]["gat.w_node"]["<f8"] = "not base64!"


def short_bytes(payload):
    entry = payload["state"]["gat.layers.1.run_var"]
    entry["<f8"] = base64.b64encode(base64.b64decode(entry["<f8"])[:-8]).decode()


def negative_shape(payload):
    payload["arrays"]["dec.w1"]["shape"] = [-8, -3]


def string_shape(payload):
    payload["arrays"]["dec.b1"]["shape"] = "3"


def float_shape(payload):
    payload["arrays"]["dec.b1"]["shape"] = [3.0]


def number_bytes(payload):
    payload["arrays"]["dec.b2"]["<f8"] = 0


def extra_entry_field(payload):
    payload["state"]["gat.layers.0.run_mean"]["dtype"] = "float64"


def list_entry(payload):
    payload["arrays"]["dec.b1"] = [0.0, 0.0, 0.0]


def moment_invalid_base64(payload):
    payload["opt_disc"]["m"]["edge_mlp.w1"]["<f8"] = "AAAA=AAA"


def moment_long_bytes(payload):
    entry = payload["opt_policy"]["v"]["log_z"]
    entry["<f8"] = base64.b64encode(bytes(16)).decode()


def disc_list_entry(payload):
    payload["disc"]["arrays"]["edge_mlp.b2"] = 0.0


def top_level_list(payload):
    return [1, 2]


def top_level_string(payload):
    return "x"


@pytest.mark.parametrize("fixture, damage, message", [
    (POLICY, invalid_base64, "bad parameter gat.w_node"),
    (POLICY, short_bytes, r"bad state gat.layers.1.run_var: 24 bytes for shape \[4\]"),
    (POLICY, negative_shape, "bad parameter dec.w1: shape"),
    (POLICY, string_shape, "bad parameter dec.b1: shape"),
    (POLICY, float_shape, "bad parameter dec.b1: shape"),
    (POLICY, number_bytes, "bad parameter dec.b2"),
    (POLICY, extra_entry_field, "bad state gat.layers.0.run_mean: expected an object"),
    (POLICY, list_entry, "bad parameter dec.b1: expected an object"),
    (TRAIN_STATE, moment_invalid_base64, "bad first moment edge_mlp.w1"),
    (TRAIN_STATE, moment_long_bytes, r"bad second moment log_z: 16 bytes for shape \[\]"),
    (TRAIN_STATE, disc_list_entry, "bad parameter edge_mlp.b2: expected an object"),
    (POLICY, top_level_list, "checkpoint is not a JSON object"),
    (POLICY_V2, top_level_string, "checkpoint is not a JSON object"),
    (TRAIN_STATE, top_level_string, "checkpoint is not a JSON object"),
    (TRAIN_STATE_V2, top_level_list, "checkpoint is not a JSON object"),
], ids=lambda v: getattr(v, "__name__", None) or (v.name if isinstance(v, Path) else None))
def test_a_damaged_checkpoint_is_a_checkpoint_error(fixture, damage, message, tmp_path):
    payload = json.loads(fixture.read_text())
    replaced = damage(payload)
    text = json.dumps(payload if replaced is None else replaced)
    assert_refused(fixture, text, message, tmp_path)


@pytest.mark.parametrize("fixture", [POLICY, TRAIN_STATE], ids=["policy", "train_state"])
def test_a_truncated_checkpoint_is_a_checkpoint_error(fixture, tmp_path):
    text = fixture.read_text()
    assert_refused(fixture, text[: len(text) // 2], "checkpoint is not JSON", tmp_path)


@pytest.mark.parametrize("fixture", [POLICY_V2, TRAIN_STATE_V2], ids=["policy", "train_state"])
def test_a_version_2_file_is_refused(fixture, tmp_path):
    assert_refused(fixture, fixture.read_text(), "unsupported checkpoint version 2$", tmp_path)


class FullDisk:
    """A file whose ``write`` stores half of the text, then fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text: str):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("fixture, load, save", [
    (POLICY, load_policy, save_policy),
    (TRAIN_STATE, training.load_train_state, training.save_train_state),
], ids=["policy", "train_state"])
def test_a_save_that_fails_midway_leaves_the_earlier_file_whole(fixture, load, save, tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.json"
    path.write_bytes(fixture.read_bytes())
    later = load(str(path))
    monkeypatch.setattr(neural, "open", lambda *args, **kwargs: FullDisk(open(*args, **kwargs)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        save(later, str(path))
    assert path.read_bytes() == fixture.read_bytes()
    assert list(tmp_path.iterdir()) == [path]


def test_loading_a_default_policy_parses_no_float_text(traced_peak, tmp_path):
    # loading a version-3 file of the default dims (61,634 floats) peaks at
    # about 1.8 MB; parsing the same values from lists of floats, as a
    # version-2 file was read, peaked at about 3.3 MB
    path = str(tmp_path / "policy.json")
    save_policy(init_params(Dims(), 0), path)
    assert traced_peak(lambda: load_policy(path)) < 2.5e6
