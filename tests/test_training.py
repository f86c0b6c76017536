"""The training loop's promises at tiny sizes: resuming from a checkpoint is
bit-identical to an uninterrupted run, a divergence writes its snapshot
before raising, one update runs each network's encoder once, and one step
builds each instance's distance matrix and sparse graph once."""

import json

import numpy as np
import pytest

from routeflow import neural, training
from routeflow.expert import HgsConfig
from routeflow.io import generate_uniform
from routeflow.neural import Dims

TINY = Dims(n_layers=2, n_heads=2, d_units=8, mlp_hidden=8)


def tiny_config(out_dir, **fields):
    base = dict(
        n=6, instances_per_epoch=2, n_rollouts=4, epochs=2, dims=TINY, seed=3,
        expert_hgs=HgsConfig(population_size=4, max_iterations=5), out_dir=str(out_dir),
    )
    return training.TrainConfig(**{**base, **fields})


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


def test_one_encoder_pass_per_network_per_update(tmp_path, monkeypatch):
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
    # the frozen discriminator once; per generator update the lifted policy;
    # then the updated policy once, for the negatives and the greedy
    # rollout; and the lifted discriminator
    assert cfg.update_ratio == 4
    assert len(calls) == 1 + 4 + 1 + 1


def test_one_graph_per_instance_per_step(tmp_path, monkeypatch):
    calls = {"build_distance_matrix": 0, "knn_sparsify": 0}
    for name in calls:
        original = getattr(training, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(training, name, counted)
    cfg = tiny_config(tmp_path)
    state = training.init_train_state(cfg)
    training.train_step(state, [generate_uniform(cfg.n, 1)], cfg)
    assert calls == {"build_distance_matrix": 1, "knn_sparsify": 1}
