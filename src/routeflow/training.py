"""Adversarial training loop: trajectory-balance generator updates against a
least-squares discriminator, with expert-refined positives.

A training step builds each instance's ``neural.InstanceGraph`` (distance
matrix, sparse edge index, node features) once, with ``instance_graph`` at
``TrainConfig.k_nn``, and every encoder pass of the step reads that object.
A generator update encodes each instance once, on the lifted policy, and
walks the decoder once: ``scored_rollouts`` samples the rollouts with their
log-probabilities on the tape, and the frozen discriminator scores them by
the ``disc_traj_scores_t`` that the discriminator update trains through.
Positives are action sequences, scored only by the discriminator.

The two halves of a step read nothing of each other's output. The
generator updates read the discriminator as the step found it. The
discriminator half (``train_discriminator``) reads the policy as the step
found it: its frozen encoding serves the epsilon-greedy negatives, whose
best solution seeds the expert. So when ``expert.may_fork`` allows, the
discriminator half runs on an ``expert.Worker`` beside the generator
updates; otherwise it runs first, on a copy of the discriminator. Either
way its result, or what it raised, is taken after them, with the same bits.
The greedy cost is the updated policy's.

Every random draw is derived statelessly from (master seed, epoch, step,
purpose), so a run resumed from any checkpoint continues bit-identically.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import operator
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as F
from .core import Instance, check_feasible, check_fields, int_at_least, is_int, is_number
from .expert import HgsConfig, Worker, expert_refine, may_fork
from .io import derive_seed, generate_uniform
from .neural import (
    CHECKPOINT_VERSION,
    CheckpointError,
    DecodeContext,
    Dims,
    DiscParams,
    EPSILON_GREEDY,
    GREEDY,
    InstanceGraph,
    PolicyParams,
    backward_grads,
    batch_rollouts,
    best_of,
    container_payload,
    disc_traj_scores_t,
    encode_array,
    encode_graph,
    fill_arrays,
    fill_container,
    gat_embed,
    init_disc,
    init_params,
    instance_graph,
    lift,
    load_payload,
    read_field,
    read_object,
    rollout,
    scored_rollouts,
    trajectory_from_solution,
    write_payload,
)


class TrainingDivergedError(RuntimeError):
    """A loss went non-finite; a diagnostic snapshot is written before raising."""


@dataclass(frozen=True)
class TrainConfig:
    n: int = 20
    instances_per_epoch: int = 200
    n_rollouts: int = 20  # stochastic rollouts per instance
    epsilon: float = 0.05
    update_ratio: int = 4  # generator updates per discriminator update
    lr_gen: float = 1e-3
    lr_disc: float = 1e-3
    lr_logz: float = 1e-2
    epochs: int = 1
    expert_hgs: HgsConfig = field(
        default_factory=lambda: HgsConfig(population_size=8, max_iterations=40)
    )
    m: int = 200  # decomposition target subproblem size
    dims: Dims = field(default_factory=Dims)
    k_nn: int | None = None  # None: quarter of the node count
    seed: int = 0
    checkpoint_every: int = 0  # epochs between checkpoints; 0 disables
    grad_clip: float = 10.0  # bound on the global gradient norm; 0 clips nothing
    out_dir: str = "runs"

    def __post_init__(self):
        check_fields(self, _CONFIG_RULES)


_INT = (is_int, "an integer")
_RATE = (lambda v: is_number(v) and 0 <= v < math.inf, "a finite number >= 0")
# TrainConfig field -> (test, what it must be)
_CONFIG_RULES = {
    "n": int_at_least(1), "instances_per_epoch": int_at_least(0), "n_rollouts": int_at_least(1),
    "epsilon": (lambda v: is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "update_ratio": int_at_least(1), "lr_gen": _RATE, "lr_disc": _RATE, "lr_logz": _RATE,
    "epochs": int_at_least(0),
    "expert_hgs": (lambda v: isinstance(v, HgsConfig), "an HgsConfig"), "m": int_at_least(1),
    "dims": (lambda v: isinstance(v, Dims), "a Dims"),
    "k_nn": (lambda v: v is None or is_int(v) and v >= 1, "None or an integer >= 1"),
    "seed": _INT, "checkpoint_every": int_at_least(0), "grad_clip": _RATE,
    "out_dir": (lambda v: isinstance(v, str), "a string"),
}


# the fields a resumed run may change; every other one defines the run
RESUMABLE_FIELDS = ("epochs", "checkpoint_every", "out_dir")


def config_from_dict(raw: dict) -> TrainConfig:
    """The config of a JSON object shaped as ``dataclasses.asdict`` of one;
    missing fields keep their defaults, and an unknown one raises TypeError."""
    nested = {"dims": Dims, "expert_hgs": HgsConfig}
    return TrainConfig(**{k: nested[k](**v) if k in nested else v for k, v in raw.items()})


class Adam:
    """Adam over a container's trained arrays, with per-parameter learning
    rates; moments are checkpointable."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, container):
        self.t = 0
        self.m = {name: np.zeros(arr.shape) for name, arr in container.named_arrays()}
        self.v = {name: np.zeros(arr.shape) for name, arr in container.named_arrays()}

    def step(self, container, grads: dict[str, np.ndarray], lr_of) -> None:
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for name, arr in container.named_arrays():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m[...] = self.BETA1 * m + (1 - self.BETA1) * g
            v[...] = self.BETA2 * v + (1 - self.BETA2) * g * g
            arr[...] = arr - lr_of(name) * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "m": {k: encode_array(v) for k, v in self.m.items()},
            "v": {k: encode_array(v) for k, v in self.v.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict, container) -> "Adam":
        """The optimizer of a ``to_dict`` payload read from a checkpoint."""
        opt = cls(container)
        opt.t = read_field(payload, "t", _count)
        fill_arrays(opt.m.items(), payload, "m", "first moment")
        fill_arrays(opt.v.items(), payload, "v", "second moment")
        return opt


def _count(raw) -> int:
    """A non-negative integer read from a checkpoint: an epoch or an Adam step."""
    value = operator.index(raw)
    if value < 0:
        raise ValueError(f"{value} is negative")
    return value


def _history(raw) -> list:
    """A training history read from a checkpoint: a list of objects."""
    if not isinstance(raw, list) or not all(isinstance(row, dict) for row in raw):
        raise TypeError("not a list of objects")
    return raw


@dataclass
class TrainState:
    policy: PolicyParams
    disc: DiscParams
    opt_policy: Adam
    opt_disc: Adam
    config: TrainConfig  # the run's config, as its checkpoints record it
    epoch: int = 0
    history: list[dict] = field(default_factory=list)


def init_train_state(cfg: TrainConfig) -> TrainState:
    policy = init_params(cfg.dims, derive_seed(cfg.seed, 101))
    disc = init_disc(cfg.dims, derive_seed(cfg.seed, 102))
    return TrainState(policy, disc, Adam(policy), Adam(disc), cfg)


# ---------------------------------------------------------------------------
# losses


def disc_loss(neg_rewards, pos_rewards):
    """Least-squares adversarial loss E[r_neg^2] + E[(1 - r_pos)^2] over
    (T,) reward tensors in (0, 1]."""
    return F.mean(F.square(neg_rewards)) + F.mean(F.square(1.0 - pos_rewards))


# ---------------------------------------------------------------------------
# sample generation


def make_training_pair(ctx: DecodeContext, cfg: TrainConfig,
                       seed: int = 0) -> tuple[list[tuple], list[tuple]]:
    """Action sequences on ``ctx``, the policy's training-mode encoding of
    one instance. Negatives: epsilon-greedy rollouts from the policy, whose
    logits ``ctx`` carries. Positive: the best negative's solution refined
    by the decomposition-augmented expert."""
    instance = ctx.graph.instance
    neg = batch_rollouts(None, instance, ctx, cfg.n_rollouts, EPSILON_GREEDY, seed, cfg.epsilon)
    seed_sol = best_of(neg).solution
    expert_cfg = replace(cfg.expert_hgs, seed=derive_seed(seed, 7))
    refined = expert_refine(instance, seed_sol, cfg.m, expert_cfg, ctx.graph.dm)
    report = check_feasible(instance, refined)
    if not report.feasible:
        raise TrainingDivergedError(f"expert produced infeasible solution: {report.violations}")
    return [t.actions for t in neg], [trajectory_from_solution(refined)]


# ---------------------------------------------------------------------------
# updates


def _clip_grads(grads: dict[str, np.ndarray], clip: float) -> dict[str, np.ndarray]:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if clip > 0 and total > clip:
        scale = clip / total
        return {k: g * scale for k, g in grads.items()}
    return grads


def _descend(opt: Adam, container, lifted, loss, what: str, lr_of, cfg: TrainConfig,
             epoch: int) -> float:
    """One Adam step on ``container`` along the clipped gradients of ``loss``
    that reach ``lifted``, its mirror on the tape; returns the loss. A
    non-finite loss writes a diagnostic snapshot and raises instead."""
    loss_val = float(F.value(loss))
    if not math.isfinite(loss_val):
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, "divergence_snapshot.json")
        with open(path, "w") as fh:
            json.dump({"epoch": epoch, "loss": repr(loss_val), "where": what}, fh, indent=2)
        raise TrainingDivergedError(f"non-finite {what}; snapshot at {path}")
    F.backward(loss)
    opt.step(container, _clip_grads(backward_grads(lifted), cfg.grad_clip), lr_of)
    return loss_val


def generator_update(state: TrainState, graphs: list[InstanceGraph], disc_embs,
                     cfg: TrainConfig, seed: int) -> float:
    """One TB-loss gradient step on the generator; discriminator frozen.
    ``disc_embs`` holds the frozen discriminator's training-mode embedding
    of each graph."""
    lifted = lift(state.policy)
    residual_parts = []
    for idx, (graph, disc_emb) in enumerate(zip(graphs, disc_embs)):
        ctx = encode_graph(lifted, graph, training=True)
        # full sampling here: near-deterministic rollouts would let logZ alone
        # satisfy the balance condition on a single repeated trajectory
        trajs, log_pf = scored_rollouts(ctx, cfg.n_rollouts, derive_seed(seed, idx))
        d_scores = disc_traj_scores_t(state.disc, disc_emb, graph, [t.actions for t in trajs])
        residual_parts.append(lifted.log_z + log_pf - d_scores)
    pooled = F.concat(residual_parts, axis=0)
    loss = F.mean(F.square(pooled))
    lr_of = lambda name: cfg.lr_logz if name == "log_z" else cfg.lr_gen
    return _descend(state.opt_policy, state.policy, lifted, loss, "tb_loss", lr_of, cfg, state.epoch)


def discriminator_update(disc: DiscParams, opt_disc: Adam, ctxs: list[DecodeContext],
                         cfg: TrainConfig, seed: int, epoch: int) -> tuple[float, float]:
    """One LSGAN step on ``disc``; generator frozen. ``ctxs`` holds the
    policy's training-mode encoding of each instance. Returns the loss and
    the mean negative-sample reward."""
    lifted = lift(disc)
    neg_parts, pos_parts = [], []
    for idx, ctx in enumerate(ctxs):
        neg, pos = make_training_pair(ctx, cfg, derive_seed(seed, idx))
        emb = gat_embed(lifted.gat, ctx.graph, training=True)
        scores = disc_traj_scores_t(lifted, emb, ctx.graph, neg + pos)
        rewards = F.exp(scores)
        neg_parts.append(rewards[: len(neg)])
        pos_parts.append(rewards[len(neg):])
    neg_all = F.concat(neg_parts, axis=0)
    pos_all = F.concat(pos_parts, axis=0)
    loss = disc_loss(neg_all, pos_all)
    loss_val = _descend(opt_disc, disc, lifted, loss, "disc_loss", lambda name: cfg.lr_disc, cfg, epoch)
    return loss_val, float(F.value(neg_all).mean())


def train_discriminator(policy: PolicyParams, disc: DiscParams, opt_disc: Adam,
                        graphs: list[InstanceGraph], cfg: TrainConfig, seed: int,
                        epoch: int) -> tuple[DiscParams, Adam, dict[str, float]]:
    """The discriminator half of a step, a function of its inputs alone: the
    policy's frozen encoding of each graph serves the negatives and the
    expert's seed solution, and one ``discriminator_update`` trains a copy
    of ``disc`` and ``opt_disc``. Returns the trained copies (arrays,
    batch-norm state, Adam ``t``/``m``/``v``) and the record fields
    ``disc_loss`` and ``mean_reward``."""
    disc, opt_disc = copy.deepcopy((disc, opt_disc))
    ctxs = [encode_graph(policy, g, training=True) for g in graphs]
    loss, mean_reward = discriminator_update(disc, opt_disc, ctxs, cfg, seed, epoch)
    return disc, opt_disc, {"disc_loss": loss, "mean_reward": mean_reward}


def train_step(state: TrainState, instances, cfg: TrainConfig,
               epoch: int = 0, step: int = 0) -> TrainState:
    """One adversarial round: ``update_ratio`` generator updates with the
    discriminator frozen, and one discriminator update with the generator
    frozen (``train_discriminator``), both from the state the step found.
    Where ``may_fork`` allows, the discriminator half runs on a ``Worker``
    while this process runs the generator updates; otherwise it runs first,
    here, on a copy. Either way its result replaces ``state.disc`` and
    ``state.opt_disc`` after the generator updates, with the same bits, and
    what it raised is raised there, so a failed half leaves the same state.
    Appends one history record, whose greedy cost is the updated policy's.
    Each instance's graph is built once, here, and so is the frozen
    discriminator's encoding: array mode never updates batch-norm
    statistics, so it equals what each update would compute."""
    base = derive_seed(derive_seed(cfg.seed, epoch), step)
    graphs = [instance_graph(instance, cfg.k_nn) for instance in instances]
    half = functools.partial(train_discriminator, state.policy, state.disc, state.opt_disc,
                             graphs, cfg, epoch=state.epoch)
    worker = None
    if may_fork():
        worker = Worker(half, "training worker")
        worker.requests.send(derive_seed(base, 2000))
        worker.requests.close()  # it exits once it has answered
    else:
        held = Worker.answer(half, derive_seed(base, 2000))
    try:
        disc_embs = [gat_embed(state.disc.gat, g, training=True) for g in graphs]
        tb = math.nan
        for u in range(cfg.update_ratio):
            tb = generator_update(state, graphs, disc_embs, cfg, derive_seed(base, 1000 + u))
        state.disc, state.opt_disc, record = Worker.value(held) if worker is None else worker.recv()
        # before closing: meanwhile the worker exits, so close need not wait for its teardown
        greedy_costs = [
            rollout(state.policy, g.instance, encode_graph(state.policy, g, training=True), GREEDY)
            .solution.total_cost
            for g in graphs
        ]
    finally:
        if worker is not None:
            worker.close()
    state.history.append(
        {
            "step": len(state.history),
            "tb_loss": tb,
            **record,
            "mean_greedy_cost": float(np.mean(greedy_costs)),
        }
    )
    return state


# ---------------------------------------------------------------------------
# the full loop with checkpoints


def _instance_for(cfg: TrainConfig, epoch: int, idx: int) -> Instance:
    return generate_uniform(cfg.n, derive_seed(derive_seed(cfg.seed, 31 + epoch), idx))


def save_train_state(state: TrainState, path: str) -> None:
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "train_state",
        "epoch": state.epoch,
        "policy": container_payload("policy", state.policy),
        "disc": container_payload("discriminator", state.disc),
        "opt_policy": state.opt_policy.to_dict(),
        "opt_disc": state.opt_disc.to_dict(),
        "history": state.history,
        "dims": asdict(state.policy.dims),
        "config": asdict(state.config),
    }
    write_payload(payload, path)


def load_train_state(path: str) -> TrainState:
    payload = load_payload(path, "train_state")
    dims = read_field(payload, "dims", lambda raw: Dims(**raw))
    policy = PolicyParams(dims, None)
    fill_container(policy, read_object(payload, "policy"))
    disc = DiscParams(dims, None)
    fill_container(disc, read_object(payload, "disc"))
    return TrainState(
        policy,
        disc,
        Adam.from_dict(read_object(payload, "opt_policy"), policy),
        Adam.from_dict(read_object(payload, "opt_disc"), disc),
        read_field(payload, "config", config_from_dict),
        epoch=read_field(payload, "epoch", _count),
        history=read_field(payload, "history", _history),
    )


def _write_log(state: TrainState, cfg: TrainConfig) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "training_log.json"), "w") as fh:
        json.dump(state.history, fh, indent=2)


def train(cfg: TrainConfig, resume_from: TrainState | str | None = None) -> TrainState:
    """Run the full loop, checkpointing per cadence plus a final checkpoint.

    Resuming from a checkpoint continues bit-identically because all
    randomness is keyed off (seed, epoch, step), never off live state. A
    resumed state whose run's config differs from ``cfg`` outside
    ``RESUMABLE_FIELDS`` is rejected with a ``CheckpointError`` that names
    each differing field.
    """
    if resume_from is None:
        state = init_train_state(cfg)
    else:
        state = load_train_state(resume_from) if isinstance(resume_from, str) else resume_from
        differing = ", ".join(
            f"{f.name} ({getattr(state.config, f.name)!r} != {getattr(cfg, f.name)!r})"
            for f in fields(TrainConfig)
            if f.name not in RESUMABLE_FIELDS and getattr(state.config, f.name) != getattr(cfg, f.name)
        )
        if differing:
            raise CheckpointError(f"the checkpoint's run differs from the config in {differing}")
    state.config = cfg
    os.makedirs(cfg.out_dir, exist_ok=True)
    if state.epoch == 0 and cfg.checkpoint_every:
        save_train_state(state, os.path.join(cfg.out_dir, "checkpoint_epoch0.json"))
    for epoch in range(state.epoch, cfg.epochs):
        for idx in range(cfg.instances_per_epoch):
            instance = _instance_for(cfg, epoch, idx)
            train_step(state, [instance], cfg, epoch, idx)
        state.epoch = epoch + 1
        if cfg.checkpoint_every and state.epoch % cfg.checkpoint_every == 0:
            save_train_state(state, os.path.join(cfg.out_dir, f"checkpoint_epoch{state.epoch}.json"))
    save_train_state(state, os.path.join(cfg.out_dir, "checkpoint_final.json"))
    _write_log(state, cfg)
    return state
