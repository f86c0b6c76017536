"""Adversarial training loop: trajectory-balance generator updates against a
least-squares discriminator, with expert-refined positives.

A training step builds each instance's ``neural.InstanceGraph`` (distance
matrix, sparse edge index, node features) once, with ``instance_graph`` at
``TrainConfig.k_nn``, and every encoder pass of the step reads that object.
A generator update encodes each instance once, on the lifted policy, and
scores its rollouts with the frozen discriminator through the
``disc_traj_scores_t`` that the discriminator update trains through.
Positives are action sequences, scored only by the discriminator. The
frozen encodings are also built once per step: the discriminator's for the
generator updates, the updated policy's for the negatives and the greedy
cost.

Every random draw is derived statelessly from (master seed, epoch, step,
purpose), so a run resumed from any checkpoint continues bit-identically.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as F
from .core import Instance, check_feasible
from .expert import HgsConfig, expert_refine
from .io import derive_seed, generate_uniform
from .neural import (
    CHECKPOINT_VERSION,
    CheckpointError,
    DecodeContext,
    Dims,
    DiscParams,
    EPSILON_GREEDY,
    GREEDY,
    SAMPLE,
    InstanceGraph,
    PolicyParams,
    backward_grads,
    batch_log_pf,
    batch_rollouts,
    best_of,
    container_payload,
    disc_traj_scores_t,
    encode_graph,
    fill_arrays,
    fill_container,
    gat_embed,
    init_disc,
    init_params,
    instance_graph,
    lift,
    load_payload,
    rollout,
    trajectory_from_solution,
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
    grad_clip: float = 10.0
    out_dir: str = "runs"

    def __post_init__(self):
        if self.update_ratio < 1:
            raise ValueError("update_ratio must be >= 1")
        if min(self.lr_gen, self.lr_disc, self.lr_logz) < 0:
            raise ValueError("learning rates must be non-negative")


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

    def __init__(self, container, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {name: np.zeros(arr.shape) for name, arr in container.named_arrays()}
        self.v = {name: np.zeros(arr.shape) for name, arr in container.named_arrays()}

    def step(self, container, grads: dict[str, np.ndarray], lr_of) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, arr in container.named_arrays():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m[...] = self.beta1 * m + (1 - self.beta1) * g
            v[...] = self.beta2 * v + (1 - self.beta2) * g * g
            arr[...] = arr - lr_of(name) * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "m": {k: v.tolist() for k, v in self.m.items()},
            "v": {k: v.tolist() for k, v in self.v.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict, container) -> "Adam":
        opt = cls(container)
        opt.t = payload["t"]
        fill_arrays(opt.m.items(), payload["m"], "first moment")
        fill_arrays(opt.v.items(), payload["v"], "second moment")
        return opt


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


def make_training_pair(policy: PolicyParams, ctx: DecodeContext, cfg: TrainConfig,
                       seed: int = 0) -> tuple[list[tuple], list[tuple]]:
    """Action sequences on ``ctx``, the policy's training-mode encoding of
    one instance. Negatives: epsilon-greedy rollouts from the policy.
    Positive: the best negative's solution refined by the
    decomposition-augmented expert."""
    instance = ctx.graph.instance
    neg = batch_rollouts(
        policy, instance, ctx, cfg.n_rollouts, EPSILON_GREEDY, seed, cfg.epsilon
    )
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


def _check_finite(value: float, what: str, snapshot: dict, out_dir: str):
    if math.isfinite(value):
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "divergence_snapshot.json")
    with open(path, "w") as fh:
        json.dump(snapshot | {"loss": repr(value), "where": what}, fh, indent=2)
    raise TrainingDivergedError(f"non-finite {what}; snapshot at {path}")


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
        trajs = batch_rollouts(
            state.policy, graph.instance, ctx, cfg.n_rollouts, SAMPLE,
            derive_seed(seed, idx), cfg.epsilon,
        )
        d_scores = disc_traj_scores_t(state.disc, disc_emb, graph, [t.actions for t in trajs])
        log_pf = batch_log_pf(ctx, trajs)
        residual_parts.append(lifted.log_z + log_pf - d_scores)
    pooled = F.concat(residual_parts, axis=0)
    loss = F.mean(F.square(pooled))
    loss_val = float(F.value(loss))
    _check_finite(loss_val, "tb_loss", {"epoch": state.epoch}, cfg.out_dir)
    F.backward(loss)
    grads = _clip_grads(backward_grads(lifted), cfg.grad_clip)
    lr_of = lambda name: cfg.lr_logz if name == "log_z" else cfg.lr_gen
    state.opt_policy.step(state.policy, grads, lr_of)
    return loss_val


def discriminator_update(state: TrainState, ctxs: list[DecodeContext], cfg: TrainConfig,
                         seed: int) -> tuple[float, float]:
    """One LSGAN step on the discriminator; generator frozen. ``ctxs``
    holds the policy's training-mode encoding of each instance. Returns the
    loss and the mean negative-sample reward."""
    lifted = lift(state.disc)
    neg_parts, pos_parts = [], []
    for idx, ctx in enumerate(ctxs):
        neg, pos = make_training_pair(state.policy, ctx, cfg, derive_seed(seed, idx))
        emb = gat_embed(lifted.gat, ctx.graph, training=True)
        scores = disc_traj_scores_t(lifted, emb, ctx.graph, neg + pos)
        rewards = F.exp(scores)
        neg_parts.append(rewards[: len(neg)])
        pos_parts.append(rewards[len(neg):])
    neg_all = F.concat(neg_parts, axis=0)
    pos_all = F.concat(pos_parts, axis=0)
    loss = disc_loss(neg_all, pos_all)
    loss_val = float(F.value(loss))
    _check_finite(loss_val, "disc_loss", {"epoch": state.epoch}, cfg.out_dir)
    F.backward(loss)
    grads = _clip_grads(backward_grads(lifted), cfg.grad_clip)
    state.opt_disc.step(state.disc, grads, lambda name: cfg.lr_disc)
    return loss_val, float(F.value(neg_all).mean())


def train_step(state: TrainState, instances, cfg: TrainConfig,
               epoch: int = 0, step: int = 0) -> TrainState:
    """One adversarial round: ``update_ratio`` generator updates with the
    discriminator frozen, then one discriminator update with the generator
    frozen. Appends one history record. Each instance's graph and frozen
    encodings are built once, here: array mode never updates batch-norm
    statistics, so they equal what each update would compute."""
    base = derive_seed(derive_seed(cfg.seed, epoch), step)
    graphs = [instance_graph(instance, cfg.k_nn) for instance in instances]
    disc_embs = [gat_embed(state.disc.gat, g, training=True) for g in graphs]
    tb = math.nan
    for u in range(cfg.update_ratio):
        tb = generator_update(state, graphs, disc_embs, cfg, derive_seed(base, 1000 + u))
    ctxs = [encode_graph(state.policy, g, training=True) for g in graphs]
    d_loss, mean_reward = discriminator_update(state, ctxs, cfg, derive_seed(base, 2000))
    greedy_costs = [rollout(state.policy, c.graph.instance, c, GREEDY).solution.total_cost
                    for c in ctxs]
    state.history.append(
        {
            "step": len(state.history),
            "tb_loss": tb,
            "disc_loss": d_loss,
            "mean_reward": mean_reward,
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
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_train_state(path: str) -> TrainState:
    payload = load_payload(path, "train_state")
    dims = Dims(**payload["dims"])
    policy = init_params(dims, 0)
    fill_container(policy, payload["policy"])
    disc = init_disc(dims, 0)
    fill_container(disc, payload["disc"])
    return TrainState(
        policy,
        disc,
        Adam.from_dict(payload["opt_policy"], policy),
        Adam.from_dict(payload["opt_disc"], disc),
        config_from_dict(payload["config"]),
        epoch=payload["epoch"],
        history=payload["history"],
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
    elif isinstance(resume_from, str):
        state = load_train_state(resume_from)
    else:
        state = resume_from
    differing = [
        f"{f.name} ({getattr(state.config, f.name)!r} != {getattr(cfg, f.name)!r})"
        for f in fields(TrainConfig)
        if f.name not in RESUMABLE_FIELDS and getattr(state.config, f.name) != getattr(cfg, f.name)
    ]
    if differing:
        raise CheckpointError(f"the checkpoint's run differs from the config in {', '.join(differing)}")
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
