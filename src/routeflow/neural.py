"""Attention-based generative routing policy and edge-level discriminator.

The encoder stacks sparse multi-head attention layers (additive scores over
projected node pairs plus a projected edge term, residual + batch-norm per
layer). The decoder scores (current, candidate) embedding pairs with an MLP
and constructs routes autoregressively under capacity/visitation masks. Its
first layer is split over the pair, so each encode computes two node
projections once and a step's logits are a gather, an add, a LeakyReLU and
a dot product. Batched rollouts advance all rollouts together on array state
(current node, residual load, visited mask); ``batch_log_pf`` replays fixed
trajectories once, in numpy, into flat (step, candidate) index arrays and
scores them with one gather and a segment log-sum-exp on the tape. The
single-state API (``initial_state``, ``valid_actions``, ``decode_step``,
``apply_action``) is the reference both reproduce. The discriminator reuses
the encoder architecture and scores every sparse edge with a sigmoid head.

Parameters live in plain float64 arrays; ``lift_*`` mirrors a container into
autodiff Tensors for training, and the same forward code serves both modes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as F
from .core import (
    DistanceMatrix, Instance, Solution, SparseGraph, build_distance_matrix, make_solution,
)
from .io import derive_seed

LEAKY_SLOPE = 0.2
BN_EPS = 1e-5
BN_MOMENTUM = 0.9
N_NODE_FEATURES = 4  # x, y, demand/Q, depot bit


@dataclass(frozen=True)
class Dims:
    n_layers: int = 3
    n_heads: int = 8
    d_units: int = 64
    mlp_hidden: int = 128

    def __post_init__(self):
        if self.d_units % self.n_heads != 0:
            raise ValueError("n_heads must divide d_units")

    def head_dim(self, layer: int) -> int:
        # hidden layers concatenate heads; the final layer averages them
        if layer == self.n_layers - 1:
            return self.d_units
        return self.d_units // self.n_heads

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "d_units": self.d_units,
            "mlp_hidden": self.mlp_hidden,
        }


# ---------------------------------------------------------------------------
# static per-instance structures


@dataclass(frozen=True)
class NodeFeatures:
    """Per-node inputs: bbox-normalized coordinates, demand/Q, depot flag."""

    x: np.ndarray  # (n, 4)
    scale: float  # bounding-box span used to normalize coordinates


def node_features(instance: Instance) -> NodeFeatures:
    pts = instance.all_points()
    mins = pts.min(axis=0)
    scale = float(max((pts.max(axis=0) - mins).max(), 1e-12))
    n = instance.n_nodes
    x = np.zeros((n, N_NODE_FEATURES), dtype=np.float64)
    x[:, 0:2] = (pts - mins) / scale
    x[1:, 2] = np.asarray(instance.demands, dtype=np.float64) / instance.capacity
    x[0, 3] = 1.0
    return NodeFeatures(x, scale)


@dataclass(frozen=True)
class EdgeIndex:
    """Directed sparse edges, symmetrized so every kept arc is usable both
    ways, with depot arcs guaranteed in both directions."""

    n: int
    src: np.ndarray  # (E,) sorted by (src, dst)
    dst: np.ndarray
    dist: np.ndarray
    adj: tuple[tuple[int, ...], ...]
    lookup: dict = field(repr=False)

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def edge_id(self, i: int, j: int) -> int:
        return self.lookup[(i, j)]


def build_edge_index(graph: SparseGraph) -> EdgeIndex:
    """Symmetrize the k-NN arcs, dedupe them and sort by (src, dst), in
    O(E log E). Of duplicate arcs the last written wins, in the order
    (i, j), (j, i) over each row i's neighbours."""
    n = graph.n
    fwd = np.repeat(np.arange(n, dtype=np.int64), graph.neighbors.shape[1])
    bwd = graph.neighbors.ravel().astype(np.int64)
    src = np.stack([fwd, bwd], axis=1).ravel()
    dst = np.stack([bwd, fwd], axis=1).ravel()
    dist = np.repeat(graph.edge_dist.ravel().astype(np.float64), 2)
    keys, last = np.unique((src * n + dst)[::-1], return_index=True)
    src, dst, dist = keys // n, keys % n, dist[::-1][last]
    offsets = np.searchsorted(src, np.arange(n + 1))
    adj = tuple(tuple(dst[a:b].tolist()) for a, b in zip(offsets[:-1], offsets[1:]))
    lookup = {p: e for e, p in enumerate(zip(src.tolist(), dst.tolist()))}
    return EdgeIndex(n, src, dst, dist, adj, lookup)


# ---------------------------------------------------------------------------
# parameter containers


class AttentionHead:
    def __init__(self, w, a_src, a_dst, w_edge):
        self.w = w
        self.a_src = a_src
        self.a_dst = a_dst
        self.w_edge = w_edge


class GatLayer:
    def __init__(self, heads, gamma, beta, run_mean, run_var):
        self.heads = heads
        self.gamma = gamma
        self.beta = beta
        self.run_mean = run_mean
        self.run_var = run_var


class GatParams:
    """Encoder weights: input projections plus per-layer attention heads."""

    def __init__(self, dims: Dims, rng: np.random.Generator):
        d = dims.d_units
        self.dims = dims
        self.w_node = _uniform(rng, (N_NODE_FEATURES, d), N_NODE_FEATURES)
        self.b_node = np.zeros(d)
        self.w_edge = _uniform(rng, (1, d), 1)
        self.b_edge = np.zeros(d)
        self.layers = []
        for layer in range(dims.n_layers):
            dh = dims.head_dim(layer)
            heads = [
                AttentionHead(
                    _uniform(rng, (d, dh), d),
                    _uniform(rng, (dh,), 2 * dh),
                    _uniform(rng, (dh,), 2 * dh),
                    _uniform(rng, (d,), d),
                )
                for _ in range(dims.n_heads)
            ]
            self.layers.append(
                GatLayer(heads, np.ones(d), np.zeros(d), np.zeros(d), np.ones(d))
            )

    def named_arrays(self, prefix: str = "gat"):
        yield f"{prefix}.w_node", self.w_node
        yield f"{prefix}.b_node", self.b_node
        yield f"{prefix}.w_edge", self.w_edge
        yield f"{prefix}.b_edge", self.b_edge
        for li, layer in enumerate(self.layers):
            for hi, head in enumerate(layer.heads):
                base = f"{prefix}.layers.{li}.heads.{hi}"
                yield f"{base}.w", head.w
                yield f"{base}.a_src", head.a_src
                yield f"{base}.a_dst", head.a_dst
                yield f"{base}.w_edge", head.w_edge
            yield f"{prefix}.layers.{li}.gamma", layer.gamma
            yield f"{prefix}.layers.{li}.beta", layer.beta

    def named_state(self, prefix: str = "gat"):
        for li, layer in enumerate(self.layers):
            yield f"{prefix}.layers.{li}.run_mean", layer.run_mean
            yield f"{prefix}.layers.{li}.run_var", layer.run_var


class DecoderParams:
    """MLP scoring a concatenated (current, candidate) embedding pair."""

    def __init__(self, dims: Dims, rng: np.random.Generator):
        d, h = dims.d_units, dims.mlp_hidden
        self.w1 = _uniform(rng, (2 * d, h), 2 * d)
        self.b1 = np.zeros(h)
        self.w2 = _uniform(rng, (h,), h)
        self.b2 = np.zeros(())

    def named_arrays(self, prefix: str = "dec"):
        yield f"{prefix}.w1", self.w1
        yield f"{prefix}.b1", self.b1
        yield f"{prefix}.w2", self.w2
        yield f"{prefix}.b2", self.b2


class PolicyParams:
    """Generator: encoder, decoder head, and the log-partition scalar."""

    def __init__(self, dims: Dims, rng: np.random.Generator):
        self.dims = dims
        self.gat = GatParams(dims, rng)
        self.dec = DecoderParams(dims, rng)
        self.log_z = np.zeros(())

    def named_arrays(self):
        yield from self.gat.named_arrays()
        yield from self.dec.named_arrays()
        yield "log_z", self.log_z

    def named_state(self):
        yield from self.gat.named_state()


class DiscParams:
    """Discriminator: own encoder plus a per-edge sigmoid MLP head."""

    def __init__(self, dims: Dims, rng: np.random.Generator):
        d, h = dims.d_units, dims.mlp_hidden
        self.dims = dims
        self.gat = GatParams(dims, rng)
        self.w1 = _uniform(rng, (3 * d, h), 3 * d)
        self.b1 = np.zeros(h)
        self.w2 = _uniform(rng, (h,), h)
        self.b2 = np.zeros(())

    def named_arrays(self):
        yield from self.gat.named_arrays()
        yield "edge_mlp.w1", self.w1
        yield "edge_mlp.b1", self.b1
        yield "edge_mlp.w2", self.w2
        yield "edge_mlp.b2", self.b2

    def named_state(self):
        yield from self.gat.named_state()


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


def init_params(dims: Dims, seed: int) -> PolicyParams:
    """Fresh generator weights: uniform(-1/sqrt(fan_in), +), zero biases,
    log-partition scalar zero. Deterministic per seed."""
    return PolicyParams(dims, np.random.default_rng(seed))


def init_disc(dims: Dims, seed: int) -> DiscParams:
    return DiscParams(dims, np.random.default_rng(seed))


def parameter_count(container) -> int:
    return sum(arr.size for _, arr in container.named_arrays())


# -- Tensor mirrors for training --------------------------------------------


def _lift(container):
    """Mirror of a parameter container: each trained array becomes a copied
    Tensor and each sub-container a mirror; the dims and the batch-norm
    running statistics stay shared, not differentiated."""
    out = object.__new__(type(container))
    for key, val in vars(container).items():
        if key in ("dims", "run_mean", "run_var"):
            setattr(out, key, val)
        elif isinstance(val, np.ndarray):
            setattr(out, key, F.parameter(val))
        elif isinstance(val, list):
            setattr(out, key, [_lift(v) for v in val])
        else:
            setattr(out, key, _lift(val))
    return out


def lift_policy(policy: PolicyParams) -> PolicyParams:
    return _lift(policy)


def lift_disc(disc: DiscParams) -> DiscParams:
    return _lift(disc)


def backward_grads(lifted) -> dict[str, np.ndarray]:
    """name -> gradient array after a backward pass (zeros where untouched)."""
    out = {}
    for name, t in lifted.named_arrays():
        out[name] = np.zeros_like(t.data) if t.grad is None else t.grad
    return out


# ---------------------------------------------------------------------------
# encoder forward (generic over raw arrays / lifted Tensors)


def _segment_max(values: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    buf = np.full(n, -np.inf)
    np.maximum.at(buf, owner, values)
    return buf


def _batchnorm(layer: GatLayer, x, training: bool, update_running: bool):
    if training:
        mu = F.mean(x, axis=0, keepdims=True)
        centered = x - mu
        var = F.mean(F.square(centered), axis=0, keepdims=True)
        if update_running:
            layer.run_mean[:] = BN_MOMENTUM * layer.run_mean + (1 - BN_MOMENTUM) * F.value(mu)[0]
            layer.run_var[:] = BN_MOMENTUM * layer.run_var + (1 - BN_MOMENTUM) * F.value(var)[0]
        xhat = centered / F.sqrt(var + BN_EPS)
    else:
        xhat = (x - layer.run_mean) / np.sqrt(layer.run_var + BN_EPS)
    return xhat * layer.gamma + layer.beta


def gat_embed(gat: GatParams, ei: EdgeIndex, feats: NodeFeatures, training: bool = False,
              update_running: bool = False):
    """Node embeddings (n, d_units) for a sparsified instance graph.

    Per layer and head: additive attention scores on projected node pairs
    plus a projected edge term, LeakyReLU, softmax over each node's
    neighborhood, then residual + batch-norm over the aggregated heads.
    Returns the final (n, d_units) embeddings.
    """
    e_raw = (ei.dist / feats.scale).reshape(-1, 1)
    h = F.leaky_relu(feats.x @ gat.w_node + gat.b_node, LEAKY_SLOPE)
    e = F.leaky_relu(e_raw @ gat.w_edge + gat.b_edge, LEAKY_SLOPE)
    n_heads = gat.dims.n_heads
    for li, layer in enumerate(gat.layers):
        final = li == gat.dims.n_layers - 1
        outs = []
        for head in layer.heads:
            z = h @ head.w  # (n, dh)
            zi = F.take(z, ei.src)
            zj = F.take(z, ei.dst)
            score = F.leaky_relu(zi @ head.a_src + zj @ head.a_dst, LEAKY_SLOPE)
            score = score + e @ head.w_edge
            smax = _segment_max(F.value(score), ei.src, ei.n)
            shifted = score - smax[ei.src]
            ex = F.exp(shifted)
            denom = F.segment_sum(ex, ei.src, ei.n)
            alpha = ex / F.take(denom, ei.src)  # (E,)
            msg = F.segment_sum(alpha.reshape(-1, 1) * zj, ei.src, ei.n)
            outs.append(msg)
        if final:
            aggr = outs[0]
            for o in outs[1:]:
                aggr = aggr + o
            aggr = aggr * (1.0 / n_heads)
        else:
            aggr = F.concat(outs, axis=1)
        h = h + _batchnorm(layer, F.leaky_relu(aggr, LEAKY_SLOPE), training, update_running)
    return h


def gat_forward(gat: GatParams, graph: SparseGraph, feats: NodeFeatures,
                training: bool = False) -> np.ndarray:
    """Embeddings for a sparse graph (builds the edge index internally)."""
    return F.value(gat_embed(gat, build_edge_index(graph), feats, training))


# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True)
class RolloutState:
    current: int
    residual: int
    visited: frozenset
    routes: tuple[tuple[int, ...], ...]
    partial: tuple[int, ...]
    log_pf: float


@dataclass
class DecodeContext:
    """Static data a rollout needs: embeddings, their decoder projections
    (see ``_project``), adjacency, demands, costs."""

    instance: Instance
    ei: EdgeIndex
    emb: np.ndarray
    dm: DistanceMatrix
    proj: tuple[np.ndarray, np.ndarray]


def _project(dec: DecoderParams, emb):
    """Node projections of the decoder's first layer, split over the pair:
    [h_i, h_j] @ W1 + b1 = (h_i @ W1[:d] + b1) + h_j @ W1[d:]. Returns the
    (current, candidate) halves, (n, mlp_hidden) each; generic over modes."""
    d = F.value(emb).shape[1]
    return emb @ dec.w1[:d] + dec.b1, emb @ dec.w1[d:]


def encode(policy: PolicyParams, instance: Instance, graph: SparseGraph,
           dm: DistanceMatrix | None = None, training: bool = False) -> DecodeContext:
    ei = build_edge_index(graph)
    feats = node_features(instance)
    emb = F.value(gat_embed(policy.gat, ei, feats, training))
    if dm is None:
        dm = build_distance_matrix(instance)
    return DecodeContext(instance, ei, emb, dm, _project(policy.dec, emb))


def initial_state(instance: Instance) -> RolloutState:
    return RolloutState(0, instance.capacity, frozenset(), (), (), 0.0)


def is_terminal(instance: Instance, state: RolloutState) -> bool:
    return state.current == 0 and len(state.visited) == instance.n_customers


def valid_actions(instance: Instance, ei: EdgeIndex, state: RolloutState) -> list[int]:
    """Unvisited in-capacity neighbours of the current node; the depot is
    admissible whenever the vehicle is away from it (no empty routes)."""
    cands = [
        j
        for j in ei.adj[state.current]
        if j != 0 and j not in state.visited and instance.demand_of(j) <= state.residual
    ]
    if state.current != 0:
        cands.append(0)
    return sorted(cands)


def apply_action(instance: Instance, state: RolloutState, action: int,
                 log_p: float = 0.0) -> RolloutState:
    if action == 0:
        return RolloutState(
            0,
            instance.capacity,
            state.visited,
            state.routes + (state.partial,),
            (),
            state.log_pf + log_p,
        )
    return RolloutState(
        action,
        state.residual - instance.demand_of(action),
        state.visited | {action},
        state.routes,
        state.partial + (action,),
        state.log_pf + log_p,
    )


def _pair_logits(dec: DecoderParams, proj, cur: np.ndarray, cands: np.ndarray):
    p, q = proj
    hidden = F.leaky_relu(F.take(p, cur) + F.take(q, cands), LEAKY_SLOPE)
    return F.matvec(hidden, dec.w2) + dec.b2


def _softmax_runs(logits: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Softmax within consecutive runs of ``sizes`` entries. Each run is
    reduced on its own, so its result never depends on the others."""
    starts = sizes.cumsum() - sizes
    ex = np.exp(logits - np.maximum.reduceat(logits, starts).repeat(sizes))
    return ex / np.add.reduceat(ex, starts).repeat(sizes)


def decode_step(policy: PolicyParams, ctx: DecodeContext, state: RolloutState) -> np.ndarray:
    """Action distribution over all nodes; masked entries are exactly zero.

    A logit is LeakyReLU(P[current] + Q[candidate]) @ w2 + b2 on the
    context's node projections, so ``ctx`` must come from ``encode`` with
    this policy. Only valid candidates ever receive a logit, so masked-out
    actions carry no probability mass and no gradient. This single-state
    step is the reference the batched decoder reproduces bit for bit.
    """
    cands = valid_actions(ctx.instance, ctx.ei, state)
    probs = np.zeros(ctx.instance.n_nodes, dtype=np.float64)
    if not cands:
        if is_terminal(ctx.instance, state):
            return probs
        raise RuntimeError("no valid action in a non-terminal state")
    cur = np.full(len(cands), state.current)
    logits = _pair_logits(policy.dec, ctx.proj, cur, np.asarray(cands))
    probs[cands] = _softmax_runs(logits, np.array([len(cands)]))
    return probs


@dataclass(frozen=True)
class Trajectory:
    """One complete construction episode and its log-probabilities.

    Construction states are action prefixes with a unique parent each, so the
    backward probability is identically 1 (log_pb = 0).
    """

    actions: tuple[int, ...]
    solution: Solution
    log_pf: float
    log_pb: float = 0.0

    def arcs(self) -> list[tuple[int, int]]:
        return list(zip((0,) + self.actions, self.actions))


GREEDY = "greedy"
EPSILON_GREEDY = "epsilon_greedy"
SAMPLE = "sample"
# candidate entries a batched step scores at once, so that its
# (entries, mlp_hidden) temporaries stay small and in cache
_SLICE = 512


class _Runs:
    """Array state of several runs of the decoder on one instance: current
    node, residual load and visited mask per run, and the dense adjacency
    mask read by the same candidate rule as ``valid_actions``."""

    def __init__(self, instance: Instance, ei: EdgeIndex, count: int):
        n = instance.n_nodes
        self.adj = np.zeros((n, n), dtype=bool)
        self.adj[ei.src, ei.dst] = True
        self.adj[:, 0] = False  # the depot has its own rule
        self.demand = np.array((0, *instance.demands), dtype=np.int64)
        self.capacity = instance.capacity
        self.current = np.zeros(count, dtype=np.int64)
        self.residual = np.full(count, instance.capacity, dtype=np.int64)
        self.visited = np.zeros((count, n), dtype=bool)

    def candidates(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), n) mask of each run's valid actions; its nonzero
        entries come in row order, as ``valid_actions`` sorts them."""
        cur = self.current[rows]
        mask = self.adj[cur] & ~self.visited[rows] & (self.demand <= self.residual[rows, None])
        mask[:, 0] = cur != 0
        return mask

    def apply(self, rows: np.ndarray, actions: np.ndarray) -> None:
        loaded = self.residual[rows] - self.demand[actions]
        self.residual[rows] = np.where(actions == 0, self.capacity, loaded)
        self.current[rows] = actions
        self.visited[rows, actions] = True  # the depot's column is never read

    def finished(self, rows: np.ndarray) -> np.ndarray:
        return (self.current[rows] == 0) & self.visited[rows, 1:].all(axis=1)


def _split_routes(actions: list[int]) -> list[list[int]]:
    ends = [i for i, a in enumerate(actions) if a == 0]
    return [actions[i + 1 : j] for i, j in zip([-1] + ends, ends)]


def _decode(policy: PolicyParams, ctx: DecodeContext, seeds: list[int], mode: str,
            epsilon: float) -> list[Trajectory]:
    """One rollout per seed, all advanced together on ``_Runs`` state.

    Rollout t reads ``default_rng(seeds[t])`` as one stream of doubles, as
    a lone rollout would: a sample takes one draw and compares it with the
    step's cdf (``Generator.choice`` with ``p``), an epsilon test takes one
    before it. A rollout takes at most 2 * n_customers steps, so its
    largest possible share of the stream is drawn up front.
    """
    if mode not in (GREEDY, EPSILON_GREEDY, SAMPLE):
        raise ValueError(f"unknown mode {mode!r}")
    instance = ctx.instance
    count, n, max_steps = len(seeds), instance.n_nodes, 2 * instance.n_customers
    per_step = {GREEDY: 0, SAMPLE: 1, EPSILON_GREEDY: 2}[mode]
    draws = np.array([np.random.default_rng(s).random(per_step * max_steps) for s in seeds])
    used = np.zeros(count, dtype=np.int64)
    runs = _Runs(instance, ctx.ei, count)
    paths = np.zeros((count, max_steps), dtype=np.int64)
    lengths = np.zeros(count, dtype=np.int64)
    log_pf = np.zeros(count)
    rows = np.arange(count)
    step = 0
    while rows.size:
        mask = runs.candidates(rows)
        sizes = mask.sum(axis=1)
        if not sizes.all():
            raise RuntimeError("no valid action in a non-terminal state")
        r, c = mask.nonzero()
        cur = runs.current[rows][r]
        logits = np.concatenate([
            _pair_logits(policy.dec, ctx.proj, cur[i : i + _SLICE], c[i : i + _SLICE])
            for i in range(0, c.size, _SLICE)
        ])
        probs = np.zeros(mask.shape)
        probs[r, c] = _softmax_runs(logits, sizes)
        pick = probs.argmax(axis=1)
        explore = np.arange(rows.size if mode == SAMPLE else 0)
        if mode == EPSILON_GREEDY:
            explore = np.flatnonzero(draws[rows, used[rows]] < epsilon)
            used[rows] += 1
        if explore.size:
            sampled = rows[explore]
            cdf = probs[explore].cumsum(axis=1)
            cdf /= cdf[:, -1:]
            pick[explore] = (cdf <= draws[sampled, used[sampled], None]).sum(axis=1)
            used[sampled] += 1
        log_pf[rows] += np.log(probs[np.arange(rows.size), pick])
        runs.apply(rows, pick)
        paths[rows, step] = pick
        step += 1
        done = runs.finished(rows)
        lengths[rows[done]] = step
        rows = rows[~done]
    out = []
    for t in range(count):
        actions = paths[t, : lengths[t]].tolist()
        solution = make_solution(instance, ctx.dm, _split_routes(actions))
        out.append(Trajectory(tuple(actions), solution, float(log_pf[t])))
    return out


def _context(policy: PolicyParams, instance: Instance, graph: SparseGraph | DecodeContext,
             training_bn: bool) -> DecodeContext:
    if isinstance(graph, DecodeContext):
        return graph
    return encode(policy, instance, graph, training=training_bn)


def rollout(policy: PolicyParams, instance: Instance, graph: SparseGraph | DecodeContext,
            mode: str = SAMPLE, seed: int = 0, epsilon: float = 0.05,
            training_bn: bool = False) -> Trajectory:
    """Construct one solution starting and ending at the depot.

    ``mode`` picks the argmax (greedy), an epsilon-greedy mixture, or a full
    sample; the recorded log-probability is always the policy's own, not the
    behaviour distribution's. A batch of one of ``batch_rollouts``.
    """
    ctx = _context(policy, instance, graph, training_bn)
    return _decode(policy, ctx, [seed], mode, epsilon)[0]


def batch_rollouts(policy: PolicyParams, instance: Instance, graph: SparseGraph | DecodeContext,
                   count: int, mode: str = SAMPLE, seed: int = 0, epsilon: float = 0.05,
                   training_bn: bool = False) -> list[Trajectory]:
    """Independent rollouts with per-index derived seeds (prefix-shared, so a
    larger count extends rather than reshuffles a smaller one).

    All rollouts advance together on array state (current node, residual
    load, visited mask), one gather of the node projections per step for
    every (rollout, candidate) pair. Each rollout's arithmetic reads only its
    own rows, so rollout t equals ``rollout(seed=derive_seed(seed, t))``
    bit for bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    ctx = _context(policy, instance, graph, training_bn)
    return _decode(policy, ctx, [derive_seed(seed, t) for t in range(count)], mode, epsilon)


def best_of(trajectories: list[Trajectory]) -> Trajectory:
    """Minimum-cost trajectory, ties to the earliest index."""
    best = trajectories[0]
    for t in trajectories[1:]:
        if t.solution.total_cost < best.solution.total_cost:
            best = t
    return best


@dataclass(frozen=True)
class _Tape:
    """Fixed action sequences replayed into flat index arrays: one entry per
    (step, candidate) pair, one step per (trajectory, action)."""

    cur: np.ndarray  # (K,) current node of each entry
    cand: np.ndarray  # (K,) candidate node of each entry
    step: np.ndarray  # (K,) step of each entry
    pick: np.ndarray  # (S,) entry of each step's action; -1 if not admissible
    owner: np.ndarray  # (S,) trajectory of each step


def _replay(instance: Instance, ei: EdgeIndex, sequences: list) -> _Tape:
    """Replay every sequence once, in lockstep on ``_Runs`` state."""
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    actions = np.zeros((len(sequences), lengths.max(initial=0)), dtype=np.int64)
    for t, seq in enumerate(sequences):
        actions[t, : len(seq)] = seq
    runs = _Runs(instance, ei, len(sequences))
    parts = [(np.zeros(0, dtype=np.int64),) * 5]  # so that no steps still concatenate
    n_steps = n_entries = 0
    for k in range(actions.shape[1]):
        rows = np.flatnonzero(lengths > k)
        mask = runs.candidates(rows)
        r, c = mask.nonzero()
        a = actions[rows, k]
        at = np.arange(rows.size)
        sizes = mask.sum(axis=1)
        first = n_entries + sizes.cumsum() - sizes  # each run's first entry
        pick = np.where(mask[at, a], first + mask.cumsum(axis=1)[at, a] - 1, -1)
        parts.append((runs.current[rows][r], c, n_steps + r, pick, rows))
        n_steps += rows.size
        n_entries += r.size
        runs.apply(rows, a)
    return _Tape(*(np.concatenate(col) for col in zip(*parts)))


def _tape_log_pf(dec: DecoderParams, proj, tape: _Tape, count: int):
    """(count,) log-probabilities of a tape's trajectories: every logit from
    one gather of the projections, one segment log-sum-exp over the steps,
    one segment sum into the trajectories (generic over both modes)."""
    logits = _pair_logits(dec, proj, tape.cur, tape.cand)
    steps = F.take(logits, tape.pick) - F.segment_logsumexp(logits, tape.step, len(tape.pick))
    return F.segment_sum(steps, tape.owner, count)


def trajectory_from_solution(policy: PolicyParams, ctx: DecodeContext,
                             solution: Solution) -> Trajectory:
    """Re-express a solution as an action sequence, scoring it under the
    current policy (used to book expert-refined positives). The score is
    -inf when an action is not admissible, e.g. an arc off the sparse graph."""
    actions: list[int] = []
    for route in solution.routes:
        actions.extend(route.nodes)
        actions.append(0)
    tape = _replay(ctx.instance, ctx.ei, [actions])
    log_pf = -np.inf
    if (tape.pick >= 0).all():
        log_pf = float(_tape_log_pf(policy.dec, ctx.proj, tape, 1)[0])
    return Trajectory(tuple(actions), solution, log_pf)


def batch_log_pf(lifted: PolicyParams, ei: EdgeIndex, feats: NodeFeatures,
                 instance: Instance, trajectories: list[Trajectory],
                 training: bool = True, update_running: bool = False) -> F.Tensor:
    """Differentiable forward log-probabilities of fixed action sequences.

    One encoder pass and one projection serve the batch. The trajectories
    are replayed once, in numpy, into a flat tape of (step, candidate)
    entries, so the tape grows by O(encoder layers) nodes, not by steps.
    Returns a (T,) tensor.
    """
    emb = gat_embed(lifted.gat, ei, feats, training, update_running)
    tape = _replay(instance, ei, [t.actions for t in trajectories])
    if (tape.pick < 0).any():
        raise ValueError("a trajectory takes an action that is not admissible")
    return _tape_log_pf(lifted.dec, _project(lifted.dec, emb), tape, len(trajectories))


# ---------------------------------------------------------------------------
# discriminator


class MissingEdgeError(KeyError):
    """A trajectory arc is absent from the scored edge set."""


@dataclass
class EdgeProbMatrix:
    """Per-edge probabilities in (0,1) over the sparse arcs + depot arcs."""

    ei: EdgeIndex
    probs: np.ndarray  # (E,)

    def prob(self, i: int, j: int) -> float:
        key = (i, j)
        if key not in self.ei.lookup:
            raise MissingEdgeError(f"arc {key} not in the scored edge set")
        return float(self.probs[self.ei.lookup[key]])


def disc_edge_logits(disc: DiscParams, ei: EdgeIndex, feats: NodeFeatures,
                     training: bool = False, update_running: bool = False,
                     pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None):
    """Raw edge scores prior to the sigmoid (generic over both modes).

    Attention always runs over the sparse graph; the scored arcs default to
    that edge set but any (src, dst, dist) arrays may be supplied — e.g. for
    expert arcs that fall outside the sparsified neighbourhoods.
    """
    emb = gat_embed(disc.gat, ei, feats, training, update_running)
    if pairs is None:
        src, dst, dist = ei.src, ei.dst, ei.dist
    else:
        src, dst, dist = pairs
    e_raw = (dist / feats.scale).reshape(-1, 1)
    e = F.leaky_relu(e_raw @ disc.gat.w_edge + disc.gat.b_edge, LEAKY_SLOPE)
    hi = F.take(emb, src)
    hj = F.take(emb, dst)
    cat = F.concat([hi, hj, e], axis=1)
    hidden = F.leaky_relu(cat @ disc.w1 + disc.b1, LEAKY_SLOPE)
    return hidden @ disc.w2 + disc.b2


def disc_forward(disc: DiscParams, instance: Instance, graph: SparseGraph | EdgeIndex,
                 training: bool = False) -> EdgeProbMatrix:
    ei = graph if isinstance(graph, EdgeIndex) else build_edge_index(graph)
    feats = node_features(instance)
    logits = F.value(disc_edge_logits(disc, ei, feats, training))
    return EdgeProbMatrix(ei, F.sigmoid(logits))


def disc_score(matrix: EdgeProbMatrix, trajectory: Trajectory) -> float:
    """Sum of log edge probabilities along the trajectory; always <= 0."""
    total = 0.0
    for i, j in trajectory.arcs():
        total += np.log(matrix.prob(i, j))
    return float(total)


def disc_traj_scores_t(disc: DiscParams, ei: EdgeIndex, feats: NodeFeatures,
                       dm: DistanceMatrix, trajectories: list[Trajectory],
                       training: bool = True, update_running: bool = False) -> F.Tensor:
    """Differentiable log-scores of trajectories ((T,) tensor).

    Scores exactly the union of the trajectories' arcs, so expert routes may
    use arcs beyond the sparse graph.
    """
    arc_rows: dict[tuple[int, int], int] = {}
    per_traj: list[np.ndarray] = []
    for traj in trajectories:
        rows = []
        for arc in traj.arcs():
            if arc not in arc_rows:
                arc_rows[arc] = len(arc_rows)
            rows.append(arc_rows[arc])
        per_traj.append(np.array(rows, dtype=np.int64))
    arcs = list(arc_rows)
    src = np.array([a[0] for a in arcs], dtype=np.int64)
    dst = np.array([a[1] for a in arcs], dtype=np.int64)
    dist = dm.dist[src, dst]
    logits = disc_edge_logits(disc, ei, feats, training, update_running, (src, dst, dist))
    log_probs = F.log_sigmoid(logits)
    return F.stack_scalars([F.asum(F.take(log_probs, rows)) for rows in per_traj])


# ---------------------------------------------------------------------------
# checkpoints


CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    pass


def container_payload(kind: str, container) -> dict:
    return {
        "format_version": CHECKPOINT_VERSION,
        "kind": kind,
        "dims": container.dims.to_dict(),
        "arrays": {name: arr.tolist() for name, arr in container.named_arrays()},
        "state": {name: arr.tolist() for name, arr in container.named_state()},
    }


def fill_container(container, payload: dict):
    arrays = dict(payload["arrays"])
    for name, arr in container.named_arrays():
        if name not in arrays:
            raise CheckpointError(f"checkpoint missing parameter {name}")
        incoming = np.asarray(arrays.pop(name), dtype=np.float64)
        if incoming.shape != arr.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint {incoming.shape}, model {arr.shape}"
            )
        arr[...] = incoming
    if arrays:
        raise CheckpointError(f"checkpoint has unknown parameters {sorted(arrays)}")
    state = dict(payload.get("state", {}))
    for name, arr in container.named_state():
        if name in state:
            arr[...] = np.asarray(state[name], dtype=np.float64)


def _load_payload(path: str, kind: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload.get('format_version')}")
    if payload.get("kind") != kind:
        raise CheckpointError(f"expected a {kind} checkpoint, got {payload.get('kind')}")
    return payload


def save_policy(policy: PolicyParams, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(container_payload("policy", policy), fh)


def load_policy(path: str) -> PolicyParams:
    payload = _load_payload(path, "policy")
    policy = init_params(Dims(**payload["dims"]), seed=0)
    fill_container(policy, payload)
    return policy


def save_disc(disc: DiscParams, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(container_payload("discriminator", disc), fh)


def load_disc(path: str) -> DiscParams:
    payload = _load_payload(path, "discriminator")
    disc = init_disc(Dims(**payload["dims"]), seed=0)
    fill_container(disc, payload)
    return disc


def default_knn(n_nodes: int) -> int:
    """Sparsification width: a quarter of the node count, at least 1."""
    return max(1, n_nodes // 4)
