"""Attention-based generative routing policy and edge-level discriminator.

The encoder stacks sparse multi-head attention layers (additive scores over
projected node pairs plus a projected edge term, residual + batch-norm per
layer). Each layer stores its heads' weights stacked, one array per kind.
Its edge arrays are feature-major, (channels, E), so that the segment max,
the softmax denominator and the message sum over each node's CSR row are
each one ``reduceat`` along a contiguous axis. All heads are projected and
scored in one pass; messages run in groups of heads ``d_units`` wide. A
node term gathered onto the arcs' heads has its gradient gathered back
through ``EdgeIndex.rev``, each arc's reverse, so no pass scatters.

The decoder scores (current, candidate) embedding pairs with an MLP
and constructs routes autoregressively under capacity/visitation masks. A
pair's logit depends on the arc alone, never on the rollout's state, and
every candidate is an arc of the sparse graph, so ``encode_graph`` scores
each arc once into an (E,) logit table. A run's candidates are the slots of
its current node's CSR row of the edge index, whose positions are arc ids,
so a step's logits are one gather from the table. Batched rollouts advance
all rollouts together on array state (current node, residual load, visited
mask); ``batch_log_pf`` replays fixed trajectories once, in numpy, into
flat (step, candidate) arc ids and scores them with one gather and a
segment log-sum-exp on the tape. Both reproduce, bit for bit, a reference
decoder that lives with the tests (``tests/reference_decoder.py``). The
discriminator reuses the encoder and scores a trajectory by its arcs.

Every network pass reads one per-instance ``InstanceGraph``: the instance,
its distance matrix, the symmetrized k-NN ``EdgeIndex`` and the
``NodeFeatures``. ``make_graph`` is the one place that builds it from
(instance, k-NN rows, distances), and ``instance_graph`` the one place that
picks the k-NN width (``default_knn`` when none is given). A training step
builds each instance's graph once and hands it to every encoder pass;
``encode`` keeps the (instance, neighbours, distances) form as an adapter.

Parameters live in plain float64 arrays, the attributes of ``_Params``
containers. One walk over a container's attributes, in the order they are
set, names each array by its dotted path and marks the batch-norm running
statistics (``_STATE``) apart from the trained arrays; checkpoints,
gradients and ``training.Adam`` read nothing else. ``lift`` mirrors a
container into autodiff Tensors for training under the same ``_STATE``
rule, and the same forward code serves both modes: ``encode_graph`` on a
lifted policy puts the logit table on the tape, where the rollouts read its
values and ``batch_log_pf`` differentiates through it. Batch-norm running
statistics update exactly when a training-mode forward runs on the tape.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as F
from .core import (
    DistanceMatrix, Instance, Solution, build_distance_matrix, knn_sparsify, make_solution,
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
    ways, with depot arcs guaranteed in both directions. In CSR layout: the
    arcs are sorted by (src, dst), so node i's arcs are the row
    ``start[i]:start[i + 1]``, and no row is empty (k-NN rows have k >= 1
    entries). ``rev[a]`` is the arc id of arc a's reverse, which exists by
    symmetry, so the arcs into node i are ``rev[start[i]:start[i + 1]]``.
    ``build_edge_index`` is the one place that makes all three hold."""

    n: int
    src: np.ndarray  # (E,) sorted by (src, dst)
    dst: np.ndarray
    dist: np.ndarray
    start: np.ndarray  # (n + 1,) row offsets
    rev: np.ndarray  # (E,) arc id of (dst, src)


def build_edge_index(neighbors: np.ndarray, dm: DistanceMatrix) -> EdgeIndex:
    """The arcs (i, j) of the (n, k) k-NN rows ``neighbors`` and their
    reverses, deduplicated and sorted by (src, dst) in O(E log E); each
    arc's distance is read from ``dm``, which is symmetric."""
    n, k = neighbors.shape
    fwd = np.repeat(np.arange(n, dtype=np.int64), k)
    bwd = neighbors.ravel().astype(np.int64)
    keys = np.unique(np.concatenate([fwd * n + bwd, bwd * n + fwd]))
    src, dst = keys // n, keys % n
    start = np.searchsorted(src, np.arange(n + 1))
    return EdgeIndex(n, src, dst, dm.dist[src, dst], start, np.searchsorted(keys, dst * n + src))


@dataclass(frozen=True)
class InstanceGraph:
    """One instance as every network pass reads it: the instance, its
    distances, the sparse edge index and the node features."""

    instance: Instance
    dm: DistanceMatrix
    ei: EdgeIndex
    feats: NodeFeatures


def make_graph(instance: Instance, neighbors: np.ndarray, dm: DistanceMatrix) -> InstanceGraph:
    """The instance's graph on the k-NN rows ``neighbors`` of ``dm``."""
    return InstanceGraph(instance, dm, build_edge_index(neighbors, dm), node_features(instance))


def default_knn(n_nodes: int) -> int:
    """Sparsification width: a quarter of the node count, at least 1."""
    return max(1, n_nodes // 4)


def instance_graph(instance: Instance, k_nn: int | None = None) -> InstanceGraph:
    """The instance's graph on its distance matrix and each node's ``k_nn``
    nearest neighbours, ``default_knn`` of the node count when None."""
    dm = build_distance_matrix(instance)
    k = default_knn(instance.n_nodes) if k_nn is None else k_nn
    return make_graph(instance, knn_sparsify(dm, k), dm)


# ---------------------------------------------------------------------------
# parameter containers


# batch-norm running statistics: saved with a container, never trained
_STATE = frozenset({"run_mean", "run_var"})


class _Params:
    """A parameter container. Its attributes are arrays, sub-containers,
    lists of sub-containers and the ``Dims``; the order they are set in is
    the order of checkpoint keys, of Adam's moments and of the sum that
    clips gradients."""

    def _walk(self, prefix: str = ""):
        """(dotted name, array, is state) of every array, in attribute order;
        a lifted container yields its trained arrays as Tensors."""
        for key, val in vars(self).items():
            if isinstance(val, _Params):
                yield from val._walk(f"{prefix}{key}.")
            elif isinstance(val, list):
                for i, sub in enumerate(val):
                    yield from sub._walk(f"{prefix}{key}.{i}.")
            elif isinstance(val, (np.ndarray, F.Tensor)):
                yield prefix + key, val, key in _STATE

    def named_arrays(self):
        return ((name, arr) for name, arr, state in self._walk() if not state)

    def named_state(self):
        return ((name, arr) for name, arr, state in self._walk() if state)


class GatLayer(_Params):
    """One attention layer's weights, each kind stacked over the heads:
    head k's projection is the column block ``w[:, k * dh:(k + 1) * dh]``,
    and its attention vectors and edge weights are row k of ``a_src``,
    ``a_dst`` (H, dh) and ``w_edge`` (H, d_units); then batch-norm. Each
    head's weights are drawn in turn (w, a_src, a_dst, w_edge) into its
    slots of the stacked arrays."""

    def __init__(self, rng: np.random.Generator, d: int, dh: int, n_heads: int):
        self.w = np.empty((d, n_heads * dh))
        self.a_src = np.empty((n_heads, dh))
        self.a_dst = np.empty((n_heads, dh))
        self.w_edge = np.empty((n_heads, d))
        for k in range(n_heads):
            self.w[:, k * dh : (k + 1) * dh] = _uniform(rng, (d, dh), d)
            self.a_src[k] = _uniform(rng, (dh,), 2 * dh)
            self.a_dst[k] = _uniform(rng, (dh,), 2 * dh)
            self.w_edge[k] = _uniform(rng, (d,), d)
        self.gamma = np.ones(d)
        self.beta = np.zeros(d)
        self.run_mean = np.zeros(d)
        self.run_var = np.ones(d)


class GatParams(_Params):
    """Encoder weights: input projections plus per-layer attention heads."""

    def __init__(self, dims: Dims, rng: np.random.Generator):
        d = dims.d_units
        self.dims = dims
        self.w_node = _uniform(rng, (N_NODE_FEATURES, d), N_NODE_FEATURES)
        self.b_node = np.zeros(d)
        self.w_edge = _uniform(rng, (1, d), 1)
        self.b_edge = np.zeros(d)
        self.layers = [GatLayer(rng, d, dims.head_dim(li), dims.n_heads) for li in range(dims.n_layers)]


class Mlp(_Params):
    """Two-layer scoring head LeakyReLU(x @ w1 + b1) @ w2 + b2, one output."""

    def __init__(self, rng: np.random.Generator, fan_in: int, hidden: int):
        self.w1 = _uniform(rng, (fan_in, hidden), fan_in)
        self.b1 = np.zeros(hidden)
        self.w2 = _uniform(rng, (hidden,), hidden)
        self.b2 = np.zeros(())


class PolicyParams(_Params):
    """Generator: encoder, decoder head scoring a concatenated (current,
    candidate) embedding pair, and the log-partition scalar."""

    def __init__(self, dims: Dims, rng: np.random.Generator):
        self.dims = dims
        self.gat = GatParams(dims, rng)
        self.dec = Mlp(rng, 2 * dims.d_units, dims.mlp_hidden)
        self.log_z = np.zeros(())


class DiscParams(_Params):
    """Discriminator: own encoder plus a per-edge sigmoid MLP head."""

    def __init__(self, dims: Dims, rng: np.random.Generator):
        self.dims = dims
        self.gat = GatParams(dims, rng)
        self.edge_mlp = Mlp(rng, 3 * dims.d_units, dims.mlp_hidden)


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


def init_params(dims: Dims, seed: int) -> PolicyParams:
    """Fresh generator weights: uniform(-1/sqrt(fan_in), +), zero biases,
    log-partition scalar zero. Deterministic per seed."""
    return PolicyParams(dims, np.random.default_rng(seed))


def init_disc(dims: Dims, seed: int) -> DiscParams:
    return DiscParams(dims, np.random.default_rng(seed))


# -- Tensor mirrors for training --------------------------------------------


def lift(container: _Params) -> _Params:
    """Mirror of a parameter container: each trained array becomes a copied
    Tensor and each sub-container a mirror; the dims and the batch-norm
    running statistics (``_STATE``) stay shared, not differentiated."""
    out = object.__new__(type(container))
    for key, val in vars(container).items():
        if isinstance(val, _Params):
            val = lift(val)
        elif isinstance(val, list):
            val = [lift(v) for v in val]
        elif isinstance(val, np.ndarray) and key not in _STATE:
            val = F.parameter(val)
        setattr(out, key, val)
    return out


def backward_grads(lifted) -> dict[str, np.ndarray]:
    """name -> gradient array after a backward pass (zeros where untouched)."""
    out = {}
    for name, t in lifted.named_arrays():
        out[name] = np.zeros_like(t.data) if t.grad is None else t.grad
    return out


# ---------------------------------------------------------------------------
# encoder forward (generic over raw arrays / lifted Tensors)


def _batchnorm(layer: GatLayer, x, training: bool):
    if training:
        mu = F.mean(x, axis=0, keepdims=True)
        centered = x - mu
        var = F.mean(F.square(centered), axis=0, keepdims=True)
        if isinstance(x, F.Tensor):  # a training forward on the tape
            layer.run_mean[:] = BN_MOMENTUM * layer.run_mean + (1 - BN_MOMENTUM) * F.value(mu)[0]
            layer.run_var[:] = BN_MOMENTUM * layer.run_var + (1 - BN_MOMENTUM) * F.value(var)[0]
        xhat = centered / F.sqrt(var + BN_EPS)
    else:
        xhat = (x - layer.run_mean) / np.sqrt(layer.run_var + BN_EPS)
    return xhat * layer.gamma + layer.beta


def gat_embed(gat: GatParams, graph: InstanceGraph, training: bool = False):
    """Node embeddings (n, d_units) of an instance graph.

    Per layer and head: additive attention scores on projected node pairs
    plus a projected edge term, LeakyReLU, softmax over each node's
    neighborhood, then residual + batch-norm over the aggregated heads
    (concatenated in hidden layers, averaged in the final one).

    Edge arrays are feature-major, (channels, E), so every per-row reduction
    is one ``reduceat`` along a contiguous axis over the CSR offsets
    ``ei.start``. A layer projects all its heads at once and scores all of
    them together, (H, E); the messages then run in groups of heads that
    are ``d_units`` wide, so that no edge array is wider than (d_units, E):
    one group in a hidden layer, one head per group in the final layer.
    """
    ei, feats = graph.ei, graph.feats
    d, n_heads = gat.dims.d_units, gat.dims.n_heads
    h = F.leaky_relu(feats.x @ gat.w_node + gat.b_node, LEAKY_SLOPE)
    # the (d, E) edge features: the outer product of the (1, d) weights and the scaled lengths
    e = F.leaky_relu(gat.w_edge.reshape(d, 1) * (ei.dist / feats.scale) + gat.b_edge.reshape(d, 1),
                     LEAKY_SLOPE)
    for li, layer in enumerate(gat.layers):
        dh = gat.dims.head_dim(li)
        group = d // dh  # heads per message pass
        z = F.transpose(h @ layer.w)  # (H * dh, n): head k in rows k * dh:(k + 1) * dh
        alpha = _attention(layer, z, e, ei)
        msgs = [_messages(z[k * dh : (k + group) * dh], alpha[k : k + group], ei)
                for k in range(0, n_heads, group)]
        aggr = msgs[0]
        if len(msgs) > 1:  # the final layer averages its heads
            for m in msgs[1:]:
                aggr = aggr + m
            aggr = aggr * (1.0 / n_heads)
        h = h + _batchnorm(layer, F.leaky_relu(aggr, LEAKY_SLOPE), training)
    return h


def _attention(layer: GatLayer, z, e, ei: EdgeIndex):
    """(H, E) attention weights of every head on every arc: the softmax
    over each source's row of LeakyReLU(a_src . z_src + a_dst . z_dst) +
    w_edge . e, from the per-node terms gathered onto the arcs."""
    n_heads = F.value(layer.a_src).shape[0]
    heads = z.reshape(n_heads, -1, ei.n)
    s_src = (heads * layer.a_src.reshape(n_heads, -1, 1)).sum(axis=1)  # (H, n)
    s_dst = (heads * layer.a_dst.reshape(n_heads, -1, 1)).sum(axis=1)
    score = F.leaky_relu(
        F.csr_repeat(s_src, ei.start) + F.csr_gather(s_dst, ei.dst, ei.rev, ei.start), LEAKY_SLOPE
    ) + layer.w_edge @ e
    smax = np.maximum.reduceat(F.value(score), ei.start[:-1], axis=1)
    ex = F.exp(score - F.csr_repeat(smax, ei.start))
    return ex / F.csr_repeat(F.csr_sum(ex, ei.start), ei.start)


def _messages(z, alpha, ei: EdgeIndex):
    """(n, G * dh) messages of G heads: each node's sum of its arcs'
    attention-weighted heads, from the heads' (G * dh, n) rows of ``z`` and
    their (G, E) weights ``alpha``. Its (G * dh, E) temporaries die with it."""
    group = F.value(alpha).shape[0]
    zj = F.csr_gather(z, ei.dst, ei.rev, ei.start).reshape(group, -1, ei.src.size)
    msg = F.csr_sum(zj * alpha.reshape(group, 1, -1), ei.start)
    return F.transpose(msg.reshape(-1, ei.n))


# ---------------------------------------------------------------------------
# decoding


@dataclass
class DecodeContext:
    """Static data a rollout needs: the instance graph, and ``logits``, the
    decoder's logit of every arc of ``graph.ei``, (E,) in edge order. From a
    lifted policy the logit table is a Tensor on the tape."""

    graph: InstanceGraph
    logits: np.ndarray | F.Tensor


def _project(dec: Mlp, emb):
    """Node projections of the decoder's first layer, split over the pair:
    [h_i, h_j] @ W1 + b1 = (h_i @ W1[:d] + b1) + h_j @ W1[d:]. Returns the
    (current, candidate) halves, (n, mlp_hidden) each; generic over modes."""
    d = F.value(emb).shape[1]
    return emb @ dec.w1[:d] + dec.b1, emb @ dec.w1[d:]


def _pair_logits(dec: Mlp, proj, cur: np.ndarray, cands: np.ndarray):
    """Decoder logits LeakyReLU(P[cur] + Q[cand]) @ w2 + b2 of (cur, cand)
    pairs; each reads only its own pair (``F.matvec`` is row-local)."""
    p, q = proj
    hidden = F.leaky_relu(F.take(p, cur) + F.take(q, cands), LEAKY_SLOPE)
    return F.matvec(hidden, dec.w2) + dec.b2


# arcs the pair MLP scores at once, so that its (arcs, mlp_hidden)
# temporaries stay small and in cache
_SLICE = 512


def encode_graph(policy: PolicyParams, graph: InstanceGraph, training: bool = False) -> DecodeContext:
    """One encoder pass, then the decoder logit of every arc of the edge
    index, scored ``_SLICE`` arcs at a time; generic over modes, so a lifted
    policy gives a context on the tape."""
    ei = graph.ei
    proj = _project(policy.dec, gat_embed(policy.gat, graph, training))
    logits = F.concat([
        _pair_logits(policy.dec, proj, ei.src[i : i + _SLICE], ei.dst[i : i + _SLICE])
        for i in range(0, ei.src.size, _SLICE)
    ])
    return DecodeContext(graph, logits)


def encode(policy: PolicyParams, instance: Instance, neighbors: np.ndarray,
           dm: DistanceMatrix, training: bool = False) -> DecodeContext:
    """``encode_graph`` on the graph of the k-NN rows ``neighbors`` of
    ``dm``, for callers that hold those rather than an ``InstanceGraph``."""
    return encode_graph(policy, make_graph(instance, neighbors, dm), training)


def _softmax_runs(logits: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Softmax within consecutive runs of ``sizes`` entries. Each run is
    reduced on its own, so its result never depends on the others."""
    starts = sizes.cumsum() - sizes
    ex = np.exp(logits - np.maximum.reduceat(logits, starts).repeat(sizes))
    return ex / np.add.reduceat(ex, starts).repeat(sizes)


@dataclass(frozen=True)
class Trajectory:
    """One complete construction episode and its forward log-probability.

    Construction states are action prefixes with a unique parent each, so the
    backward probability is identically 1 and needs no field.
    """

    actions: tuple[int, ...]
    solution: Solution
    log_pf: float


GREEDY = "greedy"
EPSILON_GREEDY = "epsilon_greedy"
SAMPLE = "sample"


class _Runs:
    """Array state of several runs of the decoder on one instance: current
    node, residual load and visited mask per run. A run's candidates are the
    slots of its current node's CSR row; a slot is valid when its head is
    unvisited and fits the residual load. The depot is never visited, has
    demand 0 and no arc to itself, and starts every customer row, so this
    rule admits it whenever a run is away from it (no empty routes)."""

    def __init__(self, graph: InstanceGraph, count: int):
        instance, ei = graph.instance, graph.ei
        if ei.dst[ei.start[1:-1]].any():
            raise ValueError("a customer's return to the depot is not an arc of the edge index")
        self.start = ei.start
        self.demand = np.array((0, *instance.demands), dtype=np.int64)
        # each arc's window of the widest row's length over the heads and
        # their demands, padded so that the last row's window is whole
        width = np.diff(ei.start).max()
        head = np.concatenate([ei.dst, np.zeros(width, dtype=np.int64)])
        self.head = sliding_window_view(head, width)
        self.need = sliding_window_view(self.demand[head], width)
        self.capacity = instance.capacity
        self.current = np.zeros(count, dtype=np.int64)
        self.residual = np.full(count, instance.capacity, dtype=np.int64)
        self.visited = np.zeros((count, instance.n_nodes), dtype=bool)

    def candidates(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(arc ids, valid mask), each (len(rows), widest current row): the
        slots of each run's current row in order, so the valid ones are
        sorted by node."""
        cur = self.current[rows]
        first = self.start[cur]
        size = self.start[cur + 1] - first
        slot = np.arange(size.max())
        head = self.head[first, : slot.size]
        seen = self.visited.reshape(-1)[(rows * self.visited.shape[1])[:, None] + head]
        fits = self.need[first, : slot.size] <= self.residual[rows, None]
        return first[:, None] + slot, (slot < size[:, None]) & ~seen & fits

    def apply(self, rows: np.ndarray, actions: np.ndarray) -> None:
        loaded = self.residual[rows] - self.demand[actions]
        self.residual[rows] = np.where(actions == 0, self.capacity, loaded)
        self.current[rows] = actions
        self.visited[rows, actions] = actions != 0

    def finished(self, rows: np.ndarray) -> np.ndarray:
        return (self.current[rows] == 0) & self.visited[rows, 1:].all(axis=1)


def _split_routes(actions: list[int]) -> list[list[int]]:
    ends = [i for i, a in enumerate(actions) if a == 0]
    return [actions[i + 1 : j] for i, j in zip([-1] + ends, ends)]


def _decode(ctx: DecodeContext, seeds: list[int], mode: str, epsilon: float) -> list[Trajectory]:
    """One rollout per seed, all advanced together on ``_Runs`` state.

    Rollout t reads ``default_rng(seeds[t])`` as one stream of doubles, as
    a lone rollout would: a sample takes one draw and compares it with the
    step's cdf (``Generator.choice`` with ``p``), an epsilon test takes one
    before it. A rollout takes at most 2 * n_customers steps, so its
    largest possible share of the stream is drawn up front. A step's
    candidates are slots of the CSR rows of the runs' current nodes; it
    gathers their logits from the values of ``ctx.logits`` by arc id (so a
    context on the tape serves as well), picks a slot, and takes the head
    of that slot's arc as the action.
    """
    if mode not in (GREEDY, EPSILON_GREEDY, SAMPLE):
        raise ValueError(f"unknown mode {mode!r}")
    instance, ei = ctx.graph.instance, ctx.graph.ei
    table = F.value(ctx.logits)
    count, max_steps = len(seeds), 2 * instance.n_customers
    per_step = {GREEDY: 0, SAMPLE: 1, EPSILON_GREEDY: 2}[mode]
    draws = np.array([np.random.default_rng(s).random(per_step * max_steps) for s in seeds])
    used = np.zeros(count, dtype=np.int64)
    runs = _Runs(ctx.graph, count)
    paths = np.zeros((count, max_steps), dtype=np.int64)
    lengths = np.zeros(count, dtype=np.int64)
    log_pf = np.zeros(count)
    rows = np.arange(count)
    step = 0
    while rows.size:
        arc, mask = runs.candidates(rows)
        sizes = mask.sum(axis=1)
        if not sizes.all():
            raise RuntimeError("no valid action in a non-terminal state")
        probs = np.zeros(mask.shape)
        probs[mask] = _softmax_runs(table[arc[mask]], sizes)
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
        at = np.arange(rows.size)
        log_pf[rows] += np.log(probs[at, pick])
        action = ei.dst[arc[at, pick]]
        runs.apply(rows, action)
        paths[rows, step] = action
        step += 1
        done = runs.finished(rows)
        lengths[rows[done]] = step
        rows = rows[~done]
    out = []
    for t in range(count):
        actions = paths[t, : lengths[t]].tolist()
        solution = make_solution(instance, ctx.graph.dm, _split_routes(actions))
        out.append(Trajectory(tuple(actions), solution, float(log_pf[t])))
    return out


def rollout(policy: PolicyParams, instance: Instance, ctx: DecodeContext,
            mode: str = SAMPLE, seed: int = 0, epsilon: float = 0.05) -> Trajectory:
    """Construct one solution of ``instance`` (``ctx.graph.instance``, which
    ``ctx`` was encoded for) starting and ending at the depot.

    ``mode`` picks the argmax (greedy), an epsilon-greedy mixture, or a full
    sample; the recorded log-probability is always the policy's own, not the
    behaviour distribution's. A batch of one of ``batch_rollouts``. The
    policy is not read, since ``ctx`` carries its logits; ``policy`` and
    ``instance`` stay for the callers that pass them.
    """
    return _decode(ctx, [seed], mode, epsilon)[0]


def batch_rollouts(policy: PolicyParams, instance: Instance, ctx: DecodeContext,
                   count: int, mode: str = SAMPLE, seed: int = 0,
                   epsilon: float = 0.05) -> list[Trajectory]:
    """Independent rollouts with per-index derived seeds (prefix-shared, so a
    larger count extends rather than reshuffles a smaller one).

    All rollouts advance together on array state (current node, residual
    load, visited mask), one gather from the context's arc logit table per
    step for every (rollout, candidate) pair. Each rollout's arithmetic
    reads only its own rows, so rollout t equals
    ``rollout(seed=derive_seed(seed, t))`` bit for bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return _decode(ctx, [derive_seed(seed, t) for t in range(count)], mode, epsilon)


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

    arc: np.ndarray  # (K,) arc id of each entry's (current, candidate) pair
    step: np.ndarray  # (K,) step of each entry
    pick: np.ndarray  # (S,) entry of each step's action; -1 if not admissible
    owner: np.ndarray  # (S,) trajectory of each step


def _replay(graph: InstanceGraph, sequences: list) -> _Tape:
    """Replay every sequence once, in lockstep on ``_Runs`` state: a step's
    entries are the arcs of its valid slots, and its pick is the action's
    position among them."""
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    actions = np.zeros((len(sequences), lengths.max(initial=0)), dtype=np.int64)
    for t, seq in enumerate(sequences):
        actions[t, : len(seq)] = seq
    runs = _Runs(graph, len(sequences))
    parts = [(np.zeros(0, dtype=np.int64),) * 4]  # so that no steps still concatenate
    n_steps = n_entries = 0
    for k in range(actions.shape[1]):
        rows = np.flatnonzero(lengths > k)
        arc, mask = runs.candidates(rows)
        entries = arc[mask]
        run = np.repeat(np.arange(rows.size), mask.sum(axis=1))
        a = actions[rows, k]
        hit = np.flatnonzero(graph.ei.dst[entries] == a[run])  # at most one per run
        pick = np.full(rows.size, -1)
        pick[run[hit]] = n_entries + hit
        parts.append((entries, n_steps + run, pick, rows))
        n_steps += rows.size
        n_entries += entries.size
        runs.apply(rows, a)
    return _Tape(*(np.concatenate(col) for col in zip(*parts)))


def trajectory_from_solution(solution: Solution) -> tuple[int, ...]:
    """A solution's action sequence: each route's customers, then the depot."""
    return tuple(a for route in solution.routes for a in (*route.nodes, 0))


def batch_log_pf(ctx: DecodeContext, trajectories: list[Trajectory]) -> F.Tensor:
    """Differentiable forward log-probabilities of fixed action sequences.

    Scores from the arc logit table of ``ctx``, which ``encode_graph`` built
    from the policy (a lifted one for gradients). The trajectories are replayed
    once, in numpy, into a flat tape of (step, candidate) arc ids, each
    step's ids read from the valid slots of its current node's CSR row; the
    logits then come from one gather of the table, one segment log-sum-exp
    over the steps and one segment sum into the trajectories, so the tape
    grows by O(1) nodes, not by steps, and the pair MLP does not run here.
    Returns a (T,) tensor (an array in array mode).
    """
    tape = _replay(ctx.graph, [t.actions for t in trajectories])
    if (tape.pick < 0).any():
        raise ValueError("a trajectory takes an action that is not admissible")
    logits = F.take(ctx.logits, tape.arc)
    steps = F.take(logits, tape.pick) - F.segment_logsumexp(logits, tape.step, len(tape.pick))
    return F.segment_sum(steps, tape.owner, len(trajectories))


# ---------------------------------------------------------------------------
# discriminator


def disc_edge_logits(disc: DiscParams, emb, graph: InstanceGraph, src: np.ndarray,
                     dst: np.ndarray):
    """Raw scores of the arcs (src, dst), prior to the sigmoid, from the
    discriminator's node embeddings ``emb`` of ``graph`` (generic over both
    modes). Attention ran over the sparse graph, but the scored arcs may
    fall outside it, as expert arcs do; each arc's distance is read from
    ``graph.dm``.
    """
    e_raw = (graph.dm.dist[src, dst] / graph.feats.scale).reshape(-1, 1)
    e = F.leaky_relu(e_raw @ disc.gat.w_edge + disc.gat.b_edge, LEAKY_SLOPE)
    hi = F.take(emb, src)
    hj = F.take(emb, dst)
    cat = F.concat([hi, hj, e], axis=1)
    mlp = disc.edge_mlp
    return F.leaky_relu(cat @ mlp.w1 + mlp.b1, LEAKY_SLOPE) @ mlp.w2 + mlp.b2


def disc_forward(disc: DiscParams, graph: InstanceGraph, training: bool = False) -> np.ndarray:
    """(E,) probabilities in (0, 1) of the arcs of ``graph.ei``, in its
    (src, dst) order."""
    emb = gat_embed(disc.gat, graph, training)
    return F.sigmoid(F.value(disc_edge_logits(disc, emb, graph, graph.ei.src, graph.ei.dst)))


def disc_traj_scores_t(disc: DiscParams, emb, graph: InstanceGraph, sequences: list):
    """Log-scores of action sequences, each the sum of log σ(edge logit)
    over its arcs from the depot on; always <= 0. ``emb`` is the
    discriminator's training-mode embedding of ``graph`` (``gat_embed`` with
    ``training=True``). A (T,) tensor for a lifted discriminator and its
    embedding, an array otherwise.

    Scores exactly the union of the sequences' arcs (one ``np.unique`` over
    arc keys), so expert routes may use arcs beyond the sparse graph; one
    gather and one segment sum then give each sequence its total.
    """
    n = graph.dm.n
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    dst = np.array([a for s in sequences for a in s], dtype=np.int64)
    src = np.concatenate(([0], dst[:-1]))
    src[lengths.cumsum() - lengths] = 0
    keys, arc = np.unique(src * n + dst, return_inverse=True)
    logits = disc_edge_logits(disc, emb, graph, keys // n, keys % n)
    owner = np.repeat(np.arange(len(sequences)), lengths)
    return F.segment_sum(F.take(F.log_sigmoid(logits), arc), owner, len(sequences))


# ---------------------------------------------------------------------------
# checkpoints


CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    pass


class _Payload(dict):
    """A checkpoint's JSON object: a missing field is a CheckpointError naming it."""

    def __missing__(self, key):
        raise CheckpointError(f"checkpoint has no field {key!r}")


def container_payload(kind: str, container: _Params) -> dict:
    return {
        "format_version": CHECKPOINT_VERSION,
        "kind": kind,
        "dims": asdict(container.dims),
        "arrays": {name: arr.tolist() for name, arr in container.named_arrays()},
        "state": {name: arr.tolist() for name, arr in container.named_state()},
    }


def fill_arrays(named, values: dict, what: str) -> None:
    """Copy ``values[name]`` into the array of each (name, array) of
    ``named``; a missing, unknown or wrongly shaped entry is a
    ``CheckpointError``."""
    values = dict(values)
    for name, arr in named:
        if name not in values:
            raise CheckpointError(f"checkpoint missing {what} {name}")
        incoming = np.asarray(values.pop(name), dtype=np.float64)
        if incoming.shape != arr.shape:
            raise CheckpointError(
                f"shape mismatch for {what} {name}: checkpoint {incoming.shape}, model {arr.shape}"
            )
        arr[...] = incoming
    if values:
        raise CheckpointError(f"checkpoint has unknown {what} {sorted(values)}")


def fill_container(container: _Params, payload: dict) -> None:
    """Load a ``container_payload``'s arrays and state under the same checks."""
    fill_arrays(container.named_arrays(), payload["arrays"], "parameter")
    fill_arrays(container.named_state(), payload["state"], "state")


def load_payload(path: str, kind: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh, object_hook=_Payload)
    if payload["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload['format_version']}")
    if payload["kind"] != kind:
        raise CheckpointError(f"expected a {kind} checkpoint, got {payload['kind']}")
    return payload


def save_policy(policy: PolicyParams, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(container_payload("policy", policy), fh)


def load_policy(path: str) -> PolicyParams:
    payload = load_payload(path, "policy")
    policy = init_params(Dims(**payload["dims"]), seed=0)
    fill_container(policy, payload)
    return policy
