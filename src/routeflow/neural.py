"""Attention-based generative routing policy and edge-level discriminator.

The encoder stacks sparse multi-head attention layers (additive scores over
projected node pairs plus a projected edge term, residual + batch-norm per
layer). Each layer stores its heads' weights stacked, one array per kind.
Its edge work runs feature-major, (channels, arcs), on blocks of whole CSR
rows of about ``_BLOCK`` arcs, so a row's max, softmax denominator and
message sum are each one ``reduceat`` along a contiguous axis, and each
layer's edge term is a gemm on aligned arc blocks: no (d_units, E) array
exists, and at the default dims the bits are one block's. On the tape the
whole graph is one block; a node term gathered onto the arcs' heads has
its gradient gathered back through ``EdgeIndex.rev``, each arc's reverse,
so no pass scatters.

The decoder scores (current, candidate) embedding pairs with an MLP and
builds routes step by step under capacity and visit masks. A pair's logit
depends on the arc alone and every candidate is an arc of the sparse graph,
so ``encode_graph`` scores each arc once into an (E,) logit table, and a
step's logits are one gather by the arc ids of the slots of each run's
current CSR row. One ``_walk`` advances a batch of runs on array state that
holds only the runs still going (current node, residual load, visited mask,
visited count) by the slots its chooser picks: a rollout's by the policy's
probabilities, ``batch_log_pf``'s by the given action sequences. A walk
may record its flat (step, candidate) arc ids, which one gather and a
segment log-sum-exp score on the tape, the policy's one log-probability;
so ``scored_rollouts`` samples and scores in one walk. Rollouts match a
reference decoder in the tests (``tests/reference_decoder.py``) bit for
bit, and scores match its log-probabilities. The discriminator reuses the
encoder and scores an action sequence by its arcs.

Every network pass reads one per-instance ``InstanceGraph``: the instance,
its distance matrix, the symmetrized k-NN ``EdgeIndex``, the node features
and their scale. ``make_graph`` is the one place that builds it from
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
values and their scores differentiate through it. Batch-norm running
statistics update exactly when a training-mode forward runs on the tape.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as F
from .core import (
    Instance, Route, Solution, build_distance_matrix, check_fields, int_at_least, is_number,
    knn_sparsify,
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
        check_fields(self, {name: int_at_least(1) for name in self.__dataclass_fields__})
        if self.d_units % self.n_heads != 0:
            raise ValueError("n_heads must divide d_units")

    def head_dim(self, layer: int) -> int:
        # hidden layers concatenate heads; the final layer averages them
        if layer == self.n_layers - 1:
            return self.d_units
        return self.d_units // self.n_heads


# ---------------------------------------------------------------------------
# static per-instance structures


def node_features(instance: Instance) -> tuple[np.ndarray, float]:
    """(n, 4) inputs (bbox-normalized x, y; demand/Q; depot flag) and the bbox span."""
    pts = instance.all_points()
    mins = pts.min(axis=0)
    scale = float(max((pts.max(axis=0) - mins).max(), 1e-12))
    n = instance.n_nodes
    x = np.zeros((n, N_NODE_FEATURES), dtype=np.float64)
    x[:, 0:2] = (pts - mins) / scale
    x[1:, 2] = np.asarray(instance.demands, dtype=np.float64) / instance.capacity
    x[0, 3] = 1.0
    return x, scale


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


def build_edge_index(neighbors: np.ndarray, dm: np.ndarray) -> EdgeIndex:
    """The arcs (i, j) of the (n, k) k-NN rows ``neighbors`` and their
    reverses, deduplicated and sorted by (src, dst) in O(E log E); each
    arc's distance is read from ``dm``, which is symmetric."""
    n, k = neighbors.shape
    fwd = np.repeat(np.arange(n, dtype=np.int64), k)
    bwd = neighbors.ravel().astype(np.int64)
    keys = np.unique(np.concatenate([fwd * n + bwd, bwd * n + fwd]))
    src, dst = keys // n, keys % n
    start = np.searchsorted(src, np.arange(n + 1))
    return EdgeIndex(n, src, dst, dm[src, dst], start, np.searchsorted(keys, dst * n + src))


@dataclass(frozen=True)
class InstanceGraph:
    """One instance as every network pass reads it: the instance, its
    distances (``build_distance_matrix``'s read-only float64 array), the
    sparse edge index and ``node_features``' inputs and scale."""

    instance: Instance
    dm: np.ndarray
    ei: EdgeIndex
    x: np.ndarray  # (n, 4)
    scale: float


def make_graph(instance: Instance, neighbors: np.ndarray, dm: np.ndarray) -> InstanceGraph:
    """The instance's graph on the k-NN rows ``neighbors`` of ``dm``."""
    return InstanceGraph(instance, dm, build_edge_index(neighbors, dm), *node_features(instance))


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

    def __init__(self, rng: np.random.Generator | None, d: int, dh: int, n_heads: int):
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

    def __init__(self, dims: Dims, rng: np.random.Generator | None):
        d = dims.d_units
        self.dims = dims
        self.w_node = _uniform(rng, (N_NODE_FEATURES, d), N_NODE_FEATURES)
        self.b_node = np.zeros(d)
        self.w_edge = _uniform(rng, (1, d), 1)
        self.b_edge = np.zeros(d)
        self.layers = [GatLayer(rng, d, dims.head_dim(li), dims.n_heads) for li in range(dims.n_layers)]


class Mlp(_Params):
    """Two-layer scoring head LeakyReLU(x @ w1 + b1) @ w2 + b2, one output."""

    def __init__(self, rng: np.random.Generator | None, fan_in: int, hidden: int):
        self.w1 = _uniform(rng, (fan_in, hidden), fan_in)
        self.b1 = np.zeros(hidden)
        self.w2 = _uniform(rng, (hidden,), hidden)
        self.b2 = np.zeros(())


class PolicyParams(_Params):
    """Generator: encoder, decoder head scoring a concatenated (current,
    candidate) embedding pair, and the log-partition scalar."""

    def __init__(self, dims: Dims, rng: np.random.Generator | None):
        self.dims = dims
        self.gat = GatParams(dims, rng)
        self.dec = Mlp(rng, 2 * dims.d_units, dims.mlp_hidden)
        self.log_z = np.zeros(())


class DiscParams(_Params):
    """Discriminator: own encoder plus a per-edge sigmoid MLP head."""

    def __init__(self, dims: Dims, rng: np.random.Generator | None):
        self.dims = dims
        self.gat = GatParams(dims, rng)
        self.edge_mlp = Mlp(rng, 3 * dims.d_units, dims.mlp_hidden)


def _uniform(rng: np.random.Generator | None, shape, fan_in: int) -> np.ndarray:
    """uniform(-1/sqrt(fan_in), +) weights; unset storage, for a loader to fill, without ``rng``."""
    s = 1.0 / np.sqrt(fan_in)
    return np.empty(shape) if rng is None else rng.uniform(-s, s, size=shape)


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
    return {name: np.zeros_like(t.data) if t.grad is None else t.grad
            for name, t in lifted.named_arrays()}


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

    ``h @ w``, the per-node score terms and batch-norm run over all nodes;
    the scores, softmax and messages on blocks of whole CSR rows
    (``_row_blocks``), messages in groups of heads ``d_units`` wide. Every
    layer's edge term is computed first (``_edge_terms``). In array mode z =
    (h @ w)^T and the score terms are built ``_BLOCK // 4`` nodes at a time,
    none alone (numpy hands a one-row product to gemv, of other bits), so a
    pass holds O(n_layers * H * E + (n + _BLOCK) * H * d_units) floats. On
    the tape the whole graph is one block.
    """
    ei, d, n_heads = graph.ei, gat.dims.d_units, gat.dims.n_heads
    h = F.leaky_relu(graph.x @ gat.w_node + gat.b_node, LEAKY_SLOPE)
    tape = isinstance(h, F.Tensor)
    width = ei.src.size if tape else _BLOCK
    terms, blocks = _edge_terms(gat, graph), _row_blocks(ei, width)
    for li, layer in enumerate(gat.layers):
        if tape:
            z = F.transpose(h @ layer.w)  # (H * dh, n): head k in rows k * dh:(k + 1) * dh
            heads = z.reshape(n_heads, -1, ei.n)
            s_src = (heads * layer.a_src.reshape(n_heads, -1, 1)).sum(axis=1)  # (H, n)
            s_dst = (heads * layer.a_dst.reshape(n_heads, -1, 1)).sum(axis=1)
        else:
            z, (s_src, s_dst) = np.empty((layer.w.shape[1], ei.n)), np.empty((2, n_heads, ei.n))
            bounds = [*range(0, max(ei.n - 1, 1), _BLOCK // 4), ei.n]
            for c0, c1 in zip(bounds[:-1], bounds[1:]):
                z[:, c0:c1] = (h[c0:c1] @ layer.w).T
                heads = z[:, c0:c1].reshape(n_heads, -1, c1 - c0)
                s_src[:, c0:c1] = (heads * layer.a_src.reshape(n_heads, -1, 1)).sum(axis=1)
                s_dst[:, c0:c1] = (heads * layer.a_dst.reshape(n_heads, -1, 1)).sum(axis=1)
        group = d // gat.dims.head_dim(li)  # heads per message pass
        aggr = F.concat([_aggregate(z, s_src[:, rows], s_dst, terms[li][:, arcs], part, group)
                         for rows, arcs, part in blocks])
        del z, heads, s_src, s_dst  # not read again: in array mode, freed before the batch-norm
        h = h + _batchnorm(layer, F.leaky_relu(aggr, LEAKY_SLOPE), training)
    return h


# arcs of one block of an array-mode encoder's edge work, and the least
# width of its edge-term gemm; a multiple of 8, so that each gemm block starts
# an OpenBLAS row group. A quarter block is the step of the nodes that fill z
# and of the arcs the pair MLP scores, whose (arcs, mlp_hidden) temporaries
# stay in cache there: a whole block made an n=200 encode 15-25 ms slower
_BLOCK = 2048


def _edge_terms(gat: GatParams, graph: InstanceGraph):
    """Every layer's (H, E) edge term w_edge . e of the edge features e =
    LeakyReLU(w_edge * length / scale + b_edge): on the tape, a list of
    Tensors of the whole graph; in array mode, one (n_layers, H, E) array.
    It is built an arc block at a time in one (d_units, block) buffer, each
    layer's gemm writing its rows of the block. Blocks start at multiples of
    ``_BLOCK`` and the last takes the rest (one block if E < 2 * _BLOCK), so
    it is the widest: OpenBLAS gives other bits to a gemm of <= 10^6
    multiply-adds; _BLOCK arcs make more at default dims."""
    ei, d, size = graph.ei, gat.dims.d_units, graph.ei.src.size
    w_edge, b_edge = gat.w_edge.reshape(d, 1), gat.b_edge.reshape(d, 1)
    if isinstance(w_edge, F.Tensor):
        e = F.leaky_relu(w_edge * (ei.dist / graph.scale) + b_edge, LEAKY_SLOPE)
        return [layer.w_edge @ e for layer in gat.layers]
    bounds = [*range(0, max(size - _BLOCK, 0) + 1, _BLOCK), size]
    terms = np.empty((len(gat.layers), gat.dims.n_heads, size))
    buf = np.empty(d * (size - bounds[-2]))
    for a0, a1 in zip(bounds[:-1], bounds[1:]):
        e = buf[: d * (a1 - a0)].reshape(d, -1)
        np.multiply(w_edge, ei.dist[a0:a1] / graph.scale, out=e)
        e += b_edge
        np.multiply(e, LEAKY_SLOPE, out=e, where=~(e > 0))  # np.where's LeakyReLU, in place
        for li, layer in enumerate(gat.layers):
            np.matmul(layer.w_edge, e, out=terms[li, :, a0:a1])
    return terms


def _row_blocks(ei: EdgeIndex, width: int) -> list:
    """(rows, arcs, (offsets, heads, reverses)) of consecutive blocks of
    whole CSR rows, one starting at each row that holds an arc id multiple
    of ``width``; offsets count from the block's first arc. Only the whole
    graph has reverses, which ``csr_gather``'s gradient reads; a part, None."""
    first = np.searchsorted(ei.start, np.arange(0, ei.src.size, width), side="right") - 1
    bounds = [*np.unique(first), ei.n]
    return [(slice(r0, r1), slice(ei.start[r0], ei.start[r1]),
             (ei.start[r0 : r1 + 1] - ei.start[r0], ei.dst[ei.start[r0] : ei.start[r1]],
              ei.rev if r1 - r0 == ei.n else None))
            for r0, r1 in zip(bounds[:-1], bounds[1:])]


def _aggregate(z, s_src, s_dst, term, part, group: int):
    """(rows, d_units) aggregated heads of the block of rows ``part``: the
    softmax over each row of LeakyReLU(s_src + s_dst[head]) + term, then each
    row's sum of its arcs' weighted heads, ``group`` heads a pass, averaged
    over several passes. ``s_src`` and ``term`` are the block's columns."""
    start, dst, rev = part
    n_heads, n_rows = F.value(s_src).shape
    dh = F.value(z).shape[0] // n_heads
    score = F.leaky_relu(F.csr_repeat(s_src, start) + F.csr_gather(s_dst, dst, rev, start),
                         LEAKY_SLOPE) + term
    alpha = F.csr_softmax(score, start)
    aggr = None
    for k in range(0, n_heads, group):  # (group * dh, arcs) temporaries, one pass at a time
        zj = F.csr_gather(z[k * dh : (k + group) * dh], dst, rev, start).reshape(group, -1, dst.size)
        weight = alpha[k : k + group].reshape(group, 1, -1)
        zj = zj * weight if isinstance(zj, F.Tensor) else np.multiply(zj, weight, out=zj)
        msg = F.transpose(F.csr_sum(zj, start).reshape(-1, n_rows))
        del zj  # before the next pass gathers its own
        aggr = msg if aggr is None else aggr + msg
    return aggr if group == n_heads else aggr * (1.0 / n_heads)


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


def encode_graph(policy: PolicyParams, graph: InstanceGraph, training: bool = False) -> DecodeContext:
    """One encoder pass, then the decoder logit of every arc of the edge
    index, scored ``_BLOCK // 4`` arcs at a time; generic over modes, so a
    lifted policy gives a context on the tape."""
    ei, step = graph.ei, _BLOCK // 4
    proj = _project(policy.dec, gat_embed(policy.gat, graph, training))
    logits = F.concat([
        _pair_logits(policy.dec, proj, ei.src[i : i + step], ei.dst[i : i + step])
        for i in range(0, ei.src.size, step)
    ])
    return DecodeContext(graph, logits)


def encode(policy: PolicyParams, instance: Instance, neighbors: np.ndarray,
           dm: np.ndarray, training: bool = False) -> DecodeContext:
    """``encode_graph`` on the graph of the k-NN rows ``neighbors`` of
    ``dm``, for callers that hold those rather than an ``InstanceGraph``."""
    return encode_graph(policy, make_graph(instance, neighbors, dm), training)


@dataclass(frozen=True)
class Trajectory:
    """One complete construction episode: its actions and their solution.
    ``batch_log_pf`` scores the actions; construction states are action
    prefixes with a unique parent each, so the backward probability is
    identically 1 and needs no field."""

    actions: tuple[int, ...]
    solution: Solution


GREEDY = "greedy"
EPSILON_GREEDY = "epsilon_greedy"
SAMPLE = "sample"


class _Runs:
    """Array state of the decoder's runs on one instance that are still
    going: index ``rows`` among all runs, current node, residual load,
    visited mask and count of visited customers. A run's candidates are the
    slots of its current node's CSR row; a slot is valid when its head is
    unvisited and fits the residual load. The depot is never visited, has
    demand 0 and no arc to itself, and starts every customer row, so this
    rule admits it whenever a run is away from it (no empty routes)."""

    def __init__(self, graph: InstanceGraph, count: int):
        instance, ei = graph.instance, graph.ei
        if ei.dst[ei.start[1:-1]].any():
            raise ValueError("a customer's return to the depot is not an arc of the edge index")
        self.start, self.size = ei.start, np.diff(ei.start)
        self.demand = np.array((0, *instance.demands), dtype=np.int64)
        # each arc's window of the widest row's length over the heads and
        # their demands, padded so that the last row's window is whole
        width = self.size.max()
        head = np.concatenate([ei.dst, np.zeros(width, dtype=np.int64)])
        self.head = sliding_window_view(head, width)
        self.need = sliding_window_view(self.demand[head], width)
        self.capacity, self.n_customers = instance.capacity, instance.n_customers
        self.rows, self.residual = np.arange(count), np.full(count, instance.capacity, dtype=np.int64)
        self.current, self.served = np.zeros((2, count), dtype=np.int64)
        self.visited = np.zeros((count, instance.n_nodes), dtype=bool)

    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """(arc ids, valid mask), each (runs, widest current row): the slots
        of each run's current row in order, valid ones sorted by node."""
        first, size = self.start[self.current], self.size[self.current]
        slot = np.arange(size.max())
        head = self.head[first, : slot.size]
        offset = np.arange(0, self.visited.size, self.visited.shape[1])
        seen = self.visited.reshape(-1)[offset[:, None] + head]
        fits = self.need[first, : slot.size] <= self.residual[:, None]
        return first[:, None] + slot, (slot < size[:, None]) & ~seen & fits

    def apply(self, actions: np.ndarray) -> np.ndarray:
        """Move each run to its action's node; True where it is finished:
        back at the depot with every customer visited."""
        customer = actions != 0
        self.residual = np.where(customer, self.residual - self.demand[actions], self.capacity)
        self.current = actions
        self.visited[np.arange(actions.size), actions] = customer
        self.served += customer
        return ~customer & (self.served == self.n_customers)

    def keep(self, alive: np.ndarray) -> None:
        for name in ("rows", "current", "residual", "visited", "served"):
            setattr(self, name, getattr(self, name)[alive])


def _sample(probs: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """Each row's slot for its draw as ``Generator.choice`` with ``p`` picks it:
    the first whose cdf exceeds the draw, since the cdf never falls and ends at 1."""
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf > draw[:, None]).argmax(axis=1)


def _walk(graph: InstanceGraph, count: int, choose, tape: list | None = None) -> np.ndarray:
    """Advance ``count`` runs on ``_Runs`` state, each until it finishes,
    by the slots that ``choose(step, rows, arc, mask)`` gives the runs still
    going. Returns the (count, 2 * n_customers) arc ids taken, -1 past a
    run's end. A ``tape`` list gets each step's flat entries: the arc id and
    step of each valid slot, the taken slot's entry and the step's runs."""
    runs, dst = _Runs(graph, count), graph.ei.dst
    taken = np.full((count, 2 * graph.instance.n_customers), -1, dtype=np.int64)
    step = n_steps = n_entries = 0
    while runs.rows.size:
        rows = runs.rows
        arc, mask = runs.candidates()
        if not mask.any(axis=1).all():
            raise RuntimeError("no valid action in a non-terminal state")
        pick = choose(step, rows, arc, mask)
        at = np.arange(rows.size)
        taken[rows, step] = chosen = arc[at, pick]
        if tape is not None:
            valid, width = np.flatnonzero(mask), mask.shape[1]
            tape.append((arc.reshape(-1)[valid], n_steps + valid // width,
                         n_entries + np.searchsorted(valid, at * width + pick), rows))
            n_steps, n_entries = n_steps + rows.size, n_entries + valid.size
        step += 1
        done = runs.apply(dst[chosen])
        if done.any():
            runs.keep(~done)
    return taken


def _score(logits, tape: list, count: int):
    """(count,) log-probabilities of the runs of a ``_walk`` tape: one gather
    of the arc logit table, one segment log-sum-exp over the steps and one
    segment sum into the runs, so the autodiff tape grows by O(1) nodes,
    not by steps, and the pair MLP does not run here."""
    no_steps = (np.zeros(0, dtype=np.int64),) * 4  # so that an empty tape still concatenates
    arc, step, pick, owner = (np.concatenate(col) for col in zip(no_steps, *tape))
    logits = F.take(logits, arc)
    steps = F.take(logits, pick) - F.segment_logsumexp(logits, step, len(pick))
    return F.segment_sum(steps, owner, count)


def _decode(ctx: DecodeContext, seeds: list[int], mode: str, epsilon: float,
            tape: list | None = None) -> list[Trajectory]:
    """One rollout per seed, all on one ``_walk``, which records ``tape``.

    Rollout t reads ``default_rng(seeds[t])`` as one stream of doubles, as
    a lone rollout would: a sample takes one draw and compares it with the
    step's cdf (``Generator.choice`` with ``p``), an epsilon test takes one
    before it. A rollout takes at most 2 * n_customers steps, so its largest
    possible share of the stream is drawn up front; in sample mode, column
    ``step``. A step gathers the candidates' logits from the values of
    ``ctx.logits`` by arc id (so a context on the tape serves as well) and
    picks a slot, whose arc's head is the action. Route costs add the taken
    arcs' lengths and loads the demands; the distance matrix is not read.
    """
    if mode not in (GREEDY, EPSILON_GREEDY, SAMPLE):
        raise ValueError(f"unknown mode {mode!r}")
    if not (is_number(epsilon) and 0 <= epsilon <= 1):
        raise ValueError(f"epsilon must be a number in [0, 1], got {epsilon!r}")
    if not seeds:
        raise ValueError("count must be >= 1")
    ei, table = ctx.graph.ei, F.value(ctx.logits)
    count, max_steps = len(seeds), 2 * ctx.graph.instance.n_customers
    per_step = {GREEDY: 0, SAMPLE: 1, EPSILON_GREEDY: 2}[mode]
    draws = np.empty((count, per_step * max_steps))
    for row, s in zip(draws, seeds):  # each stream straight into its row
        np.random.default_rng(s).random(out=row)
    used = np.zeros(count, dtype=np.int64)

    def choose(step, rows, arc, mask):
        valid, probs = np.flatnonzero(mask), np.zeros(mask.shape)
        start = np.searchsorted(valid, np.arange(0, mask.size + 1, mask.shape[1]))  # rows in valid
        probs.reshape(-1)[valid] = F.csr_softmax(table[arc.reshape(-1)[valid]], start)
        pick = _sample(probs, draws[rows, step]) if mode == SAMPLE else probs.argmax(axis=1)
        if mode == EPSILON_GREEDY:
            explore = np.flatnonzero(draws[rows, used[rows]] < epsilon)
            used[rows] += 1
            if explore.size:
                sampled = rows[explore]
                pick[explore] = _sample(probs[explore], draws[sampled, used[sampled]])
                used[sampled] += 1
        return pick

    out, demand = [], (0, *ctx.graph.instance.demands)
    for ids in _walk(ctx.graph, count, choose, tape):
        ids = ids[ids >= 0]
        actions = ei.dst[ids].tolist()
        # route costs from 0.0, return arc last, total from 0: core.make_solution's float order
        routes, total, cost, nodes = [], 0, 0.0, []
        for a, dist in zip(actions, ei.dist[ids].tolist()):
            cost += dist
            if a:
                nodes.append(a)
            else:
                routes.append(Route(tuple(nodes), sum(demand[c] for c in nodes)))
                total, cost, nodes = total + cost, 0.0, []
        out.append(Trajectory(tuple(actions), Solution(tuple(routes), total)))
    return out


def rollout(policy: PolicyParams, instance: Instance, ctx: DecodeContext,
            mode: str = SAMPLE, seed: int = 0, epsilon: float = 0.05) -> Trajectory:
    """Construct one solution of ``instance`` (``ctx.graph.instance``, which
    ``ctx`` was encoded for) starting and ending at the depot.

    ``mode`` picks the argmax (greedy), an epsilon-greedy mixture, or a full
    sample; the actions' ``batch_log_pf`` is the policy's own log-probability,
    not the behaviour distribution's. A batch of one of ``batch_rollouts``. The
    policy is not read, since ``ctx`` carries its logits; ``policy`` and
    ``instance`` stay for the callers that pass them.
    """
    return _decode(ctx, [seed], mode, epsilon)[0]


def batch_rollouts(policy: PolicyParams, instance: Instance, ctx: DecodeContext,
                   count: int, mode: str = SAMPLE, seed: int = 0,
                   epsilon: float = 0.05) -> list[Trajectory]:
    """Independent rollouts with per-index derived seeds (prefix-shared, so a
    larger count extends rather than reshuffles a smaller one).

    All rollouts advance together on ``_Runs`` state, one gather from the
    context's arc logit table per step. Each rollout's arithmetic reads only
    its own rows, so rollout t equals ``rollout(seed=derive_seed(seed, t))``
    bit for bit.
    """
    return _decode(ctx, [derive_seed(seed, t) for t in range(count)], mode, epsilon)


def scored_rollouts(ctx: DecodeContext, count: int, seed: int) -> tuple[list[Trajectory], F.Tensor]:
    """``batch_rollouts(..., count, SAMPLE, seed)`` on ``ctx`` and their
    actions' ``batch_log_pf``, bit for bit, from one walk that records the
    tape that scores them: a lifted ``ctx`` puts the scores on the tape."""
    tape = []
    trajectories = _decode(ctx, [derive_seed(seed, t) for t in range(count)], SAMPLE, 0.0, tape)
    return trajectories, _score(ctx.logits, tape, count)


def best_of(trajectories: list[Trajectory]) -> Trajectory:
    """Minimum-cost trajectory, ties to the earliest index."""
    return min(trajectories, key=lambda t: t.solution.total_cost)


def trajectory_from_solution(solution: Solution) -> tuple[int, ...]:
    """A solution's action sequence: each route's customers, then the depot."""
    return tuple(a for route in solution.routes for a in (*route.nodes, 0))


def batch_log_pf(ctx: DecodeContext, sequences: list) -> F.Tensor:
    """Differentiable forward log-probabilities of action sequences, each
    one whole episode: a rollout's actions or ``trajectory_from_solution``'s.

    Scores from the arc logit table of ``ctx``, which ``encode_graph`` built
    from the policy (a lifted one for gradients). One ``_walk`` forces the
    sequences, each step taking the valid slot whose head (one at most) is
    the next action without reading logits, and its tape is scored as
    ``scored_rollouts`` scores its own. A sequence with an inadmissible
    action, or that ends before or after its episode, raises ValueError.
    Returns a (T,) tensor (an array in array mode).
    """
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    actions = np.full((lengths.size, lengths.max(initial=0) + 1), -1)  # -1 past a sequence's end
    actions[np.arange(actions.shape[1]) < lengths[:, None]] = [a for seq in sequences for a in seq]

    def forced(step, rows, arc, mask):
        hit = mask & (ctx.graph.ei.dst[np.where(mask, arc, 0)] == actions[rows, step, None])
        if not hit.any(axis=1).all():
            raise ValueError("a trajectory takes an action that is not admissible or stops early")
        return hit.argmax(axis=1)

    tape = []
    taken = _walk(ctx.graph, lengths.size, forced, tape)
    if ((taken >= 0).sum(axis=1) != lengths).any():
        raise ValueError("a trajectory goes on after its episode ends")
    return _score(ctx.logits, tape, lengths.size)


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
    e_raw = (graph.dm[src, dst] / graph.scale).reshape(-1, 1)
    e = F.leaky_relu(e_raw @ disc.gat.w_edge + disc.gat.b_edge, LEAKY_SLOPE)
    cat = F.concat([F.take(emb, src), F.take(emb, dst), e], axis=1)
    mlp = disc.edge_mlp
    return F.leaky_relu(cat @ mlp.w1 + mlp.b1, LEAKY_SLOPE) @ mlp.w2 + mlp.b2


def disc_forward(disc: DiscParams, graph: InstanceGraph, training: bool = False) -> np.ndarray:
    """(E,) probabilities in (0, 1) of the arcs of ``graph.ei``, in its
    (src, dst) order, scored ``_BLOCK`` arcs at a time."""
    emb, ei = gat_embed(disc.gat, graph, training), graph.ei
    return F.sigmoid(np.concatenate([
        F.value(disc_edge_logits(disc, emb, graph, ei.src[i : i + _BLOCK], ei.dst[i : i + _BLOCK]))
        for i in range(0, ei.src.size, _BLOCK)
    ]))


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
    n = graph.ei.n
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
#
# A checkpoint is one JSON object. Its envelope (``format_version``,
# ``kind``, ``dims`` and, in a training state, ``epoch``, ``config`` and
# ``history``) is plain JSON. Every array (parameters, batch-norm state,
# Adam's moments) is ``{"shape": [...], "<f8": base64 of its little-endian
# float64 bytes}``, so a round trip is exact by construction and neither
# side formats or parses a float. A file of another version than
# ``CHECKPOINT_VERSION`` is refused. A save writes the whole file under a
# temporary name and renames it over the target, so an interrupted save
# leaves an earlier checkpoint whole.


CHECKPOINT_VERSION = 3
_F8 = "<f8"


class CheckpointError(ValueError):
    pass


class _Payload(dict):
    """A checkpoint's JSON object: a missing field is a CheckpointError naming it."""

    def __missing__(self, key):
        raise CheckpointError(f"checkpoint has no field {key!r}")


def encode_array(arr: np.ndarray) -> dict:
    """The checkpoint entry of one float64 array."""
    data = np.asarray(arr, dtype=_F8).tobytes()
    return {"shape": list(arr.shape), _F8: base64.b64encode(data).decode("ascii")}


def decode_array(raw) -> np.ndarray:
    """The float64 array of one ``encode_array`` entry; an entry that is not
    of that form raises ValueError or TypeError."""
    if not isinstance(raw, dict) or raw.keys() != {"shape", _F8}:
        raise ValueError(f"expected an object with the fields 'shape' and {_F8!r}")
    shape = raw["shape"]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ValueError(f"shape {shape!r} is not a list of non-negative ints")
    data = base64.b64decode(raw[_F8], validate=True)
    if len(data) != 8 * math.prod(shape):
        raise ValueError(f"{len(data)} bytes for shape {shape}")
    return np.frombuffer(data, dtype=_F8).reshape(shape)


def container_payload(kind: str, container: _Params) -> dict:
    return {
        "format_version": CHECKPOINT_VERSION,
        "kind": kind,
        "dims": asdict(container.dims),
        "arrays": {name: encode_array(arr) for name, arr in container.named_arrays()},
        "state": {name: encode_array(arr) for name, arr in container.named_state()},
    }


def read_field(payload: dict, field: str, make):
    """``make(payload[field])``; a value it rejects is a CheckpointError naming the field."""
    raw = payload[field]
    try:
        return make(raw)
    except (TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"bad checkpoint field {field!r}: {exc}") from None


def read_object(payload: dict, field: str) -> dict:
    """``payload[field]``; a value that is not a JSON object is a CheckpointError."""
    values = payload[field]
    if not isinstance(values, dict):
        raise CheckpointError(f"checkpoint field {field!r} is not an object")
    return values


def fill_arrays(named, payload: dict, field: str, what: str) -> None:
    """Copy the decoded ``payload[field][name]`` into the array of each
    (name, array) of ``named``; a field that is not an object, or a missing,
    unknown, undecodable or wrongly shaped entry, is a ``CheckpointError``."""
    values = dict(read_object(payload, field))
    for name, arr in named:
        if name not in values:
            raise CheckpointError(f"checkpoint missing {what} {name}")
        try:
            incoming = decode_array(values.pop(name))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"bad {what} {name}: {exc}") from None
        if incoming.shape != arr.shape:
            raise CheckpointError(
                f"shape mismatch for {what} {name}: checkpoint {incoming.shape}, model {arr.shape}"
            )
        arr[...] = incoming
    if values:
        raise CheckpointError(f"checkpoint has unknown {what} {sorted(values)}")


def fill_container(container: _Params, payload: dict) -> None:
    """Load a ``container_payload``'s arrays and state under the same checks."""
    fill_arrays(container.named_arrays(), payload, "arrays", "parameter")
    fill_arrays(container.named_state(), payload, "state", "state")


def load_payload(path: str, kind: str) -> dict:
    """The checkpoint at ``path``, a JSON object of ``CHECKPOINT_VERSION`` and of ``kind``."""
    with open(path) as fh:
        try:
            payload = json.load(fh, object_hook=_Payload)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise CheckpointError(f"checkpoint is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint is not a JSON object")
    if payload["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload['format_version']}")
    if payload["kind"] != kind:
        raise CheckpointError(f"expected a {kind} checkpoint, got {payload['kind']}")
    return payload


def write_payload(payload: dict, path: str) -> None:
    """Write ``payload`` as JSON to a temporary file beside ``path``, then
    rename it over ``path``: a failed or interrupted save leaves no partial
    file and any earlier checkpoint at ``path`` whole."""
    text = json.dumps(payload)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_policy(policy: PolicyParams, path: str) -> None:
    write_payload(container_payload("policy", policy), path)


def load_policy(path: str) -> PolicyParams:
    payload = load_payload(path, "policy")
    policy = PolicyParams(read_field(payload, "dims", lambda raw: Dims(**raw)), None)
    fill_container(policy, payload)
    return policy
