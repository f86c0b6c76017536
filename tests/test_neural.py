import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeflow import autodiff as F
from routeflow import neural
from routeflow.core import (
    Instance, build_distance_matrix, check_feasible, knn_sparsify, make_solution,
)
from routeflow.io import derive_seed, generate_uniform
from routeflow.neural import (
    BN_EPS,
    CheckpointError,
    Dims,
    EPSILON_GREEDY,
    GREEDY,
    SAMPLE,
    _BLOCK,
    _Runs,
    _decode,
    _pair_logits,
    _project,
    _row_blocks,
    backward_grads,
    batch_log_pf,
    batch_rollouts,
    best_of,
    build_edge_index,
    container_payload,
    disc_forward,
    disc_traj_scores_t,
    encode,
    encode_graph,
    gat_embed,
    init_disc,
    init_params,
    instance_graph,
    lift,
    load_policy,
    rollout,
    save_policy,
    scored_rollouts,
    trajectory_from_solution,
)
from reference_decoder import (
    apply_action, arc_id, decode_step, initial_state, is_terminal, neighbours, valid_actions,
)

SMALL = Dims(n_layers=2, n_heads=2, d_units=8, mlp_hidden=16)


def small_setup(n=8, seed=3, k=3):
    inst = generate_uniform(n, seed)
    graph = instance_graph(inst, k)
    policy = init_params(SMALL, 1)
    return inst, graph.dm, graph, policy


def _lrelu(x, slope=0.2):
    return np.where(x > 0, x, slope * x)


def straight_line_embed(gat, ei, x, scale):
    """Independent loop-based re-evaluation of the encoder, one head at a
    time: head k's weights are its slots of the layer's stacked arrays."""
    h = _lrelu(x @ gat.w_node + gat.b_node)
    e = _lrelu((ei.dist / scale)[:, None] @ gat.w_edge + gat.b_edge)
    n_layers = gat.dims.n_layers
    for li, layer in enumerate(gat.layers):
        outs = []
        dh = gat.dims.head_dim(li)
        for k in range(gat.dims.n_heads):
            z = h @ layer.w[:, k * dh : (k + 1) * dh]
            s = _lrelu(z[ei.src] @ layer.a_src[k] + z[ei.dst] @ layer.a_dst[k]) + e @ layer.w_edge[k]
            alpha = np.zeros_like(s)
            for node in range(ei.n):
                rows = np.flatnonzero(ei.src == node)
                ex = np.exp(s[rows] - s[rows].max())
                alpha[rows] = ex / ex.sum()
            msg = np.zeros((ei.n, z.shape[1]))
            for r in range(len(ei.src)):
                msg[ei.src[r]] += alpha[r] * z[ei.dst[r]]
            outs.append(msg)
        if li == n_layers - 1:
            aggr = sum(outs) / len(outs)
        else:
            aggr = np.concatenate(outs, axis=1)
        act = _lrelu(aggr)
        mu = act.mean(axis=0)
        var = ((act - mu) ** 2).mean(axis=0)
        h = h + ((act - mu) / np.sqrt(var + BN_EPS)) * layer.gamma + layer.beta
    return h


def dict_edge_index(rows, dm):
    """Loop-and-dict reference for build_edge_index."""
    dmap = {}
    for i, row in enumerate(rows.tolist()):
        for j in row:
            dmap[(i, j)] = float(dm[i, j])
            dmap[(j, i)] = float(dm[j, i])
    pairs = sorted(dmap)
    return pairs, [dmap[p] for p in pairs]


def rounded(inst):
    """The instance on a 100x grid with rounded distances, which tie often."""
    scale = lambda xy: (100 * xy[0], 100 * xy[1])
    return replace(inst, depot=scale(inst.depot), coords=tuple(map(scale, inst.coords)),
                   distance_mode="rounded")


def step_replay_log_pf(ctx, actions):
    """Sum of log decode_step probabilities along an action sequence."""
    state = initial_state(ctx.graph.instance)
    total = 0.0
    for a in actions:
        total += np.log(decode_step(ctx, state)[a])
        state = apply_action(ctx.graph.instance, state, a)
    return total


def step_reference_rollout(ctx, mode, seed, epsilon):
    """The single-step API driven one state at a time: each draw of the
    rollout's generator is a ``choice`` over decode_step's distribution,
    preceded in epsilon-greedy mode by the exploration test."""
    rng = np.random.default_rng(seed)
    state = initial_state(ctx.graph.instance)
    actions = []
    while not is_terminal(ctx.graph.instance, state):
        probs = decode_step(ctx, state)
        explore = mode == SAMPLE or (mode == EPSILON_GREEDY and rng.random() < epsilon)
        a = int(rng.choice(len(probs), p=probs)) if explore else int(np.argmax(probs))
        actions.append(a)
        state = apply_action(ctx.graph.instance, state, a)
    return tuple(actions)


def compaction_case(case):
    """(instance, graph, policy, count, seed) of a batch whose runs leave the
    decoder's state in a telling order: "one", a batch of one; "same_step",
    where every run finishes on the same step (each customer fills a
    vehicle); "outlives", where one run outlives all the others."""
    if case == "same_step":
        inst = replace(generate_uniform(9, 4), demands=(6,) * 9, capacity=10)
        return inst, instance_graph(inst, 3), init_params(SMALL, 1), 5, 2
    inst, dm, graph, policy = small_setup(n=12, seed=23, k=4)
    return (inst, graph, policy, 1, 5) if case == "one" else (inst, graph, policy, 5, 20)


def assert_finish_order(case, trajs):
    """The batch's runs finish in the order ``compaction_case`` promises."""
    lengths = sorted(len(t.actions) for t in trajs)
    if case == "one":
        assert len(lengths) == 1
    elif case == "same_step":
        assert len(lengths) > 1 and len(set(lengths)) == 1
    else:
        assert lengths[-1] > lengths[-2]


# each mode on the mixed batch of its test, then on every compaction case;
# greedy runs are all alike, so no greedy batch has a run outliving the others
BATCHES = [
    *(pytest.param(mode, None, id=mode) for mode in (GREEDY, EPSILON_GREEDY, SAMPLE)),
    *(pytest.param(mode, case, id=f"{mode}-{case}") for case in ("one", "same_step", "outlives")
      for mode in (GREEDY, EPSILON_GREEDY, SAMPLE) if (mode, case) != (GREEDY, "outlives")),
]


class TestEdgeIndex:
    @pytest.mark.parametrize("n,k,seed", [(1, 1, 0), (6, 2, 1), (15, 4, 2), (40, 10, 3), (40, 39, 4)])
    @pytest.mark.parametrize("is_rounded", [False, True])
    def test_matches_dict_reference(self, n, k, seed, is_rounded):
        inst = generate_uniform(n, seed)
        dm = build_distance_matrix(rounded(inst) if is_rounded else inst)
        rows = knn_sparsify(dm, k)
        ei = build_edge_index(rows, dm)
        pairs, dist = dict_edge_index(rows, dm)
        assert list(zip(ei.src.tolist(), ei.dst.tolist())) == pairs
        assert ei.dist.tolist() == dist

    @pytest.mark.parametrize("n,k,seed", [(1, 1, 0), (6, 2, 1), (15, 4, 2), (40, 10, 3), (40, 39, 4)])
    def test_rows_are_the_nodes_arcs(self, n, k, seed):
        ei = instance_graph(generate_uniform(n, seed), k).ei
        assert ei.start.shape == (ei.n + 1,)
        assert ei.start[0] == 0 and ei.start[-1] == ei.src.size
        for i in range(ei.n):
            row = slice(ei.start[i], ei.start[i + 1])
            assert ei.start[i] < ei.start[i + 1]
            assert np.all(ei.src[row] == i)
            assert ei.dst[row].tolist() == neighbours(ei, i)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
    def test_rev_is_each_arcs_reverse(self, n, k, seed, is_rounded):
        inst = generate_uniform(n, seed)
        dm = build_distance_matrix(rounded(inst) if is_rounded else inst)
        ei = build_edge_index(knn_sparsify(dm, k), dm)
        assert np.array_equal(ei.src[ei.rev], ei.dst)
        assert np.array_equal(ei.dst[ei.rev], ei.src)


class TestInit:
    @pytest.mark.parametrize("fields", [
        {"n_layers": 0}, {"n_heads": 0}, {"n_heads": 2.0}, {"n_heads": True}, {"d_units": "8"},
        {"mlp_hidden": -1},
    ], ids=repr)
    def test_a_bad_dims_field_is_a_value_error(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            Dims(**{"n_heads": 2, "d_units": 8} | fields)

    def test_deterministic(self):
        a = init_params(SMALL, 9)
        b = init_params(SMALL, 9)
        for (na, ta), (nb, tb) in zip(a.named_arrays(), b.named_arrays()):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_each_head_draws_its_weights_in_turn(self):
        # the stacked arrays hold per-head draws (w, a_src, a_dst, w_edge),
        # head after head, so a seed gives the weights it gave per head
        rng = np.random.default_rng(9)
        u = lambda shape, fan_in: rng.uniform(-1 / np.sqrt(fan_in), 1 / np.sqrt(fan_in), size=shape)
        gat, d = init_params(SMALL, 9).gat, SMALL.d_units
        assert np.array_equal(gat.w_node, u((4, d), 4))
        assert np.array_equal(gat.w_edge, u((1, d), 1))
        for li, layer in enumerate(gat.layers):
            dh = SMALL.head_dim(li)
            for k in range(SMALL.n_heads):
                assert np.array_equal(layer.w[:, k * dh : (k + 1) * dh], u((d, dh), d))
                assert np.array_equal(layer.a_src[k], u((dh,), 2 * dh))
                assert np.array_equal(layer.a_dst[k], u((dh,), 2 * dh))
                assert np.array_equal(layer.w_edge[k], u((d,), d))

    def test_log_z_zero(self):
        assert float(init_params(SMALL, 0).log_z) == 0.0

    def test_parameter_count_closed_form(self):
        dims = Dims(n_layers=3, n_heads=8, d_units=64, mlp_hidden=128)
        policy = init_params(dims, 0)
        d, f, hh = 64, 4, 128
        per_head_hidden = d * (d // 8) + 2 * (d // 8) + d
        per_head_final = d * d + 2 * d + d
        gat = (f * d + d) + (1 * d + d)
        gat += 2 * (8 * per_head_hidden + 2 * d)  # two hidden layers + bn
        gat += 8 * per_head_final + 2 * d  # final layer + bn
        dec = (2 * d) * hh + hh + hh + 1
        assert sum(a.size for _, a in policy.named_arrays()) == gat + dec + 1  # +1 for log_z

    def test_biases_zero_weights_bounded(self):
        policy = init_params(SMALL, 4)
        assert np.all(policy.gat.b_node == 0)
        assert np.all(policy.dec.b1 == 0)
        s = 1 / np.sqrt(4)
        assert np.all(np.abs(policy.gat.w_node) <= s)


def assert_matches_straight_line(n, k, dims):
    """Both modes of gat_embed against the oracle, to within float order."""
    graph = instance_graph(generate_uniform(n, 3), k)
    policy = init_params(dims, 1)
    slow = straight_line_embed(policy.gat, graph.ei, graph.x, graph.scale)
    fast = gat_embed(policy.gat, graph, training=True)
    on_tape = gat_embed(lift(policy).gat, graph, training=True)
    assert np.allclose(fast, slow, rtol=0, atol=1e-12)
    assert np.allclose(on_tape.data, slow, rtol=0, atol=1e-12)


class TestGatForward:
    def test_matches_straight_line_oracle(self):
        assert_matches_straight_line(8, 3, SMALL)

    def test_matches_straight_line_oracle_at_n200(self):
        # the default dims: 8 heads in one pass per hidden layer, then 8
        # single-head passes in the final layer
        assert_matches_straight_line(200, None, Dims())

    def test_array_mode_peak_memory(self, traced_peak):
        # n=200, k=50, E = 11,804: edge arrays are (channels, arcs) and
        # hold the arcs of one block, fewer than 2 * _BLOCK, never all E of
        # them; beside the (n_layers, H, E) edge terms a pass holds at most
        # two (d_units, 2 * _BLOCK) arrays' worth
        graph = instance_graph(generate_uniform(200, 172), 50)
        assert graph.ei.src.size == 11_804
        dims = Dims()
        policy = init_params(dims, 100)
        gat_embed(policy.gat, graph)
        terms = dims.n_layers * dims.n_heads * graph.ei.src.size * 8
        bound = terms + 2 * dims.d_units * 2 * _BLOCK * 8
        assert traced_peak(lambda: gat_embed(policy.gat, graph)) < bound

    def test_array_mode_node_side_peak_memory(self, traced_peak):
        # n=1,001, k=20: the final layer's z = (h @ w)^T, (H * d_units, n),
        # is as large as the edge terms; it is filled _BLOCK // 4 nodes at
        # a time, so beside it and the terms a pass holds at most one
        # chunk's h @ w, of fewer than 2 * (_BLOCK // 4) rows, never all of it
        graph = instance_graph(generate_uniform(1000, 11), 20)
        dims = Dims()
        policy = init_params(dims, 0)
        gat_embed(policy.gat, graph)
        terms = dims.n_layers * dims.n_heads * graph.ei.src.size * 8
        z = dims.n_heads * dims.d_units * graph.ei.n * 8
        chunk = 2 * (_BLOCK // 4) * dims.n_heads * dims.d_units * 8
        assert graph.ei.n - 1 > _BLOCK // 4  # more than one chunk
        assert traced_peak(lambda: gat_embed(policy.gat, graph)) < terms + z + chunk

    def test_array_mode_frees_z_before_batch_norm(self, monkeypatch):
        # n=1,001, k=20: at each layer's batch-norm the layer's z and score
        # terms are no longer read, so what the pass holds there stays below
        # the edge terms plus one final-layer z (8.19 MiB)
        graph = instance_graph(generate_uniform(1000, 11), 20)
        dims = Dims()
        policy = init_params(dims, 0)
        terms = dims.n_layers * dims.n_heads * graph.ei.src.size * 8
        z = dims.n_heads * dims.d_units * graph.ei.n * 8
        held, real = [], neural._batchnorm
        monkeypatch.setattr(neural, "_batchnorm",
                            lambda *args: held.append(tracemalloc.get_traced_memory()[0]) or real(*args))
        tracemalloc.start()
        try:
            gat_embed(policy.gat, graph)
        finally:
            tracemalloc.stop()
        assert len(held) == dims.n_layers
        assert max(held) < terms + z

    @pytest.mark.parametrize("training", [False, True])
    def test_array_mode_gives_the_bits_of_the_lifted_tape(self, training):
        # the array-only paths (edge blocks built in place, z by node
        # chunks, score terms summed row by row) against the tape's
        # whole-graph forward; n=200, k=50 spans several edge blocks
        graph = instance_graph(generate_uniform(200, 172), 50)
        assert graph.ei.src.size > 2 * _BLOCK
        policy, disc = init_params(Dims(), 1), init_disc(Dims(), 2)
        arrays = (gat_embed(policy.gat, graph, training), encode_graph(policy, graph, training).logits,
                  disc_forward(disc, graph, training))
        lifted, lifted_disc = lift(policy), lift(disc)
        on_tape = (gat_embed(lifted.gat, graph, training), encode_graph(lifted, graph, training).logits,
                   disc_forward(lifted_disc, graph, training))
        assert isinstance(on_tape[0], F.Tensor)
        for got, want in zip(arrays, on_tape):
            assert np.array_equal(got, F.value(want))

    def test_encode_graph_peaks_below_one_d_units_by_e_array(self, traced_peak):
        # n=400, default k: E = 47,146, so one (d_units, E) float64 array
        # is 24.1 MB; the edge terms, (n_layers, H, E), are 9.1 MB
        graph = instance_graph(generate_uniform(400, 11))
        assert graph.ei.src.size == 47_146
        policy = init_params(Dims(), 100)
        encode_graph(policy, graph)
        peak = traced_peak(lambda: encode_graph(policy, graph))
        assert peak < Dims().d_units * graph.ei.src.size * 8

    def test_forward_and_backward_scatter_nothing(self, monkeypatch):
        # every reduction over the arcs is one reduceat along the CSR rows
        class NoScatter:
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def __call__(self, *args, **kwargs):
                return self.ufunc(*args, **kwargs)

            def __getattr__(self, name):
                if name == "at":
                    raise AssertionError(f"np.{self.ufunc.__name__}.at called")
                return getattr(self.ufunc, name)

        class Numpy:
            def __getattr__(self, name):
                attr = getattr(np, name)
                return NoScatter(attr) if isinstance(attr, np.ufunc) else attr

        monkeypatch.setattr(F, "np", Numpy())
        monkeypatch.setattr(neural, "np", Numpy())
        inst, dm, graph, policy = small_setup()
        gat_embed(policy.gat, graph, training=True)
        lifted = lift(policy)
        F.backward(F.square(gat_embed(lifted.gat, graph, training=True)).sum())
        assert all(t.grad is not None for _, t in lifted.gat.named_arrays())

    def test_duplicate_nodes_identical_rows(self):
        # customers 1 and 2 share location and demand; with a complete graph
        # their neighbourhood multisets match, so their embeddings must too
        inst = Instance(
            (0.5, 0.5),
            ((0.2, 0.8), (0.2, 0.8), (0.9, 0.1)),
            (4, 4, 7),
            50,
        )
        policy = init_params(SMALL, 2)
        emb = gat_embed(policy.gat, instance_graph(inst, 3), training=True)
        assert np.allclose(emb[1], emb[2], atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        inst, dm, graph, policy = small_setup(n=9, seed=6, k=4)
        perm = rng.permutation(np.arange(1, 10))
        permuted = Instance(
            inst.depot,
            tuple(inst.coords[p - 1] for p in perm),
            tuple(inst.demands[p - 1] for p in perm),
            inst.capacity,
        )
        emb = gat_embed(policy.gat, graph, training=True)
        emb2 = gat_embed(policy.gat, instance_graph(permuted, 4), training=True)
        # node mapping: new customer i sits where old customer perm[i-1] was
        for new_idx, old_idx in enumerate(perm, start=1):
            assert np.allclose(emb2[new_idx], emb[old_idx], atol=1e-6)
        assert np.allclose(emb2[0], emb[0], atol=1e-6)

    def test_inference_mode_uses_running_stats(self):
        inst, dm, graph, policy = small_setup()
        a = gat_embed(policy.gat, graph, training=False)
        for layer in policy.gat.layers:
            layer.run_mean[:] = 0.5
        b = gat_embed(policy.gat, graph, training=False)
        assert not np.allclose(a, b)

    def test_running_stats_move_only_on_a_training_forward_on_the_tape(self):
        inst, dm, graph, policy = small_setup()
        stats = lambda: [s.copy() for _, s in policy.named_state()]
        before = stats()
        encode_graph(policy, graph, training=True)
        encode_graph(lift(policy), graph, training=False)
        assert all(np.array_equal(a, b) for a, b in zip(before, stats()))
        encode_graph(lift(policy), graph, training=True)
        assert not any(np.array_equal(a, b) for a, b in zip(before, stats()))


def outputs_at_block(monkeypatch, block: int, graph, training: bool):
    """gat_embed, the encode_graph logit table and disc_forward in array
    mode with ``_BLOCK`` set to ``block``."""
    monkeypatch.setattr(neural, "_BLOCK", block)
    policy, disc = init_params(Dims(), 1), init_disc(Dims(), 2)
    return (gat_embed(policy.gat, graph, training), encode_graph(policy, graph, training).logits,
            disc_forward(disc, graph, training))


class TestRowBlocks:
    """Array mode runs the encoder's edge work on blocks of whole CSR rows
    and its edge-term gemm on aligned arc blocks; at the default dims a
    small block and the default one give the bits of one block over the
    whole graph, which is what the tape runs."""

    @pytest.mark.parametrize("training", [False, True])
    def test_small_blocks_give_the_bits_of_one_block(self, monkeypatch, training):
        # 8, not an odd width: OpenBLAS computes a gemm's rows in groups of
        # up to 8, so a block that starts inside a group may round otherwise
        graph = instance_graph(generate_uniform(40, 9), 4)
        ei = graph.ei
        assert np.diff(ei.start).max() > 8  # the depot's row is wider than a block
        assert len(_row_blocks(ei, 8)) > 10 and ei.src.size % 8  # the last block is partial
        one = outputs_at_block(monkeypatch, ei.src.size, graph, training)
        for got, want in zip(outputs_at_block(monkeypatch, 8, graph, training), one):
            assert np.array_equal(got, want)

    def test_the_default_block_gives_the_bits_of_one_block_at_n200(self, monkeypatch):
        graph = instance_graph(generate_uniform(200, 172), 50)
        assert graph.ei.src.size > 5 * _BLOCK
        blocked = outputs_at_block(monkeypatch, _BLOCK, graph, False)
        for got, want in zip(blocked, outputs_at_block(monkeypatch, graph.ei.src.size, graph, False)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,k,block", [(44, 4, 32), (699, 10, _BLOCK)])
    def test_a_partial_last_z_chunk_gives_the_bits_of_one_block(self, monkeypatch, n, k, block):
        # array mode fills z = (h @ w)^T block // 4 nodes at a time, the
        # last chunk taking the rest; here there are several and the last
        # is partial, while one block over the graph is one chunk
        graph = instance_graph(generate_uniform(n, 9), k)
        step, ei = block // 4, graph.ei
        assert step < ei.n - 1 <= ei.src.size // 4 and ei.n % step > 1
        one = outputs_at_block(monkeypatch, ei.src.size, graph, False)
        for got, want in zip(outputs_at_block(monkeypatch, block, graph, False), one):
            assert np.array_equal(got, want)

    def test_each_block_holds_whole_rows_and_only_the_whole_graph_has_reverses(self):
        ei = instance_graph(generate_uniform(40, 9), 4).ei
        blocks = _row_blocks(ei, 8)
        spans = [rows for rows, _, _ in blocks]
        assert spans[0].start == 0 and spans[-1].stop == ei.n
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))
        for rows, arcs, (start, dst, rev) in blocks:
            assert (arcs.start, arcs.stop) == (ei.start[rows.start], ei.start[rows.stop])
            assert start[0] == 0 and start[-1] == dst.size and rev is None
            assert arcs.stop - arcs.start - (ei.start[rows.start + 1] - ei.start[rows.start]) < 8
        [(rows, arcs, (start, dst, rev))] = _row_blocks(ei, ei.src.size)
        assert rev is ei.rev and np.array_equal(start, ei.start)


class TestDecodeStep:
    def test_single_candidate_probability_one(self):
        inst, dm, graph, policy = small_setup(n=1, seed=2, k=1)
        ctx = encode_graph(policy, graph)
        probs = decode_step(ctx, initial_state(inst))
        assert probs[1] == 1.0
        assert probs.sum() == 1.0

    def test_zero_capacity_forces_depot(self):
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (2.0, 0.0)), (5, 5), 5)
        policy = init_params(SMALL, 0)
        ctx = encode_graph(policy, instance_graph(inst, 2))
        state = apply_action(inst, initial_state(inst), 1)
        assert state.residual == 0
        probs = decode_step(ctx, state)
        assert probs[0] == 1.0
        assert probs[2] == 0.0

    def test_matches_reference_softmax(self):
        inst, dm, graph, policy = small_setup(n=10, seed=8, k=4)
        ctx = encode_graph(policy, graph)
        emb = gat_embed(policy.gat, graph)
        state = initial_state(inst)
        rng = np.random.default_rng(1)
        for _ in range(4):
            probs = decode_step(ctx, state)
            cands = valid_actions(inst, ctx.graph.ei, state)
            # reference: straight-line logits + exp-normalization
            logits = []
            for j in cands:
                pair = np.concatenate([emb[state.current], emb[j]])
                hid = _lrelu(pair @ policy.dec.w1 + policy.dec.b1)
                logits.append(hid @ policy.dec.w2 + float(policy.dec.b2))
            ex = np.exp(np.array(logits))
            ref = ex / ex.sum()
            assert np.abs(probs[cands] - ref).max() < 1e-9
            assert abs(probs.sum() - 1.0) < 1e-9
            state = apply_action(inst, state, int(rng.choice(len(probs), p=probs)))

    def test_masked_entries_exactly_zero(self):
        inst, dm, graph, policy = small_setup(n=12, seed=4, k=3)
        ctx = encode_graph(policy, graph)
        state = initial_state(inst)
        probs = decode_step(ctx, state)
        cands = set(valid_actions(inst, ctx.graph.ei, state))
        for j in range(inst.n_nodes):
            if j not in cands:
                assert probs[j] == 0.0


class TestArcLogits:
    """The per-arc logit table that ``encode`` builds for the decoder."""

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("lifted", [False, True])
    def test_each_entry_is_its_arc_scored_alone(self, lifted, training):
        inst, dm, graph, policy = small_setup(n=120, seed=4, k=30)
        ctx = encode_graph(lift(policy) if lifted else policy, graph, training)
        assert isinstance(ctx.logits, F.Tensor) == lifted
        table = F.value(ctx.logits)
        assert table.shape == ctx.graph.ei.src.shape and table.size > _BLOCK
        # the raw policy's projections: a lifted table holds the raw values
        proj = _project(policy.dec, gat_embed(policy.gat, graph, training))
        for e, (i, j) in enumerate(zip(ctx.graph.ei.src, ctx.graph.ei.dst)):
            assert _pair_logits(policy.dec, proj, np.array([i]), np.array([j]))[0] == table[e]

    def test_encode_is_encode_graph_on_the_graph_of_its_rows(self):
        inst, dm, graph, policy = small_setup(n=30, seed=2, k=6)
        ctx = encode(policy, inst, knn_sparsify(dm, 6), dm, training=True)
        assert np.array_equal(ctx.logits, encode_graph(policy, graph, training=True).logits)

    def test_pair_mlp_scores_each_arc_once_per_encode(self, monkeypatch):
        rows = []
        matvec = F.matvec

        def counted(a, v):
            rows.append(F.value(a).shape[0])
            return matvec(a, v)

        monkeypatch.setattr(F, "matvec", counted)
        inst, dm, graph, policy = small_setup(n=120, seed=4, k=30)
        ctx = encode_graph(lift(policy), graph, training=True)
        assert sum(rows) == ctx.graph.ei.src.size > _BLOCK // 4
        assert max(rows) <= _BLOCK // 4
        rows.clear()
        trajs = batch_rollouts(policy, inst, ctx, 4, SAMPLE, seed=1)
        batch_log_pf(ctx, [t.actions for t in trajs])
        assert rows == []

    def test_a_candidate_that_is_not_an_arc_raises(self):
        # a path 0-1-2-3: customers 2 and 3 have no depot arc, yet the depot
        # is a candidate whenever a run is away from it
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0)), (1, 1, 1), 10)
        dm = build_distance_matrix(inst)
        policy = init_params(SMALL, 0)
        ctx = encode(policy, inst, np.array([[1], [2], [3], [2]]), dm)
        with pytest.raises(ValueError, match="not an arc"):
            batch_log_pf(ctx, [(1, 2, 3, 0)])
        logits = ctx.logits.copy()
        logits[arc_id(ctx.graph.ei, 1, 0)] = -1e3  # the greedy run goes on to customer 2
        with pytest.raises(ValueError, match="not an arc"):
            rollout(policy, inst, replace(ctx, logits=logits), GREEDY)


class TestCandidates:
    """``_Runs.candidates``: the valid slots of each run still going."""

    @pytest.mark.parametrize("seed", range(4))
    def test_match_the_reference_valid_actions(self, seed):
        # demands of 5 against a capacity of 10: runs reach full load
        inst = replace(generate_uniform(14, seed), demands=(5,) * 14, capacity=10)
        graph = instance_graph(inst, 4)
        ei = graph.ei
        rng = np.random.default_rng(seed)
        runs = _Runs(graph, 5)
        states = {t: initial_state(inst) for t in range(5)}  # the runs still going
        seen, finish_steps, step = set(), set(), 0
        while states:
            assert runs.rows.tolist() == list(states)
            arc, mask = runs.candidates()
            actions = []
            for r, state in enumerate(states.values()):
                ids = arc[r][mask[r]]
                assert np.all(ei.src[ids] == state.current)
                assert ei.dst[ids].tolist() == valid_actions(inst, ei, state)
                seen.add("depot" if state.current == 0 else "full" if state.residual == 0 else "mid")
                actions.append(int(rng.choice(ei.dst[ids])))
            done = runs.apply(np.array(actions))
            states = {t: apply_action(inst, s, a) for (t, s), a in zip(states.items(), actions)}
            assert done.tolist() == [is_terminal(inst, s) for s in states.values()]
            runs.keep(~done)
            states = {t: s for t, s in states.items() if not is_terminal(inst, s)}
            step += 1
            if done.any():
                finish_steps.add(step)
        assert seen == {"depot", "mid", "full"}
        assert len(finish_steps) > 1  # runs left the state mid-batch

    @pytest.mark.parametrize("alive", [[0, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 0], [1, 0, 1, 0, 0, 1],
                                       [0, 0, 0, 1, 0, 0]])
    def test_dropping_runs_leaves_the_others_candidates(self, alive):
        inst = replace(generate_uniform(14, 2), demands=(5,) * 14, capacity=10)
        graph = instance_graph(inst, 4)
        rng = np.random.default_rng(7)
        runs = _Runs(graph, 6)
        for _ in range(5):
            arc, mask = runs.candidates()
            runs.apply(np.array([rng.choice(graph.ei.dst[arc[r][mask[r]]]) for r in range(6)]))
        assert 0 < (runs.current == 0).sum() < 6  # rows of the depot's width and narrower ones
        arc, mask = runs.candidates()
        before = [arc[r][mask[r]].tolist() for r in range(6)]
        runs.keep(np.array(alive, dtype=bool))
        kept = np.flatnonzero(alive)
        assert runs.rows.tolist() == kept.tolist()
        arc, mask = runs.candidates()
        assert [arc[r][mask[r]].tolist() for r in range(kept.size)] == [before[t] for t in kept]

    def test_a_greedy_rollout_allocates_no_n_by_n_array(self, traced_peak):
        n = 2000
        inst = generate_uniform(n - 1, 1)
        policy = init_params(SMALL, 1)
        ctx = encode_graph(policy, instance_graph(inst, 20))
        trajs = []
        assert traced_peak(lambda: trajs.append(rollout(policy, inst, ctx, GREEDY))) < n * n
        assert len(trajs[0].actions) > n


class TestRollout:
    def test_single_customer_forced(self):
        inst, dm, graph, policy = small_setup(n=1, seed=5, k=1)
        ctx = encode_graph(policy, graph)
        traj = rollout(policy, inst, ctx, SAMPLE, seed=0)
        assert traj.actions == (1, 0)
        assert batch_log_pf(ctx, [traj.actions])[0] == 0.0

    def test_greedy_deterministic(self):
        inst, dm, graph, policy = small_setup(n=15, seed=9, k=4)
        ctx = encode_graph(policy, graph)
        a = rollout(policy, inst, ctx, GREEDY, seed=1)
        b = rollout(policy, inst, ctx, GREEDY, seed=99)
        assert a.actions == b.actions

    def test_terminal_solution_feasible(self):
        for seed in range(10):
            inst, dm, graph, policy = small_setup(n=14, seed=seed, k=4)
            traj = rollout(policy, inst, encode_graph(policy, graph), SAMPLE, seed=seed)
            assert check_feasible(inst, traj.solution).feasible

    def test_sample_frequencies_match_step_probabilities(self):
        inst, dm, graph, policy = small_setup(n=5, seed=13, k=4)
        ctx = encode_graph(policy, graph)
        probs = decode_step(ctx, initial_state(inst))
        n_draws = 10000
        # one batched decode over the seeds 0..9999; batch_rollouts equals
        # the single rollouts, row by row
        firsts = [t.actions[0] for t in _decode(ctx, list(range(n_draws)), SAMPLE, 0.05)]
        freq = np.bincount(firsts, minlength=inst.n_nodes) / n_draws
        sigma = np.sqrt(probs * (1 - probs) / n_draws)
        assert np.all(np.abs(freq - probs) <= 3 * sigma + 1e-12)

    def test_log_pf_consistent_with_probs(self):
        inst, dm, graph, policy = small_setup(n=7, seed=3, k=3)
        ctx = encode_graph(policy, graph)
        traj = rollout(policy, inst, ctx, SAMPLE, seed=11)
        state = initial_state(inst)
        total = 0.0
        for a in traj.actions:
            probs = decode_step(ctx, state)
            total += np.log(probs[a])
            state = apply_action(inst, state, a)
        assert batch_log_pf(ctx, [traj.actions])[0] == pytest.approx(total, abs=1e-12)


class TestBatchRollouts:
    def test_count_one_equals_single(self):
        inst, dm, graph, policy = small_setup(n=9, seed=21, k=3)
        ctx = encode_graph(policy, graph)
        batch = batch_rollouts(policy, inst, ctx, 1, SAMPLE, seed=4)
        single = rollout(policy, inst, ctx, SAMPLE, seed=derive_seed(4, 0))
        assert batch[0].actions == single.actions

    def test_best_of_monotone_in_count(self):
        inst, dm, graph, policy = small_setup(n=10, seed=30, k=3)
        trajs = batch_rollouts(policy, inst, encode_graph(policy, graph), 100, SAMPLE, seed=6)
        b10 = best_of(trajs[:10]).solution.total_cost
        b100 = best_of(trajs).solution.total_cost
        assert b100 <= b10

    def test_deterministic(self):
        inst, dm, graph, policy = small_setup(n=9, seed=2, k=3)
        ctx = encode_graph(policy, graph)
        a = batch_rollouts(policy, inst, ctx, 5, SAMPLE, seed=8)
        b = batch_rollouts(policy, inst, ctx, 5, SAMPLE, seed=8)
        assert [t.actions for t in a] == [t.actions for t in b]

    @pytest.mark.parametrize("mode,case", BATCHES)
    def test_each_index_is_its_single_rollout(self, mode, case):
        if case is None:
            inst, dm, graph, policy = small_setup(n=12, seed=23, k=4)
            count, seed = 8, 5
        else:
            inst, graph, policy, count, seed = compaction_case(case)
        ctx = encode_graph(policy, graph)
        batch = batch_rollouts(policy, inst, ctx, count, mode, seed=seed, epsilon=0.5)
        if case is not None:
            assert_finish_order(case, batch)
        scores = batch_log_pf(ctx, [t.actions for t in batch])
        for t, traj in enumerate(batch):
            single = rollout(policy, inst, ctx, mode, seed=derive_seed(seed, t), epsilon=0.5)
            assert traj.actions == single.actions
            assert traj.solution.total_cost == single.solution.total_cost
            assert scores[t] == pytest.approx(step_replay_log_pf(ctx, traj.actions), abs=1e-12)

    @pytest.mark.parametrize("mode,case", BATCHES)
    def test_matches_the_step_reference(self, mode, case):
        batches = [] if case is None else [compaction_case(case)]
        for seed in range(3 if case is None else 0):
            inst, dm, graph, policy = small_setup(n=10, seed=seed, k=4)
            batches.append((inst, graph, policy, 4, seed))
        for inst, graph, policy, count, seed in batches:
            ctx = encode_graph(policy, graph)
            trajs = batch_rollouts(policy, inst, ctx, count, mode, seed=seed, epsilon=0.3)
            if case is not None:
                assert_finish_order(case, trajs)
            scores = batch_log_pf(ctx, [t.actions for t in trajs])
            for t, traj in enumerate(trajs):
                assert traj.actions == step_reference_rollout(ctx, mode, derive_seed(seed, t), 0.3)
                assert scores[t] == pytest.approx(step_replay_log_pf(ctx, traj.actions), abs=1e-12)

    @pytest.mark.parametrize("mode", [GREEDY, EPSILON_GREEDY, SAMPLE])
    def test_capacity_tight_instance_forces_the_depot(self, mode):
        # every pair of customers overflows the vehicle, so each visit is
        # followed by a forced return
        inst = Instance(
            (0.5, 0.5),
            ((0.1, 0.2), (0.9, 0.8), (0.3, 0.7), (0.6, 0.1), (0.8, 0.4)),
            (7, 7, 8, 6, 9),
            12,
        )
        dm = build_distance_matrix(inst)
        policy = init_params(SMALL, 3)
        ctx = encode(policy, inst, knn_sparsify(dm, 3), dm)
        trajs = batch_rollouts(policy, inst, ctx, 6, mode, seed=2, epsilon=0.5)
        for traj, score in zip(trajs, batch_log_pf(ctx, [t.actions for t in trajs])):
            assert traj.actions[1::2] == (0,) * 5
            assert traj.solution.n_routes == 5
            assert check_feasible(inst, traj.solution).feasible
            assert score == pytest.approx(step_replay_log_pf(ctx, traj.actions), abs=1e-12)

    def test_count_beyond_distinct_trajectories_extends_the_prefix(self):
        inst, dm, graph, policy = small_setup(n=2, seed=7, k=2)
        ctx = encode_graph(policy, graph)
        many = batch_rollouts(policy, inst, ctx, 40, SAMPLE, seed=3)
        few = batch_rollouts(policy, inst, ctx, 9, SAMPLE, seed=3)
        assert len({t.actions for t in many}) < 40
        assert many[:9] == few
        for t in (0, 17, 39):
            assert many[t].actions == rollout(policy, inst, ctx, SAMPLE, seed=derive_seed(3, t)).actions

    @pytest.mark.parametrize("epsilon", [float("nan"), -1.0, 7.0, "0.1", None], ids=repr)
    def test_an_epsilon_outside_the_unit_interval_is_refused(self, epsilon):
        # unchecked, nan and -1.0 would decode greedily and 7.0 sample every step
        inst, dm, graph, policy = small_setup(n=6, seed=2, k=3)
        ctx = encode_graph(policy, graph)
        for mode in (GREEDY, EPSILON_GREEDY, SAMPLE):
            with pytest.raises(ValueError, match="epsilon"):
                rollout(policy, inst, ctx, mode, seed=1, epsilon=epsilon)
            with pytest.raises(ValueError, match="epsilon"):
                batch_rollouts(policy, inst, ctx, 3, mode, seed=1, epsilon=epsilon)


class TestScoredRollouts:
    """``scored_rollouts``: ``batch_rollouts`` in sample mode and their
    ``batch_log_pf``, from one walk."""

    @pytest.mark.parametrize("case", ["one", "same_step", "outlives", "capacity_tight"])
    def test_equals_batch_rollouts_and_their_batch_log_pf(self, case):
        if case == "capacity_tight":  # each visit is followed by a forced return
            inst = Instance((0.5, 0.5), ((0.1, 0.2), (0.9, 0.8), (0.3, 0.7), (0.6, 0.1), (0.8, 0.4)),
                            (7, 7, 8, 6, 9), 12)
            graph, policy, count, seed = instance_graph(inst, 3), init_params(SMALL, 3), 6, 2
        else:
            inst, graph, policy, count, seed = compaction_case(case)
        lifted = [lift(policy), lift(policy)]
        ctxs = [encode_graph(params, graph, training=True) for params in lifted]
        trajs, got = scored_rollouts(ctxs[0], count, seed)
        assert trajs == batch_rollouts(policy, inst, ctxs[1], count, SAMPLE, seed=seed)
        if case != "capacity_tight":
            assert_finish_order(case, trajs)
        want = batch_log_pf(ctxs[1], [t.actions for t in trajs])
        assert [v.hex() for v in got.data.tolist()] == [v.hex() for v in want.data.tolist()]
        for log_pf in (got, want):
            F.backward(F.mean(F.square(log_pf + 2.0)))
        grads = [backward_grads(params) for params in lifted]
        for name, grad in grads[0].items():
            assert np.array_equal(grad, grads[1][name]), name
        assert np.abs(grads[0]["dec.w2"]).max() > 0

    def test_count_below_one_is_refused(self):
        inst, dm, graph, policy = small_setup()
        with pytest.raises(ValueError, match="count"):
            scored_rollouts(encode_graph(policy, graph), 0, 1)


class TestDiscriminator:
    def test_outputs_strictly_inside_unit_interval(self):
        inst, dm, graph, _ = small_setup(n=12, seed=17, k=4)
        disc = init_disc(SMALL, 5)
        probs = disc_forward(disc, graph)
        assert probs.shape == graph.ei.src.shape
        assert np.all(probs > 0)
        assert np.all(probs < 1)
        assert not np.any(np.isnan(probs))

    def test_directed_scores_may_differ_but_finite(self):
        inst, dm, graph, _ = small_setup(n=10, seed=18, k=4)
        disc = init_disc(SMALL, 6)
        probs = disc_forward(disc, graph)
        ei = graph.ei
        (back,) = np.flatnonzero((ei.src == ei.dst[3]) & (ei.dst == ei.src[3]))
        fwd, bwd = probs[3], probs[back]
        assert np.isfinite(fwd) and np.isfinite(bwd)

    def test_matches_straight_line_reevaluation(self):
        inst, dm, graph, _ = small_setup(n=9, seed=19, k=3)
        disc = init_disc(SMALL, 7)
        ei, scale = graph.ei, graph.scale
        probs = disc_forward(disc, graph, training=True)
        emb = straight_line_embed(disc.gat, ei, graph.x, scale)
        e = _lrelu((ei.dist / scale)[:, None] @ disc.gat.w_edge + disc.gat.b_edge)
        cat = np.concatenate([emb[ei.src], emb[ei.dst], e], axis=1)
        mlp = disc.edge_mlp
        logits = _lrelu(cat @ mlp.w1 + mlp.b1) @ mlp.w2 + float(mlp.b2)
        ref = 1 / (1 + np.exp(-logits))
        assert np.abs(probs - ref).max() < 1e-9

    def test_peak_memory_at_n400(self, traced_peak):
        # E = 46,606: the whole-graph (E, 3 * d_units) concat and (E,
        # mlp_hidden) hidden array peaked at 279 MB; a block of arcs at a time
        graph = instance_graph(generate_uniform(400, 3))
        assert graph.ei.src.size == 46_606
        disc = init_disc(Dims(), 2)
        disc_forward(disc, graph)
        assert traced_peak(lambda: disc_forward(disc, graph)) < 40_000_000


class TestDiscScore:
    """Trajectory scores under the discriminator (``disc_traj_scores_t``)."""

    def _tiny(self, logit=None):
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), (1, 1), 5)
        disc = init_disc(SMALL, 5)
        if logit is not None:  # the same logit on every arc
            disc.edge_mlp.w2[:] = 0.0
            disc.edge_mlp.b2[...] = logit
        graph = instance_graph(inst, 2)
        return disc, gat_embed(disc.gat, graph, training=True), graph

    def test_two_arc_value(self):
        eps = 1e-3
        disc, emb, graph = self._tiny(logit=np.log((1 - eps) / eps))
        (score,) = disc_traj_scores_t(disc, emb, graph, [(1, 0)])
        assert score == pytest.approx(2 * np.log(1 - eps))

    def test_reward_bounded_by_one(self):
        disc, emb, graph = self._tiny()
        scores = disc_traj_scores_t(disc, emb, graph, [(1, 0, 2, 0), (2, 1, 0)])
        assert np.all(scores <= 0)
        assert np.all(np.exp(scores) <= 1)

    def test_matches_straight_line_log_sigmoid_sum(self):
        inst, dm, graph, _ = small_setup(n=8, seed=4, k=2)
        disc = init_disc(SMALL, 7)
        ei, scale = graph.ei, graph.scale
        i = next(j for j in range(1, inst.n_nodes) if len(neighbours(ei, j)) < inst.n_nodes - 1)
        far = next(j for j in range(1, inst.n_nodes) if j != i and j not in neighbours(ei, i))
        rest = [c for c in range(1, inst.n_nodes) if c not in (i, far)]
        # an arc off the sparse graph, then a sequence that stops away from the depot
        seqs = [(i, far, 0, *rest, 0), (far, 0, i), tuple(range(1, inst.n_nodes)) + (0,)]
        emb = straight_line_embed(disc.gat, ei, graph.x, scale)
        mlp = disc.edge_mlp

        def log_sigmoid(a, b):
            e = _lrelu(np.array([[dm[a, b] / scale]]) @ disc.gat.w_edge + disc.gat.b_edge)[0]
            hidden = _lrelu(np.concatenate([emb[a], emb[b], e]) @ mlp.w1 + mlp.b1)
            return np.log(1 / (1 + np.exp(-(hidden @ mlp.w2 + float(mlp.b2)))))

        ref = [sum(log_sigmoid(a, b) for a, b in zip((0,) + s, s)) for s in seqs]
        got = disc_traj_scores_t(disc, gat_embed(disc.gat, graph, True), graph, seqs)
        assert np.allclose(got, ref, rtol=0, atol=1e-9)
        assert np.all(got <= 0)
        lifted = lift(disc)
        on_tape = disc_traj_scores_t(lifted, gat_embed(lifted.gat, graph, True), graph, seqs)
        assert np.allclose(on_tape.data, got, rtol=1e-12, atol=0)


class TestDecodedSolutions:
    @pytest.mark.parametrize("is_rounded", [False, True])
    @pytest.mark.parametrize("mode", [GREEDY, EPSILON_GREEDY, SAMPLE])
    def test_each_is_make_solution_of_its_routes_bit_for_bit(self, mode, is_rounded):
        inst = generate_uniform(30, 8)
        inst = rounded(inst) if is_rounded else inst
        graph = instance_graph(inst, 6)
        policy = init_params(SMALL, 2)
        trajs = batch_rollouts(policy, inst, encode_graph(policy, graph), 8, mode, seed=3, epsilon=0.5)
        if mode != GREEDY:  # greedy runs are all alike
            assert len({len(t.actions) for t in trajs}) > 1
        for traj in trajs:
            ends = [i for i, a in enumerate(traj.actions) if a == 0]
            routes = [traj.actions[i + 1 : j] for i, j in zip([-1] + ends, ends)]
            ref = make_solution(inst, graph.dm, routes)
            # the depot has no arc to itself, so no route is empty and the
            # solution gives back the actions: a sequence stands for its trajectory
            assert trajectory_from_solution(traj.solution) == traj.actions
            assert float(traj.solution.total_cost).hex() == float(ref.total_cost).hex()
            # repr tells Python ints from numpy ones
            assert repr([(r.nodes, r.load) for r in traj.solution.routes]) == repr(
                [(r.nodes, r.load) for r in ref.routes])


class TestTrajectoryFromSolution:
    def test_replay_matches_actions(self):
        inst, dm, graph, policy = small_setup(n=6, seed=44, k=3)
        traj = rollout(policy, inst, encode_graph(policy, graph), SAMPLE, seed=3)
        assert trajectory_from_solution(traj.solution) == traj.actions


class TestBatchLogPf:
    @pytest.mark.parametrize("batch", [
        *(pytest.param((n, seed, k), id=f"{n}-{seed}-{k}") for n, seed, k in [(6, 1, 3), (11, 2, 4), (16, 3, 5)]),
        *(pytest.param(case, id=case) for case in ("one", "same_step", "outlives", "lengths")),
    ])
    def test_equals_sum_of_decode_step_log_probs(self, batch):
        if isinstance(batch, tuple) or batch == "lengths":
            n, seed, k = (16, 3, 5) if batch == "lengths" else batch
            inst, dm, graph, policy = small_setup(n=n, seed=seed, k=k)
            count = 6
        else:
            inst, graph, policy, count, seed = compaction_case(batch)
        ctx = encode_graph(policy, graph, training=True)
        trajs = batch_rollouts(policy, inst, ctx, count, SAMPLE, seed=seed)
        seqs = [t.actions for t in trajs]
        if batch == "lengths":
            # one route per customer, far longer than the sampled sequences,
            # amid them and last
            alone = tuple(a for c in range(1, inst.n_nodes) for a in (c, 0))
            assert len(alone) > 1.2 * max(map(len, seqs))
            seqs = seqs[:3] + [alone] + seqs[3:] + [alone]
        elif isinstance(batch, str):
            assert_finish_order(batch, trajs)
        lifted = lift(policy)
        got = batch_log_pf(encode_graph(lifted, graph, training=True), seqs)
        ref = [step_replay_log_pf(ctx, seq) for seq in seqs]
        assert np.allclose(got.data, ref, rtol=0, atol=1e-9)

    def test_rejects_an_inadmissible_action(self):
        inst, dm, graph, policy = small_setup(n=4, seed=5, k=3)
        with pytest.raises(ValueError):
            batch_log_pf(encode_graph(policy, graph), [(1, 1, 0)])

    def test_rejects_an_arc_off_the_sparse_graph(self):
        inst, dm, graph, policy = small_setup(n=8, seed=4, k=2)
        ctx = encode_graph(policy, graph)
        i = next(j for j in range(1, inst.n_nodes) if len(neighbours(ctx.graph.ei, j)) < inst.n_nodes - 1)
        far = next(j for j in range(1, inst.n_nodes) if j != i and j not in neighbours(ctx.graph.ei, i))
        rest = [c for c in range(1, inst.n_nodes) if c not in (i, far)]
        solution = make_solution(inst, dm, [[i, far]] + [[c] for c in rest])
        with pytest.raises(ValueError):
            batch_log_pf(ctx, [trajectory_from_solution(solution)])

    @pytest.mark.parametrize("cut", ["first_route", "no_return", "one_more", "empty"])
    def test_rejects_a_sequence_that_is_not_one_whole_episode(self, cut):
        # unchecked, each would be scored as the prefix it is
        inst, dm, graph, policy = small_setup(n=8, seed=6, k=4)
        ctx = encode_graph(policy, graph)
        whole = [t.actions for t in batch_rollouts(policy, inst, ctx, 3, SAMPLE, seed=1)]
        actions = whole[1]
        assert 0 in actions[:-1]  # more than one route
        seq = {"first_route": actions[: actions.index(0) + 1], "no_return": actions[:-1],
               "one_more": actions + (actions[0],), "empty": ()}[cut]
        with pytest.raises(ValueError, match="stops early" if cut != "one_more" else "goes on"):
            batch_log_pf(ctx, [whole[0], seq, whole[2]])
        assert np.all(np.isfinite(batch_log_pf(ctx, whole)))

    def test_gradients_match_central_differences(self):
        dims = Dims(n_layers=2, n_heads=2, d_units=4, mlp_hidden=6)
        inst = generate_uniform(6, 9)
        graph = instance_graph(inst, 3)
        policy = init_params(dims, 5)
        policy.log_z[...] = 0.7
        ctx = encode_graph(policy, graph, training=True)
        seqs = [t.actions for t in batch_rollouts(policy, inst, ctx, 5, SAMPLE, seed=1)]
        target = np.linspace(-3.0, -1.0, len(seqs))

        def tb_loss(params):
            # encode and batch_log_pf are generic over modes: raw arrays give the value
            log_pf = batch_log_pf(encode_graph(params, graph, training=True), seqs)
            return F.mean(F.square(params.log_z + log_pf - target))

        lifted = lift(policy)
        F.backward(tb_loss(lifted))
        grads = backward_grads(lifted)
        arrays = dict(policy.named_arrays())
        rng = np.random.default_rng(0)
        eps = 1e-6
        for name in ("dec.w1", "dec.b1", "dec.w2", "dec.b2", "log_z", "gat.layers.0.w",
                     "gat.layers.1.a_dst"):
            arr = arrays[name]
            for flat in rng.choice(arr.size, size=min(4, arr.size), replace=False):
                idx = np.unravel_index(flat, arr.shape)
                keep = arr[idx]
                arr[idx] = keep + eps
                hi = float(tb_loss(policy))
                arr[idx] = keep - eps
                lo = float(tb_loss(policy))
                arr[idx] = keep
                fd = (hi - lo) / (2 * eps)
                assert grads[name][idx] == pytest.approx(fd, rel=1e-5, abs=1e-8), (name, idx)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        policy = init_params(SMALL, 33)
        policy.gat.layers[0].run_mean[:] = 0.25
        path = str(tmp_path / "p.json")
        save_policy(policy, path)
        loaded = load_policy(path)
        for (na, a), (nb, b) in zip(policy.named_arrays(), loaded.named_arrays()):
            assert na == nb
            assert np.array_equal(a, b)
        assert np.array_equal(policy.gat.layers[0].run_mean, loaded.gat.layers[0].run_mean)

    def test_dim_mismatch_rejected(self, tmp_path):
        policy = init_params(SMALL, 1)
        path = str(tmp_path / "p.json")
        save_policy(policy, path)
        with open(path) as fh:
            payload = json.load(fh)
        payload["dims"]["d_units"] = 16
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(CheckpointError):
            load_policy(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(container_payload("discriminator", init_disc(SMALL, 1))))
        with pytest.raises(CheckpointError):
            load_policy(path)
