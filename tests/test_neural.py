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
    Trajectory,
    _SLICE,
    _Runs,
    _decode,
    _pair_logits,
    _project,
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


def straight_line_embed(gat, ei, feats):
    """Independent loop-based re-evaluation of the encoder, one head at a
    time: head k's weights are its slots of the layer's stacked arrays."""
    h = _lrelu(feats.x @ gat.w_node + gat.b_node)
    e = _lrelu((ei.dist / feats.scale)[:, None] @ gat.w_edge + gat.b_edge)
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
        state = apply_action(ctx.graph.instance, state, a, float(np.log(probs[a])))
    return tuple(actions), state.log_pf


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
    slow = straight_line_embed(policy.gat, graph.ei, graph.feats)
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

    def test_array_mode_peak_memory(self):
        # n=200, k=50, E = 11,804: no edge array is wider than (d_units, E)
        # and at most three of those live at once (6.0 MB each); the
        # per-head (E, d_units) layout before it peaked at 25.8 MB here
        graph = instance_graph(generate_uniform(200, 172), 50)
        assert graph.ei.src.size == 11_804
        policy = init_params(Dims(), 100)
        gat_embed(policy.gat, graph)
        tracemalloc.start()
        try:
            gat_embed(policy.gat, graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 21_000_000

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
        assert table.shape == ctx.graph.ei.src.shape and table.size > _SLICE
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
        assert sum(rows) == ctx.graph.ei.src.size > _SLICE
        assert max(rows) <= _SLICE
        rows.clear()
        trajs = batch_rollouts(policy, inst, ctx, 4, SAMPLE, seed=1)
        batch_log_pf(ctx, trajs)
        assert rows == []

    def test_a_candidate_that_is_not_an_arc_raises(self):
        # a path 0-1-2-3: customers 2 and 3 have no depot arc, yet the depot
        # is a candidate whenever a run is away from it
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0)), (1, 1, 1), 10)
        dm = build_distance_matrix(inst)
        policy = init_params(SMALL, 0)
        ctx = encode(policy, inst, np.array([[1], [2], [3], [2]]), dm)
        with pytest.raises(ValueError, match="not an arc"):
            batch_log_pf(ctx, [Trajectory((1, 2, 3, 0), None, 0.0)])
        logits = ctx.logits.copy()
        logits[arc_id(ctx.graph.ei, 1, 0)] = -1e3  # the greedy run goes on to customer 2
        with pytest.raises(ValueError, match="not an arc"):
            rollout(policy, inst, replace(ctx, logits=logits), GREEDY)


class TestCandidates:
    """``_Runs.candidates``: the valid slots of each run's current row."""

    @pytest.mark.parametrize("seed", range(4))
    def test_match_the_reference_valid_actions(self, seed):
        # demands of 5 against a capacity of 10: runs reach full load
        inst = replace(generate_uniform(14, seed), demands=(5,) * 14, capacity=10)
        graph = instance_graph(inst, 4)
        ei = graph.ei
        rng = np.random.default_rng(seed)
        count = 5
        runs = _Runs(graph, count)
        states = [initial_state(inst)] * count
        seen = set()
        while not all(is_terminal(inst, s) for s in states):
            rows = np.array([t for t, s in enumerate(states) if not is_terminal(inst, s)])
            arc, mask = runs.candidates(rows)
            actions = []
            for r, t in enumerate(rows):
                state = states[t]
                ids = arc[r][mask[r]]
                assert np.all(ei.src[ids] == state.current)
                assert ei.dst[ids].tolist() == valid_actions(inst, ei, state)
                seen.add("depot" if state.current == 0 else "full" if state.residual == 0 else "mid")
                actions.append(int(rng.choice(ei.dst[ids])))
            runs.apply(rows, np.array(actions))
            for t, a in zip(rows, actions):
                states[t] = apply_action(inst, states[t], a)
        assert seen == {"depot", "mid", "full"}

    def test_a_greedy_rollout_allocates_no_n_by_n_array(self):
        n = 2000
        inst = generate_uniform(n - 1, 1)
        policy = init_params(SMALL, 1)
        ctx = encode_graph(policy, instance_graph(inst, 20))
        tracemalloc.start()
        try:
            traj = rollout(policy, inst, ctx, GREEDY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.actions) > n
        assert peak < n * n


class TestRollout:
    def test_single_customer_forced(self):
        inst, dm, graph, policy = small_setup(n=1, seed=5, k=1)
        traj = rollout(policy, inst, encode_graph(policy, graph), SAMPLE, seed=0)
        assert traj.actions == (1, 0)
        assert traj.log_pf == 0.0

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
        assert traj.log_pf == pytest.approx(total, abs=1e-12)


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

    @pytest.mark.parametrize("mode", [GREEDY, EPSILON_GREEDY, SAMPLE])
    def test_each_index_is_its_single_rollout(self, mode):
        inst, dm, graph, policy = small_setup(n=12, seed=23, k=4)
        ctx = encode_graph(policy, graph)
        batch = batch_rollouts(policy, inst, ctx, 8, mode, seed=5, epsilon=0.5)
        for t, traj in enumerate(batch):
            single = rollout(policy, inst, ctx, mode, seed=derive_seed(5, t), epsilon=0.5)
            assert traj.actions == single.actions
            assert traj.log_pf == single.log_pf
            assert traj.solution.total_cost == single.solution.total_cost
            replay = step_replay_log_pf(ctx, traj.actions)
            assert traj.log_pf == pytest.approx(replay, abs=1e-12)

    @pytest.mark.parametrize("mode", [GREEDY, EPSILON_GREEDY, SAMPLE])
    def test_matches_the_step_reference(self, mode):
        for seed in range(3):
            inst, dm, graph, policy = small_setup(n=10, seed=seed, k=4)
            ctx = encode_graph(policy, graph)
            trajs = batch_rollouts(policy, inst, ctx, 4, mode, seed=seed, epsilon=0.3)
            for t, traj in enumerate(trajs):
                actions, log_pf = step_reference_rollout(ctx, mode, derive_seed(seed, t), 0.3)
                assert traj.actions == actions
                assert traj.log_pf == log_pf

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
        for traj in batch_rollouts(policy, inst, ctx, 6, mode, seed=2, epsilon=0.5):
            assert traj.actions[1::2] == (0,) * 5
            assert traj.solution.n_routes == 5
            assert check_feasible(inst, traj.solution).feasible
            assert traj.log_pf == pytest.approx(step_replay_log_pf(ctx, traj.actions), abs=1e-12)

    def test_count_beyond_distinct_trajectories_extends_the_prefix(self):
        inst, dm, graph, policy = small_setup(n=2, seed=7, k=2)
        ctx = encode_graph(policy, graph)
        many = batch_rollouts(policy, inst, ctx, 40, SAMPLE, seed=3)
        few = batch_rollouts(policy, inst, ctx, 9, SAMPLE, seed=3)
        assert len({t.actions for t in many}) < 40
        assert [(t.actions, t.log_pf) for t in many[:9]] == [(t.actions, t.log_pf) for t in few]
        for t in (0, 17, 39):
            assert many[t].actions == rollout(policy, inst, ctx, SAMPLE, seed=derive_seed(3, t)).actions


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
        ei, feats = graph.ei, graph.feats
        probs = disc_forward(disc, graph, training=True)
        emb = straight_line_embed(disc.gat, ei, feats)
        e = _lrelu((ei.dist / feats.scale)[:, None] @ disc.gat.w_edge + disc.gat.b_edge)
        cat = np.concatenate([emb[ei.src], emb[ei.dst], e], axis=1)
        mlp = disc.edge_mlp
        logits = _lrelu(cat @ mlp.w1 + mlp.b1) @ mlp.w2 + float(mlp.b2)
        ref = 1 / (1 + np.exp(-logits))
        assert np.abs(probs - ref).max() < 1e-9


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
        ei, feats = graph.ei, graph.feats
        i = next(j for j in range(1, inst.n_nodes) if len(neighbours(ei, j)) < inst.n_nodes - 1)
        far = next(j for j in range(1, inst.n_nodes) if j != i and j not in neighbours(ei, i))
        rest = [c for c in range(1, inst.n_nodes) if c not in (i, far)]
        # an arc off the sparse graph, then a sequence that stops away from the depot
        seqs = [(i, far, 0, *rest, 0), (far, 0, i), tuple(range(1, inst.n_nodes)) + (0,)]
        emb = straight_line_embed(disc.gat, ei, feats)
        mlp = disc.edge_mlp

        def log_sigmoid(a, b):
            e = _lrelu(np.array([[dm.dist[a, b] / feats.scale]]) @ disc.gat.w_edge + disc.gat.b_edge)[0]
            hidden = _lrelu(np.concatenate([emb[a], emb[b], e]) @ mlp.w1 + mlp.b1)
            return np.log(1 / (1 + np.exp(-(hidden @ mlp.w2 + float(mlp.b2)))))

        ref = [sum(log_sigmoid(a, b) for a, b in zip((0,) + s, s)) for s in seqs]
        got = disc_traj_scores_t(disc, gat_embed(disc.gat, graph, True), graph, seqs)
        assert np.allclose(got, ref, rtol=0, atol=1e-9)
        assert np.all(got <= 0)
        lifted = lift(disc)
        on_tape = disc_traj_scores_t(lifted, gat_embed(lifted.gat, graph, True), graph, seqs)
        assert np.allclose(on_tape.data, got, rtol=1e-12, atol=0)


class TestTrajectoryFromSolution:
    def test_replay_matches_actions(self):
        inst, dm, graph, policy = small_setup(n=6, seed=44, k=3)
        traj = rollout(policy, inst, encode_graph(policy, graph), SAMPLE, seed=3)
        assert trajectory_from_solution(traj.solution) == traj.actions


class TestBatchLogPf:
    @pytest.mark.parametrize("n,seed,k", [(6, 1, 3), (11, 2, 4), (16, 3, 5)])
    def test_equals_sum_of_decode_step_log_probs(self, n, seed, k):
        inst, dm, graph, policy = small_setup(n=n, seed=seed, k=k)
        ctx = encode_graph(policy, graph, training=True)
        trajs = batch_rollouts(policy, inst, ctx, 6, SAMPLE, seed=seed)
        lifted = lift(policy)
        got = batch_log_pf(encode_graph(lifted, graph, training=True), trajs)
        ref = [step_replay_log_pf(ctx, t.actions) for t in trajs]
        assert np.allclose(got.data, ref, rtol=0, atol=1e-9)
        assert np.allclose(got.data, [t.log_pf for t in trajs], rtol=0, atol=1e-9)

    def test_rejects_an_inadmissible_action(self):
        inst, dm, graph, policy = small_setup(n=4, seed=5, k=3)
        bad = Trajectory((1, 1, 0), None, 0.0)
        with pytest.raises(ValueError):
            batch_log_pf(encode_graph(policy, graph), [bad])

    def test_rejects_an_arc_off_the_sparse_graph(self):
        inst, dm, graph, policy = small_setup(n=8, seed=4, k=2)
        ctx = encode_graph(policy, graph)
        i = next(j for j in range(1, inst.n_nodes) if len(neighbours(ctx.graph.ei, j)) < inst.n_nodes - 1)
        far = next(j for j in range(1, inst.n_nodes) if j != i and j not in neighbours(ctx.graph.ei, i))
        rest = [c for c in range(1, inst.n_nodes) if c not in (i, far)]
        solution = make_solution(inst, dm, [[i, far]] + [[c] for c in rest])
        traj = Trajectory(trajectory_from_solution(solution), solution, 0.0)
        with pytest.raises(ValueError):
            batch_log_pf(ctx, [traj])

    def test_gradients_match_central_differences(self):
        dims = Dims(n_layers=2, n_heads=2, d_units=4, mlp_hidden=6)
        inst = generate_uniform(6, 9)
        graph = instance_graph(inst, 3)
        policy = init_params(dims, 5)
        policy.log_z[...] = 0.7
        ctx = encode_graph(policy, graph, training=True)
        trajs = batch_rollouts(policy, inst, ctx, 5, SAMPLE, seed=1)
        target = np.linspace(-3.0, -1.0, len(trajs))

        def tb_loss(params):
            # encode and batch_log_pf are generic over modes: raw arrays give the value
            log_pf = batch_log_pf(encode_graph(params, graph, training=True), trajs)
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
