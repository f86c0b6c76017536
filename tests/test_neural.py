import os

import numpy as np
import pytest

from routeflow import autodiff as F
from routeflow.core import (
    Instance, SparseGraph, build_distance_matrix, check_feasible, knn_sparsify, make_solution,
)
from routeflow.io import derive_seed, generate_uniform
from routeflow.neural import (
    BN_EPS,
    CheckpointError,
    Dims,
    EPSILON_GREEDY,
    EdgeProbMatrix,
    GREEDY,
    SAMPLE,
    Trajectory,
    apply_action,
    backward_grads,
    batch_log_pf,
    batch_rollouts,
    best_of,
    build_edge_index,
    decode_step,
    disc_forward,
    disc_score,
    encode,
    gat_forward,
    init_disc,
    init_params,
    initial_state,
    is_terminal,
    lift_policy,
    load_policy,
    node_features,
    parameter_count,
    rollout,
    save_policy,
    trajectory_from_solution,
    valid_actions,
)

SMALL = Dims(n_layers=2, n_heads=2, d_units=8, mlp_hidden=16)


def small_setup(n=8, seed=3, k=3):
    inst = generate_uniform(n, seed)
    dm = build_distance_matrix(inst)
    graph = knn_sparsify(dm, k)
    policy = init_params(SMALL, 1)
    return inst, dm, graph, policy


def _lrelu(x, slope=0.2):
    return np.where(x > 0, x, slope * x)


def straight_line_embed(gat, ei, feats):
    """Independent loop-based re-evaluation of the encoder."""
    h = _lrelu(feats.x @ gat.w_node + gat.b_node)
    e = _lrelu((ei.dist / feats.scale)[:, None] @ gat.w_edge + gat.b_edge)
    n_layers = gat.dims.n_layers
    for li, layer in enumerate(gat.layers):
        outs = []
        for head in layer.heads:
            z = h @ head.w
            s = _lrelu(z[ei.src] @ head.a_src + z[ei.dst] @ head.a_dst) + e @ head.w_edge
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


def dict_edge_index(graph):
    """Loop-and-dict reference for build_edge_index."""
    dmap = {}
    for i in range(graph.n):
        for j, dij in zip(graph.neighbors[i], graph.edge_dist[i]):
            dmap[(int(i), int(j))] = float(dij)
            dmap[(int(j), int(i))] = float(dij)
    pairs = sorted(dmap)
    adj = tuple(tuple(j for (a, j) in pairs if a == i) for i in range(graph.n))
    return pairs, [dmap[p] for p in pairs], adj


def step_replay_log_pf(policy, ctx, actions):
    """Sum of log decode_step probabilities along an action sequence."""
    state = initial_state(ctx.instance)
    total = 0.0
    for a in actions:
        total += np.log(decode_step(policy, ctx, state)[a])
        state = apply_action(ctx.instance, state, a)
    return total


def step_reference_rollout(policy, ctx, mode, seed, epsilon):
    """The single-step API driven one state at a time: each draw of the
    rollout's generator is a ``choice`` over decode_step's distribution,
    preceded in epsilon-greedy mode by the exploration test."""
    rng = np.random.default_rng(seed)
    state = initial_state(ctx.instance)
    actions = []
    while not is_terminal(ctx.instance, state):
        probs = decode_step(policy, ctx, state)
        explore = mode == SAMPLE or (mode == EPSILON_GREEDY and rng.random() < epsilon)
        a = int(rng.choice(len(probs), p=probs)) if explore else int(np.argmax(probs))
        actions.append(a)
        state = apply_action(ctx.instance, state, a, float(np.log(probs[a])))
    return tuple(actions), state.log_pf


class TestEdgeIndex:
    @pytest.mark.parametrize("n,k,seed", [(1, 1, 0), (6, 2, 1), (15, 4, 2), (40, 10, 3), (40, 39, 4)])
    @pytest.mark.parametrize("skew", [False, True])
    def test_matches_dict_reference(self, n, k, seed, skew):
        graph = knn_sparsify(build_distance_matrix(generate_uniform(n, seed)), k)
        if skew:  # (i, j) and (j, i) disagree: the arc written last wins
            noise = np.random.default_rng(seed).random(graph.edge_dist.shape)
            graph = SparseGraph(graph.neighbors.copy(), graph.edge_dist + noise, k)
        ei = build_edge_index(graph)
        pairs, dist, adj = dict_edge_index(graph)
        assert list(zip(ei.src.tolist(), ei.dst.tolist())) == pairs
        assert ei.dist.tolist() == dist
        assert ei.adj == adj
        assert ei.lookup == {p: e for e, p in enumerate(pairs)}


class TestInit:
    def test_deterministic(self):
        a = init_params(SMALL, 9)
        b = init_params(SMALL, 9)
        for (na, ta), (nb, tb) in zip(a.named_arrays(), b.named_arrays()):
            assert na == nb
            assert np.array_equal(ta, tb)

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
        assert parameter_count(policy) == gat + dec + 1  # +1 for log_z

    def test_biases_zero_weights_bounded(self):
        policy = init_params(SMALL, 4)
        assert np.all(policy.gat.b_node == 0)
        assert np.all(policy.dec.b1 == 0)
        s = 1 / np.sqrt(4)
        assert np.all(np.abs(policy.gat.w_node) <= s)


class TestGatForward:
    def test_matches_straight_line_oracle(self):
        inst, dm, graph, policy = small_setup()
        ei = build_edge_index(graph)
        feats = node_features(inst)
        fast = gat_forward(policy.gat, graph, feats, training=True)
        slow = straight_line_embed(policy.gat, ei, feats)
        assert np.allclose(fast, slow, atol=1e-9)

    def test_duplicate_nodes_identical_rows(self):
        # customers 1 and 2 share location and demand; with a complete graph
        # their neighbourhood multisets match, so their embeddings must too
        inst = Instance(
            (0.5, 0.5),
            ((0.2, 0.8), (0.2, 0.8), (0.9, 0.1)),
            (4, 4, 7),
            50,
        )
        dm = build_distance_matrix(inst)
        graph = knn_sparsify(dm, 3)
        policy = init_params(SMALL, 2)
        emb = gat_forward(policy.gat, graph, node_features(inst), training=True)
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
        dm2 = build_distance_matrix(permuted)
        graph2 = knn_sparsify(dm2, 4)
        emb = gat_forward(policy.gat, graph, node_features(inst), training=True)
        emb2 = gat_forward(policy.gat, graph2, node_features(permuted), training=True)
        # node mapping: new customer i sits where old customer perm[i-1] was
        for new_idx, old_idx in enumerate(perm, start=1):
            assert np.allclose(emb2[new_idx], emb[old_idx], atol=1e-6)
        assert np.allclose(emb2[0], emb[0], atol=1e-6)

    def test_inference_mode_uses_running_stats(self):
        inst, dm, graph, policy = small_setup()
        feats = node_features(inst)
        a = gat_forward(policy.gat, graph, feats, training=False)
        for layer in policy.gat.layers:
            layer.run_mean[:] = 0.5
        b = gat_forward(policy.gat, graph, feats, training=False)
        assert not np.allclose(a, b)


class TestDecodeStep:
    def test_single_candidate_probability_one(self):
        inst, dm, graph, policy = small_setup(n=1, seed=2, k=1)
        ctx = encode(policy, inst, graph, dm)
        probs = decode_step(policy, ctx, initial_state(inst))
        assert probs[1] == 1.0
        assert probs.sum() == 1.0

    def test_zero_capacity_forces_depot(self):
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (2.0, 0.0)), (5, 5), 5)
        dm = build_distance_matrix(inst)
        graph = knn_sparsify(dm, 2)
        policy = init_params(SMALL, 0)
        ctx = encode(policy, inst, graph, dm)
        state = apply_action(inst, initial_state(inst), 1)
        assert state.residual == 0
        probs = decode_step(policy, ctx, state)
        assert probs[0] == 1.0
        assert probs[2] == 0.0

    def test_matches_reference_softmax(self):
        inst, dm, graph, policy = small_setup(n=10, seed=8, k=4)
        ctx = encode(policy, inst, graph, dm)
        state = initial_state(inst)
        rng = np.random.default_rng(1)
        for _ in range(4):
            probs = decode_step(policy, ctx, state)
            cands = valid_actions(inst, ctx.ei, state)
            # reference: straight-line logits + exp-normalization
            logits = []
            for j in cands:
                pair = np.concatenate([ctx.emb[state.current], ctx.emb[j]])
                hid = _lrelu(pair @ policy.dec.w1 + policy.dec.b1)
                logits.append(hid @ policy.dec.w2 + float(policy.dec.b2))
            ex = np.exp(np.array(logits))
            ref = ex / ex.sum()
            assert np.abs(probs[cands] - ref).max() < 1e-9
            assert abs(probs.sum() - 1.0) < 1e-9
            state = apply_action(inst, state, int(rng.choice(len(probs), p=probs)))

    def test_masked_entries_exactly_zero(self):
        inst, dm, graph, policy = small_setup(n=12, seed=4, k=3)
        ctx = encode(policy, inst, graph, dm)
        state = initial_state(inst)
        probs = decode_step(policy, ctx, state)
        cands = set(valid_actions(inst, ctx.ei, state))
        for j in range(inst.n_nodes):
            if j not in cands:
                assert probs[j] == 0.0


class TestRollout:
    def test_single_customer_forced(self):
        inst, dm, graph, policy = small_setup(n=1, seed=5, k=1)
        traj = rollout(policy, inst, graph, SAMPLE, seed=0)
        assert traj.actions == (1, 0)
        assert traj.log_pf == 0.0
        assert traj.log_pb == 0.0

    def test_greedy_deterministic(self):
        inst, dm, graph, policy = small_setup(n=15, seed=9, k=4)
        a = rollout(policy, inst, graph, GREEDY, seed=1)
        b = rollout(policy, inst, graph, GREEDY, seed=99)
        assert a.actions == b.actions

    def test_terminal_solution_feasible(self):
        for seed in range(10):
            inst, dm, graph, policy = small_setup(n=14, seed=seed, k=4)
            traj = rollout(policy, inst, graph, SAMPLE, seed=seed)
            assert check_feasible(inst, traj.solution).feasible

    def test_sample_frequencies_match_step_probabilities(self):
        inst, dm, graph, policy = small_setup(n=5, seed=13, k=4)
        ctx = encode(policy, inst, graph, dm)
        probs = decode_step(policy, ctx, initial_state(inst))
        n_draws = 10000
        counts = np.zeros(inst.n_nodes)
        for t in range(n_draws):
            first = rollout(policy, inst, ctx, SAMPLE, seed=t).actions[0]
            counts[first] += 1
        freq = counts / n_draws
        sigma = np.sqrt(probs * (1 - probs) / n_draws)
        assert np.all(np.abs(freq - probs) <= 3 * sigma + 1e-12)

    def test_log_pf_consistent_with_probs(self):
        inst, dm, graph, policy = small_setup(n=7, seed=3, k=3)
        ctx = encode(policy, inst, graph, dm)
        traj = rollout(policy, inst, ctx, SAMPLE, seed=11)
        state = initial_state(inst)
        total = 0.0
        for a in traj.actions:
            probs = decode_step(policy, ctx, state)
            total += np.log(probs[a])
            state = apply_action(inst, state, a)
        assert traj.log_pf == pytest.approx(total, abs=1e-12)


class TestBatchRollouts:
    def test_count_one_equals_single(self):
        inst, dm, graph, policy = small_setup(n=9, seed=21, k=3)
        batch = batch_rollouts(policy, inst, graph, 1, SAMPLE, seed=4)
        single = rollout(policy, inst, graph, SAMPLE, seed=derive_seed(4, 0))
        assert batch[0].actions == single.actions

    def test_best_of_monotone_in_count(self):
        inst, dm, graph, policy = small_setup(n=10, seed=30, k=3)
        trajs = batch_rollouts(policy, inst, graph, 100, SAMPLE, seed=6)
        b10 = best_of(trajs[:10]).solution.total_cost
        b100 = best_of(trajs).solution.total_cost
        assert b100 <= b10

    def test_deterministic(self):
        inst, dm, graph, policy = small_setup(n=9, seed=2, k=3)
        a = batch_rollouts(policy, inst, graph, 5, SAMPLE, seed=8)
        b = batch_rollouts(policy, inst, graph, 5, SAMPLE, seed=8)
        assert [t.actions for t in a] == [t.actions for t in b]

    @pytest.mark.parametrize("mode", [GREEDY, EPSILON_GREEDY, SAMPLE])
    def test_each_index_is_its_single_rollout(self, mode):
        inst, dm, graph, policy = small_setup(n=12, seed=23, k=4)
        ctx = encode(policy, inst, graph, dm)
        batch = batch_rollouts(policy, inst, ctx, 8, mode, seed=5, epsilon=0.5)
        for t, traj in enumerate(batch):
            single = rollout(policy, inst, ctx, mode, seed=derive_seed(5, t), epsilon=0.5)
            assert traj.actions == single.actions
            assert traj.log_pf == single.log_pf
            assert traj.solution.total_cost == single.solution.total_cost
            replay = step_replay_log_pf(policy, ctx, traj.actions)
            assert traj.log_pf == pytest.approx(replay, abs=1e-12)

    @pytest.mark.parametrize("mode", [GREEDY, EPSILON_GREEDY, SAMPLE])
    def test_matches_the_step_reference(self, mode):
        for seed in range(3):
            inst, dm, graph, policy = small_setup(n=10, seed=seed, k=4)
            ctx = encode(policy, inst, graph, dm)
            trajs = batch_rollouts(policy, inst, ctx, 4, mode, seed=seed, epsilon=0.3)
            for t, traj in enumerate(trajs):
                actions, log_pf = step_reference_rollout(policy, ctx, mode, derive_seed(seed, t), 0.3)
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
            assert traj.log_pf == pytest.approx(step_replay_log_pf(policy, ctx, traj.actions), abs=1e-12)

    def test_count_beyond_distinct_trajectories_extends_the_prefix(self):
        inst, dm, graph, policy = small_setup(n=2, seed=7, k=2)
        ctx = encode(policy, inst, graph, dm)
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
        matrix = disc_forward(disc, inst, graph)
        assert np.all(matrix.probs > 0)
        assert np.all(matrix.probs < 1)
        assert not np.any(np.isnan(matrix.probs))

    def test_directed_scores_may_differ_but_finite(self):
        inst, dm, graph, _ = small_setup(n=10, seed=18, k=4)
        disc = init_disc(SMALL, 6)
        matrix = disc_forward(disc, inst, graph)
        ei = matrix.ei
        fwd = matrix.prob(int(ei.src[3]), int(ei.dst[3]))
        bwd = matrix.prob(int(ei.dst[3]), int(ei.src[3]))
        assert np.isfinite(fwd) and np.isfinite(bwd)

    def test_matches_straight_line_reevaluation(self):
        inst, dm, graph, _ = small_setup(n=9, seed=19, k=3)
        disc = init_disc(SMALL, 7)
        feats = node_features(inst)
        ei = build_edge_index(graph)
        matrix = disc_forward(disc, inst, graph, training=True)
        emb = straight_line_embed(disc.gat, ei, feats)
        e = _lrelu((ei.dist / feats.scale)[:, None] @ disc.gat.w_edge + disc.gat.b_edge)
        cat = np.concatenate([emb[ei.src], emb[ei.dst], e], axis=1)
        logits = _lrelu(cat @ disc.w1 + disc.b1) @ disc.w2 + float(disc.b2)
        ref = 1 / (1 + np.exp(-logits))
        assert np.abs(matrix.probs - ref).max() < 1e-9


class TestDiscScore:
    def _tiny_matrix(self, probs_by_arc):
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), (1, 1), 5)
        dm = build_distance_matrix(inst)
        ei = build_edge_index(knn_sparsify(dm, 2))
        probs = np.full(ei.n_edges, 0.9)
        for (i, j), p in probs_by_arc.items():
            probs[ei.edge_id(i, j)] = p
        return EdgeProbMatrix(ei, probs)

    def test_two_arc_value(self):
        eps = 1e-3
        matrix = self._tiny_matrix({(0, 1): 1 - eps, (1, 0): 1 - eps})
        traj = Trajectory((1, 0), None, 0.0)
        assert disc_score(matrix, traj) == pytest.approx(2 * np.log(1 - eps))

    def test_reward_bounded_by_one(self):
        matrix = self._tiny_matrix({})
        traj = Trajectory((1, 0, 2, 0), None, 0.0)
        score = disc_score(matrix, traj)
        assert score <= 0
        assert np.exp(score) <= 1

    def test_handcrafted_three_arc_path(self):
        matrix = self._tiny_matrix({(0, 1): 0.5, (1, 2): 0.5, (2, 0): 0.25})
        traj = Trajectory((1, 2, 0), None, 0.0)
        assert disc_score(matrix, traj) == pytest.approx(np.log(1 / 16))

    def test_missing_arc_raises(self):
        matrix = self._tiny_matrix({})
        probs = {k: v for k, v in matrix.ei.lookup.items() if k != (1, 2)}
        ei2 = type(matrix.ei)(
            matrix.ei.n,
            np.array([k[0] for k in sorted(probs)]),
            np.array([k[1] for k in sorted(probs)]),
            np.ones(len(probs)),
            matrix.ei.adj,
            {k: i for i, k in enumerate(sorted(probs))},
        )
        m2 = EdgeProbMatrix(ei2, np.full(ei2.n_edges, 0.5))
        with pytest.raises(KeyError):
            disc_score(m2, Trajectory((1, 2, 0), None, 0.0))


class TestTrajectoryFromSolution:
    def test_replay_matches_actions(self):
        inst, dm, graph, policy = small_setup(n=6, seed=44, k=3)
        ctx = encode(policy, inst, graph, dm)
        traj = rollout(policy, inst, ctx, SAMPLE, seed=3)
        replay = trajectory_from_solution(policy, ctx, traj.solution)
        assert replay.solution is traj.solution
        assert replay.log_pf == pytest.approx(traj.log_pf, abs=1e-9)

    def test_arc_off_the_sparse_graph_scores_minus_infinity(self):
        inst, dm, graph, policy = small_setup(n=8, seed=4, k=2)
        ctx = encode(policy, inst, graph, dm)
        i = next(j for j in range(1, inst.n_nodes) if len(ctx.ei.adj[j]) < inst.n_nodes - 1)
        far = next(j for j in range(1, inst.n_nodes) if j != i and j not in ctx.ei.adj[i])
        rest = [c for c in range(1, inst.n_nodes) if c not in (i, far)]
        solution = make_solution(inst, dm, [[i, far]] + [[c] for c in rest])
        assert trajectory_from_solution(policy, ctx, solution).log_pf == -np.inf


class TestBatchLogPf:
    @pytest.mark.parametrize("n,seed,k", [(6, 1, 3), (11, 2, 4), (16, 3, 5)])
    def test_equals_sum_of_decode_step_log_probs(self, n, seed, k):
        inst, dm, graph, policy = small_setup(n=n, seed=seed, k=k)
        ctx = encode(policy, inst, graph, dm, training=True)
        trajs = batch_rollouts(policy, inst, ctx, 6, SAMPLE, seed=seed)
        got = batch_log_pf(lift_policy(policy), ctx.ei, node_features(inst), inst, trajs)
        ref = [step_replay_log_pf(policy, ctx, t.actions) for t in trajs]
        assert np.allclose(got.data, ref, rtol=0, atol=1e-9)
        assert np.allclose(got.data, [t.log_pf for t in trajs], rtol=0, atol=1e-9)

    def test_rejects_an_inadmissible_action(self):
        inst, dm, graph, policy = small_setup(n=4, seed=5, k=3)
        bad = Trajectory((1, 1, 0), None, 0.0)
        with pytest.raises(ValueError):
            batch_log_pf(lift_policy(policy), build_edge_index(graph), node_features(inst), inst, [bad])

    def test_gradients_match_central_differences(self):
        dims = Dims(n_layers=2, n_heads=2, d_units=4, mlp_hidden=6)
        inst = generate_uniform(6, 9)
        dm = build_distance_matrix(inst)
        graph = knn_sparsify(dm, 3)
        ei, feats = build_edge_index(graph), node_features(inst)
        policy = init_params(dims, 5)
        policy.log_z[...] = 0.7
        trajs = batch_rollouts(policy, inst, graph, 5, SAMPLE, seed=1, training_bn=True)
        target = np.linspace(-3.0, -1.0, len(trajs))

        def tb_loss(params):
            # batch_log_pf is generic over modes: raw arrays give the value
            log_pf = batch_log_pf(params, ei, feats, inst, trajs)
            return F.mean(F.square(params.log_z + log_pf - target))

        lifted = lift_policy(policy)
        F.backward(tb_loss(lifted))
        grads = backward_grads(lifted)
        arrays = dict(policy.named_arrays())
        rng = np.random.default_rng(0)
        eps = 1e-6
        for name in ("dec.w1", "dec.b1", "dec.w2", "dec.b2", "log_z", "gat.layers.0.heads.1.w"):
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
        import json

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
        disc = init_disc(SMALL, 1)
        from routeflow.neural import save_disc

        path = str(tmp_path / "d.json")
        save_disc(disc, path)
        with pytest.raises(CheckpointError):
            load_policy(path)
