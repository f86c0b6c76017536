import concurrent.futures
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import routeflow
from routeflow import expert
from routeflow.core import (
    Instance,
    InstanceError,
    build_distance_matrix,
    check_feasible,
    exact_solve_small,
    make_solution,
    route_cost,
    solution_cost,
)
from routeflow.expert import (
    ELITE_FRACTION,
    GAMMA,
    HgsConfig,
    _Individual,
    _local_search,
    _neighbour_lists,
    _solve_one,
    _survivors,
    _two_opt_route,
    compute_barycenters,
    decompose,
    expert_refine,
    hgs_solve,
    initial_solution,
    kmeans,
    solve_subproblems,
    split_giant_tour,
)
from routeflow.io import derive_seed, generate_uniform, load_instance

FAST = HgsConfig(population_size=6, max_iterations=30, seed=0)


class TestInitialSolution:
    def test_single_customer(self):
        inst = Instance((0.0, 0.0), ((1.0, 2.0),), (1,), 10)
        sol = initial_solution(inst, 0, build_distance_matrix(inst))
        assert [r.nodes for r in sol.routes] == [(1,)]

    def test_compass_points_pair_adjacent_angles(self):
        # four customers at N/E/S/W, capacity fits two: the sweep must pair
        # angular neighbours, never opposite points
        inst = Instance(
            (0.0, 0.0),
            ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)),
            (5, 5, 5, 5),
            10,
        )
        sol = initial_solution(inst, 3, build_distance_matrix(inst))
        opposite = {frozenset((1, 3)), frozenset((2, 4))}
        for r in sol.routes:
            assert frozenset(r.nodes) not in opposite

    def test_always_feasible(self):
        for seed in range(15):
            inst = generate_uniform(50, seed)
            sol = initial_solution(inst, seed, build_distance_matrix(inst))
            assert check_feasible(inst, sol).feasible


class TestSplit:
    def test_split_optimal_against_enumeration(self):
        # the DP split must match brute force over all contiguous partitions
        rng = np.random.default_rng(4)
        for trial in range(10):
            inst = generate_uniform(7, 300 + trial)
            dm = build_distance_matrix(inst)
            D = dm.dist.tolist()
            demand = [0] + list(inst.demands)
            tour = list(rng.permutation(np.arange(1, 8)))
            tour = [int(c) for c in tour]
            routes = split_giant_tour(D, demand, inst.capacity, tour)
            got = solution_cost(dm, [make_solution(inst, dm, [r]).routes[0] for r in routes])

            best = math.inf
            n = len(tour)
            for mask in range(2 ** (n - 1)):
                parts, cur = [], [tour[0]]
                for k in range(1, n):
                    if mask >> (k - 1) & 1:
                        parts.append(cur)
                        cur = [tour[k]]
                    else:
                        cur.append(tour[k])
                parts.append(cur)
                if any(sum(demand[c] for c in p) > inst.capacity for p in parts):
                    continue
                cost = solution_cost(
                    dm, make_solution(inst, dm, parts).routes
                )
                best = min(best, cost)
            assert got == pytest.approx(best, rel=1e-12)

    def test_fleet_capped_split(self):
        inst = Instance(
            (0.0, 0.0),
            ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)),
            (3, 3, 3, 3),
            6,
        )
        dm = build_distance_matrix(inst)
        D = dm.dist.tolist()
        demand = [0] + list(inst.demands)
        assert split_giant_tour(D, demand, 6, [1, 2, 3, 4], max_routes=1) is None
        routes = split_giant_tour(D, demand, 6, [1, 2, 3, 4], max_routes=2)
        assert len(routes) == 2
        assert all(sum(demand[c] for c in r) <= 6 for r in routes)

    def test_cap_of_one_route_per_customer_matches_unlimited(self):
        rng = np.random.default_rng(8)
        for trial in range(40):
            n = int(rng.integers(1, 40))
            inst = generate_uniform(n, 500 + trial)
            dm = build_distance_matrix(inst)
            D = dm.dist.tolist()
            demand = [0] + list(inst.demands)
            capacity = int(rng.integers(max(demand), sum(demand) + 1))
            tour = [int(c) for c in rng.permutation(np.arange(1, n + 1))]
            unlimited = split_giant_tour(D, demand, capacity, tour)
            capped = split_giant_tour(D, demand, capacity, tour, max_routes=n)
            cost = [sum(route_cost(dm, r) for r in routes) for routes in (unlimited, capped)]
            assert abs(cost[0] - cost[1]) <= 1e-12


class TestHgs:
    def test_matches_exact_on_tiny(self):
        hits = 0
        for seed in range(40):
            inst = generate_uniform(6, 900 + seed)
            exact = exact_solve_small(inst)
            sol = hgs_solve(inst, cfg=HgsConfig(population_size=10, max_iterations=60, seed=seed))
            assert check_feasible(inst, sol).feasible
            assert sol.total_cost >= exact.total_cost - 1e-9
            if sol.total_cost <= exact.total_cost + 1e-9:
                hits += 1
        assert hits >= 38  # expected to match on nearly all

    def test_warm_start_never_worsens(self):
        for seed in range(8):
            inst = generate_uniform(30, 500 + seed)
            warm = initial_solution(inst, seed, build_distance_matrix(inst))
            sol = hgs_solve(inst, warm_start=warm, cfg=FAST)
            assert sol.total_cost <= warm.total_cost + 1e-9

    def test_optimal_warm_start_unchanged(self):
        inst = generate_uniform(5, 12)
        exact = exact_solve_small(inst)
        sol = hgs_solve(inst, warm_start=exact, cfg=FAST)
        assert sol.total_cost == pytest.approx(exact.total_cost, abs=1e-12)

    def test_deterministic(self):
        inst = generate_uniform(25, 77)
        a = hgs_solve(inst, cfg=FAST)
        b = hgs_solve(inst, cfg=FAST)
        assert a == b

    def test_bounded_by_sweep(self):
        for seed in range(5):
            inst = generate_uniform(40, 600 + seed)
            sweep = initial_solution(inst, seed, build_distance_matrix(inst))
            sol = hgs_solve(inst, cfg=HgsConfig(population_size=6, max_iterations=20, seed=seed))
            assert sol.total_cost <= sweep.total_cost + 1e-9

    def test_survivors_match_the_dedupe_and_refill_loops(self):
        def loops(population, size):
            # the two loops the survivor rule replaced
            population = sorted(population, key=lambda x: x.cost)
            n_elite = max(1, int(ELITE_FRACTION * size))
            survivors = population[:n_elite]
            seen = {tuple(s.tour) for s in survivors}
            for cand in population[n_elite:]:
                if len(survivors) >= size:
                    break
                key = tuple(cand.tour)
                if key in seen:
                    continue
                seen.add(key)
                survivors.append(cand)
            for cand in population[n_elite:]:
                if len(survivors) >= size:
                    break
                if cand not in survivors:
                    survivors.append(cand)
            return survivors

        rng = np.random.default_rng(0)
        for _ in range(2000):
            size = int(rng.integers(2, 12))
            tours = [list(rng.permutation(4)) for _ in range(int(rng.integers(1, 6)))]
            population = [
                _Individual(tours[int(rng.integers(len(tours)))], None, float(rng.integers(5)), True)
                for _ in range(size + 1)
            ]
            assert [id(i) for i in _survivors(population, size)] == [id(i) for i in loops(population, size)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_n32_k5_reaches_bks(self, seed):
        inst = load_instance(os.path.join(os.path.dirname(__file__), "data", "A-n32-k5.vrp"))
        sol = hgs_solve(inst, cfg=HgsConfig(max_iterations=200, seed=seed))
        assert check_feasible(inst, sol).feasible
        assert sol.total_cost == 784


@st.composite
def split_starts(draw):
    """A random instance (n <= 30) and the Split of a random giant tour."""
    n = draw(st.integers(1, 30))
    grid = st.integers(0, 1000).map(lambda k: k / 1000)
    coords = draw(st.lists(st.tuples(grid, grid), min_size=n, max_size=n))
    demands = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    capacity = draw(st.integers(max(demands), sum(demands)))
    inst = Instance((0.5, 0.5), tuple(coords), tuple(demands), capacity)
    tour = draw(st.permutations(list(range(1, n + 1))))
    D = build_distance_matrix(inst).dist.tolist()
    demand = [0] + list(demands)
    return inst, split_giant_tour(D, demand, capacity, tour)


def _granular_moves(routes, u, v):
    """Every relocate/swap/2-opt* neighbour of ``routes`` that (u, v) defines."""
    where = {c: (r, i) for r, route in enumerate(routes) for i, c in enumerate(route)}
    (ru, i), (rv, j) = where[u], where[v]
    for after in (0, 1):
        new = [list(r) for r in routes]
        new[ru].remove(u)
        new[rv].insert(new[rv].index(v) + after, u)
        yield new
    if ru == rv:
        return
    new = [list(r) for r in routes]
    new[ru][i], new[rv][j] = v, u
    yield new
    new = [list(r) for r in routes]
    a, b = routes[ru], routes[rv]
    new[ru], new[rv] = a[: i + 1] + b[j:], b[:j] + a[i + 1 :]
    yield new


def _check_local_search(inst, start):
    """Run ``_local_search`` and check it against brute force over Γ lists."""
    dm = build_distance_matrix(inst)
    D = dm.dist.tolist()
    demand = [0] + list(inst.demands)
    neighbours = _neighbour_lists(dm)
    out = _local_search(D, demand, inst.capacity, start, neighbours)
    sol = make_solution(inst, dm, out)
    assert check_feasible(inst, sol).feasible
    assert sol.total_cost <= solution_cost(dm, make_solution(inst, dm, start).routes) + 1e-9
    assert all(_two_opt_route(D, r) == r for r in out)
    n = inst.n_customers
    for u in range(1, n + 1):
        # Γ(u): the GAMMA nearest customers, ties toward the lower index
        gamma = sorted((v for v in range(1, n + 1) if v != u), key=lambda v: (D[u][v], v))[:GAMMA]
        assert neighbours[u] == gamma
        for v in gamma:
            for new in _granular_moves(out, u, v):
                if any(sum(demand[c] for c in r) > inst.capacity for r in new):
                    continue
                cost = sum(route_cost(dm, r) for r in new if r)
                assert cost >= sol.total_cost - 1e-9, (u, v, new)


class TestLocalSearch:
    @settings(max_examples=40, deadline=None)
    @given(split_starts())
    def test_granular_local_optimum(self, case):
        inst, start = case
        _check_local_search(inst, start)


class TestBarycenters:
    def test_single_point_route(self):
        inst = Instance((0.0, 0.0), ((0.3, 0.7),), (1,), 10)
        dm = build_distance_matrix(inst)
        sol = make_solution(inst, dm, [[1]])
        assert compute_barycenters(inst, sol).tolist() == [[0.3, 0.7]]

    def test_two_point_mean(self):
        inst = Instance((0.5, 0.5), ((0.0, 0.0), (1.0, 1.0)), (1, 1), 10)
        dm = build_distance_matrix(inst)
        sol = make_solution(inst, dm, [[1, 2]])
        assert compute_barycenters(inst, sol).tolist() == [[0.5, 0.5]]

    def test_matches_direct_mean(self):
        inst = generate_uniform(9, 21)
        dm = build_distance_matrix(inst)
        sol = make_solution(inst, dm, [[2, 5, 7, 1]])
        expected = np.mean([inst.coords[c - 1] for c in (2, 5, 7, 1)], axis=0)
        assert compute_barycenters(inst, sol)[0] == pytest.approx(expected)


class TestKmeans:
    def test_k_one(self):
        pts = np.random.default_rng(0).random((12, 2))
        assert set(kmeans(pts, 1).tolist()) == {0}

    def test_separated_blobs(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.01, size=(15, 2))
        b = rng.normal(10, 0.01, size=(15, 2))
        labels = kmeans(np.vstack([a, b]), 2, seed=5)
        assert len(set(labels[:15].tolist())) == 1
        assert len(set(labels[15:].tolist())) == 1
        assert labels[0] != labels[15]

    def test_fixed_point(self):
        rng = np.random.default_rng(2)
        pts = rng.random((30, 2))
        labels = kmeans(pts, 4, seed=9)
        centroids = np.array([pts[labels == c].mean(axis=0) for c in range(4)])
        dist = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        again = np.argmin(dist, axis=1)
        assert np.array_equal(again, labels)

    def test_all_clusters_nonempty(self):
        pts = np.random.default_rng(3).random((10, 2))
        labels = kmeans(pts, 7, seed=0)
        assert set(labels.tolist()) == set(range(7))


class TestDecompose:
    def test_single_cluster_when_m_large(self):
        inst = generate_uniform(20, 6)
        sol = initial_solution(inst, 6, build_distance_matrix(inst))
        plan, subs = decompose(inst, sol, m=100)
        assert plan.k == 1
        assert len(subs) == 1
        assert subs[0].instance.n_customers == 20
        assert len(subs[0].warm_routes) == sol.n_routes

    def test_partition_property(self):
        inst = generate_uniform(60, 13)
        sol = initial_solution(inst, 13, build_distance_matrix(inst))
        plan, subs = decompose(inst, sol, m=15)
        assert plan.k == math.ceil(60 / 15) or plan.k == sol.n_routes
        seen = []
        for sub in subs:
            seen.extend(sub.mapping)
        assert sorted(seen) == list(range(1, 61))

    def test_blobs_split_cleanly(self):
        # two spatial blobs of routes: decomposition must separate them
        coords, demands = [], []
        for cx in (0.0, 10.0):
            for i in range(8):
                coords.append((cx + 0.01 * i, 0.0))
                demands.append(5)
        inst = Instance((5.0, 5.0), tuple(coords), tuple(demands), 10)
        dm = build_distance_matrix(inst)
        sol = make_solution(
            inst, dm, [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10], [11, 12], [13, 14], [15, 16]]
        )
        plan, subs = decompose(inst, sol, m=8)
        assert plan.k == 2
        groups = [set(sub.mapping) for sub in subs]
        assert {frozenset(g) for g in groups} == {
            frozenset(range(1, 9)),
            frozenset(range(9, 17)),
        }

    def test_mapping_bijection(self):
        inst = generate_uniform(30, 14)
        sol = initial_solution(inst, 14, build_distance_matrix(inst))
        _, subs = decompose(inst, sol, m=10)
        for sub in subs:
            assert len(set(sub.mapping)) == len(sub.mapping)
            assert sub.instance.n_customers == len(sub.mapping)
            for local, g in enumerate(sub.mapping, start=1):
                assert sub.instance.coords[local - 1] == inst.coords[g - 1]


class TestSolveSubproblems:
    @pytest.mark.parametrize("source", ["uniform", "A-n32-k5"])
    def test_sliced_matrices_equal_rebuilt_ones(self, source):
        if source == "uniform":
            inst = generate_uniform(200, 5)
        else:  # rounded distances
            inst = load_instance(os.path.join(os.path.dirname(__file__), "data", "A-n32-k5.vrp"))
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 5, dm), m=10)
        assert len(subs) > 1
        for sub in subs:
            nodes = [0, *sub.mapping]
            rebuilt = build_distance_matrix(sub.instance).dist
            assert np.array_equal(dm.dist[np.ix_(nodes, nodes)], rebuilt)

    def test_single_subproblem_matches_hgs(self):
        inst = generate_uniform(15, 3)
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 3, dm), m=100)
        results = solve_subproblems(subs, FAST, dm)
        assert len(results) == 1
        assert check_feasible(inst, results[0]).feasible

    @pytest.mark.parametrize("source", ["uniform", "A-n32-k5"])
    def test_pool_equals_the_serial_loop(self, source, cpus):
        if source == "uniform":
            inst, m = generate_uniform(200, 5), 50
        else:  # rounded distances
            inst, m = load_instance(os.path.join(os.path.dirname(__file__), "data", "A-n32-k5.vrp")), 10
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 5, dm), m=m)
        assert len(subs) >= 4
        per_iter = FAST.max_iterations // len(subs)
        serial = [
            _solve_one(sub, replace(FAST, max_iterations=per_iter, seed=derive_seed(FAST.seed, i)), dm)
            for i, sub in enumerate(subs)
        ]
        cpus(2)  # a pool on any host
        pooled = solve_subproblems(subs, FAST, dm)
        assert [p.routes for p in pooled] == [s.routes for s in serial]
        assert [p.total_cost for p in pooled] == [s.total_cost for s in serial]

    def test_a_worker_error_reaches_the_caller(self, cpus, monkeypatch):
        real = expert.hgs_solve

        def failing(instance, *args, **kwargs):
            if instance.name.endswith("#sub1"):
                raise InstanceError("cluster 1 failed")
            return real(instance, *args, **kwargs)

        monkeypatch.setattr(expert, "hgs_solve", failing)  # inherited by forked workers
        cpus(2)
        inst = generate_uniform(60, 4)
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 4, dm), m=15)
        assert len(subs) >= 3
        with pytest.raises(InstanceError, match="cluster 1 failed"):
            solve_subproblems(subs, FAST, dm)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "n_cpus, clusters, pools",
        [(2, 1, 0), (1, 2, 0), (2, 2, 1)],
        ids=["one cluster", "one CPU", "two workers"],
    )
    @pytest.mark.parametrize("threaded", [False, True], ids=["alone", "another thread"])
    def test_a_pool_only_from_two_workers(self, n_cpus, clusters, pools, threaded, cpus, monkeypatch):
        built = []
        real = concurrent.futures.ProcessPoolExecutor
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda *a, **kw: built.append(a) or real(*a, **kw)
        )
        cpus(n_cpus)
        inst = generate_uniform(40, 6)
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 6, dm), m=10)
        assert len(subs) >= clusters
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(30,))
        if threaded:  # a live thread makes forking unsafe
            other.start()
        try:
            solve_subproblems(subs[:clusters], FAST, dm)
        finally:
            stop.set()
            if threaded:
                other.join(timeout=30)
        assert not other.is_alive()
        assert len(built) == (0 if threaded else pools)

    def test_importing_the_package_loads_no_pool(self):
        code = (
            "import sys, routeflow.bench, routeflow.training, routeflow.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        )
        src = os.path.dirname(os.path.dirname(routeflow.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_cluster_cost_never_worsens(self):
        inst = generate_uniform(50, 8)
        dm = build_distance_matrix(inst)
        sol = initial_solution(inst, 8, dm)
        _, subs = decompose(inst, sol, m=20)
        results = solve_subproblems(subs, FAST, dm)
        for sub, res in zip(subs, results):
            warm_cost = solution_cost(
                dm,
                make_solution(
                    inst, dm, [tuple(sub.to_global(c) for c in r) for r in sub.warm_routes]
                ).routes,
            )
            assert res.total_cost <= warm_cost + 1e-9

    def test_concatenation_feasible(self):
        inst = generate_uniform(45, 9)
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 9, dm), m=15)
        results = solve_subproblems(subs, FAST, dm)
        from routeflow.core import Solution

        merged = Solution(
            tuple(r for part in results for r in part.routes),
            sum(p.total_cost for p in results),
        )
        assert check_feasible(inst, merged).feasible


class TestExpertRefine:
    def test_never_worsens_seed_solution(self):
        for seed in range(5):
            inst = generate_uniform(60, 40 + seed)
            dm = build_distance_matrix(inst)
            start = initial_solution(inst, seed, dm)
            refined = expert_refine(inst, start, m=20, cfg=FAST, dm=dm)
            assert refined.total_cost <= start.total_cost + 1e-9
            assert check_feasible(inst, refined).feasible

    def test_merged_cost_is_sum_of_parts(self):
        inst = generate_uniform(80, 55)
        dm = build_distance_matrix(inst)
        start = initial_solution(inst, 55, dm)
        refined = expert_refine(inst, start, m=25, cfg=FAST, dm=dm)
        recomputed = solution_cost(dm, refined.routes)
        assert refined.total_cost == pytest.approx(recomputed, rel=1e-9)

    def test_m_ge_n_equivalent_to_plain_hgs(self):
        inst = generate_uniform(12, 66)
        dm = build_distance_matrix(inst)
        start = initial_solution(inst, 66, dm)
        refined = expert_refine(inst, start, m=50, cfg=FAST, dm=dm)
        assert check_feasible(inst, refined).feasible
        assert refined.total_cost <= start.total_cost + 1e-9

    def test_deterministic_whatever_the_worker_schedule(self):
        inst = generate_uniform(40, 31)
        dm = build_distance_matrix(inst)
        start = initial_solution(inst, 31, dm)
        a = expert_refine(inst, start, m=10, cfg=FAST, dm=dm)
        b = expert_refine(inst, start, m=10, cfg=FAST, dm=dm)
        assert a == b


@pytest.fixture
def starts(tmp_path, monkeypatch):
    """The pids of the processes that call ``Process.start``, in call order:
    a file records them, so a start inside a forked worker counts too."""
    log = tmp_path / "starts"
    log.touch()
    real = multiprocessing.process.BaseProcess.start

    def start(self):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        real(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return lambda: [int(line) for line in log.read_text().split()]


class TestHelper:
    """hgs_solve's forked helper: the serial output whatever the host, its
    errors reach the caller, it never outlives the solve, and it is forked
    only where forking is safe and pays."""

    @pytest.mark.parametrize("source", ["uniform", "A-n32-k5"])
    def test_equals_the_one_cpu_search(self, source, cpus, starts, monkeypatch):
        if source == "uniform":
            inst = generate_uniform(60, 11)
            warm = initial_solution(inst, 3, build_distance_matrix(inst))
        else:  # the fleet-limited Split
            inst, warm = load_instance(os.path.join(os.path.dirname(__file__), "data", "A-n32-k5.vrp")), None
        cfg = HgsConfig(population_size=20, max_iterations=80, seed=2)
        educations = []  # by this process only: a helper appends to its own copy
        real = expert._local_search
        monkeypatch.setattr(expert, "_local_search", lambda *a: educations.append(1) or real(*a))
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        cpus(1)
        serial = hgs_solve(inst, warm, cfg=cfg)
        serial_educations = len(educations)
        educations.clear()
        cpus(2)
        helped = hgs_solve(inst, warm, cfg=cfg)
        assert helped == serial
        assert starts() == [os.getpid()]
        assert multiprocessing.active_children() == []
        # the helper educates every other initial tour from the start, and
        # each accepted prediction spares the parent one more education
        tours = cfg.population_size - (1 if warm is None else 3)
        accepted = serial_educations - len(educations) - tours // 2
        assert accepted >= 1

    @pytest.mark.parametrize("where", ["helper", "parent"])
    def test_an_error_reaches_the_caller(self, where, cpus, monkeypatch):
        caller = os.getpid()
        calls = []
        real = expert._local_search

        def failing(*args):
            calls.append(1)
            in_helper = os.getpid() != caller
            if in_helper if where == "helper" else len(calls) > 10:
                raise InstanceError(f"education failed in the {where}")
            return real(*args)

        monkeypatch.setattr(expert, "_local_search", failing)
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        cpus(2)
        with pytest.raises(InstanceError, match=f"failed in the {where}"):
            hgs_solve(generate_uniform(30, 2), cfg=replace(FAST, max_iterations=100))
        assert multiprocessing.active_children() == []

    def test_a_helper_that_dies_is_an_error(self, cpus, monkeypatch):
        caller = os.getpid()
        real = expert._local_search
        monkeypatch.setattr(expert, "_local_search", lambda *a: os._exit(3) if os.getpid() != caller else real(*a))
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        cpus(2)
        with pytest.raises(RuntimeError, match="helper process exited with code 3"):
            hgs_solve(generate_uniform(30, 2), cfg=FAST)
        assert multiprocessing.active_children() == []

    def test_a_time_budget_stop_reaps_the_helper(self, cpus, starts, monkeypatch):
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        cpus(2)
        inst = generate_uniform(40, 3)
        cfg = HgsConfig(population_size=10, max_iterations=10**9, time_budget_s=0.3, seed=1)
        sol = hgs_solve(inst, cfg=cfg)
        assert check_feasible(inst, sol).feasible
        assert starts() == [os.getpid()]
        assert multiprocessing.active_children() == []

    def test_none_with_another_thread_or_one_cpu(self, cpus, starts, monkeypatch):
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        inst = generate_uniform(30, 5)
        cpus(1)
        hgs_solve(inst, cfg=FAST)
        cpus(2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(30,))
        other.start()
        try:
            hgs_solve(inst, cfg=FAST)
        finally:
            stop.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert starts() == []

    def test_none_inside_a_pool_worker(self, cpus, starts, monkeypatch):
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)  # inherited by the workers
        cpus(2)
        inst = generate_uniform(60, 4)
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 4, dm), m=15)
        assert len(subs) >= 3
        solve_subproblems(subs, FAST, dm)
        assert starts() == [os.getpid()] * 2  # the pool's two workers, and no helper

    def test_none_early_in_a_default_train_step(self, cpus, monkeypatch, tmp_path):
        # a default n=20 train_step's expert solve takes tens of milliseconds,
        # less than _FORK_AFTER_S on an idle host; on a host slowed by load
        # it may outlast that, and then its fork must come no sooner
        from routeflow import training

        solves, forks = [], []
        real_solve = expert.hgs_solve
        real_start = multiprocessing.process.BaseProcess.start

        def timed(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return real_solve(*args, **kwargs)
            finally:
                solves.append((t0, time.monotonic()))

        def start(self):
            forks.append(time.monotonic())
            real_start(self)

        monkeypatch.setattr(expert, "hgs_solve", timed)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        cpus(2)
        cfg = training.TrainConfig(checkpoint_every=0, out_dir=str(tmp_path))
        state = training.init_train_state(cfg)
        training.train_step(state, [generate_uniform(cfg.n, 0)], cfg, 0, 0)
        assert solves
        for t in forks:
            assert any(t0 + expert._FORK_AFTER_S <= t <= t1 for t0, t1 in solves)
