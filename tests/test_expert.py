import itertools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import routeflow
from routeflow import expert
from routeflow.core import (
    CONTINUOUS,
    ROUNDED,
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
    _draw_child,
    _Individual,
    _local_search,
    _move_tolerance,
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
from reference_local_search import reference_local_search, reference_two_opt_route
from reference_split import reference_fleet_split

FAST = HgsConfig(population_size=6, max_iterations=30, seed=0)


def scaled(inst: Instance, factor: float) -> Instance:
    """``inst`` with every coordinate, the depot's too, times ``factor``."""
    return replace(inst, depot=tuple(v * factor for v in inst.depot),
                   coords=tuple((x * factor, y * factor) for x, y in inst.coords))


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

    # Customers on a circle in sweep order, capacity 10. At every starting
    # customer the sweep's greedy fill opens more routes than the fleet
    # limit: (4, 7, 4, 7) can merge its two 4s; (4, 5, 3, 5, 3) has no pair
    # of routes that fits together, but packs into two; (6, 3, 6, 3, 2)
    # holds 20 units with no subset of 10, so two routes cannot hold it.
    @pytest.mark.parametrize("demands, limit, repair, n_routes", [
        ((4, 7, 4, 7), 3, "merge", 3),
        ((4, 5, 3, 5, 3), 2, "pack", 2),
        ((6, 3, 6, 3, 2), 2, "none", 3),
    ])
    def test_a_tight_fleet_is_repaired(self, demands, limit, repair, n_routes, monkeypatch):
        packed = []
        real = expert._pack_into_bins
        monkeypatch.setattr(expert, "_pack_into_bins", lambda *a: packed.append(real(*a)) or packed[-1])
        n = len(demands)
        angles = [-math.pi + (k + 0.5) * 2 * math.pi / n for k in range(n)]
        coords = tuple((math.cos(a), math.sin(a)) for a in angles)
        inst = Instance((0.0, 0.0), coords, demands, 10, fleet_limit=limit)
        for seed in range(25):  # these seeds start the sweep at every customer
            packed.clear()
            sol = initial_solution(inst, seed, build_distance_matrix(inst))
            assert sol.n_routes == n_routes
            if repair == "merge":
                assert packed == []
            else:
                assert len(packed) == 1 and (packed[0] is None) == (repair == "none")
            # every route fits and every customer is served once; only the
            # fleet may be exceeded, as initial_solution documents
            kinds = [v.kind for v in check_feasible(inst, sol).violations]
            assert kinds == ([] if n_routes <= limit else ["fleet"])


class TestSplit:
    def test_split_optimal_against_enumeration(self):
        # the DP split must match brute force over all contiguous partitions
        rng = np.random.default_rng(4)
        for trial in range(10):
            inst = generate_uniform(7, 300 + trial)
            dm = build_distance_matrix(inst)
            D = dm.tolist()
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
        D = dm.tolist()
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
            D = dm.tolist()
            demand = [0] + list(inst.demands)
            capacity = int(rng.integers(max(demand), sum(demand) + 1))
            tour = [int(c) for c in rng.permutation(np.arange(1, n + 1))]
            unlimited = split_giant_tour(D, demand, capacity, tour)
            capped = split_giant_tour(D, demand, capacity, tour, max_routes=n)
            cost = [sum(route_cost(dm, r) for r in routes) for routes in (unlimited, capped)]
            assert abs(cost[0] - cost[1]) <= 1e-12

    @pytest.mark.parametrize("rounded", [False, True], ids=["continuous", "rounded"])
    def test_fleet_capped_split_returns_the_full_dp_routes(self, rounded):
        # rounded: integer distances on a 7 x 7 grid, so many splits tie
        rng = np.random.default_rng(21)
        for trial in range(60):
            n = int(rng.integers(2, 36))
            pts = rng.integers(0, 7, size=(n + 1, 2)) if rounded else rng.random((n + 1, 2))
            d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
            D = (np.floor(d + 0.5) if rounded else d).tolist()
            demand = [0] + rng.integers(1, 10, size=n).tolist()
            capacity = int(rng.integers(max(demand), 31))
            tour = [int(c) for c in rng.permutation(np.arange(1, n + 1))]
            fewest = math.ceil(sum(demand) / capacity)
            for limit in sorted({max(1, fewest - 1), fewest, fewest + 1, fewest + 3, n}):
                got = split_giant_tour(D, demand, capacity, tour, max_routes=limit)
                assert got == reference_fleet_split(D, demand, capacity, tour, limit), (trial, limit)


class TestHgs:
    @pytest.mark.parametrize("fields", [
        {"population_size": 3.5}, {"population_size": True}, {"population_size": 1},
        {"max_iterations": 2.5}, {"max_iterations": -1}, {"time_budget_s": "1"},
        {"time_budget_s": 0}, {"time_budget_s": True}, {"seed": 1.0}, {"seed": None},
    ], ids=repr)
    def test_a_bad_config_field_is_a_value_error(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            HgsConfig(**fields)

    def test_a_tight_fleet_is_penalised_in_this_process(self, cpus, monkeypatch):
        # under Q = 11 a 6 pairs only with a 5, so a tour whose Split needs
        # more than four routes is kept as a penalised individual
        cpus(1)
        penalised, make = [], expert._Individual

        def spy(tour, routes, cost, excess):
            penalised.append(excess > 0)
            return make(tour, routes, cost, excess)

        monkeypatch.setattr(expert, "_Individual", spy)
        circle = tuple((math.cos(math.pi * i / 4), math.sin(math.pi * i / 4)) for i in range(8))
        inst = Instance((0.0, 0.0), circle, (6, 6, 6, 6, 5, 5, 5, 5), 11, fleet_limit=4)
        sol = hgs_solve(inst, cfg=HgsConfig(population_size=8, max_iterations=20))
        assert any(penalised)
        assert check_feasible(inst, sol).feasible

    def test_no_fleet_feasible_solution_is_an_instance_error(self, cpus):
        cpus(1)
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)), (6, 6, 6), 11, fleet_limit=2)
        with pytest.raises(InstanceError, match="no fleet-feasible"):
            hgs_solve(inst, cfg=HgsConfig(population_size=8, max_iterations=20))

    def test_a_time_budget_may_be_an_integer(self):
        assert HgsConfig(time_budget_s=2).time_budget_s == 2

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
                _Individual(tours[int(rng.integers(len(tours)))], None, float(rng.integers(5)), 0)
                for _ in range(size + 1)
            ]
            assert [id(i) for i in _survivors(population, size)] == [id(i) for i in loops(population, size)]

    # one route over the fleet limit at cost 5e6 against a fleet-feasible 2e7:
    # cost plus any fixed penalty below 1.5e7 a route would put the first ahead
    OVER = dict(tour=[1, 2, 3], routes=[[1], [2], [3]], cost=5e6, excess=1)
    WITHIN = dict(tour=[3, 2, 1], routes=[[3, 2, 1]], cost=2e7, excess=0)

    def test_the_fleet_feasible_survives_a_cheaper_one_over_the_limit(self):
        over, within = _Individual(**self.OVER), _Individual(**self.WITHIN)
        assert _survivors([over, within], 1) == [within]

    def test_a_tournament_picks_the_fleet_feasible_over_a_cheaper_one(self):
        # both tournaments draw (over, within); the crossover of two copies
        # of one tour is that tour, and no mutation is drawn
        rng = SimpleNamespace(
            integers=lambda n, size: np.array([0, 1]),
            choice=lambda n, size, replace: np.array([0, 1]),
            random=lambda: 1.0,
        )
        population = [_Individual(**self.OVER), _Individual(**self.WITHIN)]
        assert _draw_child(rng, population) == self.WITHIN["tour"]

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
    D = build_distance_matrix(inst).tolist()
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
    D = dm.tolist()
    demand = [0] + list(inst.demands)
    neighbours = _neighbour_lists(dm)
    tol = _move_tolerance(dm)
    out = _local_search(D, demand, inst.capacity, start, neighbours, tol)
    sol = make_solution(inst, dm, out)
    assert check_feasible(inst, sol).feasible
    assert sol.total_cost <= solution_cost(dm, make_solution(inst, dm, start).routes) + 1e-9
    assert all(_two_opt_route(D, r, tol) == r for r in out)
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


@st.composite
def kernel_starts(draw):
    """A random instance (n <= 45, so N <= GAMMA and N > GAMMA both occur),
    with continuous or rounded distances and a capacity from the largest
    demand (tight) to the total (loose), and a start: the Split of a random
    giant tour, or one route per customer."""
    n = draw(st.integers(1, 45))
    mode = draw(st.sampled_from([CONTINUOUS, ROUNDED]))
    scale = 1000 if mode == CONTINUOUS else 1  # rounded: small integer distances, many ties
    grid = st.integers(0, 40).map(lambda k: k / scale)
    coords = draw(st.lists(st.tuples(grid, grid), min_size=n, max_size=n))
    demands = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    capacity = draw(st.one_of(st.just(max(demands)), st.integers(max(demands), sum(demands)),
                              st.just(sum(demands))))
    inst = Instance((20 / scale, 20 / scale), tuple(coords), tuple(demands), capacity, distance_mode=mode)
    tour = draw(st.permutations(list(range(1, n + 1))))
    if draw(st.booleans()):
        return inst, [[c] for c in tour]
    demand = [0] + list(demands)
    return inst, split_giant_tour(build_distance_matrix(inst).tolist(), demand, capacity, tour)


class TestLocalSearch:
    @settings(max_examples=40, deadline=None)
    @given(split_starts())
    def test_granular_local_optimum(self, case):
        inst, start = case
        _check_local_search(inst, start)

    @settings(max_examples=150, deadline=None)
    @given(kernel_starts())
    def test_returns_the_reference_routes(self, case):
        inst, start = case
        dm = build_distance_matrix(inst)
        args = dm.tolist(), [0] + list(inst.demands), inst.capacity
        neighbours, tol = _neighbour_lists(dm), _move_tolerance(dm)
        optimum = reference_local_search(*args, start, neighbours, tol)
        assert _local_search(*args, start, neighbours, tol) == optimum
        # a local optimum fed back in: every pair is evaluated and none moves
        assert _local_search(*args, optimum, neighbours, tol) == reference_local_search(*args, optimum, neighbours, tol)
        D = args[0]
        for route in start + optimum + [list(reversed(r)) for r in start]:
            assert _two_opt_route(D, route, tol) == reference_two_opt_route(D, route, tol)

    @pytest.mark.parametrize("n", [45, 100])
    def test_returns_the_reference_routes_on_many_random_tours(self, n):
        # some stamp faults change one education in tens, so a search run
        # many times on one instance is checked too
        inst = generate_uniform(n, n)
        dm = build_distance_matrix(inst)
        args = dm.tolist(), [0] + list(inst.demands), inst.capacity
        neighbours, tol = _neighbour_lists(dm), _move_tolerance(dm)
        rng = np.random.default_rng(n)
        for _ in range(30):
            start = split_giant_tour(*args, [int(c) for c in rng.permutation(np.arange(1, n + 1))])
            assert _local_search(*args, start, neighbours, tol) == reference_local_search(*args, start, neighbours, tol)


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

    def test_coincident_points_fill_every_cluster(self):
        # with three points at one place, k-means++ seeding finds no distance
        # left to draw the third centroid by, and a cluster empties and steals
        pts = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]])
        for seed in range(6):
            labels = kmeans(pts, 3, seed)
            assert set(labels.tolist()) == {0, 1, 2}
            assert np.array_equal(kmeans(pts, 3, seed), labels)


class TestDecompose:
    def test_single_cluster_when_m_large(self):
        inst = generate_uniform(20, 6)
        sol = initial_solution(inst, 6, build_distance_matrix(inst))
        labels, subs = decompose(inst, sol, m=100)
        assert labels.tolist() == [0] * sol.n_routes
        assert len(subs) == 1
        assert subs[0].instance.n_customers == 20
        assert len(subs[0].warm_routes) == sol.n_routes

    def test_partition_property(self):
        inst = generate_uniform(60, 13)
        sol = initial_solution(inst, 13, build_distance_matrix(inst))
        _, subs = decompose(inst, sol, m=15)
        assert len(subs) == math.ceil(60 / 15) or len(subs) == sol.n_routes
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
        _, subs = decompose(inst, sol, m=8)
        assert len(subs) == 2
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
    def test_sliced_matrices_equal_rebuilt_ones(self, source, monkeypatch):
        if source == "uniform":
            inst = generate_uniform(200, 5)
        else:  # rounded distances
            inst = load_instance(os.path.join(os.path.dirname(__file__), "data", "A-n32-k5.vrp"))
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 5, dm), m=10)
        assert len(subs) > 1
        sliced = []
        monkeypatch.setattr(expert, "hgs_solve",
                            lambda instance, warm_start, cfg, dm: sliced.append(dm) or warm_start)
        for sub in subs:
            _solve_one(sub, FAST, dm)
            assert np.array_equal(sliced[-1], build_distance_matrix(sub.instance))
            assert sliced[-1].dtype == np.float64 and not sliced[-1].flags.writeable

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
        # a cluster fails once in this process's lane and once in a worker's
        caller = os.getpid()
        real = expert.hgs_solve
        cpus(2)
        inst = generate_uniform(60, 4)
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 4, dm), m=15)
        assert len(subs) >= 3

        def failing(instance, *args, **kwargs):
            if (os.getpid() == caller) == (where == "parent"):
                raise InstanceError(f"a cluster failed in the {where}")
            return real(instance, *args, **kwargs)

        monkeypatch.setattr(expert, "hgs_solve", failing)  # inherited by forked workers
        for where in ("parent", "worker"):
            with pytest.raises(InstanceError, match=f"failed in the {where}"):
                solve_subproblems(subs, FAST, dm)
            assert multiprocessing.active_children() == []

    def test_a_cluster_worker_that_dies_is_an_error(self, cpus, monkeypatch):
        caller = os.getpid()
        real = expert.hgs_solve
        monkeypatch.setattr(expert, "hgs_solve",
                            lambda *a, **kw: os._exit(3) if os.getpid() != caller else real(*a, **kw))
        cpus(2)
        inst = generate_uniform(60, 4)
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 4, dm), m=15)
        with pytest.raises(RuntimeError, match="the cluster worker exited with code 3"):
            solve_subproblems(subs, FAST, dm)
        assert multiprocessing.active_children() == []

    def test_a_zero_budget_draws_no_child(self, cpus, monkeypatch):
        drawn = []
        real = expert._draw_child
        monkeypatch.setattr(expert, "_draw_child", lambda *a: drawn.append(1) or real(*a))
        cpus(1)  # every cluster in this process, where the draws are counted
        inst = generate_uniform(60, 4)
        dm = build_distance_matrix(inst)
        start = initial_solution(inst, 4, dm)
        assert len(decompose(inst, start, m=15)[1]) == 4
        refined = expert_refine(inst, start, m=15, cfg=replace(FAST, max_iterations=0), dm=dm)
        assert drawn == []
        assert refined.total_cost <= start.total_cost + 1e-9
        expert_refine(inst, start, m=15, cfg=replace(FAST, max_iterations=1), dm=dm)
        assert len(drawn) == 4  # a budget above 0 still gives each cluster one child

    def test_the_lane_workers_exit_by_themselves(self, cpus, monkeypatch):
        # close waits for each worker first: one still waiting for requests
        # would hold the test up to the join's timeout and end killed
        exits = []
        real_close = expert.Worker.close
        monkeypatch.setattr(expert.Worker, "close", lambda self: (
            self.proc.join(30), exits.append(self.proc.exitcode), real_close(self)
        ))
        cpus(3)
        inst = generate_uniform(60, 4)
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 4, dm), m=15)
        solve_subproblems(subs, FAST, dm)
        assert exits == [0, 0]

    @pytest.mark.parametrize(
        "n_cpus, clusters, forks",
        [(2, 1, 0), (1, 2, 0), (2, 2, 1)],
        ids=["one cluster", "one CPU", "two workers"],
    )
    @pytest.mark.parametrize("threaded", [False, True], ids=["alone", "another thread"])
    def test_a_pool_only_from_two_workers(self, n_cpus, clusters, forks, threaded, cpus, starts, monkeypatch):
        monkeypatch.setattr(expert, "_FORK_AFTER_S", math.inf)  # so that only lane workers start
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
        assert len(starts()) == (0 if threaded else forks)

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

    def test_an_instance_with_no_fleet_feasible_solution_is_an_instance_error(self, cpus):
        # three customers of demand 6 under Q = 11 need three routes, against a fleet of two
        cpus(1)
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)), (6, 6, 6), 11, fleet_limit=2)
        dm = build_distance_matrix(inst)
        start = initial_solution(inst, 0, dm)
        assert start.n_routes == 3
        with pytest.raises(InstanceError, match="no fleet-feasible solution found"):
            expert_refine(inst, start, m=5, cfg=FAST, dm=dm)

    @pytest.mark.parametrize("seed", range(6))
    def test_a_seed_over_the_fleet_limit_is_refined_into_it(self, seed, cpus):
        # the sweep packs the hexagon's customers into three routes; two
        # routes of loads 10 (5 + 3 + 2) and 10 (4 + 3 + 3) fit the fleet
        cpus(1)
        hexagon = tuple((math.cos(2 * math.pi * i / 6), math.sin(2 * math.pi * i / 6)) for i in range(6))
        inst = Instance((0.0, 0.0), hexagon, (5, 4, 3, 3, 3, 2), 10, fleet_limit=2)
        dm = build_distance_matrix(inst)
        start = initial_solution(inst, seed, dm)
        assert start.n_routes == 3
        refined = expert_refine(inst, start, m=5, cfg=replace(FAST, max_iterations=100, seed=seed), dm=dm)
        assert refined.n_routes == 2
        assert check_feasible(inst, refined).feasible
        assert refined.total_cost == pytest.approx(solution_cost(dm, refined.routes), rel=1e-12)


class TestScale:
    """Continuous instances with coordinates near 1e7. The rounding noise in
    a move's gain grows with the distances; it must never pass for a gain,
    or the search moves back and forth forever. Each run has a deadline."""

    def test_the_deadline_stops_an_endless_loop(self, deadline):
        with pytest.raises(TimeoutError):
            with deadline(0.2):
                while True:
                    pass

    def test_two_opt_ends_where_a_reversal_gains_only_rounding_noise(self, deadline):
        inst = scaled(generate_uniform(4, 5), 1e7)
        dm = build_distance_matrix(inst)
        D, tol = dm.tolist(), _move_tolerance(dm)
        with deadline(5):
            route = _two_opt_route(D, [1, 2, 3, 4], tol)
        assert route == [1, 3, 2, 4]
        # reversing the whole route changes nothing in exact arithmetic, yet
        # it is scored as a small gain, which the tolerance rejects
        a, b = route[0], route[-1]
        noise = D[0][b] + D[a][0] - D[0][a] - D[b][0]
        assert -tol < noise < 0

    def test_hgs_ends_and_is_feasible(self, cpus, deadline):
        cpus(1)
        inst = scaled(generate_uniform(60, 3), 1e7)
        with deadline(30):
            sol = hgs_solve(inst, cfg=HgsConfig(max_iterations=100, seed=1))
        assert check_feasible(inst, sol).feasible


def _tick_once_a_reading(monkeypatch) -> None:
    """Give ``expert`` a clock that ticks once a reading, so a one-CPU and a
    two-CPU search stop at the same point: the same readings happen in the
    same order."""
    clock = itertools.count()
    monkeypatch.setattr(expert, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))


def _serial_and_helped(inst, warm, cfg, cpus, monkeypatch):
    """``hgs_solve`` on one CPU and then on two, each with the number of
    educations this process ran (a helper counts in its own copy)."""
    educations = []
    real = expert._local_search
    monkeypatch.setattr(expert, "_local_search", lambda *a: educations.append(1) or real(*a))
    runs = []
    for k in (1, 2):
        educations.clear()
        cpus(k)
        runs.append((hgs_solve(inst, warm, cfg=cfg), len(educations)))
    return runs


class TestHelper:
    """hgs_solve's forked helper: the serial output whatever the host and
    however the tours pair up, once forked it educates every later pair, its
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
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        (serial, serial_educations), (helped, educations) = _serial_and_helped(inst, warm, cfg, cpus, monkeypatch)
        assert helped == serial
        assert starts() == [os.getpid()]
        assert multiprocessing.active_children() == []
        # the parent educates exactly the first tour of every pair, from the
        # first pair of initial tours on
        tours = cfg.population_size - (1 if warm is None else 3)
        assert educations == serial_educations - tours // 2 - cfg.max_iterations // 2

    @pytest.mark.parametrize("warm, population_size, max_iterations, time_budget_s", [
        (False, 12, 41, None),  # 11 initial tours, and an odd child count
        (True, 12, 40, None),  # 9 initial tours after the warm start's two
        (False, 10, 40, None),  # 9 initial tours
        (True, 11, 10**9, 10.5),  # the time budget stops the search
    ], ids=["odd-children", "odd-tours-warm", "odd-tours", "time-budget"])
    def test_every_pairing_equals_the_one_cpu_search(
        self, warm, population_size, max_iterations, time_budget_s, cpus, starts, monkeypatch
    ):
        inst = generate_uniform(40, 8)
        warm = initial_solution(inst, 5, build_distance_matrix(inst)) if warm else None
        cfg = HgsConfig(population_size=population_size, max_iterations=max_iterations,
                        time_budget_s=time_budget_s, seed=4)
        if time_budget_s is not None:
            _tick_once_a_reading(monkeypatch)
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        (serial, _), (helped, _) = _serial_and_helped(inst, warm, cfg, cpus, monkeypatch)
        assert helped == serial
        assert starts() == [os.getpid()]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("k", [1, 2])
    def test_each_pair_is_drawn_from_the_population_two_pairs_back(self, k, cpus, starts, monkeypatch):
        joined = []  # joined[c]: what the c-th educate call returned, pair c - 1's individuals
        draws = []  # (the pair being drawn, the population it is drawn from)
        events = []  # each educate call's tour count, then what it did, in order
        sent = []  # what each Worker.send carried
        real_draw, real_educate = expert._draw_child, expert._Helper.educate
        real_search, real_send, real_recv = expert._local_search, expert.Worker.send, expert.Worker.recv

        def draw(rng, population):
            draws.append((len(joined), list(population)))
            return real_draw(rng, population)

        def educate(self, tours):
            events.append([len(tours)])
            joined.append(real_educate(self, tours))
            return joined[-1]

        def log(event, real):
            return lambda *args: events and events[-1].append(event) or real(*args)

        monkeypatch.setattr(expert, "_draw_child", draw)
        monkeypatch.setattr(expert._Helper, "educate", educate)
        monkeypatch.setattr(expert, "_local_search", log("here", real_search))  # the helper logs in its copy
        monkeypatch.setattr(expert.Worker, "send", log("send", lambda self, arg: sent.append(arg) or real_send(self, arg)))
        monkeypatch.setattr(expert.Worker, "recv", log("recv", real_recv))
        # every individual stays, so that each draw shows which pairs have joined
        monkeypatch.setattr(expert, "_survivors", lambda population, size: population)
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        cpus(k)
        hgs_solve(generate_uniform(30, 5), cfg=HgsConfig(population_size=9, max_iterations=11, seed=1))
        assert starts() == [os.getpid()] * (k - 1)
        # 8 initial tours in pairs 0-3, 11 children in pairs 4-9 (the last
        # alone), then the call that collects pair 9
        assert [len(individuals) for individuals in joined] == [0] + [2] * 9 + [1]
        assert [pair for pair, _ in draws] == [4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9]
        for pair, population in draws:
            ids = {id(ind) for ind in population}
            assert {id(ind) for ind in joined[pair - 1]} <= ids  # pair - 2, the last initial pair at first
            assert not {id(ind) for ind in joined[pair]} & ids  # pair - 1
        # a pair's second tour is sent and its first educated here before
        # the answer for the pair before is read
        if k == 2:
            expected = [[2, "send", "here"]] + [[2, "send", "here", "recv"]] * 8 + [[1, "here", "recv"], [0]]
        else:
            expected = [[2, "here", "here"]] * 9 + [[1, "here"], [0]]
        assert events == expected
        # every request, an initial tour's too, is a tour of all 30 customers
        assert len(sent) == 9 * (k - 1)
        assert all(type(tour) is list and sorted(tour) == list(range(1, 31)) for tour in sent)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_budget_stop_joins_the_pair_in_flight(self, k, cpus, starts, monkeypatch):
        # readings: 0 at the start, 1 and 2 around the sweep's education,
        # 3 to 7 before pairs 0-4 (two initial, three generations), 8 past
        # the budget
        counts = {"sent": 0, "answered": 0}
        collected, chosen = [], []
        real_send, real_recv, real_educate = expert.Worker.send, expert.Worker.recv, expert._Helper.educate
        real_canonical = expert._canonical_routes

        def send(self, arg):
            counts["sent"] += 1
            real_send(self, arg)

        def recv(self):
            out = real_recv(self)
            counts["answered"] += 1
            return out

        def educate(self, tours):
            out = real_educate(self, tours)
            if not tours:  # the pair in flight: ranked first, so the solve returns it once it joins
                for ind in out:
                    ind.cost = -1.0
                collected.extend(out)
            return out

        monkeypatch.setattr(expert.Worker, "send", send)
        monkeypatch.setattr(expert.Worker, "recv", recv)
        monkeypatch.setattr(expert._Helper, "educate", educate)
        monkeypatch.setattr(expert, "_canonical_routes", lambda routes: chosen.append(routes) or real_canonical(routes))
        _tick_once_a_reading(monkeypatch)
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        cpus(k)
        inst = generate_uniform(30, 5)
        sol = hgs_solve(inst, cfg=HgsConfig(population_size=5, max_iterations=10**9, time_budget_s=7.5, seed=1))
        assert len(collected) == 2
        assert chosen == [collected[0].routes] and chosen[0] is collected[0].routes  # the best of the population
        assert check_feasible(inst, sol).feasible
        # the second tour of each of the five pairs went to the helper, and
        # every answer was read
        assert counts == ({"sent": 5, "answered": 5} if k == 2 else {"sent": 0, "answered": 0})
        assert starts() == [os.getpid()] * (k - 1)
        assert multiprocessing.active_children() == []

    def test_a_budget_stops_the_initial_population(self, cpus, starts, monkeypatch):
        # readings: 0 at the start, 1 and 2 around the sweep's education,
        # 3 before the first pair of initial tours, 4 before the second pair,
        # past the budget
        inst = generate_uniform(40, 8)
        warm = initial_solution(inst, 5, build_distance_matrix(inst))
        cfg = HgsConfig(population_size=11, max_iterations=10**9, time_budget_s=3.5, seed=4)
        _tick_once_a_reading(monkeypatch)
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        (serial, serial_educations), (helped, educations) = _serial_and_helped(inst, warm, cfg, cpus, monkeypatch)
        assert helped == serial
        # the sweep, the warm start and one pair of the eight initial tours;
        # the helper educated the pair's second tour
        assert (serial_educations, educations) == (4, 3)
        assert check_feasible(inst, serial).feasible
        assert serial.total_cost <= warm.total_cost + 1e-9
        assert starts() == [os.getpid()]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("reading_s, forks", [(1.0, True), (1e-5, False)])
    def test_the_fork_follows_the_predicted_search_time(self, reading_s, forks, cpus, starts, monkeypatch):
        # readings reading_s apart, so the sweep's education reads reading_s;
        # the search left is predicted at reading_s times the 19 initial
        # tours and 40 children: 59 s, or 0.6 ms, against _FORK_AFTER_S
        inst = generate_uniform(40, 8)
        cfg = HgsConfig(population_size=20, max_iterations=40, seed=4)
        clock = itertools.count()
        monkeypatch.setattr(expert, "time", SimpleNamespace(monotonic=lambda: next(clock) * reading_s))
        (serial, serial_educations), (helped, educations) = _serial_and_helped(inst, None, cfg, cpus, monkeypatch)
        assert helped == serial
        if forks:  # at the first pair of initial tours
            assert starts() == [os.getpid()]
            assert educations == serial_educations - 19 // 2 - cfg.max_iterations // 2
        else:
            assert starts() == []
            assert educations == serial_educations
        assert multiprocessing.active_children() == []

    def test_a_small_solve_forks_nothing(self, cpus, starts):
        # the default config at n=5 predicts about 9 ms of search after its
        # sweep, which a fork would not repay
        cpus(2)
        hgs_solve(generate_uniform(5, 1), cfg=HgsConfig(seed=1))
        assert starts() == []

    def test_a_search_with_no_pair_to_educate_forks_nothing(self, cpus, starts, monkeypatch):
        # one initial tour beside the sweep and one child: every tour is
        # educated alone, so a helper would have nothing to do
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        cpus(2)
        inst = generate_uniform(30, 5)
        sol = hgs_solve(inst, cfg=HgsConfig(population_size=2, max_iterations=1, seed=1))
        assert check_feasible(inst, sol).feasible
        assert starts() == []

    @pytest.mark.parametrize("budget", [1, 3, 6, 11, 19, 26, 41])
    def test_a_budget_is_overrun_by_at_most_one_pair_of_educations(self, budget, cpus, monkeypatch):
        # a clock that reads the tours handed out so far (educated here or
        # sent to the helper): a budget check passes while at most `budget`
        # are, then at most one pair is before the next check; at every
        # reading the helper holds at most one unanswered tour
        caller = os.getpid()
        counts = {"here": 0, "sent": 0, "answered": 0}
        backlog = []
        real_search, real_send, real_recv = expert._local_search, expert.Worker.send, expert.Worker.recv

        def counted(*args):
            counts["here"] += os.getpid() == caller
            return real_search(*args)

        def send(self, arg):
            counts["sent"] += 1
            real_send(self, arg)

        def recv(self):
            out = real_recv(self)
            counts["answered"] += 1
            return out

        def clock():
            backlog.append(counts["sent"] - counts["answered"])
            return float(counts["here"] + counts["sent"])

        monkeypatch.setattr(expert, "_local_search", counted)
        monkeypatch.setattr(expert.Worker, "send", send)
        monkeypatch.setattr(expert.Worker, "recv", recv)
        monkeypatch.setattr(expert, "time", SimpleNamespace(monotonic=clock))
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        inst = generate_uniform(40, 3)
        cfg = HgsConfig(population_size=20, max_iterations=10**9, time_budget_s=budget + 0.5, seed=1)
        for k in (1, 2):
            cpus(k)
            counts.update(here=0, sent=0, answered=0)
            hgs_solve(inst, cfg=cfg)
            assert budget < counts["here"] + counts["sent"] <= budget + 2
            assert counts["sent"] == counts["answered"] and (counts["sent"] > 0) == (k == 2)
        assert max(backlog) == 1
        assert multiprocessing.active_children() == []

    def test_a_helper_on_the_parents_only_free_cpu_runs_to_the_end(
        self, one_cpu, cpus, starts, deadline, monkeypatch
    ):
        inst = generate_uniform(60, 11)
        cfg = HgsConfig(population_size=20, max_iterations=80, seed=2)
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        with deadline(30):
            (serial, serial_educations), (helped, educations) = _serial_and_helped(inst, None, cfg, cpus, monkeypatch)
        assert helped == serial
        assert starts() == [os.getpid()]
        # the parent educates exactly the first tour of every pair: nothing
        # closed the helper before the search ended
        tours = cfg.population_size - 1
        assert educations == serial_educations - tours // 2 - cfg.max_iterations // 2
        assert multiprocessing.active_children() == []

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

    def test_an_error_in_the_initial_population_reaches_the_caller(self, cpus, starts, monkeypatch):
        caller = os.getpid()
        educations = []
        real = expert._local_search

        def failing(*args):
            # the helper's copy of the count goes on from the fork: it fails
            # at its third tour, with the next pair's already sent to it
            educations.append(1)
            if os.getpid() != caller and len(educations) > 3:
                raise InstanceError("education failed in the helper")
            return real(*args)

        monkeypatch.setattr(expert, "_local_search", failing)
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        cpus(2)
        with pytest.raises(InstanceError, match="failed in the helper"):
            hgs_solve(generate_uniform(30, 2), cfg=HgsConfig(population_size=30, max_iterations=0, seed=1))
        assert starts() == [os.getpid()]
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
        # the worker's lane ends only once this process has ended its own,
        # so the worker holds the other CPU throughout this lane
        caller = os.getpid()
        lane_done = multiprocessing.get_context("fork").Event()
        solve, recv = expert._solve_one, expert.Worker.recv

        def held(*args):
            out = solve(*args)
            if os.getpid() != caller:
                assert lane_done.wait(30)
            return out

        monkeypatch.setattr(expert, "_solve_one", held)
        monkeypatch.setattr(expert.Worker, "recv", lambda self: (lane_done.set(), recv(self))[1])
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)  # inherited by the worker
        cpus(2)
        inst = generate_uniform(60, 4)
        dm = build_distance_matrix(inst)
        _, subs = decompose(inst, initial_solution(inst, 4, dm), m=15)
        assert len(subs) >= 3
        solve_subproblems(subs, FAST, dm)
        assert starts() == [os.getpid()]  # the lane's worker, and no helper there or here

    def test_none_inside_the_train_step_worker(self, cpus, starts, monkeypatch, tmp_path):
        # a two-CPU default train_step forks one worker for its discriminator
        # half, and the expert runs there, where it forks nothing, even once
        # its solve has run _FORK_AFTER_S
        from routeflow import training

        solvers = tmp_path / "solvers"
        solvers.touch()
        real_solve = expert.hgs_solve

        def logged(*args, **kwargs):
            with open(solvers, "a") as f:
                f.write(f"{os.getpid()}\n")
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(expert, "hgs_solve", logged)
        monkeypatch.setattr(expert, "_FORK_AFTER_S", 0.0)
        cpus(2)
        cfg = training.TrainConfig(checkpoint_every=0, out_dir=str(tmp_path))
        state = training.init_train_state(cfg)
        training.train_step(state, [generate_uniform(cfg.n, 0)], cfg, 0, 0)
        assert starts() == [os.getpid()]  # the step's worker, and nothing inside it
        pids = {int(line) for line in solvers.read_text().split()}
        assert pids and os.getpid() not in pids  # every expert solve ran in the worker


class TestWorker:
    """The one way the package forks: answers in order, errors and deaths
    reach the caller, Ctrl-C does not stop it, and it exits by itself once
    its requests are closed and answered."""

    def test_answers_each_request_in_order(self):
        worker = expert.Worker(lambda x: (x, os.getpid()), "test worker")
        try:
            for x in range(3):
                worker.requests.send(x)
            answers = [worker.recv() for _ in range(3)]
        finally:
            worker.close()
        assert [x for x, _ in answers] == [0, 1, 2]
        assert {pid for _, pid in answers} == {worker.proc.pid} != {os.getpid()}

    def test_a_worker_runs_on_the_callers_cpus(self):
        worker = expert.Worker(lambda x: os.sched_getaffinity(0), "test worker")
        try:
            worker.send(None)
            assert worker.recv() == os.sched_getaffinity(0)
        finally:
            worker.close()

    def test_an_error_reaches_the_caller_and_the_worker_goes_on(self):
        def fn(x):
            if x == 1:
                raise InstanceError(f"request {x} failed")
            return x

        worker = expert.Worker(fn, "test worker")
        try:
            worker.requests.send(1)
            with pytest.raises(InstanceError, match="request 1 failed"):
                worker.recv()
            worker.requests.send(2)
            assert worker.recv() == 2
        finally:
            worker.close()

    def test_a_worker_sent_sigint_still_answers(self):
        worker = expert.Worker(lambda x: x + 1, "test worker")
        try:
            worker.requests.send(0)
            assert worker.recv() == 1  # so its handlers are set
            os.kill(worker.proc.pid, signal.SIGINT)
            worker.requests.send(1)
            assert worker.recv() == 2
            assert worker.proc.is_alive()
        finally:
            worker.close()

    def test_a_one_shot_worker_exits_by_itself(self):
        worker = expert.Worker(lambda x: x * 2, "test worker")
        try:
            worker.requests.send(21)
            worker.requests.close()
            assert worker.recv() == 42
            worker.proc.join(timeout=30)
            assert worker.proc.exitcode == 0
        finally:
            worker.close()

    def test_sending_to_a_worker_that_died_is_an_error(self):
        worker = expert.Worker(lambda x: x, "test worker")
        try:
            os.kill(worker.proc.pid, signal.SIGKILL)
            worker.proc.join(timeout=30)
            assert worker.proc.exitcode == -signal.SIGKILL
            with pytest.raises(RuntimeError, match=f"the test worker exited with code {-signal.SIGKILL}"):
                worker.send(1)
        finally:
            worker.close()
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_an_error(self):
        worker = expert.Worker(lambda x: os._exit(x), "test worker")
        try:
            worker.requests.send(5)
            with pytest.raises(RuntimeError, match="the test worker exited with code 5"):
                worker.recv()
        finally:
            worker.close()
        assert multiprocessing.active_children() == []
