import itertools
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from routeflow.core import (
    CONTINUOUS,
    ROUNDED,
    Instance,
    InstanceError,
    Route,
    Solution,
    TooLargeError,
    build_distance_matrix,
    check_feasible,
    exact_solve_small,
    knn_sparsify,
    make_route,
    make_solution,
    route_cost,
    solution_cost,
)
from routeflow.io import generate_uniform, load_instance


def tiny_instance(mode=CONTINUOUS):
    return Instance(
        depot=(0.0, 0.0),
        coords=((3.0, 4.0),),
        demands=(1,),
        capacity=10,
        distance_mode=mode,
    )


class TestInstanceInvariants:
    def test_demand_bounds(self):
        with pytest.raises(InstanceError):
            Instance((0, 0), ((1, 1),), (0,), 10)
        with pytest.raises(InstanceError):
            Instance((0, 0), ((1, 1),), (11,), 10)

    def test_non_finite_coordinates(self):
        with pytest.raises(InstanceError):
            Instance((0, 0), ((math.nan, 1),), (1,), 10)

    @pytest.mark.parametrize("xy", [(1, 2, 3), ("a", 0), (1,)], ids=repr)
    def test_a_coordinate_that_is_not_a_pair_of_numbers_is_refused(self, xy):
        # unchecked, these raised numpy's ValueError, a TypeError or an IndexError
        with pytest.raises(InstanceError, match="node 1 coordinate"):
            Instance((0, 0), (xy,), (1,), 3)
        with pytest.raises(InstanceError, match="node 0 coordinate"):
            Instance(xy, ((1, 1),), (1,), 3)

    def test_length_mismatch(self):
        with pytest.raises(InstanceError):
            Instance((0, 0), ((1, 1), (2, 2)), (1,), 10)

    @pytest.mark.parametrize("field,value", [
        ("demands", (1.5, 1.5, 1.5)), ("demands", (1, True, 1)), ("capacity", 3.2),
        ("capacity", 3.0), ("capacity", True), ("fleet_limit", 2.0), ("fleet_limit", True),
    ], ids=repr)
    def test_counts_that_are_not_integers_are_refused(self, field, value):
        # unchecked, fractional demands truncate in the neural decoder but not in HGS
        fields = {"demands": (1, 1, 1), "capacity": 3, "fleet_limit": None, field: value}
        with pytest.raises(InstanceError, match=field):
            Instance((0, 0), ((1, 0), (0, 1), (1, 1)), **fields)

    def test_numpy_integer_counts_are_stored_as_int(self):
        inst = Instance((0, 0), ((1, 0), (0, 1)), np.array([1, 2]), np.int64(3), np.int32(2))
        assert inst.demands == (1, 2) and inst.capacity == 3 and inst.fleet_limit == 2
        assert {type(v) for v in (*inst.demands, inst.capacity, inst.fleet_limit)} == {int}


class TestDistanceMatrix:
    def test_345_triangle_continuous(self):
        dm = build_distance_matrix(tiny_instance())
        assert dm[0, 1] == 5.0
        assert dm.dtype == np.float64 and dm.shape == (2, 2)
        assert not dm.flags.writeable

    def test_345_triangle_rounded(self):
        dm = build_distance_matrix(tiny_instance(ROUNDED))
        assert dm[0, 1] == 5
        assert dm[0, 1] == int(dm[0, 1])

    def test_rounding_is_nearest_integer(self):
        inst = Instance((0.0, 0.0), ((1.4, 0.0), (1.6, 0.0)), (1, 1), 10,
                        distance_mode=ROUNDED)
        dm = build_distance_matrix(inst)
        assert dm[0, 1] == 1
        assert dm[0, 2] == 2

    @pytest.mark.parametrize("source", ["uniform", "uniform-rounded", "A-n32-k5"])
    def test_matches_the_straight_formula_bit_for_bit(self, source):
        if source == "A-n32-k5":
            inst = load_instance(os.path.join(os.path.dirname(__file__), "data", "A-n32-k5.vrp"))
        else:
            inst = generate_uniform(300, 5)
            if source == "uniform-rounded":
                inst = replace(inst, depot=(1e3 * inst.depot[0], 1e3 * inst.depot[1]),
                               coords=tuple((1e3 * x, 1e3 * y) for x, y in inst.coords),
                               distance_mode=ROUNDED)
        pts = inst.all_points()
        diff = pts[:, None, :] - pts[None, :, :]
        want = np.sqrt((diff * diff).sum(axis=2))
        if inst.distance_mode == ROUNDED:
            want = np.floor(want + 0.5)
        assert np.array_equal(build_distance_matrix(inst), want)

    def test_peak_memory_is_two_n_by_n_arrays(self, traced_peak):
        # the result and one (n, n) temporary; no (n, n, 2) difference array
        inst = generate_uniform(999, 4)
        n = inst.n_nodes
        assert traced_peak(lambda: build_distance_matrix(inst)) < 2.1 * n * n * 8

    def test_symmetry_and_zero_diagonal(self):
        inst = generate_uniform(12, 3)
        dm = build_distance_matrix(inst)
        assert np.allclose(dm, dm.T)
        assert np.all(np.diag(dm) == 0)


class TestRouteCost:
    def test_single_customer_out_and_back(self):
        inst = tiny_instance()
        dm = build_distance_matrix(inst)
        r = make_route(inst, [1])
        assert route_cost(dm, r) == 10.0

    def test_two_customer_triangle(self):
        dm = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        inst = Instance((0, 0), ((1, 0), (0, 1)), (1, 1), 5)
        assert route_cost(dm, make_route(inst, [1, 2])) == 3.0

    def test_matches_naive_telescoping(self):
        inst = generate_uniform(5, 11)
        dm = build_distance_matrix(inst)
        route = make_route(inst, [3, 1, 5, 2, 4])
        path = [0, 3, 1, 5, 2, 4, 0]
        naive = sum(dm[path[i], path[i + 1]] for i in range(len(path) - 1))
        assert route_cost(dm, route) == pytest.approx(naive, rel=1e-12)
        assert route_cost(dm, route.nodes) == route_cost(dm, route)

    def test_reversal_invariance(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            inst = generate_uniform(8, seed)
            dm = build_distance_matrix(inst)
            nodes = list(rng.permutation(np.arange(1, 9)))
            fwd = route_cost(dm, make_route(inst, nodes))
            bwd = route_cost(dm, make_route(inst, nodes[::-1]))
            assert fwd == pytest.approx(bwd, rel=1e-12)


class TestFeasibility:
    def test_clean_solution(self):
        inst = generate_uniform(6, 2)
        dm = build_distance_matrix(inst)
        sol = make_solution(inst, dm, [[1, 2, 3], [4, 5, 6]])
        report = check_feasible(inst, sol)
        assert report.feasible
        assert report.violations == ()

    def test_duplicate_names_customer(self):
        inst = generate_uniform(4, 2)
        dm = build_distance_matrix(inst)
        sol = make_solution(inst, dm, [[1, 3], [3, 2, 4]])
        report = check_feasible(inst, sol)
        kinds = [(v.kind, v.subject) for v in report.violations]
        assert ("duplicate", 3) in kinds
        assert not report.feasible

    def test_missing_customer(self):
        inst = generate_uniform(4, 2)
        dm = build_distance_matrix(inst)
        sol = make_solution(inst, dm, [[1, 2], [4]])
        report = check_feasible(inst, sol)
        assert [(v.kind, v.subject) for v in report.violations] == [("missing", 3)]

    def test_capacity_overflow_amount(self):
        inst = Instance((0, 0), ((1, 0), (0, 1)), (6, 5), 10)
        dm = build_distance_matrix(inst)
        sol = make_solution(inst, dm, [[1, 2]])
        report = check_feasible(inst, sol)
        assert [(v.kind, v.amount) for v in report.violations] == [("capacity", 1)]

    def test_fleet_limit(self):
        inst = Instance((0, 0), ((1, 0), (0, 1)), (6, 5), 10, fleet_limit=1)
        dm = build_distance_matrix(inst)
        sol = make_solution(inst, dm, [[1], [2]])
        report = check_feasible(inst, sol)
        assert [(v.kind, v.amount) for v in report.violations] == [("fleet", 1)]

    @pytest.mark.parametrize("node", [0, -1, 5, 7])
    def test_a_node_outside_the_customers_is_unknown_and_adds_no_load(self, node):
        # 0 and -1 would read another customer's demand, and 5 and 7 are past the end
        inst = Instance((0, 0), ((1, 0), (0, 1), (1, 1), (2, 0)), (4, 4, 4, 4), 8)
        sol = Solution((Route((1, node, 2), 8), Route((3, 4), 8)), 0.0)
        report = check_feasible(inst, sol)
        assert not report.feasible
        assert [(v.kind, v.subject) for v in report.violations] == [("unknown", node)]

    @pytest.mark.parametrize("node", [0, -2, 5])
    def test_make_route_refuses_a_node_outside_the_customers(self, node):
        # 0 and -2 would record demands[-1] = 4 and demands[-3] = 2 as load
        inst = Instance((0, 0), ((1, 0), (0, 1), (1, 1), (2, 0)), (1, 2, 3, 4), 10)
        with pytest.raises(InstanceError, match=f"route node {node} "):
            make_route(inst, [node, 1])
        assert make_route(inst, [4, 1]).load == 5

    def test_cached_cost_matches_recomputation(self):
        for seed in range(30):
            inst = generate_uniform(10, seed)
            dm = build_distance_matrix(inst)
            order = list(range(1, 11))
            sol = make_solution(inst, dm, [order[:4], order[4:7], order[7:]])
            assert sol.total_cost == pytest.approx(
                solution_cost(dm, sol.routes), rel=1e-9
            )


class TestKnnSparsify:
    def test_collinear_nearest(self):
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0)), (1, 1, 1), 5)
        dm = build_distance_matrix(inst)
        rows = knn_sparsify(dm, 1)
        assert rows[0].tolist() == [1]
        assert rows[1].tolist() == [0]
        # node 2 is equidistant from 1 and 3; tie goes to the lower index,
        # but the depot rule replaces the only slot
        assert rows[2].tolist() == [0]
        assert rows[3].tolist() == [0]

    def test_full_graph_recovered(self):
        inst = generate_uniform(7, 5)
        dm = build_distance_matrix(inst)
        rows = knn_sparsify(dm, 12)
        for i in range(8):
            assert sorted(rows[i].tolist()) == [j for j in range(8) if j != i]

    def test_against_full_sort_oracle(self):
        inst = generate_uniform(39, 8)
        dm = build_distance_matrix(inst)
        rows = knn_sparsify(dm, 10)
        for i in range(len(dm)):
            ranked = sorted(
                (j for j in range(len(dm)) if j != i), key=lambda j: (dm[i, j], j)
            )
            expected = set(ranked[:10])
            got = set(rows[i].tolist())
            if i != 0 and 0 not in expected:
                expected = set(ranked[:9]) | {0}
            assert got == expected, f"node {i}"

    def test_depot_always_neighbor_of_customers(self):
        inst = generate_uniform(40, 9)
        dm = build_distance_matrix(inst)
        rows = knn_sparsify(dm, 5)
        for i in range(1, len(dm)):
            assert 0 in rows[i]

    def test_deterministic(self):
        inst = generate_uniform(25, 4)
        dm = build_distance_matrix(inst)
        assert np.array_equal(knn_sparsify(dm, 6), knn_sparsify(dm, 6))


class TestExactSolver:
    def test_single_customer(self):
        inst = tiny_instance()
        sol = exact_solve_small(inst)
        assert sol.total_cost == 10.0
        assert [r.nodes for r in sol.routes] == [(1,)]

    def test_collinear_line_order(self):
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (2.0, 0.0), (3.0, 0.0)), (1, 1, 1), 10)
        sol = exact_solve_small(inst)
        assert sol.total_cost == pytest.approx(6.0)
        assert [r.nodes for r in sol.routes] == [(1, 2, 3)]

    def test_too_large(self):
        inst = generate_uniform(9, 0)
        with pytest.raises(TooLargeError):
            exact_solve_small(inst)

    def test_respects_fleet_limit(self):
        inst = Instance(
            (0.0, 0.0),
            ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)),
            (3, 3, 3, 3),
            6,
            fleet_limit=2,
        )
        sol = exact_solve_small(inst)
        assert sol.n_routes == 2
        assert check_feasible(inst, sol).feasible

    def test_beats_every_enumerated_partition(self):
        # spot check: optimal cost is a lower bound over all sequenced partitions
        inst = generate_uniform(5, 77)
        dm = build_distance_matrix(inst)
        best = exact_solve_small(inst)
        customers = list(range(1, 6))
        for perm in itertools.permutations(customers):
            for split_mask in range(2 ** 4):
                routes = []
                cur = [perm[0]]
                for k, c in enumerate(perm[1:]):
                    if split_mask >> k & 1:
                        routes.append(cur)
                        cur = [c]
                    else:
                        cur.append(c)
                routes.append(cur)
                if any(
                    sum(inst.demand_of(c) for c in r) > inst.capacity for r in routes
                ):
                    continue
                cost = solution_cost(dm, [make_route(inst, r) for r in routes])
                assert cost >= best.total_cost - 1e-9
