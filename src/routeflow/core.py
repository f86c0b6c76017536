"""Problem data model, cost/feasibility semantics, and exact small-instance oracle.

Node indexing convention used throughout the package: node 0 is the depot,
customers are nodes 1..N. A Route stores customer indices only; the depot is
implicit at both ends.

The distance matrix and the k-nearest-neighbour rows live here as plain
data. The networks never take them loose: ``neural.instance_graph`` builds
each instance's one graph (distances, edge index and node features) from
them, and every network pass reads that object.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

CONTINUOUS = "continuous"
ROUNDED = "rounded"

COST_REL_TOL = 1e-9


class InstanceError(ValueError):
    """Raised when instance data violates a structural invariant."""


def is_int(v) -> bool:
    """An int that is not a bool: JSON's ``true`` is no count."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def int_at_least(low: int):
    """The rule of ``check_fields`` for an integer field of at least ``low``."""
    return lambda v: is_int(v) and v >= low, f"an integer >= {low}"


def check_fields(obj, rules: dict, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the first field of ``obj`` whose value fails
    its rule; ``rules`` maps a field name to (test, what it must be)."""
    for name, (ok, what) in rules.items():
        value = getattr(obj, name)
        if not ok(value):
            raise error(f"{name} must be {what}, got {value!r}")


def _count(name: str, value) -> int:
    """An int or numpy integer ``value`` >= 1 of the instance field ``name``
    as an int; anything else, a float or a bool too, is an InstanceError."""
    if not (is_int(value) or isinstance(value, np.integer)) or value < 1:
        raise InstanceError(f"{name}: {value!r} is not an integer >= 1")
    return int(value)


def _is_point(xy) -> bool:
    """A pair of finite real numbers, Python's or numpy's, bools not."""
    try:
        x, y = xy
    except (TypeError, ValueError):
        return False
    real = (int, float, np.integer, np.floating)
    return (isinstance(x, real) and isinstance(y, real) and bool not in (type(x), type(y))
            and math.isfinite(x) and math.isfinite(y))


@dataclass(frozen=True)
class Instance:
    """A CVRP instance: depot, customers with demands, capacity, fleet limit.

    ``fleet_limit=None`` means the number of vehicles is unbounded.
    ``distance_mode`` selects continuous Euclidean costs or the integer
    nearest-rounding convention used by the classic benchmark files.
    """

    depot: tuple[float, float]
    coords: tuple[tuple[float, float], ...]
    demands: tuple[int, ...]
    capacity: int
    fleet_limit: int | None = None
    distance_mode: str = CONTINUOUS
    name: str = ""

    def __post_init__(self):
        if self.distance_mode not in (CONTINUOUS, ROUNDED):
            raise InstanceError(f"unknown distance_mode {self.distance_mode!r}")
        object.__setattr__(self, "demands", tuple(_count("demands", d) for d in self.demands))
        object.__setattr__(self, "capacity", _count("capacity", self.capacity))
        if self.fleet_limit is not None:
            object.__setattr__(self, "fleet_limit", _count("fleet_limit", self.fleet_limit))
        if len(self.coords) != len(self.demands):
            raise InstanceError("coords and demands length mismatch")
        if not self.coords:
            raise InstanceError("instance needs at least one customer")
        for i, xy in enumerate((self.depot, *self.coords)):
            if not _is_point(xy):
                raise InstanceError(f"node {i} coordinate {xy!r} is not two finite numbers")
        for i, d in enumerate(self.demands):
            if d > self.capacity:
                raise InstanceError(f"customer {i + 1} demand {d} exceeds Q={self.capacity}")

    @property
    def n_customers(self) -> int:
        return len(self.coords)

    @property
    def n_nodes(self) -> int:
        return len(self.coords) + 1

    def demand_of(self, customer: int) -> int:
        """Demand of a customer by node index (1..N)."""
        return self.demands[customer - 1]

    def all_points(self) -> np.ndarray:
        """(n_nodes, 2) array of coordinates, depot in row 0."""
        return np.array([self.depot, *self.coords], dtype=np.float64)


@dataclass(frozen=True)
class Route:
    """Ordered customer indices of one vehicle; depot implicit at both ends."""

    nodes: tuple[int, ...]
    load: int

    def __post_init__(self):
        if not self.nodes:
            raise InstanceError("route may not be empty")
        if len(set(self.nodes)) != len(self.nodes):
            raise InstanceError("route repeats a customer")


@dataclass(frozen=True)
class Solution:
    """A set of depot-anchored routes with a cached total cost."""

    routes: tuple[Route, ...]
    total_cost: float

    @property
    def n_routes(self) -> int:
        return len(self.routes)


@dataclass(frozen=True)
class Violation:
    kind: str  # "unknown" | "missing" | "duplicate" | "capacity" | "fleet"
    subject: int  # node id, customer id, route index, or vehicle count
    amount: int = 0  # overflow for "capacity", excess vehicles for "fleet"


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[Violation, ...] = ()


def make_route(instance: Instance, nodes) -> Route:
    """The route over ``nodes`` and its load; a node id outside 1..N raises InstanceError."""
    nodes = tuple(int(v) for v in nodes)
    for c in nodes:
        if not 1 <= c <= instance.n_customers:
            raise InstanceError(f"route node {c} is not a customer id in 1..{instance.n_customers}")
    return Route(nodes, sum(instance.demand_of(c) for c in nodes))


def make_solution(instance: Instance, dm: np.ndarray, route_nodes) -> Solution:
    """Construct a Solution from raw node lists, computing loads and cost."""
    routes = tuple(make_route(instance, nodes) for nodes in route_nodes)
    return Solution(routes, solution_cost(dm, routes))


def build_distance_matrix(instance: Instance) -> np.ndarray:
    """Pairwise travel costs for all nodes as a read-only (n_nodes, n_nodes)
    float64 array, symmetric and non-negative, depot in row/column 0.

    Rounded mode applies the benchmark nearest-integer convention
    ``nint(d) = floor(d + 0.5)``; continuous mode keeps full precision.
    """
    pts = instance.all_points()
    d, dy = (pts[:, None, i] - pts[None, :, i] for i in (0, 1))  # two (n, n) arrays at most
    d *= d
    d += np.square(dy, out=dy)
    np.sqrt(d, out=d)
    if instance.distance_mode == ROUNDED:
        np.floor(np.add(d, 0.5, out=d), out=d)
    d.setflags(write=False)
    return d


def route_cost(dm: np.ndarray, route: Route | Sequence[int]) -> float:
    """Depot -> nodes -> depot travel cost of one route, given as a Route or
    as its customer sequence."""
    prev = 0
    total = 0.0
    for c in route.nodes if isinstance(route, Route) else route:
        total += dm[prev, c]
        prev = c
    return total + dm[prev, 0]


def solution_cost(dm: np.ndarray, routes) -> float:
    return sum(route_cost(dm, r) for r in routes)


def check_feasible(instance: Instance, solution: Solution) -> FeasibilityReport:
    """Check node ids, coverage, capacity, and fleet-limit constraints. A
    node id outside 1..N (the depot included) is "unknown" and adds no load.

    Infeasibility is reported as data, never raised.
    """
    violations: list[Violation] = []
    seen: dict[int, int] = {}
    for r_idx, route in enumerate(solution.routes):
        load = 0
        for c in route.nodes:
            if not 1 <= c <= instance.n_customers:
                violations.append(Violation("unknown", c))
                continue
            load += instance.demand_of(c)
            if c in seen:
                violations.append(Violation("duplicate", c))
            else:
                seen[c] = r_idx
        if load > instance.capacity:
            violations.append(
                Violation("capacity", r_idx, load - instance.capacity)
            )
    for c in range(1, instance.n_customers + 1):
        if c not in seen:
            violations.append(Violation("missing", c))
    if instance.fleet_limit is not None and solution.n_routes > instance.fleet_limit:
        violations.append(
            Violation(
                "fleet",
                solution.n_routes,
                solution.n_routes - instance.fleet_limit,
            )
        )
    return FeasibilityReport(not violations, tuple(violations))


def knn_sparsify(dm: np.ndarray, k_nn: int) -> np.ndarray:
    """Each node's k_nn nearest neighbours as an (n, min(k_nn, n - 1)) array
    of node indices, each row sorted by distance, ties toward the lower node
    index. If the depot would fall outside a customer's row it replaces the
    farthest kept neighbour, so every customer keeps a depot arc.
    """
    if k_nn < 1:
        raise ValueError("k_nn must be >= 1")
    n = len(dm)
    k = min(k_nn, n - 1)
    d = dm.copy()
    np.fill_diagonal(d, np.inf)  # a node is never its own neighbour
    idx = np.broadcast_to(np.arange(n), (n, n))
    neighbors = np.lexsort((idx, d), axis=1)[:, :k].astype(np.int64)
    # A customer row that lacks the depot trades its farthest neighbour for
    # it. The depot is then strictly the farthest (with the lowest index it
    # would have won a tie), so the row stays sorted.
    lacks_depot = ~(neighbors == 0).any(axis=1)
    lacks_depot[0] = False
    neighbors[lacks_depot, k - 1] = 0
    return neighbors


class TooLargeError(ValueError):
    """Instance exceeds the exact solver's exhaustive-search limit."""


_EXACT_LIMIT = 8


def _best_sequence(dm: np.ndarray, subset: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
    """Optimal visiting order of one route by exhaustive permutation.

    Ties resolve to the lexicographically smallest sequence; a route and its
    reversal cost the same, so this also fixes the orientation.
    """
    best_cost = math.inf
    best_seq: tuple[int, ...] = subset
    for perm in itertools.permutations(subset):
        c = route_cost(dm, perm)
        if c < best_cost or (c == best_cost and perm < best_seq):
            best_cost = c
            best_seq = perm
    return best_cost, best_seq


def exact_solve_small(instance: Instance) -> Solution:
    """Globally optimal solution by exhaustive set-partition enumeration.

    Every partition of the customers into capacity-feasible groups is visited
    (blocks are built around the lowest unassigned customer), each group is
    sequenced by exhaustive permutation, and the cheapest total wins. Ties
    break to the lexicographically smallest sorted route list. Limited to
    8 customers.
    """
    n = instance.n_customers
    if n > _EXACT_LIMIT:
        raise TooLargeError(f"exact solver limited to {_EXACT_LIMIT} customers, got {n}")
    dm = build_distance_matrix(instance)
    customers = list(range(1, n + 1))
    demand = {c: instance.demand_of(c) for c in customers}
    seq_cache: dict[tuple[int, ...], tuple[float, tuple[int, ...]]] = {}

    def sequenced(subset: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
        if subset not in seq_cache:
            seq_cache[subset] = _best_sequence(dm, subset)
        return seq_cache[subset]

    best_cost = math.inf
    best_routes: tuple[tuple[int, ...], ...] | None = None
    max_blocks = instance.fleet_limit if instance.fleet_limit is not None else n

    def recurse(remaining: tuple[int, ...], blocks: list[tuple[int, ...]], cost: float):
        nonlocal best_cost, best_routes
        if not remaining:
            routes = tuple(sorted(blocks))
            if cost < best_cost or (cost == best_cost and (best_routes is None or routes < best_routes)):
                best_cost = cost
                best_routes = routes
            return
        if len(blocks) == max_blocks:
            return
        anchor, rest = remaining[0], remaining[1:]
        # every block containing the lowest remaining customer
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                block = (anchor, *extra)
                if sum(demand[c] for c in block) > instance.capacity:
                    continue
                c_block, seq = sequenced(block)
                left = tuple(c for c in rest if c not in extra)
                recurse(left, blocks + [seq], cost + c_block)

    recurse(tuple(customers), [], 0.0)
    if best_routes is None:
        raise InstanceError("no feasible partition within the fleet limit")
    return make_solution(instance, dm, best_routes)
