"""Decomposition-augmented expert solver.

A compact hybrid-genetic-search metaheuristic (giant-tour chromosomes with
optimal Split decoding, order crossover, and a granular local search) plus
the route-barycenter clustering pipeline that partitions a solution into
independent subproblems, solves them at the same time on up to one worker
process per usable CPU (largest cluster first, the same results whatever the
schedule), and merges.

The local search follows HGS-CVRP (Vidal, C&OR 2022): relocate, swap and
2-opt* are tried only between a customer and its GAMMA nearest customers
(the granular neighbourhood of Toth & Vigo, 2003), and per-route
modification stamps skip route pairs that have not changed since they were
last scanned. Intra-route 2-opt runs on the routes a sweep modified. The
move set is fixed: every search tries relocate, swap, 2-opt* and 2-opt.

A search that runs long enough forks one helper process, which educates
(splits and local-searches) a prediction of the next child while this
process educates the current one. A prediction is used only when its giant
tour equals the child actually drawn, so every host, with one CPU or many,
returns the serial search's output.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DistanceMatrix,
    Instance,
    InstanceError,
    Route,
    Solution,
    build_distance_matrix,
    knn_sparsify,
    make_solution,
    route_cost,
)
from .io import derive_seed


@dataclass(frozen=True)
class HgsConfig:
    population_size: int = 40
    max_iterations: int = 400
    time_budget_s: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ValueError("time_budget_s must be positive")


@dataclass(frozen=True)
class DecompositionPlan:
    """Route barycenters, their cluster labels, and the subproblem count."""

    barycenters: np.ndarray  # (n_routes, 2)
    labels: np.ndarray  # (n_routes,) int in [0, k)
    k: int


@dataclass(frozen=True)
class Subproblem:
    """One cluster's customers as a standalone instance.

    ``mapping[local - 1]`` is the global customer index of local customer
    ``local``; the depot is local node 0 in every subproblem.
    """

    instance: Instance
    mapping: tuple[int, ...]
    warm_routes: tuple[tuple[int, ...], ...]  # local ids

    def to_global(self, local: int) -> int:
        return self.mapping[local - 1]


# ---------------------------------------------------------------------------
# construction + local search

GAMMA = 20  # granular neighbourhood size: nearest customers tried per customer
ELITE_FRACTION = 0.5  # share of the population that survives by cost alone
MUTATION_RATE = 0.2  # chance that a child's tour has a segment reversed


def initial_solution(instance: Instance, seed: int, dm: DistanceMatrix) -> Solution:
    """Angular sweep around the depot and greedy capacity fill, then 2-opt on
    each route to a local optimum. The seed rotates the sweep's starting
    customer.

    Always capacity-feasible. With a tight fleet limit the merge/repack repair
    is best-effort; a rare excess route is left for the caller's penalty
    handling rather than raised.
    """
    n = instance.n_customers
    dx, dy = instance.depot
    angles = [math.atan2(y - dy, x - dx) for x, y in instance.coords]
    order = sorted(range(1, n + 1), key=lambda c: (angles[c - 1], c))
    start = int(np.random.default_rng(seed).integers(n))
    order = order[start:] + order[:start]

    D = dm.dist.tolist()
    demand = [0] + list(instance.demands)
    routes: list[list[int]] = []
    cur: list[int] = []
    load = 0
    for c in order:
        if load + demand[c] > instance.capacity:
            routes.append(cur)
            cur, load = [], 0
        cur.append(c)
        load += demand[c]
    if cur:
        routes.append(cur)
    routes = [_two_opt_route(D, r) for r in routes]
    if instance.fleet_limit is not None and len(routes) > instance.fleet_limit:
        routes = _repair_fleet(D, demand, instance.capacity, routes, instance.fleet_limit)
    return make_solution(instance, dm, routes)


def _two_opt_route(D, route: list[int]) -> list[int]:
    """Repeated best-improvement 2-opt on one route until local optimum."""
    r = list(route)
    n = len(r)
    if n < 3:
        return r
    improved = True
    while improved:
        improved = False
        best_delta = -1e-10
        best = None
        for i in range(n - 1):
            a = 0 if i == 0 else r[i - 1]
            b = r[i]
            for j in range(i + 1, n):
                c = r[j]
                d = 0 if j == n - 1 else r[j + 1]
                delta = D[a][c] + D[b][d] - D[a][b] - D[c][d]
                if delta < best_delta:
                    best_delta = delta
                    best = (i, j)
        if best is not None:
            i, j = best
            r[i : j + 1] = reversed(r[i : j + 1])
            improved = True
    return r


def _repair_fleet(D, demand, capacity: int, routes: list[list[int]], limit: int) -> list[list[int]]:
    """Reduce the route count toward the fleet limit.

    Merges route pairs by best savings; if merging stalls, falls back to
    first-fit-decreasing bin packing with nearest-neighbour sequencing. May
    still return more than ``limit`` routes when no packing is found; callers
    treat the excess as a penalized constraint violation.
    """
    routes = [list(r) for r in routes]
    loads = [sum(demand[c] for c in r) for r in routes]
    while len(routes) > limit:
        best = None
        best_saving = -math.inf
        for i in range(len(routes)):
            for j in range(len(routes)):
                if i == j or loads[i] + loads[j] > capacity:
                    continue
                saving = D[routes[i][-1]][0] + D[0][routes[j][0]] - D[routes[i][-1]][routes[j][0]]
                if saving > best_saving:
                    best_saving = saving
                    best = (i, j)
        if best is None:
            packed = _pack_into_bins(D, demand, capacity, [c for r in routes for c in r], limit)
            return packed if packed is not None else routes
        i, j = best
        merged = routes[i] + routes[j]
        loads[i] += loads[j]
        routes[i] = _two_opt_route(D, merged)
        del routes[j], loads[j]
    return routes


def _pack_into_bins(D, demand, capacity: int, customers: list[int], limit: int):
    """First-fit-decreasing packing into ``limit`` routes, each sequenced by
    nearest neighbour and 2-opt to a local optimum; None when packing fails."""
    order = sorted(customers, key=lambda c: (-demand[c], c))
    bins: list[list[int]] = [[] for _ in range(limit)]
    loads = [0] * limit
    for c in order:
        placed = False
        for b in range(limit):
            if loads[b] + demand[c] <= capacity:
                bins[b].append(c)
                loads[b] += demand[c]
                placed = True
                break
        if not placed:
            return None
    routes = []
    for group in bins:
        if not group:
            continue
        remaining = set(group)
        seq = []
        cur = 0
        while remaining:
            nxt = min(remaining, key=lambda c: (D[cur][c], c))
            seq.append(nxt)
            remaining.remove(nxt)
            cur = nxt
        routes.append(_two_opt_route(D, seq))
    return routes


def _neighbour_lists(dm: DistanceMatrix) -> list[list[int]]:
    """Each customer's GAMMA nearest customers (ties to the lower index),
    indexed by node.

    ``knn_sparsify`` keeps the depot in every customer's list, so asking for
    GAMMA + 1 neighbours and dropping the depot leaves min(GAMMA, N - 1)
    customers. Row 0 (the depot) is never read.
    """
    rows = knn_sparsify(dm, GAMMA + 1).tolist()
    return [[v for v in row if v != 0] for row in rows]


def _local_search(
    D, demand, capacity: int, routes: list[list[int]], neighbours: list[list[int]]
) -> list[list[int]]:
    """Granular first-improvement search until stable.

    Customers u = 1..N are swept in a fixed order, each against v in its
    granular list ``neighbours[u]``. For each pair the search tries, in this
    order: relocate u directly before or after v (the better of the two);
    then, if u and v are in different routes, swap u and v, and 2-opt*,
    which cuts after u and before v so that (u, v) becomes an arc. The first
    improving move is applied and the sweep goes on. After each sweep,
    intra-route 2-opt runs on the routes modified since their last 2-opt.
    The search stops after a sweep with no move that leaves no route for
    2-opt to change.

    Stamps skip work exactly: a route records the clock of its last change
    and a customer the clock of its last test, and (u, v) is skipped when
    neither route changed since u was tested, because a move's evaluation
    reads only those two routes. Emptied routes keep their index until the
    search returns. The scan order is fixed, so the result is deterministic.
    """
    routes = [list(r) for r in routes if r]
    # per customer: route, neighbours, and the load of the prefix ending there
    route_of, pred, succ, pre = ([0] * len(demand) for _ in range(4))
    loads = [0] * len(routes)

    def index(r: int) -> None:
        acc = prev = 0
        for c in routes[r]:
            route_of[c] = r
            pred[c] = prev
            succ[prev] = c
            acc += demand[c]
            pre[c] = acc
            prev = c
        succ[prev] = 0
        loads[r] = acc

    for r in range(len(routes)):
        index(r)
    customers = sorted(c for r in routes for c in r)
    clock = 0
    modified = [0] * len(routes)
    two_opted = [-1] * len(routes)
    tested = [-1] * len(demand)
    while True:
        moved = False
        for u in customers:
            last = tested[u]
            tested[u] = clock
            du, Du = demand[u], D[u]
            stale = None  # u's route facts, read again after every move
            for v in neighbours[u]:
                if stale is None:
                    ru, pu, su = route_of[u], pred[u], succ[u]
                    Dpu = D[pu]
                    gain = Dpu[u] + Du[su] - Dpu[su]  # saving from removing u
                    stale = modified[ru] <= last
                rv = route_of[v]
                if stale and modified[rv] <= last:
                    continue
                pv, sv, Dv = pred[v], succ[v], D[v]
                Dpv = D[pv]
                move = None
                if ru == rv or loads[rv] + du <= capacity:
                    # u already next to v: that insertion restores the route
                    before = gain if pv == u else Dpv[u] + Du[v] - Dpv[v]
                    after = gain if sv == u else Dv[u] + Du[sv] - Dv[sv]
                    if before <= after:
                        if before - gain < -1e-10:
                            move = "before"
                    elif after - gain < -1e-10:
                        move = "after"
                if move is None and ru != rv:
                    dv = demand[v]
                    if (
                        loads[ru] - du + dv <= capacity
                        and loads[rv] - dv + du <= capacity
                        and Dpu[v] + Dv[su] + Dpv[u] + Du[sv]
                        - Dpu[u] - Du[su] - Dpv[v] - Dv[sv] < -1e-10
                    ):
                        move = "swap"
                    elif (
                        pre[u] + loads[rv] - pre[v] + dv <= capacity
                        and pre[v] - dv + loads[ru] - pre[u] <= capacity
                        and Du[v] + Dpv[su] - Du[su] - Dpv[v] < -1e-10
                    ):
                        move = "star"
                if move is None:
                    continue
                a, b = routes[ru], routes[rv]
                if move == "swap":
                    a[a.index(u)], b[b.index(v)] = v, u
                elif move == "star":
                    i, j = a.index(u) + 1, b.index(v)
                    routes[ru], routes[rv] = a[:i] + b[j:], b[:j] + a[i:]
                else:
                    a.remove(u)
                    b.insert(b.index(v) + (move == "after"), u)
                clock += 1
                for r in {ru, rv}:
                    modified[r] = clock
                    index(r)
                moved = True
                stale = None
        for r, route in enumerate(routes):
            if modified[r] <= two_opted[r]:
                continue
            new = _two_opt_route(D, route)
            if new != route:
                routes[r] = new
                clock += 1
                modified[r] = clock
                index(r)
                moved = True
            two_opted[r] = modified[r]
        if not moved:
            return [r for r in routes if r]


# ---------------------------------------------------------------------------
# giant-tour split


def split_giant_tour(D, demand, capacity: int, tour: list[int], max_routes: int | None = None):
    """Optimal partition of a giant tour into consecutive feasible routes.

    Classic shortest-path Split: O(N * max-route-length) unlimited, or a
    vehicle-indexed DP when ``max_routes`` caps the fleet. Returns the route
    list, or None when no split satisfies the cap.
    """
    n = len(tour)

    def relax(src: list[float], dst: list[float], pred: list[int]) -> None:
        # extend each reachable prefix i of src by one route tour[i:j+1]
        for i in range(n):
            if src[i] == math.inf:
                continue
            load = 0
            inner = 0.0
            prev = None
            for j in range(i, n):
                c = tour[j]
                load += demand[c]
                if load > capacity:
                    break
                inner += D[0][c] if prev is None else D[prev][c]
                prev = c
                total = src[i] + inner + D[c][0]
                if total < dst[j + 1]:
                    dst[j + 1] = total
                    pred[j + 1] = i

    if max_routes is None:
        # one row relaxed in place: prefix i is final when i is reached,
        # because only prefixes before i extend to it
        dp = [math.inf] * (n + 1)
        dp[0] = 0.0
        pred = [0] * (n + 1)
        relax(dp, dp, pred)
        cut = n
        cuts = []
        while cut > 0:
            cuts.append((pred[cut], cut))
            cut = pred[cut]
        return [tour[a:b] for a, b in reversed(cuts)]

    # dp[v][i]: cheapest split of the first i customers into exactly v routes
    dp = [[math.inf] * (n + 1) for _ in range(max_routes + 1)]
    pred = [[-1] * (n + 1) for _ in range(max_routes + 1)]
    dp[0][0] = 0.0
    for v in range(1, max_routes + 1):
        relax(dp[v - 1], dp[v], pred[v])
    best_v = None
    best_cost = math.inf
    for v in range(1, max_routes + 1):
        if dp[v][n] < best_cost:
            best_cost = dp[v][n]
            best_v = v
    if best_v is None:
        return None
    routes = []
    cut, v = n, best_v
    while cut > 0:
        i = pred[v][cut]
        routes.append(tour[i:cut])
        cut, v = i, v - 1
    routes.reverse()
    return routes


# ---------------------------------------------------------------------------
# hybrid genetic search


def _canonical_routes(routes: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Orientation- and order-normalized route list for stable output."""
    oriented = []
    for r in routes:
        if r[-1] < r[0]:
            r = list(reversed(r))
        oriented.append(tuple(r))
    return tuple(sorted(oriented))


def _order_crossover(rng, p1: list[int], p2: list[int]) -> list[int]:
    n = len(p1)
    if n < 2:
        return list(p1)
    i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
    child = [0] * n
    middle = p1[i : j + 1]
    chosen = set(middle)
    child[i : j + 1] = middle
    fill = [c for c in p2 if c not in chosen]
    pos = 0
    for k in list(range(0, i)) + list(range(j + 1, n)):
        child[k] = fill[pos]
        pos += 1
    return child


class _Individual:
    __slots__ = ("tour", "routes", "cost", "feasible")

    def __init__(self, tour, routes, cost, feasible):
        self.tour = tour
        self.routes = routes
        self.cost = cost
        self.feasible = feasible


_FLEET_PENALTY = 1e7


def _survivors(population: list[_Individual], size: int) -> list[_Individual]:
    """The next generation: by cost (ties in population order), the elite
    share first, then the first occurrence of each other tour, then the
    duplicates, truncated to ``size``."""
    ranked = sorted(population, key=lambda ind: ind.cost)
    n_elite = max(1, int(ELITE_FRACTION * size))
    seen = {tuple(ind.tour) for ind in ranked[:n_elite]}
    firsts, duplicates = [], []
    for ind in ranked[n_elite:]:
        key = tuple(ind.tour)
        (duplicates if key in seen else firsts).append(ind)
        seen.add(key)
    return (ranked[:n_elite] + firsts + duplicates)[:size]


def _draw_child(rng, population: list[_Individual]) -> list[int]:
    """The next child's giant tour: two binary tournaments, order crossover
    and, at MUTATION_RATE, one reversed segment. Which numbers it draws
    depends only on the population's size and the tour's length."""

    def tournament() -> _Individual:
        i, j = rng.integers(len(population), size=2)
        a, b = population[int(i)], population[int(j)]
        return a if a.cost <= b.cost else b

    p1, p2 = tournament(), tournament()
    child = _order_crossover(rng, p1.tour, p2.tour)
    if rng.random() < MUTATION_RATE and len(child) >= 2:
        i, j = sorted(rng.choice(len(child), size=2, replace=False).tolist())
        child[i : j + 1] = reversed(child[i : j + 1])
    return child


_FORK_AFTER_S = 0.05  # a fork costs ~10 ms, so shorter solves never start a helper


def _may_fork() -> bool:
    """Whether this process may fork: it is the main process (not a pool
    worker or a helper), at least two CPUs are usable, and no other thread
    runs (forking a threaded process is unsafe)."""
    if len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1:
        return False
    import multiprocessing  # only here, so that `import routeflow` stays light

    return multiprocessing.parent_process() is None


def _serve(conn, parent_end, from_tour) -> None:
    """The helper's loop: educate each tour received and send back its
    individual, or the exception that education raised."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the solve, which kills this
    parent_end.close()  # so that recv sees the end of a solve whose process died
    while True:
        try:
            tour = conn.recv()
        except EOFError:
            return
        try:
            msg = from_tour(tour)
        except Exception as exc:
            msg = exc
        conn.send(msg)


class _Helper:
    """A forked process that educates one giant tour at a time for
    ``hgs_solve``: ``send`` a tour, then take its ``result``. ``sent`` is the
    tour in flight, or None."""

    def __init__(self, from_tour):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.conn, child_end = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(child_end, self.conn, from_tour), daemon=True)
        self.proc.start()
        child_end.close()
        self.sent: list[int] | None = None

    def send(self, tour: list[int]) -> None:
        self.conn.send(tour)
        self.sent = tour

    def _receive(self):
        try:
            msg = self.conn.recv()
        except EOFError:
            self.proc.join()
            raise RuntimeError(f"the HGS helper process exited with code {self.proc.exitcode}") from None
        self.sent = None
        return msg

    def result(self) -> _Individual:
        """The individual of the tour in flight; raises what its education raised."""
        msg = self._receive()
        if isinstance(msg, Exception):
            raise msg
        return msg

    def drop_if_done(self) -> None:
        """Discard the result of the tour in flight if it has arrived, and
        any exception it carries: the search never drew that tour."""
        if self.sent is not None and self.conn.poll():
            self._receive()

    def close(self) -> None:
        self.proc.kill()
        self.proc.join()
        self.conn.close()


def hgs_solve(
    instance: Instance,
    warm_start: Solution | None = None,
    *,
    cfg: HgsConfig,
    dm: DistanceMatrix | None = None,
) -> Solution:
    """Population search over giant tours, deterministic for a fixed seed.

    The warm start (or the angular-sweep construction when absent) enters the
    initial population, and the incumbent never regresses, so the returned
    cost is bounded by both. ``time_budget_s`` is a hard cap checked between
    generations; bit-determinism across runs holds when ``max_iterations``
    binds first.

    Once a solve has run ``_FORK_AFTER_S``, it forks one helper process if
    ``_may_fork`` allows. The helper educates every other tour of the initial
    population. Then, in each generation whose child the parent educates,
    the helper educates a prediction of the next child (unless a missed one
    is still in flight): drawn on the current population from a copy of the
    random state, before this child lands. The next generation takes the
    helper's individual only when the predicted tour equals the tour it
    draws, and educates its child itself otherwise. Education is a function
    of the tour alone, so the output is the serial search's, bit for bit,
    whatever the host.
    """
    if dm is None:
        dm = build_distance_matrix(instance)
    start_time = time.monotonic()
    D = dm.dist.tolist()
    demand = [0] + list(instance.demands)
    q = instance.capacity
    limit = instance.fleet_limit
    rng = np.random.default_rng(cfg.seed)
    neighbours = _neighbour_lists(dm)

    def evaluate(routes: list[list[int]], educate: bool = True) -> _Individual:
        if educate:
            routes = _local_search(D, demand, q, routes, neighbours)
        cost = sum(route_cost(dm, r) for r in routes)
        feasible = limit is None or len(routes) <= limit
        if not feasible:
            cost += _FLEET_PENALTY * (len(routes) - limit)
        tour = [c for r in routes for c in r]
        return _Individual(tour, routes, cost, feasible)

    def from_tour(tour: list[int]) -> _Individual:
        routes = None
        if limit is not None:
            routes = split_giant_tour(D, demand, q, tour, limit)
        if routes is None:
            routes = split_giant_tour(D, demand, q, tour, None)
        return evaluate(routes)

    helper: _Helper | None = None
    decided = False  # set once the fork is decided, either way

    def ahead() -> _Helper | None:
        """The helper, forked at the first call after ``_FORK_AFTER_S``."""
        nonlocal helper, decided
        if not decided and time.monotonic() - start_time >= _FORK_AFTER_S:
            decided = True
            if _may_fork():
                helper = _Helper(from_tour)
        return helper

    population: list[_Individual] = []
    sweep = initial_solution(instance, cfg.seed, dm)
    population.append(evaluate([list(r.nodes) for r in sweep.routes]))
    if warm_start is not None:
        population.append(evaluate([list(r.nodes) for r in warm_start.routes]))
        # preserve the untouched warm start as a monotonicity anchor
        population.append(evaluate([list(r.nodes) for r in warm_start.routes], educate=False))
    base = list(range(1, instance.n_customers + 1))
    tours = [
        [int(c) for c in rng.permutation(base)] for _ in range(cfg.population_size - len(population))
    ]
    try:
        k = 0
        while k < len(tours):
            if ahead() is not None and k + 1 < len(tours):
                helper.send(tours[k + 1])
                population.append(from_tour(tours[k]))
                population.append(helper.result())
                k += 2
            else:
                population.append(from_tour(tours[k]))
                k += 1

        best = min(
            (ind for ind in population if ind.feasible),
            key=lambda ind: ind.cost,
            default=None,
        )
        shadow = np.random.default_rng(cfg.seed)  # draws the predictions
        for it in range(cfg.max_iterations):
            if cfg.time_budget_s is not None and time.monotonic() - start_time > cfg.time_budget_s:
                break
            child = _draw_child(rng, population)
            if helper is not None and helper.sent == child:
                ind = helper.result()
            else:
                if ahead() is not None and it + 1 < cfg.max_iterations:
                    helper.drop_if_done()
                    if helper.sent is None:
                        shadow.bit_generator.state = rng.bit_generator.state
                        helper.send(_draw_child(shadow, population))
                ind = from_tour(child)
            if ind.feasible and (best is None or ind.cost < best.cost):
                best = ind
            population.append(ind)
            if len(population) > cfg.population_size:
                population = _survivors(population, cfg.population_size)
    finally:
        if helper is not None:
            helper.close()

    if best is None:
        raise InstanceError("no fleet-feasible solution found; raise the budget")
    return make_solution(instance, dm, _canonical_routes(best.routes))


# ---------------------------------------------------------------------------
# barycenter-clustering decomposition


def compute_barycenters(instance: Instance, solution: Solution) -> np.ndarray:
    """Unweighted mean of each route's customer coordinates (depot excluded)."""
    pts = instance.all_points()
    return np.array(
        [pts[list(r.nodes)].mean(axis=0) for r in solution.routes], dtype=np.float64
    )


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm from k-means++ seeding; deterministic per seed.

    Assignment ties go to the lower centroid id; an empty cluster steals the
    farthest point of the largest cluster. Stops at a fixed assignment or
    after 100 iterations.
    """
    points = np.asarray(points, dtype=np.float64)
    m = len(points)
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m}, got {k}")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, 2), dtype=np.float64)
    centroids[0] = points[int(rng.integers(m))]
    for c in range(1, k):
        d2 = np.min(
            ((points[:, None, :] - centroids[None, :c, :]) ** 2).sum(axis=2), axis=1
        )
        total = d2.sum()
        if total <= 0:
            centroids[c] = points[int(rng.integers(m))]
        else:
            centroids[c] = points[int(rng.choice(m, p=d2 / total))]
    labels = np.zeros(m, dtype=np.int64)
    for _ in range(100):
        dist = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        for empty in np.flatnonzero(counts == 0):
            donor = int(np.argmax(counts))
            members = np.flatnonzero(new_labels == donor)
            far = members[int(np.argmax(dist[members, donor]))]
            new_labels[far] = empty
            counts[donor] -= 1
            counts[empty] += 1
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = points[labels == c].mean(axis=0)
    return labels


def decompose(
    instance: Instance, solution: Solution, m: int, seed: int = 0
) -> tuple[DecompositionPlan, list[Subproblem]]:
    """Group routes into ceil(N/m) spatial clusters via barycenter k-means.

    The cluster count is additionally capped by the route count (k-means
    cannot form more non-empty clusters than it has points). Every subproblem
    replicates the depot and carries a local<->global index bijection.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = instance.n_customers
    k = max(1, min(math.ceil(n / m), solution.n_routes))
    bary = compute_barycenters(instance, solution)
    labels = kmeans(bary, k, seed)
    plan = DecompositionPlan(bary, labels, k)
    subproblems = []
    for ci in range(k):
        route_ids = [ri for ri in range(solution.n_routes) if labels[ri] == ci]
        cluster_routes = [solution.routes[ri] for ri in route_ids]
        globals_sorted = sorted(c for r in cluster_routes for c in r.nodes)
        local_of = {g: i + 1 for i, g in enumerate(globals_sorted)}
        local_instance = Instance(
            depot=instance.depot,
            coords=tuple(instance.coords[g - 1] for g in globals_sorted),
            demands=tuple(instance.demands[g - 1] for g in globals_sorted),
            capacity=instance.capacity,
            fleet_limit=len(cluster_routes),
            distance_mode=instance.distance_mode,
            name=f"{instance.name}#sub{ci}",
        )
        warm = tuple(tuple(local_of[c] for c in r.nodes) for r in cluster_routes)
        subproblems.append(Subproblem(local_instance, tuple(globals_sorted), warm))
    return plan, subproblems


def _solve_one(sub: Subproblem, cfg: HgsConfig, dm: DistanceMatrix) -> Solution:
    """Solve one cluster on its rows and columns of the whole instance's
    ``dm``, depot first: the values its own matrix would have."""
    rows = [0, *sub.mapping]
    sub_dm = DistanceMatrix(dm.dist[np.ix_(rows, rows)], dm.mode)
    warm = make_solution(sub.instance, sub_dm, sub.warm_routes)
    local = hgs_solve(sub.instance, warm_start=warm, cfg=cfg, dm=sub_dm)
    global_routes = [tuple(sub.to_global(c) for c in r.nodes) for r in local.routes]
    routes = tuple(
        Route(nodes, load=r.load) for nodes, r in zip(global_routes, local.routes)
    )
    return Solution(routes, local.total_cost)


def solve_subproblems(subproblems: list[Subproblem], cfg: HgsConfig,
                      dm: DistanceMatrix) -> list[Solution]:
    """Solve the clusters, each with an even share of the budget, on
    matrices sliced from the whole instance's ``dm``; results in cluster
    order.

    The clusters run on min(cluster count, usable CPUs) fork-started worker
    processes, submitted largest first (by customer count) so that the
    largest cluster, which bounds the wall time, starts at once. With fewer
    than two workers (one cluster, or one CPU), or when ``_may_fork``
    refuses (another thread runs, or this is not the main process), they run
    in turn in this process, with no pool. Each cluster gets a
    seed derived from its index and its own slice of ``dm``, so its result
    does not depend on which worker runs it or when: every schedule returns
    the serial loop's output.
    ``time_budget_s / k`` caps each cluster's own search; clusters run at
    the same time, so the whole call stays within ``time_budget_s`` and,
    with several workers, ends sooner.
    """
    k = max(1, len(subproblems))
    per_iter = max(1, cfg.max_iterations // k)
    per_time = cfg.time_budget_s / k if cfg.time_budget_s is not None else None
    configs = [
        replace(cfg, max_iterations=per_iter, time_budget_s=per_time, seed=derive_seed(cfg.seed, i))
        for i in range(len(subproblems))
    ]
    workers = min(len(subproblems), len(os.sched_getaffinity(0)))
    if workers < 2 or not _may_fork():
        return [_solve_one(sub, c, dm) for sub, c in zip(subproblems, configs)]
    # imported here: they would add ~24 ms to every `import routeflow`
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(subproblems)), key=lambda i: -len(subproblems[i].mapping))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {i: pool.submit(_solve_one, subproblems[i], configs[i], dm) for i in order}
        return [futures[i].result() for i in range(len(subproblems))]
    finally:
        pool.shutdown(cancel_futures=True)


def expert_refine(
    instance: Instance,
    seed_solution: Solution,
    m: int,
    cfg: HgsConfig,
    dm: DistanceMatrix,
) -> Solution:
    """Decompose, solve the clusters, and merge.

    Each subproblem is warm-started with its own cluster's routes, so the
    merged cost never exceeds the seed solution's cost, and it equals the sum
    of the subproblem costs exactly (the depot is the only shared node).
    Each subproblem's matrix is sliced from ``dm``.

    The clusters run on min(cluster count, usable CPUs) worker processes,
    largest first, or in this process when that is below two; the result
    does not depend on the schedule. Each cluster's search is capped by
    ``time_budget_s / k`` of its own, with clusters running at the same time
    (see ``solve_subproblems``).
    """
    _, subproblems = decompose(instance, seed_solution, m, seed=cfg.seed)
    partials = solve_subproblems(subproblems, cfg, dm)
    routes = tuple(r for part in partials for r in part.routes)
    total = sum(part.total_cost for part in partials)
    return Solution(routes, total)
