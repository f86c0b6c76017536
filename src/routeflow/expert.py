"""Decomposition-augmented expert solver.

A compact hybrid-genetic-search metaheuristic (giant-tour chromosomes with
optimal Split decoding, order crossover, and a granular local search) plus
the route-barycenter clustering pipeline that partitions a solution into
independent subproblems, solves them at the same time on up to one lane per
usable CPU (this process and a forked ``Worker`` each other lane; the same
results whatever the schedule), and merges.

The local search follows HGS-CVRP (Vidal, C&OR 2022): relocate, swap and
2-opt* are tried only between a customer and its GAMMA nearest customers
(the granular neighbourhood of Toth & Vigo, 2003), and per-route
modification stamps skip route pairs that have not changed since they were
last scanned. Intra-route 2-opt runs on the routes a sweep modified, and
reads each arc length once a pass. The move set is fixed: every search
tries relocate, swap, 2-opt* and 2-opt.

Each generation educates (splits and local-searches) two children as a
pair, and the initial tours pair up too. A pair joins the population only
once the next pair is drawn and under way, so each generation is drawn
from a population one pair behind. When the sweep's education time
predicts a search long enough to repay a fork, the search has a pair to
educate, and ``may_fork`` allows, the solve forks a ``Worker`` before its
initial tours, which educates the second tour of every pair (``_Helper``):
it always has its next tour waiting, so neither process waits on the
other. Every host returns the serial search's output.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Instance,
    InstanceError,
    Route,
    Solution,
    build_distance_matrix,
    check_fields,
    int_at_least,
    is_int,
    is_number,
    knn_sparsify,
    make_solution,
    solution_cost,
)
from .io import derive_seed


@dataclass(frozen=True)
class HgsConfig:
    population_size: int = 40
    max_iterations: int = 400  # children, drawn two per generation (one in the last if odd)
    time_budget_s: float | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {
            "population_size": int_at_least(2),
            "max_iterations": int_at_least(0),
            "time_budget_s": (lambda v: v is None or is_number(v) and v > 0,
                              "None or a positive number"),
            "seed": (is_int, "an integer"),
        })


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


def initial_solution(instance: Instance, seed: int, dm: np.ndarray) -> Solution:
    """Angular sweep around the depot and greedy capacity fill, then 2-opt on
    each route to a local optimum. The seed rotates the sweep's starting
    customer.

    Always capacity-feasible. With a tight fleet limit the merge/repack repair
    is best-effort; a rare excess route is left for the caller to rank or
    refuse rather than raised.
    """
    n = instance.n_customers
    dx, dy = instance.depot
    angles = [math.atan2(y - dy, x - dx) for x, y in instance.coords]
    order = sorted(range(1, n + 1), key=lambda c: (angles[c - 1], c))
    start = int(np.random.default_rng(seed).integers(n))
    order = order[start:] + order[:start]

    D = dm.tolist()
    tol = _move_tolerance(dm)
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
    routes = [_two_opt_route(D, r, tol) for r in routes]
    if instance.fleet_limit is not None and len(routes) > instance.fleet_limit:
        routes = _repair_fleet(D, demand, instance.capacity, routes, instance.fleet_limit, tol)
    return make_solution(instance, dm, routes)


def _move_tolerance(dm: np.ndarray) -> float:
    """The gain a move must exceed: 1e-10 of the largest distance, far above
    a gain's rounding noise (about 1e-15 of it), so the search ends at any scale."""
    return 1e-10 * float(dm.max())


def _two_opt_route(D, route: list[int], tol: float) -> list[int]:
    """Best-improvement 2-opt on one route until no reversal gains more than tol.

    Runs on a depot-padded copy ``p`` and reads its arc lengths once a pass."""
    n = len(route)
    if n < 3:
        return list(route)
    p = [0, *route, 0]
    while True:
        arc = []  # arc[k]: from p[k] to p[k + 1]
        a = 0
        for b in p[1:]:
            arc.append(D[a][b])
            a = b
        best_delta = -tol
        best = None
        for i in range(1, n):  # reversing p[i..j] replaces arcs i - 1 and j
            Da, Db, ab = D[p[i - 1]], D[p[i]], arc[i - 1]
            for j in range(i + 1, n + 1):
                delta = Da[p[j]] + Db[p[j + 1]] - ab - arc[j]
                if delta < best_delta:
                    best_delta = delta
                    best = (i, j)
        if best is None:
            return p[1:-1]
        i, j = best
        p[i : j + 1] = reversed(p[i : j + 1])


def _repair_fleet(D, demand, capacity: int, routes: list[list[int]], limit: int, tol: float):
    """Reduce the route count toward the fleet limit.

    Merges route pairs by best savings; if merging stalls, falls back to
    first-fit-decreasing bin packing with nearest-neighbour sequencing. May
    still return more than ``limit`` routes when no packing is found; callers
    rank such a solution below every fleet-feasible one, or refuse it.
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
            packed = _pack_into_bins(D, demand, capacity, [c for r in routes for c in r], limit, tol)
            return packed if packed is not None else routes
        i, j = best
        merged = routes[i] + routes[j]
        loads[i] += loads[j]
        routes[i] = _two_opt_route(D, merged, tol)
        del routes[j], loads[j]
    return routes


def _pack_into_bins(D, demand, capacity: int, customers: list[int], limit: int, tol: float):
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
        routes.append(_two_opt_route(D, seq, tol))
    return routes


def _neighbour_lists(dm: np.ndarray) -> list[list[int]]:
    """Each customer's GAMMA nearest customers (ties to the lower index),
    indexed by node.

    ``knn_sparsify`` keeps the depot in every customer's list, so asking for
    GAMMA + 1 neighbours and dropping the depot leaves min(GAMMA, N - 1)
    customers. Row 0 (the depot) is never read.
    """
    rows = knn_sparsify(dm, GAMMA + 1).tolist()
    return [[v for v in row if v != 0] for row in rows]


def _local_search(
    D, demand, capacity: int, routes: list[list[int]], neighbours: list[list[int]], tol: float
) -> list[list[int]]:
    """Granular first-improvement search until stable.

    Customers u = 1..N are swept in a fixed order, each against v in its
    granular list ``neighbours[u]``. For each pair the search tries, in this
    order: relocate u directly before or after v (the better of the two);
    then, if u and v are in different routes, swap u and v, and 2-opt*,
    which cuts after u and before v so that (u, v) becomes an arc. The first
    move that gains more than ``tol`` is applied and the sweep goes on.
    After each sweep, intra-route 2-opt runs on the routes modified since
    their last 2-opt. The search stops after a sweep with no move that
    leaves no route for 2-opt to change.

    Stamps skip work exactly: a route records the clock of its last change
    and a customer the clock of its last test, and (u, v) is skipped when
    neither route changed since u was tested, because a move's evaluation
    reads only those two routes. u's route facts are read once per u and
    again after each move. Emptied routes keep their index until the search
    returns. The scan order is fixed, so the result is deterministic.
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
    floor = -tol  # an improving move's cost change is below this
    while True:
        moved = False
        for u in customers:
            last = tested[u]
            tested[u] = clock
            du, Du = demand[u], D[u]
            room = capacity - du  # the most another route may hold to take u
            scan = iter(neighbours[u])
            while True:  # u's route facts, read again after every move
                ru, pu, su, pre_u = route_of[u], pred[u], succ[u], pre[u]
                lu = loads[ru]
                # the most v may weigh to swap with u; in 2-opt*, the most v's
                # route may hold from v on to follow u's head, and before v to
                # precede u's tail
                swap_room = capacity - lu + du
                head_room, tail_room = capacity - pre_u, capacity - lu + pre_u
                Dpu = D[pu]
                pu_u, u_su = Dpu[u], Du[su]
                gain = pu_u + u_su - Dpu[su]  # saving from removing u
                stale = modified[ru] <= last
                for v in scan:
                    rv = route_of[v]
                    if stale and modified[rv] <= last:
                        continue
                    pv, sv, Dv = pred[v], succ[v], D[v]
                    Dpv = D[pv]
                    # move: 0 or 1 relocates u before or after v, 2 swaps, 3 is 2-opt*
                    if rv == ru:
                        # u already next to v: that insertion restores the route
                        before = gain if pv == u else Dpv[u] + Du[v] - Dpv[v]
                        after = gain if sv == u else Dv[u] + Du[sv] - Dv[sv]
                        if before <= after:
                            if before - gain >= floor:
                                continue
                            move = 0
                        elif after - gain < floor:
                            move = 1
                        else:
                            continue
                    else:
                        lv = loads[rv]
                        move = -1
                        if lv <= room:
                            before = Dpv[u] + Du[v] - Dpv[v]
                            after = Dv[u] + Du[sv] - Dv[sv]
                            if before <= after:
                                if before - gain < floor:
                                    move = 0
                            elif after - gain < floor:
                                move = 1
                        if move < 0:
                            dv = demand[v]
                            if (
                                dv <= swap_room
                                and lv - dv <= room
                                and Dpu[v] + Dv[su] + Dpv[u] + Du[sv]
                                - pu_u - u_su - Dpv[v] - Dv[sv] < floor
                            ):
                                move = 2
                            elif (
                                lv - pre[v] + dv <= head_room
                                and pre[v] - dv <= tail_room
                                and Du[v] + Dpv[su] - u_su - Dpv[v] < floor
                            ):
                                move = 3
                            else:
                                continue
                    a, b = routes[ru], routes[rv]
                    if move == 2:
                        a[a.index(u)], b[b.index(v)] = v, u
                    elif move == 3:
                        i, j = a.index(u) + 1, b.index(v)
                        routes[ru], routes[rv] = a[:i] + b[j:], b[:j] + a[i:]
                    else:
                        a.remove(u)
                        b.insert(b.index(v) + move, u)
                    clock += 1
                    modified[ru] = modified[rv] = clock
                    index(ru)
                    if rv != ru:
                        index(rv)
                    moved = True
                    break
                else:
                    break
        for r, route in enumerate(routes):
            if modified[r] <= two_opted[r]:
                continue
            new = _two_opt_route(D, route, tol)
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

    def relax(src: list[float], dst: list[float], pred: list[int], starts) -> None:
        # extend each prefix i of starts, all reachable, by one route tour[i:j+1]
        for i in starts:
            base = src[i]
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
                total = base + inner + D[c][0]
                if total < dst[j + 1]:
                    dst[j + 1] = total
                    pred[j + 1] = i

    if max_routes is None:
        # one row relaxed in place: prefix i is final when i is reached,
        # because only prefixes before i extend to it
        dp = [math.inf] * (n + 1)
        dp[0] = 0.0
        pred = [0] * (n + 1)
        relax(dp, dp, pred, range(n))
        cut = n
        cuts = []
        while cut > 0:
            cuts.append((pred[cut], cut))
            cut = pred[cut]
        return [tour[a:b] for a, b in reversed(cuts)]

    # dp[v][i]: cheapest split of the first i customers into exactly v routes.
    # A state (v - 1, i) that an earlier row matches or beats at prefix i is
    # not extended: any completion of it completes that row's state with
    # fewer routes at no higher cost (float sums are monotone), and ties go
    # to fewer routes, so it is on no returned split and the routes are those
    # of the full DP.
    dp = [[math.inf] * (n + 1) for _ in range(max_routes + 1)]
    pred = [[-1] * (n + 1) for _ in range(max_routes + 1)]
    dp[0][0] = 0.0
    best = [math.inf] * n  # least cost of each prefix over the rows before dp[v - 1]
    for v in range(1, max_routes + 1):
        src = dp[v - 1]
        live = [i for i in range(n) if src[i] < best[i]]
        if not live:  # then every later row stays unreached
            break
        relax(src, dp[v], pred[v], live)
        for i in live:
            best[i] = src[i]
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
    """An educated giant tour; ``excess`` counts its routes over the fleet
    limit (0 with none). Ranked by (excess, cost): fewer excess routes first."""

    __slots__ = ("tour", "routes", "cost", "excess")

    def __init__(self, tour, routes, cost, excess):
        self.tour = tour
        self.routes = routes
        self.cost = cost
        self.excess = excess

    def rank(self) -> tuple[int, float]:
        return self.excess, self.cost


def _survivors(population: list[_Individual], size: int) -> list[_Individual]:
    """The next generation: by rank (ties in population order), the elite
    share first, then the first occurrence of each other tour, then the
    duplicates, truncated to ``size``."""
    ranked = sorted(population, key=lambda ind: ind.rank())
    n_elite = max(1, int(ELITE_FRACTION * size))
    seen = {tuple(ind.tour) for ind in ranked[:n_elite]}
    firsts, duplicates = [], []
    for ind in ranked[n_elite:]:
        key = tuple(ind.tour)
        (duplicates if key in seen else firsts).append(ind)
        seen.add(key)
    return (ranked[:n_elite] + firsts + duplicates)[:size]


def _draw_child(rng, population: list[_Individual]) -> list[int]:
    """A child's giant tour: two binary tournaments by rank, order crossover
    and, at MUTATION_RATE, one reversed segment."""

    def tournament() -> _Individual:
        i, j = rng.integers(len(population), size=2)
        a, b = population[int(i)], population[int(j)]
        return a if a.rank() <= b.rank() else b

    p1, p2 = tournament(), tournament()
    child = _order_crossover(rng, p1.tour, p2.tour)
    if rng.random() < MUTATION_RATE and len(child) >= 2:
        i, j = sorted(rng.choice(len(child), size=2, replace=False).tolist())
        child[i : j + 1] = reversed(child[i : j + 1])
    return child


# A solve forks its helper only if it predicts at least this long a search
# after its sweep: the sweep's education time times the tours left to
# educate, capped by the time budget. The fork itself takes about 2 ms
# (``Process.start`` of a training step's worker at n=20); a shorter search
# has too few pairs to repay it and each pair's pipe trip. On a 2-vCPU
# virtual machine the default ``HgsConfig`` predicts about 9 ms at n=5,
# 27 ms at n=10 and 100 ms at n=20. ``math.inf`` never forks.
_FORK_AFTER_S = 0.05


def may_fork() -> bool:
    """Whether this process may fork a ``Worker``: it is the main process
    (not itself a worker), live children leave at least two of its usable
    CPUs (so that a cluster lane run here forks no helper onto a cluster
    worker's CPU), and no other thread runs (forking a threaded process is
    unsafe). A live child is any worker not yet closed, a ``TrainState``'s
    idle discriminator worker between training steps included."""
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2 or threading.active_count() > 1:
        return False
    import multiprocessing  # only here, so that `import routeflow` stays light

    return multiprocessing.parent_process() is None and cpus - len(multiprocessing.active_children()) >= 2


def _leave_parent_cpu() -> None:
    """Move this forked process off the CPU its parent last ran on: the
    wake-ups of a pipe between them tend to hold both on one CPU while
    another idles. Nothing moves without /proc, without another usable CPU,
    or onto a CPU the host has not got."""
    with contextlib.suppress(OSError):
        with open(f"/proc/{os.getppid()}/stat") as f:  # field 39: the CPU it last ran on
            parent_cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {parent_cpu})


class Worker:
    """The package's one way to fork (the HGS helper, a cluster lane, a
    ``TrainState``'s discriminator worker): a process that answers
    ``fn(arg)`` for each ``arg`` sent on ``requests``, in order. It may
    answer many requests and outlive the call that forked it: a training
    state's worker serves every step of the state until it is closed. It
    ignores SIGINT (Ctrl-C stops the caller, which closes it) and leaves
    this process's CPU. ``fn`` and what it reads come with the fork, as they
    were then; only each ``arg`` and answer are pickled, so a caller forks
    a worker with what every request reads rather than send it. ``send``
    sends an ``arg``; ``recv`` returns the next answer, ``fn(arg)``, and
    raises what ``fn`` raised (an ``Exception``; the worker goes on).
    Either raises ``RuntimeError`` naming ``what`` and its exit code once
    the process has died. Once ``requests`` is closed, the process exits by
    itself after answering, so ``close`` (kill and reap) finds it gone;
    ``close`` kills one still waiting or working, and closing twice is
    harmless."""

    def __init__(self, fn, what: str):
        import multiprocessing  # only here, so that `import routeflow` stays light

        ctx = multiprocessing.get_context("fork")
        self.what = what
        requests, self.requests = ctx.Pipe(duplex=False)
        self._answers, answers = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(target=self._serve, args=(fn, requests, answers), daemon=True)
        self.proc.start()
        requests.close()
        answers.close()  # so that recv sees the end of a process that died

    def _serve(self, fn, requests, answers) -> None:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self.requests.close()  # so that recv sees the end of the requests
        self._answers.close()
        _leave_parent_cpu()
        with contextlib.suppress(EOFError):
            while True:
                arg = requests.recv()
                try:
                    answer = True, fn(arg)
                except Exception as exc:
                    answer = False, exc
                answers.send(answer)
                del arg, answer  # not held while waiting for the next request

    def _alive(self, io, *args, died: type[Exception]):
        """``io(*args)``, with ``died`` read as the process having died."""
        try:
            return io(*args)
        except died:
            self.proc.join()
            raise RuntimeError(f"the {self.what} exited with code {self.proc.exitcode}") from None

    def send(self, arg) -> None:
        self._alive(self.requests.send, arg, died=BrokenPipeError)

    def recv(self):
        ok, value = self._alive(self._answers.recv, died=EOFError)
        if ok:
            return value
        try:
            raise value
        finally:
            value = None  # the traceback holds this frame: no cycle through it

    def close(self) -> None:
        self.proc.kill()
        self.proc.join()
        self.requests.close()
        self._answers.close()


class _Helper:
    """Educates the giant tours of one ``hgs_solve`` a pair at a time, the
    second tour of each pair on a ``Worker``, one pair ahead of the
    population.

    ``educate(tours)`` takes the next pair (or a last tour alone), sends
    its second tour to the worker, educates the first here, and only then
    returns the individuals of the tours it took the call before (none at
    the first call); ``educate([])`` returns the last ones and takes none.
    So the worker always has its next tour waiting when it finishes one,
    and an answer has a whole education's time to arrive before it is read.
    What the worker raises is raised here. The worker is forked when the
    helper is made, if ``fork`` (the solve's decision), and never later; it
    then educates the second tour of every pair until the solve ends or
    raises. Without one, this process educates every tour, in the same
    calls.

    A tour is an initial tour's index (the worker has the tours from the
    fork) or a child's tour. Each request is sent before the previous
    answer is read, so the two processes could each wait for the other to
    read if a child's pickle overfilled the pipe's buffer (64 KiB on Linux:
    a tour of up to about 21,000 customers fits); an index always fits.
    Education is a function of the tour alone, so the individuals are the
    serial search's whatever the host.
    """

    def __init__(self, from_tour, tours: list[list[int]], fork: bool):
        self.from_tour = from_tour
        self.tours = tours
        self.worker = Worker(self._educate, "HGS helper process") if fork else None
        self.pending: list[_Individual | None] = []  # the last call's; None: the worker's answer

    def _educate(self, tour: list[int] | int) -> _Individual:
        return self.from_tour(self.tours[tour] if isinstance(tour, int) else tour)

    def educate(self, tours: range | list[list[int]]) -> list[_Individual]:
        if len(tours) == 2 and self.worker is not None:
            self.worker.send(tours[1])
            here = [self._educate(tours[0]), None]
        else:
            here = [self._educate(t) for t in tours]
        done, self.pending = self.pending, here
        return [self.worker.recv() if ind is None else ind for ind in done]

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def hgs_solve(
    instance: Instance,
    warm_start: Solution | None = None,
    *,
    cfg: HgsConfig,
    dm: np.ndarray | None = None,
) -> Solution:
    """Population search over giant tours, deterministic for a fixed seed.

    The warm start (or the angular-sweep construction when absent) enters the
    initial population, and the incumbent (the best-ranked individual) always
    survives, so the returned cost is bounded by both.

    The initial tours and then the generations' children are educated a pair
    at a time (an odd number of either leaves a last tour alone), one pair
    ahead of the population: pair k - 1 joins only after pair k is drawn,
    its second tour is sent to the helper and its first is educated here,
    and once the population is full the survivors are chosen after each
    join that a draw follows. So pair k is drawn from the population
    holding pair k - 2 but not pair k - 1, and the first generation without
    the last initial pair. A ``_Helper`` educates each pair's second tour
    on a ``Worker``, forked before the initial tours, when all three hold:
    the sweep's education time predicts ``_FORK_AFTER_S`` of search or
    more, there is a pair to educate (two initial tours or two children),
    and ``may_fork`` allows it. Without one, this process educates both
    tours in the same order, so the output is the serial search's, bit for
    bit, on any host.

    ``time_budget_s`` is checked before each pair, once the sweep and the
    warm start have entered the population. When a check stops the search,
    one pair at most is in flight (its second tour on the helper), and it
    still joins. After a check passes, one pair is drawn and educated here
    or sent to the helper before the next check, and the helper holds at
    most one other unanswered tour; so a solve overruns the budget by at
    most one pair of educations: this process educates one more tour, and
    the helper finishes the one it holds and one more. Bit-determinism
    across runs holds when ``max_iterations`` binds first.
    """
    if dm is None:
        dm = build_distance_matrix(instance)
    start_time = time.monotonic()
    D = dm.tolist()
    demand = [0] + list(instance.demands)
    q = instance.capacity
    limit = instance.fleet_limit
    rng = np.random.default_rng(cfg.seed)
    neighbours = _neighbour_lists(dm)
    tol = _move_tolerance(dm)

    def evaluate(routes: list[list[int]], educate: bool = True) -> _Individual:
        if educate:
            routes = _local_search(D, demand, q, routes, neighbours, tol)
        excess = 0 if limit is None else max(0, len(routes) - limit)
        return _Individual([c for r in routes for c in r], routes, solution_cost(dm, routes), excess)

    def from_tour(tour: list[int]) -> _Individual:
        routes = None
        if limit is not None:
            routes = split_giant_tour(D, demand, q, tour, limit)
        if routes is None:
            routes = split_giant_tour(D, demand, q, tour, None)
        return evaluate(routes)

    def over_budget() -> bool:
        return cfg.time_budget_s is not None and time.monotonic() - start_time > cfg.time_budget_s

    def pairs():
        """The initial tours' indices, then each generation's children, a
        pair at a time while the budget allows."""
        for k in range(0, len(tours), 2):
            if over_budget():
                return
            yield range(k, min(k + 2, len(tours)))
        for it in range(0, cfg.max_iterations, 2):
            if over_budget():
                return
            yield [_draw_child(rng, population) for _ in range(min(2, cfg.max_iterations - it))]

    population: list[_Individual] = []
    sweep = initial_solution(instance, cfg.seed, dm)
    educated_at = time.monotonic()
    population.append(evaluate([list(r.nodes) for r in sweep.routes]))
    education_s = time.monotonic() - educated_at
    if warm_start is not None:
        population.append(evaluate([list(r.nodes) for r in warm_start.routes]))
        # preserve the untouched warm start as a monotonicity anchor
        population.append(evaluate([list(r.nodes) for r in warm_start.routes], educate=False))
    base = list(range(1, instance.n_customers + 1))
    tours = [
        [int(c) for c in rng.permutation(base)] for _ in range(cfg.population_size - len(population))
    ]
    search_s = education_s * (len(tours) + cfg.max_iterations)
    if cfg.time_budget_s is not None:
        search_s = min(search_s, cfg.time_budget_s)
    has_pair = len(tours) >= 2 or cfg.max_iterations >= 2  # two initial tours or two children
    helper = _Helper(from_tour, tours, fork=search_s >= _FORK_AFTER_S and has_pair and may_fork())
    try:
        for pair in pairs():
            population += helper.educate(pair)  # the previous pair
            if len(population) > cfg.population_size:
                population = _survivors(population, cfg.population_size)
        population += helper.educate([])  # the pair in flight joins
    finally:
        helper.close()

    best = min(population, key=lambda ind: ind.rank())
    if best.excess:
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
) -> tuple[np.ndarray, list[Subproblem]]:
    """Group routes into ceil(N/m) spatial clusters via barycenter k-means:
    each route's cluster label, and the clusters' subproblems in label order.

    The cluster count is additionally capped by the route count (k-means
    cannot form more non-empty clusters than it has points). Every subproblem
    replicates the depot and carries a local<->global index bijection.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    k = max(1, min(math.ceil(instance.n_customers / m), solution.n_routes))
    labels = kmeans(compute_barycenters(instance, solution), k, seed)
    subproblems = []
    for ci in range(k):
        cluster_routes = [r for r, label in zip(solution.routes, labels) if label == ci]
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
    return labels, subproblems


def _solve_one(sub: Subproblem, cfg: HgsConfig, dm: np.ndarray) -> Solution:
    """Solve one cluster on its rows and columns of the whole instance's
    ``dm``, depot first: a read-only float64 array holding the values its
    own matrix would have."""
    rows = [0, *sub.mapping]
    sub_dm = dm[np.ix_(rows, rows)]
    sub_dm.setflags(write=False)
    warm = make_solution(sub.instance, sub_dm, sub.warm_routes)
    local = hgs_solve(sub.instance, warm_start=warm, cfg=cfg, dm=sub_dm)
    global_routes = [tuple(sub.to_global(c) for c in r.nodes) for r in local.routes]
    routes = tuple(
        Route(nodes, load=r.load) for nodes, r in zip(global_routes, local.routes)
    )
    return Solution(routes, local.total_cost)


def solve_subproblems(subproblems: list[Subproblem], cfg: HgsConfig,
                      dm: np.ndarray) -> list[Solution]:
    """Solve the clusters, each with an even share of the budget (at least
    one child while the budget is above 0), on matrices sliced from the
    whole instance's ``dm``; results in cluster order.

    The clusters are dealt, largest first (by customer count), each to the
    lane with the fewest customers, over min(cluster count, usable CPUs)
    lanes. This process runs lane 0 and a ``Worker`` each other lane: one
    request, one list of solutions back. With fewer than two lanes (one
    cluster, or one CPU), or when ``may_fork`` refuses (another thread
    runs, or this is itself a worker), they run in turn here. Each cluster
    gets a seed derived from its index and its own slice of ``dm``, so its
    result does not depend on its lane: every schedule returns the serial
    loop's output. ``time_budget_s / k`` caps each cluster's own search, so
    the whole call stays within ``time_budget_s`` and, with several lanes,
    ends sooner.
    """
    k = max(1, len(subproblems))
    per_iter = min(cfg.max_iterations, max(1, cfg.max_iterations // k))
    per_time = cfg.time_budget_s / k if cfg.time_budget_s is not None else None
    configs = [
        replace(cfg, max_iterations=per_iter, time_budget_s=per_time, seed=derive_seed(cfg.seed, i))
        for i in range(len(subproblems))
    ]

    def solve(lane: list[int]) -> list[Solution]:
        return [_solve_one(subproblems[i], configs[i], dm) for i in lane]

    n_lanes = min(len(subproblems), len(os.sched_getaffinity(0)))
    if n_lanes < 2 or not may_fork():
        return solve(list(range(len(subproblems))))
    lanes = [[] for _ in range(n_lanes)]
    sizes = [0] * n_lanes  # customers per lane
    for i in sorted(range(len(subproblems)), key=lambda i: -len(subproblems[i].mapping)):
        j = sizes.index(min(sizes))
        lanes[j].append(i)
        sizes[j] += len(subproblems[i].mapping)
    workers = []
    try:
        for lane in lanes[1:]:
            worker = Worker(solve, "cluster worker")
            workers.append(worker)
            worker.send(lane)
            worker.requests.close()  # before the next fork, which would hold it open
        solved = dict(zip(lanes[0], solve(lanes[0])))
        for lane, worker in zip(lanes[1:], workers):
            solved.update(zip(lane, worker.recv()))
    finally:
        for worker in workers:
            worker.close()
    return [solved[i] for i in range(len(subproblems))]


def expert_refine(
    instance: Instance,
    seed_solution: Solution,
    m: int,
    cfg: HgsConfig,
    dm: np.ndarray,
) -> Solution:
    """Decompose, solve the clusters, and merge; the result never ranks
    below the seed solution by (fleet excess, cost), as ``hgs_solve`` ranks.

    Each subproblem is warm-started with its own cluster's routes, so the
    merged cost never exceeds the seed solution's cost, and it equals the sum
    of the subproblem costs exactly (the depot is the only shared node).
    Each subproblem's matrix is sliced from ``dm``. ``solve_subproblems``
    says how the clusters share the lanes and the budget. A cluster never
    uses more routes than its seed routes, so a seed within the fleet limit
    merges within it. A seed over the limit is refined instead by one
    ``hgs_solve`` on the whole instance, warm-started with the seed: it
    returns a fleet-feasible solution or raises ``InstanceError``.
    """
    limit = instance.fleet_limit
    if limit is not None and seed_solution.n_routes > limit:
        return hgs_solve(instance, warm_start=seed_solution, cfg=cfg, dm=dm)
    _, subproblems = decompose(instance, seed_solution, m, seed=cfg.seed)
    partials = solve_subproblems(subproblems, cfg, dm)
    routes = tuple(r for part in partials for r in part.routes)
    total = sum(part.total_cost for part in partials)
    return Solution(routes, total)
