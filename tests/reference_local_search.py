"""The granular local search that ``expert._local_search`` must reproduce.

``_local_search`` and ``_two_opt_route`` as they were before their kernel was
made leaner: the same scan order, stamps, moves and float expressions, one
interpreter step at a time. ``expert._local_search`` must return the same
routes, and ``expert._two_opt_route`` the same route.
"""

from __future__ import annotations


def reference_two_opt_route(D, route: list[int], tol: float) -> list[int]:
    """Best-improvement 2-opt on one route until no reversal gains more than tol."""
    r = list(route)
    n = len(r)
    if n < 3:
        return r
    improved = True
    while improved:
        improved = False
        best_delta = -tol
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


def reference_local_search(
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
    floor = -tol  # an improving move's cost change is below this
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
                        if before - gain < floor:
                            move = "before"
                    elif after - gain < floor:
                        move = "after"
                if move is None and ru != rv:
                    dv = demand[v]
                    if (
                        loads[ru] - du + dv <= capacity
                        and loads[rv] - dv + du <= capacity
                        and Dpu[v] + Dv[su] + Dpv[u] + Du[sv]
                        - Dpu[u] - Du[su] - Dpv[v] - Dv[sv] < floor
                    ):
                        move = "swap"
                    elif (
                        pre[u] + loads[rv] - pre[v] + dv <= capacity
                        and pre[v] - dv + loads[ru] - pre[u] <= capacity
                        and Du[v] + Dpv[su] - Du[su] - Dpv[v] < floor
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
            new = reference_two_opt_route(D, route, tol)
            if new != route:
                routes[r] = new
                clock += 1
                modified[r] = clock
                index(r)
                moved = True
            two_opted[r] = modified[r]
        if not moved:
            return [r for r in routes if r]
