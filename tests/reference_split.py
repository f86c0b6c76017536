"""The fleet-limited Split that ``expert.split_giant_tour`` must reproduce.

The vehicle-indexed DP as it was before it skipped dominated states: every
reachable state (v - 1 routes, prefix i) is extended by every feasible next
route. ``split_giant_tour(..., max_routes)`` must return the same routes.
"""

from __future__ import annotations

import math


def reference_fleet_split(D, demand, capacity: int, tour: list[int], max_routes: int):
    """Cheapest split of ``tour`` into at most ``max_routes`` routes, fewest
    routes on ties; None when no split fits the cap."""
    n = len(tour)
    dp = [[math.inf] * (n + 1) for _ in range(max_routes + 1)]
    pred = [[-1] * (n + 1) for _ in range(max_routes + 1)]
    dp[0][0] = 0.0
    for v in range(1, max_routes + 1):
        src, dst = dp[v - 1], dp[v]
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
                    pred[v][j + 1] = i
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
