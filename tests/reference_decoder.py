"""The single-state reference decoder that the batched one reproduces.

One rollout state at a time, in plain Python: ``valid_actions`` lists the
admissible next nodes, ``decode_step`` gives the policy's distribution over
them and ``apply_action`` advances the state. ``neural.batch_rollouts`` must
match it bit for bit, and ``neural.batch_log_pf`` the sum of its log
probabilities along a sequence to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from routeflow.autodiff import csr_softmax, value
from routeflow.core import Instance
from routeflow.neural import DecodeContext, EdgeIndex


@dataclass(frozen=True)
class RolloutState:
    current: int
    residual: int
    visited: frozenset
    routes: tuple[tuple[int, ...], ...]
    partial: tuple[int, ...]


def neighbours(ei: EdgeIndex, node: int) -> list[int]:
    """Heads of the node's arcs in the edge index, in ascending order."""
    return ei.dst[ei.src == node].tolist()


def arc_id(ei: EdgeIndex, tail: int, head: int) -> int:
    """Position of the arc (tail, head) in the edge index, found by a scan;
    raises ValueError if the pair is not an arc."""
    (arc,) = np.flatnonzero((ei.src == tail) & (ei.dst == head))
    return int(arc)


def initial_state(instance: Instance) -> RolloutState:
    return RolloutState(0, instance.capacity, frozenset(), (), ())


def is_terminal(instance: Instance, state: RolloutState) -> bool:
    return state.current == 0 and len(state.visited) == instance.n_customers


def valid_actions(instance: Instance, ei: EdgeIndex, state: RolloutState) -> list[int]:
    """Unvisited in-capacity neighbours of the current node; the depot is
    admissible whenever the vehicle is away from it (no empty routes)."""
    cands = [
        j
        for j in neighbours(ei, state.current)
        if j != 0 and j not in state.visited and instance.demand_of(j) <= state.residual
    ]
    if state.current != 0:
        cands.append(0)
    return sorted(cands)


def apply_action(instance: Instance, state: RolloutState, action: int) -> RolloutState:
    if action == 0:
        return RolloutState(
            0,
            instance.capacity,
            state.visited,
            state.routes + (state.partial,),
            (),
        )
    return RolloutState(
        action,
        state.residual - instance.demand_of(action),
        state.visited | {action},
        state.routes,
        state.partial + (action,),
    )


def decode_step(ctx: DecodeContext, state: RolloutState) -> np.ndarray:
    """Action distribution over all nodes; masked entries are exactly zero.

    The logit of candidate j is the entry of arc (current, j) in the
    context's logit table, which ``encode_graph`` built from the policy. Only
    valid candidates ever receive a logit, so masked-out actions carry no
    probability mass and no gradient.
    """
    instance, ei = ctx.graph.instance, ctx.graph.ei
    cands = valid_actions(instance, ei, state)
    probs = np.zeros(instance.n_nodes, dtype=np.float64)
    if not cands:
        if is_terminal(instance, state):
            return probs
        raise RuntimeError("no valid action in a non-terminal state")
    logits = value(ctx.logits)[[arc_id(ei, state.current, j) for j in cands]]
    probs[cands] = csr_softmax(logits, np.array([0, len(cands)]))
    return probs
