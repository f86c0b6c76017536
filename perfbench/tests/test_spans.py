import threading

from spans import Span, Tracer, self_times

import run
import workloads
from routeflow import core, expert, io, neural


def _span(id_, parent, start, end, name="x"):
    return Span(id_, name, parent, "op0", 0, start, end)


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),  # overlaps span 3, as pool threads do
        _span(3, 1, 2.0, 5.0),
        _span(4, 1, 8.0, 12.0),  # runs past its parent's end
        _span(5, 2, 1.5, 2.5),
        _span(6, None, 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == 10.0 - (4.0 + 2.0)
    assert selfs[2] == 2.0 - 1.0
    assert selfs[3] == 3.0
    assert selfs[4] == 4.0
    assert selfs[5] == 1.0
    assert selfs[6] == 1.0


def test_tracer_captures_internal_calls_and_restores_functions():
    originals = (expert.hgs_solve, neural.rollout, core.build_distance_matrix)
    instance = io.generate_uniform(40, 3)
    policy = neural.init_params(neural.Dims(), 1)
    tracer = Tracer()
    tracer.op = "op0"
    tracer.install(run.trace_targets())
    try:
        workloads.solve_expert_refine(instance, 7, 10, expert.HgsConfig(max_iterations=8))
        workloads.solve_best_of(policy, instance, 7, 3)
    finally:
        tracer.uninstall()
    assert (expert.hgs_solve, neural.rollout, core.build_distance_matrix) == originals

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    ids = {s.id: s for s in tracer.spans}
    (pool,) = by_name["expert.solve_subproblems"]
    hgs = by_name["expert.hgs_solve"]
    assert len(hgs) == by_name["expert.decompose"][0].attrs["clusters"] > 1
    # _solve_one calls hgs_solve on pool threads: each attaches to the pool span
    assert all(s.parent == pool.id and s.thread != threading.get_ident() for s in hgs)
    assert ids[pool.parent].name == "expert.expert_refine"
    (batch,) = by_name["neural.batch_rollouts"]
    rolls = by_name["neural.rollout"]
    assert len(rolls) == 3 and all(s.parent == batch.id for s in rolls)
    assert sum(s.attrs["actions"] for s in rolls) >= 3 * 41
    assert all(s.op == "op0" and s.end >= s.start for s in tracer.spans)


def test_counts_tensor_nodes_while_installed():
    from routeflow import autodiff

    tracer = Tracer()
    tracer.count_init(autodiff.Tensor)
    try:
        autodiff.as_tensor(1.0) + autodiff.as_tensor(2.0)
    finally:
        tracer.uninstall()
    assert tracer.tensors == 3
    autodiff.as_tensor(1.0)
    assert tracer.tensors == 3


def test_op_layer_metrics_from_hand_built_spans():
    def span(id_, name, parent, start, end, cpu=0.0, **attrs):
        s = Span(id_, name, parent, "op0", 0, start, end, cpu)
        s.attrs.update(attrs)
        return s

    spans = [
        span(1, "expert.expert_refine", None, 0.0, 4.0),
        span(2, "expert.solve_subproblems", 1, 0.5, 3.5, proc_cpu=3.0 * 1.5),
        span(3, "expert.hgs_solve", 2, 0.5, 3.5, cpu=1.0),  # two pool threads
        span(4, "expert.hgs_solve", 2, 0.5, 2.5, cpu=1.5),
        span(5, "expert.split_giant_tour", 3, 1.0, 1.5),
        span(6, "neural.rollout", None, 5.0, 5.3, actions=30),
        span(7, "neural.rollout", None, 5.3, 5.5, actions=20),
        span(8, "expert.decompose", 1, 0.0, 0.1, clusters=2, max_cluster=7),
    ]
    names = [name for name, *_ in run.trace_targets()]
    m = run.op_layer_metrics(spans, self_times(spans), 123, names)
    assert m["expert.hgs_solve.s"] == 5.0
    assert m["expert.hgs_solve.self_s"] == 4.5
    assert m["expert.hgs_solve.wait_s"] == 5.0 - 2.5
    assert m["expert.split_giant_tour.calls"] == 1
    assert m["expert.solve_subproblems.cpu_per_wall"] == 1.5
    assert m["expert.decompose.clusters"] == 2 and m["expert.decompose.max_cluster"] == 7
    assert m["neural.actions"] == 50
    assert abs(m["neural.decode_step.us"] - 1e6 * 0.5 / 50) < 1e-6
    assert m["autodiff.tensors"] == 123
    assert m["expert.expert_refine.s"] == 4.0
    # refine 4.0 - (3.0 + 0.1), pool 0, two hgs 2.5 and 2.0, split 0.5, decompose 0.1
    assert abs(m["expert.self_s"] - (0.9 + 0.0 + 2.5 + 2.0 + 0.5 + 0.1)) < 1e-12
    assert m["training.generator_update.s"] == 0
