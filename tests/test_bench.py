"""The benchmark layer: one solve path for every method, the checkpoint
loader, the spec fields, and the results and sweep CSVs."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeflow import bench
from routeflow.core import (
    COST_REL_TOL, build_distance_matrix, check_feasible, exact_solve_small, knn_sparsify, solution_cost,
)
from routeflow.expert import HgsConfig, expert_refine, hgs_solve, initial_solution
from routeflow.io import (
    AGGREGATE, RunRecord, generate_batch, generate_uniform, load_instance, read_results_csv,
    write_results_csv, write_vrplib,
)
from routeflow.neural import GREEDY, Dims, encode, init_params, rollout, save_policy

FAST = HgsConfig(max_iterations=15)
TINY_POLICY = init_params(Dims(n_layers=1, n_heads=2, d_units=8), 4)  # for @given, which takes no fixtures


@pytest.fixture
def policy():
    return init_params(Dims(n_layers=1, n_heads=2, d_units=8), 4)


class TestSolve:
    def test_methods_match_their_solvers(self, policy):
        inst = generate_uniform(8, 3)
        dm = build_distance_matrix(inst)
        expected = {
            "exact": exact_solve_small(inst),
            "hgs": hgs_solve(inst, cfg=dataclasses.replace(FAST, seed=7)),
            "expert-refine-4": expert_refine(
                inst, initial_solution(inst, 7, dm), 4, dataclasses.replace(FAST, seed=7), dm
            ),
            "neural-greedy": rollout(
                policy, inst, encode(policy, inst, knn_sparsify(dm, 3), dm, training=False), GREEDY, 7
            ).solution,
        }
        for method, solution in expected.items():
            assert bench.solve(method, inst, 7, policy, FAST, k_nn=3) == solution, method

    @pytest.mark.parametrize("method", ["hgs", "exact", "expert-refine-3", "neural-greedy", "neural-best-of-5"])
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 7), inst_seed=st.integers(0, 2**32 - 1), limited=st.booleans())
    def test_feasible(self, method, n, inst_seed, limited):
        # a fleet limit of n is always feasible and takes the fleet-limited Split
        inst = dataclasses.replace(generate_uniform(n, inst_seed), fleet_limit=n if limited else None)
        solution = bench.solve(method, inst, 2, TINY_POLICY, FAST)
        assert check_feasible(inst, solution).feasible
        recomputed = solution_cost(build_distance_matrix(inst), solution.routes)
        assert math.isclose(solution.total_cost, recomputed, rel_tol=COST_REL_TOL)

    def test_neural_method_needs_a_policy(self):
        with pytest.raises(bench.MissingArtifactError):
            bench.solve("neural-greedy", generate_uniform(5, 0), 0)

    @pytest.mark.parametrize("method", [
        "neural-best-of", "expert-refine-", "2-opt", "neural-best-of-5)", "neural-best-of(5",
        "neural-best-of(5)", "neural-best-of-0", "expert-refine-0",
    ])
    def test_unknown_method(self, method):
        with pytest.raises(bench.SpecError):
            bench.solve(method, generate_uniform(5, 0), 0)


class TestLoadCheckpoint:
    def test_no_path(self):
        with pytest.raises(bench.MissingArtifactError):
            bench.load_checkpoint(None)

    def test_missing_file(self, tmp_path):
        with pytest.raises(bench.MissingArtifactError):
            bench.load_checkpoint(str(tmp_path / "no.json"))

    def test_round_trip(self, policy, tmp_path):
        path = str(tmp_path / "p.json")
        save_policy(policy, path)
        loaded = bench.load_checkpoint(path)
        inst = generate_uniform(6, 1)
        assert bench.solve("neural-greedy", inst, 0, loaded) == bench.solve("neural-greedy", inst, 0, policy)


class TestSpec:
    def test_fields(self):
        assert set(bench.BenchSpec.__dataclass_fields__) == {
            "methods", "synthetic", "files", "reference", "ref_table",
            "checkpoint", "k_nn", "hgs", "seed", "out_csv",
        }
        assert bench.BenchSpec(methods=("hgs",), synthetic={"n": 3, "count": 1}).hgs == bench.DEFAULT_HGS

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "methods": ["hgs", "exact"], "files": ["a.vrp"], "hgs": {"max_iterations": 9}, "k_nn": 4,
        }))
        spec = bench.BenchSpec.from_json(str(path))
        assert spec.methods == ("hgs", "exact") and spec.files == ("a.vrp",)
        assert spec.hgs == HgsConfig(max_iterations=9) and spec.k_nn == 4

    @pytest.mark.parametrize("synthetic", [
        {"n": 6}, {"count": 2}, [6, 2], "n=6", {"n": 6, "count": 2, "sead": 1},
        {"n": 0, "count": 1}, {"n": 6, "count": 0}, {"n": 6.0, "count": 1}, {"n": True, "count": 1},
        {"n": 6, "count": 1, "seed": "1"},
    ])
    def test_bad_synthetic_source(self, synthetic):
        with pytest.raises(bench.SpecError):
            bench.BenchSpec(methods=("hgs",), synthetic=synthetic)

    @pytest.mark.parametrize("k_nn", [0, -1, 2.5, True, "4"], ids=repr)
    def test_bad_k_nn(self, k_nn):
        with pytest.raises(bench.SpecError, match="k_nn"):
            bench.BenchSpec(methods=("hgs",), synthetic={"n": 7, "count": 1}, k_nn=k_nn)

    @pytest.mark.parametrize("field, value", [
        ("methods", 5), ("methods", "hgs"), ("methods", ("hgs", 5)), ("methods", ["hgs", 5]),
        ("files", 5), ("files", (5,)), ("reference", 5), ("checkpoint", 7), ("out_csv", 7),
        ("out_csv", None), ("seed", "a"), ("seed", True), ("seed", 1.0), ("ref_table", 3),
        ("ref_table", {"a": "1"}), ("ref_table", {"a": True}), ("ref_table", {1: 1.0}),
        ("ref_table", {"a": 0}), ("ref_table", {"a": -3.5}), ("ref_table", {"a": float("nan")}),
        ("ref_table", {"a": float("inf")}), ("hgs", {"max_iterations": 3}), ("hgs", None),
    ], ids=repr)
    def test_badly_typed_field(self, field, value):
        fields = {"methods": ("hgs",), "synthetic": {"n": 3, "count": 1}, field: value}
        with pytest.raises(bench.SpecError, match=f"{field} must be"):
            bench.BenchSpec(**fields)

    @pytest.mark.parametrize("top", [5, [1], "spec", None], ids=repr)
    def test_top_level_must_be_an_object(self, top, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(top))
        with pytest.raises(bench.SpecError, match="spec must be an object"):
            bench.BenchSpec.from_json(str(path))

    def test_synthetic_seed_is_optional(self):
        spec = bench.BenchSpec(methods=("hgs",), synthetic={"n": 4, "count": 2}, seed=8)
        assert [i.name for i in bench._load_instances(spec)] == [i.name for i in generate_batch(4, 2, 8)]


class TestRunBench:
    def spec(self, tmp_path, **fields):
        base = dict(
            methods=("hgs", "exact"), synthetic={"n": 6, "count": 3, "seed": 5},
            hgs=FAST, seed=2, out_csv=str(tmp_path / "r.csv"),
        )
        return bench.BenchSpec(**{**base, **fields})

    def test_records_and_csv_agree(self, tmp_path):
        spec = self.spec(tmp_path, reference="exact")
        records = bench.run_bench(spec)
        assert read_results_csv(spec.out_csv) == sorted(
            records[:-2], key=lambda r: (r.instance, r.method)
        ) + records[-2:]
        assert [(r.instance, r.method) for r in records[-2:]] == [(AGGREGATE, "hgs"), (AGGREGATE, "exact")]
        for r in records[:-2]:
            assert r.gap_pct == bench.gap_percent(r.obj, next(
                x.obj for x in records if x.instance == r.instance and x.method == "exact"
            ))
        names = [inst.name for inst in generate_batch(6, 3, 5)]
        assert [r.instance for r in records[:-2]] == [n for n in names for _ in range(2)]

    def test_unnamed_files_keep_their_own_results(self, tmp_path):
        files = []
        for seed in (1, 2):
            path = tmp_path / f"{seed}.vrp"
            path.write_text(write_vrplib(dataclasses.replace(generate_uniform(6, seed), name="")))
            files.append(str(path))
        spec = self.spec(tmp_path, synthetic=None, files=tuple(files), reference="exact")
        records = bench.run_bench(spec, write_csv=False)[:-2]
        assert [r.instance for r in records] == [""] * 4
        for r, path in zip(records, [f for f in files for _ in range(2)]):
            assert r.obj == bench.solve(r.method, load_instance(path), r.seed, hgs=FAST).total_cost
            exact = bench.solve("exact", load_instance(path), r.seed).total_cost
            assert r.gap_pct == bench.gap_percent(r.obj, exact)

    def test_ref_table_gaps(self, tmp_path):
        name = generate_batch(6, 1, 5)[0].name
        spec = self.spec(tmp_path, methods=("hgs",), synthetic={"n": 6, "count": 1, "seed": 5},
                         ref_table={name: 2.0})
        record, mean = bench.run_bench(spec, write_csv=False)
        assert record.gap_pct == bench.gap_percent(record.obj, 2.0) == mean.gap_pct

    def test_sweep_returns_the_rows_it_writes(self, tmp_path):
        spec = self.spec(tmp_path, methods=("expert-refine-2", "hgs"))
        out = tmp_path / "sweep.csv"
        rows = bench.sweep(spec, "m", [2, 4], out_csv=str(out))
        assert [(v, r.method) for v, r in rows if r.instance == AGGREGATE] == [
            (2, "expert-refine-2"), (2, "hgs"), (4, "expert-refine-4"), (4, "hgs"),
        ]
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + len(rows) == 1 + 2 * (3 * 2 + 2)
        assert lines[1].startswith(f"m,2,{rows[0][1].instance},{rows[0][1].method},{float(rows[0][1].obj)!r},")

    @pytest.mark.parametrize("param, method", [("nhat", "neural-best-of-2"), ("m", "expert-refine-2")])
    def test_sweep_renames_the_reference(self, param, method, policy, tmp_path):
        checkpoint = str(tmp_path / "p.json")
        save_policy(policy, checkpoint)
        spec = self.spec(tmp_path, methods=(method, "hgs"), reference=method, checkpoint=checkpoint)
        swept = method.replace("-2", "-3")
        rows = bench.sweep(spec, param, [3])
        assert {r.method for _, r in rows} == {swept, "hgs"}
        assert all(r.gap_pct == 0.0 for _, r in rows if r.method == swept)

    def test_sweep_rejects_other_parameters(self, tmp_path):
        with pytest.raises(bench.SpecError):
            bench.sweep(self.spec(tmp_path), "population_size", [2])

    # the m cases keep their first ids
    @pytest.mark.parametrize("param,values", [
        pytest.param(param, values, id=f"{prefix}values{i}")
        for param, prefix in (("m", ""), ("k_nn", "k_nn-"))
        for i, values in enumerate([[2.5], [3, 2.0], [3, True], [3, 0]])
    ])
    def test_sweep_refuses_a_bad_value_before_any_run(self, param, values, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "run_bench", lambda *args, **kwargs: pytest.fail("a value ran"))
        spec = self.spec(tmp_path, methods=("expert-refine-2", "hgs"))
        with pytest.raises(bench.SpecError):
            bench.sweep(spec, param, values, out_csv=str(tmp_path / "sweep.csv"))
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("param, methods", [
        ("nhat", ("neural-greedy", "expert-refine-2")),
        ("m", ("neural-best-of-2", "hgs")),
        ("k_nn", ("expert-refine-2", "hgs")),
    ])
    def test_sweep_refuses_a_parameter_no_method_reads(self, param, methods, tmp_path, monkeypatch):
        monkeypatch.setattr(bench, "run_bench", lambda *args, **kwargs: pytest.fail("a value ran"))
        spec = self.spec(tmp_path, methods=methods)
        with pytest.raises(bench.SpecError, match=f"no method of the spec reads {param}"):
            bench.sweep(spec, param, [2, 3], out_csv=str(tmp_path / "sweep.csv"))
        assert not (tmp_path / "sweep.csv").exists()

    def test_report_reads_the_aggregates(self, tmp_path):
        spec = self.spec(tmp_path, methods=("exact",), reference="exact")
        (mean,) = [r for r in bench.run_bench(spec) if r.instance == AGGREGATE]
        table = bench.report_table([spec.out_csv]).splitlines()
        assert table[0].startswith("method  r Obj | Gap% | Time(s)")
        assert table[2].split()[:4] == ["exact", f"{mean.obj:.6f}", "|", "0.00"]

    def test_report_keeps_two_csvs_of_one_name_apart(self, tmp_path):
        paths = []
        for obj in (1.0, 2.0):
            path = tmp_path / str(obj) / "results.csv"
            path.parent.mkdir()
            write_results_csv([RunRecord(AGGREGATE, "hgs", obj, None, 0.5, 0)], str(path))
            paths.append(str(path))
        header, _, row = bench.report_table(paths).splitlines()
        assert header.count("results Obj | Gap% | Time(s)") == 2
        assert row.split() == ["hgs", "1.000000", "|", "-", "|", "0.50", "2.000000", "|", "-", "|", "0.50"]
