"""The command-line entry points, run in-process on tiny instances: each
command's output and the documented exit codes (0 success, 2 specification
or usage error, 3 missing artifact)."""

import json
from dataclasses import replace

import pytest

from routeflow import bench, cli
from routeflow.core import Instance
from routeflow.expert import HgsConfig
from routeflow.io import derive_seed, generate_uniform, read_results_csv, write_vrplib
from routeflow.neural import Dims, init_params, save_policy


def write_spec(path, **fields):
    spec = {"synthetic": {"n": 7, "count": 2, "seed": 3}, "hgs": {"max_iterations": 10}}
    spec.update(fields)
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture
def checkpoint(tmp_path):
    path = str(tmp_path / "policy.json")
    save_policy(init_params(Dims(n_layers=1, n_heads=2, d_units=8), 4), path)
    return path


class TestSolve:
    @pytest.mark.parametrize("method", ["hgs", "exact", "expert-refine-5"])
    def test_prints_a_feasible_solution(self, method, capsys):
        argv = ["solve", "--method", method, "--n", "7", "--seed", "5", "--iterations", "20"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "feasible: True" in out
        expected = bench.solve(
            method, generate_uniform(7, 5), 5, hgs=HgsConfig(max_iterations=20)
        )
        assert f"objective: {expected.total_cost:.6f}" in out

    def test_reads_an_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.vrp"
        path.write_text(write_vrplib(generate_uniform(6, 2)))
        assert cli.main(["solve", "--method", "exact", "--instance", str(path)]) == 0
        assert "instance: uniform-n6-s2" in capsys.readouterr().out

    def test_neural_method_with_checkpoint(self, checkpoint, capsys):
        argv = ["solve", "--method", "neural-best-of-3", "--n", "8", "--checkpoint", checkpoint]
        assert cli.main(argv) == 0
        assert "objective: " in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["neural-greedy", "neural-best-of-4"])
    def test_neural_method_without_checkpoint_exits_3(self, method):
        assert cli.main(["solve", "--method", method, "--n", "6"]) == cli.EXIT_MISSING

    def test_unknown_method_exits_2(self):
        assert cli.main(["solve", "--method", "simulated-annealing", "--n", "6"]) == cli.EXIT_SPEC

    @pytest.mark.parametrize("method", ["hgs", "exact", "expert-refine-5"])
    def test_k_nn_0_exits_2_off_the_neural_path_too(self, method, capsys):
        # unread off the neural path, it exited 0
        assert cli.main(["solve", "--method", method, "--n", "6", "--k-nn", "0"]) == cli.EXIT_SPEC
        assert "k_nn must be None or an integer >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["hgs", "exact", "expert-refine-5"])
    def test_no_fleet_feasible_solution_exits_2(self, method, tmp_path, capsys):
        # three customers of demand 6 under Q = 11 need three routes, against a fleet of two
        inst = Instance((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)), (6, 6, 6), 11, fleet_limit=2)
        path = tmp_path / "tight.vrp"
        path.write_text(write_vrplib(inst))
        assert cli.main(["solve", "--method", method, "--instance", str(path)]) == cli.EXIT_SPEC
        assert "fleet" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["hgs", "expert-refine-10"])
    def test_coordinates_near_1e7_end_feasible(self, method, tmp_path, capsys, cpus, deadline):
        cpus(1)
        inst = generate_uniform(30, 1)
        big = replace(inst, depot=tuple(v * 1e7 for v in inst.depot),
                      coords=tuple((x * 1e7, y * 1e7) for x, y in inst.coords))
        path = tmp_path / "big.vrp"
        path.write_text(write_vrplib(big))
        with deadline(30):
            assert cli.main(["solve", "--method", method, "--instance", str(path)]) == 0
        assert "feasible: True" in capsys.readouterr().out


class TestGen:
    def test_writes_count_instances(self, tmp_path, capsys):
        out = tmp_path / "inst"
        assert cli.main(["gen", "--n", "5", "--count", "2", "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            f"{generate_uniform(5, derive_seed(0, i)).name}.vrp" for i in range(2))
        assert "wrote 2 instances" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_a_count_below_one_exits_2(self, count, tmp_path, capsys):
        # unchecked, it printed "wrote -2 instances" and wrote none
        out = tmp_path / "inst"
        assert cli.main(["gen", "--n", "5", "--count", count, "--out-dir", str(out)]) == cli.EXIT_SPEC
        assert not out.exists() and "count" in capsys.readouterr().err

    def test_no_customers_exits_2_and_creates_nothing(self, tmp_path, capsys):
        # checked only by generate_uniform, it left an empty directory behind
        out = tmp_path / "inst"
        assert cli.main(["gen", "--n", "0", "--out-dir", str(out)]) == cli.EXIT_SPEC
        assert not out.exists() and "--n" in capsys.readouterr().err


class TestMissingFiles:
    def test_instance(self, tmp_path):
        argv = ["solve", "--method", "hgs", "--instance", str(tmp_path / "no.vrp")]
        assert cli.main(argv) == cli.EXIT_MISSING

    def test_checkpoint(self, tmp_path):
        argv = ["solve", "--method", "neural-greedy", "--n", "6", "--checkpoint", str(tmp_path / "no.json")]
        assert cli.main(argv) == cli.EXIT_MISSING

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_spec(self, command, tmp_path):
        argv = [command, "--spec", str(tmp_path / "no.json")]
        if command == "sweep":
            argv += ["--param", "k_nn", "--values", "2"]
        assert cli.main(argv) == cli.EXIT_MISSING

    def test_bench_checkpoint(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", methods=["neural-greedy"])
        assert cli.main(["bench", "--spec", spec, "--out", str(tmp_path / "r.csv")]) == cli.EXIT_MISSING

    def test_instance_glob(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"methods": ["hgs"], "files": [str(tmp_path / "*.vrp")]}))
        assert cli.main(["bench", "--spec", str(spec)]) == cli.EXIT_MISSING

    def test_train_config(self, tmp_path):
        argv = ["train", "--config", str(tmp_path / "no.json"), "--out-dir", str(tmp_path / "run")]
        assert cli.main(argv) == cli.EXIT_MISSING

    def test_train_resume(self, tmp_path):
        argv = ["train", "--resume", str(tmp_path / "no.json"), "--out-dir", str(tmp_path / "run")]
        assert cli.main(argv) == cli.EXIT_MISSING

    def test_report_csv(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "no.csv")]) == cli.EXIT_MISSING


class TestBadSpecs:
    @pytest.mark.parametrize(
        "extra",
        [{"colour": "red"}, {"m": 50}, {"n_rollouts": 10}, {"hgs": {"generations": 3}},
         {"hgs": {"use_swap": False}}],
    )
    def test_unknown_fields_exit_2(self, extra, tmp_path):
        spec = write_spec(tmp_path / "spec.json", methods=["hgs"], **extra)
        assert cli.main(["bench", "--spec", spec, "--out", str(tmp_path / "r.csv")]) == cli.EXIT_SPEC

    @pytest.mark.parametrize(
        "config",
        [{"epochz": 1}, {"dims": {"width": 8}}, {"expert_hgs": {"generations": 3}},
         {"expert_hgs": {"mutation_rate": 0.1}}],
    )
    def test_unknown_train_config_fields_exit_2(self, config, tmp_path):
        path = tmp_path / "train.json"
        path.write_text(json.dumps(config))
        argv = ["train", "--config", str(path), "--out-dir", str(tmp_path / "run")]
        assert cli.main(argv) == cli.EXIT_SPEC

    @pytest.mark.parametrize(
        "synthetic", [{"n": 6}, [6, 2], {"n": 6, "count": 2, "sead": 1}, {"n": 0, "count": 1}]
    )
    def test_bad_synthetic_source_exits_2(self, synthetic, tmp_path):
        spec = write_spec(tmp_path / "spec.json", methods=["hgs"], synthetic=synthetic)
        assert cli.main(["bench", "--spec", spec, "--out", str(tmp_path / "r.csv")]) == cli.EXIT_SPEC

    @pytest.mark.parametrize("k_nn", [0, 2.5])
    def test_bad_k_nn_exits_2(self, k_nn, tmp_path):
        spec = write_spec(tmp_path / "spec.json", methods=["hgs"], k_nn=k_nn)
        assert cli.main(["bench", "--spec", spec, "--out", str(tmp_path / "r.csv")]) == cli.EXIT_SPEC

    @pytest.mark.parametrize("field, value", [
        (None, 5), (None, [1]), ("methods", 5), ("files", 5), ("files", [5]), ("seed", "a"),
        ("ref_table", 3), ("out_csv", 7), ("checkpoint", 7), ("ref_table", {"x": 0}),
        ("ref_table", {"x": -3.5}), ("ref_table", {"x": float("nan")}),
        ("ref_table", {"x": float("inf")}),
    ], ids=repr)
    def test_badly_typed_fields_exit_2(self, field, value, tmp_path):
        path = tmp_path / "spec.json"
        if field is None:  # the top level itself
            path.write_text(json.dumps(value))
        else:
            write_spec(path, **{"methods": ["hgs"], field: value})
        out = tmp_path / "r.csv"
        assert cli.main(["bench", "--spec", str(path), "--out", str(out)]) == cli.EXIT_SPEC
        assert not out.exists()

    @pytest.mark.parametrize("hgs", [
        {"population_size": 3.5}, {"max_iterations": 2.5}, {"max_iterations": True},
        {"time_budget_s": "1"}, {"time_budget_s": 0}, {"seed": 1.0},
    ], ids=repr)
    def test_badly_typed_hgs_fields_exit_2(self, hgs, tmp_path):
        spec = write_spec(tmp_path / "spec.json", methods=["hgs"], hgs=hgs)
        out = tmp_path / "r.csv"
        assert cli.main(["bench", "--spec", spec, "--out", str(out)]) == cli.EXIT_SPEC
        assert not out.exists()

    @pytest.mark.parametrize("config", [
        {"n": "20"}, {"n": 0}, {"n_rollouts": 2.0}, {"m": 0}, {"epsilon": True},
        {"lr_gen": "0.1"}, {"checkpoint_every": -1}, {"k_nn": 2.5}, {"out_dir": 5},
        {"expert_hgs": {"population_size": 3.5}}, {"dims": {"n_heads": 0}}, {"epsilon": 1.5},
        {"epsilon": -0.2}, {"epsilon": float("nan")}, {"epochs": -3}, {"instances_per_epoch": -2},
        *({name: value} for name in ("grad_clip", "lr_gen", "lr_disc", "lr_logz")
          for value in (float("nan"), float("inf"), -1)),
    ], ids=repr)
    def test_badly_typed_train_config_fields_exit_2(self, config, tmp_path):
        # zero epochs: a config that is let through ends at once with exit 0
        path = tmp_path / "train.json"
        path.write_text(json.dumps({"epochs": 0} | config))
        run = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out-dir", str(run)]) == cli.EXIT_SPEC
        assert not run.exists()

    def test_malformed_json_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{methods: ")
        assert cli.main(["bench", "--spec", str(spec)]) == cli.EXIT_SPEC

    def test_unknown_method_exits_2(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", methods=["hgs", "tabu"])
        assert cli.main(["bench", "--spec", spec]) == cli.EXIT_SPEC

    def test_resume_with_other_dims_exits_2(self, tmp_path):
        config = {
            "n": 5, "instances_per_epoch": 1, "n_rollouts": 2, "epochs": 1, "checkpoint_every": 1,
            "dims": {"n_layers": 1, "n_heads": 2, "d_units": 8, "mlp_hidden": 8},
            "expert_hgs": {"population_size": 4, "max_iterations": 3},
        }
        path = tmp_path / "train.json"
        path.write_text(json.dumps(config))
        assert cli.main(["train", "--config", str(path), "--out-dir", str(tmp_path / "first")]) == 0
        path.write_text(json.dumps(config | {"epochs": 2, "dims": {**config["dims"], "d_units": 16}}))
        argv = ["train", "--config", str(path), "--out-dir", str(tmp_path / "resumed"),
                "--resume", str(tmp_path / "first" / "checkpoint_epoch1.json")]
        assert cli.main(argv) == cli.EXIT_SPEC
        assert not (tmp_path / "resumed").exists()

    def test_report_header_mismatch_exits_2(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n")
        assert cli.main(["report", str(path)]) == cli.EXIT_SPEC

    def test_fractional_sweep_value_exits_2(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", methods=["hgs", "expert-refine-2"])
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--spec", spec, "--param", "m", "--values", "3,2.5", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_SPEC
        assert not out.exists()

    def test_unknown_sweep_parameter_is_a_usage_error(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", methods=["hgs"])
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--spec", spec, "--param", "population", "--values", "2"])
        assert exc.value.code == cli.EXIT_SPEC


class TestBenchReportSweep:
    def test_bench_csv_round_trips(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", methods=["hgs", "exact"], reference="exact")
        out = tmp_path / "r.csv"
        assert cli.main(["bench", "--spec", spec, "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == f"wrote {out}"
        records = read_results_csv(str(out))
        assert [(r.instance, r.method) for r in records[-2:]] == [("(mean)", "hgs"), ("(mean)", "exact")]
        assert len(records) == 2 * 2 + 2
        assert all(r.gap_pct is not None for r in records)
        assert "np." not in out.read_text()

    def test_report_lists_methods_in_spec_order(self, tmp_path, capsys):
        csvs = []
        for label in ("first", "second"):
            spec = write_spec(tmp_path / f"{label}.json", methods=["hgs", "exact"])
            csvs.append(str(tmp_path / f"{label}.csv"))
            assert cli.main(["bench", "--spec", spec, "--out", csvs[-1]]) == 0
        capsys.readouterr()
        assert cli.main(["report", *csvs]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["method", "first"]
        assert "second Obj | Gap% | Time(s)" in lines[0]
        assert [line.split()[0] for line in lines[2:]] == ["hgs", "exact"]

    @pytest.mark.parametrize(
        "param, methods, values, swept",
        [
            ("nhat", ["neural-best-of-2", "hgs"], "2,3", "neural-best-of-3"),
            ("k_nn", ["neural-greedy"], "2,4", "neural-greedy"),
            ("m", ["expert-refine-4", "hgs"], "3,5", "expert-refine-5"),
        ],
    )
    def test_sweep_rows(self, param, methods, values, swept, checkpoint, tmp_path):
        spec = write_spec(tmp_path / "spec.json", methods=methods, checkpoint=checkpoint)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--spec", spec, "--param", param, "--values", values, "--out", str(out)]
        assert cli.main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,value,instance,method,obj,gap_pct,time_s,seed"
        rows = [line.split(",") for line in lines[1:]]
        per_value = 2 * len(methods) + len(methods)  # 2 instances, then the aggregates
        assert len(rows) == 2 * per_value
        assert {row[0] for row in rows} == {param}
        assert [row[1] for row in rows] == [v for v in values.split(",") for _ in range(per_value)]
        assert swept in {row[3] for row in rows[per_value:]}
        # the columns after param and value are the results format
        stripped = tmp_path / "stripped.csv"
        stripped.write_text("\n".join(line.split(",", 2)[2] for line in lines) + "\n")
        assert len(read_results_csv(str(stripped))) == len(rows)
