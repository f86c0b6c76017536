import os

import numpy as np
import pytest

from routeflow.core import CONTINUOUS, ROUNDED, build_distance_matrix, make_solution
from routeflow.io import (
    AGGREGATE,
    ParseError,
    RunRecord,
    derive_seed,
    generate_batch,
    generate_uniform,
    load_instance,
    parse_tsplib,
    parse_vrplib,
    read_results_csv,
    write_results_csv,
    write_vrplib,
)

DATA = os.path.join(os.path.dirname(__file__), "data")

MINI_VRP = """NAME : mini-k1
TYPE : CVRP
DIMENSION : 2
EDGE_WEIGHT_TYPE : EUC_2D
CAPACITY : 30
NODE_COORD_SECTION
1 0 0
2 3 4
DEMAND_SECTION
1 0
2 7
DEPOT_SECTION
1
-1
EOF
"""

SQUARE_TSP = """NAME : square4
TYPE : TSP
DIMENSION : 4
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 0 10
3 10 10
4 10 0
EOF
"""


class TestParseVrplib:
    def test_benchmark_instance(self):
        with open(os.path.join(DATA, "A-n32-k5.vrp")) as fh:
            inst = parse_vrplib(fh.read())
        assert inst.n_customers == 31
        assert inst.capacity == 100
        assert inst.fleet_limit == 5
        assert inst.distance_mode == ROUNDED

    def test_published_optimum_costs_784(self):
        with open(os.path.join(DATA, "A-n32-k5.vrp")) as fh:
            inst = parse_vrplib(fh.read())
        dm = build_distance_matrix(inst)
        routes = [
            [21, 31, 19, 17, 13, 7, 26],
            [12, 1, 16, 30],
            [27, 24],
            [29, 18, 8, 9, 22, 15, 10, 25, 5, 20],
            [14, 28, 11, 4, 23, 3, 2, 6],
        ]
        assert make_solution(inst, dm, routes).total_cost == 784

    def test_minimal_file(self):
        inst = parse_vrplib(MINI_VRP)
        assert inst.n_customers == 1
        assert inst.demands == (7,)
        assert inst.fleet_limit == 1

    def test_missing_demand_names_node(self):
        broken = MINI_VRP.replace("2 7\n", "")
        with pytest.raises(ParseError, match="node 2"):
            parse_vrplib(broken)

    def test_unsupported_weight_type(self):
        with pytest.raises(ParseError, match="EXPLICIT"):
            parse_vrplib(MINI_VRP.replace("EUC_2D", "EXPLICIT"))

    def test_malformed_number_reports_line(self):
        broken = MINI_VRP.replace("2 3 4", "2 3 oops")
        with pytest.raises(ParseError, match="line 8"):
            parse_vrplib(broken)

    @pytest.mark.parametrize("line, replaces, text", [
        (6, True, "CAPACITY : 1o0"), (4, True, "DIMENSION : 3x2"), (6, False, "VEHICLES : five"),
    ])
    def test_malformed_header_value_reports_its_line(self, line, replaces, text):
        with open(os.path.join(DATA, "A-n32-k5.vrp")) as fh:
            lines = fh.read().splitlines()
        assert lines[5] == "CAPACITY : 100"
        lines[line - 1 : line - 1 + replaces] = [text]
        with pytest.raises(ParseError, match=f"^line {line}: ") as info:
            parse_vrplib("\n".join(lines))
        assert info.value.line == line

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError, match="DIMENSION"):
            parse_vrplib(MINI_VRP.replace("DIMENSION : 2", "DIMENSION : 3"))


class TestParseTsplib:
    def test_square_perimeter(self):
        inst = parse_tsplib(SQUARE_TSP)
        assert inst.n_customers == 3
        assert inst.demands == (1, 1, 1)
        assert inst.capacity == 3
        assert inst.fleet_limit == 1
        dm = build_distance_matrix(inst)
        tour = make_solution(inst, dm, [[1, 2, 3]])
        assert tour.total_cost == 40

    def test_dimension_counts(self):
        # eil51-style size check: header dimension vs customers + depot
        rng = np.random.default_rng(0)
        lines = ["NAME : fake51", "TYPE : TSP", "DIMENSION : 51",
                 "EDGE_WEIGHT_TYPE : EUC_2D", "NODE_COORD_SECTION"]
        for i in range(51):
            x, y = rng.integers(0, 70, size=2)
            lines.append(f"{i + 1} {x} {y}")
        lines.append("EOF")
        inst = parse_tsplib("\n".join(lines))
        assert inst.n_customers == 50

    def test_explicit_weights_rejected(self):
        with pytest.raises(ParseError):
            parse_tsplib(SQUARE_TSP.replace("EUC_2D", "EXPLICIT"))


class TestGenerateUniform:
    def test_reproducible(self):
        a = generate_uniform(30, 42)
        b = generate_uniform(30, 42)
        assert a == b

    def test_value_ranges(self):
        inst = generate_uniform(1000, 7)
        assert all(1 <= d <= 9 for d in inst.demands)
        assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in inst.coords)
        assert inst.capacity == 50
        assert inst.distance_mode == CONTINUOUS

    def test_batch_instances_distinct(self):
        batch = generate_batch(200, 128, 99)
        assert len({inst.coords for inst in batch}) == 128

    def test_seed_derivation_spreads(self):
        seeds = [derive_seed(1, i) for i in range(1000)]
        assert len(set(seeds)) == 1000


class TestRoundTrip:
    def test_synthetic_bit_exact(self):
        inst = generate_uniform(17, 5)
        again = parse_vrplib(write_vrplib(inst))
        assert again == inst

    def test_fleet_limit_survives(self):
        inst = generate_uniform(5, 1)
        limited = type(inst)(**{**inst.__dict__, "fleet_limit": 3})
        assert parse_vrplib(write_vrplib(limited)).fleet_limit == 3

    def test_load_instance_dispatch(self, tmp_path):
        p = tmp_path / "x.vrp"
        p.write_text(MINI_VRP)
        assert load_instance(str(p)).n_customers == 1
        q = tmp_path / "y.tsp"
        q.write_text(SQUARE_TSP)
        assert load_instance(str(q)).capacity == 3


class TestResultsCsv:
    def test_empty_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv([], str(path))
        assert path.read_text().strip() == "instance,method,obj,gap_pct,time_s,seed"

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv(
            [RunRecord("a", "hgs", 10.0, 0.0, 1.5, 3)], str(path)
        )
        assert len(path.read_text().strip().splitlines()) == 2

    def test_rows_sorted(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [
            RunRecord(f"inst{rng.integers(5)}", f"m{rng.integers(3)}",
                      float(rng.random()), None, 0.1, 0)
            for _ in range(10)
        ]
        path = tmp_path / "r.csv"
        write_results_csv(records, str(path))
        got = read_results_csv(str(path))
        expected = sorted(records, key=lambda r: (r.instance, r.method))
        assert [(r.instance, r.method) for r in got] == [
            (r.instance, r.method) for r in expected
        ]

    def test_roundtrip_values(self, tmp_path):
        rec = RunRecord("x", "exact", 12.3456789, -2.76, 0.001, 42)
        path = tmp_path / "r.csv"
        write_results_csv([rec], str(path))
        assert read_results_csv(str(path)) == [rec]

    def test_aggregates_last_in_given_order(self, tmp_path):
        records = [
            RunRecord(AGGREGATE, "m1", 2.0, None, 0.1, 0),
            RunRecord("b", "m0", 1.0, None, 0.1, 0),
            RunRecord(AGGREGATE, "m0", 1.0, None, 0.1, 0),
            RunRecord("a", "m1", 3.0, None, 0.1, 0),
        ]
        path = tmp_path / "r.csv"
        write_results_csv(records, str(path))
        assert [(r.instance, r.method) for r in read_results_csv(str(path))] == [
            ("a", "m1"), ("b", "m0"), (AGGREGATE, "m1"), (AGGREGATE, "m0"),
        ]

    def test_numpy_scalars_written_as_plain_floats(self, tmp_path):
        rec = RunRecord("x", "hgs", np.float64(3.25), np.float64(-0.5), np.float64(0.125), 1)
        path = tmp_path / "r.csv"
        write_results_csv([rec], str(path))
        assert path.read_text().splitlines()[1] == "x,hgs,3.25,-0.5,0.125,1"
        assert read_results_csv(str(path)) == [rec]
