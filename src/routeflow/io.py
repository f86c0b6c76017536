"""Benchmark file parsing, synthetic instance generation, and result output."""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

from .core import CONTINUOUS, ROUNDED, Instance

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Fixed 64-bit mix of a master seed and an item index.

    Equivalent to reading output ``index`` of a splitmix64 stream seeded at
    ``master``; documented so result streams reproduce across platforms.
    """
    return _splitmix64((master + index * _GOLDEN) & _MASK64)


def _keyword_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def _parse_value(token: str, lineno: int, kind=float):
    try:
        return kind(token)
    except ValueError:
        raise ParseError(f"malformed numeric field {token!r}", lineno) from None


def _split_header(line: str) -> tuple[str, str]:
    if ":" in line:
        key, value = line.split(":", 1)
        return key.strip().upper(), value.strip()
    return line.strip().upper(), ""


def fleet_limit_from_name(name: str) -> int | None:
    """Vehicle count encoded as a -k<count> suffix (e.g. A-n32-k5)."""
    m = re.search(r"-k(\d+)\s*$", name)
    return int(m.group(1)) if m else None


_INT_HEADERS = ("DIMENSION", "CAPACITY", "VEHICLES")


def _scan_sections(text: str, *, need_demand: bool):
    """Shared VRPLIB/TSPLIB scanner; returns header fields (the integer ones
    parsed on their own line, which an error reports) and sections."""
    header: dict[str, str | int] = {}
    coords: dict[int, tuple[float, float]] = {}
    demands: dict[int, int] = {}
    depots: list[int] = []
    section: str | None = None
    for lineno, line in _keyword_lines(text):
        upper = line.upper()
        if upper.startswith("NODE_COORD_SECTION"):
            section = "coord"
            continue
        if upper.startswith("DEMAND_SECTION"):
            section = "demand"
            continue
        if upper.startswith("DEPOT_SECTION"):
            section = "depot"
            continue
        if upper.startswith("EOF"):
            break
        if section == "coord":
            parts = line.split()
            if len(parts) < 3:
                raise ParseError(f"coordinate line needs 'id x y', got {line!r}", lineno)
            node = _parse_value(parts[0], lineno, int)
            coords[node] = (
                _parse_value(parts[1], lineno),
                _parse_value(parts[2], lineno),
            )
        elif section == "demand":
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(f"demand line needs 'id demand', got {line!r}", lineno)
            node = _parse_value(parts[0], lineno, int)
            demands[node] = _parse_value(parts[1], lineno, int)
        elif section == "depot":
            node = _parse_value(line.split()[0], lineno, int)
            if node == -1:
                section = None
            else:
                depots.append(node)
        else:
            key, value = _split_header(line)
            header[key] = _parse_value(value, lineno, int) if key in _INT_HEADERS else value
    if "DIMENSION" not in header:
        raise ParseError("missing DIMENSION header")
    dimension = header["DIMENSION"]
    weight_type = header.get("EDGE_WEIGHT_TYPE", "")
    if weight_type.upper() != "EUC_2D":
        raise ParseError(f"unsupported EDGE_WEIGHT_TYPE {weight_type!r} (only EUC_2D)")
    if not coords:
        raise ParseError("missing NODE_COORD_SECTION")
    if len(coords) != dimension:
        raise ParseError(
            f"DIMENSION {dimension} does not match {len(coords)} coordinate lines"
        )
    if need_demand:
        if not demands:
            raise ParseError("missing DEMAND_SECTION")
        for node in sorted(coords):
            if node not in demands:
                raise ParseError(f"demand section missing node {node}")
    return header, coords, demands, depots


def parse_vrplib(text: str) -> Instance:
    """Parse a VRPLIB CVRP file with EUC_2D weights.

    Distances default to the rounded benchmark convention; a
    ``distance_mode=continuous`` tag in the COMMENT field (written by
    :func:`write_vrplib` for synthetic instances) switches to continuous.
    The fleet limit comes from a VEHICLES header or a -k<count> name suffix.
    """
    header, coords, demands, depots = _scan_sections(text, need_demand=True)
    if "CAPACITY" not in header:
        raise ParseError("missing CAPACITY header")
    capacity = header["CAPACITY"]
    if len(depots) != 1:
        raise ParseError(f"expected exactly one depot, got {len(depots)}")
    depot_id = depots[0]
    if depot_id not in coords:
        raise ParseError(f"depot node {depot_id} has no coordinates")
    if demands.get(depot_id, 0) != 0:
        raise ParseError(f"depot node {depot_id} must have zero demand")
    name = header.get("NAME", "")
    mode = ROUNDED
    if "distance_mode=continuous" in header.get("COMMENT", ""):
        mode = CONTINUOUS
    fleet = header.get("VEHICLES")
    if fleet is None and name:
        fleet = fleet_limit_from_name(name)
    customer_ids = [node for node in sorted(coords) if node != depot_id]
    return Instance(
        depot=coords[depot_id],
        coords=tuple(coords[node] for node in customer_ids),
        demands=tuple(demands[node] for node in customer_ids),
        capacity=capacity,
        fleet_limit=fleet,
        distance_mode=mode,
        name=name,
    )


def parse_tsplib(text: str) -> Instance:
    """Parse a TSPLIB EUC_2D file as a degenerate single-route CVRP.

    Node 1 becomes the depot; every other node gets unit demand with
    capacity equal to the customer count, so one tour serves everyone.
    """
    header, coords, _, _ = _scan_sections(text, need_demand=False)
    ids = sorted(coords)
    depot_id = ids[0]
    customer_ids = ids[1:]
    if not customer_ids:
        raise ParseError("TSP file needs at least two nodes")
    return Instance(
        depot=coords[depot_id],
        coords=tuple(coords[node] for node in customer_ids),
        demands=tuple(1 for _ in customer_ids),
        capacity=len(customer_ids),
        fleet_limit=1,
        distance_mode=ROUNDED,
        name=header.get("NAME", ""),
    )


def generate_uniform(n: int, seed: int) -> Instance:
    """Random instance: unit-square coordinates, demands Unif{1..9}, Q=50."""
    if n < 1:
        raise ValueError("need at least one customer")
    rng = np.random.default_rng(seed)
    depot = rng.random(2)
    pts = rng.random((n, 2))
    demands = rng.integers(1, 10, size=n)
    return Instance(
        depot=(float(depot[0]), float(depot[1])),
        coords=tuple((float(x), float(y)) for x, y in pts),
        demands=demands,
        capacity=50,
        fleet_limit=None,
        distance_mode=CONTINUOUS,
        name=f"uniform-n{n}-s{seed}",
    )


def generate_batch(n: int, count: int, master_seed: int) -> list[Instance]:
    """``count`` independent instances with seeds derived from one master."""
    return [generate_uniform(n, derive_seed(master_seed, i)) for i in range(count)]


def write_vrplib(instance: Instance) -> str:
    """Serialize an instance in VRPLIB layout (node 1 is the depot).

    Coordinates are printed with full round-trip precision and the distance
    mode is recorded in the COMMENT field, so synthetic instances survive a
    parse/write cycle bit-exactly.
    """
    lines = [
        f"NAME : {instance.name}",
        f"COMMENT : distance_mode={instance.distance_mode}",
        "TYPE : CVRP",
        f"DIMENSION : {instance.n_nodes}",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        f"CAPACITY : {instance.capacity}",
    ]
    if instance.fleet_limit is not None:
        lines.append(f"VEHICLES : {instance.fleet_limit}")
    lines.append("NODE_COORD_SECTION")
    lines.append(f"1 {instance.depot[0]!r} {instance.depot[1]!r}")
    for i, (x, y) in enumerate(instance.coords, start=2):
        lines.append(f"{i} {x!r} {y!r}")
    lines.append("DEMAND_SECTION")
    lines.append("1 0")
    for i, d in enumerate(instance.demands, start=2):
        lines.append(f"{i} {d}")
    lines.extend(["DEPOT_SECTION", "1", "-1", "EOF"])
    return "\n".join(lines) + "\n"


def load_instance(path: str) -> Instance:
    """Read a .vrp/.tsp file, dispatching on the TYPE header."""
    with open(path) as fh:
        text = fh.read()
    for _, line in _keyword_lines(text):
        key, value = _split_header(line)
        if key == "TYPE":
            if value.upper().startswith("TSP"):
                return parse_tsplib(text)
            break
    return parse_vrplib(text)


@dataclass(frozen=True)
class RunRecord:
    """One (instance, method) benchmark measurement."""

    instance: str
    method: str
    obj: float
    gap_pct: float | None
    time_s: float
    seed: int


CSV_HEADER = ["instance", "method", "obj", "gap_pct", "time_s", "seed"]
AGGREGATE = "(mean)"  # pseudo-instance name of the per-method aggregate rows


def format_record(r: RunRecord) -> list:
    """One CSV row under ``CSV_HEADER``: floats as ``repr(float(x))``, which
    reads back exactly, and a missing gap as an empty field."""
    gap = "" if r.gap_pct is None else repr(float(r.gap_pct))
    return [r.instance, r.method, repr(float(r.obj)), gap, repr(float(r.time_s)), r.seed]


def write_results_csv(records: list[RunRecord], path: str) -> None:
    """Write per-instance records sorted by (instance, method), then the
    ``AGGREGATE`` records in the order given, under the fixed header."""
    rows = sorted((r for r in records if r.instance != AGGREGATE), key=lambda r: (r.instance, r.method))
    rows += [r for r in records if r.instance == AGGREGATE]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(format_record(r) for r in rows)


def read_results_csv(path: str) -> list[RunRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise ParseError(f"{path}: unexpected CSV header {reader.fieldnames}")
        for row in reader:
            records.append(
                RunRecord(
                    instance=row["instance"],
                    method=row["method"],
                    obj=float(row["obj"]),
                    gap_pct=float(row["gap_pct"]) if row["gap_pct"] else None,
                    time_s=float(row["time_s"]),
                    seed=int(row["seed"]),
                )
            )
    return records
