"""BENCHMARK.json agrees with spec.py and stays within its schema's limits."""

import json
import re
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_what_spec_implies():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_every_metric_name_and_unit_is_well_formed():
    names = [n for n, *_ in spec.END_TO_END] + [n for n, *_ in spec.PER_LAYER]
    names += list(spec.WORKLOADS)
    for n in names:
        assert NAME.fullmatch(n), n
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", n), n
    assert len(names) == len(set(names))
    for _n, unit, better, *_ in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")


def test_schema_limits():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    for w in doc["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def test_every_per_layer_metric_names_a_target_and_workloads():
    e2e = {n for n, *_ in spec.END_TO_END}
    for name, _u, _b, targets, workloads in spec.PER_LAYER:
        assert targets and set(targets) <= e2e, name
        assert workloads and set(workloads) <= set(spec.WORKLOADS), name
    # every workload keeps a latency limit
    assert all(w["slo_ms"] > 0 for w in spec.WORKLOADS.values())


def test_layers_derive_every_per_layer_metric():
    from layers import derive

    m = derive([], 1, {"layout0": {}, "layout1": {}}, [1.0], op_windows=[(0.0, 1.0)])
    assert set(m) == {n for n, *_ in spec.PER_LAYER}
