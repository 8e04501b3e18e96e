"""Benchmark-local tests: tiny smoke runs, metric names, caught corruption.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import ratiosweep  # noqa: E402
import run as runner  # noqa: E402
import serve  # noqa: E402
import traceopt  # noqa: E402

TINY = {
    "serve": (serve, {"items": 16, "rate": 200.0}),
    "trace-opt": (traceopt, {"rows": 4000, "items": 50}),
    "ratio-sweep": (ratiosweep, {"instances": 40, "n": 24}),
}


@pytest.fixture(scope="module")
def work():
    path = common.prepare_environment()
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def traced(work):
    """One tiny traced run of every workload."""
    return {
        name: module.run(3, 0.5, True, work, sizes)
        for name, (module, sizes) in TINY.items()
    }


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_clean_and_correct(traced, name):
    outcome = traced[name]
    assert outcome["attempted"] >= 1
    assert outcome["failed"] == 0
    assert outcome["checks"] and all(outcome["checks"].values()), outcome["checks"]


def test_metric_names_match_spec(traced):
    spec = common.load_spec()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    reported = set()
    for outcome in traced.values():
        names = set(outcome["metrics"])
        assert end_to_end <= names
        assert names - end_to_end <= per_layer
        reported |= names - end_to_end
    assert reported == per_layer


def test_result_line_has_every_metric_with_its_unit(traced):
    spec = common.load_spec()
    envelope = {"batch_sweep_backend": "c"}
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = runner.result_line(traced["ratio-sweep"], envelope, trace, spec)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[kind]
        }
    assert not runner.result_line(traced["ratio-sweep"], {"batch_sweep_backend": "python"},
                                  False, spec)["correct"]


def test_perturbed_opt_total_is_caught(work):
    from repro.service.multi import MultiItemInstance, solve_offline_multi
    from repro.workloads.columnar import convert_csv
    from repro.workloads.sampling import exact_offline_cost

    csv_path, col_path = work / "c.csv", work / "c.col"
    traceopt.write_csv(csv_path, 5, 2000, 20, 1.1, 4)
    convert_csv(csv_path, col_path)
    service = MultiItemInstance.from_columnar(col_path)
    off, serial = solve_offline_multi(service), solve_offline_multi(service)
    exact = exact_offline_cost(col_path)
    assert all(traceopt.check_report(off, serial, exact).values())
    assert not all(traceopt.check_report(off, serial, exact * (1 + 1e-12)).values())
    name = next(iter(off.per_item))
    off.per_item[name].C = off.per_item[name].C + 1e-9
    assert not traceopt.check_report(off, serial, exact)["parallel_matches_serial"]


def test_bad_ratio_rows_are_caught(work):
    from repro.analysis.competitive import ttl_gamma_sweep

    block = ratiosweep.build_block(1, 12, 16, 4)
    rows = ttl_gamma_sweep(block, ratiosweep.GAMMAS, ratiosweep.EPOCH_SIZE)
    assert all(ratiosweep.check_rows(rows, block, 1).values())
    below = [dict(r, ratios=[0.5] + r["ratios"][1:]) for r in rows]
    assert not ratiosweep.check_rows(below, block, 1)["ratios_at_least_1"]
    beyond = [dict(r, ratios=[3.5] * len(block)) for r in rows]
    assert not ratiosweep.check_rows(beyond, block, 1)["sc_worst_at_most_3"]
    shifted = [dict(r, ratios=[x * (1 + 1e-12) for x in r["ratios"]]) for r in rows]
    assert not ratiosweep.check_rows(shifted, block, 1)["gamma1_matches_event_kernel"]


def test_degraded_and_pending_answers_count_as_failed():
    done = {"status": "done", "degraded": False}
    assert serve._response_ok(200, json.dumps(done).encode())
    assert not serve._response_ok(200, json.dumps(dict(done, degraded=True)).encode())
    assert not serve._response_ok(200, json.dumps({"status": "pending", "degraded": True}).encode())
    assert not serve._response_ok(429, json.dumps({"error": "queue full"}).encode())


def test_stream_is_seeded_and_per_item_increasing():
    a, lanes = serve.make_stream(7, 500, 16, 1.0, 8)
    assert (a, lanes) == serve.make_stream(7, 500, 16, 1.0, 8)
    assert a != serve.make_stream(8, 500, 16, 1.0, 8)[0]
    last = {}
    for (item, t, _), lane in zip(a, lanes):
        assert t > last.get(item, -np.inf)
        last[item] = t
        assert lane == int(item[4:]) % serve.LANES


def test_breakdown_rows_sum_to_op_time():
    tracer = common.Tracer()
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    (row,) = tracer.breakdown("op")
    assert row[""] == pytest.approx(row["op"] + row["a"] + row["b"], abs=1e-12)


def test_helper_processes_are_stopped(traced):
    """The fabric solve of trace-opt starts multiprocessing's resource
    tracker, which would outlive the run; the runner stops and reaps it."""
    from multiprocessing import resource_tracker

    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    common.stop_helper_processes()
    assert resource_tracker._resource_tracker._pid is None
    assert not multiprocessing.active_children()
    assert not Path(f"/proc/{pid}").exists()


def test_fails_without_program_sources(tmp_path):
    shutil.copy(common.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ratio-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
