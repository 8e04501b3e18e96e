"""P3 — zero-copy service fabric + columnar ingest (supersedes the P1 grid).

Four measured sections, written to ``BENCH_service_throughput.json`` (at
the repository root) plus a human-readable table under ``benchmarks/out/``:

1. **Transport grid** — ``solve_offline_multi`` over items × processes,
   per transport: the PR-3 pickled descriptor path versus the persistent
   shared-memory :class:`~repro.service.fabric.ServicePool` (steady
   state, i.e. segments attached and worker-side instances cached).
2. **Per-phase timings** of the shm path on the largest grid point:
   ``serialize_attach`` (arena + result-region pack), ``first_call``
   (includes worker attach + instance build), ``steady_call`` (pure
   solve), and ``merge`` (copy-out of the result region).
3. **Ingestion** — building a :class:`MultiItemInstance` from the same
   log as CSV (``read_trace`` + ``from_records``) versus columnar
   (``from_columnar`` over mmap columns), plus the streaming converter's
   rate and a subprocess peak-RSS check that conversion memory is
   bounded by the chunk size, not the log length.
4. **End-to-end** — the old pipeline (CSV ingest + K pickled pool
   solves) versus the new one (columnar ingest + K persistent-pool
   solves) on the standard grid workload.

Hard checks ride along with the timings:

* **bit-identity** — every parallel grid point's canonical cost dump
  must be byte-identical to the serial one, for *both* transports, and
  the columnar-ingested service must equal the CSV-ingested one item by
  item.  Asserted unconditionally, on any machine.
* **ingest rate** — columnar ingestion must be ≥10× CSV ingestion at
  the full-mode log size (1M rows); single-threaded, so asserted
  whenever the full grid runs.
* **speedup** — the new end-to-end pipeline must be ≥1.5× the old one
  at 4 processes.  Asserted only when the machine actually has ≥4
  usable cores; the JSON records the measured ratio honestly either way.
* **batch kernel** — the serial multi-item solve (the batched
  instance-major sweep, compiled C) must be ≥5× the same batch on the
  Python sweep at the largest grid point, with a byte-identical cost
  surface.  Identity is unconditional; the speedup is hard on full runs
  with the compiled C sweep.
* **no leaks** — ``active_segments()`` must be empty at the end.

``SERVICE_BENCH_SMOKE=1`` shrinks everything to seconds for CI smoke
jobs (items=8, processes ∈ {1, 2}, 20k-row ingest log).
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro import (
    MultiItemInstance,
    MultiItemOnlineService,
    ServicePool,
    SpeculativeCaching,
    convert_csv,
    multi_item_workload,
    solve_offline_multi,
)
from repro.analysis import format_table
from repro.kernels import batch_sweep_backend, solve_offline_batch
from repro.service.multi import MultiItemOfflineResult
from repro.service.fabric import active_segments
from repro.workloads.traces import TraceRecord, read_trace, write_trace

from _util import emit

#: Minimum serial speedup of the compiled batch sweep over the Python
#: sweep at the largest grid point (hard when the compiled sweep is
#: available on a full run; recorded honestly either way).
BATCH_SPEEDUP_GATE = 5.0

ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = ROOT / "BENCH_service_throughput.json"

SMOKE = os.environ.get("SERVICE_BENCH_SMOKE") == "1"
M = 24
if SMOKE:
    ITEM_GRID = [8]
    PER_ITEM = 40
    PROC_GRID = [1, 2]
    REPEATS = 1
    INGEST_ROWS = 20_000
    E2E_CALLS = 2
else:
    ITEM_GRID = [16, 96]
    PER_ITEM = 1600
    PROC_GRID = [1, 2, 4]
    REPEATS = 2
    INGEST_ROWS = 1_000_000
    E2E_CALLS = 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _canonical_costs(off) -> str:
    """Canonical JSON dump of the full cost surface (byte-comparable)."""
    return json.dumps(
        {
            "total": off.total_cost,
            "per_item": {k: v for k, v in off.cost_breakdown().items()},
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _service_records(svc):
    """Flatten a service to one merged, time-ordered trace-record stream."""
    rows = []
    for name, inst in svc.items.items():
        for i in range(1, inst.n + 1):
            rows.append(
                TraceRecord(
                    time=float(inst.t[i]), server=int(inst.srv[i]), item=name
                )
            )
    rows.sort(key=lambda r: r.time)
    return rows


def _synth_log(rows, items, m, seed):
    """A mixed multi-item log: Poisson times, random servers/items."""
    g = np.random.default_rng(seed)
    times = np.cumsum(g.exponential(1.0, size=rows))
    servers = g.integers(0, m, size=rows)
    ids = g.integers(0, items, size=rows)
    return [
        TraceRecord(time=float(times[i]), server=int(servers[i]),
                    item=f"obj-{int(ids[i])}")
        for i in range(rows)
    ]


def _convert_rss_kb(csv_path, dest, chunk_rows):
    """Peak RSS (KiB) of converting ``csv_path`` in a fresh interpreter."""
    script = (
        "import resource, sys\n"
        "from repro.workloads.columnar import convert_csv\n"
        "convert_csv(sys.argv[1], sys.argv[2], chunk_rows=int(sys.argv[3]))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script, str(csv_path), str(dest), str(chunk_rows)],
        capture_output=True, text=True, check=True, env=env,
    )
    return int(out.stdout.strip())


def _bench_transports(cpus):
    """Section 1 (+5): transport grid with unconditional bit-identity.

    The serial row is the batched instance-major sweep; a
    ``serial-python`` row times the same batch on the Python sweep so
    the JSON records the compiled sweep's serial speedup, gated ≥5x at
    the largest grid point when the compiled sweep is available.
    """
    rows, json_rows = [], []
    batch_gate = None
    for num_items in ITEM_GRID:
        svc = multi_item_workload(
            num_items, num_items * PER_ITEM, M, rng=num_items
        )
        t_serial, off_serial = _best_of(lambda: solve_offline_multi(svc), REPEATS)
        canon_serial = _canonical_costs(off_serial)
        t_item, off_item = _best_of(
            lambda: MultiItemOfflineResult(
                per_item=solve_offline_batch(svc.items, kernel="python")
            ),
            REPEATS,
        )
        # Semantics gate (unconditional): the sweep backends must not
        # move the cost surface a single byte.
        assert _canonical_costs(off_item) == canon_serial, (
            f"compiled sweep cost surface diverged from the Python sweep "
            f"at items={num_items}"
        )
        serial_speedup = t_item / t_serial if t_serial > 0 else float("inf")
        batch_gate = {
            "items": num_items,
            "python_sweep_seconds": t_item,
            "batch_seconds": t_serial,
            "serial_speedup": serial_speedup,
            "backend": batch_sweep_backend(),
            "threshold": BATCH_SPEEDUP_GATE,
        }
        points = [
            ("serial", 1, t_serial, canon_serial),
            ("serial-python", 1, t_item, canon_serial),
        ]
        for procs in [p for p in PROC_GRID if p > 1]:
            t_pickle, off_pickle = _best_of(
                lambda: solve_offline_multi(
                    svc, processes=procs, transport="pickle"
                ),
                REPEATS,
            )
            points.append(
                ("pickle", procs, t_pickle, _canonical_costs(off_pickle))
            )
            with ServicePool(procs) as pool:
                pool.solve(svc)  # warm: attach segments, build instances
                t_shm, off_shm = _best_of(lambda: pool.solve(svc), REPEATS)
            points.append(("shm", procs, t_shm, _canonical_costs(off_shm)))
        for transport, procs, seconds, canon in points:
            match = canon == canon_serial
            # Semantics gate: neither transport may change a single byte
            # of the cost surface, on any machine.
            assert match, (
                f"{transport} cost surface diverged at items={num_items}, "
                f"processes={procs}"
            )
            speedup = t_serial / seconds if seconds > 0 else float("inf")
            rows.append(
                {
                    "items": num_items,
                    "requests": svc.total_requests,
                    "transport": transport,
                    "processes": procs,
                    "seconds": seconds,
                    "speedup": speedup,
                    "costs == serial": "yes" if match else "NO",
                }
            )
            json_rows.append(
                {
                    "items": num_items,
                    "requests": svc.total_requests,
                    "m": M,
                    "transport": transport,
                    "processes": procs,
                    "shards": procs,
                    "seconds": seconds,
                    "speedup_vs_serial": speedup,
                    "costs_match_serial": match,
                    "total_cost": off_serial.total_cost,
                    "canonical_costs_sha": hashlib.sha256(
                        canon.encode()
                    ).hexdigest()[:16],
                }
            )
    # Perf gate: compiled batch sweep ≥5x the Python sweep at the
    # largest grid point.  Hard only on full runs with the compiled
    # sweep — the Python fallback records its honest ratio instead.
    if not SMOKE and batch_gate["backend"] == "c":
        assert batch_gate["serial_speedup"] >= BATCH_SPEEDUP_GATE, (
            f"compiled sweep only {batch_gate['serial_speedup']:.2f}x the "
            f"Python sweep at items={batch_gate['items']} "
            f"(gate {BATCH_SPEEDUP_GATE}x)"
        )
    return rows, json_rows, batch_gate


def _bench_phases():
    """Section 2: where the shm path's time goes, largest grid point."""
    num_items = ITEM_GRID[-1]
    procs = PROC_GRID[-1]
    svc = multi_item_workload(num_items, num_items * PER_ITEM, M, rng=num_items)
    with ServicePool(procs) as pool:
        t0 = time.perf_counter()
        _, region = pool._regions_for(svc)  # pack arena + result region
        t_pack = time.perf_counter() - t0
        t_first, _ = _best_of(lambda: pool.solve(svc), 1)
        t_steady, _ = _best_of(lambda: pool.solve(svc), max(REPEATS, 2))
        t0 = time.perf_counter()
        for name in svc.items:
            region.read_item(name)
        t_merge = time.perf_counter() - t0
    return {
        "items": num_items,
        "processes": procs,
        "serialize_attach_seconds": t_pack,
        "first_call_seconds": t_first,
        "steady_call_seconds": t_steady,
        "merge_seconds": t_merge,
    }


def _bench_ingest(tmp):
    """Section 3: CSV vs columnar ingestion + converter bounded RSS."""
    csv_path = tmp / "ingest.csv"
    col_path = tmp / "ingest.col"
    write_trace(_synth_log(INGEST_ROWS, 32, M, seed=11), csv_path)

    t_convert, _ = _best_of(
        lambda: convert_csv(csv_path, col_path, chunk_rows=1 << 16), 1
    )
    t_csv, svc_csv = _best_of(
        lambda: MultiItemInstance.from_records(read_trace(csv_path)), 1
    )
    t_col, svc_col = _best_of(
        lambda: MultiItemInstance.from_columnar(col_path), 1
    )
    # Identity gate: both ingestion paths must build the same service.
    assert list(svc_csv.items) == list(svc_col.items)
    for k in svc_csv.items:
        a, b = svc_csv.items[k], svc_col.items[k]
        assert a == b and np.array_equal(a.t, b.t) and np.array_equal(a.srv, b.srv)

    # Bounded memory: converting a 10x longer log at the same chunk size
    # must not cost proportionally more peak RSS.
    small_csv = tmp / "ingest_small.csv"
    write_trace(_synth_log(max(INGEST_ROWS // 10, 1000), 32, M, seed=12), small_csv)
    rss_small = _convert_rss_kb(small_csv, tmp / "s.col", 8192)
    rss_big = _convert_rss_kb(csv_path, tmp / "b.col", 8192)
    assert rss_big < rss_small * 2.5, (
        f"converter RSS scales with log length: {rss_small} KiB -> "
        f"{rss_big} KiB for 10x the rows"
    )

    ratio = t_csv / t_col if t_col > 0 else float("inf")
    if not SMOKE:
        assert ratio >= 10.0, (
            f"columnar ingest only {ratio:.1f}x CSV at {INGEST_ROWS} rows"
        )
    return {
        "rows": INGEST_ROWS,
        "csv_seconds": t_csv,
        "csv_rows_per_s": INGEST_ROWS / t_csv,
        "columnar_seconds": t_col,
        "columnar_rows_per_s": INGEST_ROWS / t_col,
        "ingest_ratio": ratio,
        "ingest_ratio_gate": ">=10x, asserted on the full grid",
        "convert_seconds": t_convert,
        "convert_rows_per_s": INGEST_ROWS / t_convert,
        "convert_rss_small_kb": rss_small,
        "convert_rss_big_kb": rss_big,
        "csv_bytes": os.path.getsize(csv_path),
        "columnar_bytes": os.path.getsize(col_path),
    }


def _bench_end_to_end(tmp, cpus):
    """Section 4: old pipeline vs new on the standard grid workload."""
    num_items = ITEM_GRID[-1]
    procs = PROC_GRID[-1]
    svc = multi_item_workload(num_items, num_items * PER_ITEM, M, rng=num_items)
    csv_path = tmp / "e2e.csv"
    col_path = tmp / "e2e.col"
    write_trace(_service_records(svc), csv_path)
    convert_csv(csv_path, col_path)

    def old_pipeline():
        s = MultiItemInstance.from_records(read_trace(csv_path))
        for _ in range(E2E_CALLS):
            solve_offline_multi(s, processes=procs, transport="pickle")

    def new_pipeline():
        s = MultiItemInstance.from_columnar(col_path)
        with ServicePool(procs) as pool:
            for _ in range(E2E_CALLS):
                pool.solve(s)

    t_old, _ = _best_of(old_pipeline, 1)
    t_new, _ = _best_of(new_pipeline, 1)
    speedup = t_old / t_new if t_new > 0 else float("inf")
    # Perf gate: only meaningful where the hardware can parallelise.
    if not SMOKE and cpus >= 4:
        assert speedup >= 1.5, (
            f"end-to-end pipeline only {speedup:.2f}x at {procs} processes"
        )
    return {
        "items": num_items,
        "requests": svc.total_requests,
        "processes": procs,
        "solve_calls": E2E_CALLS,
        "old_pipeline": "CSV ingest + pickled pool solves",
        "new_pipeline": "columnar ingest + persistent shm pool solves",
        "old_seconds": t_old,
        "new_seconds": t_new,
        "speedup": speedup,
        "speedup_gate": ">=1.5x, asserted when usable_cpus >= 4",
    }


def test_service_throughput(benchmark):
    cpus = _usable_cpus()
    rows, json_rows, batch_gate = _bench_transports(cpus)
    phases = _bench_phases()
    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        ingest = _bench_ingest(tmp)
        e2e = _bench_end_to_end(tmp, cpus)

    # Online serve identity ride-along: pool vs ephemeral shm vs serial.
    svc_small = multi_item_workload(ITEM_GRID[0], ITEM_GRID[0] * 30, 8, rng=7)
    serve_serial = MultiItemOnlineService(SpeculativeCaching).run(svc_small)
    with ServicePool(2) as pool:
        serve_pool = MultiItemOnlineService(SpeculativeCaching).run(
            svc_small, pool=pool
        )
    serve_par = MultiItemOnlineService(SpeculativeCaching).run(
        svc_small, processes=2
    )
    for other in (serve_pool, serve_par):
        assert serve_serial.total_cost == other.total_cost
        assert serve_serial.counters() == other.counters()
        assert list(serve_serial.runs) == list(other.runs)

    # Leak gate: every segment the fabric created must be unlinked.
    assert active_segments() == (), active_segments()

    payload = {
        "benchmark": "service_throughput",
        "grid": {"items": ITEM_GRID, "processes": PROC_GRID, "m": M},
        "per_item_requests": PER_ITEM,
        "repeats": REPEATS,
        "smoke": SMOKE,
        "usable_cpus": cpus,
        "identity": "per transport and grid point, parallel cost surface "
        "byte-identical to serial (canonical JSON dump compared); columnar "
        "ingest equals CSV ingest item by item",
        "shm_note": "shm rows are persistent-pool steady state (segments "
        "attached, worker instance caches warm)",
        "batch_gate": batch_gate,
        "rows": json_rows,
        "phases": phases,
        "ingest": ingest,
        "end_to_end": e2e,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "service_throughput",
        format_table(rows, precision=4)
        + "\n\nserial batch kernel ({backend} sweep, items={items}): "
        "python sweep {python_sweep_seconds:.4f}s, batch "
        "{batch_seconds:.4f}s ({serial_speedup:.1f}x, gate "
        "{threshold}x)".format(**batch_gate)
        + "\n\nshm phases (items={items}, {processes} procs): "
        "pack {serialize_attach_seconds:.4f}s, first {first_call_seconds:.4f}s, "
        "steady {steady_call_seconds:.4f}s, merge {merge_seconds:.4f}s".format(
            **phases
        )
        + "\ningest {rows} rows: csv {csv_rows_per_s:,.0f} rows/s, columnar "
        "{columnar_rows_per_s:,.0f} rows/s ({ingest_ratio:.1f}x)".format(
            **ingest
        )
        + "\nend-to-end ({solve_calls} solves, {processes} procs): old "
        "{old_seconds:.3f}s, new {new_seconds:.3f}s ({speedup:.2f}x)".format(
            **e2e
        ),
        header=f"P3: service transports + columnar ingest "
        f"(m={M}, {PER_ITEM} req/item, {cpus} usable cpu(s), "
        f"best of {REPEATS})",
    )

    benchmark(lambda: solve_offline_multi(svc_small, processes=1).total_cost)
