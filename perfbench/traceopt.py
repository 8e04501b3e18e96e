"""``trace-opt``: the fleet OPT report of ``repro-cache service <trace>``.

One op mines a seeded columnar trace into per-item instances
(``MultiItemInstance.from_columnar``) and solves them with
``solve_offline_multi(processes=2)`` — the same two calls the CLI makes.
Item sizes are Zipf-distributed, so a few long items carry most rows and
the C DP sweep runs on them; SC never runs here.
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from common import (
    HostClock,
    Tracer,
    batch_sweep_bytes,
    median,
    peak_rss_mb,
    repeat_for,
    self_time_table,
    summarize,
)

#: Trace shape: rows, catalogue size, item-popularity skew, fleet size.
SIZES = {"rows": 300_000, "items": 3000, "item_zipf": 1.1, "m": 16}
PROCESSES = 2
OP = "trace-opt.report"
CSV_CHUNK = 50_000


def write_csv(path: Path, seed: int, rows: int, items: int, item_zipf: float, m: int) -> None:
    """Seeded service log: Poisson arrivals, Zipf item sizes, uniform servers."""
    from repro.workloads.synthetic import zipf_weights

    rng = np.random.default_rng(seed)
    ids = rng.choice(items, size=rows, p=zipf_weights(items, item_zipf))
    times = np.cumsum(rng.exponential(0.01, size=rows))
    servers = rng.integers(0, m, size=rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("time,server,user,item\n")
        for lo in range(0, rows, CSV_CHUNK):
            hi = min(rows, lo + CSV_CHUNK)
            fh.writelines(
                f"{t!r},{s},-1,item-{i:05d}\n"
                for t, s, i in zip(times[lo:hi].tolist(), servers[lo:hi].tolist(), ids[lo:hi].tolist())
            )


def reap_workers(timeout: float = 5.0) -> None:
    """Wait until the fabric's worker processes have exited and been reaped.

    The pool's close does not wait for its workers, so without this their
    CPU time lands in whichever later op happens to reap them.
    """
    deadline = time.perf_counter() + timeout
    while multiprocessing.active_children() and time.perf_counter() < deadline:
        time.sleep(0.001)


def check_report(off, serial, exact_total: float) -> Dict[str, bool]:
    """``processes=2`` must equal the serial solve bit for bit, and the
    total must equal the trace's exact off-line cost."""
    same = list(off.per_item) == list(serial.per_item) and all(
        np.array_equal(off.per_item[k].C, serial.per_item[k].C)
        and np.array_equal(off.per_item[k].D, serial.per_item[k].D)
        and np.array_equal(off.per_item[k].served_by_cache, serial.per_item[k].served_by_cache)
        for k in serial.per_item
    )
    return {
        "parallel_matches_serial": same and off.total_cost == serial.total_cost,
        "total_matches_exact_offline_cost": off.total_cost == exact_total,
    }


def run(seed: int, seconds: float, trace: bool, work: Path, sizes: Optional[dict] = None) -> dict:
    from repro.core.instance import ProblemInstance
    from repro.kernels.batch import BatchLayout, solve_layout
    from repro.service.multi import MultiItemInstance, solve_offline_multi
    from repro.service.sharding import plan_shards
    from repro.workloads.columnar import ColumnarTrace, convert_csv
    from repro.workloads.sampling import exact_offline_cost

    sizes = dict(SIZES, **(sizes or {}))
    csv_path, col_path = work / "trace.csv", work / "trace.col"
    write_csv(csv_path, seed, sizes["rows"], sizes["items"], sizes["item_zipf"], sizes["m"])
    clock = HostClock()
    convert = []

    def timed_setup():
        with clock.measure() as m:
            start = time.perf_counter()
            convert_csv(csv_path, col_path)
            convert.append(time.perf_counter() - start)
            opened = ColumnarTrace.open(col_path)
        clock.add("setup_s", m["wall"], m["scale"])
        return opened

    columns = timed_setup()
    rows = columns.rows

    def report():
        service = MultiItemInstance.from_columnar(columns)
        off = solve_offline_multi(service, processes=PROCESSES)
        reap_workers()
        return service, off

    service, off = report()  # warm-up
    attempted = failed = 0
    op_s, traced_s = [], []
    tracer = Tracer()
    for k in repeat_for(seconds):
        traced_op = trace and k % 2 == 1
        attempted += 1
        tracer.op = k
        try:
            with clock.measure() as m:
                if traced_op:
                    with tracer.patched(MultiItemInstance, "from_columnar", "multi.from_columnar"), \
                            tracer.patched(ProblemInstance, "from_arrays", "instance.prescan"), \
                            tracer.span(OP):
                        service = MultiItemInstance.from_columnar(columns)
                        with tracer.span("fabric.solve_multi"):
                            off = solve_offline_multi(service, processes=PROCESSES)
                            reap_workers()
                else:
                    service, off = report()
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            failed += 1
            continue
        # Set-up is sampled all through the run, so its median does not
        # hang on the host's state in the first second.
        columns.close()
        columns = timed_setup()
        if not traced_op:
            op_s.append(m["wall"] * m["scale"])
            clock.add("p50_ms", m["wall"] * 1e3, m["scale"])
            clock.add("cpu_us_per_event", m["cpu"] / rows * 1e6, m["scale"])
            continue
        traced_s.append(m["wall"] * m["scale"])
        # The serial twin of the fabric solve, outside the op: its pack
        # and sweep are what the two workers compute between them.
        tracer.op = -k
        with tracer.span("serial.solve"):
            with tracer.span("batch.pack"):
                layout = BatchLayout.from_instances(service.items)
            with tracer.span("batch.sweep"):
                solve_layout(layout)

    serial_off = solve_offline_multi(service)
    checks = check_report(off, serial_off, exact_offline_cost(col_path))
    columns.close()
    metrics = dict(clock.metrics(), peak_rss_mb=peak_rss_mb())
    report_lines = [
        f"trace: {rows} rows, {service.num_items} items, m={sizes['m']}, "
        f"item zipf {sizes['item_zipf']}; {len(op_s)} untraced ops",
        f"rows_per_s (host-scaled): {rows / median(op_s):.0f}",
    ]
    if trace:
        ops, serials = tracer.breakdown(OP), tracer.breakdown("serial.solve")
        med, tot = summarize(ops)
        serial_med, serial_tot = summarize(serials)
        overhead = [op["fabric.solve_multi"] - ser[""] for op, ser in zip(ops, serials)]
        mining = [op["multi.from_columnar"] + op["instance.prescan"] for op in ops]
        layout = BatchLayout.from_instances(service.items)
        loads = [sum(service.items[name].n for name in shard)
                 for shard in plan_shards(service.items, PROCESSES)]
        metrics.update({
            "multi.from_columnar_ms": median(mining) * 1e3,
            "instance.prescan_ms": med["instance.prescan"] * 1e3,
            "batch.pack_ms": serial_med["batch.pack"] * 1e3,
            "batch.sweep_ms": serial_med["batch.sweep"] * 1e3,
            "batch.bytes_moved": batch_sweep_bytes(layout),
            "batch.items": layout.num_items,
            "batch.requests": int(layout.nreq.sum()),
            "fabric.overhead_ms": median(overhead) * 1e3,
            "sharding.imbalance": max(loads) / (sum(loads) / len(loads)),
            "columnar.convert_rows_per_s": rows / median(convert),
            "trace.overhead_pct": (median(traced_s) / median(op_s) - 1.0) * 100.0,
        })
        fabric, serial_total = tot["fabric.solve_multi"], serial_tot[""]
        report_lines.append(f"per-layer self time over {len(traced_s)} traced ops:")
        report_lines += self_time_table(
            [
                ("multi.from_columnar (self)", tot["multi.from_columnar"] * 1e3),
                ("multi.from_columnar: instance.prescan", tot["instance.prescan"] * 1e3),
                ("fabric.solve_multi: serial pack+sweep", serial_total * 1e3),
                ("fabric.solve_multi: fabric overhead", (fabric - serial_total) * 1e3),
                (f"{OP} (unaccounted)", tot[OP] * 1e3),
            ],
            tot[""] * 1e3, "ms",
        )
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "metrics": metrics, "report": report_lines, "tracer": tracer if trace else None}
