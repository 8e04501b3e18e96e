"""P2 — the off-line DP sweep: identity gate + speedup gates.

Standalone script (also runnable under pytest) benchmarking the batched
DP sweep of :mod:`repro.kernels.batch` — the package's only off-line DP
path — against the reference oracle ``solve_offline_bisect`` and
writing ``BENCH_dp_kernels.json`` at the repository root:

* **kernel grid** — ``solve_offline`` (a batch of one) with each sweep
  backend (compiled C when a system compiler exists, the Python twin
  always) vs ``solve_offline_bisect`` over an (n, m) grid.  At *every*
  point each backend's result must be byte-identical to the oracle in
  ``C``, ``D``, ``served_by_cache`` and the backtracking metadata, and
  the reconstructed schedules must be equal.  This gate is
  unconditional: any violation exits non-zero, in ``--quick`` mode too.
* **speedup gate** — at the headline point (``n=100_000, m=64``) the
  default solve must be ≥3× faster than the oracle.  Hard failure in
  full mode; in ``--quick`` mode (CI smoke on shared runners) the grid
  shrinks and the headline point is skipped, because timings on noisy
  boxes are advisory.
* **batch series** — one ``solve_offline_batch`` call over a whole
  Zipf-skewed multi-item workload per backend, next to the per-item
  ``solve_offline`` loop.  Identity against the per-item oracle across
  every item and result field is unconditional; the ≥5× C-over-Python
  gate is hard in full mode when the compiled sweep is available and
  soft-warns otherwise.

Usage::

    PYTHONPATH=src python benchmarks/bench_dp_kernels.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:  # standalone invocation without install
    sys.path.insert(0, str(ROOT / "src"))

from repro import (  # noqa: E402
    multi_item_workload,
    solve_offline,
    solve_offline_batch,
    solve_offline_bisect,
)
from repro.analysis import format_table  # noqa: E402
from repro.kernels import batch_sweep_backend  # noqa: E402
from repro.workloads import poisson_zipf_instance  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _util import emit  # noqa: E402

JSON_PATH = ROOT / "BENCH_dp_kernels.json"

#: Headline grid point of the speedup gate.
HEADLINE = {"n": 100_000, "m": 64}
SPEEDUP_GATE = 3.0

#: Batch gate: the compiled sweep must beat the Python sweep on the same
#: packed service workload by this factor (hard in full mode with the
#: compiled C sweep; soft otherwise).
BATCH_SPEEDUP_GATE = 5.0


def _best_of(fn, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _same_arrays(a, b) -> bool:
    return (
        a.C.tobytes() == b.C.tobytes()
        and a.D.tobytes() == b.D.tobytes()
        and a.served_by_cache.tobytes() == b.served_by_cache.tobytes()
        and a.choice_d_tag.tobytes() == b.choice_d_tag.tobytes()
        and a.choice_d_k.tobytes() == b.choice_d_k.tobytes()
    )


def _identical(a, b) -> bool:
    """Byte-identity across every result field plus schedule agreement."""
    if not _same_arrays(a, b):
        return False
    sa, sb = a.schedule(), b.schedule()
    cost = a.instance.cost
    return (
        sa.transfers == sb.transfers
        and sa.intervals == sb.intervals
        and sa.total_cost(cost) == sb.total_cost(cost)
    )


def _backends():
    """Every sweep backend runnable here (the Python sweep always is)."""
    return ("c", "python") if batch_sweep_backend() == "c" else ("python",)


def run_bench(quick: bool) -> dict:
    repeats = 1 if quick else 3
    grid = (
        [(1_000, 8), (2_000, 64)]
        if quick
        else [(2_000, 8), (10_000, 16), (50_000, 32), (100_000, 64)]
    )
    backends = _backends()

    failures = []
    kernel_rows = []
    for n, m in grid:
        inst = poisson_zipf_instance(n, m, rate=1.0, zipf_s=0.9, rng=n + m)
        # The oracle is O(n m log n) interpreted probes: timed once.
        t_ref, res_ref = _best_of(lambda: solve_offline_bisect(inst), 1)
        row = {"n": n, "m": m, "oracle_s": t_ref}
        identical = True
        for backend in backends:
            t_run, res = _best_of(
                lambda: solve_offline_batch([("x", inst)], kernel=backend)["x"],
                repeats,
            )
            row[f"{backend}_s"] = t_run
            identical = identical and _identical(res_ref, res)
        t_auto, res_auto = _best_of(lambda: solve_offline(inst), repeats)
        identical = identical and _identical(res_ref, res_auto)
        if not identical:
            failures.append(f"bit-identity violated at n={n}, m={m}")
        row["solve_offline_s"] = t_auto
        row["speedup"] = t_ref / t_auto if t_auto > 0 else float("inf")
        row["bit_identical"] = identical
        kernel_rows.append(row)

    # One batched call per backend over a multi-item service workload,
    # next to the per-item solve_offline loop (identity unconditional).
    if quick:
        b_items, b_total, b_m = 24, 24 * 250, 8
    else:
        b_items, b_total, b_m = 96, 96 * 1600, 24
    svc = multi_item_workload(b_items, b_total, b_m, rng=96)
    oracle = {name: solve_offline_bisect(inst) for name, inst in svc.items.items()}
    t_item, res_item = _best_of(
        lambda: {name: solve_offline(inst) for name, inst in svc.items.items()},
        repeats,
    )
    batch_row = {
        "items": b_items,
        "n_total": b_total,
        "m": b_m,
        "per_item_loop_s": t_item,
    }
    batch_identical = all(_same_arrays(oracle[k], res_item[k]) for k in oracle)
    for backend in backends:
        t_batch, res_batch = _best_of(
            lambda: solve_offline_batch(svc.items, kernel=backend), repeats
        )
        batch_row[f"batch_{backend}_s"] = t_batch
        batch_identical = batch_identical and all(
            _same_arrays(oracle[k], res_batch[k]) for k in oracle
        )
    if not batch_identical:
        failures.append(
            f"batch sweep diverged from the per-item oracle "
            f"(items={b_items}, n_total={b_total}, m={b_m})"
        )
    batch_row["bit_identical"] = batch_identical
    c_over_python = (
        batch_row["batch_python_s"] / batch_row["batch_c_s"]
        if "batch_c_s" in batch_row and batch_row["batch_c_s"] > 0
        else None
    )

    headline = next(
        (
            r
            for r in kernel_rows
            if r["n"] == HEADLINE["n"] and r["m"] == HEADLINE["m"]
        ),
        None,
    )
    return {
        "benchmark": "dp_kernels",
        "quick": quick,
        "repeats": repeats,
        "backends": list(backends),
        "host": {
            "usable_cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "identity": "C/D/served_by_cache/choice vectors byte-identical to "
        "solve_offline_bisect and reconstructed schedules equal, per grid "
        "point and per sweep backend",
        "speedup_gate": {
            "at": HEADLINE,
            "threshold": SPEEDUP_GATE,
            "measured": headline["speedup"] if headline else None,
        },
        "batch_gate": {
            "threshold": BATCH_SPEEDUP_GATE,
            "measured": c_over_python,
            "backend": batch_sweep_backend(),
        },
        "kernel_grid": kernel_rows,
        "batch_series": [batch_row],
        "failures": failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="small grid for CI smoke: identity gate still hard, "
        "speedup gates soft-warn",
    )
    ap.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        help=f"output path (default {JSON_PATH}; quick runs don't overwrite "
        "the committed artefact unless asked)",
    )
    args = ap.parse_args(argv)

    payload = run_bench(args.quick)
    out = args.json
    if out is None:
        # A --quick run on a laptop/CI box must not clobber the committed
        # full-grid artefact that README/EXPERIMENTS cite.
        out = JSON_PATH if not args.quick else None
    if out is not None:
        out.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        "dp_kernels",
        format_table(payload["kernel_grid"], precision=4)
        + "\n\nbatch series (one call per backend vs per-item loop):\n"
        + format_table(payload["batch_series"], precision=4),
        header="P2: DP sweep grid — batch sweep (C, Python) vs the "
        "solve_offline_bisect oracle (identity asserted per point; gate "
        f"≥{SPEEDUP_GATE}x at n={HEADLINE['n']}, m={HEADLINE['m']})",
    )

    if payload["failures"]:
        for msg in payload["failures"]:
            print(f"IDENTITY VIOLATION: {msg}", file=sys.stderr)
        return 1

    gate = payload["speedup_gate"]
    if gate["measured"] is None:
        print(
            f"speedup gate: headline point n={HEADLINE['n']}, "
            f"m={HEADLINE['m']} not in this grid "
            f"({'quick mode' if args.quick else 'unexpected'}); skipped"
        )
    elif gate["measured"] < SPEEDUP_GATE:
        print(
            f"FAILED: speedup gate: measured {gate['measured']:.2f}x < "
            f"{SPEEDUP_GATE}x at n={HEADLINE['n']}, m={HEADLINE['m']}",
            file=sys.stderr,
        )
        return 1
    else:
        print(
            f"speedup gate passed: {gate['measured']:.2f}x >= "
            f"{SPEEDUP_GATE}x at n={HEADLINE['n']}, m={HEADLINE['m']}"
        )

    bgate = payload["batch_gate"]
    if bgate["measured"] is None or bgate["measured"] < BATCH_SPEEDUP_GATE:
        measured = (
            "no compiled sweep"
            if bgate["measured"] is None
            else f"measured {bgate['measured']:.2f}x"
        )
        msg = (
            f"batch gate (C over Python sweep): {measured} < "
            f"{BATCH_SPEEDUP_GATE}x (backend={bgate['backend']})"
        )
        # Hard only where it's meaningful: full mode with the compiled
        # sweep.  Quick CI smoke and Python-fallback boxes soft-warn.
        if args.quick or bgate["backend"] != "c":
            print(f"WARNING (soft): {msg}", file=sys.stderr)
        else:
            print(f"FAILED: {msg}", file=sys.stderr)
            return 1
    else:
        print(
            f"batch gate passed: C sweep {bgate['measured']:.2f}x >= "
            f"{BATCH_SPEEDUP_GATE}x over the Python sweep"
        )
    return 0


def test_dp_kernels_quick():
    """Pytest entry: the quick grid's identity gate must hold."""
    payload = run_bench(quick=True)
    assert payload["failures"] == []


if __name__ == "__main__":
    sys.exit(main())
