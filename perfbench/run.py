"""Benchmark entry point: one workload, one seed, one measured run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {serve,trace-opt,ratio-sweep} \\
        --seed N --seconds S --trace {0,1}

Human-readable lines (run envelope, per-layer tables) come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` a separately traced run reports the per-layer metrics
(a layer the workload never calls reports 0) and writes its spans to
``.bench_build/traces/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import common

WORKLOADS = ("serve", "trace-opt", "ratio-sweep")


def _workload_module(name: str):
    if name == "serve":
        import serve as module
    elif name == "trace-opt":
        import traceopt as module
    else:
        import ratiosweep as module
    return module


def result_line(outcome: dict, envelope: dict, trace: bool, spec: dict) -> dict:
    """The final JSON object: every metric of the selected kind, with units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = outcome["metrics"]
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)) if trace
                    else float(measured[m["name"]]),
                    "unit": m["unit"]}
        for m in wanted
    }
    checks = dict(outcome["checks"], batch_sweep_backend_is_c=envelope["batch_sweep_backend"] == "c")
    return {
        "correct": all(checks.values()),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }


def _terminate(*_) -> None:
    """SIGTERM: exit through the ``finally`` blocks, which stop the server
    process and multiprocessing's helpers and remove the work directory;
    a repeated SIGTERM must not cut that clean-up short."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(143)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    work = common.prepare_environment()
    try:
        spec = common.load_spec()
        envelope = common.envelope(args.seed)
        outcome = _workload_module(args.workload).run(
            args.seed, args.seconds, bool(args.trace), work
        )
        if args.trace:
            outcome["tracer"].dump(
                common.BUILD / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            )
        line = result_line(outcome, envelope, bool(args.trace), spec)
    finally:
        common.stop_helper_processes()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}: " + json.dumps(envelope))
    print("unscaled medians: " + ", ".join(
        f"{name} {value:.6g}" for name, value in sorted(outcome["metrics"].items())
        if name.startswith(("raw.", "host."))
    ))
    for text in outcome["report"]:
        print(text)
    failed_checks = [k for k, ok in outcome["checks"].items() if not ok]
    if failed_checks:
        print("failed checks: " + ", ".join(failed_checks))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
