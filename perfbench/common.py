"""Shared plumbing of the benchmark: paths, statistics, tracing, envelope.

Everything the benchmark writes goes under ``.bench_build/`` at the root
of the checkout (compiled kernel cache, temp files, span dumps), so a run
reads and writes only inside its checkout.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def prepare_environment() -> Path:
    """Point imports, temp files and the kernel cache into the checkout.

    Raises ``SystemExit(2)`` when the program's sources are absent, so a
    directory holding only the benchmark fails without printing a result.
    Returns a fresh per-run work directory.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return Path(tempfile.mkdtemp(prefix="run-", dir=tmp))


def stop_helper_processes(timeout: float = 5.0) -> None:
    """Stop and reap every process multiprocessing started for this run.

    Pool workers are joined (terminated if they outlive ``timeout``).  The
    resource tracker, which the fabric's shared memory starts, outlives its
    parent by design; closing its pipe stops it, and ``_stop`` waits for it.
    """
    for proc in multiprocessing.active_children():
        proc.join(timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def child_env() -> Dict[str, str]:
    """Environment for program processes the benchmark spawns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def repeat_for(seconds: float, min_ops: int = 3):
    """Yield op indices until ``seconds`` have passed and ``min_ops`` ran."""
    start = time.perf_counter()
    k = 0
    while k < min_ops or time.perf_counter() - start < seconds:
        yield k
        k += 1


#: Host-speed witness: a fixed pure-Python loop, and its time in ms on a
#: quiet reference host.  The loop never changes.
REF_LOOP = 100_000
REF_NOMINAL_MS = 6.0


def reference_ms(loop: int = REF_LOOP) -> float:
    """One timing of the host-speed witness loop, in ms per ``REF_LOOP``
    iterations (a shorter ``loop`` is scaled up)."""
    start = time.perf_counter()
    acc = 0
    for i in range(loop):
        acc += i * i
    return (time.perf_counter() - start) * 1e3 * REF_LOOP / loop


class HostClock:
    """Times operations and scales them to the reference host speed.

    On a shared host the same code runs up to ~1.6x slower while
    neighbours are busy, for seconds to minutes at a time.  Each
    measurement is therefore bracketed by timings of the witness loop,
    and its wall and CPU times are multiplied by ``REF_NOMINAL_MS``
    over the bracket's median: a program change moves the scaled time,
    host drift moves both sides of the ratio.  The unscaled times are
    kept next to the scaled ones.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.raw: Dict[str, List[float]] = {}
        self.scaled: Dict[str, List[float]] = {}

    def scale(self, witness: List[float]) -> float:
        """Scale factor for a measurement bracketed by ``witness`` timings."""
        self.samples.extend(witness)
        return REF_NOMINAL_MS / median(witness)

    @contextmanager
    def measure(self):
        """Yield a dict filled on exit with ``wall``/``cpu`` seconds and
        the ``scale`` factor of the bracketing witness timings."""
        before = reference_ms()
        out: Dict[str, float] = {}
        cpu0, start = own_cpu_s(), time.perf_counter()
        yield out
        out["wall"], out["cpu"] = time.perf_counter() - start, own_cpu_s() - cpu0
        out["scale"] = self.scale([before, reference_ms()])

    def add(self, name: str, value: float, scale: float) -> None:
        """Record one sample of an end-to-end metric, unscaled and scaled."""
        self.raw.setdefault(name, []).append(value)
        self.scaled.setdefault(name, []).append(value * scale)

    def metrics(self) -> Dict[str, float]:
        """Scaled medians, unscaled medians as ``raw.<name>``, and the
        median witness time as ``host.ref_ms``."""
        out = {name: median(v) for name, v in self.scaled.items()}
        out.update({f"raw.{name}": median(v) for name, v in self.raw.items()})
        out["host.ref_ms"] = median(self.samples)
        return out


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# ---------------------------------------------------------------------------
# Tracing: spans recorded around calls into the program's layers.
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op]``: ``parent`` is the index
    of the enclosing span (``None`` at top level) and ``op`` the id of the
    timed operation it belongs to.  Spans are only written out by
    :meth:`dump` when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent=None) -> int:
        """Record a span whose times were taken elsewhere; returns its index."""
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1

    @contextmanager
    def patched(self, owner, attr: str, name: str):
        """Record a span around every call of ``owner.attr`` in the block.

        ``owner`` is a module or a class; the original attribute is put
        back on exit, so the program itself is never changed on disk.
        """
        raw = vars(owner)[attr]
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr, staticmethod(wrapper) if isinstance(owner, type) else wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, raw)

    def breakdown(self, op_name: str) -> List[Dict[str, float]]:
        """Self time per span name under each ``op_name`` span, in seconds.

        A span's self time is its duration minus the time its direct
        children cover.  Each dict also maps ``op_name`` to the op span's
        own self time (the residual no child accounts for) and ``""`` to
        the op's full duration, so the non-empty keys sum to ``""``.
        """
        children: Dict[int, List[int]] = {}
        for idx, span in enumerate(self.spans):
            if span[3] is not None:
                children.setdefault(span[3], []).append(idx)
        out = []
        for idx, span in enumerate(self.spans):
            if span[0] != op_name:
                continue
            row: Dict[str, float] = {"": span[2] - span[1]}
            stack = [idx]
            while stack:
                cur = stack.pop()
                name, start, end = self.spans[cur][:3]
                kids = children.get(cur, [])
                covered = sum(self.spans[k][2] - self.spans[k][1] for k in kids)
                row[name] = row.get(name, 0.0) + (end - start) - covered
                stack.extend(kids)
            out.append(row)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def summarize(breakdowns: Sequence[Dict[str, float]]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Median and total per span name over ops (an absent name counts 0)."""
    names = sorted({name for row in breakdowns for name in row})
    medians = {n: median(row.get(n, 0.0) for row in breakdowns) for n in names}
    totals = {n: sum(row.get(n, 0.0) for row in breakdowns) for n in names}
    return medians, totals


def batch_sweep_bytes(layout) -> int:
    """Bytes the batch DP sweep reads and writes for one packed layout.

    Computed, not measured: every input column once, plus the five
    per-request output columns (``C``, ``D``, ``served``, tag, argument).
    """
    inputs = sum(
        getattr(layout, name).nbytes
        for name in ("off", "nreq", "soff", "mserv", "origin", "mu", "lam",
                     "t", "srv", "p", "sigma", "B")
    )
    return int(inputs + layout.total * (8 + 8 + 1 + 8 + 8))


def self_time_table(rows: Sequence[Tuple[str, float]], total: float, unit: str) -> List[str]:
    """Render ``(layer, time)`` rows as a self-time and share table.

    The rows must include the unaccounted residual so that they sum to
    ``total``; the footer shows the sum next to the op time.
    """
    width = max(len(name) for name, _ in rows) + 2
    lines = [f"{'layer':<{width}}{'self ' + unit:>14}{'share':>9}"]
    for name, value in rows:
        share = value / total if total else 0.0
        lines.append(f"{name:<{width}}{value:>14.3f}{share:>8.1%}")
    summed = sum(v for _, v in rows)
    lines.append(f"{'sum of rows':<{width}}{summed:>14.3f}   (op {total:.3f})")
    return lines


# ---------------------------------------------------------------------------
# Run envelope.
# ---------------------------------------------------------------------------


def git_sha() -> Optional[str]:
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def envelope(seed: int) -> dict:
    import numpy

    from repro.kernels.batch import batch_sweep_backend

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "batch_sweep_backend": batch_sweep_backend(),
        "seed": seed,
    }
