"""``serve``: the live server under a fixed open-loop event rate.

``python -m repro.cli serve`` runs in its own process (4 shards, m=8, a
write-ahead log on local disk with fsync on).  This process is the load
generator: it drives a seeded Zipf multi-item event stream at a fixed
rate over two persistent keep-alive connections, pipelining requests.
Every item is pinned to one connection (its lane), and the server
answers a connection's requests in order, so an item's events arrive in
time order and no 409 races occur.

The sender sleeps with ``time.sleep`` (nanosleep, no millisecond
rounding) and each event's latency is timed from when it was due, so a
stall also charges the requests queued behind it; the sender's own
lateness is reported as ``loadgen.late_p99_ms``.
"""

from __future__ import annotations

import json
import re
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    ROOT,
    HostClock,
    Tracer,
    child_env,
    median,
    peak_rss_mb,
    percentile,
    process_cpu_s,
    reference_ms,
    self_time_table,
)

#: Stream shape and server layout.  The rate is about half of what this
#: server sustains on a 2-CPU host with fsync on.
SIZES = {"items": 256, "item_zipf": 1.0, "m": 8, "shards": 4, "rate": 1000.0}
LANES = 2
WARMUP_S = 1.0
SEGMENT_S = 1.0
#: Server start-ups per run: half before the load phase (the last one
#: serves the load) and half after it, so the median spans the run.
SETUP_REPEATS = 8
HEALTHZ_PROBES = 2000
START_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 30.0
#: Witness iterations timed at each segment boundary during the load: a
#: tenth of the usual loop, so the sampler holds the interpreter lock
#: for well under a millisecond.
WITNESS_LOOP = 10_000

_PORT = re.compile(r"serving on http://[^:]+:(\d+)")


class Connection:
    """One blocking keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_response(self) -> Tuple[int, bytes]:
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        return int(status_line.split()[1]), self.reader.read(length)

    def request(self, method: str, path: str) -> Tuple[int, dict]:
        self.send(f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n".encode())
        status, body = self.read_response()
        return status, json.loads(body)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def request_bytes(body: dict) -> bytes:
    blob = json.dumps(body).encode()
    head = f"POST /request HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(blob)}\r\n\r\n"
    return head.encode() + blob


class Server:
    """A ``repro.cli serve`` process; construction returns once it is ready."""

    def __init__(self, work: Path, tag: str, shards: int, m: int):
        wal = work / f"wal-{tag}"
        self.log = open(work / f"server-{tag}.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--shards", str(shards),
             "-m", str(m), "--journal-dir", str(wal), "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, env=child_env(), cwd=ROOT,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline().decode() if ready else ""
            match = _PORT.search(line)
            if match is None:
                raise RuntimeError(f"server did not start (stdout {line!r}); see {self.log.name}")
            self.port = int(match.group(1))
            probe = Connection(self.port)
            try:
                while probe.request("GET", "/readyz")[0] != 200:
                    if time.perf_counter() - start > START_TIMEOUT_S:
                        raise RuntimeError("server never became ready")
                    time.sleep(0.01)
            finally:
                probe.close()
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def make_stream(seed: int, count: int, items: int, item_zipf: float, m: int):
    """Seeded events: Zipf item popularity, uniform servers, Poisson model time."""
    from repro.workloads.synthetic import zipf_weights

    rng = np.random.default_rng(seed)
    item_idx = rng.choice(items, size=count, p=zipf_weights(items, item_zipf))
    servers = rng.integers(0, m, size=count)
    times = np.cumsum(rng.exponential(1.0, size=count) + 1e-6)
    names = [f"obj-{i:03d}" for i in range(items)]
    return [
        (names[i], float(t), int(s))
        for i, t, s in zip(item_idx.tolist(), times.tolist(), servers.tolist())
    ], (item_idx % LANES).tolist()


def _response_ok(status: int, body: bytes) -> bool:
    """A clean answer: 2xx, settled, full service (not degraded or pending)."""
    if not 200 <= status < 300:
        return False
    payload = json.loads(body)
    return payload.get("status") == "done" and not payload.get("degraded")


def drive(conns: List[Connection], wire: List[bytes], lanes: List[int], due: np.ndarray,
          pid: int, boundaries: List[float]) -> dict:
    """Send every event at its due offset; collect answers and CPU samples.

    ``due`` and ``boundaries`` are offsets in seconds from the start.
    Returns per-event send/receive times, success flags, and the server's
    CPU seconds and a host-speed witness timing at each boundary.
    """
    n = len(wire)
    sent = np.full(n, np.nan)
    recv = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    order = [[i for i in range(n) if lanes[i] == lane] for lane in range(len(conns))]
    cpu = [np.nan] * len(boundaries)
    witness = [np.nan] * len(boundaries)
    start = time.perf_counter() + 0.05

    def receive(lane: int) -> None:
        conn = conns[lane]
        for idx in order[lane]:
            try:
                status, body = conn.read_response()
            except (OSError, ValueError):
                return  # the rest of this lane counts as failed
            recv[idx] = time.perf_counter()
            ok[idx] = _response_ok(status, body)

    def sample() -> None:
        for k, offset in enumerate(boundaries):
            delay = start + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            cpu[k] = process_cpu_s(pid)
            witness[k] = reference_ms(WITNESS_LOOP)

    threads = [threading.Thread(target=receive, args=(lane,), daemon=True) for lane in range(len(conns))]
    threads.append(threading.Thread(target=sample, daemon=True))
    for thread in threads:
        thread.start()
    try:
        for i in range(n):
            delay = start + due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            conns[lanes[i]].send(wire[i])
            sent[i] = time.perf_counter()
    except OSError:
        pass  # unsent events have no answer and count as failed
    deadline = time.perf_counter() + IO_TIMEOUT_S
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
    return {"start": start, "sent": sent - start, "recv": recv - start, "ok": ok,
            "cpu": cpu, "witness": witness}


def _replay_layers(events: List[Tuple[str, float, int]], work: Path, shards: int, m: int,
                   tracer: Tracer) -> Dict[str, dict]:
    """Replay the accepted stream through the in-process layers the
    server calls per event; returns per-call wall and CPU times (ns)."""
    from repro.offline.streaming import StreamingSolver
    from repro.runtime.digest import digest_value
    from repro.runtime.journal import RunJournal
    from repro.service.server import route_item

    clocks = (time.perf_counter_ns, time.thread_time_ns)
    layers = {name: {"wall": [], "cpu": []} for name in
              ("streaming.append", "digest.chain", "journal.append", "journal.fsync")}

    def timed(name: str, fn, *args):
        w0, c0 = clocks[0](), clocks[1]()
        out = fn(*args)
        w1, c1 = clocks[0](), clocks[1]()
        layers[name]["wall"].append(w1 - w0)
        layers[name]["cpu"].append(c1 - c0)
        tracer.add(name, w0 / 1e9, w1 / 1e9)
        return out

    solvers: Dict[str, StreamingSolver] = {}
    digests = [digest_value({"shard": s, "shards": shards}) for s in range(shards)]
    journals = [RunJournal.open_fresh(str(work / f"replay-{s}.jsonl"), sync=False) for s in range(shards)]
    seqs = [0] * shards
    try:
        for k, (item, t, server) in enumerate(events):
            tracer.op = k
            solver = solvers.get(item)
            if solver is None:
                solver = solvers[item] = StreamingSolver(m)
            prev_t, prev_c = solver.t[-1], solver.C[-1]
            item_cost = timed("streaming.append", solver.append, t, server)
            via_transfer = prev_c + (t - prev_t) + 1.0
            core = {"kind": "request", "item": item, "time": t, "server": server,
                    "decision": "cache" if solver.D[-1] <= via_transfer else "transfer",
                    "cost": item_cost - prev_c}
            shard = route_item(item, shards)
            digests[shard] = timed("digest.chain", digest_value, [digests[shard], core])
            seqs[shard] += 1
            record = {"seq": seqs[shard] - 1, "kind": "request", "item": item, "time": t,
                      "server": server, "digest": digests[shard]}
            timed("journal.append", journals[shard].append, record)
            timed("journal.fsync", journals[shard].flush, True)
    finally:
        for journal in journals:
            journal.close()
    return layers


def run(seed: int, seconds: float, trace: bool, work: Path, sizes: Optional[dict] = None) -> dict:
    sizes = dict(SIZES, **(sizes or {}))
    rate = sizes["rate"]
    count = int(round((WARMUP_S + seconds) * rate))
    events, lanes = make_stream(seed, count, sizes["items"], sizes["item_zipf"], sizes["m"])
    wire = [request_bytes({"item": i, "time": t, "server": s}) for i, t, s in events]
    due = np.arange(count) / rate
    segments = max(1, int(seconds // SEGMENT_S))
    seg_len = seconds / segments
    boundaries = [WARMUP_S + k * seg_len for k in range(segments + 1)]

    clock = HostClock()

    def spawn(tag: str) -> Server:
        with clock.measure() as m:
            server = Server(work, tag, sizes["shards"], sizes["m"])
        clock.add("setup_s", server.setup_s, m["scale"])
        return server

    for k in range(SETUP_REPEATS // 2 - 1):
        spawn(f"pre{k}").stop()
    server = spawn("load")

    conns: List[Connection] = []
    try:
        conns = [Connection(server.port) for _ in range(LANES)]
        out = drive(conns, wire, lanes, due, server.pid, boundaries)
        status, stats = conns[0].request("GET", "/stats")
        off_status, offline = conns[0].request("GET", "/offline")
        rss = peak_rss_mb(server.pid)
        healthz = []
        if trace:
            for _ in range(HEALTHZ_PROBES):
                start = time.perf_counter_ns()
                conns[0].request("GET", "/healthz")
                healthz.append(time.perf_counter_ns() - start)
    finally:
        for conn in conns:
            conn.close()
        server.stop()
    for k in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        spawn(f"post{k}").stop()

    latency = out["recv"] - due
    seg_p50, seg_p99, seg_cpu = [], [], []
    for k in range(segments):
        lo, hi = boundaries[k], boundaries[k + 1]
        mask = (due >= lo) & (due < hi)
        lat = latency[mask]
        lat = lat[~np.isnan(lat)]
        scale = clock.scale(out["witness"][k:k + 2])
        if lat.size:
            seg_p50.append(percentile(lat.tolist(), 50) * 1e3)
            seg_p99.append(percentile(lat.tolist(), 99) * 1e3)
            clock.add("p50_ms", seg_p50[-1], scale)
        seg_cpu.append((out["cpu"][k + 1] - out["cpu"][k]) / max(1, int(mask.sum())) * 1e6)
        clock.add("cpu_us_per_event", seg_cpu[-1], scale)
    failed = int((~out["ok"]).sum())
    checks = {
        "offline_match": off_status == 200 and offline.get("match") is True,
        "processed_equals_sent": status == 200 and stats.get("processed") == count,
    }
    cpu_per_event = median(seg_cpu)
    metrics = dict(clock.metrics(), peak_rss_mb=rss)
    timed_mask = due >= WARMUP_S
    late = (out["sent"] - due)[timed_mask]
    report = [
        f"stream: {count} events ({int(timed_mask.sum())} timed) at {rate:g}/s open loop, "
        f"{sizes['items']} items, {LANES} lanes, {sizes['shards']} shards, m={sizes['m']}; "
        f"{segments} segments of {seg_len:g} s",
        f"segment p50 ms: {[round(v, 3) for v in seg_p50]}",
        f"segment p99 ms: {[round(v, 3) for v in seg_p99]}",
        f"segment server cpu us/event: {[round(v, 1) for v in seg_cpu]}",
        f"offline check: {offline}",
    ]
    tracer = Tracer()
    if trace:
        requests = stats["requests"]
        admitted = requests["accepted"]
        shed = requests["shed_429"] + requests["shed_503"]
        for k in range(count):
            tracer.op = k
            begin = out["start"] + due[k]
            span = tracer.add("serve.request", begin, out["start"] + out["recv"][k])
            tracer.add("loadgen.late", begin, out["start"] + out["sent"][k], span)
            tracer.add("server.round_trip", out["start"] + out["sent"][k], out["start"] + out["recv"][k], span)
        layers = _replay_layers(events, work, sizes["shards"], sizes["m"], tracer)
        wall_us = {name: median(v["wall"]) / 1e3 for name, v in layers.items()}
        cpu_us = {name: sum(v["cpu"]) / len(v["cpu"]) / 1e3 for name, v in layers.items()}
        unaccounted = cpu_per_event - sum(cpu_us.values())
        metrics.update({
            "server.p99_ms": median(seg_p99),
            "loadgen.late_p99_ms": percentile(late.tolist(), 99) * 1e3,
            "server.healthz_rtt_us": median(healthz) / 1e3,
            "streaming.append_us": wall_us["streaming.append"],
            "digest.chain_us": wall_us["digest.chain"],
            "journal.append_us": wall_us["journal.append"],
            "journal.fsync_us": wall_us["journal.fsync"],
            "server.unaccounted_us": unaccounted,
            "server.shed_share": shed / max(1, admitted + shed),
            "server.degraded_share": (stats["degraded_decisions"] + requests["deadline_expired"])
            / max(1, admitted),
            # The load phase is the same code traced or not: request spans
            # are built afterwards from the generator's own timestamps.
            "trace.overhead_pct": 0.0,
        })
        report.append("server CPU per event, split by in-process replay of the same stream:")
        report += self_time_table(
            [(f"{name} (cpu)", value) for name, value in cpu_us.items()]
            + [("server.unaccounted (wire, JSON, asyncio, admission)", unaccounted)],
            cpu_per_event, "us/event",
        )
    return {"attempted": count, "failed": failed, "checks": checks,
            "metrics": metrics, "report": report, "tracer": tracer if trace else None}
