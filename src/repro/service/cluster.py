"""Replicated serving cluster with WAL-backed shard failover.

A :class:`ReplicaSet` supervises N :class:`~repro.service.server.CacheServer`
replicas as real subprocesses over one *shared* journal directory.  The
``config.shards`` global shards are partitioned round-robin across
replicas (each replica serves only its subset; requests for foreign
shards get ``421`` so clients re-route), and every shard's state lives
in its own write-ahead journal file — which is what makes failover
exact:

* **Health checking.**  The supervisor polls every replica's
  ``/readyz`` through its *advertised* address — the chaos-proxy
  address when the cluster runs behind proxies — so a partitioned
  replica looks exactly as dead to the supervisor as it does to
  clients.  Process exit is detected immediately.
* **Fencing, then failover.**  A replica declared dead is first
  SIGKILLed (fencing: a partitioned-but-alive process must never keep
  appending to journals it no longer owns — the classic split-brain)
  and then its shards are re-leased round-robin to the survivors via
  ``POST /admin/acquire``.  Each survivor resumes the shard from its
  per-shard WAL, re-verifying every chained decision digest, so the
  acquired state is *provably* the byte-exact durable prefix of the
  dead owner — this is the bit-identical handoff the
  ``cluster_failover_suite`` asserts end to end.
* **Routing map.**  Shard ownership (with an epoch counter) is
  published atomically to ``cluster.json`` in the journal directory;
  :class:`~repro.service.loadgen.ClusterClient` reloads it on ``421``
  or connection failure and redrives through the dedupe path, so no
  decision is lost or duplicated across a handoff.
* **Chaos wiring.**  With ``proxy_plan`` set, every replica gets its
  own :class:`~repro.service.proxy.ChaosProxy` in front, and the map
  advertises proxy addresses; :meth:`set_partition` /
  :meth:`set_blackhole` give suites event-boundary-exact network
  faults per replica, while :meth:`kill_replica` is the crash butcher
  knife.

The supervisor runs its own asyncio loop on a daemon thread, so
synchronous callers (the chaos suite, benchmarks, the CLI) drive it
with plain method calls.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..faults.plan import NetworkFaultPlan
from .loadgen import HttpClient
from .proxy import ChaosProxy

__all__ = ["ClusterConfig", "Replica", "ReplicaSet", "run_cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of one :class:`ReplicaSet`."""

    journal_dir: str
    replicas: int = 3
    shards: int = 4
    num_servers: int = 8
    mu: float = 1.0
    lam: float = 1.0
    origin: int = 0
    host: str = "127.0.0.1"
    queue_depth: int = 256
    degrade_watermark: float = 1.0
    deadline_ms: float = 5000.0
    dedupe_window: Optional[float] = None
    sync: bool = True
    #: Seconds between health probes.
    health_interval: float = 0.2
    #: Consecutive probe failures that declare a replica dead.  Raise it
    #: (with the interval) above the longest partition you want the
    #: cluster to *ride out* instead of failing over.
    health_failures: int = 5
    #: Per-probe timeout (seconds).
    health_timeout: float = 1.0
    #: Seconds to wait for a replica subprocess to bind at startup.
    spawn_timeout: float = 30.0
    #: Optional wire-fault plan; one ChaosProxy per replica when set.
    proxy_plan: Optional[NetworkFaultPlan] = None
    #: Routing-map file name inside ``journal_dir``.
    map_name: str = "cluster.json"

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.health_failures < 1:
            raise ValueError(
                f"health_failures must be >= 1, got {self.health_failures}"
            )

    def assignment(self) -> Dict[int, List[int]]:
        """Initial shard partition: shard ``s`` -> replica ``s % N``."""
        owned: Dict[int, List[int]] = {i: [] for i in range(self.replicas)}
        for shard in range(self.shards):
            owned[shard % self.replicas].append(shard)
        return owned

    @property
    def map_path(self) -> str:
        return str(Path(self.journal_dir) / self.map_name)


@dataclass
class Replica:
    """Supervisor-side record of one replica subprocess."""

    index: int
    proc: subprocess.Popen
    host: str
    port: int
    proxy: Optional[ChaosProxy]
    owned: List[int]
    state: str = "live"  # live | dead
    health_fails: int = 0

    @property
    def advertised(self) -> Tuple[str, int]:
        """The address clients (and health probes) use."""
        if self.proxy is not None:
            return (self.proxy.host, self.proxy.port)
        return (self.host, self.port)

    @property
    def direct(self) -> Tuple[str, int]:
        """The supervisor's control-plane address (never proxied)."""
        return (self.host, self.port)


class ClusterError(RuntimeError):
    """The cluster cannot reach or keep a serving configuration."""


class ReplicaSet:
    """Replicated cluster supervisor (see module docstring).

    Usage::

        rs = ReplicaSet(ClusterConfig(journal_dir="/tmp/cluster"))
        rs.start()                      # spawns replicas, writes cluster.json
        ...                             # clients drive rs.config.map_path
        rs.kill_replica(1)              # SIGKILL + shard failover
        rs.set_partition(0, True)       # needs proxy_plan
        rs.stop()                       # SIGTERM drain everything
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.replicas: List[Replica] = []
        self.epoch = 0
        #: Completed failovers: {replica, shards, ready_s, epoch}.
        self.failover_log: List[dict] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._failing: set = set()

    # -- sync façade -----------------------------------------------------------

    def start(self, timeout: Optional[float] = None) -> None:
        """Spawn replicas + proxies and publish the first routing map.

        Blocks until the cluster is serving (every replica bound and
        health-checkable) or raises the startup error.
        """
        self._thread = threading.Thread(
            target=self._thread_main, name="replica-set", daemon=True
        )
        self._thread.start()
        budget = timeout if timeout is not None else self.config.spawn_timeout + 5
        if not self._started.wait(timeout=budget):
            self.stop()
            raise ClusterError("cluster did not start before the deadline")
        if self._startup_error is not None:
            self.stop()
            raise ClusterError(
                f"cluster startup failed: {self._startup_error}"
            ) from self._startup_error

    def stop(self) -> None:
        """SIGTERM-drain live replicas, stop proxies, join the loop."""
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=60)
            self._thread = None
        # Belt and braces: reap anything the loop did not get to.
        for replica in self.replicas:
            if replica.proc.poll() is None:
                replica.proc.kill()
                replica.proc.wait(timeout=10)

    def _call(self, coro):
        assert self._loop is not None, "cluster not started"
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result(60)

    def kill_replica(self, index: int, failover: bool = True) -> List[int]:
        """SIGKILL replica ``index``; with ``failover`` (default) move
        its shards to survivors immediately and return the moved list.

        ``failover=False`` leaves detection to the health loop — the
        path the detection-latency benchmark measures.
        """
        return self._call(self._kill_replica(index, failover))

    def set_partition(self, index: int, on: bool) -> None:
        """Flip replica ``index``'s proxy partition switch."""
        self._call(self._set_proxy(index, "partition", on))

    def set_blackhole(self, index: int, on: bool) -> None:
        """Flip replica ``index``'s proxy black-hole switch."""
        self._call(self._set_proxy(index, "blackhole", on))

    def live_replicas(self) -> List[int]:
        return [r.index for r in self.replicas if r.state == "live"]

    def owner_of(self, shard: int) -> int:
        """Replica index currently owning ``shard``."""
        for replica in self.replicas:
            if replica.state == "live" and shard in replica.owned:
                return replica.index
        raise ClusterError(f"shard {shard} has no live owner")

    @property
    def map_path(self) -> str:
        return self.config.map_path

    # -- the supervisor loop ---------------------------------------------------

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._startup_error = exc
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        config = self.config
        Path(config.journal_dir).mkdir(parents=True, exist_ok=True)
        try:
            assignment = config.assignment()
            for index in range(config.replicas):
                replica = await self._spawn_replica(index, assignment[index])
                self.replicas.append(replica)
            self._write_map()
            self._started.set()
            await self._health_loop()
        finally:
            await self._shutdown()

    def _serve_argv(self, index: int, owned: List[int]) -> List[str]:
        config = self.config
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "--mu",
            str(config.mu),
            "--lam",
            str(config.lam),
            "--origin",
            str(config.origin),
            "serve",
            "--host",
            config.host,
            "--journal-dir",
            config.journal_dir,
            "--shards",
            str(config.shards),
            "--owned-shards",
            ",".join(map(str, owned)),
            "--meta-name",
            f"server-{index}.json",
            "-m",
            str(config.num_servers),
            "--queue-depth",
            str(config.queue_depth),
            "--degrade-watermark",
            str(config.degrade_watermark),
            "--deadline-ms",
            str(config.deadline_ms),
        ]
        if config.dedupe_window is not None:
            argv += ["--dedupe-window", str(config.dedupe_window)]
        if not config.sync:
            argv.append("--no-sync")
        return argv

    async def _spawn_replica(self, index: int, owned: List[int]) -> Replica:
        config = self.config
        meta = Path(config.journal_dir) / f"server-{index}.json"
        meta.unlink(missing_ok=True)
        proc = subprocess.Popen(
            self._serve_argv(index, owned),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + config.spawn_timeout
        while True:
            if proc.poll() is not None:
                raise ClusterError(
                    f"replica {index} exited during startup "
                    f"(rc {proc.returncode})"
                )
            if meta.exists():
                try:
                    info = json.loads(meta.read_text())
                    break
                except (json.JSONDecodeError, KeyError):
                    pass  # mid-write
            if time.monotonic() > deadline:
                proc.kill()
                raise ClusterError(f"replica {index} did not bind in time")
            await asyncio.sleep(0.02)
        proxy = None
        if config.proxy_plan is not None:
            proxy = ChaosProxy(
                info["host"], info["port"],
                plan=config.proxy_plan, host=config.host,
            )
            await proxy.start()
        return Replica(
            index=index,
            proc=proc,
            host=info["host"],
            port=info["port"],
            proxy=proxy,
            owned=list(owned),
        )

    def _write_map(self) -> None:
        """Publish shard -> advertised-address routing, atomically."""
        self.epoch += 1
        shards = {}
        for replica in self.replicas:
            if replica.state != "live":
                continue
            host, port = replica.advertised
            for shard in replica.owned:
                shards[str(shard)] = {"host": host, "port": port}
        blob = json.dumps(
            {
                "epoch": self.epoch,
                "num_shards": self.config.shards,
                "shards": shards,
            },
            indent=0,
        )
        tmp = self.config.map_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.config.map_path)

    async def _health_loop(self) -> None:
        assert self._stop_event is not None
        while not self._stop_event.is_set():
            try:
                await asyncio.wait_for(
                    self._stop_event.wait(), timeout=self.config.health_interval
                )
                return
            except asyncio.TimeoutError:
                pass
            for replica in list(self.replicas):
                if replica.state != "live" or replica.index in self._failing:
                    continue
                if replica.proc.poll() is not None:
                    await self._failover(replica)
                    continue
                if await self._probe(replica):
                    replica.health_fails = 0
                else:
                    replica.health_fails += 1
                    if replica.health_fails >= self.config.health_failures:
                        await self._failover(replica)

    async def _probe(self, replica: Replica) -> bool:
        host, port = replica.advertised
        client = HttpClient(
            host, port,
            connect_timeout=self.config.health_timeout,
            read_timeout=self.config.health_timeout,
        )
        try:
            status, _payload, _ = await client.request("GET", "/readyz")
            return status == 200
        except (
            ConnectionError,
            OSError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
        ):
            return False
        finally:
            await client.close()

    async def _kill_replica(self, index: int, failover: bool) -> List[int]:
        replica = self.replicas[index]
        if replica.state != "live":
            return []
        if replica.proc.poll() is None:
            replica.proc.send_signal(signal.SIGKILL)
        if failover:
            return await self._failover(replica)
        return []

    async def _set_proxy(self, index: int, attr: str, on: bool) -> None:
        replica = self.replicas[index]
        if replica.proxy is None:
            raise ClusterError(
                f"replica {index} has no chaos proxy (set proxy_plan)"
            )
        if attr == "partition":
            replica.proxy.set_partition(on)
        else:
            replica.proxy.blackhole = on

    async def _failover(self, replica: Replica) -> List[int]:
        """Fence ``replica`` and re-lease its shards to survivors."""
        if replica.state != "live" or replica.index in self._failing:
            return []
        self._failing.add(replica.index)
        t0 = time.monotonic()
        try:
            # Fencing: the owner must be dead before anyone resumes its
            # journals — SIGKILL is idempotent on an exited process.
            if replica.proc.poll() is None:
                replica.proc.send_signal(signal.SIGKILL)
            await asyncio.get_running_loop().run_in_executor(
                None, replica.proc.wait
            )
            replica.state = "dead"
            if replica.proxy is not None:
                await replica.proxy.stop()
            survivors = [r for r in self.replicas if r.state == "live"]
            if not survivors:
                raise ClusterError(
                    f"replica {replica.index} died with no survivors for "
                    f"shards {replica.owned}"
                )
            moved: List[int] = []
            for i, shard in enumerate(sorted(replica.owned)):
                target = survivors[i % len(survivors)]
                await self._acquire(target, shard)
                target.owned.append(shard)
                moved.append(shard)
            replica.owned = []
            self._write_map()
            self.failover_log.append(
                {
                    "replica": replica.index,
                    "shards": moved,
                    "ready_s": time.monotonic() - t0,
                    "epoch": self.epoch,
                }
            )
            return moved
        finally:
            self._failing.discard(replica.index)

    async def _acquire(self, target: Replica, shard: int) -> None:
        host, port = target.direct
        client = HttpClient(
            host, port, connect_timeout=5.0, read_timeout=30.0
        )
        try:
            status, payload, _ = await client.request(
                "POST", "/admin/acquire", {"shard": shard}
            )
        finally:
            await client.close()
        if status != 200:
            raise ClusterError(
                f"replica {target.index} refused shard {shard}: "
                f"{status} {payload}"
            )

    async def _shutdown(self) -> None:
        for replica in self.replicas:
            if replica.proxy is not None:
                await replica.proxy.stop()
            if replica.proc.poll() is None:
                replica.proc.send_signal(signal.SIGTERM)
        loop = asyncio.get_running_loop()
        for replica in self.replicas:
            if replica.proc.poll() is None:
                try:
                    await asyncio.wait_for(
                        loop.run_in_executor(None, replica.proc.wait),
                        timeout=30,
                    )
                except asyncio.TimeoutError:
                    replica.proc.kill()
                    await loop.run_in_executor(None, replica.proc.wait)


def run_cluster(config: ClusterConfig) -> int:
    """Blocking CLI entry: supervise until SIGTERM/SIGINT, then drain."""
    rs = ReplicaSet(config)
    rs.start()
    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_args: stop.set())
    owners = {
        r.index: ",".join(map(str, sorted(r.owned))) for r in rs.replicas
    }
    print(
        f"cluster of {config.replicas} replicas serving {config.shards} "
        f"shards (map {rs.map_path}):",
        flush=True,
    )
    for replica in rs.replicas:
        host, port = replica.advertised
        proxied = " via chaos proxy" if replica.proxy is not None else ""
        print(
            f"  replica {replica.index}: http://{host}:{port}{proxied} "
            f"shards [{owners[replica.index]}]",
            flush=True,
        )
    stop.wait()
    rs.stop()
    print(f"cluster stopped (epoch {rs.epoch}, "
          f"{len(rs.failover_log)} failovers)", flush=True)
    return 0
