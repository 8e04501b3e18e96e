"""Retry-policy, circuit-breaker, and hardened-close tests for ServicePool.

Complements ``test_fabric.py`` (identity/lifecycle/basic crash
recovery) with the robustness layer: configurable retry/backoff around
worker crashes, the per-pool circuit breaker, and the
idempotent/race-safe bounded close that can never hang interpreter
shutdown on a wedged worker.
"""

import os
import signal
import threading
import time

import pytest

from repro import ServicePool, multi_item_workload, solve_offline_multi
from repro.service.fabric import CircuitOpenError, RetryPolicy, active_segments


def small_service(items=4, per_item=20, m=5, seed=3):
    return multi_item_workload(items, items * per_item, m, rng=seed)


def kill_workers(pool) -> None:
    for pid in list(pool._executor._processes):
        os.kill(pid, signal.SIGKILL)


def prime_executor(pool) -> None:
    """Spawn workers without going through the breaker-tracked call path."""
    executor = pool._ensure_executor()
    executor.submit(int).result()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="breaker_threshold"):
            RetryPolicy(breaker_threshold=0)
        with pytest.raises(ValueError, match="breaker_cooldown"):
            RetryPolicy(breaker_cooldown=-1.0)

    def test_delay_is_jittered_capped_exponential(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.5)
        for attempt in range(8):
            cap = min(0.5, 0.1 * 2**attempt)
            for _ in range(16):
                d = policy.delay(attempt)
                assert 0.5 * cap <= d <= cap
        # No jitter: the delay is exactly the capped exponential.
        exact = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.0)
        assert exact.delay(0) == pytest.approx(0.1)
        assert exact.delay(2) == pytest.approx(0.4)
        assert exact.delay(10) == pytest.approx(0.5)


class TestRetryRecovery:
    def test_kill_recovers_with_configured_policy(self):
        svc = small_service()
        serial = solve_offline_multi(svc)
        policy = RetryPolicy(retries=2, base_delay=0.01, jitter=0.0)
        with ServicePool(2, retry=policy) as pool:
            pool.solve(svc)
            kill_workers(pool)
            par = pool.solve(svc)
        assert par.total_cost == serial.total_cost
        assert list(par.per_item) == list(serial.per_item)

    def test_zero_retries_fails_the_call_but_pool_survives(self):
        svc = small_service()
        serial = solve_offline_multi(svc)
        policy = RetryPolicy(retries=0, breaker_threshold=5)
        with ServicePool(2, retry=policy) as pool:
            pool.solve(svc)
            kill_workers(pool)
            with pytest.raises(RuntimeError, match="service pool broke"):
                pool.solve(svc)
            # The next call respawns a fresh executor and succeeds.
            assert pool.solve(svc).total_cost == serial.total_cost


class TestCircuitBreaker:
    def test_consecutive_failures_open_the_breaker(self):
        svc = small_service(items=2, per_item=8)
        policy = RetryPolicy(
            retries=0, breaker_threshold=2, breaker_cooldown=60.0
        )
        with ServicePool(1, retry=policy) as pool:
            for _ in range(2):
                prime_executor(pool)
                kill_workers(pool)
                with pytest.raises(RuntimeError, match="service pool broke"):
                    pool.solve(svc)
            # Threshold reached: calls now shed instead of respawning.
            with pytest.raises(CircuitOpenError, match="circuit open"):
                pool.solve(svc)

    def test_half_open_probe_closes_after_cooldown(self):
        svc = small_service(items=2, per_item=8)
        serial = solve_offline_multi(svc)
        policy = RetryPolicy(
            retries=0, breaker_threshold=1, breaker_cooldown=0.2
        )
        with ServicePool(1, retry=policy) as pool:
            prime_executor(pool)
            kill_workers(pool)
            with pytest.raises(RuntimeError, match="service pool broke"):
                pool.solve(svc)
            with pytest.raises(CircuitOpenError):
                pool.solve(svc)
            time.sleep(0.25)
            # Cooldown elapsed: the half-open probe runs and closes it.
            assert pool.solve(svc).total_cost == serial.total_cost
            assert pool._breaker.state == "closed"


class TestHardenedClose:
    def test_concurrent_close_race(self):
        svc = small_service(items=2, per_item=8)
        pool = ServicePool(2)
        pool.solve(svc)
        assert active_segments() != ()
        errors = []

        def closer():
            try:
                pool.close()
            except Exception as exc:  # noqa: BLE001 - the test's whole point
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert pool.closed
        assert active_segments() == ()

    def test_close_then_finalizer_then_close(self):
        # Explicit close + the weakref.finalize/atexit leg + another
        # explicit close: every ordering is a no-op after the first.
        svc = small_service(items=2, per_item=8)
        pool = ServicePool(1)
        pool.solve(svc)
        pool.close()
        pool._finalizer()  # what GC/interpreter-exit would run
        pool.close()
        assert pool.closed
        assert active_segments() == ()

    def test_gc_without_close_releases_everything(self):
        import gc

        svc = small_service(items=2, per_item=8)
        pool = ServicePool(1)
        pool.solve(svc)
        del pool
        gc.collect()
        assert active_segments() == ()

    def test_bounded_join_with_wedged_worker(self):
        # A worker stuck in a long sleep must not stall close(): the
        # bounded join expires, the worker is terminated, and close
        # returns promptly — with the worker gone, not left running.
        pool = ServicePool(1, join_timeout=0.5)
        executor = pool._ensure_executor()
        executor.submit(int).result()  # spawn the worker
        workers = list(executor._processes.values())
        executor.submit(time.sleep, 60)  # wedge it
        started = time.monotonic()
        pool.close()
        elapsed = time.monotonic() - started
        assert pool.closed
        assert elapsed < 10.0, f"close took {elapsed:.1f}s against a 0.5s join"
        assert workers and not any(proc.is_alive() for proc in workers)
