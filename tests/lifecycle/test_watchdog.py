"""Poisoned writer-lock recovery: a waiter releases the exclusive side
once the thread holding it has died, and never preempts a live one."""

import threading
import time

from repro.obs.metrics import MetricsRegistry
from repro.server.locks import ConcurrencyGuard, ReadWriteLock


class TestPoisonedLock:
    def _poison(self, lock: ReadWriteLock) -> None:
        """Acquire the write side on a thread that then dies."""

        def hold_and_die():
            assert lock.acquire_write()
            # die without releasing: the poisoned-writer scenario

        thread = threading.Thread(target=hold_and_die)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_recover_poisoned_lock(self):
        lock = ReadWriteLock()
        self._poison(lock)
        started = time.perf_counter()
        assert lock.acquire_write() is True  # the waiter recovers it
        assert time.perf_counter() - started < 1.0
        lock.release_write()

    def test_live_writer_is_never_preempted(self):
        lock = ReadWriteLock()
        holding, done = threading.Event(), threading.Event()

        def hold():
            assert lock.acquire_write()
            holding.set()
            done.wait(timeout=5.0)
            lock.release_write()

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert holding.wait(timeout=5.0)
            # more than one recovery slice: the live owner keeps it
            assert lock.acquire_write(timeout=0.25) is False
            assert lock.acquire_read(timeout=0.25) is False
            # a short timeout still returns on time
            started = time.perf_counter()
            assert lock.acquire_write(timeout=0.01) is False
            assert time.perf_counter() - started < 0.09
        finally:
            done.set()
            thread.join(timeout=5.0)
        assert lock.acquire_write(timeout=1.0) is True
        lock.release_write()

    def test_unheld_lock_needs_no_recovery(self):
        recoveries = []
        lock = ReadWriteLock(on_recover=lambda: recoveries.append(1))
        assert lock.acquire_write(timeout=0.01) is True
        lock.release_write()
        assert lock.acquire_read(timeout=0.01) is True
        lock.release_read()
        assert recoveries == []

    def test_recovery_is_counted_once_on_the_guard_registry(self):
        guard = ConcurrencyGuard(metrics=MetricsRegistry())
        self._poison(guard._lock)
        waiters = [threading.Thread(target=self._write_once,
                                    args=(guard,)) for _ in range(3)]
        for thread in waiters:
            thread.start()
        for thread in waiters:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in waiters)
        counters = guard.metrics.snapshot()["counters"]
        assert counters["server.lock.recovered"] == 1
        assert guard.version == 3  # the database is writable again

    @staticmethod
    def _write_once(guard):
        with guard.write():
            pass
