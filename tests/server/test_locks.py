"""ReadWriteLock and ConcurrencyGuard semantics."""

import threading
import time

import pytest

from repro.server.locks import ConcurrencyGuard, ReadWriteLock


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        assert lock.acquire_read()
        assert lock.acquire_read()
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_writer(self):
        lock = ReadWriteLock()
        assert lock.acquire_write()
        assert lock.acquire_write(timeout=0.01) is False
        lock.release_write()
        assert lock.acquire_write(timeout=0.01)
        lock.release_write()

    def test_writer_excludes_reader(self):
        lock = ReadWriteLock()
        lock.acquire_write()
        assert lock.acquire_read(timeout=0.01) is False
        lock.release_write()

    def test_reader_excludes_writer(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        assert lock.acquire_write(timeout=0.01) is False
        lock.release_read()
        assert lock.acquire_write(timeout=0.01)
        lock.release_write()

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: a queued writer bars later readers, so a
        steady query stream cannot starve DML."""
        lock = ReadWriteLock()
        lock.acquire_read()
        writer_done = threading.Event()

        def writer():
            lock.acquire_write()
            lock.release_write()
            writer_done.set()

        t = threading.Thread(target=writer)
        t.start()
        # let the writer reach its wait; a new reader must now block
        time.sleep(0.02)
        assert lock.acquire_read(timeout=0.02) is False
        lock.release_read()
        t.join(timeout=2.0)
        assert writer_done.is_set()
        # after the writer drains, readers flow again
        assert lock.acquire_read(timeout=0.5)
        lock.release_read()

    def test_write_context_manager_releases_on_error(self):
        lock = ReadWriteLock()
        with pytest.raises(RuntimeError):
            with lock.write():
                raise RuntimeError("boom")
        assert lock.acquire_write(timeout=0.01)
        lock.release_write()


class TestConcurrencyGuard:
    def test_version_advances_per_committed_write(self):
        guard = ConcurrencyGuard()
        assert guard.version == 0
        with guard.write():
            pass
        with guard.write():
            pass
        assert guard.version == 2

    def test_failed_write_does_not_advance_version(self):
        guard = ConcurrencyGuard()
        with pytest.raises(ValueError):
            with guard.write():
                raise ValueError("rolled back")
        assert guard.version == 0

    def test_exclusive_does_not_advance_version(self):
        guard = ConcurrencyGuard()
        with guard.exclusive():
            pass
        assert guard.version == 0

    def test_read_yields_snapshot_handle(self):
        guard = ConcurrencyGuard()
        with guard.write():
            pass
        with guard.read() as handle:
            assert handle.version == 1

    def test_readers_are_inside_the_guard_together(self):
        """Four readers meet at a barrier *inside* the read side: an
        exclusive lock would strand the first one there."""
        guard = ConcurrencyGuard()
        barrier = threading.Barrier(4)
        met = []

        def reader():
            with guard.read():
                barrier.wait(timeout=5.0)
                met.append(True)

        threads = [threading.Thread(target=reader) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert len(met) == 4

    def test_nested_reads_do_not_deadlock(self):
        """Re-entrancy: a query issued while the thread already holds
        the shared side must not deadlock on writer preference."""
        guard = ConcurrencyGuard()
        done = threading.Event()

        def writer():
            with guard.write():
                pass
            done.set()

        with guard.read():
            t = threading.Thread(target=writer)
            t.start()
            time.sleep(0.02)  # the writer is now waiting
            with guard.read() as handle:  # would deadlock if acquired
                assert handle.version == 0
        t = done.wait(timeout=2.0)
        assert t

    def test_read_inside_write_is_reentrant(self):
        guard = ConcurrencyGuard()
        with guard.write():
            with guard.read() as handle:
                assert handle.version == 0

    def test_write_inside_read_refused(self):
        guard = ConcurrencyGuard()
        with guard.read():
            with pytest.raises(RuntimeError):
                with guard.write():
                    pass

    def test_concurrent_writers_serialize(self):
        guard = ConcurrencyGuard()
        counter = {"value": 0, "max_inside": 0}
        inside = threading.Semaphore(0)

        def bump():
            for _ in range(50):
                with guard.write():
                    current = counter["value"]
                    counter["value"] = current + 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert counter["value"] == 200
        assert guard.version == 200
