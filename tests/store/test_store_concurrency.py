"""Concurrency battery: overlapping sweeps execute each key exactly once.

Two :class:`SweepRunner`s with overlapping grids share one store; the
claims table must partition the overlap so every run key is computed by
exactly one of them — the other serves it as a peer row — on the serial
backend and on a multi-process work-stealing pool alike.  Opening a store
while a peer connection holds its write lock waits instead of failing.
"""

from __future__ import annotations

import functools
import os
import sqlite3
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.store import ResultsStore
from repro.sweeps import RunSpec, SweepRunner, make_backend
from repro.sweeps.runner import execute_run

RUNS = [
    RunSpec(
        algorithm="kknps", scheduler="ssync", workload="line", n_robots=5,
        seed=seed, epsilon=0.1, max_activations=80,
    )
    for seed in range(12)
]


def _counting_run_fn(log_path: str, spec: RunSpec) -> dict:
    """Execute a run, logging its key (append is atomic for short lines)."""
    time.sleep(0.03)  # widen the overlap window so claims actually contend
    line = (spec.run_key + "\n").encode("utf-8")
    fd = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)
    return execute_run(spec)


def _executions(log_path: Path) -> Counter:
    if not log_path.exists():
        return Counter()
    return Counter(log_path.read_text().splitlines())


class TestOverlappingRunners:
    @pytest.mark.parametrize("backend_name,workers", [
        ("serial", 1),
        ("work-stealing", 2),
    ])
    def test_each_key_executes_exactly_once_between_two_runners(
        self, tmp_path, backend_name, workers
    ):
        store = tmp_path / "results.sqlite"
        log = tmp_path / "executions.log"
        run_fn = functools.partial(_counting_run_fn, str(log))
        # Two runners whose grids overlap on RUNS[4:8].
        grids = (RUNS[:8], RUNS[4:])
        results = [None, None]
        errors = []

        def drive(index: int) -> None:
            try:
                runner = SweepRunner(
                    grids[index],
                    backend=make_backend(
                        backend_name, workers=workers, run_fn=run_fn
                    ),
                    workers=workers,
                    store=store,
                    store_poll_s=0.01,
                )
                results[index] = runner.run()
            except BaseException as error:  # surfaced below, not swallowed
                errors.append(error)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert all(result is not None for result in results)

        all_keys = {spec.run_key for spec in RUNS}
        counts = _executions(log)
        # Exactly-once: every key ran, and none ran twice.
        assert set(counts) == all_keys
        assert all(count == 1 for count in counts.values()), counts
        assert results[0].executed + results[1].executed == len(all_keys)

        # Both runners still return their full row set, in order.
        for result, grid in zip(results, grids):
            assert [row["run_key"] for row in result.rows] == [
                spec.run_key for spec in grid
            ]
            assert result.executed + result.store_hits == len(grid)

        # The overlap rows are literally shared: same stored payload.
        overlap = [spec.run_key for spec in RUNS[4:8]]
        for key in overlap:
            assert results[0].row_for(key) == results[1].row_for(key)

    def test_sequential_runners_share_through_the_store(self, tmp_path):
        store = tmp_path / "results.sqlite"
        log = tmp_path / "executions.log"
        run_fn = functools.partial(_counting_run_fn, str(log))
        first = SweepRunner(
            RUNS[:8],
            backend=make_backend("serial", run_fn=run_fn),
            store=store,
        ).run()
        second = SweepRunner(
            RUNS[4:],
            backend=make_backend("serial", run_fn=run_fn),
            store=store,
        ).run()
        counts = _executions(log)
        assert all(count == 1 for count in counts.values()), counts
        assert first.executed == 8
        assert second.executed == 4
        assert second.store_hits == 4


class TestStoreOpen:
    def test_open_waits_out_a_writer_holding_the_reserved_lock(self, tmp_path):
        """Switching a fresh file into WAL needs the write lock; a peer
        connection holding it must delay the open, not fail it."""
        path = tmp_path / "results.sqlite"
        blocker = sqlite3.connect(
            str(path), isolation_level=None, check_same_thread=False
        )
        try:
            blocker.execute("BEGIN IMMEDIATE")
            release = threading.Timer(0.3, blocker.execute, args=("ROLLBACK",))
            release.start()
            try:
                started = time.monotonic()
                store = ResultsStore(path, busy_timeout_s=10.0)
                waited = time.monotonic() - started
                try:
                    assert store.stats()["rows"] == 0
                finally:
                    store.close()
            finally:
                release.join()
        finally:
            blocker.close()
        assert waited >= 0.2
        check = sqlite3.connect(str(path))
        try:
            assert check.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        finally:
            check.close()
