"""Every sqlite connection the store layer opens is closed when its owner is done.

Python 3.11 drops an unclosed sqlite connection without a
``ResourceWarning``, so the suite's warnings-as-errors setting cannot
catch the leak; these tests record each connection as it is opened and
check that it refuses work afterwards.
"""

from __future__ import annotations

import sqlite3
import time

import pytest

import repro.store.results_store as results_store
from repro.service import JobManager
from repro.store import ResultsStore
from repro.sweeps import SweepRunner, SweepSpec

#: Four runs, sub-second serially.
SPEC = SweepSpec(
    algorithms=("kknps",),
    schedulers=("ssync", "k-async"),
    workloads=("line",),
    n_robots=(5,),
    seeds=(0, 1),
    scheduler_k=2,
    epsilon=0.08,
    max_activations=120,
)


@pytest.fixture
def opened(monkeypatch):
    """The connections the store layer opens, in order."""
    connections = []
    connect = results_store.sqlite3.connect

    def recording_connect(*args, **kwargs):
        connection = connect(*args, **kwargs)
        connections.append(connection)
        return connection

    monkeypatch.setattr(results_store.sqlite3, "connect", recording_connect)
    return connections


def _assert_all_closed(connections):
    assert connections
    for connection in connections:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            connection.execute("SELECT 1")


def _finish(manager: JobManager, job_id: str) -> dict:
    deadline = time.monotonic() + 120
    while manager.status(job_id)["state"] in ("queued", "running"):
        assert time.monotonic() < deadline, manager.status(job_id)
        time.sleep(0.05)
    return manager.status(job_id)


def test_sweep_runner_closes_the_store_it_opens(tmp_path, opened):
    result = SweepRunner(SPEC.expand(), store=tmp_path / "store.sqlite").run()
    assert result.executed == SPEC.size()
    _assert_all_closed(opened)


def test_job_manager_closes_every_store_handle(tmp_path, opened):
    with JobManager(tmp_path / "store.sqlite", tmp_path / "jobs") as manager:
        first = _finish(manager, manager.submit(SPEC))
        again = _finish(manager, manager.submit(SPEC))
    assert first["state"] == "done" and first["executed"] == SPEC.size()
    assert again["state"] == "done" and again["store_hits"] == SPEC.size()
    _assert_all_closed(opened)


def test_results_store_block_closes_its_connection(tmp_path, opened):
    with ResultsStore(tmp_path / "store.sqlite") as store:
        store.put({"run_key": "k0", "value": 1})
        assert store.get("k0")["value"] == 1
    assert len(opened) == 1
    _assert_all_closed(opened)
