"""Tests for the pluggable execution backends.

The contract under test: every backend produces bit-identical
deterministic rows (timing fields excluded) for the same specs, reports
worker health, and streams rows incrementally enough that a sweep killed
mid-run resumes losslessly from its partially-written JSONL.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.sweeps import (
    RunSpec,
    SweepRunner,
    SweepSpec,
    backend_names,
    load_completed_rows,
    make_backend,
    run_sweep,
)
from repro.sweeps.backends.work_stealing import (
    MAX_CHUNK,
    cost_sorted_chunks,
    dynamic_chunk_size,
)

#: The acceptance grid: >= 200 (algorithm, scheduler, workload, seed) runs.
ACCEPTANCE_SPEC = SweepSpec(
    algorithms=("kknps", "ando"),
    schedulers=("ssync", "k-async", "k-nesta"),
    workloads=("line", "blobs"),
    n_robots=(5, 7),
    seeds=tuple(range(9)),
    scheduler_k=2,
    epsilon=0.1,
    max_activations=120,
)

#: A small grid for the cheaper behavioural tests (12 runs).
SMALL_SPEC = SweepSpec(
    algorithms=("kknps",),
    schedulers=("ssync", "k-async"),
    workloads=("line", "blobs"),
    n_robots=(5,),
    seeds=(0, 1, 2),
    scheduler_k=2,
    epsilon=0.08,
    max_activations=150,
)

#: A mixed planar/3D run list — the skew the work-stealing backend targets.
MIXED_RUNS = [
    RunSpec(
        algorithm="kknps", scheduler="ssync", workload="line", n_robots=5,
        seed=seed, epsilon=0.1, max_activations=100,
    )
    for seed in range(4)
] + [
    RunSpec(
        algorithm="kknps3", scheduler="ssync3", workload="line3", n_robots=6,
        seed=seed, algorithm_params=(("k", 1),), scheduler_k=1,
        epsilon=0.1, max_activations=40,
    )
    for seed in range(2)
]


class TestRegistry:
    def test_three_backends_registered(self):
        assert backend_names() == ("serial", "work-stealing", "socket")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("carrier-pigeon")
        with pytest.raises(ValueError, match="unknown backend"):
            SweepRunner(SMALL_SPEC.expand()[:1], backend="carrier-pigeon")

    def test_default_backend_resolution(self):
        assert SweepRunner(SMALL_SPEC.expand()[:1]).resolve_backend().name == "serial"
        assert (
            SweepRunner(SMALL_SPEC.expand()[:1], workers=2).resolve_backend().name
            == "work-stealing"
        )


class TestCostModel:
    def test_cost_grows_with_work(self):
        small = RunSpec(algorithm="kknps", scheduler="ssync", workload="line",
                        n_robots=5, seed=0, max_activations=100)
        big_n = RunSpec(algorithm="kknps", scheduler="ssync", workload="line",
                        n_robots=50, seed=0, max_activations=100)
        long_run = RunSpec(algorithm="kknps", scheduler="ssync", workload="line",
                           n_robots=5, seed=0, max_activations=10000)
        assert big_n.cost_hint() > small.cost_hint()
        assert long_run.cost_hint() > small.cost_hint()

    def test_3d_costs_more_than_planar_at_same_size(self):
        planar = RunSpec(algorithm="kknps", scheduler="ssync", workload="line",
                         n_robots=8, seed=0, max_activations=500)
        spatial = RunSpec(algorithm="kknps3", scheduler="ssync3", workload="line3",
                          n_robots=8, seed=0, algorithm_params=(("k", 1),),
                          max_activations=500)
        assert spatial.cost_hint() > planar.cost_hint()

    def test_dynamic_chunk_size_shrinks_to_one(self):
        assert dynamic_chunk_size(1000, 4) == MAX_CHUNK
        assert dynamic_chunk_size(40, 4) == 2
        assert dynamic_chunk_size(3, 4) == 1
        assert dynamic_chunk_size(1, 4) == 1

    def test_cost_sorted_chunks_partition_specs_largest_first(self):
        """The shared chunking helper: every spec exactly once, LPT order,
        chunk sizes shrinking toward the tail."""
        specs = MIXED_RUNS + SMALL_SPEC.expand()
        chunks = cost_sorted_chunks(specs, workers=2)
        flat = [spec for chunk in chunks for spec in chunk]
        assert sorted(s.run_key for s in flat) == sorted(s.run_key for s in specs)
        heads = [chunk[0].cost_hint() for chunk in chunks]
        assert heads == sorted(heads, reverse=True)
        assert all(1 <= len(chunk) <= MAX_CHUNK for chunk in chunks)
        assert len(chunks[-1]) <= len(chunks[0])

    def test_spec_dict_round_trip_through_json(self):
        for spec in MIXED_RUNS:
            payload = json.loads(json.dumps(spec.to_dict()))
            assert RunSpec.from_dict(payload) == spec


class TestWorkStealingBackend:
    def test_acceptance_equals_serial_on_216_runs(self, tmp_path):
        """The 216-run acceptance grid on the multi-worker default: it
        completes, persists, and equals the serial fallback bit for bit."""
        assert ACCEPTANCE_SPEC.size() == 216
        jsonl = tmp_path / "ws.jsonl"
        stealing = SweepRunner(ACCEPTANCE_SPEC, workers=2, jsonl_path=jsonl).run()
        assert len(stealing) == 216
        assert stealing.executed == 216
        serial = SweepRunner(ACCEPTANCE_SPEC, workers=1).run()
        assert stealing.deterministic_rows() == serial.deterministic_rows()
        # The persisted JSONL holds every row, and the aggregate table renders.
        assert len(load_completed_rows(jsonl)) == 216
        assert "216 runs" in stealing.to_table().render()
        # Both workers did real work, and the health report accounts for
        # every run.
        stats = stealing.stats
        assert stats.backend == "work-stealing"
        assert stats.runs == 216
        assert sum(w.runs for w in stats.worker_health) == 216
        assert all(w.runs > 0 for w in stats.worker_health)

    def test_rows_returned_in_expansion_order(self):
        result = run_sweep(SMALL_SPEC, workers=2, backend="work-stealing")
        assert [row["run_key"] for row in result.rows] == [
            spec.run_key for spec in SMALL_SPEC.expand()
        ]

    def test_mixed_dimension_runs_execute(self):
        serial = run_sweep(MIXED_RUNS)
        stealing = run_sweep(MIXED_RUNS, workers=2, backend="work-stealing")
        socketed = run_sweep(MIXED_RUNS, workers=2, backend="socket")
        assert stealing.deterministic_rows() == serial.deterministic_rows()
        assert socketed.deterministic_rows() == serial.deterministic_rows()
        assert {row["dimension"] for row in stealing.rows} == {2, 3}

    def test_worker_failure_surfaces(self):
        bad = RunSpec(algorithm="kknps", scheduler="ssync", workload="line",
                      n_robots=5, seed=0, max_activations=50)

        backend = make_backend("work-stealing", workers=2, run_fn=_explode)
        with pytest.raises(RuntimeError, match="worker .* failed"):
            list(backend.execute([bad]))


def _explode(spec):
    raise ValueError("boom")


class TestKillResume:
    def test_mid_sweep_kill_resumes_losslessly(self, tmp_path):
        """A sweep killed after 5 of 12 rows resumes from the JSONL exactly."""
        jsonl = tmp_path / "killed.jsonl"

        class Killed(RuntimeError):
            pass

        def kill_after_five(tick):
            if tick.done == 5:
                raise Killed()

        with pytest.raises(Killed):
            run_sweep(
                SMALL_SPEC,
                workers=2,
                backend="work-stealing",
                jsonl_path=jsonl,
                stream_progress=kill_after_five,
            )
        survivors = load_completed_rows(jsonl)
        assert len(survivors) == 5

        resumed = run_sweep(SMALL_SPEC, jsonl_path=jsonl)
        assert (resumed.executed, resumed.resumed) == (7, 5)
        reference = run_sweep(SMALL_SPEC)
        assert resumed.deterministic_rows() == reference.deterministic_rows()

    def test_truncated_trailing_line_is_repaired(self, tmp_path):
        """A crash mid-append leaves a partial line; loading rewrites the file."""
        jsonl = tmp_path / "rows.jsonl"
        run_sweep(SMALL_SPEC.expand()[:3], jsonl_path=jsonl)
        clean_size = jsonl.stat().st_size
        with jsonl.open("a", encoding="utf-8") as handle:
            handle.write('{"run_key": "truncated-by-a-cr')
        with pytest.warns(UserWarning, match="truncated trailing JSONL line"):
            survivors = load_completed_rows(jsonl)
        assert len(survivors) == 3
        # The partial line is gone from disk: appends start on a clean
        # boundary and a re-load parses every byte.
        assert jsonl.stat().st_size == clean_size
        assert jsonl.read_bytes().endswith(b"\n")
        resumed = run_sweep(SMALL_SPEC.expand()[:4], jsonl_path=jsonl)
        assert (resumed.executed, resumed.resumed) == (1, 3)
        assert len(load_completed_rows(jsonl)) == 4

    def test_garbage_middle_line_warns_and_skips(self, tmp_path):
        jsonl = tmp_path / "rows.jsonl"
        run_sweep(SMALL_SPEC.expand()[:2], jsonl_path=jsonl)
        lines = jsonl.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "not json at all")
        jsonl.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="skipping JSONL line"):
            survivors = load_completed_rows(jsonl)
        assert len(survivors) == 2

    def test_parseable_unterminated_line_keeps_row_and_gets_newline(self, tmp_path):
        """A crash between the row bytes and the newline: the row counts as
        completed, and the loader terminates the file so the next append
        cannot merge two rows onto one line."""
        jsonl = tmp_path / "rows.jsonl"
        run_sweep(SMALL_SPEC.expand()[:3], jsonl_path=jsonl)
        with jsonl.open("r+b") as handle:
            handle.seek(-1, 2)
            assert handle.read(1) == b"\n"
            handle.seek(-1, 2)
            handle.truncate()  # chop only the final newline
        with pytest.warns(UserWarning, match="unterminated final JSONL line"):
            survivors = load_completed_rows(jsonl)
        assert len(survivors) == 3
        assert jsonl.read_bytes().endswith(b"\n")
        resumed = run_sweep(SMALL_SPEC.expand()[:4], jsonl_path=jsonl)
        assert (resumed.executed, resumed.resumed) == (1, 3)
        assert len(load_completed_rows(jsonl)) == 4

    def test_complete_foreign_trailing_line_is_preserved(self, tmp_path):
        """A newline-terminated line the runner does not own is skipped, not
        destroyed — only an unterminated line counts as a crashed append."""
        jsonl = tmp_path / "rows.jsonl"
        run_sweep(SMALL_SPEC.expand()[:2], jsonl_path=jsonl)
        with jsonl.open("a", encoding="utf-8") as handle:
            handle.write('{"note": "not a sweep row"}\n')
        size = jsonl.stat().st_size
        with pytest.warns(UserWarning, match="skipping JSONL line"):
            survivors = load_completed_rows(jsonl)
        assert len(survivors) == 2
        assert jsonl.stat().st_size == size


def _sleepy_run_fn(spec):
    """A picklable run function that outlasts the test's heartbeat interval."""
    import time

    time.sleep(0.2)
    return {"run_key": spec.run_key, "slept": True}


class TestSocketBackend:
    def test_loopback_equals_serial(self):
        """2 workers over localhost TCP reproduce the serial rows."""
        runs = SMALL_SPEC.expand()[:8]
        serial = run_sweep(runs)
        socketed = run_sweep(runs, workers=2, backend="socket")
        assert socketed.deterministic_rows() == serial.deterministic_rows()
        stats = socketed.stats
        assert stats.backend == "socket"
        assert stats.runs == 8
        assert sum(w.runs for w in stats.worker_health) == 8

    def test_heartbeats_surface_last_beat_age(self):
        """Workers beat periodically; stats carry a finite last-beat age."""
        from repro.sweeps.backends.socket_backend import SocketBackend

        # The injected run function sleeps well past the heartbeat interval,
        # so every worker provably emits periodic beats beyond its hello —
        # no dependence on how fast real simulations happen to run.
        backend = SocketBackend(
            workers=2, heartbeat_interval=0.05, run_fn=_sleepy_run_fn
        )
        runs = SMALL_SPEC.expand()[:4]
        rows = dict(backend.execute(runs))
        assert len(rows) == 4
        stats = backend.stats()
        assert stats.worker_health
        for health in stats.worker_health:
            assert health.heartbeats >= 1  # the hello is the first beat
            assert health.last_heartbeat_age_s is not None
            assert 0.0 <= health.last_heartbeat_age_s < 60.0
        assert sum(w.heartbeats for w in stats.worker_health) > len(
            stats.worker_health
        )
        assert "hb" in stats.summary()

    def test_heartbeat_interval_validated(self):
        from repro.sweeps.backends.socket_backend import SocketBackend

        with pytest.raises(ValueError, match="heartbeat"):
            SocketBackend(workers=1, heartbeat_interval=0.0)

    def test_frame_round_trip(self):
        import socket as socket_module
        import threading

        from repro.sweeps.backends.socket_backend import recv_frame, send_frame

        server, client = socket_module.socketpair()
        message = {"type": "task", "specs": [MIXED_RUNS[0].to_dict()]}
        thread = threading.Thread(target=send_frame, args=(server, message))
        thread.start()
        received = recv_frame(client)
        thread.join()
        server.close()
        client.close()
        assert received == json.loads(json.dumps(message))
        assert RunSpec.from_dict(received["specs"][0]) == MIXED_RUNS[0]


class TestStreamedProgress:
    def test_eta_reaches_zero_and_costs_accumulate(self):
        ticks = []
        run_sweep(
            SMALL_SPEC.expand()[:3],
            stream_progress=ticks.append,
        )
        assert [tick.done for tick in ticks] == [1, 2, 3]
        assert ticks[-1].eta_s == 0.0
        assert ticks[-1].cost_done == pytest.approx(ticks[-1].cost_total)
        assert all(tick.aggregate["rows"] == tick.done for tick in ticks)

    def test_legacy_progress_still_fires(self):
        calls = []
        run_sweep(
            SMALL_SPEC.expand()[:3],
            workers=2,
            backend="work-stealing",
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 3), (2, 3), (3, 3)]


class TestNoChildProcessesLeft:
    """Every backend reaps the processes it starts, drained or abandoned."""

    @pytest.mark.parametrize("name", backend_names())
    def test_drained_sweep_leaves_no_children(self, name):
        result = run_sweep(SMALL_SPEC.expand()[:4], workers=2, backend=name)
        assert len(result) == 4
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("name", backend_names())
    def test_rows_closed_after_the_first_leave_no_children(self, name):
        rows = make_backend(name, workers=2).execute(SMALL_SPEC.expand()[:6])
        key, row = next(rows)
        assert row["run_key"] == key
        rows.close()
        assert multiprocessing.active_children() == []
