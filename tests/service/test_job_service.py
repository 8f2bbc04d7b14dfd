"""Tests for the sweep job service: submit, poll, results, cached re-submit."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.service import JobManager, ServiceClient, ServiceError, make_server
from repro.sweeps import SweepRunner, SweepSpec, run_sweep, strip_timing

#: A tiny grid: 8 runs, sub-second even serially.
SMALL_SPEC = SweepSpec(
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
def service(tmp_path):
    """A live in-process service on an ephemeral port, plus its client."""
    manager = JobManager(tmp_path / "store.sqlite", tmp_path / "jobs")
    server = make_server(manager, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    manager.start()
    host, port = server.server_address[:2]
    try:
        yield ServiceClient(host, port)
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown()
        thread.join(timeout=30)


class TestJobLifecycle:
    def test_submit_poll_results(self, service):
        submitted = service.submit(SMALL_SPEC)
        assert submitted["total"] == SMALL_SPEC.size()
        job_id = submitted["job_id"]

        status = service.wait(job_id, timeout_s=120)
        assert status["state"] == "done"
        assert status["done"] == SMALL_SPEC.size()
        assert status["executed"] == SMALL_SPEC.size()
        assert status["store_hits"] == 0
        assert status["eta_s"] == 0.0
        assert status["cost_done"] == status["cost_total"] > 0
        assert (status["workers"], status["backend"]) == (1, "serial")

        results = service.results(job_id, include_rows=True)
        assert results["rows_added"] == SMALL_SPEC.size()
        assert [row["run_key"] for row in results["rows"]] == [
            spec.run_key for spec in SMALL_SPEC.expand()
        ]
        assert "Sweep aggregate" in results["table"]

    def test_resubmit_is_all_cache_hits_and_bit_identical(self, service):
        first_id = service.submit(SMALL_SPEC)["job_id"]
        service.wait(first_id, timeout_s=120)

        second_id = service.submit(SMALL_SPEC)["job_id"]
        assert second_id != first_id
        status = service.wait(second_id, timeout_s=120)
        assert status["state"] == "done"
        assert status["executed"] == 0
        assert status["store_hits"] == SMALL_SPEC.size()
        assert status["sources"] == {"store": SMALL_SPEC.size()}

        first = service.results(first_id, include_rows=True)
        second = service.results(second_id, include_rows=True)
        # The served rows are *literally* the stored ones.
        assert second["rows"] == first["rows"]
        # The table body (everything below the provenance title) matches.
        assert (
            second["table"].splitlines()[1:] == first["table"].splitlines()[1:]
        )

    def test_submit_wire_format_round_trips(self, service):
        # Submit the dict form — exactly what a remote client POSTs.
        submitted = service.submit(SMALL_SPEC.to_dict())
        status = service.wait(submitted["job_id"], timeout_s=120)
        assert status["state"] == "done"

    def test_concurrent_clients_overlapping_grids(self, tmp_path, service):
        other = SweepSpec(
            algorithms=("kknps",),
            schedulers=("ssync", "k-async"),
            workloads=("line",),
            n_robots=(5,),
            seeds=(1, 2),  # overlaps SMALL_SPEC on seed 1
            scheduler_k=2,
            epsilon=0.08,
            max_activations=120,
        )
        a = service.submit(SMALL_SPEC)["job_id"]
        b = service.submit(other)["job_id"]
        status_a = service.wait(a, timeout_s=120)
        status_b = service.wait(b, timeout_s=120)
        assert status_a["state"] == status_b["state"] == "done"
        # Between the two jobs, the overlap executed exactly once.
        total_executed = status_a["executed"] + status_b["executed"]
        distinct = {
            spec.run_key for spec in SMALL_SPEC.expand() + other.expand()
        }
        assert total_executed == len(distinct)

    def test_health_and_job_listing(self, service):
        health = service.health()
        assert health["status"] == "ok"
        job_id = service.submit(SMALL_SPEC)["job_id"]
        service.wait(job_id, timeout_s=120)
        listed = service.jobs()["jobs"]
        assert [job["job_id"] for job in listed] == [job_id]


class TestMultiWorkerJobs:
    def test_default_backend_job_matches_serial_and_reaps_workers(self, tmp_path):
        """A 2-worker job with no backend named runs on work-stealing,
        forked from the manager's executor thread: serial rows, no
        child process left behind."""
        with JobManager(
            tmp_path / "store.sqlite", tmp_path / "jobs", workers=2
        ) as manager:
            job_id = manager.submit(SMALL_SPEC)
            deadline = time.monotonic() + 120
            while manager.status(job_id)["state"] in ("queued", "running"):
                assert time.monotonic() < deadline, manager.status(job_id)
                time.sleep(0.05)
            status = manager.status(job_id)
            rows = manager.results(job_id, include_rows=True)["rows"]
        assert status["state"] == "done", status
        assert status["executed"] == SMALL_SPEC.size()
        assert status["backend"] == "work-stealing"
        serial = run_sweep(SMALL_SPEC)
        assert [strip_timing(row) for row in rows] == [
            strip_timing(row) for row in serial.rows
        ]
        assert multiprocessing.active_children() == []


    @pytest.mark.parametrize(
        "workers, options, expected",
        [
            (1, None, "serial"),
            (2, None, "work-stealing"),
            (1, {"workers": 2}, "work-stealing"),
            (2, {"backend": "socket"}, "socket"),
        ],
    )
    def test_status_names_the_backend_the_job_runs_on(
        self, tmp_path, workers, options, expected
    ):
        """The status reports the backend ``SweepRunner.resolve_backend``
        picks for the job's workers and option, not the option itself;
        the manager is never started, so the job stays queued."""
        manager = JobManager(tmp_path / "store.sqlite", tmp_path / "jobs", workers=workers)
        status = manager.status(manager.submit(SMALL_SPEC, options=options))
        assert status["state"] == "queued"
        assert status["backend"] == expected
        runner = SweepRunner(
            SMALL_SPEC,
            workers=status["workers"],
            backend=(options or {}).get("backend"),
        )
        assert runner.resolve_backend().name == expected


class TestErrorPaths:
    def test_unknown_job_id_is_404(self, service):
        with pytest.raises(ServiceError, match="404") as excinfo:
            service.status("job-9999-deadbeef")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError, match="404"):
            service.results("job-9999-deadbeef")

    def test_invalid_spec_is_400(self, service):
        with pytest.raises(ServiceError, match="400") as excinfo:
            service.submit({"algorithms": ["no-such-algorithm"]})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError, match="400"):
            service.submit({"not_an_axis": [1]})

    def test_unknown_job_option_is_400(self, service):
        with pytest.raises(ServiceError, match="unknown job options"):
            service.submit(SMALL_SPEC, options={"wrokers": 2})

    def test_chunk_size_is_not_a_job_option(self, service):
        with pytest.raises(ServiceError, match="unknown job options") as excinfo:
            service.submit(SMALL_SPEC, options={"workers": 2, "chunk_size": 4})
        assert excinfo.value.status == 400

    def test_unreachable_service_raises(self):
        client = ServiceClient("127.0.0.1", 1, timeout_s=2.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()

    def test_failed_job_reports_its_error(self, tmp_path):
        manager = JobManager(tmp_path / "store.sqlite", tmp_path / "jobs")
        with manager:
            job_id = manager.submit(
                SMALL_SPEC, options={"backend": "carrier-pigeon"}
            )
            deadline_status = None
            import time

            for _ in range(200):
                deadline_status = manager.status(job_id)
                if deadline_status["state"] == "failed":
                    break
                time.sleep(0.05)
            assert deadline_status["state"] == "failed"
            assert "unknown backend" in deadline_status["error"]


class TestSweepSpecWireFormat:
    def test_round_trip_preserves_the_grid(self):
        data = SMALL_SPEC.to_dict()
        assert data["algorithms"] == ["kknps"]
        assert SweepSpec.from_dict(data) == SMALL_SPEC

    def test_unknown_keys_rejected(self):
        data = SMALL_SPEC.to_dict()
        data["frobnication"] = True
        with pytest.raises(TypeError):
            SweepSpec.from_dict(data)
