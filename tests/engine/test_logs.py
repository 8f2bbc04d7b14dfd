"""Tests for the columnar run logs: RecordLog and the run-length SampleLog."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.engine.logs import RecordLog, SampleLog
from repro.engine.metrics import MetricsCollector, MetricsSample
from repro.geometry import Point
from repro.model.types import Activation, ActivationRecord, RoundBatch


def _sample(time, diameter, processed):
    return MetricsSample(
        time=time,
        hull_diameter=diameter,
        hull_perimeter=3.0 * diameter,
        hull_radius=diameter / 2.0,
        min_pairwise_distance=0.1,
        broken_edge_count=0,
        activations_processed=processed,
    )


def _log_and_list():
    """A log with single samples and replicated runs, plus its plain-list twin."""
    log = SampleLog()
    expected = []
    log.append(_sample(0.0, 4.0, 0))
    expected.append(_sample(0.0, 4.0, 0))
    log.append(_sample(1.0, 3.0, 5))
    log.repeat_last(3, 5)
    expected += [_sample(1.0, 3.0, p) for p in (5, 10, 15, 20)]
    log.append(_sample(2.0, 3.5, 25))
    expected.append(_sample(2.0, 3.5, 25))
    log.append(_sample(3.0, 2.0, 30))
    log.repeat_last(1, 5)
    expected += [_sample(3.0, 2.0, p) for p in (30, 35)]
    return log, expected


class TestSampleLog:
    def test_sequence_protocol(self):
        log, expected = _log_and_list()
        assert len(log) == len(expected) == 8
        assert list(log) == expected
        assert [log[k] for k in range(len(log))] == expected
        assert log[-1] == expected[-1]
        assert log[-4] == expected[-4]
        assert log[::3] == expected[::3]
        assert log[2:6] == expected[2:6]
        with pytest.raises(IndexError):
            log[8]
        with pytest.raises(IndexError):
            log[-9]

    def test_equality(self):
        log, expected = _log_and_list()
        assert log == expected
        assert expected == log
        assert log == SampleLog(expected)  # same samples, one run each
        assert log != expected[:-1]
        assert log != SampleLog(expected[:-1])

    def test_columns_and_heads(self):
        log, expected = _log_and_list()
        assert log.column("hull_diameter") == [s.hull_diameter for s in expected]
        assert log.column("activations_processed") == [
            s.activations_processed for s in expected
        ]
        assert [s.time for s in log.heads()] == [0.0, 1.0, 2.0, 3.0]

    def test_collector_queries_match_materialised_forms(self):
        log, expected = _log_and_list()
        collector = MetricsCollector(visibility_range=1.0, samples=log)
        plain = MetricsCollector(visibility_range=1.0, samples=list(expected))
        assert isinstance(plain.samples, SampleLog)
        assert collector.diameters() == [s.hull_diameter for s in expected]
        assert collector.first_time_below(3.0) == 1.0
        diameters = [s.hull_diameter for s in expected]
        materialised = all(b <= a + 1e-9 for a, b in zip(diameters, diameters[1:]))
        assert collector.monotone_hull_diameter() == materialised == plain.monotone_hull_diameter()
        assert not collector.monotone_hull_diameter()
        assert collector.latest() == expected[-1]

    def test_replicas_equal_dataclasses_replace(self):
        log, _ = _log_and_list()
        head = log[1]
        assert log[3] == dataclasses.replace(head, activations_processed=15)

    def test_repeat_last_rules(self):
        empty = SampleLog()
        with pytest.raises(IndexError):
            empty.repeat_last(1, 1)
        empty.repeat_last(0, 1)  # nothing to repeat, nothing asked
        log = SampleLog([_sample(0.0, 1.0, 2)])
        log.repeat_last(2, 2)
        with pytest.raises(ValueError):
            log.repeat_last(1, 3)

    def test_pickle_round_trip(self):
        log, expected = _log_and_list()
        restored = pickle.loads(pickle.dumps(log))
        assert restored == expected
        assert len(restored.heads()) == 4


def _rows(m, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, 2)), rng.normal(size=(m, 2)), rng.normal(size=(m, 2))


def _expected_records(activations, origin, target, realized, seen):
    records = []
    for k, activation in enumerate(activations):
        o = Point(float(origin[k, 0]), float(origin[k, 1]))
        r = Point(float(realized[k, 0]), float(realized[k, 1]))
        records.append(
            ActivationRecord(
                activation=activation,
                origin=o,
                target=Point(float(target[k, 0]), float(target[k, 1])),
                destination=r,
                neighbours_seen=int(seen[k]),
                moved_distance=o.distance_to(r),
            )
        )
    return records


def _record_log():
    """Single rows, then a round, then more single rows; plus the expected records."""
    log = RecordLog()
    expected = []
    singles = [Activation(robot_id=i, look_time=0.5 * i, move_duration=0.25) for i in range(3)]
    origin, target, realized = _rows(3, 0)
    seen = np.array([2, 0, 5])
    for k, activation in enumerate(singles):
        log.append(activation, origin[k], tuple(target[k]), tuple(realized[k]), seen[k])
    expected += _expected_records(singles, origin, target, realized, seen)
    batch = RoundBatch(np.array([0, 2, 3, 6]), 2.0, move_duration=0.5)
    origin, target, realized = _rows(4, 1)
    seen = np.array([1, 2, 3, 4])
    log.extend_round(batch, origin, target, realized, seen)
    expected += _expected_records(batch, origin, target, realized, seen)
    log.extend_round(batch.take(slice(0, 0)), origin[:0], target[:0], realized[:0], seen[:0])
    late = [Activation(robot_id=9, look_time=3.0, move_duration=0.5)]
    origin, target, realized = _rows(1, 2)
    log.append(late[0], origin[0], target[0], realized[0], 7)
    expected += _expected_records(late, origin, target, realized, [7])
    return log, expected


class TestRecordLog:
    def test_sequence_protocol(self):
        log, expected = _record_log()
        assert len(log) == len(expected) == 8
        assert list(log) == expected
        assert [log[k] for k in range(len(log))] == expected
        assert log[-1] == expected[-1]
        assert log[-5] == expected[-5]
        assert log[::2] == expected[::2]
        assert log[3:7] == expected[3:7]
        with pytest.raises(IndexError):
            log[8]

    def test_moved_distance_is_the_point_distance(self):
        log, _ = _record_log()
        for record in log:
            assert record.moved_distance == record.origin.distance_to(record.destination)
            assert math.isfinite(record.moved_distance)

    def test_equality(self):
        log, expected = _record_log()
        twin, _ = _record_log()
        assert log == expected
        assert expected == log
        assert log == twin
        assert log != expected[:-1]
        assert RecordLog() == []

    def test_pickle_round_trip(self):
        log, expected = _record_log()
        assert pickle.loads(pickle.dumps(log)) == expected
