"""Tests for RoundBatch: a simultaneous round held as columns."""

import pickle

import numpy as np
import pytest

from repro.model.types import Activation, RoundBatch


def _batch():
    return RoundBatch(
        np.array([1, 4, 7]), 3.0, compute_duration=0.25, move_duration=0.5,
        progress=np.array([1.0, 0.5, 0.75]),
    )


def _activations():
    return [
        Activation(robot_id=i, look_time=3.0, compute_duration=0.25,
                   move_duration=0.5, progress_fraction=p)
        for i, p in ((1, 1.0), (4, 0.5), (7, 0.75))
    ]


class TestRoundBatchSequence:
    def test_items_are_activations(self):
        batch = _batch()
        expected = _activations()
        assert len(batch) == 3
        assert list(batch) == expected
        assert batch[0] == expected[0]
        assert batch[-1] == expected[-1]
        assert batch[1:] == expected[1:]
        assert batch[::-1] == expected[::-1]
        with pytest.raises(IndexError):
            batch[3]

    def test_shared_times_match_the_activation_properties(self):
        batch = _batch()
        for activation in batch:
            assert activation.move_start_time == batch.move_start_time
            assert activation.end_time == batch.end_time

    def test_take_keeps_the_shared_columns(self):
        batch = _batch()
        assert list(batch.take(np.array([0, 2]))) == [_activations()[0], _activations()[2]]
        assert list(batch.take(slice(0, 1))) == _activations()[:1]

    def test_default_progress_is_full(self):
        batch = RoundBatch([0, 1], 0.0, move_duration=0.5)
        assert [a.progress_fraction for a in batch] == [1.0, 1.0]

    def test_pickle_round_trip(self):
        batch = _batch()
        assert list(pickle.loads(pickle.dumps(batch))) == list(batch)


class TestRoundBatchValidation:
    @pytest.mark.parametrize("ids", [[2, 1], [3, 3]])
    def test_robots_distinct_and_ascending(self, ids):
        with pytest.raises(ValueError):
            RoundBatch(ids, 0.0)

    def test_activation_checks(self):
        with pytest.raises(ValueError):
            RoundBatch([0], -1.0)
        with pytest.raises(ValueError):
            RoundBatch([0], 0.0, move_duration=-0.5)
        with pytest.raises(ValueError):
            RoundBatch([0, 1], 0.0, progress=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            RoundBatch([0, 1], 0.0, progress=np.array([1.0]))

    def test_cycle_must_end_after_the_look(self):
        with pytest.raises(ValueError):
            RoundBatch([0], 1.0, compute_duration=0.0, move_duration=0.0)
