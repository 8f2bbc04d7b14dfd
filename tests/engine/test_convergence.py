"""Tests for convergence-rate measures (summaries, halving, epochs)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.epochs import epochs_scan
from repro.engine import epochs, epochs_to_converge, rounds_to_halve, summarize, time_to_halve
from repro.engine.logs import EndTimeLog
from repro.engine.metrics import MetricsSample


def sample(time, diameter):
    return MetricsSample(
        time=time,
        hull_diameter=diameter,
        hull_perimeter=3 * diameter,
        hull_radius=diameter / 2,
        min_pairwise_distance=diameter / 10,
        broken_edge_count=0,
        activations_processed=int(time),
    )


HISTORY = [sample(t, 1.0 * (0.5 ** t)) for t in range(6)]


class TestSummaries:
    def test_summarize_basic(self):
        summary = summarize(HISTORY, epsilon=0.1)
        assert summary.initial_diameter == pytest.approx(1.0)
        assert summary.final_diameter == pytest.approx(0.5 ** 5)
        assert summary.converged
        assert summary.convergence_time == 4.0  # first diameter <= 0.1 is 0.0625 at t=4
        assert summary.halvings_observed == 5
        assert summary.reduction_factor == pytest.approx(32.0)

    def test_summarize_empty(self):
        summary = summarize([], epsilon=0.1)
        assert not summary.converged
        assert summary.samples == 0

    def test_summarize_not_converged(self):
        summary = summarize(HISTORY[:2], epsilon=0.01)
        assert not summary.converged
        assert summary.convergence_time is None

    def test_time_and_rounds_to_halve(self):
        assert time_to_halve(HISTORY) == 1.0
        assert rounds_to_halve(HISTORY, round_length=0.5) == 2.0
        assert time_to_halve([sample(0, 1.0)]) is None

    def test_time_to_halve_degenerate_initial(self):
        assert time_to_halve([sample(3.0, 0.0)]) == 3.0


class TestEpochs:
    def test_epochs_partition(self):
        times = {0: [1.0, 3.0, 5.0], 1: [2.0, 4.0, 6.0]}
        spans = epochs(times)
        assert spans[0] == (0.0, 2.0)
        # The second epoch starts just after 2.0 and ends when both robots
        # have completed another cycle.
        assert spans[1][1] == 4.0

    def test_epochs_empty(self):
        assert epochs({}) == []
        assert epochs({0: []}) == []

    def test_epochs_to_converge(self):
        times = {0: [1.0, 3.0, 5.0], 1: [2.0, 4.0, 6.0]}
        count = epochs_to_converge(times, HISTORY, epsilon=0.1)
        assert count is not None
        assert count >= 1

    def test_epochs_to_converge_when_never_converged(self):
        times = {0: [1.0], 1: [2.0]}
        assert epochs_to_converge(times, HISTORY[:1], epsilon=1e-9) is None


def _log(times):
    """An :class:`EndTimeLog` holding ``times``, cycles appended one by one."""
    log = EndTimeLog(len(times))
    for robot_id, ends in times.items():
        for end in ends:
            log.append(robot_id, end)
    return log


#: End times drawn from a few values and their float neighbours, so ties
#: and ``nextafter`` boundaries (an epoch starting one ulp after a cycle
#: end) come up often.
_TICKS = [0.0, 0.5, 1.0, 2.0, 3.5]
_END = st.sampled_from(_TICKS).flatmap(
    lambda t: st.sampled_from([t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf)])
)


class TestEpochSearch:
    """The keyed search equals the rescanning oracle (``reference.epochs``)."""

    @given(st.lists(st.lists(_END, max_size=8), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_scan_oracle(self, per_robot):
        times = {robot_id: sorted(ends) for robot_id, ends in enumerate(per_robot)}
        expected = epochs_scan(times)
        assert epochs(times) == expected
        assert epochs(_log(times)) == expected

    def test_ties_and_nextafter_boundaries(self):
        after = math.nextafter(2.0, math.inf)
        times = {0: [2.0, after, 3.0], 1: [2.0, 2.0, after, 3.0], 2: [after, 4.0]}
        assert epochs(times) == epochs_scan(times)
        assert epochs(times) == [(0.0, after), (math.nextafter(after, math.inf), 4.0)]

    def test_robot_without_cycles(self):
        times = {0: [1.0, 2.0], 1: [], 2: [1.5]}
        assert epochs(times) == epochs_scan(times) == []
        assert epochs(_log(times)) == []
        assert epochs(EndTimeLog(0)) == []

    def test_round_log_equals_its_dict(self):
        log = EndTimeLog(4)
        log.extend_round(np.array([0, 2, 3]), 1.5)
        log.append(1, 1.0)
        log.append(2, 2.5)
        log.extend_round(np.array([1, 3]), 3.0)
        assert log.as_dict() == {0: [1.5], 1: [1.0, 3.0], 2: [1.5, 2.5], 3: [1.5, 3.0]}
        assert epochs(log) == epochs_scan(log.as_dict())
