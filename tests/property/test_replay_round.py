"""``replay_round`` against the per-row walk it replaces.

The vectorised replay must return the walk's tuple for every round: the
executed sub-round (robot ids and progress), the first record boundary,
the boundary count and both counters.  The draws cover crashed robots,
either cap reached first (and caps already reached before the round),
``record_every`` above 1 and empty rounds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.rounds import replay_round_loop
from repro.engine.kernel import replay_round
from repro.model.types import RoundBatch


@st.composite
def rounds(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    ids = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)))
    progress = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=len(ids), max_size=len(ids)
        )
    )
    crashed = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    max_activations = draw(st.integers(min_value=1, max_value=30))
    # Counters from far below either cap to past both of them.
    processed = draw(st.integers(min_value=0, max_value=max_activations + 2))
    popped = draw(
        st.integers(min_value=processed, max_value=100 * max_activations + 2)
        | st.integers(min_value=100 * max_activations - 45, max_value=100 * max_activations)
    )
    record_every = draw(st.integers(min_value=1, max_value=7))
    batch = RoundBatch(np.array(ids, dtype=np.intp), 1.0, progress=np.array(progress))
    return batch, crashed, processed, max(popped, processed), max_activations, record_every


@given(rounds())
@settings(max_examples=400, deadline=None)
def test_replay_round_matches_the_walk(case):
    batch, crashed, processed, popped, max_activations, record_every = case
    got = replay_round(batch, crashed, processed, popped, max_activations, record_every)
    want = replay_round_loop(batch, crashed, processed, popped, max_activations, record_every)
    assert got[1:] == want[1:]
    assert got[0].robot_ids.tolist() == want[0].robot_ids.tolist()
    assert got[0].progress.tobytes() == want[0].progress.tobytes()
    assert (got[0].look_time, got[0].compute_duration, got[0].move_duration) == (
        want[0].look_time, want[0].compute_duration, want[0].move_duration
    )


def test_round_without_skip_or_cap_is_returned_whole():
    batch = RoundBatch(np.arange(5, dtype=np.intp), 0.0)
    executed, first, boundaries, processed, popped = replay_round(
        batch, np.zeros(5, dtype=bool), 3, 3, 100, 2
    )
    assert executed is batch
    assert (first, boundaries, processed, popped) == ((1, 4, 4), 3, 8, 8)


def test_empty_round_changes_nothing():
    batch = RoundBatch(np.empty(0, dtype=np.intp), 0.0)
    crashed = np.array([True, False])
    got = replay_round(batch, crashed, 4, 9, 10, 3)
    assert len(got[0]) == 0 and got[1:] == (None, 0, 4, 9)
