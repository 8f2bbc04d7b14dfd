"""Pins: the flat decide's frame replay equals the scalar frame draw.

:func:`repro.engine.decide_batch._draw_frames` rebuilds every activation's
private frame from raw PCG64 words instead of calling ``uniform`` and
``integers`` once per activation.  Here it is compared against the scalar
loop it replaced (:func:`reference.frames.draw_frames_scalar`) on lanes
whose generators were first advanced by a few ``integers(0, 2)`` and
``random()`` calls, so a lane may start with PCG64's buffered 32-bit half
set or clear: the same cos/sin and reflection bytes, the same generator
state per lane, and the same draws afterwards.  A run on another bit
generator must keep the per-robot round path.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.frames import draw_frames_scalar
from repro.algorithms import KKNPSAlgorithm
from repro.engine import SimulationConfig, Simulator
from repro.engine.decide_batch import _draw_frames
from repro.schedulers import SSyncScheduler
from repro.workloads import truncated_grid_configuration

lanes = st.lists(
    st.tuples(
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
        st.lists(st.sampled_from(("integers", "random")), max_size=6),
    ),
    min_size=1,
    max_size=4,
)


def _generators(spec):
    """One generator per lane, advanced by the lane's warm-up calls."""
    out = []
    for seed, _, warm_up in spec:
        rng = np.random.default_rng(seed)
        for call in warm_up:
            rng.integers(0, 2) if call == "integers" else rng.random()
        out.append(rng)
    return out


@given(spec=lanes, allow_reflection=st.booleans())
@settings(max_examples=200, deadline=None)
def test_replay_equals_scalar_draws(spec, allow_reflection):
    replayed = _generators(spec)
    scalar = _generators(spec)
    counts = [count for _, count, _ in spec]
    got = _draw_frames(list(zip(replayed, counts)), allow_reflection)
    expected = draw_frames_scalar(list(zip(scalar, counts)), allow_reflection)
    for column, reference in zip(got, expected):
        assert column.dtype == reference.dtype
        assert column.tobytes() == reference.tobytes()
    for lane, twin in zip(replayed, scalar):
        assert lane.bit_generator.state == twin.bit_generator.state
        assert lane.random(5).tobytes() == twin.random(5).tobytes()
        assert lane.integers(0, 2, 9).tolist() == twin.integers(0, 2, 9).tolist()


def test_other_bit_generators_keep_the_per_robot_round():
    """An MT19937 run never batches its rounds and matches the per-activation path."""
    configuration = truncated_grid_configuration(600, spacing=0.7)
    results = []
    paths = []
    for round_batching in (True, False):
        sim = Simulator(
            configuration.positions,
            KKNPSAlgorithm(k=1),
            SSyncScheduler(),
            SimulationConfig(
                visibility_range=configuration.visibility_range,
                seed=4,
                max_activations=900,
                record_every=100,
                stop_at_convergence=False,
                round_batching=round_batching,
            ),
        )
        sim.rng = np.random.Generator(np.random.MT19937(4))
        for name in ("_round_decide_batch", "_round_decide_rows"):
            decide = getattr(sim, name)
            setattr(sim, name, lambda *a, n=name, d=decide: paths.append(n) or d(*a))
        results.append(sim.run())
    fast, reference = results
    assert paths and set(paths) == {"_round_decide_rows"}
    assert fast.final_positions.tobytes() == reference.final_positions.tobytes()
    assert fast.metrics.samples == reference.metrics.samples
    assert fast.records == reference.records
    assert fast.activation_end_times == reference.activation_end_times
