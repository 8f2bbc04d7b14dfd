"""The scalar frame draw: the oracle of the flat decide's raw-stream replay.

Before :func:`repro.engine.decide_batch._draw_frames` rebuilt a round's
private frames from raw PCG64 words, it drew them the way
:func:`~repro.geometry.transforms.random_frame` does, one activation at a
time: ``rng.uniform(0, 2π)`` for the rotation, then ``rng.integers(0, 2)``
for the reflection when reflections are allowed.  :func:`draw_frames_scalar`
keeps that loop, returning the same five arrays, so the replay can be
pinned against it byte for byte (``tests/property/test_frame_replay.py``).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


def draw_frames_scalar(
    lane_draws: Sequence[Tuple[np.random.Generator, int]], allow_reflection: bool
):
    """``(cos -θ, sin -θ, cos θ, sin θ, reflected)`` per activation, lane by lane."""
    rotations = []
    reflections = []
    two_pi = 2.0 * math.pi
    for rng, count in lane_draws:
        for _ in range(count):
            rotations.append(float(rng.uniform(0.0, two_pi)))
            reflections.append(bool(rng.integers(0, 2)) if allow_reflection else False)
    acts = len(rotations)
    negated = [-rotation for rotation in rotations]
    return (
        np.fromiter(map(math.cos, negated), dtype=np.float64, count=acts),
        np.fromiter(map(math.sin, negated), dtype=np.float64, count=acts),
        np.fromiter(map(math.cos, rotations), dtype=np.float64, count=acts),
        np.fromiter(map(math.sin, rotations), dtype=np.float64, count=acts),
        np.asarray(reflections, dtype=bool),
    )
