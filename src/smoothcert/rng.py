"""Deterministic derivation of independent random streams.

Every stochastic component of the package draws from a counter-based Philox
generator whose key is derived from a base seed plus a short integer path,
e.g. ``stream(seed, sample_index, PHASE_ESTIMATION)``.  Distinct paths give
statistically independent streams, and the stream for a given path never
depends on evaluation order -- which is what makes parallel certification
and re-runs byte-reproducible.
"""

from __future__ import annotations

import numpy as np

# Phase tags, one per consumer, so no two subsystems can collide on the same
# (seed, path) key.
PHASE_INIT = 1
PHASE_SHUFFLE = 2
PHASE_TRAIN_NOISE = 3
PHASE_SELECTION = 4
PHASE_ESTIMATION = 5
PHASE_MARGIN = 6
PHASE_SIGMA = 7
PHASE_ATTACK = 8
PHASE_SYNTH = 10
PHASE_CORR = 12


def stream(base_seed: int, *path: int) -> np.random.Generator:
    """Return the generator keyed by ``(base_seed, *path)``.

    The same arguments always produce the same stream.  ``base_seed`` and all
    path components must be non-negative integers.
    """
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    key = tuple(int(p) for p in path)
    if any(p < 0 for p in key):
        raise ValueError("stream path components must be non-negative")
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))
