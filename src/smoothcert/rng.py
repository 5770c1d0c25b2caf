"""Deterministic derivation of independent random streams.

Every stream is keyed by a base seed plus a short integer path whose first
component is a phase tag, one per consumer:
``SeedSequence(entropy=base_seed, spawn_key=(phase, ...))``.  Distinct
paths give statistically independent streams, and the stream for a given
path never depends on evaluation order -- which is what makes parallel
certification and re-runs byte-reproducible.

Two bit generators sit on those keys:

* ``stream`` -- counter-based Philox, for everything that builds a model:
  initialization ``(seed, PHASE_INIT, layer)``, minibatch order
  ``(seed, PHASE_SHUFFLE, epoch)``, training noise
  ``(seed, PHASE_TRAIN_NOISE, epoch, batch)``, the weight-noise search
  ``(seed, PHASE_SIGMA, grid_point, draw)`` and synthetic data
  ``(seed, PHASE_SYNTH[, 1])``.
* ``vote_stream`` -- SFC64, for the Monte-Carlo vote loop, one generator
  per chunk of votes.  A vote key is ``(base_seed, phase, *indices)``,
  e.g. ``(seed, PHASE_ESTIMATION, sample_index)``, and chunk ``c`` of it
  draws from ``(seed, phase, *indices, c)``, so no chunk's draws depend on
  another's.  The vote phases are ``PHASE_SELECTION``,
  ``PHASE_ESTIMATION``, ``PHASE_MARGIN`` and, in the test oracles,
  ``PHASE_ATTACK``.

Key components reach ``SeedSequence`` unchanged, which raises ValueError for
a negative one and TypeError for a non-integer one (``stream(0, 1.7)``); a
``base_seed`` of None, which it would fill from the OS, raises TypeError.
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


def _seed_sequence(base_seed: int, path) -> np.random.SeedSequence:
    if base_seed is None:
        raise TypeError("base_seed must be a non-negative integer, not None")
    return np.random.SeedSequence(entropy=base_seed, spawn_key=path)


def stream(base_seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator keyed by ``(base_seed, *path)``.

    The same arguments always produce the same stream.  ``base_seed`` and all
    path components must be non-negative integers; see the module docstring.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(base_seed, path)))


def vote_stream(key: tuple[int, ...], chunk: int) -> np.random.Generator:
    """Return the SFC64 generator of vote chunk ``chunk`` under ``key``.

    ``key`` is ``(base_seed, phase, *indices)``; the chunk draws from
    ``SeedSequence(entropy=base_seed, spawn_key=(phase, *indices, chunk))``.
    All components must be non-negative integers.
    """
    base_seed, *path = key
    return np.random.Generator(np.random.SFC64(_seed_sequence(base_seed, (*path, chunk))))
