"""Deterministic RNG stream derivation.

Every random draw in the simulator comes from a numpy Generator keyed by a
(seed, tag, ...) tuple, so any part of a run can be reproduced in isolation
and node steps can execute in any order without changing results. A stream
is numpy's PCG64 seeded by ``SeedSequence(seed, spawn_key=(tag, ...))``; the
mask draws of node k in layer j at a step are the stream
``substream(seed, MASK_STREAM, k, step, j)``.
"""

from __future__ import annotations

import numpy as np

# Stream tags, always the first element of a spawn key.
INIT_STREAM = 0    # model weight initialisation
DATA_STREAM = 1    # synthetic dataset generation
MASK_STREAM = 2    # probabilistic mask draws, keyed (tag, node, step, layer)
SELECT_STREAM = 3  # shared random node selection, keyed (tag, step)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key`` under ``seed``."""
    spawn_key = tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=spawn_key))
