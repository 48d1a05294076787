"""Deterministic random streams.

All randomness in the package flows from a single root seed through
counter-based Philox streams keyed by (root_seed, stream_id).  Philox is
stable across platforms and numpy versions in a way the default
PCG64-jumping idiom is not guaranteed to be, and independent stream ids
make sub-streams reproducible regardless of call order.

Stream ids are fixed constants; add new ones at the end, never renumber.
"""

from __future__ import annotations

import numpy as np

STREAM_KL_SAMPLE = 1      # Karhunen-Loeve coordinate draws
STREAM_MC_NORM = 2        # Monte-Carlo norm estimation
STREAM_FNO_PROBE = 3      # parameter probes for empirical Lipschitz estimates
STREAM_SWEEP_DICT = 4     # random dictionary search in bits/accuracy sweeps
STREAM_CHAIN_PAIRS = 5    # pair subsampling in the expectation chain
STREAM_SPACE_GEN = 6      # random finite metric space generation
STREAM_INPUT_GEN = 7      # random grid-function inputs
STREAM_PARAM_GEN = 8      # random parameter vectors
STREAM_TRANSPORT = 9      # Lipschitz transport pair sampling
STREAM_HAT_PAIRS = 10     # reserved, never reused: hat families drew
                          # member pairs here before they were verified exactly


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """Generator for the given root seed and stream id."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
