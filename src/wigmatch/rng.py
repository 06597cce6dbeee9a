"""Seeded RNG streams.

All randomness in a run is derived from one 64-bit master seed via
``numpy.random.SeedSequence([master, stream id])``.  The four top-level
streams keep instance generation, noise re-injection, sign-matrix sampling
and corruption independent, so a corrupted run can replay the exact noise
and sign draws of its clean twin.
"""

from __future__ import annotations

import numpy as np

_STREAM_NAMES = {"instance": 0, "noise": 1, "beta": 2, "corruption": 3}


def stream_seed(master_seed: int, stream: int) -> int:
    """Derive the 64-bit seed of the stream with id `stream` from the master seed."""
    ss = np.random.SeedSequence([int(master_seed), int(stream)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def derive_streams(master_seed: int) -> dict[str, int]:
    """All four stream seeds for a run, keyed by stream name."""
    return {name: stream_seed(master_seed, sid) for name, sid in _STREAM_NAMES.items()}


def generator(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)


def child(seed: int, index: int) -> int:
    """Deterministic sub-seed, for splitting one stream further."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, 0x5EED, int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
