"""Deterministic random-stream derivation.

Every random draw in the package flows from a single non-negative integer
seed. Independent sub-streams (k-means replicates, gap-statistic reference
datasets, per-k clustering seeds) are derived with
``np.random.SeedSequence(entropy=seed, spawn_key=key)`` so results are
reproducible bit-for-bit across runs given the same seed, and distinct keys
never share a stream.
"""

from __future__ import annotations

import numpy as np

from .errors import KstError

DEFAULT_SEED = 42


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the sub-stream identified by ``key`` under ``seed``."""
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def subseed(seed: int, *key: int) -> int:
    """Derived integer seed, for call sites that take a seed rather than a stream."""
    _check_seed(seed)
    state = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1, dtype=np.uint64)
    # keep it inside the non-negative int64 range accepted everywhere
    return int(state[0] >> 1)


def _check_seed(seed: int) -> None:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise KstError(f"seed must be a non-negative integer, got {seed!r}")


def _check_ints(**counts: object) -> None:
    """Raise a KstError naming the first of ``counts`` that is not a Python
    or numpy integer; a bool is not one, as for a seed."""
    for name, value in counts.items():
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise KstError(f"{name} must be an integer, got {value!r}")
