"""Seeded i.i.d. Rayleigh channel generation and SNR bookkeeping.

Each user's matrix comes from its own counter-based substream keyed by
(seed, realization, user), so realizations are reproducible and adding
users never disturbs the matrices of existing ones.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _seed_sequence(seed: int, key) -> np.random.SeedSequence:
    for value in (seed, *key):
        require_count(0, seeds=value)
    return np.random.SeedSequence(seed, spawn_key=key)


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit integer seed for the named substream ``key`` of ``seed``."""
    return int(_seed_sequence(seed, key).generate_state(1)[0])


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """A generator for the named substream ``key`` of ``seed``."""
    return np.random.default_rng(_seed_sequence(seed, key))


def require_positive(**values):
    """Raise ConfigError unless every named value is positive and finite."""
    for name, value in values.items():
        if not 0 < value < math.inf:  # also false for NaN
            raise ConfigError(f"{name} must be positive and finite, got {value}")


def require_count(least, below=math.inf, **values):
    """Raise ConfigError unless every named value is an integer in [least, below):
    numpy integers count, bools, None and floats (integral ones too) do not."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                or not least <= value < below:
            span = (f"in [{least}, {below})" if below < math.inf
                    else "non-negative" if least == 0 else f">= {least}")
            raise ConfigError(f"{name} must be {span} (an integer), got {value!r}")


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """One channel realization: a G x L complex matrix per user."""

    H: np.ndarray  # (K, G, L) complex128


def sample_channels(seed: int, realization: int, K: int, G: int, L: int) -> ChannelSet:
    """Draw a fresh realization of zero-mean unit-variance complex Gaussian channels."""
    require_count(1, K=K, G=G, L=L)
    H = np.empty((K, G, L), dtype=np.complex128)
    for k in range(K):
        rng = seeded_rng(seed, realization, k)
        # unit total variance: 1/2 per real and imaginary part
        H[k] = (rng.standard_normal((G, L)) + 1j * rng.standard_normal((G, L))) * np.sqrt(0.5)
    return ChannelSet(H)


def snr_to_power(snr_db: float, N0: float) -> float:
    """Transmit power budget that realizes a target SNR over noise level N0."""
    require_positive(N0=N0)
    try:
        return N0 * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ConfigError(f"SNR {snr_db} dB overflows the power budget") from None
