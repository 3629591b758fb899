"""Seeded i.i.d. Rayleigh channel generation and SNR bookkeeping.

Each user's matrix comes from its own counter-based substream keyed by
(seed, realization, user), so realizations are reproducible and adding
users never disturbs the matrices of existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit integer seed for the named substream ``key`` of ``seed``."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def require_finite(H):
    """Raise InputError unless every entry of the channel matrices is finite."""
    if not np.all(np.isfinite(H)):
        raise InputError("channel matrices must be finite, found NaN or inf")


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """One channel realization: a G x L complex matrix per user."""

    seed: int
    realization: int
    H: np.ndarray  # (K, G, L) complex128

    @property
    def K(self) -> int:
        return self.H.shape[0]


def sample_channels(seed: int, realization: int, K: int, G: int, L: int) -> ChannelSet:
    """Draw a fresh realization of zero-mean unit-variance complex Gaussian channels."""
    if min(K, G, L) < 1:
        raise ConfigError(f"need K, G, L >= 1, got K={K}, G={G}, L={L}")
    H = np.empty((K, G, L), dtype=np.complex128)
    for k in range(K):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(realization, k)))
        # unit total variance: 1/2 per real and imaginary part
        H[k] = (rng.standard_normal((G, L)) + 1j * rng.standard_normal((G, L))) * np.sqrt(0.5)
    return ChannelSet(seed, realization, H)


def snr_to_power(snr_db: float, N0: float) -> float:
    """Transmit power budget that realizes a target SNR over noise level N0."""
    if N0 <= 0:
        raise ConfigError(f"N0 must be positive, got {N0}")
    return N0 * 10.0 ** (snr_db / 10.0)


def dump_channels(cs: ChannelSet) -> str:
    """Text dump: header line, then one 're im' pair per matrix entry, row-major."""
    K, G, L = cs.H.shape
    lines = [f"channels seed={cs.seed} realization={cs.realization} K={K} G={G} L={L}"]
    for k in range(K):
        lines.append(f"user {k}")
        for g in range(G):
            lines.append(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in cs.H[k, g]))
    return "\n".join(lines) + "\n"


def load_channels(text: str) -> ChannelSet:
    """Parse the dump_channels format back into a ChannelSet.

    Raises InputError when the text is not a complete, well-formed dump.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        head = dict(tok.split("=") for tok in lines[0].split()[1:])
        K, G, L = int(head["K"]), int(head["G"]), int(head["L"])
        if len(lines) != 1 + K * (1 + G):
            raise ValueError(f"{len(lines)} lines, expected {1 + K * (1 + G)}")
        H = np.empty((K, G, L), dtype=np.complex128)
        for k in range(K):
            pos = 1 + k * (1 + G)
            if lines[pos] != f"user {k}":
                raise ValueError(f"line {pos} is {lines[pos]!r}, expected 'user {k}'")
            # consecutive (re, im) float pairs are the memory layout of complex128
            rows = np.array([[float(x) for x in ln.split()] for ln in lines[pos + 1:pos + 1 + G]])
            if rows.shape != (G, 2 * L):
                raise ValueError(f"user {k} rows have shape {rows.shape}, expected {(G, 2 * L)}")
            H[k] = rows.view(np.complex128)
        return ChannelSet(int(head["seed"]), int(head["realization"]), H)
    except (IndexError, KeyError, ValueError) as exc:
        raise InputError(f"malformed channel dump: {exc}") from exc
