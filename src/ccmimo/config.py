"""Scenario parameters for a cache-aided MIMO downlink."""

from __future__ import annotations

from dataclasses import dataclass

from .channel import require_count, require_positive
from .errors import ConfigError


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of one network scenario.

    A single transmitter with L spatial dimensions serves K users, each
    with G receive dimensions and a cache of M files out of a library of
    N equal-sized files.  The cumulative cache budget K*M/N must be an
    integer t: every file fragment is replicated at exactly t users.
    N0 is the linear-scale noise level; the transmit power is not part of
    the scenario but set per run from an SNR (channel.snr_to_power).
    """

    K: int
    L: int
    G: int
    N: int
    M: int
    file_size_bits: int = 8192
    N0: float = 1.0

    def __post_init__(self):
        require_count(1, K=self.K, L=self.L, G=self.G, N=self.N, file_size_bits=self.file_size_bits)
        require_count(0, M=self.M)
        require_positive(N0=self.N0)
        if (self.K * self.M) % self.N != 0:
            raise ConfigError(
                f"cache budget K*M/N = {self.K}*{self.M}/{self.N} is not an integer"
            )
        require_count(0, self.K, t=self.t)

    @property
    def t(self) -> int:
        """Cache replication factor K*M/N (number of users holding each fragment)."""
        return (self.K * self.M) // self.N
