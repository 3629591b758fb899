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
    Power and noise are linear-scale quantities.
    """

    K: int
    L: int
    G: int
    N: int
    M: int
    file_size_bits: int = 8192
    P_T: float = 1.0
    N0: float = 1.0

    def __post_init__(self):
        require_count(1, K=self.K, L=self.L, G=self.G, N=self.N, file_size_bits=self.file_size_bits)
        require_count(0, M=self.M)
        require_positive(P_T=self.P_T, N0=self.N0)
        if (self.K * self.M) % self.N != 0:
            raise ConfigError(
                f"cache budget K*M/N = {self.K}*{self.M}/{self.N} is not an integer"
            )
        require_count(0, self.K, t=self.t)

    @property
    def t(self) -> int:
        """Cache replication factor K*M/N (number of users holding each fragment)."""
        return (self.K * self.M) // self.N

    @property
    def snr_db(self) -> float:
        """Operating SNR implied by P_T and N0, in dB."""
        import math

        return 10.0 * math.log10(self.P_T / self.N0)
