"""Cache placement, delivery scheduling, and XOR codeword construction.

Combinatorial layer of the delivery scheme.  Files are split into
subfiles indexed by the t-subsets of users and cached wherever the
subset contains the user.  Delivery walks every omega-user serving
subset; inside each one, a single XOR codeword is addressed to every
(t+1)-user group, carrying one fresh subpacket per group member.  All
enumeration is lexicographic so plans and codewords are reproducible
byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .config import NetworkConfig
from .errors import ConfigError, DeliveryError, InputError, PlanError


def subpacketization(K: int, t: int, omega: int) -> int:
    """Number of equal pieces each file is cut into for a given serving-set size.

    C(K,t) subfiles per file, each further split into C(K-t-1, omega-t-1)
    subpackets so that every transmission delivers fresh data.
    """
    if not 0 <= t < K:
        raise ConfigError(f"need 0 <= t < K, got t={t}, K={K}")
    if not t + 1 <= omega <= K:
        raise ConfigError(f"serving-set size {omega} outside [{t + 1}, {K}]")
    return comb(K, t) * comb(K - t - 1, omega - t - 1)


def _xor(a: bytes, b: bytes) -> bytes:
    return (np.frombuffer(a, np.uint8) ^ np.frombuffer(b, np.uint8)).tobytes()


def _pad(payload: bytes, size: int) -> bytes:
    if len(payload) > size:
        raise ValueError("payload longer than padded size")
    return payload + b"\x00" * (size - len(payload))


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PlacementMap:
    """Subfile payloads plus the cache index of every user.

    Subfiles are equal-length zero-padded slices of each file; subfile j
    of file n is cached at user k iff k is in ``subsets[j]``.
    """

    config: NetworkConfig
    subsets: tuple[tuple[int, ...], ...]
    file_bytes: int
    subfile_bytes: int
    subfiles: dict = field(repr=False)

    def cache_of(self, user: int) -> tuple[tuple[int, int], ...]:
        """All (file, subset index) pairs stored at a user."""
        return tuple(
            (n, j)
            for n in range(self.config.N)
            for j, P in enumerate(self.subsets)
            if user in P
        )

    def cached_bytes(self, user: int) -> int:
        return sum(len(self.subfiles[key]) for key in self.cache_of(user))

    @cached_property
    def _subset_pos(self) -> dict:
        return {P: j for j, P in enumerate(self.subsets)}

    def subset_index(self, P: tuple[int, ...]) -> int:
        return self._subset_pos[tuple(sorted(P))]


def build_placement(config: NetworkConfig, library: Sequence[bytes]) -> PlacementMap:
    """Split the library into subfiles and assign them to user caches.

    Every file is padded with zeros to a multiple of C(K,t) bytes so the
    subfile slices come out equal; decoding strips the padding again.
    """
    if len(library) != config.N:
        raise InputError(f"library has {len(library)} files, config says N={config.N}")
    sizes = {len(f) for f in library}
    if len(sizes) != 1:
        raise InputError(f"library files must have equal size, got sizes {sorted(sizes)}")
    file_bytes = sizes.pop()
    if file_bytes == 0:
        raise InputError("library files must be non-empty")

    K, t = config.K, config.t
    n_subfiles = comb(K, t)
    subfile_bytes = -(-file_bytes // n_subfiles)  # ceil division
    padded = [_pad(f, subfile_bytes * n_subfiles) for f in library]

    subsets = tuple(itertools.combinations(range(K), t))
    subfiles = {
        (n, j): padded[n][j * subfile_bytes : (j + 1) * subfile_bytes]
        for n in range(config.N)
        for j in range(n_subfiles)
    }
    return PlacementMap(config, subsets, file_bytes, subfile_bytes, subfiles)


# ---------------------------------------------------------------------------
# Transmission planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeliveryPlan:
    """Serving subsets, multicast groups, and the subpacket schedule.

    ``schedule[(i, T, k)]`` is the subpacket index of subfile W_{T\\{k}}
    of user k's requested file carried by the group-T codeword of
    transmission i.  Indices are assigned by a running counter per
    (user, subfile subset) in plan order, so each demanded subpacket is
    scheduled exactly once over the full plan.
    """

    config: NetworkConfig
    omega: int
    beta: int
    q: int
    serving_subsets: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[tuple[int, ...], ...], ...]  # per transmission
    schedule: dict = field(repr=False)

    @property
    def n_transmissions(self) -> int:
        return len(self.serving_subsets)

    @property
    def n_subpackets(self) -> int:
        """Subpackets per subfile, C(K-t-1, omega-t-1)."""
        K, t = self.config.K, self.config.t
        return comb(K - t - 1, self.omega - t - 1)

    @property
    def theta(self) -> int:
        return subpacketization(self.config.K, self.config.t, self.omega)

    def slots_for_user(self, user: int):
        """All (transmission, group, subfile subset, sigma) slots carrying data to a user."""
        out = []
        for i, groups_i in enumerate(self.groups):
            for T in groups_i:
                if user in T:
                    P = tuple(u for u in T if u != user)
                    out.append((i, T, P, self.schedule[(i, T, user)]))
        return out


def plan_transmissions(config: NetworkConfig, omega: int, beta: int, q: int) -> DeliveryPlan:
    """Enumerate all serving subsets and schedule fresh subpackets for each group slot."""
    K, t, L = config.K, config.t, config.L
    if not t + 1 <= omega <= t + L:
        raise PlanError(f"serving-set size {omega} outside [{t + 1}, {t + L}]")
    if omega > K:
        raise PlanError(f"serving-set size {omega} exceeds user count {K}")
    if beta < 1 or q < 1:
        raise PlanError(f"need beta >= 1 and q >= 1, got beta={beta}, q={q}")
    if q * comb(omega - 1, t) < beta:
        raise PlanError(
            f"q={q} substreams cannot carry beta={beta} streams per user "
            f"(q*C({omega - 1},{t}) = {q * comb(omega - 1, t)} < {beta})"
        )

    serving = tuple(itertools.combinations(range(K), omega))
    groups = tuple(tuple(itertools.combinations(S, t + 1)) for S in serving)

    counter: dict = {}
    schedule: dict = {}
    for i, groups_i in enumerate(groups):
        for T in groups_i:
            for k in T:
                P = tuple(u for u in T if u != k)
                sigma = counter.get((k, P), 0)
                counter[(k, P)] = sigma + 1
                schedule[(i, T, k)] = sigma

    plan = DeliveryPlan(config, omega, beta, q, serving, groups, schedule)
    # every (user, subset) pair must have been filled exactly n_subpackets times
    n_sp = plan.n_subpackets
    assert all(v == n_sp for v in counter.values())
    return plan


# ---------------------------------------------------------------------------
# Codewords
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CodewordSet:
    """XOR codewords of a full delivery round, one per (transmission, group).

    Subfiles are padded to ``n_subpackets * subpacket_bytes`` so every
    codeword has the same length and splits evenly into q substream
    payloads of ``slice_bytes`` each.
    """

    plan: DeliveryPlan
    requests: tuple[int, ...]
    subpacket_bytes: int
    padded_subfile_bytes: int
    codewords: dict = field(repr=False)

    @property
    def slice_bytes(self) -> int:
        return self.subpacket_bytes // self.plan.q

    def substreams(self, i: int, T: tuple[int, ...]) -> tuple[bytes, ...]:
        """The q equal-length substream payloads of one codeword."""
        x = self.codewords[(i, T)]
        w = self.slice_bytes
        return tuple(x[j * w : (j + 1) * w] for j in range(self.plan.q))


def _normalize_requests(config: NetworkConfig, requests) -> tuple[int, ...]:
    if isinstance(requests, Mapping):
        requests = [requests[k] for k in range(config.K)]
    requests = tuple(int(r) for r in requests)
    if len(requests) != config.K:
        raise InputError(f"need one request per user, got {len(requests)} for K={config.K}")
    for k, r in enumerate(requests):
        if not 0 <= r < config.N:
            raise InputError(f"user {k} requests unknown file {r} (library has {config.N})")
    return requests


def _padded_subfile(placement: PlacementMap, n: int, j: int, padded_bytes: int) -> bytes:
    return _pad(placement.subfiles[(n, j)], padded_bytes)


def build_codewords(plan: DeliveryPlan, requests, placement: PlacementMap) -> CodewordSet:
    """XOR together the scheduled subpackets of every multicast group."""
    config = plan.config
    reqs = _normalize_requests(config, requests)
    n_sp, q = plan.n_subpackets, plan.q

    # pad each subfile so it splits into n_sp subpackets of q slices each
    unit = n_sp * q
    padded_sf = unit * (-(-placement.subfile_bytes // unit))
    sp_bytes = padded_sf // n_sp

    codewords = {}
    for i, groups_i in enumerate(plan.groups):
        for T in groups_i:
            x = b"\x00" * sp_bytes
            for k in T:
                P = tuple(u for u in T if u != k)
                j = placement.subset_index(P)
                sigma = plan.schedule[(i, T, k)]
                sf = _padded_subfile(placement, reqs[k], j, padded_sf)
                x = _xor(x, sf[sigma * sp_bytes : (sigma + 1) * sp_bytes])
            codewords[(i, T)] = x
    return CodewordSet(plan, reqs, sp_bytes, padded_sf, codewords)


def verify_decode(user: int, codewords: CodewordSet, placement: PlacementMap,
                  requests=None) -> bytes:
    """Reconstruct a user's requested file from its codewords and cache.

    The user strips every cached subpacket out of each codeword addressed
    to one of its groups, collects the fresh subpackets of its own file,
    and stitches them together with the cached subfiles.  Raises
    DeliveryError naming the missing (subset, subpacket) pairs if any
    codeword the schedule promises is absent.
    """
    plan = codewords.plan
    config = plan.config
    reqs = _normalize_requests(config, requests) if requests is not None else codewords.requests
    want = reqs[user]
    sp_bytes = codewords.subpacket_bytes
    padded_sf = codewords.padded_subfile_bytes

    recovered: dict = {}
    missing = []
    for i, T, P, sigma in plan.slots_for_user(user):
        x = codewords.codewords.get((i, T))
        if x is None:
            missing.append((P, sigma))
            continue
        for j_user in T:
            if j_user == user:
                continue
            Pj = tuple(u for u in T if u != j_user)
            idx = placement.subset_index(Pj)
            sj = plan.schedule[(i, T, j_user)]
            sf = _padded_subfile(placement, reqs[j_user], idx, padded_sf)
            x = _xor(x, sf[sj * sp_bytes : (sj + 1) * sp_bytes])
        recovered[(placement.subset_index(P), sigma)] = x

    if missing:
        raise DeliveryError(
            f"user {user}: {len(missing)} subpackets undeliverable, first {missing[0]}",
            missing=missing,
        )

    pieces = []
    n_sp = plan.n_subpackets
    for j, P in enumerate(placement.subsets):
        if user in P:
            sf = placement.subfiles[(want, j)]
        else:
            sf = b"".join(recovered[(j, s)] for s in range(n_sp))[: placement.subfile_bytes]
        pieces.append(sf)
    return b"".join(pieces)[: placement.file_bytes]


# ---------------------------------------------------------------------------
# Audits and text dumps
# ---------------------------------------------------------------------------

def freshness_audit(plan: DeliveryPlan) -> dict:
    """Count scheduled (user, subset, sigma) triples against the demand set.

    Returns a dict with duplicate and missing counts; both are zero for
    any plan built by plan_transmissions.
    """
    K, t = plan.config.K, plan.config.t
    n_sp = plan.n_subpackets
    seen: dict = {}
    dup = 0
    for i, groups_i in enumerate(plan.groups):
        for T in groups_i:
            for k in T:
                P = tuple(u for u in T if u != k)
                key = (k, P, plan.schedule[(i, T, k)])
                if key in seen:
                    dup += 1
                seen[key] = (i, T)
    demand = {
        (k, P, s)
        for k in range(K)
        for P in itertools.combinations(range(K), t)
        if k not in P
        for s in range(n_sp)
    }
    missing = demand - set(seen)
    extra = set(seen) - demand
    return {
        "duplicates": dup,
        "missing": len(missing),
        "unexpected": len(extra),
        "scheduled": len(seen),
        "demanded": len(demand),
    }


def _fmt_subset(P) -> str:
    return ",".join(str(u) for u in P) if P else "-"


def dump_plan(plan: DeliveryPlan) -> str:
    """Plan as line-oriented text: one 'transmission' header per serving subset,
    then one 'slot' line per scheduled subpacket (user, source subset, index)."""
    c = plan.config
    lines = [
        f"plan K={c.K} N={c.N} t={c.t} omega={plan.omega} beta={plan.beta} "
        f"q={plan.q} subpackets={plan.n_subpackets} transmissions={plan.n_transmissions}"
    ]
    for i, S in enumerate(plan.serving_subsets):
        lines.append(f"transmission {i} subset={_fmt_subset(S)}")
        for T in plan.groups[i]:
            for k in T:
                P = tuple(u for u in T if u != k)
                lines.append(
                    f"slot group={_fmt_subset(T)} user={k} "
                    f"subset={_fmt_subset(P)} sigma={plan.schedule[(i, T, k)]}"
                )
    return "\n".join(lines) + "\n"


def dump_codewords(cw: CodewordSet) -> str:
    """Codewords as text: per transmission, one 'codeword' line per group with payload hex."""
    plan = cw.plan
    lines = [
        f"codewords requests={_fmt_subset(cw.requests)} "
        f"subpacket_bytes={cw.subpacket_bytes} q={plan.q}"
    ]
    for i, S in enumerate(plan.serving_subsets):
        lines.append(f"transmission {i} subset={_fmt_subset(S)}")
        for T in plan.groups[i]:
            sigmas = ",".join(str(plan.schedule[(i, T, k)]) for k in T)
            lines.append(
                f"codeword group={_fmt_subset(T)} sigmas={sigmas} "
                f"payload={cw.codewords[(i, T)].hex()}"
            )
    return "\n".join(lines) + "\n"
