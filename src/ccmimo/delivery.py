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
import numbers
from dataclasses import dataclass, field
from math import comb
from typing import Mapping, Sequence

from .channel import require_count
from .config import NetworkConfig
from .errors import DeliveryError, InputError, PlanError


def subpacketization(K: int, t: int, omega: int) -> int:
    """Number of equal pieces each file is cut into for a given serving-set size.

    C(K,t) subfiles per file, each further split into C(K-t-1, omega-t-1)
    subpackets so that every transmission delivers fresh data.
    """
    require_count(0, K, t=t)
    require_count(t + 1, K + 1, omega=omega)
    return comb(K, t) * comb(K - t - 1, omega - t - 1)


def _t_subsets(config: NetworkConfig) -> tuple[tuple[int, ...], ...]:
    """The t-subsets of users in lexicographic order; subfile j is tagged
    with the j-th one."""
    return tuple(itertools.combinations(range(config.K), config.t))


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
        require_count(0, self.config.K, user=user)
        return tuple(
            (n, j)
            for n in range(self.config.N)
            for j, P in enumerate(self.subsets)
            if user in P
        )

    def cached_bytes(self, user: int) -> int:
        return sum(len(self.subfiles[key]) for key in self.cache_of(user))


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

    subsets = _t_subsets(config)
    n_subfiles = len(subsets)
    subfile_bytes = -(-file_bytes // n_subfiles)  # ceil division
    padded = [f.ljust(subfile_bytes * n_subfiles, b"\x00") for f in library]
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

    ``schedule`` holds one entry ``(i, T, members)`` per codeword, in plan
    order: the group-T codeword of transmission i carries, for each member
    ``(k, j, sigma)``, subpacket sigma of subfile j (tagged with the
    t-subset T\\{k}) of user k's requested file.  Members follow the order
    of T.  Indices are assigned by a running counter per (user, subfile)
    in plan order, so each demanded subpacket is scheduled exactly once
    over the full plan.
    """

    config: NetworkConfig
    omega: int
    beta: int
    q: int
    serving_subsets: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[tuple[int, ...], ...], ...]  # per transmission
    schedule: tuple = field(repr=False)

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


def plan_transmissions(config: NetworkConfig, omega: int, beta: int, q: int) -> DeliveryPlan:
    """Enumerate all serving subsets and schedule fresh subpackets for each group slot."""
    K, t, L = config.K, config.t, config.L
    require_count(1, omega=omega, beta=beta, q=q)
    if not t + 1 <= omega <= t + L:
        raise PlanError(f"serving-set size {omega} outside [{t + 1}, {t + L}]")
    if omega > K:
        raise PlanError(f"serving-set size {omega} exceeds user count {K}")
    if q * comb(omega - 1, t) < beta:
        raise PlanError(
            f"q={q} substreams cannot carry beta={beta} streams per user "
            f"(q*C({omega - 1},{t}) = {q * comb(omega - 1, t)} < {beta})"
        )

    serving = tuple(itertools.combinations(range(K), omega))
    groups = tuple(tuple(itertools.combinations(S, t + 1)) for S in serving)

    subfile_of = {P: j for j, P in enumerate(_t_subsets(config))}
    counter: dict = {}
    schedule = []
    for i, groups_i in enumerate(groups):
        for T in groups_i:
            members = []
            for m, k in enumerate(T):
                j = subfile_of[T[:m] + T[m + 1 :]]
                sigma = counter.get((k, j), 0)
                counter[(k, j)] = sigma + 1
                members.append((k, j, sigma))
            schedule.append((i, T, tuple(members)))

    return DeliveryPlan(config, omega, beta, q, serving, groups, tuple(schedule))


# ---------------------------------------------------------------------------
# Codewords
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CodewordSet:
    """XOR codewords of a full delivery round, one per (transmission, group).

    Subpackets are sized so every subfile, zero-padded, splits into
    ``n_subpackets`` of them, and every codeword splits evenly into q
    substream payloads.
    """

    plan: DeliveryPlan
    requests: tuple[int, ...]
    subpacket_bytes: int
    codewords: dict = field(repr=False)


def _normalize_requests(config: NetworkConfig, requests) -> tuple[int, ...]:
    if isinstance(requests, Mapping):
        if bad := set(requests) ^ set(range(config.K)):
            raise InputError(f"requests miss or name unknown user(s) {sorted(bad, key=repr)}")
        requests = [requests[k] for k in range(config.K)]
    requests = tuple(requests)
    if len(requests) != config.K:
        raise InputError(f"need one request per user, got {len(requests)} for K={config.K}")
    for k, r in enumerate(requests):
        if isinstance(r, bool) or not isinstance(r, numbers.Integral) or not 0 <= r < config.N:
            raise InputError(f"user {k} requests unknown file {r!r} (library has {config.N})")
    return tuple(int(r) for r in requests)


def _subpacket(placement: PlacementMap, n: int, j: int, sigma: int, size: int) -> int:
    """Subpacket sigma of subfile (n, j) as a little-endian integer.

    The last subpackets of a subfile may run past its end; the short
    slice reads as if zero-padded to ``size`` bytes.
    """
    return int.from_bytes(placement.subfiles[(n, j)][sigma * size : (sigma + 1) * size],
                          "little")


def build_codewords(plan: DeliveryPlan, requests, placement: PlacementMap) -> CodewordSet:
    """XOR together the scheduled subpackets of every multicast group."""
    reqs = _normalize_requests(plan.config, requests)
    # smallest subpacket that covers a subfile in n_sp pieces of q equal slices
    sp_bytes = plan.q * -(-placement.subfile_bytes // (plan.n_subpackets * plan.q))

    codewords = {}
    for i, T, members in plan.schedule:
        x = 0
        for k, j, sigma in members:
            x ^= _subpacket(placement, reqs[k], j, sigma, sp_bytes)
        codewords[(i, T)] = x.to_bytes(sp_bytes, "little")
    return CodewordSet(plan, reqs, sp_bytes, codewords)


def verify_decode(user: int, codewords: CodewordSet, placement: PlacementMap) -> bytes:
    """Reconstruct a user's requested file from its codewords and cache.

    The user strips every cached subpacket out of each codeword addressed
    to one of its groups, collects the fresh subpackets of its own file,
    and stitches them together with the cached subfiles.  Raises
    DeliveryError naming the missing (subset, subpacket) pairs if any
    codeword the schedule promises is absent.
    """
    plan = codewords.plan
    require_count(0, plan.config.K, user=user)
    reqs = codewords.requests
    sp_bytes = codewords.subpacket_bytes

    recovered: dict = {}
    missing = []
    for i, T, members in plan.schedule:
        if user not in T:
            continue
        _, mine, sigma = members[T.index(user)]
        x = codewords.codewords.get((i, T))
        if x is None:
            missing.append((placement.subsets[mine], sigma))
            continue
        x = int.from_bytes(x, "little")
        for k, j, s in members:
            if k != user:
                x ^= _subpacket(placement, reqs[k], j, s, sp_bytes)
        recovered[(mine, sigma)] = x.to_bytes(sp_bytes, "little")

    if missing:
        raise DeliveryError(
            f"user {user}: {len(missing)} subpackets undeliverable, first {missing[0]}",
            missing=missing,
        )

    pieces = []
    n_sp = plan.n_subpackets
    for j, P in enumerate(placement.subsets):
        if user in P:
            sf = placement.subfiles[(reqs[user], j)]
        else:
            sf = b"".join(recovered[(j, s)] for s in range(n_sp))[: placement.subfile_bytes]
        pieces.append(sf)
    return b"".join(pieces)[: placement.file_bytes]


# ---------------------------------------------------------------------------
# Audits and text dumps
# ---------------------------------------------------------------------------

def freshness_audit(plan: DeliveryPlan) -> dict:
    """Count scheduled (user, subfile, sigma) triples against the demand set.

    Returns a dict with duplicate and missing counts; both are zero for
    any plan built by plan_transmissions.
    """
    seen = set()
    dup = 0
    for _, _, members in plan.schedule:
        for key in members:
            dup += key in seen
            seen.add(key)
    demand = {
        (k, j, s)
        for k in range(plan.config.K)
        for j, P in enumerate(_t_subsets(plan.config))
        if k not in P
        for s in range(plan.n_subpackets)
    }
    return {
        "duplicates": dup,
        "missing": len(demand - seen),
        "unexpected": len(seen - demand),
        "scheduled": len(seen),
        "demanded": len(demand),
    }


def _fmt_subset(P) -> str:
    return ",".join(str(u) for u in P) if P else "-"


def _transmissions(plan: DeliveryPlan):
    """The schedule split by transmission: (i, 'transmission' header, entries)."""
    for i, entries in itertools.groupby(plan.schedule, key=lambda e: e[0]):
        yield i, f"transmission {i} subset={_fmt_subset(plan.serving_subsets[i])}", entries


def dump_plan(plan: DeliveryPlan) -> str:
    """Plan as line-oriented text: one 'transmission' header per serving subset,
    then one 'slot' line per scheduled subpacket (user, source subset, index)."""
    c = plan.config
    subsets = _t_subsets(c)
    lines = [
        f"plan K={c.K} N={c.N} t={c.t} omega={plan.omega} beta={plan.beta} "
        f"q={plan.q} subpackets={plan.n_subpackets} transmissions={plan.n_transmissions}"
    ]
    for _, header, entries in _transmissions(plan):
        lines.append(header)
        for _, T, members in entries:
            for k, j, sigma in members:
                lines.append(
                    f"slot group={_fmt_subset(T)} user={k} "
                    f"subset={_fmt_subset(subsets[j])} sigma={sigma}"
                )
    return "\n".join(lines) + "\n"


def dump_codewords(cw: CodewordSet) -> str:
    """Codewords as text: per transmission, one 'codeword' line per group with payload hex."""
    plan = cw.plan
    lines = [
        f"codewords requests={_fmt_subset(cw.requests)} "
        f"subpacket_bytes={cw.subpacket_bytes} q={plan.q}"
    ]
    for i, header, entries in _transmissions(plan):
        lines.append(header)
        for _, T, members in entries:
            sigmas = ",".join(str(sigma) for _, _, sigma in members)
            lines.append(
                f"codeword group={_fmt_subset(T)} sigmas={sigmas} "
                f"payload={cw.codewords[(i, T)].hex()}"
            )
    return "\n".join(lines) + "\n"
