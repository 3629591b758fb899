"""Serving-set size and stream-count selection for maximum spatial DoF.

Picks how many users to serve per transmission (omega), how many
parallel streams each of them decodes (beta), and the substream factor q
that stretches the per-user multicast slots far enough to carry beta
streams.  DoF here means omega * beta: the number of interference-free
streams per transmission at high SNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, floor

from .channel import require_count
from .errors import PlanError


def stream_bound(L: int, G: int, t: int, omega: int) -> float:
    """Largest number of parallel streams a served user can decode.

    Capped by the receive dimensions G and by what the transmit side can
    keep separable across the omega-user serving set.
    """
    require_count(t + 1, t + L + 1, omega=omega)
    slots = comb(omega - 1, t)  # multicast slots per user per transmission
    return min(float(G), L * slots / (1.0 + (omega - t - 1) * slots))


def substream_count(beta: int, omega: int, t: int) -> int:
    """Smallest q with q * C(omega-1, t) >= beta."""
    slots = comb(omega - 1, t)
    return -(-beta // slots)


@dataclass(frozen=True)
class DofPlan:
    """One candidate operating point of the stream planner."""

    omega: int
    beta: int
    q: int
    dof: int
    beta_bound_real: float
    exact: bool  # beta divisible by the per-user slot count C(omega-1, t)


def _candidate(L: int, G: int, t: int, omega: int, beta=None, q=None) -> DofPlan:
    require_count(1, **{k: v for k, v in (("beta", beta), ("q", q)) if v is not None})
    bound = stream_bound(L, G, t, omega)
    slots = comb(omega - 1, t)
    cap = min(G, floor(bound))
    if beta is None:
        beta = min(cap, q * slots) if q is not None else cap
    elif beta > cap:
        raise PlanError(f"beta={beta} exceeds the feasible bound {cap} at omega={omega}")
    if beta < 1:
        raise PlanError(f"no feasible stream count at omega={omega} (bound {bound:.3f})")
    q = substream_count(beta, omega, t) if q is None else q
    if q * slots < beta:
        raise PlanError(f"q={q} cannot carry beta={beta} at omega={omega}")
    return DofPlan(omega, beta, q, omega * beta, bound, beta % slots == 0)


def scan_dof(L: int, G: int, t: int, beta=None, q=None) -> list[DofPlan]:
    """All feasible serving-set sizes, in increasing order, each with its best
    stream count or the pinned ``beta``/``q``."""
    require_count(1, L=L, G=G)
    require_count(0, t=t)
    out = []
    for omega in range(t + 1, t + L + 1):
        try:
            out.append(_candidate(L, G, t, omega, beta=beta, q=q))
        except PlanError:
            continue
    return out


def optimize_dof(L: int, G: int, t: int, omega=None, beta=None, q=None) -> DofPlan:
    """Best operating point: max DoF, ties broken toward smaller serving sets.

    Fixing ``omega`` restricts the scan to that serving-set size; fixing
    ``beta`` or ``q`` pins the stream count or substream factor (a fixed
    q caps beta at q * C(omega-1, t)).
    """
    require_count(1, L=L, G=G)
    require_count(0, t=t)
    if omega is not None:
        return _candidate(L, G, t, omega, beta=beta, q=q)
    # the scan runs up in omega, so the first maximum has the smallest one
    best = max(scan_dof(L, G, t, beta=beta, q=q), key=lambda c: c.dof, default=None)
    if best is None:
        raise PlanError(f"no feasible operating point for L={L}, G={G}, t={t}")
    return best


def format_scan_table(L: int, G: int, t: int) -> str:
    """Human-readable planner table, one row per candidate serving-set size."""
    rows = ["omega  bound    beta  q  dof  exact"]
    for c in scan_dof(L, G, t):
        rows.append(
            f"{c.omega:5d}  {c.beta_bound_real:7.3f}  {c.beta:4d}  {c.q}  {c.dof:3d}  "
            f"{'yes' if c.exact else 'no'}"
        )
    return "\n".join(rows)
