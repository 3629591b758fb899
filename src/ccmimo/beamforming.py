"""Transmit/receive beamformer design for one multicast transmission.

A transmission serves an omega-user subset with one codeword per
(t+1)-user group, each split into q substreams with its own transmit
vector.  This module provides the LMMSE receive beamformers, per-stream
SINR/MSE bookkeeping, the alternating closed-form/subgradient solver
that maximizes the worst-user sum rate under a total power budget, and a
zero-forcing baseline.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import derive_seed, require_finite, require_positive, seeded_rng
from .errors import ConfigError, SolverError

LN2 = math.log(2.0)
MU_FLOOR = 1e-12
EPS_FLOOR = 1e-30


def _typed_linalg(fn):
    """``fn`` with numpy's LinAlgError re-raised as a SolverError."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except np.linalg.LinAlgError as err:
            raise SolverError(f"linear algebra failed in {fn.__name__}: {err}") from err
    return wrapper


# ---------------------------------------------------------------------------
# Stream layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StreamLayout:
    """Group structure of one transmission.

    ``users`` are global user ids; ``groups`` hold local indices into
    ``users``.  Stream s carries substream s % q of group s // q.
    """

    users: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    q: int

    def __post_init__(self):
        nU, nG, q = len(self.users), len(self.groups), self.q
        member_groups = np.zeros((nU, nG), dtype=bool)
        for g, T in enumerate(self.groups):
            for u in T:
                member_groups[u, g] = True
        object.__setattr__(self, "n_users", nU)
        object.__setattr__(self, "n_groups", nG)
        object.__setattr__(self, "n_streams", nG * q)
        object.__setattr__(self, "member_groups", member_groups)
        object.__setattr__(self, "group_counts", member_groups.sum(axis=1).astype(float))
        object.__setattr__(self, "member", np.repeat(member_groups, q, axis=1))
        object.__setattr__(self, "stream_group", np.repeat(np.arange(nG), q))
        object.__setattr__(self, "stream_slot", np.tile(np.arange(q), nG))


def layout_for_subset(plan, i: int) -> StreamLayout:
    """Stream layout of transmission i of a delivery plan."""
    users = plan.serving_subsets[i]
    pos = {k: j for j, k in enumerate(users)}
    groups = tuple(tuple(pos[k] for k in T) for T in plan.groups[i])
    return StreamLayout(users, groups, plan.q)


# ---------------------------------------------------------------------------
# Receivers, SINR, MSE
# ---------------------------------------------------------------------------

@_typed_linalg
def lmmse_receivers(W, H, N0, member):
    """MMSE receive vectors for every (user, stream) pair.

    W: (n_streams, L) transmit vectors; H: (n_users, G, L); member:
    (n_users, n_streams) mask.  Returns (n_users, n_streams, G), with the
    rows outside ``member`` zeroed.
    """
    require_positive(N0=N0)
    nU, G, _ = H.shape
    heff = np.einsum("ugl,sl->ugs", H, W)
    cov = heff @ heff.conj().transpose(0, 2, 1) + N0 * np.eye(G)
    U = np.linalg.solve(cov, heff).transpose(0, 2, 1)  # (nU, nS, G)
    return np.where(member[:, :, None], U, 0.0)


def _cross_gains(W, H, U):
    heff = np.einsum("ugl,sl->ugs", H, W)
    return np.einsum("usg,ugt->ust", U.conj(), heff)  # P[u,s,s'] = u_s^H H_u w_s'


def _power_terms(P, U, N0):
    """Signal, interference and noise power of every stream at every user."""
    p2 = np.abs(P) ** 2
    sig = np.einsum("uss->us", p2)
    return sig, p2.sum(axis=2) - sig, N0 * np.sum(np.abs(U) ** 2, axis=2)


def sinr(W, H, U, N0, P=None):
    """Per-stream SINR at every user; interference sums over all other streams.

    ``P``, when given, holds the cross-gains of (W, U) already computed.
    """
    if P is None:
        P = _cross_gains(W, H, U)
    sig, interf, noise = _power_terms(P, U, N0)
    den = interf + noise
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, sig / den, 0.0)


def mse(W, H, U, N0, P=None):
    """Quadratic-form estimation error of every stream at every user.

    Equals 1/(1+SINR) exactly when U came from lmmse_receivers for this W.
    ``P``, when given, holds the cross-gains of (W, U) already computed.
    """
    if P is None:
        P = _cross_gains(W, H, U)
    _, interf, noise = _power_terms(P, U, N0)
    return np.abs(1.0 - np.einsum("uss->us", P)) ** 2 + interf + noise


# ---------------------------------------------------------------------------
# Rate objective
# ---------------------------------------------------------------------------

def per_user_rates(W, H, layout, N0, U=None, P=None):
    """Each served user's sum over substream slots of its worst group rate."""
    if U is None:
        U = lmmse_receivers(W, H, N0, layout.member)
    g = sinr(W, H, U, N0, P=P)
    vals = np.log2(1.0 + g).reshape(layout.n_users, layout.n_groups, layout.q)
    masked = np.where(layout.member_groups[:, :, None], vals, np.inf)
    return masked.min(axis=1).sum(axis=1)


def rate_objective(W, H, layout, N0, U=None, P=None) -> float:
    """Worst-user rate of one transmission, the quantity the solver maximizes."""
    return float(per_user_rates(W, H, layout, N0, U=U, P=P).min())


# ---------------------------------------------------------------------------
# Closed-form primal/dual updates
# ---------------------------------------------------------------------------

def closed_form_mu(lam, U, P_T) -> float:
    """Power-constraint multiplier from the dual stationarity identity."""
    return float(np.sum(lam * np.sum(np.abs(U) ** 2, axis=2))) / P_T


def tx_power(W) -> float:
    return float(np.sum(np.abs(W) ** 2))


@_typed_linalg
def solve_tx_with_power(U, lam, H, P_T):
    """Transmit update with the multiplier chosen to respect the power budget.

    The multiplier comes from the dual identity (closed_form_mu); when the
    resulting power overshoots the budget, bisection finds the multiplier
    putting total power at P_T (within 1e-6 relative) instead.  Returns
    (W, mu, power, stationarity residual).
    """
    B = np.einsum("ugl,usg->usl", H.conj(), U)
    A = np.einsum("us,usl,usm->lm", lam, B, B.conj())
    rhs = np.einsum("us,usl->sl", lam, B)  # (nS, L)
    rhs_norm = np.linalg.norm(rhs, axis=1)
    mu = max(closed_form_mu(lam, U, P_T), MU_FLOOR)

    if not np.any(rhs_norm > 0):
        return np.zeros_like(rhs), mu, 0.0, 0.0

    evals, Q = np.linalg.eigh(A)
    evals = np.maximum(evals, 0.0)
    Rt = Q.conj().T @ rhs.T  # (L, nS)
    R2 = np.abs(Rt) ** 2

    def power_of(mu):
        return float(np.sum(R2 / (evals + mu)[:, None] ** 2))

    power = power_of(mu)
    if power > P_T * (1 + 1e-6):
        # bisection on [MU_FLOOR, hi]; power is non-increasing in mu, so
        # power_of(MU_FLOOR) > P_T as well
        lo, hi = MU_FLOOR, 1.0
        for _ in range(200):
            if power_of(hi) <= P_T:
                break
            hi *= 2.0
        else:
            raise SolverError(f"power bisection bracket failed: power({hi}) > {P_T}")
        for _ in range(200):
            mu = 0.5 * (lo + hi)
            power = power_of(mu)
            # half the documented 1e-6 relative window, so the power budget
            # invariant holds strictly even after float rounding
            if abs(power - P_T) <= 5e-7 * P_T:
                break
            lo, hi = (mu, hi) if power > P_T else (lo, mu)
        else:
            raise SolverError(f"power bisection did not converge: bracket [{lo}, {hi}], "
                              f"power {power}, target {P_T}")

    W = (Q @ (Rt / (evals + mu)[:, None])).T
    resid = np.linalg.norm(W @ (A + mu * np.eye(A.shape[0])).T - rhs, axis=1)
    rel = float(np.max(resid[rhs_norm > 0] / rhs_norm[rhs_norm > 0]))
    return W, mu, power, rel


def update_rates(v, eps, layout):
    """Per-(user, slot) rates as dual-weighted means of the group log rates,
    and the common rate as the mean over users of their slot sums."""
    nU, nG, q = layout.n_users, layout.n_groups, layout.q
    eps_safe = np.clip(eps, EPS_FLOOR, None)
    linv = np.where(layout.member, -np.log2(eps_safe), 0.0)
    v_r = np.where(layout.member, v, 0.0).reshape(nU, nG, q)
    l_r = linv.reshape(nU, nG, q)
    den = v_r.sum(axis=1)
    num = (v_r * l_r).sum(axis=1)
    if np.any(den <= 0):
        warnings.warn("all dual weights of a (user, slot) pair hit zero; using uniform weights",
                      RuntimeWarning, stacklevel=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(den > 0, num / den, l_r.sum(axis=1) / layout.group_counts[:, None])
    return r, float(np.mean(r.sum(axis=1)))


def update_duals(v, eps, target, eta, layout):
    """Projected subgradient step on the per-stream dual weights.

    ``target`` is the common rate or an (n_users, n_streams) rate per stream.
    After the step each user's weights are renormalized so their sum is
    exactly q, and the MSE multipliers are refreshed from the weights.
    """
    member = layout.member
    eps_safe = np.clip(eps, EPS_FLOOR, None)
    grad = target + np.log2(eps_safe)
    v2 = np.where(member, np.maximum(0.0, v + eta * grad), 0.0)
    tot = v2.sum(axis=1)
    dead = tot <= 0
    if np.any(dead):
        warnings.warn("dual weights of a user collapsed to zero; resetting to uniform",
                      RuntimeWarning, stacklevel=2)
        v2[dead] = np.where(member[dead], 1.0 / layout.group_counts[dead, None], 0.0)
        tot = v2.sum(axis=1)
    v2 = v2 * (layout.q / tot)[:, None]
    lam = np.where(member, v2 / (eps_safe * LN2), 0.0)
    return v2, lam


# ---------------------------------------------------------------------------
# Alternating solver
# ---------------------------------------------------------------------------

MAX_INNER = 20  # inner iterations per receiver refresh
STEP_PER_SLOT = 0.1  # dual subgradient step, per substream slot
TOL = 1e-4  # objective change counted as no progress, inner and outer
PATIENCE = 3  # consecutive sub-tolerance refreshes before stopping
USER_WEIGHT_STEP = 0.5  # exponentiated step of the per-user priority weights

# solver diagnostics that hold per run; a merge keeps the worst value
INVARIANT_KEYS = ("power_overrun", "dual_norm_err", "stationarity", "outer_decrease")


def merge_invariants(into: dict, diag: dict):
    """Fold the invariant diagnostics of ``diag`` into ``into``, worst value wins."""
    for key in INVARIANT_KEYS:
        into[key] = max(into[key], diag[key])


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the alternating solver; defaults suit desk-scale scenarios."""

    max_outer: int = 30
    gradient: str = "common_rate"  # or "per_user"
    n_restarts: int = 1
    init_seed: int = 0
    keep_trace: bool = True

    def __post_init__(self):
        if self.gradient not in ("common_rate", "per_user"):
            raise ConfigError(f"gradient must be common_rate or per_user, got {self.gradient!r}")
        for name, low in (("max_outer", 1), ("n_restarts", 1), ("init_seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass(eq=False)
class BeamformerState:
    """Final iterates and diagnostics of one solver run."""

    W: np.ndarray
    U: np.ndarray
    user_rates: np.ndarray  # per-user totals from the final SINRs
    objective: float
    power: float
    diagnostics: dict
    trace: list = field(repr=False, default_factory=list)


@_typed_linalg
def _group_directions(layout: StreamLayout, H):
    """Unit direction per stream: substream j of a group along the j-th right
    singular vector of the group's stacked channel (the last one reused)."""
    dirs = np.zeros((layout.n_streams, H.shape[2]), dtype=complex)
    for g, T in enumerate(layout.groups):
        _, _, Vh = np.linalg.svd(np.vstack([H[u] for u in T]))
        for j in range(layout.q):
            dirs[g * layout.q + j] = Vh[min(j, Vh.shape[0] - 1)].conj()
    return dirs


def group_svd_init(layout: StreamLayout, H, P_T):
    """Structured start: each substream along a right singular vector of its
    group's stacked channel, equal total power P_T."""
    W = _group_directions(layout, H)
    return W * np.sqrt(P_T / tx_power(W))


def _optimize_single(layout, H, P_T, N0, opt, W):
    member = layout.member
    nU = layout.n_users
    eta = STEP_PER_SLOT * layout.q

    v = np.where(member, 1.0 / nU, 0.0)
    lam = v.copy()
    z = np.full(nU, 1.0 / nU)  # per-user priority weights
    trace: list = []
    diag = dict(dict.fromkeys(INVARIANT_KEYS, 0.0), outer_iterations=0)

    # the dual step's target, fixed per run: the common rate or each stream's slot rate
    target_of = {"common_rate": lambda rates, r_c: r_c,
                 "per_user": lambda rates, r_c: rates[:, layout.stream_slot]}[opt.gradient]

    def check_finite(name, arr):
        if not np.all(np.isfinite(arr)):
            raise SolverError(f"non-finite values in {name}")

    obj_prev = -math.inf  # so the first step is neither a decrease nor a stall
    stall = 0
    try:
        # the step past max_outer only scores the last inner loop's transmit set
        for outer in range(1, opt.max_outer + 2):
            U = lmmse_receivers(W, H, N0, member)
            user_totals = per_user_rates(W, H, layout, N0, U=U)
            obj = float(user_totals.min())
            diag["outer_decrease"] = max(diag["outer_decrease"], obj_prev - obj)
            stall = stall + 1 if abs(obj - obj_prev) < TOL else 0
            diag["outer_iterations"] = min(outer, opt.max_outer)
            if outer > opt.max_outer or stall >= PATIENCE:
                break
            obj_prev = obj

            best_inner, best_W = obj, W
            inner_prev = -math.inf
            for inner in range(1, MAX_INNER + 1):
                lam_eff = lam * (z * nU)[:, None]
                W_it, mu, power, resid = solve_tx_with_power(U, lam_eff, H, P_T)
                check_finite("transmit vectors", W_it)
                diag["stationarity"] = max(diag["stationarity"], resid)
                diag["power_overrun"] = max(diag["power_overrun"], (power - P_T) / P_T)

                P_it = _cross_gains(W_it, H, U)  # shared by the MSEs and the rate
                eps = mse(W_it, H, U, N0, P=P_it)
                check_finite("stream MSEs", eps)
                rates, r_c = update_rates(v, eps, layout)
                v, lam = update_duals(v, eps, target_of(rates, r_c), eta, layout)
                norm_err = float(np.max(np.abs(v.sum(axis=1) / layout.q - 1.0)))
                diag["dual_norm_err"] = max(diag["dual_norm_err"], norm_err)
                # exponentiated subgradient on the common-rate constraint: users
                # below the common rate gain priority (one user's z stays 1)
                z = z * np.exp(USER_WEIGHT_STEP * (r_c - rates.sum(axis=1)))
                z = np.maximum(z, 1e-12)
                z /= z.sum()

                obj_in = rate_objective(W_it, H, layout, N0, U=U, P=P_it)
                if opt.keep_trace:
                    trace.append({
                        "outer": outer, "inner": inner, "objective": obj_in,
                        "power": power, "mu": mu, "stationarity": resid, "r_c": r_c,
                    })
                if obj_in > best_inner:
                    best_inner, best_W = obj_in, W_it
                if abs(obj_in - inner_prev) < TOL:
                    break
                inner_prev = obj_in
            W = best_W
    except SolverError as err:
        # a failure converted from numpy carries the iterations run so far
        err.trace = err.trace or list(trace)
        raise
    return BeamformerState(W=W, U=U, user_rates=user_totals, objective=obj,
                           power=tx_power(W), diagnostics=diag, trace=trace)


def optimize(layout: StreamLayout, H, P_T, N0, options: SolverOptions | None = None):
    """Alternating maximization of the worst-user rate of one transmission.

    Outer iterations refresh the MMSE receive vectors for the incumbent
    transmit set; inner iterations run the closed-form transmit update,
    quadratic-MSE evaluation, weighted rate aggregation, and projected
    subgradient dual steps at fixed receivers.  The incumbent only ever
    moves to an inner iterate that improves the worst-user rate under
    the current receivers, so the objective seen after each receiver
    refresh is non-decreasing.  Restart r starts from the group-SVD
    directions (r=0), the zero-forcing design (r=1) or a random draw seeded
    by derive_seed(init_seed, r); the best result is kept, and invariant
    diagnostics are merged across restarts.

    Returns a BeamformerState whose ``objective`` is the worst-user rate
    of the final transmit vectors under their own LMMSE receivers.  A channel
    with NaN or inf entries is an InputError.
    """
    opt = options or SolverOptions()
    require_positive(P_T=P_T, N0=N0)
    require_finite(H)
    if H.shape[0] != layout.n_users:
        raise ConfigError(f"channel set has {H.shape[0]} users, layout expects {layout.n_users}")

    best = None
    merged = dict(dict.fromkeys(INVARIANT_KEYS, 0.0), outer_iterations=0)
    for r in range(opt.n_restarts):
        # two structured starts (group-SVD, zero-forcing), then seeded random
        # ones; the nulling start matters at high SNR where interference dominates
        if r == 0:
            W0 = group_svd_init(layout, H, P_T)
        elif r == 1:
            W0 = zf_beamformers(layout, H, P_T, N0).W
        else:
            rng = seeded_rng(derive_seed(opt.init_seed, r))
            shape = (layout.n_streams, H.shape[2])
            W0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            W0 *= np.sqrt(P_T / tx_power(W0))
        state = _optimize_single(layout, H, P_T, N0, opt, W0)
        merge_invariants(merged, state.diagnostics)
        merged["outer_iterations"] += state.diagnostics["outer_iterations"]
        if best is None or state.objective > best.objective:
            best = state
    best.diagnostics.update(merged)
    return best


# ---------------------------------------------------------------------------
# Zero-forcing baseline
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ZfResult:
    """Zero-forcing transmit set with the receivers used to build it."""

    W: np.ndarray
    mf_receivers: np.ndarray  # matched-filter receivers the nulling was built on
    fallback: tuple[bool, ...]  # streams that fell back to regularized inversion


@_typed_linalg
def zf_beamformers(layout: StreamLayout, H, P_T, N0) -> ZfResult:
    """One-shot nulling baseline: matched-filter receivers along the group-SVD
    directions, then per-stream null-space transmit vectors.

    Each stream's transmit vector is forced orthogonal to the effective
    rows of every other stream's intended receivers; when that null
    space is empty the stream falls back to regularized inversion with
    ridge N0 * n_streams / P_T.  Streams get equal power P_T / n_streams.
    Raises SolverError when a stream's group has no channel gain along its
    direction (an all-zero channel, say), which leaves nothing to normalize.
    """
    require_positive(P_T=P_T, N0=N0)
    require_finite(H)
    nU, nS = layout.n_users, layout.n_streams
    G, L = H.shape[1], H.shape[2]

    dirs = _group_directions(layout, H)
    mf = np.zeros((nU, nS, G), dtype=complex)
    for s in range(nS):
        for u in layout.groups[layout.stream_group[s]]:
            h = H[u] @ dirs[s]
            n = np.linalg.norm(h)
            mf[u, s] = h / n if n > 0 else h

    ridge = N0 * nS / P_T
    B = np.einsum("ugl,usg->usl", H.conj(), mf)  # H_u^H u_{u,s}
    A_reg = np.einsum("usl,usm->lm", B, B.conj()) + ridge * np.eye(L)

    W = np.zeros((nS, L), dtype=complex)
    fallback = []
    per_stream = P_T / nS
    for s in range(nS):
        rows = [mf[u, s2].conj() @ H[u]
                for s2 in range(nS) if s2 != s
                for u in layout.groups[layout.stream_group[s2]]]
        d = sum(H[u].conj().T @ mf[u, s] for u in layout.groups[layout.stream_group[s]])
        w = None
        if rows:
            C = np.array(rows)
            _, svals, Vh = np.linalg.svd(C)
            tol = max(C.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
            rank = int(np.sum(svals > tol))
            null = Vh[rank:].conj().T
            if null.shape[1] > 0:
                w = null @ (null.conj().T @ d)
                if np.linalg.norm(w) <= 1e-9 * np.linalg.norm(d):
                    w = None
        else:
            w = d.astype(complex)
        fallback.append(w is None)
        if w is None:
            w = np.linalg.solve(A_reg, d)
        norm = np.linalg.norm(w)
        if not norm > 0:
            raise SolverError(f"zero-forcing stream {s} has no transmit direction: "
                              f"its group's channel has no gain along it")
        W[s] = w * np.sqrt(per_stream) / norm

    return ZfResult(W=W, mf_receivers=mf, fallback=tuple(fallback))


def zf_leakage(result: ZfResult, layout: StreamLayout, H) -> float | None:
    """Worst residual cross-stream power at the receivers used for nulling.

    Only pairs actually nulled (streams built from a non-empty null
    space) are counted; returns None when every stream fell back.
    """
    leaks = [abs(result.mf_receivers[u, s2].conj() @ H[u] @ result.W[s]) ** 2
             for s in range(layout.n_streams) if not result.fallback[s]
             for s2 in range(layout.n_streams) if s2 != s
             for u in layout.groups[layout.stream_group[s2]]]
    return max(leaks, default=None)
