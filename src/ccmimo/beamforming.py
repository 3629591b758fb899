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
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import derive_seed, require_count, require_positive, seeded_rng
from .errors import ConfigError, InputError, SolverError

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
        require_count(1, q=q)
        require_count(0, nU, **{f"groups[{g}][{j}]": u for g, T in enumerate(self.groups)
                                for j, u in enumerate(T)})
        if not all(self.groups) or any(len(set(T)) < len(T) for T in self.groups) \
                or len(set().union(*self.groups)) < max(nU, 1):
            raise ConfigError(f"groups {self.groups} must cover {nU} users, non-empty and distinct")
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
    require_count(0, plan.n_transmissions, transmission=i)
    users = plan.serving_subsets[i]
    pos = {k: j for j, k in enumerate(users)}
    groups = tuple(tuple(pos[k] for k in T) for T in plan.groups[i])
    return StreamLayout(users, groups, plan.q)


def require_problem(layout: StreamLayout, H, P_T, N0):
    """The input check of every solve: P_T and N0 positive and finite, H a numeric array
    of finite entries (an InputError), and one (G, L) matrix in H per user of ``layout``."""
    require_positive(P_T=P_T, N0=N0)
    if not isinstance(H, np.ndarray) or H.dtype.kind not in "iufc":
        raise InputError(f"channel set must be a numeric array, got {getattr(H, 'dtype', type(H))}")
    if not np.all(np.isfinite(H)):
        raise InputError("channel matrices must be finite, found NaN or inf")
    if np.ndim(H) != 3 or len(H) != layout.n_users:
        raise ConfigError(f"channel set of shape {np.shape(H)} must be ({layout.n_users}, G, L)")


# ---------------------------------------------------------------------------
# Receivers, SINR, MSE
# ---------------------------------------------------------------------------

@_typed_linalg
def lmmse_receivers(W, H, N0, member):
    """MMSE receive vectors for every (user, stream) pair.

    W: (..., n_streams, L) transmit vectors; H: (n_users, G, L); member:
    (n_users, n_streams) mask.  Returns (..., n_users, n_streams, G), with the
    rows outside ``member`` zeroed.  Like the other solver-loop helpers, each
    entry of the leading batch axes gets the bits of an unbatched call.
    """
    require_positive(N0=N0)
    heff = np.einsum("ugl,...sl->...ugs", H, W)
    cov = heff @ heff.conj().swapaxes(-1, -2) + N0 * np.eye(H.shape[1])
    U = np.linalg.solve(cov, heff).swapaxes(-1, -2)  # (..., nU, nS, G)
    return np.where(member[:, :, None], U, 0.0)


def _sq_norms(U):
    return np.sum(np.abs(U) ** 2, axis=-1)  # |u|^2 of every (user, stream) receiver


def _receiver_terms(H, U):
    """B[u, s] = H_u^H u_{u,s} and |u_{u,s}|^2, fixed while the receivers are."""
    return np.einsum("ugl,...usg->...usl", H.conj(), U), _sq_norms(U)


def _power_terms(W, H, U, N0, noise=None):
    """Cross-gains P[u, s, s'] = u_s^H H_u w_s' and the signal, interference and
    noise power of every stream at every user; ``noise``, if given, is N0 |u|^2."""
    P = np.einsum("...usg,...ugt->...ust", U.conj(), np.einsum("ugl,...sl->...ugs", H, W))
    p2 = np.abs(P) ** 2
    sig = np.einsum("...uss->...us", p2)
    return P, sig, p2.sum(axis=-1) - sig, N0 * _sq_norms(U) if noise is None else noise


def sinr(W, H, U, N0, terms=None):
    """Per-stream SINR at every user; interference sums over all other streams.

    ``terms``, when given, holds _power_terms(W, H, U, N0) already computed.
    """
    _, sig, interf, noise = terms or _power_terms(W, H, U, N0)
    den = interf + noise
    return np.divide(sig, den, out=np.zeros_like(sig), where=den > 0)


def mse(W, H, U, N0, terms=None):
    """Quadratic-form estimation error of every stream at every user.

    Equals 1/(1+SINR) exactly when U came from lmmse_receivers for this W.
    ``terms``, when given, holds _power_terms(W, H, U, N0) already computed.
    """
    P, _, interf, noise = terms or _power_terms(W, H, U, N0)
    return np.abs(1.0 - np.einsum("...uss->...us", P)) ** 2 + interf + noise


# ---------------------------------------------------------------------------
# Rate objective
# ---------------------------------------------------------------------------

def per_user_rates(W, H, layout, N0, U=None, terms=None):
    """Each served user's sum over substream slots of its worst group rate."""
    if U is None:
        U = lmmse_receivers(W, H, N0, layout.member)
    g = sinr(W, H, U, N0, terms=terms)
    vals = np.log2(1.0 + g).reshape(*g.shape[:-1], layout.n_groups, layout.q)
    masked = np.where(layout.member_groups[:, :, None], vals, np.inf)
    return masked.min(axis=-2).sum(axis=-1)


def rate_objective(W, H, layout, N0) -> float:
    """Worst-user rate of one transmission, the quantity the solver maximizes."""
    return float(per_user_rates(W, H, layout, N0).min())


# ---------------------------------------------------------------------------
# Closed-form primal/dual updates
# ---------------------------------------------------------------------------

def closed_form_mu(lam, U, P_T) -> float:
    """Power-constraint multiplier from the dual stationarity identity."""
    return float(np.sum(lam * _sq_norms(U))) / P_T


def tx_power(W) -> float:
    return float(np.sum(np.abs(W) ** 2))


def _replayed(power_of, evals, R2, P_T, mu):
    """power_of for the bisection, run only inside a bracket (a, b) of the root of
    power = P_T, beyond which +inf or 0 stand in: power_of(a) and power_of(b) are
    checked outside the window P_T (1 -+ 5e-7) by a 1e-12 relative margin, else
    power_of is returned.  Newton on power**-0.5, concave and near linear in mu."""
    with np.errstate(all="ignore"):
        for _ in range(30):
            d = (evals + mu)[:, None]
            p, dp = np.sum(R2 / d ** 2), np.sum(R2 / d ** 3)  # power, -power'/2
            mu += p * (np.sqrt(p / P_T) - 1.0) / dp
            if not p > P_T * (1 + 1e-4):  # this last step lands within ~1e-8
                break
        half = 6e-7 * p / (2.0 * dp)  # power moves by ~6e-7 relative at a and b
        a, b = float(mu - half), float(mu + half)
        if power_of(a) > P_T * (1 + 5e-7) * (1 + 1e-12) \
                and power_of(b) < P_T * (1 - 5e-7) * (1 - 1e-12):
            return lambda m: math.inf if m <= a else 0.0 if m >= b else power_of(m)
    return power_of


def _tx_answer(A, rhs, rhs_norm, evals, Q, Rt, mu):
    """W = rhs (A + mu I)^-T by the eigenvectors of A, and its largest residual
    relative to a nonzero row of rhs (0 with none), over leading batch axes."""
    mu = np.asarray(mu)[..., None]
    W = (Q @ (Rt / (evals + mu)[..., None])).swapaxes(-1, -2)
    resid = np.linalg.norm(W @ (A + mu[..., None] * np.eye(A.shape[-1])).swapaxes(-1, -2) - rhs,
                           axis=-1)
    return W, np.divide(resid, rhs_norm, out=np.zeros_like(resid), where=rhs_norm > 0).max(axis=-1)


@_typed_linalg
def _tx_system(lam, B, u2, P_T):
    """The transmit update but for its multiplier search, over leading batch axes
    with the bits of unbatched calls (entry k is the ``rx`` of run k's
    solve_tx_with_power): A = sum lam B B^H, rhs, |rhs|, mu0 = max(closed_form_mu,
    MU_FLOOR), A's eigenvalues (floored at 0) and vectors Q, Rt = Q^H rhs^T,
    R2 = |Rt|^2, and at mu0 the set W, its power and its residual."""
    A = np.einsum("...us,...usl,...usm->...lm", lam, B, B.conj())
    rhs = np.einsum("...us,...usl->...sl", lam, B)  # (..., nS, L)
    rhs_norm = np.linalg.norm(rhs, axis=-1)
    mu = np.maximum(np.sum(lam * u2, axis=(-2, -1)) / P_T, MU_FLOOR)
    evals, Q = np.linalg.eigh(A)
    evals = np.maximum(evals, 0.0)
    Rt = Q.conj().swapaxes(-1, -2) @ rhs.swapaxes(-1, -2)  # (..., L, nS)
    R2 = np.abs(Rt) ** 2
    power = np.sum(R2 / (evals + mu[..., None])[..., None] ** 2, axis=(-2, -1))
    W, rel = _tx_answer(A, rhs, rhs_norm, evals, Q, Rt, mu)
    return A, rhs, rhs_norm, mu, evals, Q, Rt, R2, W, power, rel


def solve_tx_with_power(U, lam, H, P_T, rx=None):
    """Transmit update with the multiplier chosen to respect the power budget.

    The multiplier comes from the dual identity (closed_form_mu); when the
    resulting power overshoots the budget, bisection finds the multiplier
    putting total power at P_T (within 1e-6 relative) instead.  Returns
    (W, mu, power, stationarity residual).

    The rest is _tx_system, which the solver runs batched over its runs and
    passes as ``rx`` (by default it is built from U, lam and H).  Only the
    choice of the multiplier stays per run: most updates keep mu0 and return
    ``rx`` as it is, a search is a scalar loop of its own length, and wrappers
    of this function read one scalar multiplier per call.

    The bisection is replayed bit for bit: the same midpoints and decisions,
    with power_of run only inside the bracket (a, b) of _replayed.  power_of
    is non-increasing in mu, so beyond a or b the side is known and the window
    cannot be hit; the last midpoint is always evaluated.
    """
    A, rhs, rhs_norm, mu, evals, Q, Rt, R2, W, power, rel = \
        rx or _tx_system(lam, *_receiver_terms(H, U), P_T)
    mu, power = float(mu), float(power)
    if not power > P_T * (1 + 1e-6):
        return W, mu, power, float(rel)

    def power_of(mu):
        return float(np.sum(R2 / (evals + mu)[:, None] ** 2))

    replayed = _replayed(power_of, evals, R2, P_T, mu)
    # bisection on [MU_FLOOR, hi]; power is non-increasing in mu, so
    # power_of(MU_FLOOR) > P_T as well
    lo, hi = MU_FLOOR, 1.0
    for _ in range(200):
        if replayed(hi) <= P_T:
            break
        hi *= 2.0
    else:
        raise SolverError(f"power bisection bracket failed: power({hi}) > {P_T}")
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        power = replayed(mu)
        # half the documented 1e-6 relative window, so the power budget
        # invariant holds strictly even after float rounding
        if abs(power - P_T) <= 5e-7 * P_T:
            break
        lo, hi = (mu, hi) if power > P_T else (lo, mu)
    else:
        raise SolverError(f"power bisection did not converge: bracket [{lo}, {hi}], "
                          f"power {power_of(mu)}, target {P_T}")
    W, rel = _tx_answer(A, rhs, rhs_norm, evals, Q, Rt, mu)
    return W, mu, power, float(rel)


def update_rates(v, eps, layout, log_eps=None):
    """Per-(user, slot) rates as dual-weighted means of the group log rates,
    and the common rate (one per run) as the mean over users of their slot
    sums.  ``log_eps``, if given, is log2 of the MSEs floored at EPS_FLOOR."""
    shape = (*v.shape[:-1], layout.n_groups, layout.q)
    if log_eps is None:
        log_eps = np.log2(np.maximum(eps, EPS_FLOOR))
    linv = np.where(layout.member, -log_eps, 0.0)
    v_r = np.where(layout.member, v, 0.0).reshape(shape)
    l_r = linv.reshape(shape)
    den = v_r.sum(axis=-2)
    num = (v_r * l_r).sum(axis=-2)
    if np.any(den <= 0):
        warnings.warn("all dual weights of a (user, slot) pair hit zero; using uniform weights",
                      RuntimeWarning, stacklevel=2)
    r = np.divide(num, den, out=l_r.sum(axis=-2) / layout.group_counts[:, None], where=den > 0)
    return r, r.sum(axis=-1).sum(axis=-1) / layout.n_users  # the mean, bit for bit


def update_duals(v, eps, target, eta, layout, log_eps=None):
    """Projected subgradient step on the per-stream dual weights.

    ``target`` is the common rate or an (n_users, n_streams) rate per stream.
    After the step each user's weights are renormalized so their sum is
    exactly q, and the MSE multipliers are refreshed from the weights.
    ``log_eps``, if given, is log2 of the MSEs floored at EPS_FLOOR.
    """
    member = layout.member
    eps_safe = np.maximum(eps, EPS_FLOOR)
    grad = target + (np.log2(eps_safe) if log_eps is None else log_eps)
    v2 = np.where(member, np.maximum(0.0, v + eta * grad), 0.0)
    tot = v2.sum(axis=-1)
    dead = tot <= 0
    if np.any(dead):
        warnings.warn("dual weights of a user collapsed to zero; resetting to uniform",
                      RuntimeWarning, stacklevel=2)
        users = np.nonzero(dead)[-1]
        v2[dead] = np.where(member[users], 1.0 / layout.group_counts[users, None], 0.0)
        tot = v2.sum(axis=-1)
    v2 = v2 * (layout.q / tot)[..., None]
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

# solver diagnostics, each with its start value and the merge that folds in a run's
# steps and then the runs: an invariant keeps the worst value, a count the sum
DIAGNOSTICS = {"power_overrun": (0.0, max), "dual_norm_err": (0.0, max),
               "stationarity": (0.0, max), "outer_decrease": (0.0, max),
               "power_shortfall": (0.0, max),  # 1 - power / P_T of the returned set
               "outer_iterations": (0, operator.add),
               "closed_form_accepts": (0, operator.add)}  # transmit updates keeping mu0


def _fold(diag, **values):
    """Fold each of ``values`` into the diagnostics ``diag`` by its DIAGNOSTICS merge."""
    for key, val in values.items():
        diag[key] = DIAGNOSTICS[key][1](diag[key], val)


def merge_diagnostics(diags) -> dict:
    """The diagnostics of several runs merged by DIAGNOSTICS; the start values for none."""
    merged = {key: start for key, (start, _) in DIAGNOSTICS.items()}
    for diag in diags:
        _fold(merged, **diag)
    return merged


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
        require_count(1, max_outer=self.max_outer, n_restarts=self.n_restarts)
        require_count(0, init_seed=self.init_seed)


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
    """Run the starts W (R, n_streams, L) in lockstep, bit for bit as if each ran
    alone: one BeamformerState per start, or the SolverError and trace of the first
    start to fail alone.  The runs still stepping are compacted only when one
    leaves the outer loop (patience or max_outer) or the inner one (TOL break)."""
    member, nU, R, starts = layout.member, layout.n_users, len(W), W
    eta = STEP_PER_SLOT * layout.q
    per_user = opt.gradient == "per_user"  # else the dual step targets the common rate
    v = np.repeat(np.where(member, 1.0 / nU, 0.0)[None], R, axis=0)
    lam = v.copy()
    z = np.full((R, nU), 1.0 / nU)  # per-user priority weights
    traces, diags, states = [[] for _ in W], [merge_diagnostics(()) for _ in W], [None] * R
    runs = np.arange(R)  # the run of each row still in the outer loop
    # obj_prev starts at -inf, so the first step is neither a decrease nor a stall
    obj_prev, stall = np.full(R, -math.inf), np.zeros(R, dtype=int)
    try:
        # the step past max_outer only scores the last inner loop's transmit set
        for outer in range(1, opt.max_outer + 2):
            U = lmmse_receivers(W, H, N0, member)
            B, u2 = _receiver_terms(H, U)
            user_totals = per_user_rates(W, H, layout, N0, U=U)
            obj = user_totals.min(axis=-1)
            stall = np.where(abs(obj - obj_prev) < TOL, stall + 1, 0)
            done = (stall >= PATIENCE) | (outer > opt.max_outer)
            for k, (r, drop) in enumerate(zip(runs, (obj_prev - obj).tolist())):
                _fold(diags[r], outer_decrease=drop, outer_iterations=int(outer <= opt.max_outer))
                if done[k]:
                    _fold(diags[r], power_shortfall=1.0 - tx_power(W[k]) / P_T)
                    states[r] = BeamformerState(W[k], U[k], user_totals[k], float(obj[k]),
                                                tx_power(W[k]), diags[r], traces[r])
            if done.all():
                break
            if done.any():
                runs, W, U, B, u2, v, lam, z, obj, stall = (
                    a[~done] for a in (runs, W, U, B, u2, v, lam, z, obj, stall))
            obj_prev = obj

            # the inner loop steps rows `pos` of the outer arrays; a leaving row parks in `held`
            held = [np.empty_like(a) for a in (v, lam, z, W)]
            pos, rows, noise = np.arange(len(runs)), runs, N0 * u2
            best_obj, best_W, inner_prev = obj, W, np.full(len(runs), -math.inf)
            for inner in range(1, MAX_INNER + 1):
                lam_eff = lam * (z * nU)[..., None]
                system = _tx_system(lam_eff, B, u2, P_T)
                W_it, tx = np.empty_like(best_W), []
                for j, rx in enumerate(zip(*system)):
                    W_it[j], *out = solve_tx_with_power(U[j], lam_eff[j], H, P_T, rx=rx)
                    tx.append(out)
                if not np.isfinite(W_it).all():
                    raise SolverError("non-finite values in transmit vectors")

                terms = _power_terms(W_it, H, U, N0, noise)  # shared by the MSEs and the rate
                eps = mse(W_it, H, U, N0, terms=terms)
                if not np.isfinite(eps).all():
                    raise SolverError("non-finite values in stream MSEs")
                log_eps = np.log2(np.maximum(eps, EPS_FLOOR))  # shared by both updates
                rates, r_c = update_rates(v, eps, layout, log_eps=log_eps)
                target = rates[..., layout.stream_slot] if per_user else r_c[:, None, None]
                v, lam = update_duals(v, eps, target, eta, layout, log_eps=log_eps)
                norm_err = np.abs(v.sum(axis=-1) / layout.q - 1.0).max(axis=-1)
                # exponentiated subgradient on the common-rate constraint: users
                # below the common rate gain priority (one user's z stays 1)
                z = z * np.exp(USER_WEIGHT_STEP * (r_c[:, None] - rates.sum(axis=-1)))
                z = np.maximum(z, 1e-12)
                z /= z.sum(axis=-1, keepdims=True)

                obj_in = per_user_rates(W_it, H, layout, N0, U=U, terms=terms).min(axis=-1)
                for r, (mu, power, resid), mu0, err, obj_r, r_c_r in zip(
                        rows, tx, system[3].tolist(), norm_err.tolist(), obj_in.tolist(),
                        r_c.tolist()):
                    _fold(diags[r], stationarity=resid, dual_norm_err=err,
                          power_overrun=(power - P_T) / P_T, closed_form_accepts=int(mu == mu0))
                    if opt.keep_trace:
                        traces[r].append(dict(outer=outer, inner=inner, objective=obj_r, power=power,
                                              mu=mu, stationarity=resid, r_c=r_c_r))
                better = obj_in > best_obj
                best_obj = np.where(better, obj_in, best_obj)
                best_W = np.where(better[:, None, None], W_it, best_W)
                stop = (abs(obj_in - inner_prev) < TOL) | (inner == MAX_INNER)
                inner_prev = obj_in
                if stop.any():
                    for hold, a in zip(held, (v, lam, z, best_W)):
                        hold[pos[stop]] = a[stop]
                    if stop.all():
                        break
                    pos, rows, v, lam, z, U, B, u2, noise, best_obj, best_W, inner_prev = (
                        a[~stop] for a in (pos, rows, v, lam, z, U, B, u2, noise,
                                           best_obj, best_W, inner_prev))
            v, lam, z, W = held
    except SolverError as err:
        if R == 1:  # the run's iterations so far
            err.trace = list(traces[0])
        for w in starts if R > 1 else ():  # solved alone in order, the first to fail raises
            _optimize_single(layout, H, P_T, N0, opt, w[None])
        raise  # the lockstep error, untraced if R > 1: no start failed alone
    return states


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
    by derive_seed(init_seed, r); the best result is kept, with the
    diagnostics of all restarts merged by DIAGNOSTICS.

    The restarts run in lockstep, each step batched over the runs still
    stepping, with the bits of one-at-a-time runs.  That includes the
    transmit update's linear algebra (_tx_system); only its choice of the
    power multiplier is one solve_tx_with_power call per run, because a
    search on an overshooting run is a scalar loop of its own length and
    wrappers of the call read one scalar multiplier.  A failed lockstep step
    re-solves the restarts one at a time, so the SolverError raised is that of
    the lowest-index restart to fail alone, with that restart's trace.

    Returns a BeamformerState whose ``objective`` is the worst-user rate
    of the final transmit vectors under their own LMMSE receivers.  Inputs
    are checked by require_problem.
    """
    opt = options or SolverOptions()
    require_problem(layout, H, P_T, N0)

    # two structured starts (group-SVD, zero-forcing), then seeded random
    # ones; the nulling start matters at high SNR where interference dominates
    starts = [group_svd_init(layout, H, P_T)]
    if opt.n_restarts > 1:
        starts.append(zf_beamformers(layout, H, P_T, N0).W)
    for r in range(2, opt.n_restarts):
        rng = seeded_rng(derive_seed(opt.init_seed, r))
        W0 = rng.standard_normal(starts[0].shape) + 1j * rng.standard_normal(starts[0].shape)
        starts.append(W0 * np.sqrt(P_T / tx_power(W0)))
    states = _optimize_single(layout, H, P_T, N0, opt, np.stack(starts))
    best = max(states, key=lambda state: state.objective)  # the first of equals
    best.diagnostics = merge_diagnostics(state.diagnostics for state in states)
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
    Inputs are checked by require_problem.
    """
    require_problem(layout, H, P_T, N0)
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
