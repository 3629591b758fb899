"""Brute-force baseline maximizer for the per-transmission rate objective.

Deliberately independent of the production solver: the worst-user rate
is evaluated through the closed-form per-stream MMSE SINR (no explicit
receive vectors), and maximized by plain projected gradient ascent with
numerical gradients and many random restarts.  Only meant for desk-scale
validation problems.  It shares only the solver's input check (StreamLayout,
require_problem), none of its rate or update code, so it stays an independent reference.

All restarts ascend in lockstep: each forward-difference gradient of
every restart still ascending is one batched rate evaluation over a
stack of perturbed transmit sets, and so is each backtracking trial.
The arithmetic per restart is the one of a restart run on its own, so
the returned rate and transmit set do not depend on the batching.
"""

from __future__ import annotations

import numpy as np

from .beamforming import StreamLayout, require_problem
from .channel import require_count, seeded_rng
from .errors import SolverError


def rate_with_ideal_receivers(W, H, groups, q, N0):
    """Worst-user sum of per-slot multicast rates under optimal linear reception.

    W: (n_streams, L) transmit vectors, stream s carries substream s % q of
    group s // q, or a stack (B, n_streams, L) of such sets.  H: (n_users,
    G, L).  groups: tuples of local user indices.  Returns a float for one
    set and a (B,) array for a stack.  A singular receiver covariance (a
    rank-deficient channel with the noise term lost next to the signal) is
    a SolverError.
    """
    if W.ndim == 2:
        return float(rate_with_ideal_receivers(W[None], H, groups, q, N0)[0])
    n_users, G, _ = H.shape
    Wt = W.swapaxes(-1, -2)
    worst = np.full(W.shape[0], np.inf)
    for u in range(n_users):
        mine = [g for g, T in enumerate(groups) if u in T]
        if not mine:
            continue
        heff = H[u] @ Wt  # (B, G, n_streams)
        B = heff @ heff.conj().swapaxes(-1, -2) + N0 * np.eye(G)
        try:
            X = np.linalg.solve(B, heff)
        except np.linalg.LinAlgError as err:
            raise SolverError(f"linear algebra failed in rate_with_ideal_receivers: {err}") from err
        x = np.real(np.einsum("...gs,...gs->...s", heff.conj(), X))
        x = np.clip(x, 0.0, 1.0 - 1e-300)
        rates = -np.log2(1.0 - x)  # log2(1 + x/(1-x))
        total = 0.0
        for j in range(q):
            total = total + rates[:, [g * q + j for g in mine]].min(axis=1)
        worst = np.minimum(worst, total)
    return worst


def _project(W, P_T):
    """Scale W, one set or a stack of sets, into the power ball of radius P_T."""
    if W.ndim == 2:
        return _project(W[None], P_T)[0]
    p = np.sum((np.abs(W) ** 2).reshape(W.shape[0], -1), axis=1)
    over = p > P_T
    if np.any(over):
        W = W.copy()
        W[over] = W[over] * np.sqrt(P_T / p[over])[:, None, None]
    return W


def max_rate_projected_gradient(H, groups, q, P_T, N0, restarts=200, seed=0,
                                max_steps=80):
    """Maximize the worst-user rate over the transmit power ball.

    Forward-difference gradient on the real/imaginary parts of all
    transmit vectors, normalized-gradient steps with backtracking, and
    seeded random restarts.  Returns (best rate, best W).  Inputs are checked
    like the solver's, so the groups must cover exactly the users of H; fewer
    than one restart or step, or a negative seed, is a ConfigError.
    """
    require_problem(StreamLayout(tuple(range(len(H))), tuple(map(tuple, groups)), q),
                    H, P_T, N0)
    require_count(1, max_steps=max_steps, **{"oracle restarts": restarts})
    n_streams = len(groups) * q
    L = H.shape[2]
    scale = np.sqrt(P_T)
    fd = 1e-6 * scale
    n = 2 * n_streams * L  # real coordinates of one transmit set

    def f(vecs):
        W = vecs.view(np.complex128).reshape(-1, n_streams, L)
        return rate_with_ideal_receivers(_project(W, P_T), H, groups, q, N0)

    vec = np.empty((restarts, n))
    for r in range(restarts):
        rng = seeded_rng(seed, r)
        W = rng.standard_normal((n_streams, L)) + 1j * rng.standard_normal((n_streams, L))
        W *= np.sqrt(P_T / np.sum(np.abs(W) ** 2))
        vec[r] = W.view(np.float64).ravel()
    val = f(vec)
    step = np.full(restarts, 0.25 * scale)
    below = np.tri(n, k=-1, dtype=bool)  # row j: the coordinates perturbed before j
    active = np.arange(restarts)
    for _ in range(max_steps):
        if active.size == 0:
            break
        # coordinate j moves to x + fd while the ones before it hold the
        # rounding residue (x + fd) - fd of their own perturbation
        x = vec[active]
        up = x + fd
        drifted = up - fd
        stack = np.where(below, drifted[:, None, :], x[:, None, :])
        stack[:, np.arange(n), np.arange(n)] = up
        grad = (f(stack.reshape(-1, n)).reshape(-1, n) - val[active, None]) / fd
        vec[active] = drifted
        norm = np.sqrt([g.dot(g) for g in grad])
        keep = ~(norm < 1e-12)
        active, grad, norm = active[keep], grad[keep], norm[keep]

        improved = np.zeros(active.size, dtype=bool)
        searching = np.arange(active.size)  # positions into active
        while True:
            searching = searching[step[active[searching]] > 1e-7 * scale]
            if searching.size == 0:
                break
            rows = active[searching]
            cand = vec[rows] + step[rows, None] * grad[searching] / norm[searching, None]
            cval = f(cand)
            better = cval > val[rows]
            vec[rows[better]], val[rows[better]] = cand[better], cval[better]
            step[rows] *= np.where(better, 1.3, 0.5)
            improved[searching[better]] = True
            searching = searching[~better]
        active = active[improved]

    best_val, best_W = -np.inf, None
    for r in range(restarts):
        if val[r] > best_val:
            best_val = float(val[r])
            best_W = _project(vec[r].view(np.complex128).reshape(n_streams, L), P_T)
    return best_val, best_W
