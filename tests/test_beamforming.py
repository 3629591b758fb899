import dataclasses
import math

import numpy as np
import pytest

from ccmimo import (ConfigError, InputError, NetworkConfig, SolverError, SolverOptions,
                    StreamLayout, group_svd_init, lmmse_receivers, mse, optimize,
                    plan_transmissions, rate_objective, sinr, zf_beamformers,
                    zf_leakage)
import ccmimo.evaluate
from ccmimo import beamforming
from ccmimo.beamforming import (MU_FLOOR, closed_form_mu, layout_for_subset,
                                per_user_rates, solve_tx_with_power, tx_power,
                                update_duals, update_rates)
from ccmimo.channel import derive_seed, sample_channels
from ccmimo.evaluate import run_scheme
from ccmimo.oracle import max_rate_projected_gradient

LN2 = math.log(2.0)


def random_instance(rng, n_users, G, L, groups, q, P_T=10.0):
    lay = StreamLayout(users=tuple(range(n_users)), groups=groups, q=q)
    H = (rng.standard_normal((n_users, G, L)) + 1j * rng.standard_normal((n_users, G, L)))
    H *= np.sqrt(0.5)
    W = rng.standard_normal((lay.n_streams, L)) + 1j * rng.standard_normal((lay.n_streams, L))
    W *= np.sqrt(P_T / tx_power(W))
    return lay, H, W


# ---------------------------------------------------------------------------
# receivers / SINR / MSE
# ---------------------------------------------------------------------------

def test_lmmse_scalar():
    # single antenna, single stream: u = sqrt(P) / (P + N0)
    lay = StreamLayout(users=(0,), groups=((0,),), q=1)
    H = np.ones((1, 1, 1), dtype=complex)
    W = np.array([[math.sqrt(10.0)]], dtype=complex)
    U = lmmse_receivers(W, H, 1.0, lay.member)
    assert U[0, 0, 0] == pytest.approx(math.sqrt(10.0) / 11.0)
    g = sinr(W, H, U, 1.0)
    assert g[0, 0] == pytest.approx(10.0)


def test_lmmse_orthogonal_streams():
    lay = StreamLayout(users=(0,), groups=((0,),), q=2)
    H = np.eye(2, dtype=complex)[None]
    W = np.array([[math.sqrt(5.0), 0.0], [0.0, math.sqrt(5.0)]], dtype=complex)
    U = lmmse_receivers(W, H, 1.0, lay.member)
    u1 = U[0, 0] / np.linalg.norm(U[0, 0])
    assert abs(u1[0]) == pytest.approx(1.0)
    assert abs(u1[1]) == pytest.approx(0.0, abs=1e-12)
    g = sinr(W, H, U, 1.0)
    assert np.allclose(g[0], 5.0)


def test_lmmse_matches_per_stream_solve():
    # independent oracle: solve each stream's normal equations directly
    rng = np.random.default_rng(0)
    lay, H, W = random_instance(rng, 2, 2, 3, ((0, 1),), 3)
    U = lmmse_receivers(W, H, 1.0, lay.member)
    for u in range(2):
        heff = H[u] @ W.T
        cov = heff @ heff.conj().T + np.eye(2)
        for s in range(lay.n_streams):
            want = np.linalg.solve(cov, H[u] @ W[s])
            assert np.max(np.abs(U[u, s] - want)) < 1e-10


def test_sinr_closed_form_oracle():
    # gamma for the LMMSE receiver equals the receiver-free quadratic form
    rng = np.random.default_rng(1)
    lay, H, W = random_instance(rng, 3, 2, 4, ((0, 1), (1, 2), (0, 2)), 1)
    N0 = 0.7
    U = lmmse_receivers(W, H, N0, lay.member)
    g = sinr(W, H, U, N0)
    for u in range(3):
        for s in range(lay.n_streams):
            if not lay.member[u, s]:
                continue
            h = H[u] @ W[s]
            others = sum(np.outer(H[u] @ W[s2], (H[u] @ W[s2]).conj())
                         for s2 in range(lay.n_streams) if s2 != s)
            want = float(np.real(h.conj() @ np.linalg.solve(others + N0 * np.eye(2), h)))
            assert g[u, s] == pytest.approx(want, rel=1e-8)


def test_sinr_zero_receiver_is_zero():
    lay = StreamLayout(users=(0,), groups=((0,),), q=1)
    H = np.ones((1, 1, 1), dtype=complex)
    W = np.array([[1.0]], dtype=complex)
    U = np.zeros((1, 1, 1), dtype=complex)
    assert sinr(W, H, U, 1.0)[0, 0] == 0.0
    assert mse(W, H, U, 1.0)[0, 0] == 1.0


def test_mse_identity_scalar():
    lay = StreamLayout(users=(0,), groups=((0,),), q=1)
    H = np.ones((1, 1, 1), dtype=complex)
    W = np.array([[math.sqrt(10.0)]], dtype=complex)
    U = lmmse_receivers(W, H, 1.0, lay.member)
    assert mse(W, H, U, 1.0)[0, 0] == pytest.approx(1.0 / 11.0)


def test_mse_identity_random():
    rng = np.random.default_rng(2)
    for trial in range(20):
        lay, H, W = random_instance(rng, 2, 2, 2, ((0, 1),), 2, P_T=50.0)
        U = lmmse_receivers(W, H, 1.0, lay.member)
        g = sinr(W, H, U, 1.0)
        e = mse(W, H, U, 1.0)
        m = lay.member
        assert np.max(np.abs(e[m] - 1.0 / (1.0 + g[m]))) < 1e-9


def test_lmmse_receivers_reject_bad_noise():
    with pytest.raises(ConfigError):
        lmmse_receivers(np.ones((1, 1), dtype=complex), np.ones((1, 1, 1), dtype=complex), 0.0,
                        np.ones((1, 1), dtype=bool))


# ---------------------------------------------------------------------------
# closed-form updates
# ---------------------------------------------------------------------------

def test_update_tx_scalar():
    # one user, one stream, H=1, u=0.5, lam=1, P_T=1: the closed-form
    # multiplier is lam |u|^2 / P_T = 0.25, so w = 0.5/(0.25+0.25) = 1
    U = np.array([[[0.5]]], dtype=complex)
    lam = np.array([[1.0]])
    H = np.ones((1, 1, 1), dtype=complex)
    W, mu, power, resid = solve_tx_with_power(U, lam, H, 1.0)
    assert W[0, 0] == pytest.approx(1.0)
    assert mu == pytest.approx(0.25)
    assert power == pytest.approx(1.0)
    assert resid < 1e-12


def test_update_tx_zero_weights():
    rng = np.random.default_rng(3)
    U = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    H = rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3))
    # zero dual weights, and zero receivers under positive weights: either way
    # rhs is zero and the update at mu0 is exactly zero, called alone or given
    # one entry of a batched _tx_system as the solver does
    for U, lam in ((U, np.zeros((2, 2))), (np.zeros_like(U), np.ones((2, 2)))):
        B, u2 = beamforming._receiver_terms(H, U[None])
        entry = next(zip(*beamforming._tx_system(lam[None], B, u2, 1.0)))
        for rx in (None, entry):
            W, mu, power, resid = solve_tx_with_power(U, lam, H, 1.0, rx=rx)
            assert np.allclose(W, 0)
            assert power == 0.0
            assert mu > 0
            assert not W.any()
            assert not np.signbit(W.real).any() and not np.signbit(W.imag).any()
            assert mu == entry[3]
            assert resid == 0.0


def test_closed_form_mu():
    U = np.zeros((1, 1, 2), dtype=complex)
    U[0, 0] = [0.5, 0.5]  # squared norm 0.5
    lam = np.array([[1.0]])
    assert closed_form_mu(lam, U, 1.0) == pytest.approx(0.5)
    assert closed_form_mu(3.0 * lam, U, 1.0) == pytest.approx(1.5)  # linear in lam


def test_bisection_meets_power_budget():
    rng = np.random.default_rng(4)
    lay, H, W = random_instance(rng, 2, 2, 3, ((0, 1),), 2)
    U = lmmse_receivers(W, H, 1.0, lay.member)
    lam = np.where(lay.member, 1.0, 0.0)
    P_T = 5.0
    W2, mu, power, resid = solve_tx_with_power(U, lam, H, P_T)
    # at this budget the closed-form multiplier would put power above P_T,
    # so the update searched for the multiplier meeting the budget instead
    assert mu != max(closed_form_mu(lam, U, P_T), MU_FLOOR)
    assert abs(power - P_T) <= 1e-6 * P_T
    assert power == pytest.approx(tx_power(W2), rel=1e-9)
    assert resid < 1e-10
    assert mu > 0


def test_closed_form_power_never_exceeds_budget():
    rng = np.random.default_rng(5)
    for trial in range(10):
        lay, H, W = random_instance(rng, 2, 2, 2, ((0, 1),), 2)
        U = lmmse_receivers(W, H, 1.0, lay.member)
        lam = np.where(lay.member, rng.uniform(0.1, 2.0, lay.member.shape), 0.0)
        W2, mu, power, resid = solve_tx_with_power(U, lam, H, 3.0)
        assert power <= 3.0 * (1 + 1e-6)
        assert resid < 1e-8


def _plain_bisection_tx(U, lam, H, P_T):
    """The transmit update with a plain power bisection that evaluates every
    midpoint: the reference solve_tx_with_power's replayed bisection must match."""
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


# the layouts of acceptance criterion 5: (users, groups, q, G, L)
CRITERION_5_LAYOUTS = [
    ((0, 1), ((0, 1),), 2, 2, 2),
    ((0, 1, 2), ((0, 1), (0, 2), (1, 2)), 1, 2, 3),
    ((0, 1), ((0,), (1,)), 1, 2, 3),
    ((0, 1, 2), ((0, 1, 2),), 2, 3, 4),
]


def test_replayed_bisection_matches_plain_bisection_bit_for_bit(monkeypatch):
    replays = []
    real = beamforming._replayed

    def spy(power_of, *args):
        replay = real(power_of, *args)
        replays.append(replay is not power_of)  # False: the bracket check failed
        return replay

    monkeypatch.setattr(beamforming, "_replayed", spy)
    rng = np.random.default_rng(1313)
    problems = []
    for trial in range(600):
        users, groups, q, G, L = CRITERION_5_LAYOUTS[trial % 4]
        lay, H, W = random_instance(rng, len(users), G, L, groups, q,
                                    P_T=10.0 ** rng.uniform(-2, 4))
        U = lmmse_receivers(W, H, 1.0, lay.member)
        # large weights, as small MSEs give them, push the multiplier's root up
        scale = 0.0 if trial % 50 == 0 else 10.0 ** rng.uniform(-2, 5)
        lam = np.where(lay.member, scale * rng.uniform(0.1, 2.0, lay.member.shape), 0.0)
        problems.append((U, lam, H, float(10.0 ** rng.uniform(-3, 6))))
    # the rx= case takes each problem's entry of one _tx_system call over the
    # stacked problems of its layout, each with its own channel and budget
    rows = {}
    for first in range(4):
        trials = range(first, 600, 4)
        terms = [beamforming._receiver_terms(problems[t][2], problems[t][0]) for t in trials]
        system = beamforming._tx_system(np.stack([problems[t][1] for t in trials]),
                                        np.stack([B for B, _ in terms]),
                                        np.stack([u2 for _, u2 in terms]),
                                        np.array([problems[t][3] for t in trials]))
        rows.update(zip(trials, zip(*system)))
    kinds = {"zero": 0, "closed_form": 0, "bisection": 0, "doubled_10": 0}
    for trial, (U, lam, H, P_T) in enumerate(problems):
        want = _plain_bisection_tx(U, lam, H, P_T)
        for got in (solve_tx_with_power(U, lam, H, P_T),
                    solve_tx_with_power(U, lam, H, P_T, rx=rows[trial])):
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:], trial
        if not lam.any():
            kinds["zero"] += 1
        elif want[1] == max(closed_form_mu(lam, U, P_T), MU_FLOOR):
            kinds["closed_form"] += 1
        else:
            kinds["bisection"] += 1
            kinds["doubled_10"] += want[1] > 2.0 ** 9  # the bracket [MU_FLOOR, 2**k], k >= 10
    assert kinds["zero"] >= 10 and kinds["closed_form"] >= 200, kinds
    assert kinds["bisection"] >= 150 and kinds["doubled_10"] >= 20, kinds
    # every bisection was replayed from a checked bracket, none fell back
    assert len(replays) == 2 * kinds["bisection"] and all(replays)


# ---------------------------------------------------------------------------
# rate and dual updates
# ---------------------------------------------------------------------------

def test_update_rates_single_group():
    lay = StreamLayout(users=(0,), groups=((0,),), q=1)
    v = np.array([[1.0]])
    eps = np.array([[0.25]])
    r, r_c = update_rates(v, eps, lay)
    assert r[0, 0] == pytest.approx(2.0)
    assert r_c == pytest.approx(2.0)


def test_update_rates_weighted_mean():
    lay = StreamLayout(users=(0,), groups=((0,), (0,)), q=1)
    v = np.array([[1.0, 1.0]])
    eps = np.array([[0.5, 0.25]])
    r, _ = update_rates(v, eps, lay)
    assert r[0, 0] == pytest.approx(1.5)


def test_update_rates_unit_mse_gives_zero():
    lay = StreamLayout(users=(0, 1), groups=((0, 1),), q=2)
    v = np.where(lay.member, 0.5, 0.0)
    eps = np.where(lay.member, 1.0, 0.0)
    r, r_c = update_rates(v, eps, lay)
    assert np.allclose(r, 0.0)
    assert r_c == 0.0


def test_update_duals_lambda_relation():
    lay = StreamLayout(users=(0,), groups=((0,),), q=1)
    v = np.array([[1.0]])
    eps = np.array([[0.5]])
    # zero gradient: common rate equals the stream rate
    v2, lam = update_duals(v, eps, target=1.0, eta=0.1, layout=lay)
    assert v2[0, 0] == pytest.approx(1.0)
    assert lam[0, 0] == pytest.approx(1.0 / (0.5 * LN2))
    assert lam[0, 0] == pytest.approx(2.885390, abs=1e-5)


def test_update_duals_normalization_exact():
    rng = np.random.default_rng(6)
    lay = StreamLayout(users=(0, 1, 2), groups=((0, 1), (0, 2), (1, 2)), q=2)
    v = np.where(lay.member, rng.uniform(0.1, 1.0, lay.member.shape), 0.0)
    eps = np.where(lay.member, rng.uniform(0.05, 0.9, lay.member.shape), 0.0)
    v2, lam = update_duals(v, eps, target=1.3, eta=0.2, layout=lay)
    sums = v2.sum(axis=1) / lay.q
    assert np.max(np.abs(sums - 1.0)) < 1e-12
    assert np.all(v2 >= 0) and np.all(lam >= 0)


def test_update_duals_dead_user_reset():
    lay = StreamLayout(users=(0,), groups=((0,),), q=1)
    v = np.array([[0.0]])
    eps = np.array([[0.9]])
    # large negative gradient keeps v at zero: uniform reset kicks in
    with pytest.warns(RuntimeWarning):
        v2, _ = update_duals(v, eps, target=-10.0, eta=1.0, layout=lay)
    assert v2[0, 0] == pytest.approx(1.0)


def test_update_duals_scalar_target_broadcasts():
    rng = np.random.default_rng(13)
    lay = StreamLayout(users=(0, 1, 2), groups=((0, 1), (0, 2), (1, 2)), q=2)
    v = np.where(lay.member, rng.uniform(0.1, 1.0, lay.member.shape), 0.0)
    eps = np.where(lay.member, rng.uniform(0.05, 0.9, lay.member.shape), 0.0)
    _, r_c = update_rates(v, eps, lay)
    v_scalar, lam_scalar = update_duals(v, eps, r_c, 0.2, lay)
    v_full, lam_full = update_duals(v, eps, np.full(lay.member.shape, r_c), 0.2, lay)
    assert np.array_equal(v_scalar, v_full)
    assert np.array_equal(lam_scalar, lam_full)


def test_update_duals_per_stream_target_hand_step():
    rng = np.random.default_rng(14)
    lay = StreamLayout(users=(0, 1, 2), groups=((0, 1), (0, 2)), q=2)
    v = np.where(lay.member, rng.uniform(0.1, 1.0, lay.member.shape), 0.0)
    eps = np.where(lay.member, rng.uniform(0.05, 0.9, lay.member.shape), 0.0)
    rates, _ = update_rates(v, eps, lay)
    eta = 0.2
    v2, lam = update_duals(v, eps, rates[:, lay.stream_slot], eta, lay)
    # stream s carries slot s % q: its step goes toward that slot's rate
    for u in range(lay.n_users):
        streams = [s for s in range(lay.n_streams) if lay.member[u, s]]
        step = {s: max(0.0, v[u, s] + eta * (rates[u, s % lay.q] + math.log2(eps[u, s])))
                for s in streams}
        total = sum(step.values())
        for s in range(lay.n_streams):
            want_v = step[s] * lay.q / total if s in streams else 0.0
            want_lam = want_v / (eps[u, s] * LN2) if s in streams else 0.0
            assert v2[u, s] == pytest.approx(want_v, rel=1e-14, abs=0.0)
            assert lam[u, s] == pytest.approx(want_lam, rel=1e-14, abs=0.0)


def test_group_counts():
    pairs = StreamLayout(users=(0, 1, 2), groups=((0, 1), (0, 2), (1, 2)), q=1)
    assert pairs.group_counts.tolist() == [2.0, 2.0, 2.0]
    two_slots = StreamLayout(users=(0, 1, 2), groups=((0, 1), (0, 2)), q=2)
    assert two_slots.group_counts.tolist() == [2.0, 1.0, 1.0]
    assert np.array_equal(two_slots.member.sum(axis=1), 2 * two_slots.group_counts)


# ---------------------------------------------------------------------------
# full solver
# ---------------------------------------------------------------------------

def test_point_to_point_capacity():
    lay = StreamLayout(users=(0,), groups=((0,),), q=1)
    H = np.ones((1, 1, 1), dtype=complex)
    for snr_db in (0.0, 10.0, 20.0):
        P = 10.0 ** (snr_db / 10.0)
        st = optimize(lay, H, P, 1.0, options=SolverOptions(init_seed=1))
        assert abs(st.objective - math.log2(1.0 + P)) < 1e-3
        assert st.diagnostics["outer_iterations"] < 10


def test_solver_invariants_random_instances():
    rng = np.random.default_rng(7)
    cases = [
        (2, 2, 2, ((0, 1),), 2),
        (3, 2, 3, ((0, 1), (0, 2), (1, 2)), 1),
        (2, 2, 3, ((0,), (1,)), 1),
        (3, 3, 4, ((0, 1, 2),), 2),
    ]
    for idx, (nU, G, L, groups, q) in enumerate(cases):
        H = (rng.standard_normal((nU, G, L)) + 1j * rng.standard_normal((nU, G, L))) * np.sqrt(0.5)
        lay = StreamLayout(users=tuple(range(nU)), groups=groups, q=q)
        P_T = 10.0 ** rng.uniform(0, 3)
        st = optimize(lay, H, P_T, 1.0,
                      options=SolverOptions(init_seed=idx, n_restarts=2))
        d = st.diagnostics
        assert st.power <= P_T * (1 + 1e-6)
        assert d["power_overrun"] <= 1e-6
        assert d["dual_norm_err"] <= 1e-12
        assert d["stationarity"] <= 1e-8
        assert d["outer_decrease"] <= 1e-6
        # reported objective is reproducible from the final beamformers
        lay_H_rate = rate_objective(st.W, H, lay, 1.0)
        assert abs(lay_H_rate - st.objective) < 1e-9


def test_solver_gradient_variants_agree_roughly():
    rng = np.random.default_rng(8)
    lay = StreamLayout(users=(0, 1), groups=((0, 1),), q=2)
    H = (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))) * np.sqrt(0.5)
    a = optimize(lay, H, 100.0, 1.0, options=SolverOptions(init_seed=0, n_restarts=4,
                                                           gradient="common_rate"))
    b = optimize(lay, H, 100.0, 1.0, options=SolverOptions(init_seed=0, n_restarts=4,
                                                           gradient="per_user"))
    assert abs(a.objective - b.objective) / max(a.objective, b.objective) < 0.1


def test_solver_trace_records():
    lay = StreamLayout(users=(0, 1), groups=((0, 1),), q=1)
    H = sample_channels(3, 0, 2, 2, 2).H
    st = optimize(lay, H, 10.0, 1.0, options=SolverOptions(init_seed=0))
    assert st.trace, "trace must be recorded by default"
    rec = st.trace[0]
    assert {"outer", "inner", "objective", "power", "mu", "stationarity", "r_c"} <= set(rec)


@pytest.mark.parametrize("bad", [dict(max_outer=0), dict(n_restarts=0), dict(init_seed=-1),
                                 dict(gradient="per_stream"), dict(max_outer=2.5),
                                 dict(n_restarts=2.5), dict(max_outer=True),
                                 dict(init_seed=1.0)])
def test_solver_options_reject_bad_counts(bad):
    with pytest.raises(ConfigError):
        SolverOptions(**bad)


def test_solver_options_frozen():
    # options are checked once, when built, so a run never meets an unchecked value
    with pytest.raises(dataclasses.FrozenInstanceError):
        SolverOptions().gradient = "per_stream"


def test_restart_start_schedule(monkeypatch):
    # restart 0 starts from the group-SVD directions, 1 from zero forcing,
    # and later ones from a random draw seeded by derive_seed(init_seed, r)
    rng = np.random.default_rng(13)
    lay, H, _ = random_instance(rng, 3, 2, 3, ((0, 1), (0, 2), (1, 2)), 1)
    # all restarts go to the lockstep solver as the rows of one stacked W
    real, stacks = beamforming._optimize_single, []

    def record(layout, H, P_T, N0, opt, W):
        stacks.append(W.copy())
        return real(layout, H, P_T, N0, opt, W)

    monkeypatch.setattr(beamforming, "_optimize_single", record)
    optimize(lay, H, 10.0, 1.0, options=SolverOptions(init_seed=5, n_restarts=3, max_outer=2))
    draw = np.random.default_rng(np.random.SeedSequence(derive_seed(5, 2)))
    W2 = draw.standard_normal((3, 3)) + 1j * draw.standard_normal((3, 3))
    W2 *= np.sqrt(10.0 / tx_power(W2))
    expected = [group_svd_init(lay, H, 10.0), zf_beamformers(lay, H, 10.0, 1.0).W, W2]
    assert len(stacks) == 1 and stacks[0].shape == (3, 3, 3)
    assert [w.tobytes() for w in stacks[0]] == [w.tobytes() for w in expected]


# the layouts of test_solver_invariants_random_instances: (nU, G, L, groups, q)
INVARIANT_CASES = [
    (2, 2, 2, ((0, 1),), 2),
    (3, 2, 3, ((0, 1), (0, 2), (1, 2)), 1),
    (2, 2, 3, ((0,), (1,)), 1),
    (3, 3, 4, ((0, 1, 2),), 2),
]


def _run_bytes(st):
    return (st.W.tobytes(), st.U.tobytes(), st.user_rates.tobytes(), st.objective.hex(),
            st.power.hex(), st.trace)


@pytest.mark.parametrize("gradient", ["common_rate", "per_user"])
@pytest.mark.parametrize("R", [3, 16])
def test_lockstep_runs_match_single_runs_bit_for_bit(R, gradient):
    # every row of one stacked solve equals that start solved alone: the
    # invariant-test layouts at random power, plus criterion 4's channel 0
    rng = np.random.default_rng(23)
    problems = []
    for nU, G, L, groups, q in INVARIANT_CASES:
        H = (rng.standard_normal((nU, G, L)) + 1j * rng.standard_normal((nU, G, L))) * np.sqrt(0.5)
        problems.append((StreamLayout(tuple(range(nU)), groups, q), H, 10.0 ** rng.uniform(0, 3), 30))
    problems.append((StreamLayout((0, 1), ((0, 1),), 2), sample_channels(20, 0, 2, 2, 2).H, 100.0, 60))
    outer_counts = []
    for lay, H, P_T, max_outer in problems:
        opt = SolverOptions(gradient=gradient, max_outer=max_outer, keep_trace=True)
        shape = (R, lay.n_streams, H.shape[2])
        W = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        W *= np.sqrt(P_T / np.sum(np.abs(W) ** 2, axis=(1, 2)))[:, None, None]
        stacked = beamforming._optimize_single(lay, H, P_T, 1.0, opt, W)
        alone = [beamforming._optimize_single(lay, H, P_T, 1.0, opt, w[None])[0] for w in W]
        assert [_run_bytes(st) for st in stacked] == [_run_bytes(st) for st in alone]
        assert [st.diagnostics for st in stacked] == [st.diagnostics for st in alone]
        assert beamforming.merge_diagnostics(st.diagnostics for st in stacked) \
            == beamforming.merge_diagnostics(st.diagnostics for st in alone)
        outer_counts.append({st.diagnostics["outer_iterations"] for st in stacked})
    # runs leaving the lockstep loop at different outer steps are covered
    assert any(len(counts) > 1 for counts in outer_counts), outer_counts


def test_lockstep_failure_carries_only_that_runs_trace(monkeypatch):
    # the transmit update of restart 1 fails on the second inner step, first in
    # its own call (call 5: restarts 0, 1, 2 each step), then in the batched
    # system, whose eigh fails on restart 1's system alone; both fakes fail on
    # content, so restart 1 fails again when solved alone, and either error
    # carries restart 1's one record
    rng = np.random.default_rng(11)
    lay, H, _ = random_instance(rng, 3, 2, 3, ((0, 1), (0, 2), (1, 2)), 1)
    opt = SolverOptions(n_restarts=3)
    W1 = zf_beamformers(lay, H, 10.0, 1.0).W
    expected = beamforming._optimize_single(lay, H, 10.0, 1.0, opt, W1[None])[0].trace[:1]
    real, calls, failing_lam = beamforming.solve_tx_with_power, [], []

    @beamforming._typed_linalg
    def solve_tx_with_power(U, lam, *args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            failing_lam.append(lam.copy())  # restart 1's weights
        if any(np.array_equal(lam, F) for F in failing_lam):
            raise np.linalg.LinAlgError("Singular matrix")
        return real(U, lam, *args, **kwargs)

    real_eigh, batched, failing = np.linalg.eigh, [], []

    def eigh(A):
        batched.append(A.ndim == 3)
        if sum(batched) == 2 and not failing:  # the second batched step
            failing.append(A[1].copy())  # restart 1's system
        if any(np.array_equal(a, F) for a in A.reshape(-1, *A.shape[-2:]) for F in failing):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(A)

    for module, fake, where in ((beamforming, solve_tx_with_power, "solve_tx_with_power"),
                                (np.linalg, eigh, "_tx_system")):
        with monkeypatch.context() as patch:
            patch.setattr(module, fake.__name__, fake)
            with pytest.raises(SolverError, match=where) as exc:
                optimize(lay, H, 10.0, 1.0, options=opt)
        assert exc.value.trace == expected
    assert failing and failing_lam  # the batched system and restart 1's own call failed


def test_lockstep_failure_is_the_sequential_one(monkeypatch):
    # the transmit system fails on restart 2's first step and on restart 0's
    # third.  The lockstep meets restart 2's failure first, but restarts solved
    # one after another would fail in restart 0, so the solve raises restart
    # 0's error with its two records
    rng = np.random.default_rng(11)
    lay, H, _ = random_instance(rng, 3, 2, 3, ((0, 1), (0, 2), (1, 2)), 1)
    opt = SolverOptions(n_restarts=3)
    real_single, real_eigh, stacks, systems = beamforming._optimize_single, np.linalg.eigh, [], []

    def record(A):  # the transmit systems of one start solved alone
        systems[-1].append(A[0].copy())
        return real_eigh(A)

    with monkeypatch.context() as patch:
        patch.setattr(beamforming, "_optimize_single",
                      lambda *args: stacks.append(args[-1]) or real_single(*args))
        optimize(lay, H, 10.0, 1.0, options=opt)
        patch.setattr(np.linalg, "eigh", record)
        traces = []
        for w in stacks[0]:
            systems.append([])
            traces.append(real_single(lay, H, 10.0, 1.0, opt, w[None])[0].trace)
    failing = [systems[2][0], systems[0][2]]

    def eigh(A):
        if any(np.array_equal(a, F) for a in A.reshape(-1, *A.shape[-2:]) for F in failing):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(A)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(SolverError, match="_tx_system") as exc:
        optimize(lay, H, 10.0, 1.0, options=opt)
    assert len(exc.value.trace) == 2 and exc.value.trace == traces[0][:2]


def test_full_power_never_lowers_the_rate():
    # with N0 > 0 and LMMSE receivers every SINR rises with the power of W, so
    # scaling a returned W up to P_T never lowers the worst-user rate; the
    # power_shortfall diagnostic reports how far below P_T the runs ended
    rng = np.random.default_rng(55)  # criterion 5's problems
    shortfalls = []
    for idx, (nU, G, L, groups, q) in enumerate(INVARIANT_CASES):
        H = (rng.standard_normal((nU, G, L)) + 1j * rng.standard_normal((nU, G, L))) * np.sqrt(0.5)
        lay = StreamLayout(tuple(range(nU)), groups, q)
        P_T = float(10.0 ** rng.uniform(0, 3))
        st = optimize(lay, H, P_T, 1.0, options=SolverOptions(init_seed=idx, n_restarts=2))
        full = st.W * np.sqrt(max(P_T / st.power, 1.0))
        assert rate_objective(full, H, lay, 1.0) >= st.objective
        assert 1.0 > st.diagnostics["power_shortfall"] >= max(0.0, 1.0 - st.power / P_T)
        shortfalls.append(1.0 - st.power / P_T)
    assert max(shortfalls) > 0.01  # the scaling is exercised, not only a rounding


PAIRS = ((0, 1), (0, 2), (1, 2))


@pytest.mark.parametrize("groups, draw, P_T, max_outer, outers, last_traced", [
    (PAIRS, (3, 0, 3, 2, 3), 100.0, 1, 1, 1),
    (PAIRS, (3, 0, 3, 2, 3), 100.0, 2, 2, 2),
    (PAIRS, (3, 0, 3, 2, 3), 100.0, 3, 3, 3),
    (((0,),), (3, 0, 1, 2, 2), 10.0, 30, 4, 3),
], ids=["pairs-1", "pairs-2", "pairs-3", "point-to-point"])
def test_solver_stop_accounting(groups, draw, P_T, max_outer, outers, last_traced):
    # a run capped by max_outer counts every traced outer step; a run stopped
    # by the patience rule (point to point) also counts the receiver refresh
    # that stopped it.  Either way U, rates and objective belong to the final W.
    H = sample_channels(*draw).H
    lay = StreamLayout(users=tuple(range(H.shape[0])), groups=groups, q=1)
    st = optimize(lay, H, P_T, 1.0, options=SolverOptions(n_restarts=1, max_outer=max_outer))
    assert st.diagnostics["outer_iterations"] == outers
    assert st.trace[-1]["outer"] == last_traced
    assert np.array_equal(st.U, lmmse_receivers(st.W, H, 1.0, lay.member))
    assert np.array_equal(st.user_rates, per_user_rates(st.W, H, lay, 1.0))
    assert st.objective == rate_objective(st.W, H, lay, 1.0)


def test_layout_for_subset_local_indices():
    cfg = NetworkConfig(K=4, L=3, G=2, N=4, M=1)
    plan = plan_transmissions(cfg, 3, 2, 1)
    lay = layout_for_subset(plan, 1)  # subset (0, 1, 3)
    assert lay.users == (0, 1, 3)
    assert all(max(T) < 3 for T in lay.groups)
    assert lay.n_streams == 3


@pytest.mark.parametrize("users, groups, q", [
    ((0, 1), ((0, 1),), 0), ((0, 1), ((0, 1),), 1.5), ((0, 1), ((0, 1),), True),
    ((0, 1), (), 1),  # no group
    ((0,), ((1,),), 1),  # local index out of range
    ((0, 1), ((0, -1),), 1), ((0, 1), ((0.0, 1),), 1), ((0, 1), ((True, 0),), 1),
    ((0, 1), ((0, 0),), 1),  # a user twice in one group
    ((0, 1), ((0, 1), ()), 1),  # an empty group
    ((0, 1, 2), ((0, 1),), 1),  # user 2 in no group
])
def test_stream_layout_rejects_bad_structure(users, groups, q):
    with pytest.raises(ConfigError):
        StreamLayout(users, groups, q)


def test_layout_for_subset_rejects_bad_index():
    plan = plan_transmissions(NetworkConfig(K=3, L=2, G=2, N=3, M=1), 2, 1, 1)
    for i in (3, -1, 1.0, True):
        with pytest.raises(ConfigError):
            layout_for_subset(plan, i)
    assert layout_for_subset(plan, np.int64(2)).users == (1, 2)


# ---------------------------------------------------------------------------
# zero-forcing baseline
# ---------------------------------------------------------------------------

def test_zf_single_stream_matched():
    rng = np.random.default_rng(9)
    lay = StreamLayout(users=(0,), groups=((0,),), q=1)
    H = (rng.standard_normal((1, 1, 3)) + 1j * rng.standard_normal((1, 1, 3))) * np.sqrt(0.5)
    res = zf_beamformers(lay, H, 4.0, 1.0)
    w = res.W[0] / np.linalg.norm(res.W[0])
    matched = H[0, 0].conj() / np.linalg.norm(H[0, 0])
    assert abs(abs(w @ matched.conj()) - 1.0) < 1e-10
    assert tx_power(res.W) == pytest.approx(4.0)
    assert res.fallback == (False,)


def test_zf_identity_channels_standard_basis():
    # two single-antenna users on orthogonal rows of the identity
    lay = StreamLayout(users=(0, 1), groups=((0,), (1,)), q=1)
    H = np.zeros((2, 1, 2), dtype=complex)
    H[0, 0, 0] = 1.0
    H[1, 0, 1] = 1.0
    res = zf_beamformers(lay, H, 2.0, 1.0)
    assert abs(res.W[0, 0]) == pytest.approx(1.0)
    assert abs(res.W[0, 1]) == pytest.approx(0.0, abs=1e-12)
    assert abs(res.W[1, 1]) == pytest.approx(1.0)


def test_zf_leakage_feasible():
    rng = np.random.default_rng(10)
    # 4 streams, 3 nulling rows each, L=4: exact nulling feasible
    lay = StreamLayout(users=(0, 1), groups=((0,), (1,)), q=2)
    H = (rng.standard_normal((2, 2, 4)) + 1j * rng.standard_normal((2, 2, 4))) * np.sqrt(0.5)
    P_T = 8.0
    res = zf_beamformers(lay, H, P_T, 1.0)
    assert not any(res.fallback)
    leak = zf_leakage(res, lay, H)
    assert leak is not None and leak <= 1e-16 * P_T


def test_zf_fallback_flagged_when_overloaded():
    rng = np.random.default_rng(11)
    # 3 multicast streams, 4 nulling rows each in C^3: no null space
    lay = StreamLayout(users=(0, 1, 2), groups=((0, 1), (0, 2), (1, 2)), q=1)
    H = (rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))) * np.sqrt(0.5)
    res = zf_beamformers(lay, H, 6.0, 1.0)
    assert all(res.fallback)
    assert tx_power(res.W) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# degenerate channels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_channel_is_input_error(bad):
    rng = np.random.default_rng(12)
    lay, H, _ = random_instance(rng, 2, 2, 2, ((0, 1),), 2)
    H[1, 0, 1] = bad
    with pytest.raises(InputError, match="finite"):
        optimize(lay, H, 10.0, 1.0, options=SolverOptions(n_restarts=2))
    with pytest.raises(InputError, match="finite"):
        zf_beamformers(lay, H, 10.0, 1.0)


@pytest.mark.parametrize("solver", ["optimize", "zf", "oracle"])
@pytest.mark.parametrize("bad", [dict(H=list), dict(H=str), dict(P_T="10"), dict(P_T=None),
                                 dict(P_T=10j), dict(P_T=True), dict(N0="1")])
def test_non_numeric_solve_input_is_typed_error(solver, bad):
    # a channel set that is not a numeric array is an InputError, a power or
    # noise level that is not a real number a ConfigError
    rng = np.random.default_rng(12)
    lay, H, _ = random_instance(rng, 2, 2, 2, ((0, 1),), 2)
    args = {"H": H, "P_T": 10.0, "N0": 1.0, **bad}
    if "H" in bad:  # the channel set as nested lists, or as an array of strings
        args["H"] = H.tolist() if bad["H"] is list else H.astype(str)
    solve = {"optimize": lambda H, P_T, N0: optimize(lay, H, P_T, N0),
             "zf": lambda H, P_T, N0: zf_beamformers(lay, H, P_T, N0),
             "oracle": lambda H, P_T, N0: max_rate_projected_gradient(
                 H, lay.groups, lay.q, P_T, N0, restarts=1, max_steps=1)}[solver]
    with pytest.raises(InputError if "H" in bad else ConfigError):
        solve(**args)


def test_channel_user_count_must_match_layout():
    rng = np.random.default_rng(12)
    lay, H, _ = random_instance(rng, 2, 2, 2, ((0, 1),), 2)
    for Hs in (H[:1], np.concatenate([H, H[:1]])):  # one user too few, one too many
        with pytest.raises(ConfigError, match="must be"):
            optimize(lay, Hs, 10.0, 1.0, options=SolverOptions(n_restarts=1))
        with pytest.raises(ConfigError, match="must be"):
            zf_beamformers(lay, Hs, 10.0, 1.0)


def test_zf_zero_channel_is_solver_error():
    lay = StreamLayout(users=(0, 1), groups=((0,), (1,)), q=1)
    with pytest.raises(SolverError, match="no transmit direction"):
        zf_beamformers(lay, np.zeros((2, 2, 3), dtype=complex), 4.0, 1.0)


def test_singular_receiver_covariance_is_solver_error(monkeypatch):
    # both receive antennas see the same channel, and at 200 dB the noise
    # term vanishes next to the signal: every receiver covariance is singular
    lay = StreamLayout(users=(0, 1), groups=((0, 1),), q=1)
    H = sample_channels(3, 0, 2, 2, 2).H.copy()
    H[:, 1] = H[:, 0]
    with pytest.raises(SolverError, match="lmmse_receivers"):
        optimize(lay, H, 1e20, 1.0)
    monkeypatch.setattr(ccmimo.evaluate, "ORACLE_RESTARTS", 1)
    with pytest.raises(SolverError, match="lmmse_receivers"):
        run_scheme("zf", lay, H, 200.0, 1.0, SolverOptions(), 0, 0, 0)
    with pytest.raises(SolverError, match="rate_with_ideal_receivers"):
        run_scheme("oracle_smallscale", lay, H, 200.0, 1.0, SolverOptions(), 0, 0, 0)


def test_converted_solver_error_carries_trace(monkeypatch):
    # the receivers fail on their second call, after the first outer
    # iteration's inner updates have been traced
    rng = np.random.default_rng(11)
    lay, H, _ = random_instance(rng, 3, 2, 3, ((0, 1), (0, 2), (1, 2)), 1)
    real, calls = beamforming.lmmse_receivers, []

    @beamforming._typed_linalg
    def lmmse_receivers(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return real(*args, **kwargs)

    monkeypatch.setattr(beamforming, "lmmse_receivers", lmmse_receivers)
    with pytest.raises(SolverError, match="lmmse_receivers") as exc:
        optimize(lay, H, 10.0, 1.0)
    assert exc.value.trace and all(rec["outer"] == 1 for rec in exc.value.trace)
