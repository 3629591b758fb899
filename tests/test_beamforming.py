import dataclasses
import math

import numpy as np
import pytest

from ccmimo import (ConfigError, InputError, NetworkConfig, SolverError, SolverOptions,
                    StreamLayout, group_svd_init, lmmse_receivers, mse, optimize,
                    plan_transmissions, rate_objective, sinr, zf_beamformers,
                    zf_leakage)
from ccmimo import beamforming
from ccmimo.beamforming import (MU_FLOOR, closed_form_mu, layout_for_subset,
                                per_user_rates, solve_tx_with_power, tx_power,
                                update_duals, update_rates)
from ccmimo.channel import derive_seed, sample_channels
from ccmimo.evaluate import run_scheme

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
    W, mu, power, _ = solve_tx_with_power(U, np.zeros((2, 2)), H, 1.0)
    assert np.allclose(W, 0)
    assert power == 0.0
    assert mu > 0


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
                                 dict(gradient="per_stream")])
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
    real, starts = beamforming._optimize_single, []

    def record(layout, H, P_T, N0, opt, W):
        starts.append(W.copy())
        return real(layout, H, P_T, N0, opt, W)

    monkeypatch.setattr(beamforming, "_optimize_single", record)
    optimize(lay, H, 10.0, 1.0, options=SolverOptions(init_seed=5, n_restarts=3, max_outer=2))
    draw = np.random.default_rng(np.random.SeedSequence(derive_seed(5, 2)))
    W2 = draw.standard_normal((3, 3)) + 1j * draw.standard_normal((3, 3))
    W2 *= np.sqrt(10.0 / tx_power(W2))
    expected = [group_svd_init(lay, H, 10.0), zf_beamformers(lay, H, 10.0, 1.0).W, W2]
    assert [w.tobytes() for w in starts] == [w.tobytes() for w in expected]


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


def test_zf_zero_channel_is_solver_error():
    lay = StreamLayout(users=(0, 1), groups=((0,), (1,)), q=1)
    with pytest.raises(SolverError, match="no transmit direction"):
        zf_beamformers(lay, np.zeros((2, 2, 3), dtype=complex), 4.0, 1.0)


def test_singular_receiver_covariance_is_solver_error():
    # both receive antennas see the same channel, and at 200 dB the noise
    # term vanishes next to the signal: every receiver covariance is singular
    lay = StreamLayout(users=(0, 1), groups=((0, 1),), q=1)
    H = sample_channels(3, 0, 2, 2, 2).H.copy()
    H[:, 1] = H[:, 0]
    with pytest.raises(SolverError, match="lmmse_receivers"):
        optimize(lay, H, 1e20, 1.0)
    with pytest.raises(SolverError, match="lmmse_receivers"):
        run_scheme("zf", lay, H, 1e20, 1.0, SolverOptions(), 0, 1)
    with pytest.raises(SolverError, match="rate_with_ideal_receivers"):
        run_scheme("oracle_smallscale", lay, H, 1e20, 1.0, SolverOptions(), 0, 1)


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
