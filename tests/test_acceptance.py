"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured figure (visible with pytest -s or -rA)."""

import math
import time
from dataclasses import replace
from math import comb, floor

import numpy as np
import pytest

from ccmimo import (NetworkConfig, SolverOptions, StreamLayout, build_codewords,
                    build_placement, fitted_stream_count, freshness_audit,
                    lmmse_receivers, max_rate_projected_gradient,
                    monte_carlo_sweep, mse, optimize, optimize_dof,
                    plan_transmissions, sinr, verify_decode)
from ccmimo.evaluate import DB_PER_BIT

RESULTS = []
SOLVER_DIAGS = []  # diagnostics of every solver run made by this module


def announce(capsys, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    RESULTS.append(line)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def record_diag(diag, power=None, P_T=None):
    entry = dict(diag)
    if power is not None:
        entry["final_power_rel"] = (power - P_T) / P_T
    SOLVER_DIAGS.append(entry)


# ---------------------------------------------------------------------------
# 1. delivery correctness
# ---------------------------------------------------------------------------

def test_criterion_1_delivery_correctness(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    n_cases = 0
    for K in range(2, 7):
        for t in range(0, min(3, K)):
            cfg_base = NetworkConfig(K=K, L=K, G=1, N=K, M=t)
            for omega in range(t + 1, K + 1):
                for trial in range(20):
                    size = int(rng.integers(40, 220))
                    lib = [rng.bytes(size) for _ in range(K)]
                    pm = build_placement(cfg_base, lib)
                    plan = plan_transmissions(cfg_base, omega, 1, 1)
                    audit = freshness_audit(plan)
                    assert audit["duplicates"] == 0 and audit["missing"] == 0
                    requests = rng.integers(0, K, size=K).tolist()
                    cw = build_codewords(plan, requests, pm)
                    for k in range(K):
                        assert verify_decode(k, cw, pm) == lib[requests[k]], \
                            (K, t, omega, trial, k)
                    n_cases += 1
    elapsed = time.time() - t0
    announce(capsys, "criterion 1 (delivery correctness)",
             elapsed < 30.0,
             f"{n_cases} round trips bit-exact, freshness clean, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. stream-planner oracle
# ---------------------------------------------------------------------------

def test_criterion_2_dof_planner_oracle(capsys):
    t0 = time.time()
    mismatches = 0
    for L in range(1, 11):
        for G in range(1, 11):
            for t in range(0, 5):
                table = []
                for omega in range(t + 1, t + L + 1):
                    slots = comb(omega - 1, t)
                    bound = min(float(G), L * slots / (1.0 + (omega - t - 1) * slots))
                    beta = min(G, floor(bound))
                    if beta >= 1:
                        table.append((omega * beta, -omega, omega, beta))
                want = max(table)
                got = optimize_dof(L, G, t)
                if (got.dof, got.omega, got.beta) != (want[0], want[2], want[3]):
                    mismatches += 1
    a = optimize_dof(3, 2, 1)
    b = optimize_dof(8, 4, 1)
    anchors = (a.dof, b.dof, b.q) == (6, 12, 2)
    elapsed = time.time() - t0
    announce(capsys, "criterion 2 (stream-planner oracle)",
             mismatches == 0 and anchors and elapsed < 1.0,
             f"500 grid points, 0 mismatches, anchors dof=6 and dof=12/q=2, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. point-to-point sanity
# ---------------------------------------------------------------------------

def test_criterion_3_point_to_point(capsys):
    t0 = time.time()
    lay = StreamLayout(users=(0,), groups=((0,),), q=1)
    H = np.ones((1, 1, 1), dtype=complex)
    worst = 0.0
    for snr_db in (0.0, 10.0, 20.0):
        P = 10.0 ** (snr_db / 10.0)
        st = optimize(lay, H, P, 1.0, options=SolverOptions(init_seed=1))
        record_diag(st.diagnostics, st.power, P)
        worst = max(worst, abs(st.objective - math.log2(1.0 + P)))
    elapsed = time.time() - t0
    announce(capsys, "criterion 3 (point-to-point capacity)",
             worst < 1e-3 and elapsed < 5.0,
             f"max |rate - log2(1+snr)| = {worst:.2e} bits, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. small-instance oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_equivalence(capsys):
    t0 = time.time()
    lay = StreamLayout(users=(0, 1), groups=((0, 1),), q=2)
    P, N0 = 100.0, 1.0  # 20 dB
    opts = SolverOptions(n_restarts=16, max_outer=60, gradient="per_user")
    worst = 0.0
    from ccmimo.channel import sample_channels
    for c in range(10):
        cs = sample_channels(20, c, 2, 2, 2)
        st = optimize(lay, cs.H, P, N0, options=replace(opts, init_seed=c))
        record_diag(st.diagnostics, st.power, P)
        ref, _ = max_rate_projected_gradient(cs.H, lay.groups, 2, P, N0,
                                             restarts=200, seed=1000 + c, max_steps=50)
        worst = max(worst, abs(ref - st.objective) / max(ref, st.objective))
    elapsed = time.time() - t0
    announce(capsys, "criterion 4 (oracle equivalence)",
             worst <= 0.02 and elapsed < 600.0,
             f"10 channels at 20 dB, worst relative gap {worst:.3%}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. KKT / feasibility invariants on every solver run
# ---------------------------------------------------------------------------

def test_criterion_5_solver_invariants(capsys):
    # extra instances across layouts
    rng = np.random.default_rng(55)
    cases = [
        ((0, 1), ((0, 1),), 2, 2, 2),
        ((0, 1, 2), ((0, 1), (0, 2), (1, 2)), 1, 2, 3),
        ((0, 1), ((0,), (1,)), 1, 2, 3),
        ((0, 1, 2), ((0, 1, 2),), 2, 3, 4),
    ]
    for idx, (users, groups, q, G, L) in enumerate(cases):
        nU = len(users)
        H = (rng.standard_normal((nU, G, L)) + 1j * rng.standard_normal((nU, G, L)))
        H *= np.sqrt(0.5)
        lay = StreamLayout(users=users, groups=groups, q=q)
        P_T = float(10.0 ** rng.uniform(0, 3))
        st = optimize(lay, H, P_T, 1.0,
                      options=SolverOptions(init_seed=idx, n_restarts=2))
        record_diag(st.diagnostics, st.power, P_T)

    assert SOLVER_DIAGS, "solver runs from earlier criteria must be recorded"
    worst = {k: max(d[k] for d in SOLVER_DIAGS)
             for k in ("power_overrun", "dual_norm_err", "stationarity", "outer_decrease")}
    ok = (worst["power_overrun"] <= 1e-6 and worst["dual_norm_err"] <= 1e-12
          and worst["stationarity"] <= 1e-8 and worst["outer_decrease"] <= 1e-6)
    announce(capsys, "criterion 5 (solver invariants)", ok,
             f"{len(SOLVER_DIAGS)} runs: power +{worst['power_overrun']:.1e}, "
             f"dual-norm {worst['dual_norm_err']:.1e}, "
             f"stationarity {worst['stationarity']:.1e}, "
             f"objective dip {worst['outer_decrease']:.1e}")


# ---------------------------------------------------------------------------
# 6. LMMSE properties
# ---------------------------------------------------------------------------

def test_criterion_6_lmmse_properties(capsys):
    t0 = time.time()
    rng = np.random.default_rng(66)
    worst_mse = 0.0
    worst_gain = 0.0
    for trial in range(100):
        nU = int(rng.integers(1, 4))
        G = int(rng.integers(1, 4))
        L = int(rng.integers(1, 5))
        groups = ((tuple(range(nU)),) if nU > 1 and rng.random() < 0.5
                  else tuple((u,) for u in range(nU)))
        q = int(rng.integers(1, 3))
        lay = StreamLayout(users=tuple(range(nU)), groups=groups, q=q)
        H = (rng.standard_normal((nU, G, L)) + 1j * rng.standard_normal((nU, G, L)))
        H *= np.sqrt(0.5)
        W = rng.standard_normal((lay.n_streams, L)) + 1j * rng.standard_normal((lay.n_streams, L))
        N0 = float(rng.uniform(0.2, 2.0))
        U = lmmse_receivers(W, H, N0, lay.member)
        g = sinr(W, H, U, N0)
        e = mse(W, H, U, N0)
        m = lay.member
        worst_mse = max(worst_mse, float(np.max(np.abs(e[m] - 1.0 / (1.0 + g[m])))))

        # perturbation optimality at one member pair, 100 directions at once
        pairs = np.argwhere(m)
        u_idx, s_idx = pairs[rng.integers(len(pairs))]
        heff = H[u_idx] @ W.T  # (G, nS)
        base_u = U[u_idx, s_idx]
        deltas = rng.standard_normal((100, G)) + 1j * rng.standard_normal((100, G))
        deltas /= np.linalg.norm(deltas, axis=1, keepdims=True)
        pert = base_u[None, :] + 1e-3 * deltas  # (100, G)
        cross = pert.conj() @ heff  # (100, nS)
        p2 = np.abs(cross) ** 2
        sig = p2[:, s_idx]
        den = p2.sum(axis=1) - sig + N0 * np.sum(np.abs(pert) ** 2, axis=1)
        worst_gain = max(worst_gain, float(np.max(sig / den - g[u_idx, s_idx])))
    elapsed = time.time() - t0
    announce(capsys, "criterion 6 (receiver optimality and error identity)",
             worst_mse < 1e-9 and worst_gain < 1e-12 and elapsed < 60.0,
             f"100 instances: identity err {worst_mse:.1e}, "
             f"best perturbation gain {worst_gain:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. scheme ordering over SNR
# ---------------------------------------------------------------------------

def test_criterion_7_scheme_ordering(capsys):
    t0 = time.time()
    cfg = NetworkConfig(K=4, L=3, G=2, N=4, M=1)
    plan = plan_transmissions(cfg, 3, 2, 1)
    snrs = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    rep = monte_carlo_sweep(cfg, plan, ["kkt_lmmse", "zf"], snrs, 50, seed=11,
                            options=SolverOptions(n_restarts=3, max_outer=40))
    d = rep.meta["solver_diagnostics"]
    assert d["power_overrun"] <= 1e-6 and d["stationarity"] <= 1e-8
    kkt = rep.mean_curve("kkt_lmmse")
    zf = rep.mean_curve("zf")
    ordered = all(a >= b for a, b in zip(kkt, zf))
    sep = (kkt[-1] - zf[-1]) / zf[-1]
    elapsed = time.time() - t0
    announce(capsys, "criterion 7 (scheme ordering)",
             ordered and sep >= 0.05 and elapsed < 1200.0,
             f"kkt >= zf at all {len(snrs)} SNRs over 50 paired draws, "
             f"separation at 30 dB {sep:.1%}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. multistream gain and slope ratio
# ---------------------------------------------------------------------------

def test_criterion_8_multistream_gain(capsys):
    t0 = time.time()
    cfg = NetworkConfig(K=4, L=2, G=2, N=4, M=1)
    snrs = [20.0, 25.0, 30.0]
    opts = SolverOptions(n_restarts=3, max_outer=60, gradient="per_user")
    curves = {}
    tx_rate_slope = {}
    for beta, q in ((2, 2), (1, 1)):
        plan = plan_transmissions(cfg, 2, beta, q)
        rep = monte_carlo_sweep(cfg, plan, ["kkt_lmmse"], snrs, 40, seed=13,
                                options=opts)
        d = rep.meta["solver_diagnostics"]
        assert d["power_overrun"] <= 1e-6 and d["stationarity"] <= 1e-8
        curves[q] = rep.mean_curve("kkt_lmmse")
        # mean per-transmission rate at each SNR, for the stream-count estimate
        mean_tx = []
        for snr in snrs:
            vals = [r for real in range(40)
                    for r in rep.rates.get(("kkt_lmmse", snr, real), ())]
            mean_tx.append(float(np.mean(vals)))
        tx_rate_slope[q] = fitted_stream_count(snrs, mean_tx)

    ratio = fitted_stream_count(snrs, curves[2]) / fitted_stream_count(snrs, curves[1])
    gain_at_30 = curves[2][-1] > curves[1][-1]
    # per-transmission slope estimates the substream count within 15%
    est_ok = (abs(tx_rate_slope[2] - 2.0) <= 0.3 and abs(tx_rate_slope[1] - 1.0) <= 0.15)
    elapsed = time.time() - t0
    announce(capsys, "criterion 8 (multistream gain)",
             gain_at_30 and 1.7 <= ratio <= 2.3 and est_ok and elapsed < 1200.0,
             f"slope ratio {ratio:.2f} (target 2.0 +/- 0.3), "
             f"per-tx stream estimates {tx_rate_slope[2]:.2f}/{tx_rate_slope[1]:.2f}, "
             f"30 dB means {curves[2][-1]:.2f} > {curves[1][-1]:.2f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(capsys):
    cfg = NetworkConfig(K=3, L=2, G=2, N=3, M=1)
    plan = plan_transmissions(cfg, 2, 1, 1)

    def run():
        rep = monte_carlo_sweep(cfg, plan, ["kkt_lmmse", "zf"], [5.0, 15.0], 3,
                                seed=77, options=SolverOptions(max_outer=15))
        return rep.to_csv().encode(), rep.plot_data().encode()

    a_csv, a_dat = run()
    b_csv, b_dat = run()
    announce(capsys, "criterion 9 (determinism)",
             a_csv == b_csv and a_dat == b_dat,
             f"repeated sweeps byte-identical ({len(a_csv)} CSV bytes)")
