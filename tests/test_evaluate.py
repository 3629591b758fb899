import json
import math

import numpy as np
import pytest

import ccmimo
from ccmimo import (ConfigError, InputError, NetworkConfig, SolverError, SolverOptions,
                    fitted_stream_count, monte_carlo_sweep, plan_transmissions,
                    rate_objective, symmetric_rate)
from ccmimo.beamforming import StreamLayout
from ccmimo.evaluate import DB_PER_BIT, run_scheme


def test_transmission_rate_single_stream():
    # gamma = |w|^2 / N0 = 3 under matched reception: rate log2(4) = 2 bits
    lay = StreamLayout(users=(0,), groups=((0,),), q=1)
    H = np.ones((1, 1, 1), dtype=complex)
    W = np.array([[math.sqrt(3.0)]], dtype=complex)
    assert rate_objective(W, H, lay, 1.0) == pytest.approx(2.0)


def test_transmission_rate_worst_user():
    # two orthogonal single-antenna users with different gains: min rate counts
    lay = StreamLayout(users=(0, 1), groups=((0,), (1,)), q=1)
    H = np.zeros((2, 1, 2), dtype=complex)
    H[0, 0, 0] = 1.0
    H[1, 0, 1] = 0.5
    W = np.array([[math.sqrt(3.0), 0.0], [0.0, math.sqrt(3.0)]], dtype=complex)
    r = rate_objective(W, H, lay, 1.0)
    assert r == pytest.approx(math.log2(1 + 3.0 * 0.25))


def test_symmetric_rate_values():
    # equal per-transmission rates collapse the harmonic sum
    assert symmetric_rate([1.0] * 6, K=4, theta=4) == pytest.approx(16.0 / 6.0)
    assert symmetric_rate([1.0], K=2, theta=2) == pytest.approx(4.0)
    assert symmetric_rate([2.0, 2.0, 2.0], K=3, theta=5) == pytest.approx(3 * 5 * 2.0 / 3)


def test_symmetric_rate_rejects_nonpositive():
    with pytest.raises(InputError):
        symmetric_rate([1.0, 0.0], K=2, theta=2)
    with pytest.raises(InputError):
        symmetric_rate([], K=2, theta=2)
    for bad in (math.nan, math.inf):  # not positive and finite either
        with pytest.raises(InputError):
            symmetric_rate([bad], 3, 3)


def test_symmetric_rate_harmonic_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        rates = rng.uniform(0.2, 5.0, size=rng.integers(1, 9))
        K, theta = 4, 8
        r = symmetric_rate(rates, K, theta)
        n = len(rates)
        assert K * theta * rates.min() / n - 1e-12 <= r <= K * theta * rates.max() / n + 1e-12


def test_fitted_stream_count():
    snr = [20.0, 25.0, 30.0]
    rates = [2 * DB_PER_BIT * s + 0.3 for s in snr]  # two-stream slope by construction
    assert fitted_stream_count(snr, rates) == pytest.approx(2.0)


def small_sweep(workers=1, seed=1, realizations=2, schemes=("kkt_lmmse", "zf")):
    cfg = NetworkConfig(K=3, L=2, G=2, N=3, M=1)
    plan = plan_transmissions(cfg, 2, 1, 1)
    return monte_carlo_sweep(cfg, plan, list(schemes), [5.0, 10.0], realizations,
                             seed=seed, options=SolverOptions(max_outer=15),
                             workers=workers)


def test_sweep_empty():
    rep = small_sweep(realizations=0)
    assert rep.points == [] or all(p.n_ok == 0 for p in rep.points)
    assert rep.meta["n_realizations"] == 0
    assert rep.to_csv().splitlines()[0] == "scheme,snr_db,mean_rsym,stderr,n_ok,n_failed,seed"


@pytest.mark.parametrize("bad", [
    dict(snr_db=[]), dict(schemes=[]), dict(n_realizations=-1),
    dict(subset_sample=0), dict(subset_sample=-1), dict(seed=-1),
    dict(seed=-1, n_realizations=0), dict(workers=0),
    dict(n_realizations=1.5), dict(subset_sample=1.5), dict(seed=1.5), dict(workers=1.5),
    dict(workers=True), dict(schemes=["zf", "zf"]), dict(snr_db=[5.0, 5.0]),
])
def test_sweep_rejects_bad_arguments(bad):
    cfg = NetworkConfig(K=3, L=2, G=2, N=3, M=1)
    plan = plan_transmissions(cfg, 2, 1, 1)
    args = dict(schemes=["zf"], snr_db=[5.0], n_realizations=1, seed=1, subset_sample=None)
    with pytest.raises(ConfigError):
        monte_carlo_sweep(cfg, plan, **{**args, **bad})


def test_sweep_determinism():
    a = small_sweep()
    b = small_sweep()
    assert a.to_csv() == b.to_csv()
    assert a.plot_data() == b.plot_data()


def test_sweep_csv_shape_and_scheme_ordering():
    rep = small_sweep()
    lines = rep.to_csv().strip().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + schemes x snr points
    assert lines[1].startswith("kkt_lmmse,5,")
    assert lines[-1].startswith("zf,10,")
    for line in lines[1:]:
        assert len(line.split(",")) == 7


def test_sweep_meta_is_json():
    # the machine-readable record of a sweep: plain JSON, its solver
    # diagnostics built-in numbers (no numpy scalar leaks from the merges)
    meta = small_sweep(schemes=("kkt_lmmse",)).meta
    assert json.loads(json.dumps(meta)) == meta
    diag = meta["solver_diagnostics"]
    assert diag["outer_iterations"] > 0
    assert all(type(val) in (int, float) for val in diag.values()), diag


def test_sweep_solver_beats_zf_on_average():
    cfg = NetworkConfig(K=4, L=3, G=2, N=4, M=1)
    plan = plan_transmissions(cfg, 3, 2, 1)
    rep = monte_carlo_sweep(cfg, plan, ["kkt_lmmse", "zf"], [10.0], 6, seed=3,
                            options=SolverOptions(n_restarts=2))
    kkt = rep.mean_curve("kkt_lmmse")[0]
    zf = rep.mean_curve("zf")[0]
    assert kkt >= zf


def test_sweep_subset_subsampling_recorded():
    cfg = NetworkConfig(K=4, L=2, G=2, N=4, M=1)
    plan = plan_transmissions(cfg, 2, 1, 1)  # 6 transmissions
    rep = monte_carlo_sweep(cfg, plan, ["zf"], [10.0], 2, seed=5, subset_sample=3)
    assert len(rep.meta["subsets_used"]) == 3
    assert rep.meta["extrapolation_factor"] == pytest.approx(2.0)
    full = monte_carlo_sweep(cfg, plan, ["zf"], [10.0], 2, seed=5)
    assert len(full.meta["subsets_used"]) == 6
    # subsampled estimate stays in the right ballpark of the full plan
    assert rep.mean_curve("zf")[0] == pytest.approx(full.mean_curve("zf")[0], rel=0.5)


def test_sweep_oracle_scheme_runs(monkeypatch):
    monkeypatch.setattr(ccmimo.evaluate, "ORACLE_RESTARTS", 5)
    cfg = NetworkConfig(K=2, L=2, G=2, N=2, M=1)
    plan = plan_transmissions(cfg, 2, 2, 2)
    rep = monte_carlo_sweep(cfg, plan, ["oracle_smallscale"], [10.0], 1, seed=2)
    assert rep.points[0].n_ok == 1
    assert rep.points[0].mean_rsym > 0


def test_sweep_parallel_matches_serial():
    a = small_sweep(workers=1)
    b = small_sweep(workers=2)
    assert a.to_csv() == b.to_csv()
    assert a.meta["solver_diagnostics"] == b.meta["solver_diagnostics"]
    assert a.meta["solver_diagnostics"]["outer_iterations"] > 0


def test_sweep_pool_capped_at_job_count(monkeypatch):
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(ccmimo.evaluate, "ProcessPoolExecutor", SerialPool)
    # one job per realization, each over the whole 2-point SNR grid
    rep = small_sweep(workers=64, realizations=3)
    assert asked == [3]
    assert rep.to_csv() == small_sweep(workers=1, realizations=3).to_csv()
    # a single realization is one job, run without a pool
    assert small_sweep(workers=64, realizations=1).to_csv() \
        == small_sweep(workers=1, realizations=1).to_csv()
    assert asked == [3]


def test_scheme_seed_independent_of_list_position(monkeypatch):
    # each scheme draws the seed of its index in SCHEMES, so listing another
    # scheme before the oracle leaves the oracle's rates unchanged
    cfg = NetworkConfig(K=3, L=2, G=2, N=3, M=1)
    plan = plan_transmissions(cfg, 2, 1, 1)
    monkeypatch.setattr(ccmimo.evaluate, "ORACLE_RESTARTS", 4)

    def oracle_rates(schemes):
        rep = monte_carlo_sweep(cfg, plan, schemes, [15.0], 1, seed=77)
        return rep.rates[("oracle_smallscale", 15.0, 0)]

    assert oracle_rates(["kkt_lmmse", "oracle_smallscale"]) == oracle_rates(["oracle_smallscale"])


def test_sweep_counts_singular_receivers_as_failed(monkeypatch):
    real = ccmimo.evaluate.sample_channels

    def rank_one_first_draw(seed, realization, K, G, L):
        cs = real(seed, realization, K, G, L)
        if realization == 0:  # both receive antennas see the same channel
            cs.H[:, 1] = cs.H[:, 0]
        return cs

    monkeypatch.setattr(ccmimo.evaluate, "sample_channels", rank_one_first_draw)
    cfg = NetworkConfig(K=4, L=3, G=2, N=4, M=1)
    plan = plan_transmissions(cfg, 3, 2, 1)
    rep = monte_carlo_sweep(cfg, plan, ["kkt_lmmse", "zf"], [200.0], 3, seed=1,
                            options=SolverOptions(max_outer=5))
    assert [(p.n_ok, p.n_failed) for p in rep.points] == [(2, 1), (2, 1)]
    assert all(p.mean_rsym > 0 for p in rep.points)


def _stress_channel(kind, rng):
    """A (3, 2, 3) channel: three users with two antennas, three transmit antennas."""
    H = (rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))) * np.sqrt(0.5)
    if kind == "rank1":
        H[:, 1] = H[:, 0]  # both receive antennas see the same channel
    elif kind == "zero":
        H[:] = 0.0
    elif kind == "nan":
        H[1, 0, 2] = np.nan
    return H


@pytest.mark.parametrize("scheme", ["kkt_lmmse", "zf", "oracle_smallscale"])
def test_run_scheme_stress_only_typed_errors(monkeypatch, scheme):
    # seeded sweep over extreme SNRs and degenerate channels: a scheme either
    # raises a typed error or returns a finite rate within the power budget
    lay = StreamLayout(users=(0, 1, 2), groups=((0, 1), (0, 2), (1, 2)), q=1)
    options = SolverOptions(max_outer=4, n_restarts=1, keep_trace=False)
    monkeypatch.setattr(ccmimo.evaluate, "ORACLE_RESTARTS", 2)
    rng = np.random.default_rng(2024)
    outcomes = []
    for kind in ("random", "rank1", "zero", "nan"):
        H = _stress_channel(kind, rng)
        for snr_db in (-20.0, 0.0, 30.0, 100.0, 200.0):
            P_T = 10.0 ** (snr_db / 10.0)
            try:
                r, design = run_scheme(scheme, lay, H, snr_db, 1.0, options, 5, 0, 0)
            except (SolverError, InputError) as err:
                outcomes.append((kind, snr_db, type(err).__name__))
                continue
            W = design[1] if scheme == "oracle_smallscale" else design.W
            assert math.isfinite(r), (kind, snr_db, r)
            assert np.all(np.isfinite(W)), (kind, snr_db)
            assert np.sum(np.abs(W) ** 2) <= P_T * (1 + 1e-6), (kind, snr_db)
            outcomes.append((kind, snr_db, "ok"))
    # a NaN channel is rejected at the boundary, and a healthy channel at a
    # moderate SNR always solves
    assert all(o[2] == "InputError" for o in outcomes if o[0] == "nan")
    assert ("random", 0.0, "ok") in outcomes
    # so is an SNR whose power budget, or a noise level, is not positive and finite
    H = _stress_channel("random", rng)
    for snr_db, N0 in ((-math.inf, 1.0), (math.inf, 1.0), (math.nan, 1.0), (4000.0, 1.0),
                       (0.0, 0.0), (0.0, math.nan)):
        with pytest.raises(ConfigError):
            run_scheme(scheme, lay, H, snr_db, N0, options, 5, 0, 0)
