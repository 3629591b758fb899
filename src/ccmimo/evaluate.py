"""Rate aggregation and Monte Carlo SNR sweeps across beamforming schemes.

A sweep draws seeded channel realizations, optimizes (or zero-forces)
every transmission of the delivery plan, and aggregates the whole-plan
symmetric rate per scheme and SNR point.  All randomness flows from one
top-level seed through named substreams (0: channels, 1: solver inits,
2: subset subsampling), so repeated runs are byte-identical.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle
from .beamforming import (INVARIANT_KEYS, SolverOptions, layout_for_subset,
                          merge_invariants, optimize, rate_objective, zf_beamformers)
from .channel import derive_seed, sample_channels, seeded_rng, snr_to_power
from .config import NetworkConfig
from .delivery import DeliveryPlan
from .errors import ConfigError, InputError, SolverError

SCHEMES = ("kkt_lmmse", "zf", "oracle_smallscale")

DB_PER_BIT = np.log2(10.0) / 10.0  # high-SNR slope of log2(1+snr) per dB


def symmetric_rate(rates, K: int, theta: int, factor: float = 1.0) -> float:
    """Whole-plan symmetric rate: K * theta over ``factor`` times the summed inverse rates."""
    rates = [float(r) for r in rates]
    if not rates:
        raise InputError("no per-transmission rates given")
    if any(r <= 0 for r in rates):
        raise InputError(f"non-positive per-transmission rate in {rates}")
    return K * theta / (factor * sum(1.0 / r for r in rates))


def fitted_stream_count(snr_db, mean_rates) -> float:
    """Least-squares slope of rate vs SNR in dB, in units of one stream's slope."""
    slope = np.polyfit(np.asarray(snr_db, float), np.asarray(mean_rates, float), 1)[0]
    return float(slope / DB_PER_BIT)


# ---------------------------------------------------------------------------
# Sweep machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    scheme: str
    snr_db: float
    mean_rsym: float
    stderr: float
    n_ok: int
    n_failed: int


@dataclass(eq=False)
class RateReport:
    """All rates of one sweep plus the aggregated per-point statistics."""

    meta: dict
    points: list = field(default_factory=list)
    rates: dict = field(default_factory=dict)  # (scheme, snr_db, realization) -> per-tx rates

    def to_csv(self) -> str:
        lines = ["scheme,snr_db,mean_rsym,stderr,n_ok,n_failed,seed"]
        seed = self.meta["seed"]
        for p in self.points:
            lines.append(
                f"{p.scheme},{p.snr_db:g},{p.mean_rsym:.12g},{p.stderr:.12g},"
                f"{p.n_ok},{p.n_failed},{seed}"
            )
        return "\n".join(lines) + "\n"

    def plot_data(self) -> str:
        """Gnuplot-style columns: snr_db then one mean-rate column per scheme."""
        schemes = self.meta["schemes"]
        by_key = {(p.scheme, p.snr_db): p.mean_rsym for p in self.points}
        lines = ["# symmetric rate vs SNR", "# snr_db " + " ".join(schemes)]
        for snr in self.meta["snr_db"]:
            vals = " ".join(f"{by_key.get((s, snr), float('nan')):.12g}" for s in schemes)
            lines.append(f"{snr:g} {vals}")
        return "\n".join(lines) + "\n"

    def mean_curve(self, scheme):
        return [p.mean_rsym for p in self.points if p.scheme == scheme]


def run_scheme(scheme, layout, H, P_T, N0, options: SolverOptions, seed: int,
               oracle_restarts: int):
    """Worst-user rate of one transmission under one scheme, and the design
    behind it: a BeamformerState, a ZfResult, or the oracle's transmit set.

    ``seed`` seeds the solver's initializations or the oracle's restarts.
    """
    if scheme == "kkt_lmmse":
        st = optimize(layout, H, P_T, N0, options=replace(options, init_seed=seed))
        return st.objective, st
    if scheme == "zf":
        res = zf_beamformers(layout, H, P_T, N0)
        return rate_objective(res.W, H, layout, N0), res
    if scheme == "oracle_smallscale":
        return oracle.max_rate_projected_gradient(H, layout.groups, layout.q, P_T, N0,
                                                  restarts=oracle_restarts, seed=seed)
    raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _sweep_job(config, schemes, transmissions, options, seed, oracle_restarts,
               snr_idx, snr_db, realization):
    """One (SNR point, realization): each scheme's rates over the selected
    ``(subset_idx, layout)`` transmissions (None where a solver failed or a
    rate was not positive) and the merged solver diagnostics."""
    P_T = snr_to_power(snr_db, config.N0)
    cs = sample_channels(derive_seed(seed, 0), realization, config.K, config.G, config.L)
    diag = dict.fromkeys(INVARIANT_KEYS, 0.0)
    results = []
    for scheme in schemes:
        rates: list | None = []
        for subset_idx, layout in transmissions:
            Hs = cs.H[list(layout.users)]
            iseed = derive_seed(seed, 1, SCHEMES.index(scheme), snr_idx, realization, subset_idx)
            try:
                r, design = run_scheme(scheme, layout, Hs, P_T, config.N0, options, iseed,
                                       oracle_restarts)
            except SolverError:
                rates = None
                break
            if scheme == "kkt_lmmse":
                merge_invariants(diag, design.diagnostics)
            if not r > 0:
                rates = None
                break
            rates.append(float(r))
        results.append(None if rates is None else tuple(rates))
    return results, diag


def monte_carlo_sweep(config: NetworkConfig, plan: DeliveryPlan, schemes, snr_db,
                      n_realizations: int, seed: int, subset_sample=None,
                      options: SolverOptions | None = None, oracle_restarts: int = 40,
                      workers: int = 1) -> RateReport:
    """Paired Monte Carlo comparison of delivery schemes over an SNR grid.

    Schemes share channel realizations at each (SNR, realization) pair.
    ``subset_sample`` optimizes only that many serving subsets (seeded
    uniform pick) and extrapolates the summed inverse rates by
    n_transmissions / sample size; the report records the choice.
    Realizations where a solver fails or a rate is non-positive are
    discarded and counted.  Deterministic for a fixed seed.  An empty scheme
    list or SNR grid, a negative realization count or seed, or a subset
    sample below one is a ConfigError.
    """
    schemes = list(schemes)
    snr_db = [float(s) for s in snr_db]
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
    if not schemes or not snr_db:
        raise ConfigError(f"empty sweep: schemes={schemes}, snr_db={snr_db}")
    if n_realizations < 0:
        raise ConfigError(f"n_realizations must be >= 0, got {n_realizations}")
    if seed < 0:
        raise ConfigError(f"seeds must be non-negative, got seed={seed}")
    if subset_sample is not None and subset_sample < 1:
        raise ConfigError(f"subset_sample must be >= 1, got {subset_sample}")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    options = replace(options or SolverOptions(), keep_trace=False)

    n_tx = plan.n_transmissions
    if subset_sample is None or subset_sample >= n_tx:
        subsets = tuple(range(n_tx))
    else:
        rng = seeded_rng(seed, 2)
        subsets = tuple(sorted(rng.choice(n_tx, size=subset_sample, replace=False).tolist()))
    factor = n_tx / len(subsets)

    t0 = time.time()
    transmissions = tuple((i, layout_for_subset(plan, i)) for i in subsets)
    job = functools.partial(_sweep_job, config, schemes, transmissions, options, seed,
                            oracle_restarts)
    points = [(i, snr, r) for i, snr in enumerate(snr_db) for r in range(n_realizations)]
    workers = min(workers, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(job, *zip(*points),
                                chunksize=max(1, len(points) // (8 * workers))))
    else:
        raw = [job(*p) for p in points]

    report = RateReport(meta={
        "schemes": schemes, "snr_db": snr_db,
        "n_realizations": n_realizations, "seed": seed,
        "n_transmissions": n_tx, "subsets_used": list(subsets),
        "extrapolation_factor": factor,
        "solver_diagnostics": dict.fromkeys(INVARIANT_KEYS, 0.0),
    })
    for (_, snr, realization), (results, diag) in zip(points, raw):
        merge_invariants(report.meta["solver_diagnostics"], diag)
        for scheme, rates in zip(schemes, results):
            if rates is not None:
                report.rates[(scheme, snr, realization)] = rates

    for scheme in schemes:
        for snr in snr_db:
            drawn = [report.rates.get((scheme, snr, r)) for r in range(n_realizations)]
            ok = [symmetric_rate(rates, config.K, plan.theta, factor)
                  for rates in drawn if rates is not None]
            n_ok, n_failed = len(ok), n_realizations - len(ok)
            mean = float(np.mean(ok)) if ok else float("nan")
            stderr = float(np.std(ok, ddof=1) / np.sqrt(n_ok)) if n_ok >= 2 else 0.0
            report.points.append(SweepPoint(scheme, snr, mean, stderr, n_ok, n_failed))

    report.meta["runtime_s"] = time.time() - t0
    return report
