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
from .beamforming import (SolverOptions, layout_for_subset, merge_diagnostics, optimize,
                          rate_objective, zf_beamformers)
from .channel import derive_seed, require_count, sample_channels, seeded_rng, snr_to_power
from .config import NetworkConfig
from .delivery import DeliveryPlan
from .errors import ConfigError, InputError, SolverError

SCHEMES = ("kkt_lmmse", "zf", "oracle_smallscale")
ORACLE_RESTARTS = 40  # oracle_smallscale's restarts per transmission

DB_PER_BIT = np.log2(10.0) / 10.0  # high-SNR slope of log2(1+snr) per dB


def symmetric_rate(rates, K: int, theta: int, factor: float = 1.0) -> float:
    """Whole-plan symmetric rate: K * theta over ``factor`` times the summed inverse rates."""
    rates = [float(r) for r in rates]
    if not rates:
        raise InputError("no per-transmission rates given")
    if not all(0 < r < np.inf for r in rates):  # also false for NaN
        raise InputError(f"non-positive or non-finite per-transmission rate in {rates}")
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


def run_scheme(scheme, layout, H, snr_db, N0, options: SolverOptions, seed: int,
               realization: int, subset_idx: int):
    """Worst-user rate of one transmission under one scheme at ``snr_db``, and
    the design behind it: a BeamformerState, a ZfResult, or the oracle's transmit set.

    The power budget is snr_to_power(snr_db, N0); every input is checked by
    beamforming.require_problem, in the solver or oracle.  The solver or oracle seed is
    derive_seed(seed, 1, SCHEMES.index(scheme), snr_key, realization, subset_idx),
    where snr_key is the float64 bit pattern of snr_db (-0.0 reads as 0.0): one
    key for sweeps and ``simulate``, set by the SNR value, not its grid position.
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    P_T = snr_to_power(snr_db, N0)
    snr_key = int(np.float64(snr_db + 0.0).view(np.uint64))
    run_seed = derive_seed(seed, 1, SCHEMES.index(scheme), snr_key, realization, subset_idx)
    if scheme == "kkt_lmmse":
        st = optimize(layout, H, P_T, N0, options=replace(options, init_seed=run_seed))
        return st.objective, st
    if scheme == "zf":
        res = zf_beamformers(layout, H, P_T, N0)
        return rate_objective(res.W, H, layout, N0), res
    return oracle.max_rate_projected_gradient(H, layout.groups, layout.q, P_T, N0,
                                              restarts=ORACLE_RESTARTS, seed=run_seed)


def draw_transmissions(config: NetworkConfig, seed: int, realization: int, transmissions):
    """Each ``(subset_idx, layout)`` transmission as ``(subset_idx, layout, H)``, H its
    users' rows of the channel draw of ``realization`` (channel substream of ``seed``)."""
    cs = sample_channels(derive_seed(seed, 0), realization, config.K, config.G, config.L)
    return [(i, layout, cs.H[list(layout.users)]) for i, layout in transmissions]


def _sweep_job(config, schemes, transmissions, options, seed, snr_db, realization):
    """One realization over the whole SNR grid: the rates of each (scheme, SNR)
    pair over the selected ``(subset_idx, layout)`` transmissions, keyed like
    ``RateReport.rates`` and left out where a solver failed or a rate was not
    positive, and the merged solver diagnostics."""
    channels = draw_transmissions(config, seed, realization, transmissions)
    diags = []
    rates = {}
    for snr in snr_db:
        for scheme in schemes:
            drawn = []
            for subset_idx, layout, Hs in channels:
                try:
                    r, design = run_scheme(scheme, layout, Hs, snr, config.N0, options,
                                           seed, realization, subset_idx)
                except SolverError:
                    break
                if scheme == "kkt_lmmse":
                    diags.append(design.diagnostics)
                if not r > 0:
                    break
                drawn.append(float(r))
            else:
                rates[(scheme, snr, realization)] = tuple(drawn)
    return rates, merge_diagnostics(diags)


def monte_carlo_sweep(config: NetworkConfig, plan: DeliveryPlan, schemes, snr_db,
                      n_realizations: int, seed: int, subset_sample=None,
                      options: SolverOptions | None = None, workers: int = 1) -> RateReport:
    """Paired Monte Carlo comparison of delivery schemes over an SNR grid.

    Every scheme and SNR point shares the channel draw of a realization.
    ``subset_sample`` optimizes only that many serving subsets (seeded
    uniform pick) and extrapolates the summed inverse rates by
    n_transmissions / sample size; the report records the choice.
    Realizations where a solver fails or a rate is non-positive are
    discarded and counted; ``meta["solver_diagnostics"]`` merges every
    kkt_lmmse run's.  Deterministic for a fixed seed.  An empty scheme
    list or SNR grid, a repeated scheme or SNR, a negative realization count
    or seed, or a subset sample or worker count below one is a ConfigError.
    """
    schemes = list(schemes)
    snr_db = [float(s) for s in snr_db]
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
    if not 0 < len(set(schemes)) == len(schemes) or not 0 < len(set(snr_db)) == len(snr_db):
        raise ConfigError(f"empty sweep or repeated point: schemes={schemes}, snr_db={snr_db}")
    require_count(0, n_realizations=n_realizations, seeds=seed)
    require_count(1, workers=workers,
                  **({} if subset_sample is None else {"subset_sample": subset_sample}))
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
    job = functools.partial(_sweep_job, config, schemes, transmissions, options, seed, snr_db)
    workers = min(workers, n_realizations)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(job, range(n_realizations),
                                chunksize=max(1, n_realizations // (8 * workers))))
    else:
        raw = [job(r) for r in range(n_realizations)]

    report = RateReport(meta={
        "schemes": schemes, "snr_db": snr_db,
        "n_realizations": n_realizations, "seed": seed,
        "n_transmissions": n_tx, "subsets_used": list(subsets),
        "extrapolation_factor": factor,
        "solver_diagnostics": merge_diagnostics(diag for _, diag in raw),
    })
    for rates, _ in raw:
        report.rates.update(rates)

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
