"""Golden outputs: seeded results compared bit for bit against tests/golden.json.

Floats are stored as ``float.hex`` strings, so a comparison is exact.  After a
change that is meant to move these numbers, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

which prints ``key: old -> new`` for each value it changes (nothing when none
does), and say in the change description which values moved and why.
"""

import contextlib
import functools
import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

from ccmimo import (NetworkConfig, SolverOptions, StreamLayout, max_rate_projected_gradient,
                    monte_carlo_sweep, optimize, optimize_dof, plan_transmissions,
                    sample_channels)
from ccmimo.cli import EXIT_OK, main
from test_cli import BASE_INI

GOLDEN = Path(__file__).with_name("golden.json")


def criterion_9_digests():
    """sha256 of the criterion-9 sweep's CSV and of its plot data."""
    cfg = NetworkConfig(K=3, L=2, G=2, N=3, M=1)
    plan = plan_transmissions(cfg, 2, 1, 1)
    rep = monte_carlo_sweep(cfg, plan, ["kkt_lmmse", "zf"], [5.0, 15.0], 3,
                            seed=77, options=SolverOptions(max_outer=15))
    return {"csv_sha256": hashlib.sha256(rep.to_csv().encode()).hexdigest(),
            "plot_data_sha256": hashlib.sha256(rep.plot_data().encode()).hexdigest()}


def rates_at_15_db(grid):
    """Realization 2's per-transmission kkt rates at 15 dB of a seed-77 sweep."""
    cfg = NetworkConfig(K=3, L=2, G=2, N=3, M=1)
    plan = plan_transmissions(cfg, 2, 1, 1)
    rep = monte_carlo_sweep(cfg, plan, ["kkt_lmmse"], grid, 3, seed=77,
                            options=SolverOptions(max_outer=15, n_restarts=3))
    return [r.hex() for r in rep.rates[("kkt_lmmse", 15.0, 2)]]


def criterion_4_objectives():
    """Solver objectives on criterion 4's channels 0 and 1 (20 dB, q = 2)."""
    lay = StreamLayout(users=(0, 1), groups=((0, 1),), q=2)
    opts = SolverOptions(n_restarts=16, max_outer=60, gradient="per_user")
    return [optimize(lay, sample_channels(20, c, 2, 2, 2).H, 100.0, 1.0,
                     options=replace(opts, init_seed=c)).objective.hex() for c in (0, 1)]


# one realization at one high-SNR point of each benchmark sweep's shape:
# (network, (omega, beta, q), schemes, SNR in dB, solver options)
BENCH_SWEEPS = {
    "sweep_kkt": (dict(K=4, L=3, G=2, N=4, M=1), (3, 2, 1), ["kkt_lmmse", "zf"], 30.0,
                  dict(n_restarts=3, max_outer=40)),
    "sweep_multistream": (dict(K=4, L=2, G=2, N=4, M=1), (2, 2, 2), ["kkt_lmmse"], 30.0,
                          dict(n_restarts=3, max_outer=60, gradient="per_user")),
}


@functools.cache
def bench_sweep_reports():
    """The report of a one-realization sweep of each BENCH_SWEEPS shape."""
    reports = {}
    for name, (network, (omega, beta, q), schemes, snr, options) in BENCH_SWEEPS.items():
        cfg = NetworkConfig(**network)
        best = optimize_dof(cfg.L, cfg.G, cfg.t, omega=omega, beta=beta, q=q)
        plan = plan_transmissions(cfg, best.omega, best.beta, best.q)
        reports[name] = monte_carlo_sweep(cfg, plan, schemes, [snr], 1, seed=5,
                                          options=SolverOptions(**options))
    return reports


def bench_sweep_digests():
    """sha256 of the CSV of each bench_sweep_reports sweep."""
    return {name: hashlib.sha256(rep.to_csv().encode()).hexdigest()
            for name, rep in bench_sweep_reports().items()}


def bench_sweep_solver():
    """The merged solver diagnostics and every per-transmission kkt rate of each
    bench_sweep_reports sweep, floats as float.hex (the CSV keeps 12 digits)."""
    pins = {}
    for name, rep in bench_sweep_reports().items():
        diag, (snr,) = rep.meta["solver_diagnostics"], rep.meta["snr_db"]
        pins[name] = {"solver_diagnostics": {key: val.hex() if isinstance(val, float) else val
                                             for key, val in diag.items()},
                      "kkt_rates": [r.hex() for r in rep.rates["kkt_lmmse", snr, 0]]}
    return pins


def oracle_check_values():
    """The oracle's value on criterion 4's channels 0 and 1 at the bench
    oracle_check budget (50 restarts, 50 steps)."""
    return [max_rate_projected_gradient(sample_channels(20, c, 2, 2, 2).H, ((0, 1),), 2, 100.0,
                                        1.0, restarts=50, seed=1000 + c, max_steps=50)[0].hex()
            for c in (0, 1)]


def simulate_output(tmp):
    """``ccmimo simulate --config BASE_INI --snr 10`` (kkt_lmmse) run in the
    directory ``tmp``: the sha256 of each trace file, and the stdout lines with
    the trace paths dropped."""
    ini, out = Path(tmp) / "run.ini", Path(tmp) / "out"
    ini.write_text(BASE_INI.format(out=out))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["simulate", "--config", str(ini), "--snr", "10"]) == EXIT_OK
    return {"traces": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.iterdir())},
            "stdout": [line.split(" trace=")[0] for line in stdout.getvalue().splitlines()]}


def golden():
    return json.loads(GOLDEN.read_text())


def test_criterion_9_digests():
    assert criterion_9_digests() == golden()["criterion_9"]


def test_rates_independent_of_grid():
    want = golden()["kkt_rates_15db_realization_2"]
    assert rates_at_15_db([15.0]) == want
    assert rates_at_15_db([5.0, 15.0]) == want


def test_criterion_4_objectives():
    assert criterion_4_objectives() == golden()["criterion_4_objectives"]


def test_bench_sweep_digests():
    assert bench_sweep_digests() == golden()["bench_sweeps"]


def test_bench_sweep_solver():
    assert bench_sweep_solver() == golden()["bench_sweep_solver"]


def test_oracle_check_values():
    assert oracle_check_values() == golden()["oracle_check_values"]


def test_simulate_output(tmp_path):
    assert simulate_output(tmp_path) == golden()["simulate_kkt_snr_10"]


def changes(old, new, key=""):
    """One ``key: old -> new`` line per pinned value that differs (None: absent)."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in {**old, **new}:
            yield from changes(old.get(k), new.get(k), f"{key}.{k}" if key else k)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from changes(a, b, f"{key}[{i}]")
    elif old != new:
        yield f"{key}: {old} -> {new}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        new = {"criterion_9": criterion_9_digests(),
               "kkt_rates_15db_realization_2": rates_at_15_db([15.0]),
               "criterion_4_objectives": criterion_4_objectives(),
               "bench_sweeps": bench_sweep_digests(),
               "bench_sweep_solver": bench_sweep_solver(),
               "oracle_check_values": oracle_check_values(),
               "simulate_kkt_snr_10": simulate_output(tmp)}
    for line in changes(golden() if GOLDEN.exists() else {}, new):
        print(line)
    GOLDEN.write_text(json.dumps(new, indent=2) + "\n")
