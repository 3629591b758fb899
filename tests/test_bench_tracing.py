"""The benchmark's per-layer tracer must find every binding it patches.

``bench/tracing.py`` wraps 35 (module, name) bindings of the package and
relies on the code reaching them through module globals at call time.
Renaming, deleting or capturing one of them breaks the benchmark's
tracing; this test catches that in the ordinary suite.
"""

import os
import sys

import ccmimo

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
from tracing import Tracer  # noqa: E402

N_BINDINGS = 35
MODULES = (ccmimo, ccmimo.beamforming, ccmimo.evaluate, ccmimo.oracle,
           ccmimo.channel, ccmimo.delivery, ccmimo.dof)


def bindings():
    return {(mod.__name__, name): value for mod in MODULES for name, value in vars(mod).items()}


def test_tracer_patches_and_restores_every_binding():
    before = bindings()
    tracer = Tracer(ccmimo)
    with tracer:
        inside = bindings()
        patched = [key for key, value in before.items() if inside[key] is not value]
        assert len(patched) == N_BINDINGS, sorted(patched)
        # the wrappers see calls made through module globals, end to end;
        # like the benchmark, call through the package namespace
        cfg = ccmimo.NetworkConfig(K=3, L=2, G=2, N=3, M=1)
        plan = ccmimo.plan_transmissions(cfg, 2, 1, 1)
        rep = ccmimo.monte_carlo_sweep(cfg, plan, ["kkt_lmmse", "zf"], [10.0], 1, seed=1,
                                       options=ccmimo.SolverOptions(max_outer=2, n_restarts=2))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    snapshot = tracer.snapshot()
    calls = snapshot["calls"]
    for layer in ("evaluate.sweep", "channel.sample", "beamforming.optimize",
                  "beamforming.tx_update", "beamforming.lmmse", "beamforming.mse",
                  "beamforming.rate_eval", "beamforming.duals", "beamforming.zf",
                  "beamforming.init", "delivery.plan"):
        assert calls.get(layer, 0) > 0, (layer, calls)
    # the tracer's closed-form accepts, recomputed from each call's arguments,
    # are the ones the solver counts itself
    accepts = rep.meta["solver_diagnostics"]["closed_form_accepts"]
    assert snapshot["mu_accepts"] == accepts > 0, (snapshot["mu_accepts"], accepts)
