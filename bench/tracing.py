"""Outside-in per-layer tracing for the ccmimo benchmark.

The tracer replaces module attributes of the installed package with
timing wrappers for the duration of a ``with`` block and restores them on
exit.  A function is wrapped at every name it is looked up under: the
solver's inner loop calls ``ccmimo.beamforming.solve_tx_with_power``
through the beamforming module globals, while the sweep calls
``ccmimo.evaluate.optimize``, a separate binding of the same function.

Each wrapped call is a span.  A layer's self time is the time of its
spans minus the time of the child spans they enclose; a layer's call
count is the number of times control entered the layer from outside it,
so ``rate_objective -> per_user_rates -> sinr`` counts one rate-evaluation
call.  Spans are aggregated as they close, not stored.

Which end-to-end figure each layer should move, and where:

  beamforming.tx_update   solve_tx_with_power: tx_per_s and call_ms_* most on
                          sweep_kkt, less on sweep_multistream, little on
                          oracle_check; with mu_closed_form_accept_ratio
  beamforming.optimize    optimize/_optimize_single loop overhead (self time):
                          tx_per_s on both sweeps, and peak_rss_mb if batched
  beamforming.duals       update_rates, update_duals   } tx_per_s on both
  beamforming.rate_eval   rate_objective, per_user_rates, sinr } sweeps and,
  beamforming.mse         mse                          } less, oracle_check
  beamforming.lmmse       lmmse_receivers              }
  beamforming.zf          zf_beamformers: the zf scheme on sweep_kkt, and the
                          second start of every multi-restart optimize
  beamforming.init        group_svd_init, the first start of every optimize
  oracle.rate_eval        rate_with_ideal_receivers    } tx_per_s, call_ms_*
  oracle.ascent           max_rate_projected_gradient  } on oracle_check only
  delivery.plan           plan_transmissions: setup_s on every workload
  delivery.placement      build_placement   } tx_per_s on delivery_k12 only;
  delivery.codewords      build_codewords   } no solver change should move
  delivery.decode         verify_decode     } them
  channel.sample          sample_channels: sweeps' tx_per_s, a small share
  evaluate.sweep          monte_carlo_sweep/_sweep_job overhead: the same
  dof.optimize            optimize_dof, set-up only: setup_s
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict


class Tracer:
    """Per-layer call counts and self times, plus solver counters."""

    def __init__(self, package):
        self.pkg = package
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.mu_accepts = 0
        self.outer_iterations = 0
        self._stack = []
        self._saved = []

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.mu_accepts = 0
        self.outer_iterations = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer, count, after):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]  # layer, time of enclosed child spans
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[layer] += dur - frame[1]
                if count and (parent is None or parent[0] != layer):
                    calls[layer] += 1
                if parent is not None:
                    parent[1] += dur
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def _patch(self, module, name, layer, count=True, after=None):
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, self._wrap(original, layer, count, after))

    def __enter__(self):
        pkg = self.pkg
        bf, ev, orc = pkg.beamforming, pkg.evaluate, pkg.oracle
        ch, dl, dof = pkg.channel, pkg.delivery, pkg.dof

        tx_sig = inspect.signature(bf.solve_tx_with_power)
        closed_form_mu, mu_floor = bf.closed_form_mu, bf.MU_FLOOR

        def count_accept(args, kwargs, out):
            # the closed-form multiplier was kept iff the returned mu equals it
            if len(args) >= 4:  # the solver's own call: (U, lam, H, P_T, mode=...)
                U, lam, _, P_T = args[:4]
            else:
                a = tx_sig.bind(*args, **kwargs).arguments
                U, lam, P_T = a["U"], a["lam"], a["P_T"]
            if out[1] == max(closed_form_mu(lam, U, P_T), mu_floor):
                self.mu_accepts += 1

        def count_outer(args, kwargs, out):
            self.outer_iterations += int(out.diagnostics["outer_iterations"])

        bindings = [
            # (module, attribute, layer, count calls, after-hook)
            (bf, "solve_tx_with_power", "beamforming.tx_update", True, count_accept),
            (bf, "lmmse_receivers", "beamforming.lmmse", True, None),
            (bf, "mse", "beamforming.mse", True, None),
            (bf, "rate_objective", "beamforming.rate_eval", True, None),
            (bf, "per_user_rates", "beamforming.rate_eval", True, None),
            (bf, "sinr", "beamforming.rate_eval", True, None),
            (bf, "update_rates", "beamforming.duals", True, None),
            (bf, "update_duals", "beamforming.duals", True, None),
            (bf, "zf_beamformers", "beamforming.zf", True, None),
            (bf, "group_svd_init", "beamforming.init", True, None),
            (bf, "_optimize_single", "beamforming.optimize", False, None),
            (ev, "optimize", "beamforming.optimize", True, count_outer),
            (ev, "rate_objective", "beamforming.rate_eval", True, None),
            (ev, "zf_beamformers", "beamforming.zf", True, None),
            (ev, "sample_channels", "channel.sample", True, None),
            (ev, "_sweep_job", "evaluate.sweep", False, None),
            (ev, "monte_carlo_sweep", "evaluate.sweep", True, None),
            (orc, "rate_with_ideal_receivers", "oracle.rate_eval", True, None),
            (orc, "max_rate_projected_gradient", "oracle.ascent", True, None),
            (dof, "optimize_dof", "dof.optimize", True, None),
            (dl, "plan_transmissions", "delivery.plan", True, None),
            (dl, "build_placement", "delivery.placement", True, None),
            (dl, "build_codewords", "delivery.codewords", True, None),
            (dl, "verify_decode", "delivery.decode", True, None),
            (ch, "sample_channels", "channel.sample", True, None),
            # the package namespace, through which the benchmark itself calls
            (pkg, "optimize", "beamforming.optimize", True, count_outer),
            (pkg, "zf_beamformers", "beamforming.zf", True, None),
            (pkg, "sample_channels", "channel.sample", True, None),
            (pkg, "monte_carlo_sweep", "evaluate.sweep", True, None),
            (pkg, "max_rate_projected_gradient", "oracle.ascent", True, None),
            (pkg, "optimize_dof", "dof.optimize", True, None),
            (pkg, "plan_transmissions", "delivery.plan", True, None),
            (pkg, "build_placement", "delivery.placement", True, None),
            (pkg, "build_codewords", "delivery.codewords", True, None),
            (pkg, "verify_decode", "delivery.decode", True, None),
        ]
        try:
            for binding in bindings:
                self._patch(*binding)
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __exit__(self, *exc):
        self._restore()
        self._stack.clear()
        return False

    def snapshot(self) -> dict:
        """Counters accumulated since the last reset."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "mu_accepts": self.mu_accepts,
            "outer_iterations": self.outer_iterations,
        }
