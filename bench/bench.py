"""ccmimo benchmark: four workloads through the public API, outputs checked.

Usage, from the repository root:

    python3 bench/bench.py --workload sweep_kkt --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and the reasons in BENCHMARK.json):
``sweep_kkt``, ``sweep_multistream``, ``oracle_check`` and ``delivery_k12``.

The run is one process with the BLAS pool pinned to one thread, and the
package is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` (the timed run) sets the workload up five times, then
executes entry calls until ``--seconds`` have passed, but at least the
workload's fixed prefix of distinct inputs, repeating those inputs past
it, and prints the end-to-end metrics:

  setup_s        median of five set-ups, each a fresh import of ccmimo
                 (numpy and the standard library already loaded) plus the
                 workload's config, stream plan, delivery plan, layouts or
                 library, and warm-up call
  tx_per_s       transmissions completed per second of entry-call time
  call_ms_p50    median time of one entry call
  call_ms_tail   highest percentile with at least ten calls beyond it; with
                 fewer than twenty calls, the slowest call (percentile 100)
  peak_rss_mb    peak resident memory of the process
  rsym_kkt_mean  mean kkt_lmmse symmetric rate over the prefix
  rsym_zf_mean   the same for zf
  oracle_agreement_min
                 1 - oracle_gap_max, the worst relative solver-oracle gap
                 over the prefix; the check is on the mean gap (see
                 ORACLE_GAP_LIMIT in workloads.py)

tx_per_s, call_ms_p50 and call_ms_tail are scaled by the run's machine
slowdown (see SpeedProbe); the report prints them as measured too.

A metric a workload does not compute is reported as the constant 1.0 on
the result line and as n/a in the report.  ``failed_frac`` is the
result line's ``failed / attempted``: discarded (scheme, SNR,
realization) triples, channels or user decodes, plus failed output
checks, over the items attempted.

``--trace 1`` (the traced run) sets up once under the tracer, then makes
passes over the workload's first few calls until ``--seconds`` have
passed (at least two), running each call untraced and then traced, and
prints the per-layer metrics of the set-up plus one pass.  It checks
that every traced call reproduces the untraced output bytes (for the
sweeps, the CSV) and that the per-layer call counts repeat exactly in
every pass, and reports the tracing overhead on tx_per_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are the human-readable report, including the machine.
"""

from __future__ import annotations

import os

# pin every BLAS and OpenMP pool to one thread before numpy is first imported
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

# numpy is a fixed dependency: importing it here, before the set-up timer
# starts, keeps its import time, which no change to ccmimo can move, out
# of setup_s
import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 5
MIN_TRACE_PASSES = 2
NOT_APPLICABLE = 1.0  # result-line value of a metric the workload does not compute

END_TO_END = {  # name -> unit
    "setup_s": "s", "tx_per_s": "1/s", "call_ms_p50": "ms", "call_ms_tail": "ms",
    "peak_rss_mb": "MB", "rsym_kkt_mean": "bit/s/Hz", "rsym_zf_mean": "bit/s/Hz",
    "oracle_agreement_min": "ratio",
}
LAYERS = ("beamforming.tx_update", "beamforming.optimize", "beamforming.duals",
          "beamforming.rate_eval", "beamforming.mse", "beamforming.lmmse",
          "beamforming.zf", "beamforming.init", "oracle.rate_eval", "oracle.ascent",
          "delivery.plan", "delivery.placement", "delivery.codewords", "delivery.decode",
          "channel.sample", "evaluate.sweep", "dof.optimize")


def import_package():
    """Import ccmimo afresh from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    sys.dont_write_bytecode = True
    for name in [m for m in sys.modules if m == "ccmimo" or m.startswith("ccmimo.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("ccmimo")
    except ImportError as exc:
        sys.exit(f"bench: cannot import ccmimo from {src}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != src:
        sys.exit(f"bench: ccmimo was imported from {pkg.__file__}, not from {src}")
    return pkg


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_ENV},
    }


def tail(samples):
    """Highest percentile, from the median up, with at least ten samples beyond it.

    Returns (value, percentile, n).  The sample at ascending rank n-10 has
    exactly ten samples after it; with fewer than twenty samples no
    percentile from the median up qualifies, and the maximum is returned
    as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


class SpeedProbe:
    """Gauge of the machine's speed during a run.

    The shared two-core machine the baseline was recorded on runs the same
    work 15-25% faster or slower from one half-minute to the next, which
    no choice of run length or statistic within a run removes.  After each
    entry call the probe runs a fixed kernel of small numpy solves and
    Python dict work, shaped like the solver's own inner loop, for about
    3% of that call's time.  Its mean time over the run, against
    NOMINAL_S, is the run's slowdown, and the timing metrics are scaled by
    it: they read as if measured on the machine at its nominal speed.  The
    kernel uses no ccmimo code, so no change to the package moves it.
    """

    ITERATIONS = 300
    # about the kernel's time between entry calls on the baseline machine: a
    # 2-vCPU KVM guest on an Intel Xeon (family 6, model 207), Python 3.11,
    # numpy 2.4.6, OpenBLAS 0.3.31
    NOMINAL_S = 0.005
    SHARE = 0.03

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)) + 3 * np.eye(3)
        self.B = rng.standard_normal((3, 3, 2)) + 1j * rng.standard_normal((3, 3, 2))
        self.total_s = 0.0
        self.runs = 0

    def _kernel(self) -> float:
        A, B = self.A, self.B
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(self.ITERATIONS):
            X = np.linalg.solve(A, B)
            acc += float(np.einsum("kij,kij->", X.conj(), X).real)
            weights = {i: i * acc for i in range(10)}
            acc = sum(weights.values()) * 1e-12
        return time.perf_counter() - t0

    def after_call(self, call_s: float):
        spent = 0.0
        while spent < self.SHARE * call_s or spent == 0.0:
            dt = self._kernel()
            spent += dt
            self.total_s += dt
            self.runs += 1

    def slowdown(self) -> float:
        return self.total_s / self.runs / self.NOMINAL_S


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_calls(wl, ctx, indices, results, problems):
    """Run entry calls, appending results; returns (call times, units, seconds)."""
    times, units = [], 0
    for i in indices:
        t0 = time.perf_counter()
        res = wl.call(ctx, i)
        dt = time.perf_counter() - t0
        times.append(dt)
        units += res.units
        results.append(res)
        problems.extend(res.problems)
    return times, units, sum(times)


def timed_run(wl, seed, seconds):
    # the first import of the process, in main, loads the standard-library
    # modules ccmimo uses; the timed imports re-run ccmimo's own module code
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = wl.setup(import_package(), seed)
        setups.append(time.perf_counter() - t0)

    results, problems, times = [], [], []
    units = 0
    probe = SpeedProbe()
    start = time.perf_counter()
    i = 0
    while i < wl.prefix_calls or time.perf_counter() - start < seconds:
        # past the prefix the inputs repeat, so what a run checks depends on
        # the seed alone, not on how many calls fit in the time
        t, u, _ = run_calls(wl, ctx, [i % wl.prefix_calls], results, problems)
        probe.after_call(t[0])
        times += t
        units += u
        i += 1
    slowdown = probe.slowdown()

    quality, summary_problems = wl.summarize(results)
    problems += summary_problems
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results) + len(summary_problems)
    tail_ms, tail_pct, n = tail([1e3 * t for t in times])
    raw = {
        "tx_per_s": units / sum(times),
        "call_ms_p50": 1e3 * statistics.median(times),
        "call_ms_tail": tail_ms,
    }
    values = {
        "setup_s": statistics.median(setups),
        "tx_per_s": raw["tx_per_s"] * slowdown,
        "call_ms_p50": raw["call_ms_p50"] / slowdown,
        "call_ms_tail": raw["call_ms_tail"] / slowdown,
        "peak_rss_mb": peak_rss_mb(),
    }
    values.update(quality)

    print(f"# {wl.name}: {n} entry calls, {units} transmissions in {sum(times):.2f} s")
    print(f"# setup_s = median of {[round(s, 4) for s in setups]} s")
    print(f"# machine slowdown {slowdown:.4f} over {probe.runs} probe kernels; as measured: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, unit in END_TO_END.items():
        if name in values:
            extra = f"  (p{tail_pct:.1f} of {n} calls)" if name == "call_ms_tail" else ""
            print(f"{name:22s} {values[name]:.6g} {unit}{extra}")
        else:
            print(f"{name:22s} n/a")
    if "oracle_gap_max" in values:
        from workloads import ORACLE_GAP_LIMIT

        print(f"{'oracle_gap_max':22s} {values['oracle_gap_max']:.6g} ratio")
        print(f"{'oracle_gap_mean':22s} {values['oracle_gap_mean']:.6g} ratio"
              f"  (checked <= {ORACLE_GAP_LIMIT:g})")
        print(f"# {values['oracle_channels_over_limit']} of {wl.prefix_calls} channels have a"
              f" solver-oracle gap above {ORACLE_GAP_LIMIT:.0%}")
    print(f"{'failed_frac':22s} {failed / max(attempted, 1):.6g} ({failed} of {attempted})")

    metrics = {name: {"value": values.get(name, NOT_APPLICABLE), "unit": unit}
               for name, unit in END_TO_END.items()}
    return problems, attempted, failed, metrics


def _paired_pass(wl, ctx, tracer, plain, traced, problems):
    """One pass over the workload's first calls, each run untraced and then
    traced back to back, so a change in machine speed hits both alike.

    Returns (untraced seconds, traced seconds, counters of the traced calls).
    """
    tracer.reset()
    plain_s = traced_s = 0.0
    resets = 0
    for i in range(wl.pass_calls):
        plain_s += run_calls(wl, ctx, [i], plain, problems)[2]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tracer:
                traced_s += run_calls(wl, ctx, [i], traced, problems)[2]
        resets += sum("collapsed" in str(w.message) for w in caught)
    snap = tracer.snapshot()
    snap["dual_resets"] = resets
    return plain_s, traced_s, snap


def traced_run(pkg, wl, seed, seconds):
    from tracing import Tracer

    tracer = Tracer(pkg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer:
            ctx = wl.setup(pkg, seed)
    setup = tracer.snapshot()
    setup["dual_resets"] = sum("collapsed" in str(w.message) for w in caught)

    problems, plain, traced, plain_s, traced_s, snaps = [], [], [], [], [], []
    start = last = time.perf_counter()
    pass_s = 0.0
    # stop before a pass that would end past the time limit
    while len(snaps) < MIN_TRACE_PASSES or last + pass_s - start <= seconds:
        p_s, t_s, snap = _paired_pass(wl, ctx, tracer, plain, traced, problems)
        plain_s.append(p_s)
        traced_s.append(t_s)
        snaps.append(snap)
        now = time.perf_counter()
        pass_s, last = now - last, now

    n = wl.pass_calls
    for j, (untraced_res, traced_res) in enumerate(zip(plain, traced)):
        reference = plain[j % n].fingerprint
        if untraced_res.fingerprint != reference or traced_res.fingerprint != reference:
            problems.append(f"call {j % n}: output differs between passes")
    first = snaps[0]
    for snap in snaps[1:]:
        if (snap["calls"], snap["mu_accepts"]) != (first["calls"], first["mu_accepts"]):
            problems.append("per-layer call counts differ between traced passes")
            break

    counters = {}
    for res in traced[:n]:
        for key, val in res.counters.items():
            counters[key] = counters.get(key, 0) + val

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.calls", setup["calls"].get(layer, 0) + first["calls"].get(layer, 0), "count")
        self_s = statistics.median(s["self_s"].get(layer, 0.0) for s in snaps)
        put(f"{layer}.self_s", setup["self_s"].get(layer, 0.0) + self_s, "s")
    tx_calls = setup["calls"].get("beamforming.tx_update", 0) + first["calls"].get("beamforming.tx_update", 0)
    accepts = setup["mu_accepts"] + first["mu_accepts"]
    put("beamforming.mu_closed_form_accepts", accepts, "count")
    put("beamforming.mu_closed_form_accept_ratio", accepts / tx_calls if tx_calls else 0.0, "ratio")
    put("beamforming.dual_resets", setup["dual_resets"] + first["dual_resets"], "count")
    put("beamforming.outer_iterations", setup["outer_iterations"] + first["outer_iterations"], "count")
    quality, _ = wl.summarize(traced[:n])
    put("oracle.gap_max", quality.get("oracle_gap_max", 0.0), "ratio")
    put("delivery.xor_bytes", counters.get("xor_bytes", 0), "bytes")
    attempts = counters.get("decode_attempts", 0)
    put("delivery.decode_ok_ratio", counters.get("decode_ok", 0) / attempts if attempts else 0.0, "ratio")
    units = sum(r.units for r in plain)
    plain_tps, traced_tps = units / sum(plain_s), units / sum(traced_s)
    put("trace.tx_per_s_untraced", plain_tps, "1/s")
    put("trace.tx_per_s_traced", traced_tps, "1/s")
    put("trace.tx_per_s_delta", plain_tps - traced_tps, "1/s")
    put("trace.overhead_pct", 100.0 * (plain_tps - traced_tps) / plain_tps, "%")

    print(f"# {wl.name}: set-up plus one pass of {n} calls; {len(snaps)} passes, "
          f"each call run untraced and then traced")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")

    results = plain + traced
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results) + len(problems) - sum(len(r.problems) for r in results)
    return problems, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    from workloads import WORKLOADS  # bench/ is on sys.path as the script's directory

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    print("# machine: " + json.dumps(machine_info(), sort_keys=True))
    print(f"# workload {wl.name}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")

    if args.trace:
        problems, attempted, failed, metrics = traced_run(pkg, wl, args.seed, args.seconds)
    else:
        problems, attempted, failed, metrics = timed_run(wl, args.seed, args.seconds)
    for p in problems:
        print(f"# FAILED CHECK: {p}")
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    for k in bad:
        print(f"# FAILED CHECK: metric {k} is not finite")
        metrics[k]["value"] = 0.0  # keep the result line valid JSON
    correct = not problems and not bad and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
