"""Command-line harness: plan inspection, delivery verification, single-shot
simulation, and Monte Carlo SNR sweeps.

Run configurations are flat INI files with one section per concern
(network, plan, solver, sweep, verify, output); command-line flags
override the file.  Exit codes: 0 success, 2 configuration error,
3 solver error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .beamforming import SolverOptions, layout_for_subset, zf_leakage
from .channel import derive_seed, sample_channels, snr_to_power
from .config import NetworkConfig
from .delivery import (build_codewords, build_placement, dump_codewords,
                       dump_plan, freshness_audit, plan_transmissions,
                       subpacketization, verify_decode)
from .dof import format_scan_table, optimize_dof
from .errors import ConfigError, DeliveryError, InputError, PlanError, SolverError
from .evaluate import monte_carlo_sweep, run_scheme, symmetric_rate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


@dataclass
class RunConfig:
    """Everything one invocation needs, as parsed from the INI file."""

    network: NetworkConfig
    omega: int | None = None
    beta: int | None = None
    q: int | None = None
    solver: SolverOptions = field(default_factory=SolverOptions)
    snr_db: list = field(default_factory=lambda: [5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    realizations: int = 20
    schemes: list = field(default_factory=lambda: ["kkt_lmmse", "zf"])
    seed: int = 1
    subset_sample: int | None = None
    oracle_restarts: int = 40
    desk_scale_cap: int = 8
    out_dir: str = "out"


_NETWORK_FIELDS = ("K", "L", "G", "N", "M")
_KINDS = {"int": int, "float": float, "str": str}  # by field annotation
# SolverOptions fields each command sets itself (seeds per transmission,
# tracing per command), so a run file may not hold them
_PER_CALL = ("init_seed", "keep_trace")


def _parse(where: str, raw: str, kind):
    """``raw`` converted by ``kind``; a value that does not parse is a
    ConfigError naming the ``section.key`` it came from."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not a valid {kind.__name__}") from None


def _get(section, key: str, kind, fallback=None):
    """section[key] parsed by ``kind``, or ``fallback`` when the key is absent."""
    if key not in section:
        return fallback
    return _parse(f"{section.name}.{key}", section[key], kind)


def _read_fields(section, cls) -> dict:
    """The fields of dataclass ``cls`` present in an INI section, each parsed
    by its annotated type."""
    return {f.name: _get(section, f.name, _KINDS[f.type])
            for f in fields(cls) if f.name in section}


def load_run_config(path: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if "network" not in cp:
        raise ConfigError("config is missing the [network] section")
    net = cp["network"]
    for name in _NETWORK_FIELDS:
        if name not in net:
            raise ConfigError(f"config is missing mandatory field network.{name}")
    rc = RunConfig(network=NetworkConfig(**_read_fields(net, NetworkConfig)))

    if "plan" in cp:
        for name in ("omega", "beta", "q"):
            if cp["plan"].get(name, "").strip():
                setattr(rc, name, _get(cp["plan"], name, int))

    if "solver" in cp:
        known = [f.name for f in fields(SolverOptions) if f.name not in _PER_CALL]
        for key in cp["solver"]:
            if key not in known:
                raise ConfigError(f"unknown key solver.{key}; expected one of {', '.join(known)}")
        rc.solver = SolverOptions(**_read_fields(cp["solver"], SolverOptions))

    if "sweep" in cp:
        sw = cp["sweep"]
        if "snr_db" in sw:
            rc.snr_db = [_parse("sweep.snr_db", x, float)
                         for x in sw["snr_db"].replace(",", " ").split()]
        rc.realizations = _get(sw, "realizations", int, rc.realizations)
        if "schemes" in sw:
            rc.schemes = [s.strip() for s in sw["schemes"].split(",") if s.strip()]
        rc.seed = _get(sw, "seed", int, rc.seed)
        if sw.get("subset_sample", "").strip():
            rc.subset_sample = _get(sw, "subset_sample", int)
        rc.oracle_restarts = _get(sw, "oracle_restarts", int, rc.oracle_restarts)

    if "verify" in cp:
        rc.desk_scale_cap = _get(cp["verify"], "desk_scale_cap", int, 8)
    if "output" in cp:
        rc.out_dir = cp["output"].get("out_dir", fallback=rc.out_dir)
    return rc


def save_run_config(rc: RunConfig, path: str):
    cp = configparser.ConfigParser()
    cp["network"] = asdict(rc.network)
    cp["plan"] = {k: v for k, v in (("omega", rc.omega), ("beta", rc.beta), ("q", rc.q))
                  if v is not None}
    cp["solver"] = {k: v for k, v in asdict(rc.solver).items() if k not in _PER_CALL}
    cp["sweep"] = {
        "snr_db": ",".join(f"{s:g}" for s in rc.snr_db),
        "realizations": rc.realizations,
        "schemes": ",".join(rc.schemes),
        "seed": rc.seed,
        "oracle_restarts": rc.oracle_restarts,
    }
    if rc.subset_sample is not None:
        cp["sweep"]["subset_sample"] = str(rc.subset_sample)
    cp["verify"] = {"desk_scale_cap": rc.desk_scale_cap}
    cp["output"] = {"out_dir": rc.out_dir}
    with open(path, "w") as fh:
        cp.write(fh)


def resolve_plan(rc: RunConfig):
    """DoF-optimal operating point (honoring overrides) plus the full schedule."""
    net = rc.network
    dp = optimize_dof(net.L, net.G, net.t, omega=rc.omega, beta=rc.beta, q=rc.q)
    plan = plan_transmissions(net, dp.omega, dp.beta, dp.q)
    return dp, plan


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_plan(rc: RunConfig, args) -> int:
    net = rc.network
    print(f"network: K={net.K} L={net.L} G={net.G} N={net.N} M={net.M} t={net.t}")
    print(format_scan_table(net.L, net.G, net.t))
    dp, plan = resolve_plan(rc)
    theta = subpacketization(net.K, net.t, dp.omega)
    print(f"chosen: omega={dp.omega} beta={dp.beta} q={dp.q} dof={dp.dof} "
          f"exact={'yes' if dp.exact else 'no'}")
    print(f"subpacketization={theta} transmissions={plan.n_transmissions} "
          f"groups_per_transmission={len(plan.groups[0])}")
    return EXIT_OK


def _random_demand(rc: RunConfig):
    """Seeded random library and one file request per user."""
    bits = rc.network.file_size_bits
    if bits % 8 != 0:
        raise ConfigError(f"file_size_bits={bits} must be a multiple of 8 to "
                          f"generate byte payloads")
    rng = np.random.default_rng(np.random.SeedSequence(rc.seed, spawn_key=(3,)))
    library = [rng.bytes(bits // 8) for _ in range(rc.network.N)]
    return library, rng.integers(0, rc.network.N, size=rc.network.K).tolist()


def cmd_verify_delivery(rc: RunConfig, args) -> int:
    net = rc.network
    if net.K > rc.desk_scale_cap:
        raise ConfigError(f"K={net.K} exceeds the desk-scale cap "
                          f"{rc.desk_scale_cap} for bit-exact verification")
    dp, plan = resolve_plan(rc)
    library, requests = _random_demand(rc)
    placement = build_placement(net, library)
    codewords = build_codewords(plan, requests, placement)

    if args.corrupt:
        # negative control: flip one byte of the first codeword
        key = next(iter(codewords.codewords))
        payload = bytearray(codewords.codewords[key])
        payload[0] ^= 0xFF
        codewords.codewords[key] = bytes(payload)
        print(f"injected corruption into transmission {key[0]} group {key[1]}")

    audit = freshness_audit(plan)
    print(f"freshness: scheduled={audit['scheduled']} demanded={audit['demanded']} "
          f"duplicates={audit['duplicates']} missing={audit['missing']}")
    cached = placement.cached_bytes(0)
    padded_file = placement.subfile_bytes * len(placement.subsets)
    print(f"cache per user: {cached} bytes (= M x padded file size = "
          f"{net.M} x {padded_file})")

    failures = []
    for k in range(net.K):
        got = verify_decode(k, codewords, placement)
        want = library[requests[k]]
        if got != want:
            off = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            j = off // placement.subfile_bytes
            sigma = min((off % placement.subfile_bytes) // codewords.subpacket_bytes,
                        plan.n_subpackets - 1)
            failures.append((k, j, sigma))
            print(f"FAIL user={k} first mismatch at subfile={j} subpacket={sigma}")
        else:
            print(f"PASS user={k} file={requests[k]} ({len(got)} bytes)")
    if audit["duplicates"] or audit["missing"]:
        print("FAIL freshness audit")
        return EXIT_VERIFY
    if failures:
        return EXIT_VERIFY
    print("verify-delivery: PASS")
    return EXIT_OK


def cmd_simulate(rc: RunConfig, args) -> int:
    net = rc.network
    dp, plan = resolve_plan(rc)
    scheme = args.scheme[0] if args.scheme else "kkt_lmmse"
    snr = args.snr[0] if args.snr else net.snr_db
    P_T = snr_to_power(snr, net.N0)
    cs = sample_channels(derive_seed(rc.seed, 0), 0, net.K, net.G, net.L)
    os.makedirs(rc.out_dir, exist_ok=True)

    rates = []
    for i in range(plan.n_transmissions):
        layout = layout_for_subset(plan, i)
        Hs = cs.H[list(layout.users)]
        path = os.path.join(rc.out_dir, f"trace_tx{i}.txt")
        try:
            r, design = run_scheme(scheme, layout, Hs, P_T, net.N0, rc.solver,
                                   derive_seed(rc.seed, 1, i), rc.oracle_restarts)
        except SolverError as err:
            _write_trace(path, err.trace)
            print(f"solver failed on transmission {i}; trace at {path}: {err}")
            raise
        line = f"transmission {i}: subset={layout.users} rate={r:.4f}"
        if scheme == "zf":
            leak = zf_leakage(design, layout, Hs)
            line += (f" fallback={sum(design.fallback)}/{len(design.fallback)} "
                     f"leakage={'n/a' if leak is None else f'{leak:.3e}'}")
        elif scheme == "kkt_lmmse":
            _write_trace(path, design.trace)
            line += (f" power={design.power:.4f} "
                     f"outers={design.diagnostics['outer_iterations']} trace={path}")
        print(line)
        rates.append(r)

    rsym = symmetric_rate(rates, net.K, plan.theta)
    print(f"snr={snr:g} dB scheme={scheme} symmetric_rate={rsym:.6f}")
    return EXIT_OK


def _write_trace(path, trace):
    with open(path, "w") as fh:
        fh.write("outer inner objective power mu stationarity r_c\n")
        for rec in trace:
            fh.write(f"{rec['outer']} {rec['inner']} {rec['objective']:.10g} "
                     f"{rec['power']:.10g} {rec['mu']:.6g} "
                     f"{rec['stationarity']:.3e} {rec['r_c']:.10g}\n")


def cmd_sweep(rc: RunConfig, args) -> int:
    net = rc.network
    dp, plan = resolve_plan(rc)
    report = monte_carlo_sweep(
        net, plan, rc.schemes, rc.snr_db, rc.realizations, rc.seed,
        subset_sample=rc.subset_sample, options=rc.solver,
        oracle_restarts=rc.oracle_restarts, workers=args.workers,
    )
    os.makedirs(rc.out_dir, exist_ok=True)
    csv_path = os.path.join(rc.out_dir, "sweep.csv")
    dat_path = os.path.join(rc.out_dir, "sweep.dat")
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    with open(dat_path, "w") as fh:
        fh.write(report.plot_data())
    print(report.to_csv(), end="")
    print(f"wrote {csv_path} and {dat_path} "
          f"({report.meta['runtime_s']:.1f}s, "
          f"subsets={len(report.meta['subsets_used'])}/{report.meta['n_transmissions']})")
    return EXIT_OK


def cmd_dump(rc: RunConfig, args) -> int:
    """Plan and codeword dumps for a seeded random library (debug aid)."""
    dp, plan = resolve_plan(rc)
    library, requests = _random_demand(rc)
    placement = build_placement(rc.network, library)
    print(dump_plan(plan), end="")
    print(dump_codewords(build_codewords(plan, requests, placement)), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="ccmimo",
        description="Cache-aided MIMO multicast delivery: planning, delivery "
                    "verification, and link-level rate simulation.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="INI run configuration")
        sp.add_argument("--seed", type=int, default=None, help="override sweep.seed")
        sp.add_argument("--out", default=None, help="override output.out_dir")
        sp.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        sp.add_argument("--snr", type=float, nargs="*", default=None,
                        help="override sweep.snr_db (dB)")
        sp.add_argument("--realizations", type=int, default=None)
        sp.add_argument("--scheme", nargs="*", default=None,
                        help="override sweep.schemes")

    for name, fn, doc in (
        ("plan", cmd_plan, "print the stream-planner table and chosen delivery plan"),
        ("verify-delivery", cmd_verify_delivery, "bit-exact decode round trip"),
        ("simulate", cmd_simulate, "single channel realization with solver traces"),
        ("sweep", cmd_sweep, "Monte Carlo SNR sweep, writes CSV and plot data"),
        ("dump", cmd_dump, "print plan and codeword text dumps"),
    ):
        sp = sub.add_parser(name, help=doc)
        common(sp)
        if name == "verify-delivery":
            sp.add_argument("--corrupt", action="store_true",
                            help="test mode: corrupt one codeword, expect FAIL")
        sp.set_defaults(func=fn)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = load_run_config(args.config)
        if args.seed is not None:
            rc.seed = args.seed
        if args.out is not None:
            rc.out_dir = args.out
        if args.snr is not None and args.command == "sweep":
            rc.snr_db = list(args.snr)
        if args.realizations is not None:
            rc.realizations = args.realizations
        if args.scheme is not None and args.command == "sweep":
            rc.schemes = list(args.scheme)
        return args.func(rc, args)
    except (ConfigError, InputError, PlanError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except DeliveryError as err:
        print(f"delivery verification failed: {err}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
