"""Command-line harness: plan inspection, delivery verification, single-shot
simulation, and Monte Carlo SNR sweeps.

Run configurations are flat INI files with one section per concern
(network, plan, solver, sweep, output), each parsed into the
dataclass of the same-named ``RunConfig`` field; a command's flags
override the file.  Exit codes: 0 success, 2 configuration error,
3 solver error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import get_type_hints

from .beamforming import SolverOptions, layout_for_subset, zf_leakage
from .channel import seeded_rng
from .config import NetworkConfig
from .delivery import (build_codewords, build_placement, dump_codewords,
                       dump_plan, freshness_audit, plan_transmissions, verify_decode)
from .dof import format_scan_table, optimize_dof
from .errors import ConfigError, DeliveryError, InputError, PlanError, SolverError
from .evaluate import check_sweep, draw_transmissions, monte_carlo_sweep, run_scheme, symmetric_rate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


@dataclass
class PlanConfig:
    """[plan]: operating-point overrides; None lets the DoF planner choose."""

    omega: int | None = None
    beta: int | None = None
    q: int | None = None


@dataclass
class SweepConfig:
    """[sweep]: the SNR grid, schemes and seeds of a run."""

    snr_db: list[float] = field(default_factory=lambda: [5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
    realizations: int = 20
    schemes: list[str] = field(default_factory=lambda: ["kkt_lmmse", "zf"])
    seed: int = 1
    subset_sample: int | None = None


@dataclass
class OutputConfig:
    """[output]: where traces, CSV and plot data go."""

    out_dir: str = "out"


@dataclass
class RunConfig:
    """Everything one invocation needs: one field per INI section, each the
    dataclass that section is parsed into."""

    network: NetworkConfig
    plan: PlanConfig = field(default_factory=PlanConfig)
    solver: SolverOptions = field(default_factory=SolverOptions)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_KINDS = {"int": int, "float": float, "str": str}  # by field annotation
# SolverOptions fields each command sets itself (seeds per transmission,
# tracing per command), so a run file may not hold them
_PER_CALL = ("init_seed", "keep_trace")


def _parse(where: str, raw: str, kind: str):
    """``raw`` converted by the field annotation ``kind``: a scalar, ``... |
    None`` (empty means None) or ``list[...]`` (comma-separated; numbers may
    also be separated by spaces).  A value that does not parse is a
    ConfigError naming the ``section.key`` it came from."""
    if kind.endswith(" | None"):
        return _parse(where, raw, kind[:-7]) if raw.strip() else None
    if kind.startswith("list["):
        item = kind[5:-1]
        parts = raw.replace(",", " ").split() if item == "float" else raw.split(",")
        return [_parse(where, x.strip(), item) for x in parts if x.strip()]
    try:
        return _KINDS[kind](raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not a valid {kind}") from None


def load_run_config(path: str) -> RunConfig:
    """The run file at ``path``; an unknown section or key, a missing
    mandatory key or a value that does not parse is a ConfigError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    classes = get_type_hints(RunConfig)  # section name -> dataclass
    schema = {name: [f for f in fields(cls) if f.name not in _PER_CALL]
              for name, cls in classes.items()}
    for name in cp.sections():
        if name not in schema:
            raise ConfigError(f"unknown section [{name}]; expected one of {', '.join(schema)}")
        known = [f.name for f in schema[name]]
        for key in cp[name]:
            if key not in map(cp.optionxform, known):
                raise ConfigError(f"unknown key {name}.{key}; expected one of {', '.join(known)}")
    sections = {}
    for name, cls in classes.items():
        section = cp[name] if name in cp else {}
        for f in schema[name]:
            if f.default is MISSING and f.default_factory is MISSING and f.name not in section:
                raise ConfigError(f"config is missing mandatory field {name}.{f.name}"
                                  if name in cp else f"config is missing the [{name}] section")
        sections[name] = cls(**{f.name: _parse(f"{name}.{f.name}", section[f.name], f.type)
                                for f in schema[name] if f.name in section})
    return RunConfig(**sections)


def resolve_plan(rc: RunConfig):
    """DoF-optimal operating point (honoring overrides) plus the full schedule."""
    net = rc.network
    dp = optimize_dof(net.L, net.G, net.t, omega=rc.plan.omega, beta=rc.plan.beta,
                      q=rc.plan.q)
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
    print(f"chosen: omega={dp.omega} beta={dp.beta} q={dp.q} dof={dp.dof} "
          f"exact={'yes' if dp.exact else 'no'}")
    print(f"subpacketization={plan.theta} transmissions={plan.n_transmissions} "
          f"groups_per_transmission={len(plan.groups[0])}")
    return EXIT_OK


def _random_demand(rc: RunConfig):
    """Seeded random library and one file request per user."""
    bits = rc.network.file_size_bits
    if bits % 8 != 0:
        raise ConfigError(f"file_size_bits={bits} must be a multiple of 8 to "
                          f"generate byte payloads")
    rng = seeded_rng(rc.sweep.seed, 3)
    library = [rng.bytes(bits // 8) for _ in range(rc.network.N)]
    return library, rng.integers(0, rc.network.N, size=rc.network.K).tolist()


def cmd_verify_delivery(rc: RunConfig, args) -> int:
    net = rc.network
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
    scheme, snr = args.scheme, args.snr
    transmissions = [(i, layout_for_subset(plan, i)) for i in range(plan.n_transmissions)]
    channels = draw_transmissions(net, rc.sweep.seed, 0, transmissions)

    rates = []
    for i, layout, Hs in channels:
        path = os.path.join(rc.output.out_dir, f"trace_tx{i}.txt")
        try:
            r, design = run_scheme(scheme, layout, Hs, snr, net.N0, rc.solver,
                                   rc.sweep.seed, 0, i)
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
        if not r > 0:  # the sweep's rule: such a realization fails
            raise SolverError(f"transmission {i}: rate {r} is not positive")
        rates.append(r)

    rsym = symmetric_rate(rates, net.K, plan.theta)
    print(f"snr={snr:g} dB scheme={scheme} symmetric_rate={rsym:.6f}")
    return EXIT_OK


def _open_output(path, dir_only=False):
    """``path`` opened for writing, its directory made first (only that with
    ``dir_only``); a path that cannot be written (an empty or non-directory
    out_dir, say) is a ConfigError."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return None if dir_only else open(path, "w")
    except OSError as err:
        raise ConfigError(f"cannot write output file {path!r}: {err}") from None


def _write_trace(path, trace):
    with _open_output(path) as fh:
        fh.write("outer inner objective power mu stationarity r_c\n")
        for rec in trace:
            fh.write(f"{rec['outer']} {rec['inner']} {rec['objective']:.10g} "
                     f"{rec['power']:.10g} {rec['mu']:.6g} "
                     f"{rec['stationarity']:.3e} {rec['r_c']:.10g}\n")


def cmd_sweep(rc: RunConfig, args) -> int:
    net = rc.network
    dp, plan = resolve_plan(rc)
    sw = rc.sweep
    csv_path = os.path.join(rc.output.out_dir, "sweep.csv")
    dat_path = os.path.join(rc.output.out_dir, "sweep.dat")
    # rejected arguments fail before out_dir is made, an unwritable one before the run
    check_sweep(sw.schemes, sw.snr_db, sw.realizations, sw.seed, sw.subset_sample, args.workers)
    _open_output(csv_path, dir_only=True)
    report = monte_carlo_sweep(
        net, plan, sw.schemes, sw.snr_db, sw.realizations, sw.seed,
        subset_sample=sw.subset_sample, options=rc.solver, workers=args.workers,
    )
    with _open_output(csv_path) as fh:
        fh.write(report.to_csv())
    with _open_output(dat_path) as fh:
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

    def command(name, fn, doc):
        sp = sub.add_parser(name, help=doc)
        sp.set_defaults(func=fn)
        sp.add_argument("--config", required=True, help="INI run configuration")
        return sp

    # a flag that overrides the run file has the overridden field's name as dest
    command("plan", cmd_plan, "print the stream-planner table and chosen delivery plan")
    verify = command("verify-delivery", cmd_verify_delivery, "bit-exact decode round trip")
    simulate = command("simulate", cmd_simulate, "single channel realization with solver traces")
    sweep = command("sweep", cmd_sweep, "Monte Carlo SNR sweep, writes CSV and plot data")
    dump = command("dump", cmd_dump, "print plan and codeword text dumps")
    for sp in (verify, simulate, sweep, dump):
        sp.add_argument("--seed", type=int, help="override sweep.seed")
    for sp in (simulate, sweep):
        sp.add_argument("--out", dest="out_dir", metavar="OUT", help="override output.out_dir")
    verify.add_argument("--corrupt", action="store_true",
                        help="test mode: corrupt one codeword, expect FAIL")
    simulate.add_argument("--snr", type=float, required=True, help="SNR in dB")
    simulate.add_argument("--scheme", default="kkt_lmmse", help="default: kkt_lmmse")
    sweep.add_argument("--snr", type=float, nargs="+", dest="snr_db", metavar="SNR",
                       help="override sweep.snr_db (dB)")
    sweep.add_argument("--realizations", type=int, help="override sweep.realizations")
    sweep.add_argument("--scheme", nargs="+", dest="schemes", metavar="SCHEME",
                       help="override sweep.schemes")
    sweep.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = load_run_config(args.config)
        for f in fields(rc):
            section = getattr(rc, f.name)
            given = {k.name: getattr(args, k.name) for k in fields(section)
                     if getattr(args, k.name, None) is not None}
            setattr(rc, f.name, replace(section, **given))
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
