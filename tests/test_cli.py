import os
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import ccmimo
from ccmimo import SolverError
from ccmimo.cli import (_PER_CALL, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VERIFY, RunConfig,
                        _build_parser, load_run_config, main, resolve_plan)

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")

BASE_INI = """\
[network]
K = 4
L = 3
G = 2
N = 4
M = 1
file_size_bits = 1024
N0 = 1.0

[plan]
omega = 3

[solver]
max_outer = 15
n_restarts = 1

[sweep]
snr_db = 5,10
realizations = 2
schemes = kkt_lmmse,zf
seed = 1

[output]
out_dir = {out}
"""


@pytest.fixture
def ini(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_INI.format(out=tmp_path / "out"))
    return str(path)


def test_missing_field_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[network]\nK = 4\nL = 3\nG = 2\nN = 4\n")  # M missing
    assert main(["plan", "--config", str(bad)]) == EXIT_CONFIG
    assert "network.M" in capsys.readouterr().err


def test_plan_command(ini, capsys):
    assert main(["plan", "--config", ini]) == EXIT_OK
    out = capsys.readouterr().out
    assert "omega=3 beta=2 q=1 dof=6" in out
    assert "subpacketization=8" in out
    assert "transmissions=4" in out


def test_plan_degenerate(tmp_path, capsys):
    ini = tmp_path / "p2p.ini"
    ini.write_text("[network]\nK = 1\nL = 1\nG = 1\nN = 1\nM = 0\n")
    assert main(["plan", "--config", str(ini)]) == EXIT_OK
    assert "omega=1 beta=1 q=1 dof=1" in capsys.readouterr().out


def test_verify_delivery_pass(ini, capsys):
    assert main(["verify-delivery", "--config", ini]) == EXIT_OK
    out = capsys.readouterr().out
    assert "duplicates=0 missing=0" in out
    assert out.count("PASS user=") == 4


def test_verify_delivery_corrupt_fails(ini, capsys):
    assert main(["verify-delivery", "--config", ini, "--corrupt"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL user=" in out
    assert "subpacket=" in out


def test_verify_delivery_k12_round_trip(tmp_path, capsys):
    # the planner, not a K cap, decides which networks verify-delivery takes
    ini = tmp_path / "big.ini"
    ini.write_text("[network]\nK = 12\nL = 3\nG = 1\nN = 12\nM = 3\n")
    assert main(["verify-delivery", "--config", str(ini)]) == EXIT_OK
    assert capsys.readouterr().out.count("PASS user=") == 12


def test_simulate_writes_traces(ini, tmp_path, capsys):
    assert main(["simulate", "--config", ini, "--snr", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "symmetric_rate=" in out
    assert os.path.exists(tmp_path / "out" / "trace_tx0.txt")
    header = (tmp_path / "out" / "trace_tx0.txt").read_text().splitlines()[0].split()
    assert header == ["outer", "inner", "objective", "power", "mu", "stationarity", "r_c"]


def test_simulate_zf_leakage_audit(ini, capsys):
    assert main(["simulate", "--config", ini, "--snr", "10", "--scheme", "zf"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "leakage=" in out
    assert "fallback=" in out


def test_simulate_solver_error_exit(ini, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(ccmimo.evaluate, "optimize", boom)
    assert main(["simulate", "--config", ini, "--snr", "10"]) == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err


def test_simulate_unknown_scheme_exit(ini, capsys):
    assert main(["simulate", "--config", ini, "--snr", "10", "--scheme", "bogus"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "bogus" in captured.err
    assert "symmetric_rate=" not in captured.out


def test_simulate_snr_overflow_exit_code(ini, capsys):
    assert main(["simulate", "--config", ini, "--snr", "4000"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "SNR 4000.0 dB" in captured.err
    assert "rate=" not in captured.out


def test_simulate_bad_snr_leaves_no_out_dir(ini, tmp_path):
    assert main(["simulate", "--config", ini, "--snr", "4000"]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scheme, code", [("bogus", EXIT_CONFIG), ("zf", EXIT_OK)])
def test_simulate_without_traces_leaves_no_out_dir(ini, tmp_path, scheme, code):
    # out_dir is made with the first trace file, and only kkt_lmmse writes traces
    assert main(["simulate", "--config", ini, "--snr", "10", "--scheme", scheme]) == code
    assert not (tmp_path / "out").exists()


def test_simulate_oracle_scheme_runs_oracle(ini, monkeypatch, capsys):
    calls = []
    real = ccmimo.oracle.max_rate_projected_gradient

    def counted(*args, **kwargs):
        calls.append(kwargs["restarts"])
        return real(*args, **kwargs)

    monkeypatch.setattr(ccmimo.oracle, "max_rate_projected_gradient", counted)
    monkeypatch.setattr(ccmimo.evaluate, "ORACLE_RESTARTS", 2)
    assert main(["simulate", "--config", ini, "--snr", "10",
                 "--scheme", "oracle_smallscale"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "scheme=oracle_smallscale" in out
    assert calls == [2] * 4  # one oracle run per transmission


def test_unknown_solver_key_exit_code(ini, capsys):
    text = Path(ini).read_text()
    for line in ("max_innr = 7", "user_weights = uniform", "step_size = 0.2", "init_seed = 3",
                 "mu_mode = closed_form"):
        with open(ini, "w") as fh:
            fh.write(text.replace("n_restarts = 1", "n_restarts = 1\n" + line))
        assert main(["plan", "--config", ini]) == EXIT_CONFIG
        assert f"solver.{line.split()[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("after, line, where", [
    ("N0 = 1.0", "KK = 4", "network.kk"),
    ("N0 = 1.0", "P_T = 2.0", "network.p_t"),  # power comes only from an SNR
    ("omega = 3", "omgea = 3", "plan.omgea"),
    ("seed = 1", "realisations = 3", "sweep.realisations"),
    ("seed = 1", "\n[verify]\ndesk_scale_cap = 8", "unknown section [verify]"),
    ("out_dir = {out}", "outdir = x", "output.outdir"),
    ("seed = 1", "\n[sweeps]\nseed = 2", "[sweeps]"),
])
def test_unknown_key_in_any_section_exit_code(tmp_path, capsys, after, line, where):
    path = tmp_path / "run.ini"
    path.write_text(BASE_INI.replace(after, after + "\n" + line).format(out=tmp_path / "out"))
    assert main(["plan", "--config", str(path)]) == EXIT_CONFIG
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--workers", "1", "--scheme", "oracle_smallscale"],
    ["simulate", "--snr", "10", "--scheme", "oracle_smallscale"],
])
def test_no_oracle_restarts_exit_code(ini, capsys, argv):
    # The oracle's restart count is the constant evaluate.ORACLE_RESTARTS, not a run-file key.
    text = Path(ini).read_text()
    with open(ini, "w") as fh:
        fh.write(text.replace("seed = 1", "seed = 1\noracle_restarts = 0"))
    assert main([argv[0], "--config", ini] + argv[1:]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "sweep.oracle_restarts" in captured.err
    assert "rate=" not in captured.out


def test_zero_workers_exit_code(ini, capsys):
    assert main(["sweep", "--config", ini, "--workers", "0"]) == EXIT_CONFIG
    assert "workers must be >= 1" in capsys.readouterr().err


def test_zero_solver_counts_exit_code(ini, capsys):
    text = Path(ini).read_text()
    with open(ini, "w") as fh:
        fh.write(text.replace("max_outer = 15", "max_outer = 0")
                 .replace("n_restarts = 1", "n_restarts = 0"))
    assert main(["sweep", "--config", ini, "--workers", "1"]) == EXIT_CONFIG
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--workers", "1"], ["simulate", "--snr", "10"], ["verify-delivery"], ["dump"],
    ["sweep", "--realizations", "0", "--workers", "1"],  # no draw uses the seed
])
def test_negative_seed_exit_code(ini, capsys, argv):
    assert main([argv[0], "--config", ini, "--seed", "-1"] + argv[1:]) == EXIT_CONFIG
    assert "seeds must be non-negative" in capsys.readouterr().err


def test_readme_run_config_loads(tmp_path):
    readme = Path(README).read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.ini"
    path.write_text(block)
    rc = load_run_config(str(path))
    assert rc.network.K == 4 and rc.sweep.realizations == 20


def test_readme_lists_every_run_file_key():
    # the README's run file names every key load_run_config takes, commented
    # pins included, and no other
    readme = Path(README).read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    listed, section = set(), None
    for line in block.splitlines():
        line = line.lstrip("; ")
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            listed.add(f"{section}.{line.split('=')[0].strip()}")
    schema = {f"{name}.{f.name}" for name, cls in get_type_hints(RunConfig).items()
              for f in fields(cls) if f.name not in _PER_CALL}
    assert listed == schema


def test_readme_commands_parse(tmp_path):
    # every command line of the README's CLI block takes only flags its command has
    blocks = [b.split("```", 1)[0] for b in Path(README).read_text().split("```sh\n")[1:]]
    block = next(b for b in blocks if b.startswith("ccmimo "))
    path = tmp_path / "run.ini"
    path.write_text("")
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "ccmimo", line
        args = _build_parser().parse_args([str(path) if a == "run.ini" else a for a in argv[1:]])
        assert args.config == str(path)


def test_simulate_singular_channel_exits_solver_error(ini, monkeypatch, capsys):
    real = ccmimo.evaluate.sample_channels

    def rank_one(*args):
        cs = real(*args)
        cs.H[:, 1] = cs.H[:, 0]  # both receive antennas see the same channel
        return cs

    monkeypatch.setattr(ccmimo.evaluate, "sample_channels", rank_one)
    assert main(["simulate", "--config", ini, "--snr", "200"]) == EXIT_SOLVER
    assert "Singular matrix" in capsys.readouterr().err
    assert main(["simulate", "--config", ini, "--snr", "200",
                 "--scheme", "oracle_smallscale"]) == EXIT_SOLVER
    assert "rate_with_ideal_receivers: Singular matrix" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["kkt_lmmse", "zf"])
def test_simulate_rate_underflow_exits_solver_error(ini, capsys, scheme):
    # -200 dB is a valid SNR whose rates underflow to 0; like the sweep, which
    # counts such a realization as failed, simulate stops at the first one
    assert main(["simulate", "--config", ini, "--snr", "-200", "--scheme", scheme]) \
        == EXIT_SOLVER
    captured = capsys.readouterr()
    assert "solver error: transmission 0: rate 0.0 is not positive" in captured.err
    assert [line.split(":")[0] for line in captured.out.splitlines()] == ["transmission 0"]


@pytest.mark.parametrize("flags", [
    ["--snr", "10", "30"],
    ["--snr"],
    ["--snr", "10", "--scheme", "zf", "kkt_lmmse"],
    ["--snr", "10", "--scheme"],
    [],  # the SNR has no default
])
def test_simulate_takes_one_snr_and_one_scheme(ini, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", ini] + flags)
    assert exc.value.code == EXIT_CONFIG
    assert "symmetric_rate=" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["simulate", "--snr", "10", "30"],
    ["plan", "--workers", "2"],
])
def test_flag_errors_exit_2(ini, argv):
    # arity errors and flags a command does not take are argparse usage errors
    src = os.path.join(os.path.dirname(README), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, "-m", "ccmimo.cli", argv[0], "--config", ini] + argv[1:]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "usage:" in proc.stderr and not proc.stdout


@pytest.mark.parametrize("line, bad", [
    ("K = 4", "K = 2.5"),
    ("omega = 3", "omega = three"),
    ("max_outer = 15", "max_outer = x"),
    ("realizations = 2", "realizations = 2.0"),
    ("snr_db = 5,10", "snr_db = 5,ten"),
])
def test_unparsable_value_exit_code(ini, capsys, line, bad):
    text = Path(ini).read_text()
    assert line in text
    with open(ini, "w") as fh:
        fh.write(text.replace(line, bad))
    assert main(["plan", "--config", ini]) == EXIT_CONFIG
    section = text[:text.index(line)].rsplit("[", 1)[1].split("]")[0]
    assert f"{section}.{bad.split()[0]} = " in capsys.readouterr().err


def test_sweep_outputs(ini, tmp_path, capsys):
    assert main(["sweep", "--config", ini, "--workers", "1"]) == EXIT_OK
    csv_path = tmp_path / "out" / "sweep.csv"
    dat_path = tmp_path / "out" / "sweep.dat"
    assert csv_path.exists() and dat_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "scheme,snr_db,mean_rsym,stderr,n_ok,n_failed,seed"
    assert len(lines) == 1 + 2 * 2
    dat = dat_path.read_text().splitlines()
    assert dat[1] == "# snr_db kkt_lmmse zf"


def test_sweep_rerun_byte_identical(ini, tmp_path):
    assert main(["sweep", "--config", ini, "--workers", "1"]) == EXIT_OK
    first = (tmp_path / "out" / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", ini, "--workers", "1"]) == EXIT_OK
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == first


def test_sweep_empty_snr_grid_exit_code(ini, capsys):
    text = Path(ini).read_text()
    with open(ini, "w") as fh:
        fh.write(text.replace("snr_db = 5,10", "snr_db ="))
    assert main(["sweep", "--config", ini, "--workers", "1"]) == EXIT_CONFIG
    assert "snr_db" in capsys.readouterr().err


def test_sweep_repeated_snr_exit_code(ini, tmp_path, capsys):
    # a repeated point would solve it twice and write two identical rows; the
    # rejected sweep fails before it makes out_dir
    assert main(["sweep", "--config", ini, "--workers", "1", "--snr", "5", "5"]) == EXIT_CONFIG
    assert "repeated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_flag_overrides(ini, tmp_path):
    assert main(["sweep", "--config", ini, "--workers", "1", "--snr", "10",
                 "--realizations", "1", "--scheme", "zf"]) == EXIT_OK
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("zf,10,")


SIMULATE = ["simulate", "--snr", "10"]
SWEEP_ZF = ["sweep", "--workers", "1", "--snr", "10", "--realizations", "1", "--scheme", "zf"]


@pytest.mark.parametrize("argv, out, first", [
    (SIMULATE, "", "trace_tx0.txt"),
    (SWEEP_ZF, "", "sweep.csv"),
    (SIMULATE, "{file}", "trace_tx0.txt"),
    (SWEEP_ZF, "{file}/x", "sweep.csv"),
], ids=["simulate-empty", "sweep-empty", "simulate-file", "sweep-below-file"])
def test_unwritable_out_dir_exit_code(ini, tmp_path, monkeypatch, capsys, argv, out, first):
    # an empty out dir, an existing file as the out dir or one below a file is
    # a configuration error naming the first output path, not a raw OSError;
    # a sweep finds it before it runs
    swept = []
    monkeypatch.setattr(ccmimo.cli, "monte_carlo_sweep", lambda *a, **kw: swept.append(a))
    (tmp_path / "file").write_text("")
    out = out.format(file=tmp_path / "file")
    assert main([argv[0], "--config", ini, *argv[1:], "--out", out]) == EXIT_CONFIG
    assert repr(os.path.join(out, first)) in capsys.readouterr().err
    assert swept == []


def test_dump_command(ini, capsys):
    assert main(["dump", "--config", ini]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("plan K=4")
    assert "codeword group=" in out


@pytest.mark.parametrize("snr, grid", [("15", [15.0]), ("15", [5.0, 15.0]), ("-0.0", [0.0])],
                         ids=["grid_15", "grid_5_15", "minus_zero"])
@pytest.mark.parametrize("scheme, n_restarts", [("kkt_lmmse", 3), ("oracle_smallscale", 1)])
def test_simulate_matches_sweep_point(tmp_path, monkeypatch, capsys, scheme, n_restarts,
                                      snr, grid):
    # simulate --snr X runs realization 0 of a sweep over any grid holding X
    # (-0.0 dB is 0.0 dB), with the same seed for every scheme run, so the
    # per-transmission rates agree
    path = tmp_path / "k3.ini"
    path.write_text("[network]\nK = 3\nL = 2\nG = 2\nN = 3\nM = 1\n\n"
                    f"[solver]\nmax_outer = 15\nn_restarts = {n_restarts}\n\n"
                    "[sweep]\nseed = 77\n\n"
                    f"[output]\nout_dir = {tmp_path / 'out'}\n")
    real, rates = ccmimo.cli.run_scheme, []

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        rates.append(out[0])
        return out

    monkeypatch.setattr(ccmimo.cli, "run_scheme", recorded)
    monkeypatch.setattr(ccmimo.evaluate, "ORACLE_RESTARTS", 3)
    assert main(["simulate", "--config", str(path), "--snr", snr, "--scheme", scheme]) == EXIT_OK
    printed = [line.split("rate=")[1].split()[0]
               for line in capsys.readouterr().out.splitlines() if line.startswith("transmission")]

    rc = load_run_config(str(path))
    _, plan = resolve_plan(rc)
    report = ccmimo.monte_carlo_sweep(rc.network, plan, [scheme], grid, 1, seed=77,
                                      options=rc.solver)
    want = report.rates[(scheme, float(snr), 0)]
    assert len(want) == plan.n_transmissions == 3
    assert tuple(rates) == want
    assert printed == [f"{r:.4f}" for r in want]
