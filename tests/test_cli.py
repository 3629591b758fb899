import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccmimo
from ccmimo import SolverError
from ccmimo.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VERIFY, _build_parser,
                        load_run_config, main)

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


def test_verify_delivery_k_cap(tmp_path):
    ini = tmp_path / "big.ini"
    ini.write_text("[network]\nK = 12\nL = 3\nG = 2\nN = 12\nM = 1\n")
    assert main(["verify-delivery", "--config", str(ini)]) == EXIT_CONFIG


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


def test_simulate_oracle_scheme_runs_oracle(ini, monkeypatch, capsys):
    calls = []
    real = ccmimo.oracle.max_rate_projected_gradient

    def counted(*args, **kwargs):
        calls.append(kwargs["restarts"])
        return real(*args, **kwargs)

    monkeypatch.setattr(ccmimo.oracle, "max_rate_projected_gradient", counted)
    text = Path(ini).read_text()
    with open(ini, "w") as fh:
        fh.write(text.replace("seed = 1", "seed = 1\noracle_restarts = 2"))
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
    ["sweep", "--workers", "1", "--scheme", "oracle_smallscale"],
    ["simulate", "--snr", "10", "--scheme", "oracle_smallscale"],
])
def test_no_oracle_restarts_exit_code(ini, capsys, argv):
    text = Path(ini).read_text()
    with open(ini, "w") as fh:
        fh.write(text.replace("seed = 1", "seed = 1\noracle_restarts = 0"))
    assert main([argv[0], "--config", ini] + argv[1:]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "oracle restarts must be >= 1" in captured.err
    assert "rate=" not in captured.out


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
    real = ccmimo.cli.sample_channels

    def rank_one(*args):
        cs = real(*args)
        cs.H[:, 1] = cs.H[:, 0]  # both receive antennas see the same channel
        return cs

    monkeypatch.setattr(ccmimo.cli, "sample_channels", rank_one)
    assert main(["simulate", "--config", ini, "--snr", "200"]) == EXIT_SOLVER
    assert "Singular matrix" in capsys.readouterr().err
    assert main(["simulate", "--config", ini, "--snr", "200",
                 "--scheme", "oracle_smallscale"]) == EXIT_SOLVER
    assert "rate_with_ideal_receivers: Singular matrix" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--snr", "10", "30"],
    ["--snr"],
    ["--snr", "10", "--scheme", "zf", "kkt_lmmse"],
    ["--snr", "10", "--scheme"],
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


def test_sweep_flag_overrides(ini, tmp_path):
    assert main(["sweep", "--config", ini, "--workers", "1", "--snr", "10",
                 "--realizations", "1", "--scheme", "zf"]) == EXIT_OK
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("zf,10,")


def test_dump_command(ini, capsys):
    assert main(["dump", "--config", ini]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("plan K=4")
    assert "codeword group=" in out
