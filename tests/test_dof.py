from math import comb, floor

import pytest

from ccmimo import ConfigError, PlanError, optimize_dof, scan_dof, stream_bound, substream_count
from ccmimo.dof import format_scan_table


def test_stream_bound_values():
    assert stream_bound(3, 2, 1, 3) == 2.0
    assert stream_bound(2, 2, 1, 2) == 2.0  # no competing users beyond the group
    assert stream_bound(5, 4, 1, 3) == pytest.approx(10.0 / 3.0)


def test_stream_bound_domain():
    with pytest.raises(ConfigError):
        stream_bound(3, 2, 1, 1)
    with pytest.raises(ConfigError):
        stream_bound(3, 2, 1, 5)
    with pytest.raises(ConfigError):
        stream_bound(3, 2, 1, 2.0)
    # the planner's inputs and pins are counts as well
    for args, pins in (((3.0, 2, 1), {}), ((2, True, 1), {}), ((2, 2, -1), {}),
                       ((2, 2, 1), dict(omega=2.0)), ((2, 2, 1), dict(beta=1.5)),
                       ((2, 2, 1), dict(q=1.0)), ((2, 2, 1), dict(omega=2, beta=1.5)),
                       ((2, 2, 1), dict(omega=2, q=0)), ((2, 2, 1), dict(beta=0))):
        with pytest.raises(ConfigError):
            optimize_dof(*args, **pins)
    for pins in (dict(beta=1.5), dict(q=True)):
        with pytest.raises(ConfigError):
            scan_dof(2, 2, 1, **pins)
    # the scan checks L, G and t itself, and so does the table built on it
    for args in ((2.0, 2, 1), (2, 2.0, 1), (2, 2, -1), (0, 2, 1), (2, 2, True)):
        for scan in (scan_dof, format_scan_table):
            with pytest.raises(ConfigError):
                scan(*args)


def test_stream_bound_monotone_in_L_and_G():
    for t in range(0, 4):
        for omega in range(t + 1, t + 6):
            prev = None
            for L in range(max(1, omega - t), 11):
                b = stream_bound(L, 4, t, omega)
                if prev is not None:
                    assert b >= prev - 1e-12
                prev = b
            prev = None
            for G in range(1, 11):
                b = stream_bound(8, G, t, omega)
                if prev is not None:
                    assert b >= prev - 1e-12
                prev = b


def test_substream_count_values():
    assert substream_count(4, 3, 1) == 2
    assert substream_count(2, 3, 1) == 1
    assert substream_count(2, 2, 1) == 2  # one slot per user


def test_substream_count_minimality():
    for t in range(0, 5):
        for omega in range(t + 1, 11):
            slots = comb(omega - 1, t)
            for beta in range(1, 65):
                q = substream_count(beta, omega, t)
                assert q * slots >= beta
                assert (q - 1) * slots < beta


def test_optimize_dof_anchors():
    p = optimize_dof(3, 2, 1)
    assert (p.omega, p.beta, p.dof, p.q) == (3, 2, 6, 1)
    p = optimize_dof(8, 4, 1)
    assert (p.omega, p.beta, p.dof, p.q) == (3, 4, 12, 2)
    p = optimize_dof(1, 1, 0)
    assert (p.omega, p.beta, p.dof, p.q) == (1, 1, 1, 1)


def test_optimize_dof_matches_exhaustive_scan():
    # independent brute force over all serving-set sizes
    for L in range(1, 11):
        for G in range(1, 11):
            for t in range(0, 5):
                table = []
                for omega in range(t + 1, t + L + 1):
                    slots = comb(omega - 1, t)
                    bound = min(float(G), L * slots / (1.0 + (omega - t - 1) * slots))
                    beta = min(G, floor(bound))
                    if beta >= 1:
                        table.append((omega * beta, -omega, omega, beta))
                want_dof, _, want_omega, want_beta = max(table)
                got = optimize_dof(L, G, t)
                assert got.dof == want_dof, (L, G, t)
                assert got.omega == want_omega, (L, G, t)
                assert got.beta == want_beta, (L, G, t)


def test_optimize_dof_overrides():
    # pinning the serving-set size restricts the scan
    p = optimize_dof(8, 4, 1, omega=2)
    assert p.omega == 2 and p.beta == 4 and p.q == 4
    # pinning q caps the stream count
    p = optimize_dof(8, 4, 1, omega=3, q=1)
    assert p.beta == 2 and p.q == 1 and p.dof == 6
    # pinning beta directly
    p = optimize_dof(8, 4, 1, omega=3, beta=3)
    assert p.beta == 3 and p.q == 2 and not p.exact
    with pytest.raises(PlanError):
        optimize_dof(3, 2, 1, omega=3, beta=4)  # above the feasible bound


def test_exact_flag():
    assert optimize_dof(3, 2, 1).exact  # beta=2 divisible by slots=2
    assert not optimize_dof(8, 4, 1, omega=3, beta=3).exact


def test_scan_table_format():
    rows = scan_dof(3, 2, 1)
    assert [c.omega for c in rows] == [2, 3, 4]
    text = format_scan_table(3, 2, 1)
    assert text.splitlines()[0].split() == ["omega", "bound", "beta", "q", "dof", "exact"]
    assert len(text.splitlines()) == 4
