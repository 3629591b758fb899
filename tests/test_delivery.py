import itertools
from math import comb, inf, nan

import numpy as np
import pytest

from ccmimo import (ConfigError, DeliveryError, InputError, NetworkConfig,
                    PlanError, build_codewords, build_placement, dump_codewords,
                    dump_plan, freshness_audit, plan_transmissions,
                    subpacketization, verify_decode)


def make_config(K, t, N=None, L=None, file_size_bits=1024):
    """Scenario with integer cache budget: N = K files, M = t*N/K = t."""
    N = N if N is not None else K
    M = t * N // K
    assert K * M == t * N, "test scenario must have an integer cache budget"
    return NetworkConfig(K=K, L=L or K, G=1, N=N, M=M, file_size_bits=file_size_bits)


def random_library(rng, n_files, size):
    return [rng.bytes(size) for _ in range(n_files)]


# ---------------------------------------------------------------------------
# subpacketization
# ---------------------------------------------------------------------------

def test_subpacketization_values():
    assert subpacketization(10, 1, 3) == 80
    assert subpacketization(4, 1, 2) == 4


@pytest.mark.parametrize("K,t", [(3, 0), (4, 1), (6, 2), (9, 3)])
def test_subpacketization_minimal_serving_set(K, t):
    # one-element choice from the remaining users: theta collapses to C(K, t)
    assert subpacketization(K, t, t + 1) == comb(K, t)


def test_subpacketization_rejects_bad_omega():
    with pytest.raises(ConfigError):
        subpacketization(4, 1, 1)
    with pytest.raises(ConfigError):
        subpacketization(4, 1, 5)
    for args in ((3, 1, 2.0), (3, 1.0, 2), (3, 3, 4)):
        with pytest.raises(ConfigError):
            subpacketization(*args)


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------

def test_placement_two_user_example():
    cfg = make_config(2, 1, N=2)
    lib = [b"A" * 64, b"B" * 64]
    pm = build_placement(cfg, lib)
    # subfiles are indexed by 1-user subsets; user k caches the slices tagged with itself
    assert pm.subsets == ((0,), (1,))
    assert pm.cache_of(0) == ((0, 0), (1, 0))
    assert pm.cache_of(1) == ((0, 1), (1, 1))
    assert pm.subfiles[(0, 0)] == b"A" * 32


def test_placement_empty_cache_when_t_zero():
    cfg = make_config(3, 0)
    pm = build_placement(cfg, random_library(np.random.default_rng(0), 3, 90))
    for k in range(3):
        assert pm.cache_of(k) == ()
        assert pm.cached_bytes(k) == 0


def test_placement_counts_K4_t2():
    cfg = make_config(4, 2)  # N=4, M=2
    pm = build_placement(cfg, random_library(np.random.default_rng(1), 4, 120))
    per_file = [j for j, P in enumerate(pm.subsets) if 0 in P]
    assert len(pm.subsets) == comb(4, 2) == 6
    assert len(per_file) == comb(3, 1) == 3
    # cached volume is exactly M files' worth of (padded) bytes
    padded_file = pm.subfile_bytes * len(pm.subsets)
    assert pm.cached_bytes(0) == cfg.M * padded_file


@pytest.mark.parametrize("K,t", [(2, 1), (4, 1), (5, 2), (6, 3)])
def test_cache_size_conservation_exact(K, t):
    # choose a file size divisible by C(K,t) so no padding is involved
    n_subfiles = comb(K, t)
    cfg = make_config(K, t, file_size_bits=8 * 8 * n_subfiles)
    size = cfg.file_size_bits // 8
    pm = build_placement(cfg, random_library(np.random.default_rng(2), K, size))
    for k in range(K):
        assert pm.cached_bytes(k) * 8 == cfg.M * cfg.file_size_bits


def test_placement_rejects_bad_library():
    cfg = make_config(2, 1, N=2)
    with pytest.raises(InputError):
        build_placement(cfg, [b"x" * 10])  # wrong count
    with pytest.raises(InputError):
        build_placement(cfg, [b"x" * 10, b"y" * 11])  # unequal sizes
    for library in (["ab", "cd"], [1, 2]):  # files that are not bytes
        with pytest.raises(InputError, match="bytes"):
            build_placement(cfg, library)


def test_non_integer_budget_is_config_error():
    with pytest.raises(ConfigError):
        NetworkConfig(K=3, L=3, G=1, N=2, M=1)  # K*M/N = 3/2
    # every count must be a real integer: no floats, even integral ones, no bools
    for bad in (dict(L=2.5), dict(K=4.0), dict(G=True), dict(N=4.0), dict(M=1.0),
                dict(file_size_bits=8192.0), dict(K="4"), dict(K=None), dict(N0=nan),
                dict(N0=inf), dict(N0="1"), dict(N0=True)):
        with pytest.raises(ConfigError):
            NetworkConfig(**{**dict(K=4, L=3, G=2, N=4, M=1), **bad})
    # numpy integers are integers
    cfg = NetworkConfig(K=np.int64(4), L=np.int32(3), G=2, N=4, M=np.int64(1))
    assert cfg.t == 1


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def test_plan_shapes_K3():
    cfg = make_config(3, 1)
    plan = plan_transmissions(cfg, 2, 1, 1)
    assert plan.n_transmissions == 3
    assert all(len(g) == 1 for g in plan.groups)


def test_plan_single_transmission_K2():
    cfg = make_config(2, 1, N=2)
    plan = plan_transmissions(cfg, 2, 1, 1)
    assert plan.serving_subsets == ((0, 1),)
    assert plan.groups == (((0, 1),),)


def test_plan_shapes_K4_omega3():
    cfg = make_config(4, 1)
    plan = plan_transmissions(cfg, 3, 2, 1)
    assert plan.n_transmissions == 4
    assert all(len(g) == 3 for g in plan.groups)
    for i, S in enumerate(plan.serving_subsets):
        for k in S:
            assert sum(k in T for T in plan.groups[i]) == 2


def test_plan_rejects_infeasible():
    cfg = make_config(4, 1)
    with pytest.raises(PlanError):
        plan_transmissions(cfg, 1, 1, 1)  # omega < t+1
    with pytest.raises(PlanError):
        plan_transmissions(cfg, 3, 5, 1)  # q*C(2,1)=2 < beta=5
    cfg_small_L = make_config(4, 1, L=1)
    with pytest.raises(PlanError):
        plan_transmissions(cfg_small_L, 3, 1, 1)  # omega > t+L
    # omega, beta and q are integers >= 1
    cfg3 = make_config(3, 1)
    for args in ((2.0, 1, 1), (2, 1.0, 1.0), (2, 1, 1.0), (2, 0, 1), (2, 1, 0), (2, True, 1)):
        with pytest.raises(ConfigError):
            plan_transmissions(cfg3, *args)


def test_counting_identity_up_to_K12():
    # slots serving one user == that user's subpacket demand
    for K in range(2, 13):
        for t in range(0, K):
            for omega in range(t + 1, K + 1):
                assert comb(K - 1, omega - 1) * comb(omega - 1, t) == \
                    comb(K - 1, t) * comb(K - t - 1, omega - t - 1), (K, t, omega)


@pytest.mark.parametrize("K,t,omega", [(4, 1, 2), (4, 1, 3), (5, 2, 4), (6, 1, 3), (5, 0, 2)])
def test_freshness_over_full_plan(K, t, omega):
    cfg = make_config(K, t)
    plan = plan_transmissions(cfg, omega, 1, 1)
    audit = freshness_audit(plan)
    assert audit["duplicates"] == 0
    assert audit["missing"] == 0
    assert audit["unexpected"] == 0
    assert audit["scheduled"] == audit["demanded"]


def test_plan_determinism():
    cfg = make_config(5, 1)
    a = plan_transmissions(cfg, 3, 2, 1)
    b = plan_transmissions(cfg, 3, 2, 1)
    assert a.serving_subsets == b.serving_subsets
    assert a.schedule == b.schedule
    assert dump_plan(a) == dump_plan(b)


PINNED_PLAN_K4 = """\
plan K=4 N=4 t=1 omega=3 beta=2 q=1 subpackets=2 transmissions=4
transmission 0 subset=0,1,2
slot group=0,1 user=0 subset=1 sigma=0
slot group=0,1 user=1 subset=0 sigma=0
slot group=0,2 user=0 subset=2 sigma=0
slot group=0,2 user=2 subset=0 sigma=0
slot group=1,2 user=1 subset=2 sigma=0
slot group=1,2 user=2 subset=1 sigma=0
transmission 1 subset=0,1,3
slot group=0,1 user=0 subset=1 sigma=1
slot group=0,1 user=1 subset=0 sigma=1
slot group=0,3 user=0 subset=3 sigma=0
slot group=0,3 user=3 subset=0 sigma=0
slot group=1,3 user=1 subset=3 sigma=0
slot group=1,3 user=3 subset=1 sigma=0
transmission 2 subset=0,2,3
slot group=0,2 user=0 subset=2 sigma=1
slot group=0,2 user=2 subset=0 sigma=1
slot group=0,3 user=0 subset=3 sigma=1
slot group=0,3 user=3 subset=0 sigma=1
slot group=2,3 user=2 subset=3 sigma=0
slot group=2,3 user=3 subset=2 sigma=0
transmission 3 subset=1,2,3
slot group=1,2 user=1 subset=2 sigma=1
slot group=1,2 user=2 subset=1 sigma=1
slot group=1,3 user=1 subset=3 sigma=1
slot group=1,3 user=3 subset=1 sigma=1
slot group=2,3 user=2 subset=3 sigma=1
slot group=2,3 user=3 subset=2 sigma=1
"""


def test_schedule_order_pinned():
    # the exact subpacket order, not just a valid one: a different sigma
    # assignment would still pass the freshness and decode checks
    cfg = NetworkConfig(K=4, L=3, G=2, N=4, M=1)
    plan = plan_transmissions(cfg, 3, 2, 1)
    assert dump_plan(plan) == PINNED_PLAN_K4
    rng = np.random.default_rng(7)
    pm = build_placement(cfg, random_library(rng, 4, 45))  # 12-byte subfiles, 3 padded
    cw = build_codewords(plan, [2, 0, 3, 1], pm)
    assert cw.subpacket_bytes == 6
    # user 2 takes the padded tail of file 3's subfile 3, user 3 the tail of file 1's subfile 2
    assert cw.codewords[(3, (2, 3))].hex() == "976ac7dc03d1"


# ---------------------------------------------------------------------------
# codewords
# ---------------------------------------------------------------------------

def test_codeword_two_user_xor():
    cfg = make_config(2, 1, N=2)
    rng = np.random.default_rng(3)
    lib = random_library(rng, 2, 64)
    pm = build_placement(cfg, lib)
    plan = plan_transmissions(cfg, 2, 1, 1)
    cw = build_codewords(plan, {0: 0, 1: 1}, pm)
    assert len(cw.codewords) == 1
    # X = (second half of file 0) xor (first half of file 1)
    a2 = lib[0][32:]
    b1 = lib[1][:32]
    want = bytes(x ^ y for x, y in zip(a2, b1))
    assert cw.codewords[(0, (0, 1))] == want


def test_codewords_raw_when_no_cache():
    cfg = make_config(3, 0)
    rng = np.random.default_rng(4)
    lib = random_library(rng, 3, 60)
    pm = build_placement(cfg, lib)
    plan = plan_transmissions(cfg, 1, 1, 1)
    cw = build_codewords(plan, [1, 1, 1], pm)
    # groups are singletons: the xor degenerates and codewords are raw subpackets
    for i, S in enumerate(plan.serving_subsets):
        assert cw.codewords[(i, S)] == lib[1]
    for k in range(3):
        assert verify_decode(k, cw, pm) == lib[1]


def test_codewords_K3_counts():
    cfg = make_config(3, 1)
    rng = np.random.default_rng(5)
    lib = random_library(rng, 3, 66)
    pm = build_placement(cfg, lib)
    plan = plan_transmissions(cfg, 2, 1, 1)
    cw = build_codewords(plan, [0, 1, 2], pm)
    assert len(cw.codewords) == 3
    for (i, T), payload in cw.codewords.items():
        assert len(payload) == cw.subpacket_bytes
        assert len(T) == 2


def test_codewords_reject_unknown_file():
    cfg = make_config(2, 1, N=2)
    pm = build_placement(cfg, random_library(np.random.default_rng(6), 2, 32))
    plan = plan_transmissions(cfg, 2, 1, 1)
    with pytest.raises(InputError):
        build_codewords(plan, [0, 5], pm)
    # a request is a file index: an integer, not a float or a bool
    cfg3 = make_config(3, 1)
    pm3 = build_placement(cfg3, random_library(np.random.default_rng(6), 3, 33))
    plan3 = plan_transmissions(cfg3, 2, 1, 1)
    for bad in ([0.5, True, 2.9], [0, 1, 2.0], [0, True, 2], [0, 1, "2"]):
        with pytest.raises(InputError):
            build_codewords(plan3, bad, pm3)
    # numpy integers are integers
    assert build_codewords(plan3, np.arange(3), pm3).requests == (0, 1, 2)
    # a request map names users 0..K-1, each once
    for bad, user in (({0: 1, 1: 2}, r"\[2\]"), ({0: 1, 1: 2, 2: 0, 3: 1}, r"\[3\]"),
                      ({0: 1, 1: 2, -1: 0}, r"\[-1, 2\]")):
        with pytest.raises(InputError, match=user):
            build_codewords(plan3, bad, pm3)
    assert build_codewords(plan3, {2: 0, 0: 1, 1: 2}, pm3).requests == (1, 2, 0)


def test_substream_split_padding():
    cfg = make_config(2, 1, N=2)
    pm = build_placement(cfg, random_library(np.random.default_rng(7), 2, 33))
    plan = plan_transmissions(cfg, 2, 2, 2)
    cw = build_codewords(plan, [0, 1], pm)
    # every codeword splits evenly into q substream payloads
    assert plan.q == 2 and cw.subpacket_bytes % plan.q == 0
    assert all(len(x) == cw.subpacket_bytes for x in cw.codewords.values())


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def test_decode_two_user_exact():
    cfg = make_config(2, 1, N=2)
    rng = np.random.default_rng(8)
    lib = random_library(rng, 2, 128)
    pm = build_placement(cfg, lib)
    plan = plan_transmissions(cfg, 2, 1, 1)
    cw = build_codewords(plan, [0, 1], pm)
    assert verify_decode(0, cw, pm) == lib[0]
    assert verify_decode(1, cw, pm) == lib[1]


def test_decode_single_user_no_cache():
    cfg = NetworkConfig(K=1, L=1, G=1, N=2, M=0, file_size_bits=512)
    rng = np.random.default_rng(9)
    lib = random_library(rng, 2, 64)
    pm = build_placement(cfg, lib)
    plan = plan_transmissions(cfg, 1, 1, 1)
    cw = build_codewords(plan, [1], pm)
    assert verify_decode(0, cw, pm) == lib[1]


def test_decode_K4_random_kib():
    cfg = make_config(4, 1)
    rng = np.random.default_rng(10)
    lib = random_library(rng, 4, 1024)
    pm = build_placement(cfg, lib)
    plan = plan_transmissions(cfg, 3, 2, 1)
    requests = rng.integers(0, 4, size=4).tolist()
    cw = build_codewords(plan, requests, pm)
    for k in range(4):
        assert verify_decode(k, cw, pm) == lib[requests[k]]


def test_decode_rejects_bad_user():
    cfg = make_config(3, 1)
    pm = build_placement(cfg, random_library(np.random.default_rng(13), 3, 48))
    cw = build_codewords(plan_transmissions(cfg, 2, 1, 1), [0, 1, 2], pm)
    for user in (3, 7, -1, 1.0, True):
        with pytest.raises(ConfigError):
            verify_decode(user, cw, pm)
        # the placement's per-user views check the user the same way
        with pytest.raises(ConfigError):
            pm.cache_of(user)
        with pytest.raises(ConfigError):
            pm.cached_bytes(user)


def test_decode_reports_missing_codeword():
    cfg = make_config(4, 1)
    rng = np.random.default_rng(11)
    lib = random_library(rng, 4, 96)
    pm = build_placement(cfg, lib)
    plan = plan_transmissions(cfg, 3, 2, 1)
    cw = build_codewords(plan, [0, 1, 2, 3], pm)
    key = next(k for k in cw.codewords if 0 in k[1])
    del cw.codewords[key]
    with pytest.raises(DeliveryError) as err:
        verify_decode(0, cw, pm)
    assert err.value.missing, "missing subpackets must be identified"


def test_codeword_determinism_and_dump():
    cfg = make_config(4, 1)
    rng = np.random.default_rng(12)
    lib = random_library(rng, 4, 200)
    pm = build_placement(cfg, lib)
    plan = plan_transmissions(cfg, 2, 1, 1)
    one = build_codewords(plan, [3, 2, 1, 0], pm)
    two = build_codewords(plan, [3, 2, 1, 0], pm)
    assert one.codewords == two.codewords
    assert dump_codewords(one) == dump_codewords(two)
    text = dump_codewords(one)
    assert text.count("codeword group=") == len(one.codewords)
    assert "payload=" in text


# ---------------------------------------------------------------------------
# randomized round trips across the desk-scale grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K,t", [(2, 1), (3, 1), (4, 2), (5, 0), (6, 2)])
def test_round_trip_random_configs(K, t):
    rng = np.random.default_rng(K * 100 + t)
    cfg = make_config(K, t)
    for omega in range(t + 1, K + 1):
        size = int(rng.integers(40, 220))  # odd sizes exercise padding
        lib = random_library(rng, cfg.N, size)
        pm = build_placement(cfg, lib)
        plan = plan_transmissions(cfg, omega, 1, 1)
        requests = rng.integers(0, cfg.N, size=K).tolist()
        cw = build_codewords(plan, requests, pm)
        for k in range(K):
            assert verify_decode(k, cw, pm) == lib[requests[k]], (K, t, omega, k)
