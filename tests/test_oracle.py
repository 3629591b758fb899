import numpy as np
import pytest

from ccmimo import (ConfigError, InputError, max_rate_projected_gradient,
                    rate_with_ideal_receivers)
from ccmimo.beamforming import StreamLayout, lmmse_receivers, per_user_rates
from ccmimo.channel import sample_channels


def test_scalar_capacity():
    H = np.ones((1, 1, 1), dtype=complex)
    val, W = max_rate_projected_gradient(H, [(0,)], 1, P_T=10.0, N0=1.0,
                                         restarts=3, seed=1)
    assert val == pytest.approx(np.log2(11.0), abs=1e-6)
    assert np.sum(np.abs(W) ** 2) <= 10.0 * (1 + 1e-9)


def test_rate_matches_explicit_lmmse_receivers():
    rng = np.random.default_rng(0)
    groups = ((0, 1), (0, 2), (1, 2))
    lay = StreamLayout(users=(0, 1, 2), groups=groups, q=1)
    H = (rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))) * np.sqrt(0.5)
    W = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    direct = rate_with_ideal_receivers(W, H, groups, 1, 1.0)
    U = lmmse_receivers(W, H, 1.0, lay.member)
    explicit = float(per_user_rates(W, H, lay, 1.0, U=U).min())
    assert direct == pytest.approx(explicit, rel=1e-10)


def test_restart_determinism():
    cs = sample_channels(5, 0, 2, 2, 2)
    a = max_rate_projected_gradient(cs.H, [(0, 1)], 2, 10.0, 1.0, restarts=4, seed=9,
                                    max_steps=20)
    b = max_rate_projected_gradient(cs.H, [(0, 1)], 2, 10.0, 1.0, restarts=4, seed=9,
                                    max_steps=20)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


def test_more_restarts_never_worse():
    cs = sample_channels(6, 0, 2, 2, 2)
    few = max_rate_projected_gradient(cs.H, [(0, 1)], 2, 100.0, 1.0, restarts=2,
                                      seed=3, max_steps=30)[0]
    many = max_rate_projected_gradient(cs.H, [(0, 1)], 2, 100.0, 1.0, restarts=8,
                                       seed=3, max_steps=30)[0]
    assert many >= few - 1e-12


def _ascent_one_restart_at_a_time(H, groups, q, P_T, N0, restarts, seed, max_steps):
    """The ascent with a scalar rate call per perturbed coordinate, per
    backtracking trial and per restart: the reference for the lockstep one."""
    n_streams, L = len(groups) * q, H.shape[2]
    scale = np.sqrt(P_T)
    fd = 1e-6 * scale

    def project(W):
        p = float(np.sum(np.abs(W) ** 2))
        return W * np.sqrt(P_T / p) if p > P_T else W

    def f(vec):
        W = vec.view(np.complex128).reshape(n_streams, L)
        return rate_with_ideal_receivers(project(W), H, groups, q, N0)

    best_val, best_W = -np.inf, None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        W = rng.standard_normal((n_streams, L)) + 1j * rng.standard_normal((n_streams, L))
        W *= np.sqrt(P_T / np.sum(np.abs(W) ** 2))
        vec = np.ascontiguousarray(W).view(np.float64).ravel().copy()
        val = f(vec)
        step = 0.25 * scale
        for _ in range(max_steps):
            grad = np.zeros_like(vec)
            for j in range(vec.size):
                vec[j] += fd
                grad[j] = (f(vec) - val) / fd
                vec[j] -= fd
            norm = np.linalg.norm(grad)
            if norm < 1e-12:
                break
            improved = False
            while step > 1e-7 * scale:
                cand = vec + step * grad / norm
                cval = f(cand)
                if cval > val:
                    vec, val = cand, cval
                    step *= 1.3
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if val > best_val:
            best_val, best_W = val, project(vec.view(np.complex128).reshape(n_streams, L))
    return best_val, best_W


LAYOUTS = [  # groups, q, G, L
    (((0, 1),), 2, 2, 2),
    (((0, 1), (0, 2), (1, 2)), 1, 2, 3),
    (((0,),), 1, 1, 1),
    (((0,), (1,)), 1, 2, 3),
]


@pytest.mark.parametrize("groups, q, G, L", LAYOUTS)
def test_lockstep_ascent_matches_one_restart_at_a_time(groups, q, G, L):
    n_users = 1 + max(max(T) for T in groups)
    for c in range(2):
        H = sample_channels(40, c, n_users, G, L).H
        P_T = (10.0, 300.0)[c]
        args = (H, groups, q, P_T, 1.0)
        got = max_rate_projected_gradient(*args, restarts=5, seed=c, max_steps=15)
        want = _ascent_one_restart_at_a_time(*args, restarts=5, seed=c, max_steps=15)
        assert type(got[0]) is float
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("groups, q, G, L", LAYOUTS)
def test_stacked_rate_equals_per_set_rates(groups, q, G, L):
    rng = np.random.default_rng(G * 10 + L)
    n_users = 1 + max(max(T) for T in groups)
    H = sample_channels(41, 0, n_users, G, L).H
    shape = (6, len(groups) * q, L)
    W = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stacked = rate_with_ideal_receivers(W, H, groups, q, 0.5)
    assert stacked.shape == (6,)
    singles = [rate_with_ideal_receivers(w, H, groups, q, 0.5) for w in W]
    assert all(type(s) is float for s in singles)
    assert stacked.tolist() == singles


def test_no_restarts():
    H = sample_channels(7, 0, 2, 2, 2).H
    with pytest.raises(ConfigError):
        max_rate_projected_gradient(H, [(0, 1)], 2, 10.0, 1.0, restarts=0)
    for bad in (dict(restarts=2.5), dict(restarts=True), dict(max_steps=0),
                dict(max_steps=1.5)):
        with pytest.raises(ConfigError):
            max_rate_projected_gradient(H, [(0, 1)], 2, 10.0, 1.0, **{"restarts": 2, **bad})


def test_negative_seed_is_config_error():
    H = sample_channels(7, 0, 2, 2, 2).H
    with pytest.raises(ConfigError, match="non-negative"):
        max_rate_projected_gradient(H, [(0, 1)], 2, 10.0, 1.0, restarts=2, seed=-1)
    with pytest.raises(ConfigError):
        max_rate_projected_gradient(H, [(0, 1)], 2, 10.0, 1.0, restarts=2, seed=1.5)


def test_groups_and_q_checked_like_the_solvers():
    H = sample_channels(7, 0, 2, 2, 2).H
    # user 2 is not in H, and q counts at least one substream
    for groups, q in ((((0, 1), (1, 2), (0, 2)), 1), ([(0, 1)], 0)):
        with pytest.raises(ConfigError):
            max_rate_projected_gradient(H, groups, q, 10.0, 1.0, restarts=2)


def test_non_finite_channel_is_input_error():
    H = sample_channels(7, 0, 2, 2, 2).H
    H[0, 1, 0] = np.nan
    with pytest.raises(InputError, match="finite"):
        max_rate_projected_gradient(H, [(0, 1)], 2, 10.0, 1.0, restarts=2)
