import numpy as np
import pytest

from ccmimo import ConfigError, sample_channels, snr_to_power


def test_determinism():
    a = sample_channels(42, 3, K=4, G=2, L=3)
    b = sample_channels(42, 3, K=4, G=2, L=3)
    assert np.array_equal(a.H, b.H)


def test_shapes():
    cs = sample_channels(1, 0, K=1, G=2, L=3)
    assert cs.H.shape == (1, 2, 3)
    assert cs.H.dtype == np.complex128


def test_distinct_realizations_and_seeds():
    base = sample_channels(5, 0, K=2, G=2, L=2)
    assert not np.array_equal(base.H, sample_channels(5, 1, K=2, G=2, L=2).H)
    assert not np.array_equal(base.H, sample_channels(6, 0, K=2, G=2, L=2).H)


def test_user_streams_independent_of_K():
    # adding users must not disturb existing users' matrices
    small = sample_channels(9, 2, K=1, G=2, L=3)
    big = sample_channels(9, 2, K=5, G=2, L=3)
    assert np.array_equal(small.H[0], big.H[0])


def test_unit_variance_moments():
    # 1e5 entries: empirical mean |h|^2 within 2% of one
    cs = sample_channels(7, 0, K=1000, G=10, L=10)
    power = float(np.mean(np.abs(cs.H) ** 2))
    assert abs(power - 1.0) < 0.02
    mean = np.mean(cs.H)
    assert abs(mean) < 0.02
    # half the variance sits in each of the real and imaginary parts
    assert abs(np.var(cs.H.real) - 0.5) < 0.01
    assert abs(np.var(cs.H.imag) - 0.5) < 0.01


def test_snr_to_power():
    assert snr_to_power(0.0, 1.0) == 1.0
    assert snr_to_power(10.0, 1.0) == pytest.approx(10.0)
    assert snr_to_power(20.0, 0.5) == pytest.approx(50.0)
    with pytest.raises(ConfigError):
        snr_to_power(10.0, 0.0)
    with pytest.raises(ConfigError, match="SNR 4000.0 dB"):  # 10**400 overflows a float
        snr_to_power(4000.0, 1.0)


def test_negative_seed_is_config_error():
    with pytest.raises(ConfigError):
        sample_channels(-1, 0, 1, 1, 1)
    # seeds and dimensions are integers: no floats, even integral ones, no bools
    for args in ((1.5, 0, 2, 2, 2), (1, 0.0, 2, 2, 2), (1, 0, 1.5, 2, 2), (1, 0, 2, 2.0, 2),
                 (1, 0, True, 2, 2)):
        with pytest.raises(ConfigError):
            sample_channels(*args)
    # numpy integers are integers
    assert sample_channels(np.int64(1), np.int32(0), np.int64(2), 2, 2).H.shape == (2, 2, 2)
