import warnings

import numpy as np
import pytest

from capolar.channel import (
    LLR_LIMIT,
    ChannelParams,
    llr_from_channel,
    message_bits,
    message_rng,
    modulate,
    noise_rng,
    saturate_llr,
    transmit,
)


def test_sigma_formula():
    # rate 1/2 at 0 dB: sigma^2 = 1 / (2 R Eb/N0) = 1
    assert ChannelParams(0.0, 0.5).sigma == pytest.approx(1.0)
    p = ChannelParams(3.0, 24 / 64)
    assert p.sigma == pytest.approx(np.sqrt(1.0 / (2.0 * 0.375 * 10 ** 0.3)))


def test_rate_validation():
    with pytest.raises(ValueError):
        ChannelParams(0.0, 0.0)
    with pytest.raises(ValueError):
        ChannelParams(0.0, 1.5)


def test_modulate_mapping():
    s = modulate(np.array([0, 1, 0, 1], np.uint8))
    assert np.array_equal(s, [1.0, -1.0, 1.0, -1.0])


def test_llr_sign_convention():
    # positive observation favours +1 = bit 0, so the LLR must be negative
    p = ChannelParams(0.0, 0.5)
    llr = llr_from_channel(np.array([0.7, -0.7]), p)
    assert llr[0] < 0 < llr[1]
    assert llr[0] == pytest.approx(-2 * 0.7 / p.sigma**2)


def test_noiseless_hard_decisions_recover_bits():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 256).astype(np.uint8)
    p = ChannelParams(6.0, 0.375)
    llr = llr_from_channel(modulate(bits), p)
    assert np.array_equal((llr > 0).astype(np.uint8), bits)


def test_saturate_llr():
    llr = np.array([-1e9, -1.0, 0.0, 1.0, 1e9])
    out = saturate_llr(llr)
    assert np.array_equal(out, [-LLR_LIMIT, -1.0, 0.0, 1.0, LLR_LIMIT])
    assert np.array_equal(saturate_llr(llr, limit=2.0), [-2, -1, 0, 1, 2])


def test_transmit_adds_deterministic_noise():
    p = ChannelParams(2.0, 0.5)
    s = modulate(np.zeros(64, np.uint8))
    y1 = transmit(s, p, seed=7, trial=3)
    y2 = transmit(s, p, seed=7, trial=3)
    assert np.array_equal(y1, y2)
    assert not np.array_equal(y1, transmit(s, p, seed=7, trial=4))
    assert not np.array_equal(y1, transmit(s, p, seed=8, trial=3))


def test_noise_statistics():
    p = ChannelParams(0.0, 0.5)
    s = np.zeros(200_000)
    y = transmit(s, p, seed=1, trial=0)
    assert abs(y.mean()) < 0.01
    assert y.std() == pytest.approx(p.sigma, rel=0.01)


def test_noise_and_message_streams_do_not_collide():
    # same (seed, trial) key: the message stream starts at a counter offset
    # far beyond any noise draw, so the two sequences never overlap
    a = noise_rng(5, 9).normal(size=1000)
    b = message_rng(5, 9).normal(size=1000)
    assert not np.isin(a, b).any()


def test_message_rng_determinism():
    m1 = message_rng(11, 2).integers(0, 2, 100)
    m2 = message_rng(11, 2).integers(0, 2, 100)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, message_rng(11, 3).integers(0, 2, 100))


def test_streams_keep_the_philox_key_for_nonnegative_words():
    # seeds and trials in [0, 2^63) key Philox exactly as (seed, trial)
    for seed, trial in ((0, 0), (1, 5), (2024, 12287), (2**62 + 3, 2**40), (2**63 - 1, 7)):
        noise = np.random.Generator(np.random.Philox(key=[seed, trial]))
        msg = np.random.Generator(np.random.Philox(key=[seed, trial], counter=[0, 0, 0, 1]))
        assert np.array_equal(noise_rng(seed, trial).standard_normal(50),
                              noise.standard_normal(50))
        assert np.array_equal(message_rng(seed, trial).integers(0, 2, 50),
                              msg.integers(0, 2, 50))


def test_stream_keys_are_exact_mod_2_64():
    # key words >= 2^63 once went through float64: -5 and -6 collided, as did
    # trial -1 and trial 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draw = {(seed, t): noise_rng(seed, t).standard_normal(8)
                for seed, t in ((-5, 3), (-6, 3), (-1, 3), (2**64 - 1, 3),
                                (5, -1), (5, 0), (5, 2**64 - 1),
                                (5, 2**63), (5, 2**63 + 7))}
        bits = {seed: message_rng(seed, 3).integers(0, 2, 64) for seed in (-5, -6)}
    assert not np.array_equal(draw[-5, 3], draw[-6, 3])
    assert not np.array_equal(bits[-5], bits[-6])
    assert not np.array_equal(draw[5, -1], draw[5, 0])
    assert not np.array_equal(draw[5, 2**63], draw[5, 2**63 + 7])
    # the key is the index reduced mod 2^64, by definition
    assert np.array_equal(draw[-1, 3], draw[2**64 - 1, 3])
    assert np.array_equal(draw[5, -1], draw[5, 2**64 - 1])


def test_batched_draws_equal_per_trial_streams():
    trials = [9, 2, 2, 2**32 + 5, 0, 2**63 + 1]
    p = ChannelParams(1.0, 0.5)
    s = modulate(np.random.default_rng(3).integers(0, 2, (len(trials), 16)))
    y = transmit(s, p, 77, trials)
    msgs = message_bits(77, trials, 12)
    assert msgs.dtype == np.uint8 and msgs.shape == (len(trials), 12)
    for i, t in enumerate(trials):
        assert np.array_equal(y[i], transmit(s[i], p, 77, t))
        assert np.array_equal(msgs[i], message_rng(77, t).integers(0, 2, 12))
    assert np.array_equal(msgs[1], msgs[2])
    # the raw-word unpacking, odd lengths and keys near 2^64 included
    for seed in (7, 2024, -3, 0, 2**64 - 5):
        keys = [0, 9, 2**32 + 5, 2**63 + 1, 2**64 - 1]
        for m in (1, 2, 9, 19, 24, 31, 32, 90):
            msgs = message_bits(seed, keys, m)
            assert msgs.dtype == np.uint8 and msgs.shape == (len(keys), m)
            for i, t in enumerate(keys):
                assert np.array_equal(msgs[i], message_rng(seed, t).integers(0, 2, m))
    assert message_bits(77, [], 12).shape == (0, 12)
    with pytest.raises(ValueError, match="trial indices"):
        transmit(s, p, 77, trials[:-1])
    # one sample per trial: each row is a scalar
    y1 = transmit(np.ones(3), p, 77, [4, 5, 6])
    assert [float(v) for v in y1] == [float(transmit(1.0, p, 77, t)) for t in (4, 5, 6)]
