import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capolar import oracle
from capolar.crc import CRC6, CRC11, CRC24C, CrcSpec, crc_encode, crc_spec_for, crc_syndrome

SPECS = (CRC6, CRC11, CRC24C)


def test_generator_degrees():
    assert CRC6.degree == 6
    assert CRC11.degree == 11
    assert CRC24C.degree == 24


def test_crc_spec_for_known_and_unknown():
    assert crc_spec_for(6) is CRC6
    assert crc_spec_for(11) is CRC11
    assert crc_spec_for(24) is CRC24C
    with pytest.raises(ValueError, match="parity bits"):
        crc_spec_for(16)


def test_spec_validation():
    with pytest.raises(ValueError):
        CrcSpec((1,))
    with pytest.raises(ValueError):
        CrcSpec((0, 1, 1))
    with pytest.raises(ValueError):
        CrcSpec((1, 2, 1))


def test_degree_limit_of_the_packed_checks():
    # one int64 per parity-check column holds 63 checks, and no more
    assert CrcSpec((1,) + (0,) * 62 + (1,)).degree == 63
    with pytest.raises(ValueError, match="at most 63"):
        CrcSpec((1,) + (0,) * 63 + (1,))


def test_encode_and_syndrome_match_long_division():
    # a random generator of every degree the packed checks hold, at word
    # lengths past 1100 bits, for one word, a row of words and a
    # (trials, paths, K) block
    rng = np.random.default_rng(17)
    for degree in range(1, 64):
        spec = CrcSpec((1,) + tuple(int(c) for c in rng.integers(0, 2, degree)))
        length = 1100 + degree if degree % 16 == 0 else int(rng.integers(degree + 1, 1200))
        for shape in ((), (2,), (2, 2)):
            word = rng.integers(0, 2, shape + (length,)).astype(np.uint8)
            msg = word[..., degree:]
            syn, cw = crc_syndrome(word, spec), crc_encode(msg, spec)
            assert syn.shape == shape + (degree,)
            assert cw.shape == shape + (length,)
            assert not crc_syndrome(cw, spec).any()
            for idx in np.ndindex(shape):
                assert np.array_equal(syn[idx], oracle.crc_longdivision(word[idx], spec.poly))
                want = oracle.crc_longdivision(list(msg[idx]) + [0] * degree, spec.poly)
                assert np.array_equal(cw[idx][-degree:], want)
                assert np.array_equal(cw[idx][:-degree], msg[idx])


def test_zero_message_zero_parity():
    for spec in SPECS:
        cw = crc_encode(np.zeros(10, np.uint8), spec)
        assert np.array_equal(cw, np.zeros(10 + spec.degree, np.uint8))


def test_known_crc6_remainder():
    # long division of 1·x^6 by x^6+x^5+1: remainder x^5+1
    cw = crc_encode(np.array([1], np.uint8), CRC6)
    assert cw.tolist() == [1, 1, 0, 0, 0, 0, 1]


def test_parity_check_columns():
    # column j of H is x^(length-1-j) mod g, so H applied to a codeword
    # reproduces the polynomial remainder
    for spec in SPECS:
        h = spec.parity_check(40)
        assert h.shape == (spec.degree, 40)
        rng = np.random.default_rng(3)
        for _ in range(50):
            w = rng.integers(0, 2, 40).astype(np.uint8)
            assert np.array_equal((h @ w) % 2, crc_syndrome(w, spec))


def test_batched_encode_matches_rowwise():
    rng = np.random.default_rng(5)
    msgs = rng.integers(0, 2, (64, 20)).astype(np.uint8)
    batch = crc_encode(msgs, CRC11)
    for row, msg in zip(batch, msgs):
        assert np.array_equal(row, crc_encode(msg, CRC11))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=40),
    which=st.integers(0, 2),
    flip=st.integers(0, 10**9),
)
def test_round_trip_and_single_error_detection(bits, which, flip):
    spec = SPECS[which]
    msg = np.array(bits, dtype=np.uint8)
    cw = crc_encode(msg, spec)
    assert cw.shape == (len(bits) + spec.degree,)
    assert np.array_equal(cw[: len(bits)], msg)
    assert not crc_syndrome(cw, spec).any()
    corrupted = cw.copy()
    corrupted[flip % len(cw)] ^= 1
    assert crc_syndrome(corrupted, spec).any()
