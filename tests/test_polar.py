import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capolar.crc import CRC11, crc_encode, crc_spec_for
from capolar.polar import (
    CodeDims,
    PolarCode,
    _butterfly,
    ca_encode,
    construct_polar,
    encode_nonsystematic,
    encode_systematic,
    polar_transform,
)
from capolar.scl import _boxplus

# (N, K) pool for randomized encoding checks; covers both CRC lengths
DIM_POOL = [(8, 7), (16, 9), (32, 20), (64, 43), (64, 31), (128, 114)]


def unpack_bits(word, n):
    return np.array([(word >> i) & 1 for i in range(n)], dtype=np.uint8)


def test_transform_matches_kron_generator():
    # independent generator: F^(x)n by explicit kron power
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    for stages in range(1, 6):
        n = 1 << stages
        g = np.array([[1]], dtype=np.uint8)
        for _ in range(stages):
            g = np.kron(g, f)
        words = np.random.default_rng(stages).integers(0, 2, (50, n)).astype(np.uint8)
        assert np.array_equal(polar_transform(words), (words @ g) % 2)


def test_transform_rejects_bad_length():
    with pytest.raises(ValueError):
        polar_transform(np.zeros(6, np.uint8))


def row_major_butterfly(vals, combine):
    """The butterfly on a copy, block by block along the last axis."""
    out = np.array(vals)
    n = out.shape[-1]
    half = 1
    while half < n:
        blocks = out.reshape(out.shape[:-1] + (n // (2 * half), 2, half))
        blocks[..., 0, :] = combine(blocks[..., 0, :], blocks[..., 1, :])
        half *= 2
    return out


def test_butterfly_matches_the_row_major_formula():
    # the width-major butterfly does the same elementwise operations, so it
    # must agree bit for bit, saturated and infinite inputs included
    rng = np.random.default_rng(4)

    def neg_boxplus(a, b, out=None):
        return np.negative(_boxplus(a, b), out=out)

    for lead in ((), (7,), (5, 3), (2, 3, 4)):
        shape = lead + (64,)
        u = rng.integers(0, 2, shape).astype(np.uint8)
        got = _butterfly(u, np.bitwise_xor, np.uint8)
        assert got.flags.c_contiguous and got.dtype == np.uint8
        assert np.array_equal(got, row_major_butterfly(u, np.bitwise_xor))
        assert np.array_equal(polar_transform(u), got)
        signs = rng.choice([-1.0, 1.0], shape)
        for llr in (rng.normal(0, 3, shape), 40.0 * signs, np.inf * signs):
            kept = llr.copy()
            with np.errstate(invalid="ignore"):
                got = _butterfly(llr, neg_boxplus)
                want = row_major_butterfly(llr, neg_boxplus)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(llr, kept)  # the input is not touched


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(stages=st.integers(0, 6), word=st.integers(0, 2**64 - 1))
def test_transform_involution(stages, word):
    n = 1 << stages
    u = unpack_bits(word, n)
    assert np.array_equal(polar_transform(polar_transform(u)), u)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(pick=st.integers(0, len(DIM_POOL) - 1), word=st.integers(0, 2**128 - 1))
def test_systematic_extraction(pick, word):
    n, k = DIM_POOL[pick]
    code = construct_polar(n, k, systematic=True)
    phi = unpack_bits(word, k)
    x = encode_systematic(phi, code)
    assert np.array_equal(x[code.info], phi)
    # same codebook as the plain arrangement: u = T(x) vanishes on the
    # frozen set
    u = polar_transform(x)
    assert not u[code.frozen].any()


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(pick=st.integers(0, len(DIM_POOL) - 1), word=st.integers(0, 2**128 - 1))
def test_nonsystematic_round_trip(pick, word):
    n, k = DIM_POOL[pick]
    code = construct_polar(n, k)
    phi = unpack_bits(word, k)
    x = encode_nonsystematic(phi, code)
    u = polar_transform(x)
    assert np.array_equal(u[code.info], phi)
    assert not u[code.frozen].any()


def test_construct_polar_partitions_positions():
    for method in ("5g", "bhattacharyya"):
        code = construct_polar(64, 43, method=method)
        assert len(code.frozen) == 21 and len(code.info) == 43
        assert np.array_equal(
            np.sort(np.concatenate([code.frozen, code.info])), np.arange(64)
        )


def test_construct_polar_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        construct_polar(16, 8, method="genie")


def test_info_set_closed_under_domination():
    # systematic encoding relies on this closure property of the shipped
    # orderings: covering an information index keeps you in the set
    for method in ("5g", "bhattacharyya"):
        for n, k in DIM_POOL:
            code = construct_polar(n, k, method=method)
            frozen = set(code.frozen.tolist())
            for a in code.info.tolist():
                for j in range(n):
                    if (a & j) == a and j in frozen:
                        pytest.fail(f"{method} [{n},{k}]: {j} covers info {a} but is frozen")


def test_polar_code_validation():
    with pytest.raises(ValueError):
        PolarCode(n_code=6, frozen=np.arange(3), info=np.arange(3, 6))
    with pytest.raises(ValueError):
        PolarCode(n_code=8, frozen=np.arange(4), info=np.arange(3, 7))


def test_code_dims_validation():
    CodeDims(64, 48, 24)
    with pytest.raises(ValueError):
        CodeDims(48, 24, 12)
    with pytest.raises(ValueError):
        CodeDims(64, 65, 24)
    with pytest.raises(ValueError):
        CodeDims(64, 48, 48)


def test_dims_are_stored_as_plain_ints():
    dims = CodeDims(np.int64(16), np.int32(9), np.uint8(3))
    assert dims == CodeDims(16, 9, 3)
    assert all(type(v) is int for v in (dims.n_code, dims.k_crc, dims.m_msg))
    code = PolarCode(n_code=np.int64(8), frozen=np.arange(4), info=np.arange(4, 8))
    assert type(code.n_code) is int and code.stages == 3
    with pytest.raises(TypeError, match="n_code"):
        CodeDims(16.5, 9, 3)
    with pytest.raises(TypeError, match="m_msg"):
        CodeDims(16, 9, "3")
    with pytest.raises(TypeError, match="n_code"):
        PolarCode(n_code=8.0, frozen=np.arange(4), info=np.arange(4, 8))


def test_code_dims_helpers():
    dims = CodeDims(64, 43, 32)
    assert dims.parity_bits == 11
    assert dims.rate == 0.5
    assert crc_spec_for(dims.parity_bits) is CRC11


def test_ca_encode_places_crc_word():
    rng = np.random.default_rng(9)
    for systematic in (False, True):
        code = construct_polar(64, 43, systematic=systematic)
        msg = rng.integers(0, 2, 32).astype(np.uint8)
        x = ca_encode(msg, code, CRC11)
        phi = crc_encode(msg, CRC11)
        u = polar_transform(x)
        if systematic:
            assert np.array_equal(x[code.info], phi)
        else:
            assert np.array_equal(u[code.info], phi)
        assert not u[code.frozen].any()


def test_ca_encode_rejects_wrong_length():
    code = construct_polar(64, 43)
    with pytest.raises(ValueError, match="parity"):
        ca_encode(np.zeros(30, np.uint8), code, CRC11)
