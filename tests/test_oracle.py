import itertools

import numpy as np
import pytest

from capolar import oracle
from capolar.crc import CRC6, CRC11, CRC24C, crc_encode, crc_syndrome
from capolar.analysis import pair_covariance
from capolar.polar import construct_polar
from capolar.scl import scl_decode_batch


def test_crc_longdivision_trivia():
    assert np.array_equal(oracle.crc_longdivision([0] * 10, CRC6.poly), np.zeros(6, np.uint8))
    assert np.array_equal(oracle.crc_longdivision(CRC6.poly, CRC6.poly), np.zeros(6, np.uint8))


def test_crc_longdivision_agrees_with_table_implementation():
    rng = np.random.default_rng(11)
    for spec in (CRC6, CRC11, CRC24C):
        r = spec.degree
        for _ in range(400):
            m = rng.integers(0, 2, int(rng.integers(1, 40))).astype(np.uint8)
            want = crc_encode(m, spec)[-r:]
            got = oracle.crc_longdivision(list(m) + [0] * r, spec.poly)
            assert np.array_equal(got, want)
            w = rng.integers(0, 2, int(rng.integers(r, 60))).astype(np.uint8)
            assert np.array_equal(oracle.crc_longdivision(w, spec.poly), crc_syndrome(w, spec))


def test_xor_statistics_pinned_values():
    assert oracle.xor_statistics([], np.array([0.3])) == 0.0
    assert oracle.xor_statistics([0], np.array([0.37])) == pytest.approx(0.37)
    # two bits flipping with 0.9 and 0.8: odd parity with 0.9*0.2 + 0.1*0.8
    assert oracle.xor_statistics([0, 1], np.array([0.9, 0.8])) == pytest.approx(0.26)


def test_xor_statistics_matches_product_formula():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(1, 10))
        b = rng.uniform(0, 1, 16)
        idx = rng.choice(16, m, replace=False)
        want = 0.5 - 0.5 * np.prod(1 - 2 * b[idx])
        assert oracle.xor_statistics(idx, b) == pytest.approx(want, abs=1e-12)


def test_xor_statistics_refuses_large_supports():
    with pytest.raises(ValueError, match="refus"):
        oracle.xor_statistics(range(25), np.full(30, 0.5))


def test_covariance_composition_matches_closed_form():
    # cov(b_i, b_j) from three parity probabilities: the supports' union
    # splits into the shared part and two private parts
    rng = np.random.default_rng(13)
    for n in (4, 8, 16):
        code = construct_polar(n, max(2, n // 2))
        k = len(code.info)
        for _ in range(40):
            b = rng.uniform(0, 1, n)
            i, j = rng.choice(k, 2, replace=False)
            sup = lambda c: {s for s in range(n) if (s & c) == c}
            xi, xj = sup(int(code.info[i])), sup(int(code.info[j]))
            pa = oracle.xor_statistics(xi, b)
            pb = oracle.xor_statistics(xj, b)
            pd = oracle.xor_statistics(xi ^ xj, b)
            want = (pa + pb - pd) / 2 - pa * pb
            assert pair_covariance(int(i), int(j), b, code) == pytest.approx(want, abs=1e-12)


def test_ml_decode_trivial_and_method_agreement():
    rng = np.random.default_rng(14)
    single = rng.integers(0, 2, (1, 16)).astype(np.uint8)
    word, post = oracle.ml_decode(rng.normal(0, 3, 16), single)
    assert np.array_equal(word, single[0]) and post == 1.0
    for _ in range(100):
        book = rng.integers(0, 2, (64, 20)).astype(np.uint8)
        llr = rng.normal(0, 2, 20)
        w1, p1 = oracle.ml_decode(llr, book, method="llr")
        w2, p2 = oracle.ml_decode(llr, book, method="prob")
        assert np.array_equal(w1, w2)
        assert p1 == pytest.approx(p2, abs=1e-9)


def test_ml_decode_refusals():
    with pytest.raises(ValueError):
        oracle.ml_decode(np.zeros(4), np.zeros((0, 4), np.uint8))
    with pytest.raises(ValueError, match="refus"):
        oracle.ml_decode(np.zeros(21), np.zeros((2**20 + 1, 21), np.uint8))


def test_exact_so_tiny_code_by_hand():
    # N=4, K=2: enumerate the four codewords directly and compare posteriors
    code = construct_polar(4, 2)
    rng = np.random.default_rng(15)
    msgs = np.array(list(itertools.product([0, 1], repeat=2)), dtype=np.uint8)
    for _ in range(50):
        llr = rng.normal(0, 2, 4)
        p1 = 1 / (1 + np.exp(-llr))
        post = []
        us = []
        for m in msgs:
            u = np.zeros(4, np.uint8)
            u[code.info] = m
            us.append(u)
            x = np.array([u[0] ^ u[1] ^ u[2] ^ u[3], u[1] ^ u[3], u[2] ^ u[3], u[3]])
            post.append(np.prod(np.where(x, p1, 1 - p1)))
        post = np.array(post) / np.sum(post)
        for u, want in zip(us, post):
            assert oracle.exact_so(u, llr, code) == pytest.approx(want, abs=1e-12)


def test_exact_so_matches_exhaustive_list_decoder():
    code = construct_polar(8, 4)
    rng = np.random.default_rng(16)
    for _ in range(50):
        llr = rng.normal(0, 2.5, 8)
        out = scl_decode_batch(llr, code, 16)
        assert out.unvisited_mass[0] == 0.0
        # list-based posterior: q over all q plus the (zero) unvisited mass
        so = out.q[0] / (out.q[0].sum() + out.unvisited_mass[0])
        for i in range(4):
            assert so[i] == pytest.approx(
                oracle.exact_so(out.u_hat[0, i], llr, code), abs=1e-12
            )


def test_exact_so_refusals():
    with pytest.raises(ValueError, match="refus"):
        oracle.exact_so(np.zeros(32, np.uint8), np.zeros(32), construct_polar(32, 21))
    code = construct_polar(8, 4)
    with pytest.raises(ValueError):
        oracle.exact_so(np.zeros(4, np.uint8), np.zeros(8), code)
    bad = np.zeros(8, np.uint8)
    bad[code.frozen[0]] = 1
    with pytest.raises(ValueError):
        oracle.exact_so(bad, np.zeros(8), code)
