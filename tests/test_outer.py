import itertools
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capolar import outer
from capolar.analysis import bit_prob, convert_llr, pair_covariance
from capolar.channel import (ChannelParams, llr_from_channel, message_rng,
                             modulate, saturate_llr, transmit)
from capolar.crc import CRC6, CRC11, CRC24C, CrcSpec, crc_encode, crc_syndrome
from capolar.outer import (
    gcd_decode_block,
    hard_decision,
    orbgrand_schedule,
    outer_llr,
    sogrand_decode_block,
)
from capolar.polar import PolarCode, ca_encode, construct_polar, polar_transform
from capolar.scl import _boxplus, ca_select_batch, scl_decode_batch


def test_bit_prob_matches_logistic():
    x = np.random.default_rng(7).normal(0, 20, 2000)
    assert np.allclose(bit_prob(x), 1 / (1 + np.exp(-x)), atol=1e-15)
    assert bit_prob(np.array([0.0]))[0] == 0.5
    assert bit_prob(np.array([-800.0]))[0] == 0.0
    assert bit_prob(np.array([800.0]))[0] == 1.0


def test_hard_decision_convention():
    assert hard_decision(np.array([-3.0, 0.0, 0.5])).tolist() == [0, 0, 1]


def test_convert_llr_matches_column_products():
    rng = np.random.default_rng(7)
    for n, k in [(8, 5), (16, 9), (32, 20), (64, 43)]:
        code = construct_polar(n, k)
        b = rng.uniform(0, 1, n)
        got = convert_llr(b, code)
        for i in range(k):
            col = int(code.info[i])
            sup = [s for s in range(n) if (s & col) == col]
            want = 0.5 - 0.5 * np.prod(1 - 2 * b[sup])
            assert got[i] == pytest.approx(want, abs=1e-12)


def test_convert_llr_two_bit_code():
    # N=2: u_0 = x_0 xor x_1 (support {0,1}) and u_1 = x_1 (support {1}),
    # so one info choice contracts both channels and the other passes one
    # through untouched
    b0, b1 = 0.3, 0.25
    xor_bit = PolarCode(n_code=2, frozen=np.array([1]), info=np.array([0]))
    got = convert_llr(np.array([b0, b1]), xor_bit)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(b0 + b1 - 2 * b0 * b1)

    thru_bit = PolarCode(n_code=2, frozen=np.array([0]), info=np.array([1]))
    got = convert_llr(np.array([b0, b1]), thru_bit)
    assert got[0] == pytest.approx(b1)


def test_convert_llr_validation():
    code = construct_polar(8, 5)
    with pytest.raises(ValueError):
        convert_llr(np.full(4, 0.1), code)
    with pytest.raises(ValueError):
        convert_llr(np.full(8, 1.3), code)


def test_outer_llr_agrees_with_probability_path():
    rng = np.random.default_rng(8)
    for n, k in [(16, 9), (64, 43)]:
        code = construct_polar(n, k)
        llr = rng.normal(0, 3, n)
        pb = convert_llr(bit_prob(llr), code)
        want = np.log(pb) - np.log(1 - pb)
        assert np.allclose(outer_llr(llr, code), want, atol=1e-9)


def test_outer_llr_systematic_is_restriction():
    code = construct_polar(64, 43, systematic=True)
    llr = np.random.default_rng(9).normal(0, 3, 64)
    assert np.array_equal(outer_llr(llr, code), llr[code.info])


def test_outer_llr_butterfly_is_negated_boxplus():
    # the outer butterfly combines with the inner decoder's boxplus, negated;
    # negation is exact, so it matches the stand-alone soft XOR it replaced
    # bit for bit, saturated inputs included
    def soft_xor(a, b):
        return -(
            np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
            + np.log1p(np.exp(-np.abs(a + b)))
            - np.log1p(np.exp(-np.abs(a - b)))
        )

    rng = np.random.default_rng(16)
    a = np.concatenate([rng.normal(0, 8, 5000), [40.0, -40.0, 40.0, 0.0]])
    b = np.concatenate([rng.normal(0, 8, 5000), [40.0, 40.0, -40.0, -40.0]])
    assert np.array_equal(-_boxplus(a, b), soft_xor(a, b))
    code = construct_polar(64, 43)
    for llr in (rng.normal(0, 3, (200, 64)),
                np.clip(rng.normal(0, 60, (200, 64)), -40, 40),
                40.0 * rng.choice([-1.0, 1.0], (200, 64))):
        want = llr.copy()
        half = 1
        while half < 64:
            blocks = want.reshape(200, 64 // (2 * half), 2, half)
            blocks[..., 0, :] = soft_xor(blocks[..., 0, :], blocks[..., 1, :])
            half *= 2
        assert np.array_equal(outer_llr(llr, code), want[:, code.info])


def test_outer_llr_magnitude_contraction():
    # each output magnitude is bounded by the weakest input in its support,
    # even for saturated inputs where the probability domain degenerates
    rng = np.random.default_rng(10)
    code = construct_polar(64, 43)
    supports = [
        np.array([s for s in range(64) if (s & int(c)) == int(c)]) for c in code.info
    ]
    for _ in range(1000):
        llr = np.clip(rng.normal(0, 15, 64), -40, 40)
        got = outer_llr(llr, code)
        for i, sup in enumerate(supports):
            assert abs(got[i]) <= np.abs(llr[sup]).min() + 1e-9


def test_pair_covariance_matches_exhaustive():
    rng = np.random.default_rng(11)
    code = construct_polar(8, 5)
    pats = np.array(list(itertools.product([0, 1], repeat=8)), dtype=np.uint8)
    u = polar_transform(pats)
    bits = u[:, code.info].astype(float)
    for _ in range(50):
        b = rng.uniform(0, 1, 8)
        pr = np.prod(np.where(pats, b, 1 - b), axis=1)
        mean = pr @ bits
        i, j = rng.choice(5, 2, replace=False)
        want = pr @ (bits[:, i] * bits[:, j]) - mean[i] * mean[j]
        assert pair_covariance(int(i), int(j), b, code) == pytest.approx(want, abs=1e-12)


def rank_lookup(order):
    rank_of = np.empty(len(order), dtype=int)
    rank_of[order] = np.arange(1, len(order) + 1)
    return rank_of


def distinct_partitions(total, max_part):
    """Partitions of ``total`` into distinct parts <= max_part, as ascending
    tuples in lexicographic order (recursive enumeration)."""
    def rec(remaining, smallest):
        if remaining == 0:
            yield ()
            return
        for part in range(smallest, min(remaining, max_part) + 1):
            # the parts above ``part`` must sum to remaining - part
            for rest in rec(remaining - part, part + 1):
                yield (part,) + rest
    yield from rec(total, 1)


def oracle_rank_sets(k, max_weight=None):
    """ORBGRAND rank sets over k ranks: by weight, then lexicographic; only
    those of weight <= ``max_weight`` when it is given."""
    top = k * (k + 1) // 2 if max_weight is None else min(max_weight, k * (k + 1) // 2)
    for weight in range(top + 1):
        yield from distinct_partitions(weight, k)


def weight_budget(k, max_weight):
    """S(k, w): the rank sets over k ranks of weight <= w, the query budget
    that caps a guesser at logistic weight w."""
    return sum(1 for _ in oracle_rank_sets(k, max_weight))


def oracle_schedule(order):
    """uint8 flip masks over positions, one per oracle rank set."""
    order = np.asarray(order)
    for ranks in oracle_rank_sets(len(order)):
        mask = np.zeros(len(order), dtype=np.uint8)
        mask[order[np.array(ranks, dtype=np.int64) - 1]] = 1
        yield mask


def rank_sets(masks, order):
    rank_of = rank_lookup(order)
    return [tuple(sorted(rank_of[np.flatnonzero(m)].tolist())) for m in masks]


@pytest.mark.parametrize("k, rows", [(24, 65536), (43, 4096), (114, 2048)])
def test_orbgrand_schedule_matches_recursive_oracle(k, rows):
    # byte planes hold any K; 114 ranks need 15 planes, past 64 bits
    order = np.random.default_rng(k).permutation(k)
    got = rank_sets(orbgrand_schedule(order, rows), order)
    want = list(itertools.islice(oracle_rank_sets(k), rows))
    assert len(got) == rows
    assert got == want


@pytest.mark.parametrize("k, max_weight", [(24, 40), (43, 30), (114, 25), (5, 100)])
def test_orbgrand_schedule_max_weight_truncation(k, max_weight):
    # the first S(k, w) rows are the sets of weight <= w (904 of them at
    # k = 114, w = 25), and the row after them, if any, weighs w + 1
    order = np.random.default_rng(k).permutation(k)
    rows = weight_budget(k, max_weight)
    got = orbgrand_schedule(order, rows + 1)
    assert rank_sets(got[:rows], order) == list(oracle_rank_sets(k, max_weight))
    if rows < 2 ** k:
        assert sum(rank_sets(got[rows:], order)[0]) == max_weight + 1
    else:
        assert len(got) == rows


class Row(NamedTuple):
    """One row of a guesser's columns."""

    found: bool
    word: np.ndarray
    so: float
    queries: int


def row_of(cols, t):
    return Row(bool(cols["hit"][t]), cols["word"][t], float(cols["so"][t]),
               int(cols["queries"][t]))


def gcd_decode(llr, spec, **kwargs):
    """Row 0 of ``gcd_decode_block`` on the block of one ``llr``."""
    return row_of(gcd_decode_block(np.asarray(llr)[None], spec, **kwargs), 0)


def sogrand_decode(llr, spec, **kwargs):
    """Row 0 of ``sogrand_decode_block`` on the block of one ``llr``."""
    return row_of(sogrand_decode_block(np.asarray(llr)[None], spec, **kwargs), 0)


def test_decoders_stop_at_max_weight(monkeypatch):
    # a cap at weight 12 is the budget S(k, 12): both guessers query exactly
    # that class prefix and build no schedule past it (sogrand under CRC24C,
    # where no pattern of the prefix hits); a budget past 2^k is 2^k
    rng = np.random.default_rng(17)
    for _ in range(20):
        llr = rng.normal(0, 0.5, 30)
        monkeypatch.setattr(outer, "_schedules", {})
        n_sets = weight_budget(30 - 6, 12)
        out = gcd_decode(llr, CRC6, max_queries=n_sets)
        assert out.queries == n_sets == outer._schedules[30 - 6].shape[1]
        n_sets = weight_budget(30, 12)
        out = sogrand_decode(llr, CRC24C, max_queries=n_sets)
        assert not out.found
        assert out.queries == n_sets == outer._schedules[30].shape[1]
    llr = rng.normal(0, 0.5, 12)
    assert gcd_decode(llr, CRC6, max_queries=1 << 40).queries == 2 ** 6
    assert same_row(sogrand_decode(llr, CRC6, max_queries=1 << 40),
                    sogrand_decode(llr, CRC6, max_queries=2 ** 12))


def test_orbgrand_schedule_matches_brute_force():
    # full 2^k enumeration sorted by (logistic weight, ascending rank tuple)
    rng = np.random.default_rng(12)
    for k in (3, 4, 5, 6):
        order = np.argsort(rng.uniform(0.1, 5, k), kind="stable")
        rank_of = rank_lookup(order)

        def key(mask):
            ranks = tuple(sorted(rank_of[np.flatnonzero(mask)]))
            return (sum(ranks), ranks)

        every = [np.array(m, np.uint8) for m in itertools.product([0, 1], repeat=k)]
        want = [tuple(m) for m in sorted(every, key=key)]
        got = [tuple(m) for m in orbgrand_schedule(order, 2 ** k)]
        assert got == want


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_orbgrand_schedule_ordering(k, seed):
    order = np.random.default_rng(seed).permutation(k)
    rank_of = rank_lookup(order)
    prev = -1
    seen = set()
    for idx, mask in enumerate(orbgrand_schedule(order, 151)):
        w = int(rank_of[np.flatnonzero(mask)].sum())
        assert w >= prev
        prev = w
        key = mask.tobytes()
        assert key not in seen
        seen.add(key)
        if idx == 0:
            assert not mask.any()


def test_orbgrand_schedule_max_weight():
    # the masks of weight <= 4 lead the order, and a short schedule is a
    # prefix of the full one, which holds all 2^k masks however many rows
    # are asked for
    order = np.arange(6)
    rank_of = rank_lookup(order)
    full = orbgrand_schedule(order, 100)
    assert full.shape == (64, 6) and full.dtype == np.uint8
    light = [tuple(m) for m in full if rank_of[np.flatnonzero(m)].sum() <= 4]
    masks = orbgrand_schedule(order, weight_budget(6, 4))
    assert [tuple(m) for m in masks] == light == [tuple(m) for m in full[:len(light)]]


def test_orbgrand_schedule_rejects_non_permutation():
    with pytest.raises(ValueError):
        orbgrand_schedule(np.array([0, 0, 1]), 4)
    with pytest.raises(ValueError):
        orbgrand_schedule(np.arange(3), 0)
    with pytest.raises(TypeError, match="rows"):
        orbgrand_schedule(np.arange(3), 2.0)


def reference_sogrand(llr, spec, max_queries):
    # pattern-at-a-time rerun of the documented query procedure: the word
    # (None when the budget ran out first), its soft output and the queries
    k = len(llr)
    hard = (llr > 0).astype(np.uint8)
    mag = np.abs(llr)
    order = np.argsort(mag, kind="stable")
    log_keep = -np.logaddexp(0, -mag).sum()
    word, qmass, queries = None, 0.0, 0
    for mask in oracle_schedule(order):
        if queries >= max_queries:
            break
        queries += 1
        lp = log_keep - mag[mask.astype(bool)].sum()
        qmass += np.exp(lp)
        if not crc_syndrome(hard ^ mask, spec).any():
            word = hard ^ mask
            break
    if word is None:
        return None, 0.0, queries
    n_cw = 2.0 ** (k - spec.degree)
    n_pat = 2.0 ** k
    r_term = 0.0
    if n_pat > queries:
        r_term = max(0.0, (1.0 - qmass) * (n_cw - 1) / (n_pat - queries))
    phi = np.exp(lp)
    denom = phi + r_term
    return tuple(word), float(phi / denom) if denom > 0 else 0.0, queries


def check_against_reference(got, want, rtol=1e-9):
    """A guesser's row against a reference's (word, so, queries)."""
    want_word, want_so, want_q = want
    assert got.queries == want_q
    assert got.found == (want_word is not None)
    if got.found:
        assert tuple(got.word) == want_word
    else:
        assert not got.word.any()
    assert np.isclose(got.so, want_so, rtol=rtol, atol=1e-300)


def test_sogrand_matches_reference():
    rng = np.random.default_rng(13)
    for trial in range(150):
        llr = rng.normal(rng.choice([-2, 0, 2]), rng.uniform(0.5, 4), 12)
        mq = int(rng.integers(1, 300))
        got = sogrand_decode(llr, CRC6, max_queries=mq)
        check_against_reference(got, reference_sogrand(llr, CRC6, mq), rtol=1e-12)


def test_sogrand_noiseless_single_query():
    rng = np.random.default_rng(15)
    cw = crc_encode(rng.integers(0, 2, 4).astype(np.uint8), CRC6)
    llr = (2.0 * cw - 1.0) * 6.0
    out = sogrand_decode(llr, CRC6, max_queries=1 << 16)
    assert out.queries == 1 and out.found
    assert np.array_equal(out.word, cw)
    phi0 = np.prod(1 / (1 + np.exp(-np.abs(llr))))
    r_term = (1 - phi0) * (2**4 - 1) / (2**10 - 1)
    assert out.so == pytest.approx(phi0 / (phi0 + r_term), abs=1e-12)


def test_sogrand_exhausted_budget_reports_nothing():
    # a 1-query budget can only test the hard decision; corrupt it so the
    # syndrome is nonzero
    cw = crc_encode(np.array([1, 0, 1, 1], np.uint8), CRC6)
    bad = cw.copy()
    bad[0] ^= 1
    llr = (2.0 * bad - 1.0) * 5.0
    out = sogrand_decode(llr, CRC6, max_queries=1)
    assert not out.found
    assert out.queries == 1
    assert not out.word.any() and out.so == 0.0


def test_sogrand_past_k_1000():
    # 2^K is no float past K = 1023: the R term's counts of unqueried
    # patterns and codewords must be scaled before they are formed
    rng = np.random.default_rng(33)
    cw = crc_encode(rng.integers(0, 2, 1100 - 24).astype(np.uint8), CRC24C)
    llr = (2.0 * cw - 1.0) * 4.0
    llr[517] *= -0.125  # one weak wrong bit, the least reliable
    out = sogrand_decode(llr, CRC24C, max_queries=64)
    assert out.found and out.queries == 2
    assert np.array_equal(out.word, cw)
    # the hard decision and then the weak bit flipped: R charges the mass
    # left with 2^1076 - 1 codewords among 2^1100 - 2 patterns
    log_keep = -(1099 * np.log1p(np.exp(-4.0)) + np.log1p(np.exp(-0.5)))
    phi = np.exp(log_keep - 0.5)
    r_term = (1.0 - np.exp(log_keep) - phi) * 2.0 ** -24
    assert 0.0 < out.so <= 1.0
    assert out.so == pytest.approx(phi / (phi + r_term), rel=1e-9)


def gf2_reduce(m):
    """Row-reduced echelon form over GF(2) and its pivot columns."""
    m = m.copy() % 2
    pivots = []
    for c in range(m.shape[1]):
        rows = np.flatnonzero(m[len(pivots):, c])
        if len(rows) == 0:
            continue
        top = len(pivots)
        m[[top, top + rows[0]]] = m[[top + rows[0], top]]
        others = np.flatnonzero(m[:, c])
        m[others[others != top]] ^= m[top]
        pivots.append(c)
        if len(pivots) == m.shape[0]:
            break
    return m, pivots


def reference_gcd(llr, spec, max_queries):
    # query-at-a-time rerun: split by reliability with GF(2) rank tests on the
    # parity-check matrix, walk the recursive oracle schedule over the
    # guessed part, and solve each query through the inverse of the solved
    # columns; returns the best word (ties to the earlier query), its soft
    # output and the queries
    k = len(llr)
    r = spec.degree
    hard = (llr > 0).astype(np.uint8)
    mag = np.abs(llr)
    order = np.argsort(mag, kind="stable")
    tab = spec.parity_check(k).astype(np.int64)

    solved, guessed = [], []
    for pos in order.tolist():
        if len(solved) < r and len(gf2_reduce(tab[:, solved + [pos]])[1]) > len(solved):
            solved.append(pos)
        else:
            guessed.append(pos)
    eye = np.eye(r, dtype=np.int64)
    inverse = gf2_reduce(np.concatenate([tab[:, solved], eye], axis=1))[0][:, r:]
    log_keep = -np.logaddexp(0, -mag).sum()
    log_keep_s = -np.logaddexp(0, -mag[guessed]).sum()

    scored, phi_sum, psi_sum, queries = [], 0.0, 0.0, 0
    for mask in oracle_schedule(np.arange(len(guessed))):
        if queries >= max_queries:
            break
        queries += 1
        word = hard.copy()
        cost_s = 0.0
        for i in np.flatnonzero(mask):
            word[guessed[i]] ^= 1
            cost_s += mag[guessed[i]]
        lp_s = log_keep_s - cost_s
        lp = log_keep - cost_s
        fix = inverse @ (tab @ word % 2) % 2
        for j in np.flatnonzero(fix):
            word[solved[j]] ^= 1
            lp -= mag[solved[j]]
        assert not crc_syndrome(word, spec).any()
        phi_sum += np.exp(lp)
        psi_sum += np.exp(lp_s)
        scored.append((lp, queries, word))
    lp, _, word = min(scored, key=lambda t: (-t[0], t[1]))
    denom = phi_sum + max(0.0, 1.0 - psi_sum)
    return tuple(word), float(np.exp(lp) / denom), queries


def crc_failing_outer_llrs(count, dims=(64, 48, 24), snr_db=5.0, list_size=4,
                           spec=CRC24C, systematic=False):
    """Outer LLRs of trials whose list holds no CRC passer: the words the
    complete decoder hands to its outer guesser.  The default is [64,48,24]
    L=4 at 5 dB."""
    n, k, m = dims
    code = construct_polar(n, k, systematic=systematic)
    params = ChannelParams(snr_db, m / n)
    seed, trials = 31, 512
    msgs = np.stack([message_rng(seed, t).integers(0, 2, m).astype(np.uint8)
                     for t in range(trials)])
    s = modulate(ca_encode(msgs, code, spec))
    y = np.stack([transmit(s[t], params, seed, t) for t in range(trials)])
    llr = saturate_llr(llr_from_channel(y, params))
    found = ca_select_batch(scl_decode_batch(llr, code, list_size), spec)["found"]
    fails = np.flatnonzero(~found)[:count]
    assert len(fails) == count
    return outer_llr(llr[fails], code)


def test_gcd_matches_reference():
    rng = np.random.default_rng(23)
    for trial in range(100):
        llr = rng.normal(rng.choice([-2, 0, 2]), rng.uniform(0.5, 4), 12)
        mq = int(rng.integers(1, 65))
        got = gcd_decode(llr, CRC6, max_queries=mq)
        check_against_reference(got, reference_gcd(llr, CRC6, mq))
        assert got.found


@pytest.mark.parametrize("chunk", [None, 100])
def test_gcd_matches_reference_on_crc24_outer_llrs(chunk, monkeypatch):
    # the guessed part spans 24 bits here, three schedule planes, and the
    # solve runs through three syndrome bytes; a short slice length makes
    # the budget span several evaluation slices
    if chunk:
        monkeypatch.setattr(outer, "_CHUNK", chunk)
    for llr in crc_failing_outer_llrs(12):
        got = gcd_decode(llr, CRC24C, max_queries=256)
        assert got.queries == 256
        check_against_reference(got, reference_gcd(llr, CRC24C, 256))


def test_gcd_exhaustive_budget_recovers_posterior():
    # one query per guessed-part prefix covers the whole codebook exactly
    # once, so the leftover mass vanishes: the word is the ML codeword and
    # its soft output that word's codebook posterior
    rng = np.random.default_rng(24)
    msgs = np.array(list(itertools.product([0, 1], repeat=4)), dtype=np.uint8)
    cws = crc_encode(msgs, CRC6)
    for _ in range(10):
        llr = rng.normal(0, 2, 10)
        out = gcd_decode(llr, CRC6, max_queries=1 << 4)
        assert out.queries == 16
        p1 = bit_prob(llr)
        lik = np.prod(np.where(cws, p1, 1 - p1), axis=1)
        best = np.argmax(lik)
        assert np.array_equal(out.word, cws[best])
        assert out.so == pytest.approx(lik[best] / lik.sum(), abs=1e-9)


def test_gcd_so_never_exceeds_true_posterior():
    # cutting the budget short must only shrink the quoted confidence
    rng = np.random.default_rng(25)
    msgs = np.array(list(itertools.product([0, 1], repeat=4)), dtype=np.uint8)
    cws = crc_encode(msgs, CRC6)
    for _ in range(100):
        llr = rng.normal(0, 2, 10)
        out = gcd_decode(llr, CRC6, max_queries=int(rng.integers(1, 16)))
        p1 = bit_prob(llr)
        lik = np.prod(np.where(cws, p1, 1 - p1), axis=1)
        post = lik / lik.sum()
        assert not crc_syndrome(out.word, CRC6).any()
        idx = np.flatnonzero((cws == out.word).all(axis=1))[0]
        assert out.so <= post[idx] + 1e-9


def test_gcd_noiseless_single_query():
    rng = np.random.default_rng(26)
    cw = crc_encode(rng.integers(0, 2, 4).astype(np.uint8), CRC6)
    llr = (2.0 * cw - 1.0) * 6.0
    out = gcd_decode(llr, CRC6, max_queries=1)
    assert out.queries == 1 and out.found
    assert np.array_equal(out.word, cw)
    # uniform magnitudes: phi and the guessed-part mass have closed forms
    keep = 1 / (1 + np.exp(-6.0))
    phi0 = keep**10
    r_term = 1 - keep**4
    assert out.so == pytest.approx(phi0 / (phi0 + r_term), abs=1e-12)


def test_gcd_always_completes_to_a_codeword():
    # pattern guessing reports nothing when the budget dies first; codeword
    # guessing turns the very first query into a valid word
    cw = crc_encode(np.array([1, 0, 1, 1], np.uint8), CRC6)
    bad = cw.copy()
    bad[0] ^= 1
    llr = (2.0 * bad - 1.0) * 5.0
    out = gcd_decode(llr, CRC6, max_queries=1)
    assert out.found and out.queries == 1
    assert not crc_syndrome(out.word, CRC6).any()


def test_guessers_at_the_63_check_limit():
    # the largest CRC the packed parity checks hold, at K = 82: every
    # word either guesser reports passes the true syndrome (a degree past
    # the limit is refused when the spec is built, test_crc)
    rng = np.random.default_rng(63)
    spec = CrcSpec((1,) + tuple(int(c) for c in rng.integers(0, 2, 63)))
    words = crc_encode(rng.integers(0, 2, (20, 19)).astype(np.uint8), spec)
    llr = (2.0 * words - 1.0) * 3.0 + rng.normal(0.0, 2.0, words.shape)
    for decode in (sogrand_decode_block, gcd_decode_block):
        res = decode(llr, spec, max_queries=4096)
        assert res["hit"].any()
        assert not crc_syndrome(res["word"][res["hit"]], spec).any()


def test_gcd_validation():
    for bad in (np.zeros((2, 3, 10)), np.zeros(10), np.zeros((1, 6))):
        with pytest.raises(ValueError):
            gcd_decode_block(bad, CRC6)
    with pytest.raises(ValueError):
        gcd_decode_block(np.zeros((1, 10)), CRC6, max_queries=0)


@pytest.mark.parametrize("decode", [gcd_decode, sogrand_decode])
def test_outer_decoders_refuse_nan(decode):
    llr = np.random.default_rng(4).normal(0, 3, 16)
    llr[3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        decode(llr, CRC6)
    llr[3] = np.inf  # infinite reliability is a valid input
    out = decode(llr, CRC6)
    assert out.found and 0.0 < out.so <= 1.0


def same_row(a, b):
    """Equal rows: hit, word, queries and soft output exact."""
    return (a.found == b.found and a.queries == b.queries
            and np.array_equal(a.word, b.word) and a.so == b.so)


def check_columns(cols, n, k):
    """The guessers' column format: exact dtypes and shapes, and word and
    soft output zero where there is no hit."""
    assert cols["hit"].dtype == bool and cols["hit"].shape == (n,)
    assert cols["word"].dtype == np.uint8 and cols["word"].shape == (n, k)
    assert cols["queries"].dtype == np.int64 and cols["queries"].shape == (n,)
    assert not cols["word"][~cols["hit"]].any()
    if "so" in cols:
        assert cols["so"].dtype == np.float64 and cols["so"].shape == (n,)
        assert not cols["so"][~cols["hit"]].any()


@pytest.fixture(scope="module")
def block_cases():
    """(name, spec, outer LLR block) triples the block tests decode."""
    rng = np.random.default_rng(27)
    small = rng.normal(rng.choice([-2.0, 0.0, 2.0], (24, 1)), 2.0, (24, 12))
    small[3, 4], small[5, [0, 7]] = np.inf, (-np.inf, np.inf)  # infinite reliability
    return [
        ("crc6", CRC6, small),
        ("64-48-5dB", CRC24C, crc_failing_outer_llrs(6)),
        ("64-43-3dB", CRC11, crc_failing_outer_llrs(6, (64, 43, 32), 3.0, 8, CRC11)),
        ("64-48-sys", CRC24C, crc_failing_outer_llrs(6, snr_db=4.5, systematic=True)),
    ]


BLOCK_DECODERS = [(gcd_decode_block, gcd_decode, reference_gcd),
                  (sogrand_decode_block, sogrand_decode, reference_sogrand)]


@pytest.mark.parametrize("block, single, reference", BLOCK_DECODERS)
@pytest.mark.parametrize("kwargs", [
    dict(max_queries=2048), dict(max_queries=256),
    dict(max_queries=1),
    # S(k, 9) for k >= 9, the budget of a weight-9 cap: sogrand's rounds of
    # 64 and 128 queries end mid-round
    dict(max_queries=33),
    # sogrand's rounds of 64, 128, 256 and 512 queries, then a short one
    dict(max_queries=600),
    # the whole 2^12 patterns of the CRC6 rows, and 2^6 queries for gcd
    dict(max_queries=4096),
])
def test_block_decoders_match_reference_and_single_rows(block, single, reference,
                                                        kwargs, block_cases):
    # every row of a block decodes exactly as a block of that row alone,
    # soft outputs bit for bit, and as the query-at-a-time reference; an
    # F-ordered block (outer_llr's own output is not C-ordered) gives the
    # same columns; soft=False gives the same columns but ``so``
    for name, spec, lo in block_cases:
        got = block(lo, spec, **kwargs)
        check_columns(got, *lo.shape)
        got_f = block(np.asfortranarray(lo), spec, **kwargs)
        assert all(np.array_equal(got_f[key], got[key]) for key in got), name
        hard = block(lo, spec, soft=False, **kwargs)
        check_columns(hard, *lo.shape)
        assert "so" not in hard and hard.keys() == got.keys() - {"so"}, name
        assert all(np.array_equal(hard[key], got[key]) for key in hard), name
        for t, row in enumerate(lo):
            out = row_of(got, t)
            assert same_row(out, single(row, spec, **kwargs)), (name, t)
            check_against_reference(out, reference(row, spec, kwargs["max_queries"]))


@pytest.mark.parametrize("block, single", [d[:2] for d in BLOCK_DECODERS])
def test_block_of_one_and_of_none(block, single):
    lo = crc_failing_outer_llrs(1, (64, 43, 32), 3.0, 8, CRC11)
    got = block(lo, CRC11)
    check_columns(got, 1, 43)
    assert got["hit"][0]
    assert same_row(row_of(got, 0), single(lo[0], CRC11))
    for soft in (True, False):
        none = block(np.zeros((0, 43)), CRC11, soft=soft)
        check_columns(none, 0, 43)
        assert ("so" in none) == soft


@pytest.mark.parametrize("block", [d[0] for d in BLOCK_DECODERS])
def test_block_decoders_refuse_bad_blocks(block):
    lo = np.random.default_rng(28).normal(0, 3, (5, 16))
    lo[4, 9] = np.nan  # in the last row only
    with pytest.raises(ValueError, match="NaN"):
        block(lo, CRC6)
    for bad in (np.zeros((3, 6)), np.zeros(16), np.zeros((2, 3, 16))):
        with pytest.raises(ValueError):
            block(bad, CRC6)
    with pytest.raises(ValueError):
        block(np.zeros((2, 16)), CRC6, max_queries=0)
    with pytest.raises(TypeError, match="max_queries"):
        block(np.zeros((2, 16)), CRC6, max_queries=100.5)
    # a numpy integer budget is the same budget
    lo = lo[:4]
    want = block(lo, CRC6, max_queries=8)
    got = block(lo, CRC6, max_queries=np.int64(8))
    assert all(np.array_equal(got[key], want[key]) for key in want)


def gcd_decode_in_groups(lo, spec, rows, **kwargs):
    """gcd_decode_block over runs of `rows` rows, the columns joined."""
    parts = [gcd_decode_block(lo[i:i + rows], spec, **kwargs)
             for i in range(0, len(lo), rows)]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


@pytest.mark.parametrize("rows", [1, 3])
def test_gcd_slices_keep_the_first_of_tied_codewords(monkeypatch, rows):
    # equal magnitudes tie many codewords; scored in slices of 4 queries,
    # the best must still be the first in schedule order, as in one pass.
    # Without soft output a head of 1 or 4 queries leaves the rest to the
    # bound, where ties meet the threshold exactly, and ties broken by a few
    # ulps sit just above it: such a query must still be scored.  Decoded
    # `rows` rows at a time, each row's columns are those of the whole block
    llr = 2.0 * np.array([-1, 1, 1, -1, 1, 1, 1, -1, -1, 1, -1, 1.0])
    block = np.stack([llr, -llr, np.roll(llr, 5)])
    whole = gcd_decode_block(block, CRC6, max_queries=64)
    p = llr * (1 + 1e-14 * np.arange(12))
    near = [p, -p, np.roll(p, 5), p[::-1], np.roll(p[::-1], 3)]
    for seed in (26, 29):  # magnitudes 1, 2 or 3, where bound and lp nearly meet
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 1.0], 12)
        near.append(signs * rng.choice([1.0, 2.0, 3.0], 12) * (1 + 1e-14 * rng.permutation(12)))
    near = np.stack(near)
    near_whole = gcd_decode_block(near, CRC6, max_queries=64)
    monkeypatch.setattr(outer, "_CHUNK", 4)
    sliced = gcd_decode_in_groups(block, CRC6, rows, max_queries=64)
    assert np.array_equal(sliced["word"], whole["word"])
    assert np.allclose(sliced["so"], whole["so"], rtol=1e-12, atol=0.0)
    for head in (1, 4):
        monkeypatch.setattr(outer, "_HEAD", head)
        for lo, want in ((block, whole), (near, near_whole)):
            hard = gcd_decode_in_groups(lo, CRC6, rows, max_queries=64, soft=False)
            for key in ("hit", "word", "queries"):
                assert np.array_equal(hard[key], want[key]), (head, key)


@pytest.mark.parametrize("rows", [1, 3])
def test_gcd_passes_keep_every_bit(monkeypatch, block_cases, rows):
    # a pass of one sum block, of two (the default) and of the whole budget
    # add the same floats in the same order; 100,000 queries end on a short
    # block inside the last pass.  Without soft output, where the bound
    # prunes every pass after the head, the word and queries are the same,
    # also when the block is decoded `rows` rows at a time
    for name, spec, lo in block_cases[1:3]:
        for budget in (5000, 1 << 16, 100_000):
            cols, hard = [], []
            for blocks in (1, 2, -(-budget // outer._CHUNK)):
                monkeypatch.setattr(outer, "_PASS_BLOCKS", blocks)
                cols.append(gcd_decode_block(lo, spec, max_queries=budget))
                hard.append(gcd_decode_in_groups(lo, spec, rows, max_queries=budget,
                                                 soft=False))
            for got in cols[1:]:
                for key in ("hit", "word", "so", "queries"):
                    assert got[key].dtype == cols[0][key].dtype, (name, budget, key)
                    assert np.array_equal(got[key], cols[0][key]), (name, budget, key)
            for got in hard:
                assert "so" not in got, (name, budget)
                for key in ("hit", "word", "queries"):
                    assert got[key].dtype == cols[0][key].dtype, (name, budget, key)
                    assert np.array_equal(got[key], cols[0][key]), (name, budget, key)


def test_gcd_memory_stays_bounded_by_the_pass():
    # the scratch a decode allocates grows with the pass, not the budget:
    # with the schedule cached, a 2^20-query decode of two rows peaks at
    # ~1.8 MB, where passes of four blocks would take ~3.5 MB and one
    # whole-budget pass ~88 MB
    lo = crc_failing_outer_llrs(2)
    outer._schedule(lo.shape[1] - CRC24C.degree, 1 << 20)
    tracemalloc.start()
    try:
        gcd_decode_block(lo, CRC24C, max_queries=1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak


def test_gcd_memory_without_soft_output_stays_bounded_by_the_pass():
    # the bound's survivors and the head add scratch of their own; the
    # same 2^20-query decode without soft output stays inside the same bound
    lo = crc_failing_outer_llrs(2)
    outer._schedule(lo.shape[1] - CRC24C.degree, 1 << 20)
    tracemalloc.start()
    try:
        gcd_decode_block(lo, CRC24C, max_queries=1 << 20, soft=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak


@pytest.mark.parametrize("head", [1, 64, 256])
@pytest.mark.parametrize("rows", [1, 3])
def test_gcd_bound_keeps_rows_with_infinite_llrs(monkeypatch, head, rows):
    # an infinite magnitude makes a query's lp, and its bound, -inf.  A row
    # of infinite LLRs that is no codeword scores -inf on every query, so its
    # threshold stays -inf and nothing may be pruned: its word is the first
    # query in schedule order.  Rows with a few infinite LLRs prune by a
    # finite threshold past -inf bounds, whichever rows share their block
    monkeypatch.setattr(outer, "_HEAD", head)
    rng = np.random.default_rng(35)
    block = rng.normal(rng.choice([-2.0, 2.0], (6, 1)), 2.0, (6, 32))
    block[0] = np.where(block[0] > 0, np.inf, -np.inf)
    block[0, :2] = -np.inf, np.inf
    assert crc_syndrome(hard_decision(block[0]), CRC11).any()
    block[1, [3, 9, 20]] = np.inf, -np.inf, np.inf
    block[2, :] = np.inf * np.sign(block[2])
    block[2, 5:12] = rng.normal(0, 1, 7)
    for budget in (100, 5000):
        soft = gcd_decode_block(block, CRC11, max_queries=budget)
        hard = gcd_decode_in_groups(block, CRC11, rows, max_queries=budget, soft=False)
        for key in ("hit", "word", "queries"):
            assert np.array_equal(hard[key], soft[key]), (budget, key)
        for t, row in enumerate(block):
            with np.errstate(invalid="ignore"):  # row 0's soft output reads 0/0
                want_word, _, want_q = reference_gcd(row, CRC11, budget)
            assert tuple(hard["word"][t]) == want_word, (budget, t)


def test_results_never_depend_on_the_schedule_cache(monkeypatch):
    # the cached schedule holds the longest prefix asked for so far; how
    # long that is must not reach any output, at a power-of-two budget or
    # at one that ends mid-round
    rng = np.random.default_rng(34)
    llr = rng.normal(rng.choice([-2.0, 2.0], (8, 1)), 2.5, (8, 32))
    order = np.argsort(np.abs(llr[0]), kind="stable")

    def decode_all():
        outs = []
        for budget in (3000, 777):
            outs.append(gcd_decode_block(llr, CRC11, max_queries=budget))
            outs.append(sogrand_decode_block(llr, CRC11, max_queries=budget))
            outs.append({"masks": orbgrand_schedule(order, budget)})
        return outs

    monkeypatch.setattr(outer, "_schedules", {})
    cold = decode_all()
    for k in (32, 32 - CRC11.degree):
        outer._schedule(k, 1 << 16)
    warm = decode_all()
    for a, b in zip(cold, warm):
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[key], b[key]) for key in a)
