import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capolar.channel import (LLR_LIMIT, ChannelParams, llr_from_channel,
                             message_rng, modulate, transmit)
from capolar.crc import CRC6, CRC11, CRC24C, crc_spec_for, crc_syndrome
from capolar.polar import (ca_encode, construct_polar, encode_nonsystematic,
                           polar_transform)
from capolar.scl import (_add_dropped, _boxplus, _log_mass_factors, _penalty,
                         ca_select_batch, scl_decode_batch)


def llr_arrays(n):
    return st.lists(
        st.floats(min_value=-12.0, max_value=12.0, allow_nan=False),
        min_size=n,
        max_size=n,
    ).map(lambda v: np.array(v, dtype=np.float64))


def reference_scl(llr, code, list_size):
    """Full-copy SCL: every path carries its whole state in two packed arrays.

    Each doubling repeats and each prune gathers all of it, u_hat included.
    An all-frozen subtree is one step that adds the u = 0 penalties of its
    LLRs.  Same arithmetic, prune and tie-breaking as scl_decode_batch, so
    the two must agree bit for bit.  Returns (u_hat, x_hat, pm, log_mass).
    """
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    n_trials, n_code = llr.shape
    n = code.stages
    frozen_mask = np.zeros(n_code, dtype=bool)
    frozen_mask[code.frozen] = True
    log_factors = _log_mass_factors(code)
    width = [n_code >> s for s in range(n + 1)]
    loff = np.concatenate([[0, 0], np.cumsum(width[1:n])]).astype(int)
    boff = [0] + [n_code + loff[s] for s in range(1, n + 1)]
    chan = np.clip(-llr, -LLR_LIMIT, LLR_LIMIT)[:, None, :]
    lpk = np.zeros((n_trials, 1, n_code - 1))
    bpk = np.zeros((n_trials, 1, 2 * n_code - 1), dtype=np.uint8)
    pm = np.zeros((n_trials, 1))
    log_mass = np.full(n_trials, -np.inf)
    rows = np.arange(n_trials)[:, None]
    paths = 1
    phi = 0
    while phi < n_code:
        # the node: a leaf, or the largest all-frozen subtree starting at phi
        level = n
        while (frozen_mask[phi] and level > 1 and phi % width[level - 1] == 0
               and frozen_mask[phi:phi + width[level - 1]].all()):
            level -= 1
        lo = 1 if phi == 0 else n - ((phi & -phi).bit_length() - 1)
        for s in range(lo, level + 1):
            m = width[s]
            par = chan if s == 1 else lpk[:, :, loff[s - 1]:loff[s - 1] + width[s - 1]]
            a, b = par[:, :, :m], par[:, :, m:]
            if s == lo and phi != 0:
                sign = 1.0 - 2.0 * bpk[:, :, boff[s]:boff[s] + m]
                lpk[:, :, loff[s]:loff[s] + m] = sign * a + b
            else:
                lpk[:, :, loff[s]:loff[s] + m] = _boxplus(a, b)
        m = width[level]
        lam = lpk[:, :, loff[level]:loff[level] + m]
        if frozen_mask[phi]:
            # summed over the node in the decoder's layout and order
            pen0 = np.ascontiguousarray(np.moveaxis(_penalty(lam)[0], 2, 0))
            pm = pm + pen0.sum(axis=0)
            word = np.zeros((n_trials, paths, m), dtype=np.uint8)
        else:
            pm0, pm1 = (pm + pen for pen in _penalty(lam[:, :, 0]))
            if 2 * paths <= list_size:
                lpk = np.repeat(lpk, 2, axis=1)
                bpk = np.repeat(bpk, 2, axis=1)
                bpk[:, 1::2, phi] = 1
                pm = np.empty((n_trials, 2 * paths))
                pm[:, 0::2] = pm0
                pm[:, 1::2] = pm1
                paths *= 2
            else:
                cand = np.empty((n_trials, 2 * paths))
                cand[:, 0::2] = pm0
                cand[:, 1::2] = pm1
                order = np.argsort(cand, axis=1, kind="stable")
                keep = np.sort(order[:, :list_size], axis=1)
                dropped = np.take_along_axis(cand, order[:, list_size:], axis=1)
                log_mass = _add_dropped(log_mass, dropped, log_factors[phi])
                parent = keep >> 1
                lpk = lpk[rows, parent]
                bpk = bpk[rows, parent]
                bpk[:, :, phi] = keep & 1
                pm = np.take_along_axis(cand, keep, axis=1)
                paths = list_size
            word = bpk[:, :, phi:phi + 1]
        # the node's codeword, pushed up while its subtree is complete
        s, pos = level, phi // m
        while pos & 1:
            left = bpk[:, :, boff[s]:boff[s] + width[s]]
            word = np.concatenate([left ^ word, word], axis=2)
            s -= 1
            pos >>= 1
        if s > 0:
            bpk[:, :, boff[s]:boff[s] + width[s]] = word
        phi += m
    order = np.argsort(pm, axis=1, kind="stable")
    pm = np.take_along_axis(pm, order, axis=1)
    u_hat = bpk[rows, order, :n_code].copy()
    return u_hat, polar_transform(u_hat), pm, log_mass


def leafwise_reference_scl(llr, code, list_size):
    """Full-copy SCL with a step per leaf, logaddexp penalties and a linear mass.

    Every frozen leaf pays logaddexp(0, -lam) on its own, and each prune
    adds exp(-pm) 2^-(frozen positions ahead) per dropped path.  The same
    decoder in other arithmetic: the list must match scl_decode_batch, the
    metrics and the mass agree to rounding.  Returns (u_hat, x_hat, pm, q,
    unvisited_mass).
    """
    llr = np.atleast_2d(np.asarray(llr, dtype=np.float64))
    n_trials, n_code = llr.shape
    n = code.stages
    frozen_mask = np.zeros(n_code, dtype=bool)
    frozen_mask[code.frozen] = True
    frozen_ahead = np.cumsum(frozen_mask[::-1])[::-1] - frozen_mask
    factors = 2.0 ** -frozen_ahead.astype(np.float64)
    width = [n_code >> s for s in range(n + 1)]
    loff = np.concatenate([[0, 0], np.cumsum(width[1:n])]).astype(int)
    boff = [0] + [n_code + loff[s] for s in range(1, n + 1)]
    chan = np.clip(-llr, -LLR_LIMIT, LLR_LIMIT)[:, None, :]
    lpk = np.zeros((n_trials, 1, n_code - 1))
    bpk = np.zeros((n_trials, 1, 2 * n_code - 1), dtype=np.uint8)
    pm = np.zeros((n_trials, 1))
    mass = np.zeros(n_trials)
    rows = np.arange(n_trials)[:, None]
    paths = 1
    for phi in range(n_code):
        lo = 1 if phi == 0 else n - ((phi & -phi).bit_length() - 1)
        for s in range(lo, n + 1):
            m = width[s]
            par = chan if s == 1 else lpk[:, :, loff[s - 1]:loff[s - 1] + width[s - 1]]
            a, b = par[:, :, :m], par[:, :, m:]
            if s == lo and phi != 0:
                sign = 1.0 - 2.0 * bpk[:, :, boff[s]:boff[s] + m]
                lpk[:, :, loff[s]:loff[s] + m] = sign * a + b
            else:
                lpk[:, :, loff[s]:loff[s] + m] = _boxplus(a, b)
        lam = lpk[:, :, loff[n]]
        if frozen_mask[phi]:
            pm = pm + np.logaddexp(0.0, -lam)
        else:
            pm0 = pm + np.logaddexp(0.0, -lam)
            pm1 = pm + np.logaddexp(0.0, lam)
            if 2 * paths <= list_size:
                lpk = np.repeat(lpk, 2, axis=1)
                bpk = np.repeat(bpk, 2, axis=1)
                bpk[:, 1::2, phi] = 1
                pm = np.empty((n_trials, 2 * paths))
                pm[:, 0::2] = pm0
                pm[:, 1::2] = pm1
                paths *= 2
            else:
                cand = np.empty((n_trials, 2 * paths))
                cand[:, 0::2] = pm0
                cand[:, 1::2] = pm1
                order = np.argsort(cand, axis=1, kind="stable")
                keep = np.sort(order[:, :list_size], axis=1)
                dropped = np.take_along_axis(cand, order[:, list_size:], axis=1)
                mass += np.exp(-dropped).sum(axis=1) * factors[phi]
                parent = keep >> 1
                lpk = lpk[rows, parent]
                bpk = bpk[rows, parent]
                bpk[:, :, phi] = keep & 1
                pm = np.take_along_axis(cand, keep, axis=1)
                paths = list_size
        word = bpk[:, :, phi][:, :, None]
        s, pos = n, phi
        while pos & 1:
            left = bpk[:, :, boff[s]:boff[s] + width[s]]
            word = np.concatenate([left ^ word, word], axis=2)
            s -= 1
            pos >>= 1
        if s > 0:
            bpk[:, :, boff[s]:boff[s] + width[s]] = word
    order = np.argsort(pm, axis=1, kind="stable")
    pm = np.take_along_axis(pm, order, axis=1)
    u_hat = bpk[rows, order, :n_code].copy()
    return u_hat, polar_transform(u_hat), pm, np.exp(-pm), mass


def noisy_llr(code, ebno_db, rows, seed):
    """Channel LLRs of random codewords of the code at the given Eb/N0."""
    rng = np.random.default_rng(seed)
    u = np.zeros((rows, code.n_code), dtype=np.uint8)
    u[:, code.info] = rng.integers(0, 2, (rows, code.k_crc))
    p = ChannelParams(ebno_db, code.k_crc / code.n_code)
    y = modulate(polar_transform(u)) + p.sigma * rng.standard_normal(u.shape)
    return llr_from_channel(y, p)


def log_path_probability(x_hat, llr):
    # q must equal the product of per-bit posteriors P(x_i | y_i); positive
    # LLR favours 1, so the aligned sign is (2x - 1)
    s = 2.0 * x_hat.astype(np.float64) - 1.0
    return -np.logaddexp(0.0, -s * llr).sum()


def reference_select(out, t, spec):
    """Per-trial CRC selection, written out one candidate at a time.

    Returns None when no candidate passes, else (index, K-bit window, so,
    so_forney): the passer of least pm (first in list order on ties), q over
    (sum of q of the passers + 2^-r * unvisited mass), and q over the sum of
    q of the passers.
    """
    code = out.code
    words = out.x_hat[t] if code.systematic else out.u_hat[t]
    passing = [i for i in range(out.pm.shape[1])
               if not crc_syndrome(words[i][code.info], spec).any()]
    if not passing:
        return None
    best = min(passing, key=lambda i: out.pm[t, i])
    pool = sum(float(out.q[t, i]) for i in passing)
    q = float(out.q[t, best])
    so = q / (pool + 2.0 ** -spec.degree * float(out.unvisited_mass[t]))
    return best, words[best][code.info], so, q / pool


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(llr=llr_arrays(16))
def test_pm_q_consistency(llr):
    code = construct_polar(16, 9)
    out = scl_decode_batch(llr, code, 4)
    pms = list(out.pm[0])
    assert pms == sorted(pms)
    for pm, q, x_hat in zip(out.pm[0], out.q[0], out.x_hat[0]):
        assert q == pytest.approx(np.exp(-pm), rel=1e-12, abs=1e-300)
        assert -pm == pytest.approx(log_path_probability(x_hat, llr), rel=1e-9, abs=1e-9)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(llr=llr_arrays(16), list_exp=st.integers(0, 6))
def test_mass_bound(llr, list_exp):
    code = construct_polar(16, 6)
    out = scl_decode_batch(llr, code, 1 << list_exp)
    total = out.q[0].sum()
    mass = out.unvisited_mass[0]
    assert mass >= 0.0
    assert total + mass <= 1.0 + 1e-9
    if list_exp >= 6:
        # list covers the whole input tree: nothing is left unvisited and the
        # candidate masses add up to the likelihood of the entire codebook
        assert mass == 0.0
        assert out.q.shape == (1, 64)
        msgs = np.array(list(itertools.product([0, 1], repeat=6)), dtype=np.uint8)
        codebook_mass = sum(
            np.exp(log_path_probability(encode_nonsystematic(m, code), llr))
            for m in msgs)
        assert total == pytest.approx(codebook_mass, rel=1e-9)


def test_candidates_are_codewords():
    code = construct_polar(32, 20)
    rng = np.random.default_rng(2)
    for _ in range(25):
        out = scl_decode_batch(rng.normal(0, 3, 32), code, 8)
        seen = set()
        for u_hat, x_hat in zip(out.u_hat[0], out.x_hat[0]):
            assert np.array_equal(polar_transform(u_hat), x_hat)
            assert not u_hat[code.frozen].any()
            seen.add(u_hat.tobytes())
        assert len(seen) == out.u_hat.shape[1]


def test_noiseless_decode_recovers_codeword():
    code = construct_polar(64, 43)
    rng = np.random.default_rng(4)
    phi = rng.integers(0, 2, 43).astype(np.uint8)
    u = np.zeros(64, np.uint8)
    u[code.info] = phi
    x = polar_transform(u)
    p = ChannelParams(4.0, 0.5)
    out = scl_decode_batch(llr_from_channel(modulate(x).astype(float), p), code, 8)
    assert np.array_equal(out.x_hat[0, 0], x)
    assert np.array_equal(out.u_hat[0, 0][code.info], phi)


def test_message_window_systematic_reads_codeword():
    # the CRC word of a systematic code sits in the codeword itself, so the
    # selection must read x_hat at the information positions, not u_hat
    code = construct_polar(64, 43, systematic=True)
    msg = message_rng(6, 0).integers(0, 2, 32).astype(np.uint8)
    x = ca_encode(msg, code, CRC11)
    p = ChannelParams(4.0, 32 / 64)
    clean = scl_decode_batch(llr_from_channel(modulate(x), p), code, 4)
    res = ca_select_batch(clean, CRC11)
    assert res["found"][0]
    assert np.array_equal(res["message"][0], x[code.info])
    assert not np.array_equal(clean.u_hat[0, 0][code.info], x[code.info])
    rng = np.random.default_rng(6)
    out = scl_decode_batch(rng.normal(0, 2, (30, 64)), code, 4)
    res = ca_select_batch(out, CRC11)
    for t in range(30):
        ref = reference_select(out, t, CRC11)
        if ref is not None:
            assert np.array_equal(res["message"][t], out.x_hat[t, ref[0]][code.info])


def test_single_and_batch_decoders_agree():
    code = construct_polar(32, 20)
    rng = np.random.default_rng(8)
    llr = rng.normal(0, 2.5, (40, 32))
    batch = scl_decode_batch(llr, code, 8)
    for t in range(40):
        single = scl_decode_batch(llr[t], code, 8)
        assert np.allclose(single.pm[0], batch.pm[t], rtol=1e-12)
        assert single.unvisited_mass[0] == pytest.approx(batch.unvisited_mass[t], rel=1e-12)
        assert np.array_equal(single.u_hat[0], batch.u_hat[t])
        assert np.array_equal(single.x_hat[0], batch.x_hat[t])


def test_soft_output_definitions():
    code = construct_polar(16, 10)
    spec = CRC6
    rng = np.random.default_rng(10)
    out = scl_decode_batch(rng.normal(0, 2, (60, 16)), code, 8)
    res = ca_select_batch(out, spec)
    passing = ~crc_syndrome(out.u_hat[:, :, code.info], spec).any(axis=2)
    assert np.array_equal(res["found"], passing.any(axis=1))
    assert np.array_equal(res["pass_count"], passing.sum(axis=1))
    assert 0 < res["found"].sum() < 60
    for t in range(60):
        if not passing[t].any():
            assert res["so"][t] == 0.0 and res["so_forney"][t] == 0.0
            continue
        qs = out.q[t]
        sel = int(np.flatnonzero(passing[t])[0])
        pool = qs[passing[t]].sum()
        want = qs[sel] / (pool + 2.0 ** -spec.degree * out.unvisited_mass[t])
        assert res["so"][t] == pytest.approx(want)
        assert res["so_forney"][t] == pytest.approx(qs[sel] / pool)


def test_ca_select_returns_first_passing_path():
    code = construct_polar(16, 10)
    spec = CRC6
    p = ChannelParams(2.0, 4 / 16)
    hits = 0
    for t in range(200):
        msg = message_rng(21, t).integers(0, 2, 4).astype(np.uint8)
        x = ca_encode(msg, code, spec)
        llr = llr_from_channel(transmit(modulate(x), p, 21, t), p)
        out = scl_decode_batch(llr, code, 8)
        res = ca_select_batch(out, spec)
        passing = [
            i for i in range(out.pm.shape[1])
            if not crc_syndrome(out.u_hat[0, i][code.info], spec).any()
        ]
        if not res["found"][0]:
            assert not passing
            continue
        hits += 1
        assert np.array_equal(res["message"][0], out.u_hat[0, passing[0]][code.info])
        assert res["so"][0] == pytest.approx(reference_select(out, 0, spec)[2])
    assert hits > 100


def test_ca_select_batch_matches_scalar_path():
    # random LLRs on [16, 10] L8, and noisy codewords of [64, 48, 24] L16
    # systematic and [256, 152, 128] L8, both CRC24C at a noise level where
    # about half the trials find a passer
    rng = np.random.default_rng(31)
    cases = [(construct_polar(16, 10), CRC6, 8, rng.normal(0.5, 2.0, (60, 16)))]
    for n, k, m, list_size, systematic in ((64, 48, 24, 16, True), (256, 152, 128, 8, False)):
        code = construct_polar(n, k, systematic=systematic)
        x = ca_encode(rng.integers(0, 2, (60, m)).astype(np.uint8), code, CRC24C)
        llr = 2.0 / 0.8**2 * (2.0 * x - 1.0 + rng.normal(0.0, 0.8, x.shape))
        cases.append((code, CRC24C, list_size, llr))
    for code, spec, list_size, llr in cases:
        batch = scl_decode_batch(llr, code, list_size)
        res = ca_select_batch(batch, spec)
        assert 0 < res["found"].sum() < 60
        for t in range(60):
            ref = reference_select(batch, t, spec)
            if ref is None:
                assert not res["found"][t]
                assert res["pass_count"][t] == 0
                assert not res["message"][t].any()
            else:
                _, window, so, so_forney = ref
                assert res["found"][t]
                assert np.array_equal(res["message"][t], window)
                assert res["so"][t] == pytest.approx(so, rel=1e-12)
                # the Forney variant normalises over the CRC passers only
                assert res["so_forney"][t] == pytest.approx(so_forney, rel=1e-12)


def test_decode_rejects_wrong_length():
    code = construct_polar(16, 9)
    with pytest.raises(ValueError):
        scl_decode_batch(np.zeros(8), code, 4)
    with pytest.raises(ValueError):
        scl_decode_batch(np.zeros((3, 8)), code, 4)


def test_decode_rejects_nan_and_clips_infinity():
    code = construct_polar(16, 9)
    llr = np.random.default_rng(12).normal(0, 2, (3, 16))
    llr[1, 5] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        scl_decode_batch(llr, code, 4)
    llr[1, 5] = np.inf
    clipped = llr.copy()
    clipped[1, 5] = LLR_LIMIT
    out, ref = scl_decode_batch(llr, code, 4), scl_decode_batch(clipped, code, 4)
    assert np.array_equal(out.pm, ref.pm)
    assert np.array_equal(out.u_hat, ref.u_hat)


def test_decode_rejects_stacked_blocks():
    code = construct_polar(16, 9)
    with pytest.raises(ValueError, match=r"\(trials, N\)"):
        scl_decode_batch(np.zeros((2, 3, 16)), code, 4)


def test_decode_rejects_non_integral_list_size():
    code = construct_polar(16, 9)
    llr = np.random.default_rng(14).normal(0, 2, (3, 16))
    for size in (2.5, 4.0):
        with pytest.raises(TypeError, match="list_size must be an integer"):
            scl_decode_batch(llr, code, size)
    with pytest.raises(ValueError, match="list_size"):
        scl_decode_batch(llr, code, 0)
    out, ref = scl_decode_batch(llr, code, np.int64(4)), scl_decode_batch(llr, code, 4)
    assert np.array_equal(out.pm, ref.pm)


def test_shared_penalty_equals_both_logaddexp_lines():
    # the decoder's one penalty helper pays max(-+lam, 0) + log1p(e^-|lam|)
    # for the two decisions: that form bit for bit, and logaddexp(0, -+lam)
    # to rounding.  The two take exp and log1p from different libraries,
    # each within an ulp, and where log1p(e) lands a binade below e, an ulp
    # of e is two of the result: 3 ulp occurs (about 1 lam in 10^6), 4 bounds it
    rng = np.random.default_rng(15)
    tiny = np.finfo(np.float64).tiny
    lam = np.concatenate([
        rng.normal(0, 4, 200_000),
        rng.normal(0, 400, 20_000),
        [0.0, -0.0, 1.0, -1.0, 40.0, -40.0, 745.0, -745.0, 800.0, -800.0],
        np.clip([np.inf, -np.inf], -LLR_LIMIT, LLR_LIMIT) * 2.0 ** np.arange(11)[:, None],
        tiny * rng.uniform(-1, 1, 1000),  # subnormal
        [5e-324, -5e-324, tiny, -tiny],
    ], axis=None)
    soft = np.log1p(np.exp(-np.abs(lam)))
    for side, pen in zip((-lam, lam), _penalty(lam)):
        assert np.array_equal(pen.view(np.uint64),
                              (np.maximum(side, 0.0) + soft).view(np.uint64))
        want = np.logaddexp(0.0, side)
        assert (np.abs(pen - want) <= 4 * np.spacing(want)).all()


def _signs(rows, n, seed):
    return np.random.default_rng(seed).choice([-1.0, 1.0], (rows, n))


EXACT_CASES = {
    "64-43-L8": ((64, 43, False), 8, lambda c: noisy_llr(c, 2.0, 200, 1)),
    "64-48-L4": ((64, 48, False), 4, lambda c: noisy_llr(c, 3.0, 200, 2)),
    "64-48-L16-sys": ((64, 48, True), 16, lambda c: noisy_llr(c, 3.0, 200, 3)),
    "128-114-L8": ((128, 114, False), 8, lambda c: noisy_llr(c, 5.0, 100, 4)),
    "256-128-L4": ((256, 128, False), 4, lambda c: noisy_llr(c, 2.0, 40, 5)),
    "64-43-L1": ((64, 43, False), 1, lambda c: noisy_llr(c, 2.0, 200, 6)),
    "64-43-L3": ((64, 43, False), 3, lambda c: noisy_llr(c, 2.0, 200, 7)),
    "32-20-L3": ((32, 20, False), 3, lambda c: noisy_llr(c, 1.0, 200, 8)),
    "zeros-L8": ((64, 43, False), 8, lambda c: np.zeros((20, 64))),
    "zeros-L3-sys": ((64, 48, True), 3, lambda c: np.zeros((20, 64))),
    "inf-L8": ((64, 43, False), 8, lambda c: np.inf * _signs(30, 64, 9)),
    "40-L8": ((64, 43, False), 8, lambda c: 40.0 * _signs(30, 64, 10)),
    "mixed-inf-L4": ((64, 48, False), 4,
                     lambda c: np.where(_signs(30, 64, 11) > 0, np.inf, 1.0)
                     * noisy_llr(c, 2.0, 30, 12)),
    "one-row-L8": ((64, 43, False), 8, lambda c: noisy_llr(c, 2.0, 1, 13)),
    "600-rows-L8": ((64, 43, False), 8, lambda c: noisy_llr(c, 2.0, 600, 14)),
    # noisy rows never tie across the prune boundary, all-zero and +-40 rows
    # do, so each prune of this block takes both the sorted and the stable path
    "tie-and-noisy-rows-L8": ((64, 43, False), 8, lambda c: np.concatenate(
        [noisy_llr(c, 2.0, 40, 15), np.zeros((10, 64)), 40.0 * _signs(10, 64, 16),
         noisy_llr(c, 2.0, 40, 17)])),
    "64-43-L16": ((64, 43, False), 16, lambda c: noisy_llr(c, 2.0, 200, 18)),
    "1024-35-L8": ((1024, 35, False), 8, lambda c: noisy_llr(c, 1.0, 6, 19)),
    # levels one element wide per path: short codes, no frozen bit, one row
    "4-2-L4": ((4, 2, False), 4, lambda c: noisy_llr(c, 1.0, 50, 20)),
    "8-8-L2": ((8, 8, False), 2, lambda c: noisy_llr(c, 2.0, 50, 21)),
    "2-1-L2": ((2, 1, False), 2, lambda c: noisy_llr(c, 1.0, 50, 22)),
    "1024-35-one-row-L8": ((1024, 35, False), 8, lambda c: noisy_llr(c, 1.0, 1, 23)),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_decoder_matches_full_copy_reference(case):
    (n, k, systematic), list_size, make = EXACT_CASES[case]
    code = construct_polar(n, k, systematic=systematic)
    llr = make(code)
    out = scl_decode_batch(llr, code, list_size)
    u_hat, x_hat, pm, log_mass = reference_scl(llr, code, list_size)
    assert out.u_hat.shape == (len(llr), min(list_size, 2**k), n)
    assert np.array_equal(out.u_hat, u_hat)
    assert np.array_equal(out.x_hat, x_hat)
    assert np.array_equal(out.pm, pm)
    assert np.array_equal(out.log_mass, log_mass)


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_decoder_agrees_with_leafwise_reference(case):
    # a step per frozen leaf, logaddexp penalties and a linear mass decide
    # the same list; metrics and mass move only by rounding.  The mass is
    # compared by its log, a sum on the scale of pm: at [1024, 35] it is
    # ~e^-670, where a 1e-12 relative change of pm moves it by ~1e-12 * 670
    (n, k, systematic), list_size, make = EXACT_CASES[case]
    code = construct_polar(n, k, systematic=systematic)
    llr = make(code)
    out = scl_decode_batch(llr, code, list_size)
    _, x_hat, pm, _, mass = leafwise_reference_scl(llr, code, list_size)
    assert np.array_equal(out.x_hat, x_hat)
    np.testing.assert_allclose(out.pm, pm, rtol=1e-12, atol=0.0)
    with np.errstate(divide="ignore"):  # a mass of 0 compares as log -inf
        np.testing.assert_allclose(out.log_mass, np.log(mass), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, k, m, list_size", [
    (2048, 88, 64, 4),  # past the 5G sequence: the Bhattacharyya order
    (1024, 35, 24, 8),
])
def test_soft_outputs_survive_long_codes(n, k, m, list_size):
    # pm of a correct path passes ~708 here, where exp(-pm) is zero: the
    # soft outputs of correct decodes must still be positive
    code, spec = construct_polar(n, k), crc_spec_for(k - m)
    rng = np.random.default_rng(n + k)
    msg = rng.integers(0, 2, (64, m)).astype(np.uint8)
    x = ca_encode(msg, code, spec)
    p = ChannelParams(1.0, m / n)
    llr = llr_from_channel(modulate(x) + p.sigma * rng.standard_normal(x.shape), p)
    res = ca_select_batch(scl_decode_batch(llr, code, list_size), spec)
    correct = res["found"] & (res["message"][:, :m] == msg).all(axis=1)
    assert correct.sum() >= 10
    for key in ("so", "so_forney"):
        assert ((res[key][correct] > 0.0) & (res[key][correct] <= 1.0)).all()
