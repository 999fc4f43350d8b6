from dataclasses import replace

import numpy as np
import pytest

from capolar.channel import ChannelParams, llr_from_channel, message_rng, modulate, transmit
from capolar.crc import crc_spec_for
from capolar.pipeline import (
    FALLBACK,
    INNER,
    OUTER,
    PipelineConfig,
    apply_threshold,
    decide_block,
    threshold_test,
)
from capolar.outer import outer_llr, sogrand_decode_block
from capolar.polar import CodeDims, ca_encode, construct_polar
from capolar.scl import ca_select_batch, scl_decode_batch

DIMS = CodeDims(64, 48, 24)
SPEC = crc_spec_for(24)
CODE = construct_polar(64, 48)
PARAMS = ChannelParams(3.0, DIMS.rate)


def noisy_llr(seed, trial, code=CODE, params=PARAMS, m=24, spec=SPEC):
    msg = message_rng(seed, trial).integers(0, 2, m).astype(np.uint8)
    y = transmit(modulate(ca_encode(msg, code, spec)), params, seed, trial)
    return msg, llr_from_channel(y, params)


def test_config_validation():
    for eps in (1.0, -0.1):
        with pytest.raises(ValueError, match="retry_epsilon"):
            PipelineConfig(CODE, SPEC, 4, retry_epsilon=eps)
    with pytest.raises(ValueError):
        PipelineConfig(CODE, SPEC, 0)
    for size in (2.5, 4.0, "4"):
        with pytest.raises(TypeError, match="list_size must be an integer"):
            PipelineConfig(CODE, SPEC, size)
    assert PipelineConfig(CODE, SPEC, np.int64(4)).list_size == 4
    with pytest.raises(ValueError, match="parity"):
        PipelineConfig(construct_polar(16, 8), crc_spec_for(11), 4)
    with pytest.raises(ValueError):
        PipelineConfig(CODE, SPEC, 4, outer_list_size=0)
    with pytest.raises(ValueError, match="outer"):
        PipelineConfig(CODE, SPEC, 4, outer_decoder="grand")
    with pytest.raises(ValueError, match="outer_max_queries"):
        PipelineConfig(CODE, SPEC, 4, outer_max_queries=0)
    assert PipelineConfig(CODE, SPEC, 4).m_msg == 24


def test_threshold_is_strict():
    assert threshold_test(1.0, 0.5)
    assert not threshold_test(0.99, 0.01)
    # exactly at the boundary: 0.9 > 1 - 0.1 is false
    assert not threshold_test(0.9, 0.1)
    with pytest.raises(ValueError):
        threshold_test(0.5, 1.0)
    # elementwise on arrays, with the same strict boundary
    so = np.array([0.0, 0.9, np.nextafter(0.9, 1.0), 1.0])
    assert threshold_test(so, 0.1).tolist() == [False, False, True, True]
    assert not threshold_test(so, 0.0).any()
    # the rule over decision columns: accept, else take the retry, else erase
    cols = {"so": np.array([0.995, 0.5, 0.5, 0.5, 0.0]),
            "alt_so": np.array([0.999, 0.995, 0.99, 0.0, 0.0])}
    accepted, retry_taken = apply_threshold(cols, 1e-2)
    assert accepted.tolist() == [True, False, False, False, False]
    assert retry_taken.tolist() == [False, True, False, False, False]


def decide(llr, cfg):
    """The complete decoder on a (trials, N) block: SCL, CRC selection and
    ``decide_block``."""
    sel = ca_select_batch(scl_decode_batch(llr, cfg.code, cfg.list_size), cfg.spec)
    return decide_block(sel, llr, cfg)


def noiseless_llr(seed=5):
    msg = message_rng(seed, 0).integers(0, 2, 24).astype(np.uint8)
    return msg, llr_from_channel(modulate(ca_encode(msg, CODE, SPEC)).astype(float), PARAMS)


def noisy_block(seed, trials, snr_db):
    params = ChannelParams(snr_db, DIMS.rate)
    msgs, llrs = zip(*(noisy_llr(seed, t, params=params) for t in range(trials)))
    return np.stack(msgs), np.stack(llrs)


def test_noiseless_inner_decision():
    msg, llr = noiseless_llr()
    cols = decide(llr[None], PipelineConfig(CODE, SPEC, 4))
    assert cols["origin"][0] == INNER and not cols["retried"][0]
    assert np.array_equal(cols["message"][0], msg)
    assert cols["so"][0] > 0.999
    assert cols["queries"][0] == 0 and cols["alt_queries"][0] == 0
    assert cols["pass_count"][0] >= 1


def test_zero_epsilon_always_erases():
    msg, llr = noiseless_llr()
    cols = decide(llr[None], PipelineConfig(CODE, SPEC, 4))
    accepted, retry_taken = apply_threshold(cols, 0.0)
    assert not accepted[0] and not retry_taken[0]
    # the erased decision is still a row of the columns
    assert np.array_equal(cols["message"][0], msg)


def test_inner_pass_trials_match_plain_ca_scl():
    # the decisions of the CRC-passing trials are the rows of one batched
    # CA-SCL pass over all 300 words; the others go to the outer stage
    cfg = PipelineConfig(CODE, SPEC, 4)
    _, llrs = noisy_block(17, 300, 3.0)
    sel = ca_select_batch(scl_decode_batch(llrs, CODE, 4), SPEC)
    cols = decide_block(sel, llrs, cfg)
    found = sel["found"]
    assert found.any() and (~found).any()
    assert np.isin(cols["origin"][~found], (OUTER, FALLBACK)).all()
    assert (cols["queries"][~found] > 0).all()
    assert (cols["origin"][found] == INNER).all() and (cols["queries"][found] == 0).all()
    assert np.array_equal(cols["message"][found], sel["message"][found][:, :24])
    assert np.array_equal(cols["so"][found], sel["so"][found])
    assert np.array_equal(cols["pass_count"], sel["pass_count"])


@pytest.mark.parametrize("outer", ["sogrand", "gcd"])
def test_one_row_decides_as_its_row_of_the_block(outer):
    # a trial's decision does not depend on the block it is decided in:
    # deciding one row alone gives that row of the block, in every column,
    # for CRC failures, retries and plain inner decisions alike
    cfg = PipelineConfig(CODE, SPEC, 4, retry_epsilon=1e-9, outer_decoder=outer,
                         outer_max_queries=1 << 10, outer_list_size=2)
    _, llrs = noisy_block(23, 40, 2.0)
    cols = decide(llrs, cfg)
    assert (~cols["found"]).any() and cols["retried"].any()
    for t in range(len(llrs)):
        row = decide(llrs[t:t + 1], cfg)
        assert row.keys() == cols.keys()
        for key, col in row.items():
            assert col.dtype == cols[key].dtype and np.array_equal(col[0], cols[key][t]), (
                t, key)


def test_every_trial_yields_a_decision():
    # well below the waterfall nothing is reliable, yet the decoder must
    # always emit an M-bit message and a probability
    _, llrs = noisy_block(99, 60, -2.0)
    cols = decide(llrs, PipelineConfig(CODE, SPEC, 4))
    assert cols["message"].shape == (60, 24)
    assert ((cols["so"] >= 0.0) & (cols["so"] <= 1.0)).all()
    assert np.isin(cols["origin"], (INNER, OUTER, FALLBACK)).all()
    accepted, retry_taken = apply_threshold(cols, 1e-2)
    assert accepted.shape == retry_taken.shape == (60,) and not retry_taken.any()


def test_codeword_guessing_outer_never_falls_back():
    # completing every query through the parity equations guarantees a
    # candidate, so CRC failures always resolve to an outer decision
    cfg = PipelineConfig(CODE, SPEC, 4, outer_decoder="gcd", outer_max_queries=1 << 8)
    _, llrs = noisy_block(31, 100, 4.0)
    cols = decide(llrs, cfg)
    assert set(cols["origin"].tolist()) == {INNER, OUTER}
    assert (cols["queries"][cols["origin"] == OUTER] == 1 << 8).all()


def test_origin_mix_in_the_waterfall():
    # mid-waterfall some trials clear the inner CRC and some do not, so both
    # kinds of origin must show up
    _, llrs = noisy_block(99, 150, 4.0)
    origins = set(decide(llrs, PipelineConfig(CODE, SPEC, 4))["origin"].tolist())
    assert INNER in origins
    assert origins & {OUTER, FALLBACK}


def test_fallback_when_outer_budget_tiny():
    # 1 query cannot fix a CRC failure unless the hard decision already
    # passes, so fallbacks must appear at low SNR
    _, llrs = noisy_block(7, 60, -2.0)
    cols = decide(llrs, PipelineConfig(CODE, SPEC, 1, outer_max_queries=1))
    fallback = cols["origin"] == FALLBACK
    assert fallback.any()
    assert (cols["so"][fallback] == 0.0).all()


def test_retry_reaches_outer_decoder():
    # a threshold so tight that every inner decision fails it: with a retry
    # the outer decoder must have been consulted on every inner decision,
    # and without one on none
    _, llrs = noisy_block(29, 40, 3.0)
    cols = decide(llrs, PipelineConfig(CODE, SPEC, 4, retry_epsilon=1e-9))
    found = cols["found"]
    assert found.any()
    assert np.array_equal(cols["retried"], found)
    assert (cols["alt_queries"][found] > 0).all() and (cols["alt_queries"][~found] == 0).all()
    plain = decide(llrs, PipelineConfig(CODE, SPEC, 4))
    assert not plain["retried"].any() and not plain["alt_queries"].any()


def low_so_selection(so):
    """A synthetic one-row ca_select_batch output: an all-zero inner word
    that passed the CRC with soft output ``so``."""
    return {"found": np.array([True]), "pass_count": np.array([1]),
            "message": np.zeros((1, 48), np.uint8), "so": np.array([so]),
            "so_forney": np.array([so])}


def test_retry_keeps_better_decision():
    # a low-confidence inner decision that fails the threshold goes through
    # the outer decoder; the retry fills only the alt columns and replaces
    # the inner word only where the threshold rule takes it
    msg, llr = noisy_llr(31, 0, params=ChannelParams(6.0, DIMS.rate))
    cfg = PipelineConfig(CODE, SPEC, 4)
    out = sogrand_decode_block(outer_llr(llr, CODE)[None], SPEC)
    for epsilon, taken in ((0.5, True), (1e-9, False)):
        retry = replace(cfg, retry_epsilon=epsilon)
        cols = decide_block(low_so_selection(0.4), llr[None], retry)
        assert cols["retried"][0] and cols["origin"][0] == INNER
        assert cols["so"][0] == 0.4 and not cols["message"].any() and cols["queries"][0] == 0
        assert np.array_equal(cols["alt_message"][0], out["candidates"][0, 0, :24])
        assert np.array_equal(cols["alt_message"][0], msg)
        assert (cols["alt_so"][0], cols["alt_queries"][0]) == (out["so"][0, 0],
                                                                out["queries"][0])
        accepted, retry_taken = apply_threshold(cols, epsilon)
        assert (accepted[0], retry_taken[0]) == (False, taken)
    # an inner decision that passes the threshold stands alone
    kept = decide_block(low_so_selection(0.4), llr[None],
                        replace(cfg, retry_epsilon=0.7))
    assert not kept["retried"][0] and kept["alt_so"][0] == 0.0
    assert kept["alt_queries"][0] == 0 and not kept["alt_message"].any()


@pytest.mark.parametrize("outer", ["sogrand", "gcd"])
def test_decide_block_without_soft_outputs(outer, monkeypatch):
    # soft=False drops so and alt_so and leaves every other column as it is,
    # with and without the outer stage; a retry needs the SO, so it is
    # refused before any outer call
    cfg = PipelineConfig(CODE, SPEC, 4, outer_decoder=outer, outer_max_queries=1 << 10,
                         outer_list_size=2)
    _, llrs = noisy_block(23, 40, 2.0)
    sel = ca_select_batch(scl_decode_batch(llrs, CODE, 4), SPEC)
    assert (~sel["found"]).any() and sel["found"].any()
    for llr in (llrs, None):
        full = decide_block(sel, llr, cfg)
        bare = decide_block(sel, llr, cfg, soft=False)
        assert bare.keys() == full.keys() - {"so", "alt_so"}
        for key, col in bare.items():
            assert col.dtype == full[key].dtype and np.array_equal(col, full[key]), key

    def no_outer(*args):
        raise AssertionError("the outer stage ran")

    monkeypatch.setattr("capolar.pipeline.outer_llr", no_outer)
    retry = replace(cfg, retry_epsilon=1e-2)
    with pytest.raises(ValueError, match="soft"):
        decide_block(sel, llrs, retry, soft=False)


def test_decide_block_refuses_mismatched_llrs():
    # the selection's rows and the channel LLRs must be the same trials, N
    # wide: the K outer LLRs, or another block, would decode without complaint
    _, llr = noisy_llr(31, 0)
    cfg = PipelineConfig(CODE, SPEC, 4)
    sel = ca_select_batch(scl_decode_batch(np.stack([llr, llr]), CODE, 4), SPEC)
    for bad in (llr, llr[None], np.stack([llr] * 3), outer_llr(np.stack([llr, llr]), CODE)):
        with pytest.raises(ValueError, match="channel LLRs"):
            decide_block(sel, bad, cfg)


def test_nan_llr_is_refused_not_decoded():
    # in any row of the block, whether its inner decision passed the CRC or not
    cfg = PipelineConfig(CODE, SPEC, 4)
    _, llrs = noisy_block(23, 40, 2.0)
    sel = ca_select_batch(scl_decode_batch(llrs, CODE, 4), SPEC)
    assert sel["found"].any() and (~sel["found"]).any()
    for row in (np.argmax(sel["found"]), np.argmin(sel["found"])):
        bad = llrs.copy()
        bad[row, 10] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            decide_block(sel, bad, cfg)
    with pytest.raises(ValueError, match="NaN"):
        decide(bad, cfg)

