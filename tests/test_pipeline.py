from dataclasses import replace

import numpy as np
import pytest

from capolar.channel import ChannelParams, llr_from_channel, message_rng, modulate, transmit
from capolar.crc import crc_spec_for
from capolar.pipeline import (
    INNER,
    DecodeResult,
    PipelineConfig,
    apply_threshold,
    cca_scl_decode,
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
    with pytest.raises(ValueError, match="epsilon"):
        PipelineConfig(CODE, SPEC, 4, epsilon=None, retry_on_threshold_fail=True)
    with pytest.raises(ValueError):
        PipelineConfig(CODE, SPEC, 4, epsilon=1.0)
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
    with pytest.raises(ValueError, match="outer_max_weight"):
        PipelineConfig(CODE, SPEC, 4, outer_max_weight=-3)
    assert PipelineConfig(CODE, SPEC, 4, outer_max_weight=0).outer_max_weight == 0
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


def test_noiseless_inner_decision():
    cfg = PipelineConfig(CODE, SPEC, 4)
    msg = message_rng(5, 0).integers(0, 2, 24).astype(np.uint8)
    x = ca_encode(msg, CODE, SPEC)
    res = cca_scl_decode(llr_from_channel(modulate(x).astype(float), PARAMS), cfg)
    assert isinstance(res, DecodeResult)
    assert res.origin == "inner" and not res.erased
    assert np.array_equal(res.message, msg)
    assert res.so > 0.999
    assert res.outer_queries == 0
    assert res.inner_pass_count >= 1


def test_zero_epsilon_always_erases():
    cfg = PipelineConfig(CODE, SPEC, 4, epsilon=0.0)
    msg = message_rng(5, 0).integers(0, 2, 24).astype(np.uint8)
    x = ca_encode(msg, CODE, SPEC)
    res = cca_scl_decode(llr_from_channel(modulate(x).astype(float), PARAMS), cfg)
    assert res.erased
    # the best decision is still emitted alongside the flag
    assert np.array_equal(res.message, msg)


def test_inner_pass_trials_match_plain_ca_scl():
    # each single-word decode must agree with its row of one batched
    # CA-SCL pass over all 300 words
    cfg = PipelineConfig(CODE, SPEC, 4)
    llrs = np.stack([noisy_llr(17, t)[1] for t in range(300)])
    sel = ca_select_batch(scl_decode_batch(llrs, CODE, 4), SPEC)
    for t in range(300):
        res = cca_scl_decode(llrs[t], cfg)
        if not sel["found"][t]:
            assert res.origin in ("outer", "fallback")
            assert res.outer_queries > 0
        else:
            assert res.origin == "inner"
            assert np.array_equal(res.message, sel["message"][t][:24])
            assert res.so == pytest.approx(sel["so"][t])
            assert res.inner_pass_count == sel["pass_count"][t]


def test_every_trial_yields_a_decision():
    # well below the waterfall nothing is reliable, yet the decoder must
    # always emit an M-bit message and a probability
    cfg = PipelineConfig(CODE, SPEC, 4, epsilon=1e-2)
    params = ChannelParams(-2.0, DIMS.rate)
    for t in range(60):
        msg = message_rng(99, t).integers(0, 2, 24).astype(np.uint8)
        y = transmit(modulate(ca_encode(msg, CODE, SPEC)), params, 99, t)
        res = cca_scl_decode(llr_from_channel(y, params), cfg)
        assert res.message.shape == (24,)
        assert 0.0 <= res.so <= 1.0
        assert res.origin in ("inner", "outer", "fallback")


def test_codeword_guessing_outer_never_falls_back():
    # completing every query through the parity equations guarantees a
    # candidate, so CRC failures always resolve to an outer decision
    cfg = PipelineConfig(CODE, SPEC, 4, outer_decoder="gcd",
                         outer_max_queries=1 << 8)
    params = ChannelParams(4.0, DIMS.rate)
    origins = set()
    for t in range(100):
        msg = message_rng(31, t).integers(0, 2, 24).astype(np.uint8)
        y = transmit(modulate(ca_encode(msg, CODE, SPEC)), params, 31, t)
        res = cca_scl_decode(llr_from_channel(y, params), cfg)
        origins.add(res.origin)
        if res.origin == "outer":
            assert res.outer_queries == 1 << 8
    assert origins == {"inner", "outer"}


def test_origin_mix_in_the_waterfall():
    # mid-waterfall some trials clear the inner CRC and some do not, so both
    # kinds of origin must show up
    cfg = PipelineConfig(CODE, SPEC, 4, epsilon=1e-2)
    params = ChannelParams(4.0, DIMS.rate)
    origins = set()
    for t in range(150):
        msg = message_rng(99, t).integers(0, 2, 24).astype(np.uint8)
        y = transmit(modulate(ca_encode(msg, CODE, SPEC)), params, 99, t)
        res = cca_scl_decode(llr_from_channel(y, params), cfg)
        origins.add(res.origin)
    assert "inner" in origins
    assert origins & {"outer", "fallback"}


def test_fallback_when_outer_budget_tiny():
    # 1 query cannot fix a CRC failure unless the hard decision already
    # passes, so fallbacks must appear at low SNR
    cfg = PipelineConfig(CODE, SPEC, 1, outer_max_queries=1)
    params = ChannelParams(-2.0, DIMS.rate)
    seen = set()
    for t in range(60):
        msg, llr = noisy_llr(7, t, params=params)
        res = cca_scl_decode(llr, cfg)
        seen.add(res.origin)
        if res.origin == "fallback":
            assert res.so == 0.0
    assert "fallback" in seen


def test_retry_reaches_outer_decoder():
    # epsilon so tight that every inner decision fails the threshold: with
    # retry enabled the outer decoder must have been consulted on every
    # erased inner trial
    cfg = PipelineConfig(CODE, SPEC, 4, epsilon=1e-9, retry_on_threshold_fail=True)
    plain = PipelineConfig(CODE, SPEC, 4, epsilon=1e-9)
    saw_retry = False
    for t in range(40):
        msg, llr = noisy_llr(29, t)
        res = cca_scl_decode(llr, cfg)
        if res.erased and res.inner_pass_count > 0:
            assert res.outer_queries > 0
            saw_retry = True
        res_plain = cca_scl_decode(llr, plain)
        if res_plain.erased and res_plain.inner_pass_count > 0:
            assert res_plain.outer_queries == 0
    assert saw_retry


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
        retry = replace(cfg, epsilon=epsilon, retry_on_threshold_fail=True)
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
                        replace(cfg, epsilon=0.7, retry_on_threshold_fail=True))
    assert not kept["retried"][0] and kept["alt_so"][0] == 0.0
    assert kept["alt_queries"][0] == 0 and not kept["alt_message"].any()


@pytest.mark.parametrize("outer", ["sogrand", "gcd"])
def test_decide_block_without_soft_outputs(outer, monkeypatch):
    # soft=False drops so and alt_so and leaves every other column as it is,
    # with and without the outer stage; a retry needs the SO, so it is
    # refused before any outer call
    cfg = PipelineConfig(CODE, SPEC, 4, outer_decoder=outer, outer_max_queries=1 << 10,
                         outer_list_size=2)
    llrs = np.stack([noisy_llr(23, t, params=ChannelParams(2.0, DIMS.rate))[1]
                     for t in range(40)])
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
    retry = replace(cfg, epsilon=1e-2, retry_on_threshold_fail=True)
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
    with pytest.raises(ValueError, match="one word"):
        cca_scl_decode(np.stack([llr, llr]), cfg)


def test_nan_llr_is_refused_not_decoded():
    cfg = PipelineConfig(CODE, SPEC, 4)
    _, llr = noisy_llr(3, 0)
    llr[10] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        cca_scl_decode(llr, cfg)

