import dataclasses
import itertools
import json
from typing import NamedTuple

import numpy as np
import pytest

import capolar.pipeline
from capolar.channel import (ChannelParams, llr_from_channel, message_rng,
                             modulate, noise_rng, saturate_llr, transmit)
from capolar.outer import gcd_decode_block, hard_decision, outer_llr, sogrand_decode_block
from capolar.pipeline import ORIGINS, apply_threshold
from capolar.polar import CodeDims, ca_encode
from capolar.scl import ca_select_batch, scl_decode_batch
from capolar.sim import (
    BATCH_SIZE,
    CALIBRATION_EDGES,
    ROUND_BATCHES,
    SCHEMA_VERSION,
    SimConfig,
    _calibrate_batch,
    _decide_batch,
    _sweep,
    _table_batch,
    _tally,
    _trial_wave,
    run_bler_sweep,
    run_calibration,
    run_llr_profile,
    run_uer_sweep,
    wilson_interval,
)

DIMS = CodeDims(16, 9, 3)  # CRC-6, small enough for thousands of trials


def small_cfg(tmp_path, **kw):
    base = dict(dims=DIMS, snr_grid_db=(3.0,), list_size=2,
                trials=2048, min_errors=10**6, master_seed=5,
                outer_max_queries=256, out_dir=str(tmp_path))
    base.update(kw)
    return SimConfig(**base)


def small_grid(monkeypatch, batch_size, round_batches):
    """Shrink the sweep grid, so a few trials cross its boundaries; only
    ``_sweep`` reads it, in this process."""
    monkeypatch.setattr("capolar.sim.BATCH_SIZE", batch_size)
    monkeypatch.setattr("capolar.sim.ROUND_BATCHES", round_batches)


def test_wilson_interval_values():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(5, 100)
    assert lo == pytest.approx(0.02154367915436797, rel=1e-12)
    assert hi == pytest.approx(0.11175046923191914, rel=1e-12)
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0
    assert hi == pytest.approx(0.07134759913335871, rel=1e-12)
    full = wilson_interval(50, 50)
    assert full[1] == 1.0 and full[0] > 0.9


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(DIMS, ())
    with pytest.raises(ValueError):
        SimConfig(DIMS, (3.0,), trials=0)
    with pytest.raises(ValueError):
        SimConfig(DIMS, (3.0,), decoder="scl")
    with pytest.raises(ValueError):
        SimConfig(DIMS, (3.0,), outer_decoder="ml")
    with pytest.raises(ValueError):
        SimConfig(DIMS, (3.0,), min_errors=0)
    with pytest.raises(ValueError):
        SimConfig(DIMS, (3.0,), workers=0)
    with pytest.raises(ValueError):
        SimConfig(DIMS, (3.0,), epsilon_grid=(1.0,))
    with pytest.raises(ValueError):
        SimConfig(DIMS, (3.0,), retry_on_threshold_fail=True)
    # every sweep runs one trial grid, the module's BATCH_SIZE and ROUND_BATCHES
    for name in ("batch_size", "round_trials"):
        with pytest.raises(TypeError):
            SimConfig(DIMS, (3.0,), **{name: 64})


@pytest.mark.parametrize("kw, match", [
    ({"dims": CodeDims(16, 9, 4)}, "no default CRC"),  # r = 5 parity bits
])
def test_unbuildable_code_is_refused_at_construction(tmp_path, kw, match):
    # SimConfig builds its decoder settings once, so a code it cannot build
    # is refused before any sweep opens its outputs
    with pytest.raises(ValueError, match=match):
        small_cfg(tmp_path, **kw)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("snr", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_snr_point_is_refused(tmp_path, snr):
    with pytest.raises(ValueError, match="finite"):
        small_cfg(tmp_path, snr_grid_db=(3.0, snr))
    assert not list(tmp_path.iterdir())


def test_missing_out_dir_fails_before_decoding(tmp_path):
    cfg = small_cfg(tmp_path / "nope", trials=10**9)
    with pytest.raises(FileNotFoundError):
        run_bler_sweep(cfg)


def test_interrupted_sweep_keeps_the_earlier_table(tmp_path, monkeypatch):
    # the target is checked for writing before decoding, without emptying
    # it: the earlier run's table stays whole until the new one is written,
    # and a fresh stem is left with no file at all
    (tmp_path / "dir.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        run_bler_sweep(small_cfg(tmp_path, trials=10**9, out_stem="dir"))
    (tmp_path / "keep.csv").write_text("earlier table\n")

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("capolar.sim.scl_decode_batch", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_bler_sweep(small_cfg(tmp_path, out_stem="keep"))
    assert (tmp_path / "keep.csv").read_text() == "earlier table\n"
    with pytest.raises(KeyboardInterrupt):
        run_bler_sweep(small_cfg(tmp_path, out_stem="fresh"))
    assert not list(tmp_path.glob("fresh*"))


def test_bad_pipeline_config_fails_before_any_output(tmp_path):
    with pytest.raises(ValueError, match="list_size"):
        run_bler_sweep(small_cfg(tmp_path, list_size=0, decoder="ca_scl", out_stem="bad"))
    assert not list(tmp_path.iterdir())


def reference_outer(lo, cfg):
    """One trial's outer decision: (message, so, origin, queries)."""
    decode = gcd_decode_block if cfg.outer_decoder == "gcd" else sogrand_decode_block
    out = decode(lo[None], cfg.spec, max_queries=cfg.outer_max_queries)
    queries = int(out["queries"][0])
    if out["hit"][0]:
        return out["word"][0, :cfg.m_msg], out["so"][0], "outer", queries
    return hard_decision(lo)[:cfg.m_msg], 0.0, "fallback", queries


class Decision(NamedTuple):
    message: np.ndarray
    so: float
    origin: str
    erased: bool
    pass_count: int
    queries: int


def reference_resolve(lo, inner, cfg, epsilon=None, retry=False):
    """The complete-decoding rule written out for one trial, one outer call
    at a time.  ``lo`` holds the trial's outer LLRs; ``inner`` is the
    CRC-passing selection as (K-bit window, so, pass count), or None.  With
    an ``epsilon`` a decision that fails its threshold is erased, unless
    ``retry`` lets an inner one be replaced by an outer decision that passes;
    ``queries`` are those of the last outer call."""
    if inner is not None:
        window, so, pass_count = inner
        message, origin, queries = window[:cfg.m_msg], "inner", 0
    else:
        message, so, origin, queries = reference_outer(lo, cfg)
        pass_count = 0
    if epsilon is None or so > 1.0 - epsilon:
        return Decision(message, so, origin, False, pass_count, queries)
    if retry and origin == "inner":
        alt_msg, alt_so, alt_origin, queries = reference_outer(lo, cfg)
        if alt_so > 1.0 - epsilon:
            return Decision(alt_msg, alt_so, alt_origin, False, pass_count, queries)
    return Decision(message, so, origin, True, pass_count, queries)


@pytest.mark.parametrize("outer", ["sogrand", "gcd"])
def test_decide_batch_equals_reference_resolve(tmp_path, outer):
    # the batch decodes its CRC failures and its retries in one outer block
    # and applies one threshold rule afterwards; each trial must come out as
    # the per-trial rule makes it alone, at every threshold of the grid
    eps_grid = (1e-1, 1e-3)
    cfg = small_cfg(tmp_path, outer_decoder=outer,
                    epsilon_grid=eps_grid, retry_on_threshold_fail=True)
    # the batch retries at the strictest threshold of the grid
    assert cfg.pipe.retry_epsilon == 1e-3
    cols = _decide_batch((cfg, 2.0, 300, 200))
    msgs, llr = _trial_wave(cfg, 2.0, range(300, 500))
    sel = ca_select_batch(scl_decode_batch(llr, cfg.pipe.code, 2), cfg.pipe.spec)
    lo = outer_llr(llr, cfg.pipe.code)
    masks = {eps: apply_threshold(cols, eps) for eps in eps_grid}
    retried = erased_retry = 0
    for t in range(200):
        inner = None
        if sel["found"][t]:
            inner = (sel["message"][t], float(sel["so"][t]), int(sel["pass_count"][t]))
        # with no threshold: each decision as it comes
        res = reference_resolve(lo[t], inner, cfg.pipe)
        assert (cols["correct"][t], cols["so"][t], ORIGINS[cols["origin"][t]],
                cols["queries"][t], cols["pass_count"][t]) == (
            np.array_equal(res.message, msgs[t]), res.so, res.origin,
            res.queries, res.pass_count), t
        want_so, want_ok = 0.0, False
        if inner is not None and inner[1] <= 1.0 - min(eps_grid):
            alt = reference_resolve(lo[t], None, cfg.pipe)
            want_so, want_ok = alt.so, np.array_equal(alt.message, msgs[t])
            retried += 1
        assert (cols["alt_so"][t], cols["alt_correct"][t]) == (want_so, want_ok), t
        for eps, (accepted, retry_taken) in masks.items():
            want = reference_resolve(lo[t], inner, cfg.pipe, eps, retry=True)
            got = (False, cols["so"][t], cols["correct"][t])
            if retry_taken[t]:
                got = (False, cols["alt_so"][t], cols["alt_correct"][t])
            elif not accepted[t]:
                got = (True,)
            assert got == ((True,) if want.erased else (
                False, want.so, np.array_equal(want.message, msgs[t]))), (t, eps)
            erased_retry += want.erased and inner is not None and want.queries > 0
    assert retried and (~cols["found"]).any() and cols["alt_correct"].any()
    assert erased_retry


def test_trial_wave_rows_do_not_depend_on_grouping(tmp_path):
    # a trial is a pure function of its index: regenerating any subset in
    # one wave gives the same rows as the contiguous wave it came from
    cfg = small_cfg(tmp_path)
    msgs, llr = _trial_wave(cfg, 2.0, range(0, 40))
    picks = [33, 2, 17, 5]
    sub_msgs, sub_llr = _trial_wave(cfg, 2.0, picks)
    assert np.array_equal(sub_msgs, msgs[picks])
    assert np.array_equal(sub_llr, llr[picks])


def per_trial_wave(cfg, snr_db, trials):
    """_trial_wave written one trial at a time, each with its own streams."""
    params = ChannelParams(snr_db, cfg.dims.rate)
    seed, m = cfg.master_seed, cfg.dims.m_msg
    msgs = np.stack([message_rng(seed, t).integers(0, 2, m).astype(np.uint8)
                     for t in trials])
    s = modulate(ca_encode(msgs, cfg.pipe.code, cfg.pipe.spec))
    y = np.stack([transmit(s[i], params, seed, t) for i, t in enumerate(trials)])
    return msgs, saturate_llr(llr_from_channel(y, params))


@pytest.mark.parametrize("trials", [
    range(0, 40),
    [33, 2, 17, 5, 0],
    [7, 7, 3, 7],
    [2**32, 2**32 + 1, 2**40 + 9, 2**63 + 5, 2**64 - 1, 1],
])
def test_trial_wave_equals_per_trial_streams(tmp_path, trials):
    cfg = small_cfg(tmp_path, dims=CodeDims(64, 43, 32), master_seed=-3)
    msgs, llr = _trial_wave(cfg, 2.0, trials)
    ref_msgs, ref_llr = per_trial_wave(cfg, 2.0, trials)
    assert msgs.dtype == ref_msgs.dtype and llr.dtype == ref_llr.dtype
    assert np.array_equal(msgs, ref_msgs)
    assert np.array_equal(llr, ref_llr)


def test_trial_waves_share_no_stream_state(tmp_path):
    # a draw from another stream between two waves leaves the second alone
    cfg = small_cfg(tmp_path)
    first = _trial_wave(cfg, 2.0, [4, 9, 1])
    again = _trial_wave(cfg, 2.0, [4, 9, 1])
    noise_rng(cfg.master_seed, 9).standard_normal(5)
    message_rng(cfg.master_seed, 4).integers(0, 2, 3)
    after = _trial_wave(cfg, 2.0, [4, 9, 1])
    for a, b, c in zip(first, again, after):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_noiseless_point_is_error_free(tmp_path):
    cfg = small_cfg(tmp_path, snr_grid_db=(25.0,), trials=512)
    (rec,) = run_bler_sweep(cfg)
    assert rec.trials == 512
    assert rec.block_errors == 0 and rec.bler == 0.0
    assert rec.inner_crc_failures == 0 and rec.outer_rescues == 0
    assert rec.mean_outer_queries == 0.0


def test_stop_rule_rounds_off_early(tmp_path, monkeypatch):
    small_grid(monkeypatch, 256, 2)
    cfg = small_cfg(tmp_path, snr_grid_db=(0.0,), trials=100_000, min_errors=20)
    (rec,) = run_bler_sweep(cfg)
    assert rec.block_errors >= 20
    assert rec.trials < 100_000
    assert rec.trials % 512 == 0


def test_worker_count_never_changes_the_csv(tmp_path, monkeypatch):
    small_grid(monkeypatch, 256, 2)
    retry = {"epsilon_grid": (1e-1, 1e-3), "retry_on_threshold_fail": True}
    for sweep, kw in ((run_bler_sweep, {}), (run_calibration, {"decoder": "ca_scl"}),
                      (run_uer_sweep, retry), (run_llr_profile, {})):
        outs = []
        for w in (1, 2):
            stem = f"{sweep.__name__}-{w}"
            sweep(small_cfg(tmp_path, workers=w, out_stem=stem, **kw))
            outs.append((tmp_path / f"{stem}.csv").read_bytes())
        assert outs[0] == outs[1], sweep.__name__


@pytest.mark.parametrize("sweep", [run_calibration, run_llr_profile])
def test_single_point_sweeps_refuse_a_grid_before_any_output(tmp_path, sweep):
    with pytest.raises(ValueError, match="one SNR point"):
        sweep(small_cfg(tmp_path, snr_grid_db=(1.0, 2.0)))
    assert not list(tmp_path.iterdir())


def test_numpy_integer_dims_give_the_plain_csv(tmp_path):
    dims = CodeDims(np.int64(16), np.int64(9), np.int32(3))
    for stem, d in (("plain", DIMS), ("np", dims)):
        run_bler_sweep(small_cfg(tmp_path, dims=d, trials=256, out_stem=stem))
    assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_calibration_never_runs_the_outer_stage(tmp_path, monkeypatch):
    # the bins read the inner soft outputs only, so no outer stage runs,
    # not even for a retry the config asks for
    def no_outer(*args):
        raise AssertionError("calibration ran the outer stage")

    monkeypatch.setattr("capolar.pipeline.outer_llr", no_outer)
    result = run_calibration(small_cfg(tmp_path, snr_grid_db=(1.0,), decoder="ca_scl",
                                       epsilon_grid=(1e-3,), retry_on_threshold_fail=True,
                                       out_stem="ca"))
    assert 0 < sum(b.count for b in result["so"]) < 2048  # CRC failures are not binned
    config = json.loads((tmp_path / "ca.json").read_text())["config"]
    assert config["decoder"] == "ca_scl"


def test_calibration_refuses_the_complete_decoder(tmp_path):
    # a cca_scl table would be the ca_scl one under another name
    with pytest.raises(ValueError, match="ca_scl decoder only"):
        run_calibration(small_cfg(tmp_path, decoder="cca_scl"))
    assert not list(tmp_path.iterdir())


def test_sweep_grid_is_fixed(tmp_path):
    # 20,000 trials: two whole rounds of 16 batches of 512, then a round of
    # 7 whole batches and one of 32 trials
    assert (BATCH_SIZE, ROUND_BATCHES) == (512, 16)
    cfg = small_cfg(tmp_path, snr_grid_db=(2.0,), decoder="ca_scl", trials=20_000)
    batches, rounds = [], []

    def batch(args):
        batches.append(args[2:])
        return np.array([1, args[3]])

    _sweep(cfg, batch, stop=lambda acc: rounds.append(acc.tolist()))
    assert batches == [(s, min(512, 20_000 - s)) for s in range(0, 20_000, 512)]
    assert batches[-1] == (19_968, 32)
    assert rounds == [[16, 8192], [32, 16_384], [40, 20_000]]

    # the calibrate CSV folds those batches of _calibrate_batch in order,
    # at any worker count
    acc = 0
    for start, count in batches:
        acc = acc + _calibrate_batch((cfg, 2.0, start, count))
    lines = ["schema_version,estimator,bin_lower,bin_upper,count,mean_predicted,"
             "errors,empirical_error_rate,err_lo,err_hi"]
    edges = (0.0,) + CALIBRATION_EDGES
    for key, (counts, errors, sums) in zip(("so", "so_forney"), acc):
        for i, (c, e, p) in enumerate(zip(counts.astype(int).tolist(),
                                          errors.astype(int).tolist(), sums.tolist())):
            row = [SCHEMA_VERSION, key, edges[i], edges[i + 1], c,
                   float(p / c) if c else 0.0, e, e / c if c else 0.0,
                   *wilson_interval(e, c)]
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                                  for v in row))
    want = "".join(line + "\r\n" for line in lines).encode()
    for workers in (1, 3):
        run_calibration(dataclasses.replace(cfg, workers=workers, out_stem=f"w{workers}"))
        assert (tmp_path / f"w{workers}.csv").read_bytes() == want, workers


@pytest.mark.parametrize("outer", ["gcd", "sogrand"])
@pytest.mark.parametrize("systematic", [False, True])
def test_bler_asks_the_guessers_for_no_soft_output(tmp_path, monkeypatch, outer,
                                                   systematic):
    # bler reads no SO, so its outer stage computes none; uer reads it.  Each
    # bler batch must tally as the decisions with their SO computed do
    calls = []

    def recording(decode):
        def wrapped(*args, **kwargs):
            calls.append(kwargs.get("soft", True))
            return decode(*args, **kwargs)
        return wrapped

    for name in ("gcd_decode_block", "sogrand_decode_block"):
        monkeypatch.setattr(f"capolar.pipeline.{name}",
                            recording(getattr(capolar.pipeline, name)))
    cfg = small_cfg(tmp_path, outer_decoder=outer, systematic=systematic,
                    snr_grid_db=(1.0,), trials=1024)
    run_bler_sweep(cfg)
    assert calls and set(calls) == {False}
    calls.clear()
    run_uer_sweep(dataclasses.replace(cfg, epsilon_grid=(1e-1, 1e-3),
                                      retry_on_threshold_fail=True))
    assert calls and set(calls) == {True}
    for start in range(0, 1024, 256):
        args = (cfg, 1.0, start, 256)
        cols = _decide_batch(args)
        want = _tally(cols, np.ones(256, dtype=bool), np.zeros(256, dtype=bool))
        assert np.array_equal(_table_batch(args), want[None]), start


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_cfg(tmp_path, out_stem="x")
    run_bler_sweep(cfg)
    first = (tmp_path / "x.csv").read_bytes()
    run_bler_sweep(cfg)
    assert (tmp_path / "x.csv").read_bytes() == first


def test_paired_decoders_share_the_error_budget(tmp_path):
    # same master seed means identical channels, so the complete decoder's
    # errors are the plain decoder's errors minus the outer rescues
    ca = run_bler_sweep(small_cfg(tmp_path, decoder="ca_scl", out_stem="ca"))
    cca = run_bler_sweep(small_cfg(tmp_path, decoder="cca_scl", out_stem="cca"))
    for a, b in zip(ca, cca):
        assert a.inner_crc_failures == b.inner_crc_failures
        assert b.block_errors == a.block_errors - b.outer_rescues
        assert a.undetected_errors + a.erasures == a.block_errors
        assert b.erasures == 0 and b.undetected_errors == b.block_errors


def test_bler_csv_shape(tmp_path):
    cfg = small_cfg(tmp_path, snr_grid_db=(3.0, 25.0), out_stem="shape",
                    emit_plot=True)
    records = run_bler_sweep(cfg)
    raw = (tmp_path / "shape.csv").read_bytes()
    lines = raw.decode().split("\r\n")
    assert raw.count(b"\r\n") == 3 and lines[-1] == ""
    assert lines[0] == ("schema_version,snr_db,trials,block_errors,"
                        "undetected_errors,erasures,inner_crc_failures,"
                        "outer_rescues,mean_outer_queries,bler,bler_lo,bler_hi")
    assert len(lines) == 4  # header + one row per SNR + trailing terminator
    assert lines[1].startswith(f"{SCHEMA_VERSION},3.0,")

    blob = json.loads((tmp_path / "shape.json").read_text())
    assert blob["schema_version"] == SCHEMA_VERSION
    assert blob["kind"] == "bler"
    assert blob["config"]["dims"] == [16, 9, 3]
    assert blob["config"]["master_seed"] == 5
    # the config block is the fields, and only the fields
    assert set(blob["config"]) == {f.name for f in dataclasses.fields(SimConfig)}
    assert len(blob["wall_time"]) == 2
    assert b"wall" not in raw

    dat = ["# snr_db bler bler_lo bler_hi"] + [
        " ".join(repr(float(v)) for v in (r.snr_db, r.bler,
                                          *wilson_interval(r.block_errors, r.trials)))
        for r in records]
    assert (tmp_path / "shape.dat").read_text() == "\n".join(dat) + "\n"


def test_calibration_bins(tmp_path):
    assert len(CALIBRATION_EDGES) == 11
    assert CALIBRATION_EDGES[0] == pytest.approx(1e-5)
    assert CALIBRATION_EDGES[-1] == 1.0
    cfg = small_cfg(tmp_path, snr_grid_db=(25.0,), trials=512, decoder="ca_scl",
                    out_stem="cal", emit_plot=True)
    result = run_calibration(cfg)
    assert set(result) == {"so", "so_forney"}
    for key in result:
        bins = result[key]
        assert len(bins) == len(CALIBRATION_EDGES)
        assert bins[0].lower == 0.0 and bins[-1].upper == 1.0
        assert all(b.upper == pytest.approx(e)
                   for b, e in zip(bins, CALIBRATION_EDGES))
        assert sum(b.count for b in bins) == 512
        # noiseless: every prediction collapses into the underflow bin
        assert bins[0].count == 512 and bins[0].errors == 0
    rows = (tmp_path / "cal.csv").read_bytes().decode().split("\r\n")
    assert len(rows) == 2 + 2 * len(CALIBRATION_EDGES)
    # one gnuplot block per estimator, a "# title" line and its nonempty
    # bins, the blocks separated by a blank-line pair
    blocks = [f"# {key}: mean_predicted empirical_error_rate\n"
              f"{result[key][0].mean_predicted!r} 0.0" for key in ("so", "so_forney")]
    assert (tmp_path / "cal.dat").read_text() == "\n\n\n".join(blocks) + "\n\n"


def test_uer_threshold_algebra(tmp_path):
    eps_grid = (0.0, 1e-3, 1e-1, 0.999999)
    cfg = small_cfg(tmp_path, epsilon_grid=eps_grid, trials=1024, out_stem="u")
    recs = run_uer_sweep(cfg)
    assert len(recs) == len(eps_grid)
    assert [r.epsilon for r in recs] == list(eps_grid)
    for r in recs:
        assert r.trials == 1024  # no early stop on the threshold sweep
        assert r.undetected_errors + r.erasures >= r.block_errors - r.outer_rescues
    zero, *_, loosest = recs
    # epsilon 0 accepts nothing; a near-1 threshold accepts nearly everything
    assert zero.undetected_errors == 0 and zero.erasures == 1024
    assert loosest.erasures == 0
    # one decode feeds every threshold, so the counts are monotone in epsilon
    for a, b in zip(recs, recs[1:]):
        assert a.undetected_errors <= b.undetected_errors
        assert a.erasures >= b.erasures
        assert a.block_errors == b.block_errors
    rows = (tmp_path / "u.csv").read_bytes().decode().split("\r\n")
    assert rows[0].startswith("schema_version,snr_db,epsilon,")
    assert len(rows) == 2 + len(eps_grid)


def test_uer_sidecar_wall_time_per_snr_in_grid_order(tmp_path, monkeypatch):
    # one wall time per SNR point, in grid order, as in the bler sidecar; a
    # fake clock makes the first point the slower one, so a sorted list
    # would show
    eps = (1e-3, 1e-2, 1e-1)
    cfg = small_cfg(tmp_path, snr_grid_db=(3.0, 25.0), epsilon_grid=eps,
                    trials=512, out_stem="w")
    run_uer_sweep(cfg)
    plain = (tmp_path / "w.csv").read_bytes()

    ticks = itertools.count()

    def clock():
        c = next(ticks)
        return c * (10 - c)  # 0, 9, 16, 21: walls 9 then 5

    monkeypatch.setattr("capolar.sim.time.perf_counter", clock)
    recs = run_uer_sweep(cfg)
    monkeypatch.undo()
    blob = json.loads((tmp_path / "w.json").read_text())
    assert blob["wall_time"] == [9, 5]
    assert [(r.snr_db, r.epsilon) for r in recs] == [
        (snr, e) for snr in (3.0, 25.0) for e in eps]
    assert [r.wall_time for r in recs] == [9] * 3 + [5] * 3
    assert (tmp_path / "w.csv").read_bytes() == plain


def test_empty_epsilon_grid_is_refused_before_any_output(tmp_path):
    with pytest.raises(ValueError, match="epsilon grid"):
        small_cfg(tmp_path, epsilon_grid=())
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("field, value", [
    ("trials", 64.0), ("min_errors", 10.0), ("workers", 1.0), ("master_seed", 5.0),
    ("outer_max_queries", 256.0),
])
def test_non_integer_count_is_refused_before_any_output(tmp_path, field, value):
    # SimConfig checks every count it holds before any sweep opens its outputs
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        run_bler_sweep(small_cfg(tmp_path, **{field: value}))
    assert not list(tmp_path.iterdir())


def test_numpy_integer_counts_are_accepted(tmp_path):
    outer = dict(list_size=np.int64(2), outer_max_queries=np.int32(256))
    cfg = small_cfg(tmp_path, trials=np.int64(64), master_seed=np.int64(-5),
                    workers=np.int32(1), out_stem="np", **outer)
    assert type(cfg.trials) is int and type(cfg.workers) is int and cfg.master_seed == -5
    (rec,) = run_bler_sweep(cfg)
    assert rec.trials == 64
    config = json.loads((tmp_path / "np.json").read_text())["config"]
    assert config["trials"] == 64
    for name, value in outer.items():
        assert type(getattr(cfg, name)) is int and type(config[name]) is int
        assert config[name] == value


def test_uer_needs_grid_and_complete_decoder(tmp_path):
    with pytest.raises(ValueError):
        run_uer_sweep(small_cfg(tmp_path))
    with pytest.raises(ValueError):
        run_uer_sweep(small_cfg(tmp_path, decoder="ca_scl",
                                epsilon_grid=(1e-2,)))


def test_uer_retry_only_converts_erasures(tmp_path):
    eps = (1e-2, 1e-1)
    plain = run_uer_sweep(small_cfg(tmp_path, epsilon_grid=eps, trials=512,
                                    out_stem="p"))
    retry = run_uer_sweep(small_cfg(tmp_path, epsilon_grid=eps, trials=512,
                                    retry_on_threshold_fail=True,
                                    out_stem="r"))
    for a, b in zip(plain, retry):
        assert b.erasures <= a.erasures
        assert b.undetected_errors >= a.undetected_errors


@pytest.mark.parametrize("dims, list_size, outer, min_accepted", [
    (CodeDims(64, 43, 32), 8, "sogrand", 0),
    (CodeDims(16, 9, 3), 2, "gcd", 1),  # exact outer posteriors: retries win
])
def test_uer_sweep_equals_the_full_pipeline_per_epsilon(tmp_path, monkeypatch, dims,
                                                        list_size, outer, min_accepted):
    # the sweep decodes once, thresholds afterwards and decodes the retries
    # in their batch's outer block; the counts must equal a complete decode
    # per trial and per epsilon, in one batch or in several
    eps_grid = (1e-1, 1e-2, 1e-3)
    cfg = SimConfig(dims, (3.0,), list_size=list_size, decoder="cca_scl",
                    outer_decoder=outer, epsilon_grid=eps_grid,
                    retry_on_threshold_fail=True, trials=256, master_seed=11,
                    out_dir=str(tmp_path))
    recs = run_uer_sweep(cfg)
    with monkeypatch.context() as patch:
        small_grid(patch, 40, 2)
        small = run_uer_sweep(dataclasses.replace(cfg, out_stem="small"))
    code, spec = cfg.pipe.code, cfg.pipe.spec
    params = ChannelParams(3.0, dims.rate)
    undetected = dict.fromkeys(eps_grid, 0)
    erased = dict.fromkeys(eps_grid, 0)
    consulted = accepted = 0  # retries run, and retries that replaced the inner word
    # per decoder: block errors, undetected errors, erasures, CRC failures,
    # rescues and outer queries of the bler table at the same seed
    bler = {"cca_scl": np.zeros(6, dtype=np.int64), "ca_scl": np.zeros(6, dtype=np.int64)}
    for t in range(cfg.trials):
        msg = message_rng(11, t).integers(0, 2, dims.m_msg).astype(np.uint8)
        y = transmit(modulate(ca_encode(msg, code, spec)), params, 11, t)
        llr = saturate_llr(llr_from_channel(y, params))
        sel = ca_select_batch(scl_decode_batch(llr, code, list_size), spec)
        found = bool(sel["found"][0])
        inner = None
        if found:
            inner = (sel["message"][0], float(sel["so"][0]), int(sel["pass_count"][0]))
        lo = outer_llr(llr[None], code)[0]
        res = reference_resolve(lo, inner, cfg.pipe)
        ok = np.array_equal(res.message, msg)
        ca_ok = found and np.array_equal(sel["message"][0, :dims.m_msg], msg)
        bler["cca_scl"] += [not ok, not ok, 0, not found, ok and not found, res.queries]
        bler["ca_scl"] += [not ca_ok, found and not ca_ok, not found, not found, 0, 0]
        for eps in eps_grid:
            res = reference_resolve(lo, inner, cfg.pipe, eps, retry=True)
            erased[eps] += res.erased
            undetected[eps] += not res.erased and not np.array_equal(res.message, msg)
            retry = res.pass_count > 0 and res.queries > 0
            consulted += retry
            accepted += retry and not res.erased
    assert [(r.undetected_errors, r.erasures) for r in recs] == [
        (undetected[e], erased[e]) for e in eps_grid]
    assert [(r.undetected_errors, r.erasures) for r in small] == [
        (undetected[e], erased[e]) for e in eps_grid]
    assert erased[1e-3] > erased[1e-1] and consulted > 0
    assert accepted >= min_accepted
    for decoder, want in bler.items():
        (rec,) = run_bler_sweep(dataclasses.replace(cfg, decoder=decoder, out_stem=decoder))
        be, ue, er, fails, rescues, queries = want.tolist()
        assert (rec.block_errors, rec.undetected_errors, rec.erasures,
                rec.inner_crc_failures, rec.outer_rescues) == (be, ue, er, fails, rescues)
        assert rec.mean_outer_queries == (queries / fails if fails else 0.0)
        assert rec.trials == cfg.trials and fails > 0


def test_llr_profile_orders_reliability(tmp_path, monkeypatch):
    small_grid(monkeypatch, 64, 2)
    cfg = SimConfig(CodeDims(128, 114, 90), (6.0,), trials=400,
                    list_size=1, master_seed=3,
                    out_dir=str(tmp_path), out_stem="prof", emit_plot=True)
    profile = run_llr_profile(cfg)
    inner, outer = profile["inner"], profile["outer"]
    # the sums add the batches of 64 from trial 0 in order, the last partial
    sums = [np.zeros(128), np.zeros(114)]
    for start in range(0, cfg.trials, 64):
        _, llr = _trial_wave(cfg, 6.0, range(start, min(start + 64, cfg.trials)))
        for acc, v in zip(sums, (llr, outer_llr(llr, cfg.pipe.code))):
            acc += np.sort(np.abs(v), axis=1).sum(axis=0)
    assert np.array_equal(inner, sums[0] / cfg.trials)
    assert np.array_equal(outer, sums[1] / cfg.trials)
    assert inner.shape == (128,) and outer.shape == (114,)
    assert (np.diff(inner) >= 0).all() and (np.diff(outer) >= 0).all()
    # contraction: the sorted outer curve sits below the inner curve
    assert (outer <= inner[:114] + 1e-9).all()
    assert outer.mean() < inner.mean()
    rows = (tmp_path / "prof.csv").read_bytes().decode().split("\r\n")
    assert len(rows) == 2 + 128 + 114
    blob = json.loads((tmp_path / "prof.json").read_text())
    assert (blob["kind"], blob["trials"]) == ("diag_llr", 400)
    assert isinstance(blob["wall_time"], float) and blob["wall_time"] > 0
    # one gnuplot block per series, a "# title" line and one line per rank,
    # the blocks separated by a blank-line pair
    blocks = ["\n".join([f"# {series}: rank mean_abs_llr",
                         *(f"{rank} {float(v)!r}" for rank, v in enumerate(values))])
              for series, values in (("inner", inner), ("outer", outer))]
    assert (tmp_path / "prof.dat").read_text() == "\n\n\n".join(blocks) + "\n\n"


def test_default_stem_names_the_experiment(tmp_path):
    cfg = small_cfg(tmp_path, trials=8, min_errors=1)
    run_bler_sweep(cfg)
    expect = "bler_n16k9m3_nonsys_L2_cca_scl_seed5"
    assert (tmp_path / f"{expect}.csv").exists()
    assert (tmp_path / f"{expect}.json").exists()
