"""End-to-end acceptance runs for the headline claims.

One test per claim.  Each computes its verdict from a fresh Monte Carlo
run with a frozen master seed, prints a one-line summary (visible with
``-s``; under ``pytest -v`` the test name itself is the pass/fail line),
and then asserts.  Everything here is deterministic: same seeds, same
trial counts, same numbers, every run.

These dominate the suite's runtime; ``pytest -m "not acceptance"`` skips
them.  The randomized >= 10^3-case property tests live in the per-module
files and run either way.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from capolar import oracle
from capolar.analysis import pair_covariance
from capolar.channel import (ChannelParams, llr_from_channel, message_rng,
                             modulate, saturate_llr, transmit)
from capolar.crc import crc_spec_for, crc_syndrome
from capolar.outer import outer_llr
from capolar.polar import CodeDims, ca_encode, construct_polar
from capolar.scl import ca_select_batch, scl_decode_batch
from capolar.selftest import run_selftest
from capolar.sim import (SimConfig, run_bler_sweep, run_calibration,
                         run_uer_sweep, wilson_interval)

pytestmark = pytest.mark.acceptance

# the long sweeps (C4-C6) spread their batches over two processes; records
# and CSVs do not depend on the worker count (C8 checks this)
SWEEP_WORKERS = 2


def _crossing_db(records, target):
    """SNR where the log-linear BLER interpolation hits ``target``."""
    pts = [(r.snr_db, np.log10(r.bler)) for r in records if r.bler > 0]
    want = np.log10(target)
    for (s0, b0), (s1, b1) in itertools.pairwise(pts):
        if b0 >= want >= b1:
            return s0 + (s1 - s0) * (b0 - want) / (b0 - b1)
    raise AssertionError(f"BLER {target} not bracketed by the sweep")


def test_c1_exhaustive_list_matches_brute_force_ml():
    # [16, 8] inner code, CRC6, 2-bit messages: L = 256 visits every path,
    # so CA selection must agree with ML over the 4-word codebook and the
    # blockwise soft output must equal the exhaustive path posterior.
    code = construct_polar(16, 8)
    spec = crc_spec_for(6)
    params = ChannelParams(3.0, rate=2 / 16)
    msgs = np.array(list(itertools.product([0, 1], repeat=2)), dtype=np.uint8)
    book = np.array([ca_encode(m, code, spec) for m in msgs])
    trials, matches, worst = 1000, 0, 0.0
    for t in range(trials):
        m = message_rng(31, t).integers(0, 2, 2).astype(np.uint8)
        y = transmit(modulate(ca_encode(m, code, spec)), params, 31, t)
        llr = saturate_llr(llr_from_channel(y, params))
        out = scl_decode_batch(llr, code, 256)
        assert out.unvisited_mass[0] == 0.0
        sel = ca_select_batch(out, spec)
        # the selection is the first CRC passer in pm order
        passing = ~crc_syndrome(out.u_hat[0][:, code.info], spec).any(axis=1)
        i = int(np.argmax(passing))
        assert sel["found"][0]
        assert np.array_equal(sel["message"][0], out.u_hat[0, i][code.info])
        ml_word, _ = oracle.ml_decode(llr, book)
        matches += np.array_equal(out.x_hat[0, i], ml_word)
        so_list = out.q[0, i] / (out.q[0].sum() + out.unvisited_mass[0])
        worst = max(worst, abs(so_list - oracle.exact_so(out.u_hat[0, i], llr, code)))
    print(f"\ncriterion 1: ML match {matches}/{trials}, "
          f"max |list SO - exact_so| = {worst:.2e}")
    assert matches == trials
    assert worst <= 1e-12


def test_c2_contraction_never_beats_weakest_input():
    # every contracted |LLR| is bounded by the smallest channel |LLR| in
    # its support, across 10^4 noisy [128, 114, 90] trials
    code = construct_polar(128, 114)
    spec = crc_spec_for(24)
    params = ChannelParams(6.0, rate=90 / 128)
    support = np.array([(np.arange(128) & c) == c for c in code.info])
    trials, chunk, worst = 10_000, 500, -np.inf
    for start in range(0, trials, chunk):
        llr = np.empty((chunk, 128))
        for i in range(chunk):
            t = start + i
            m = message_rng(32, t).integers(0, 2, 90).astype(np.uint8)
            y = transmit(modulate(ca_encode(m, code, spec)), params, 32, t)
            llr[i] = saturate_llr(llr_from_channel(y, params))
        bound = np.min(np.where(support[None], np.abs(llr)[:, None, :],
                                np.inf), axis=2)
        worst = max(worst, float((np.abs(outer_llr(llr, code)) - bound).max()))
    print(f"\ncriterion 2: {trials} trials x {len(code.info)} bits, "
          f"max(|outer| - min|inner|) = {worst:.2e}")
    assert worst <= 1e-9


def test_c3_covariance_closed_form_matches_enumeration():
    # closed-form pairwise covariance of the contracted bits vs exhaustive
    # enumeration over the union of the two supports
    rng = np.random.default_rng(33)
    instances, worst = 0, 0.0
    for n in (4, 8, 16):
        code = construct_polar(n, max(2, 3 * n // 4))
        k = len(code.info)
        sup = lambda c: {s for s in range(n) if (s & c) == c}
        for _ in range(334):
            b = rng.uniform(0.0, 1.0, n)
            i, j = (int(v) for v in rng.choice(k, 2, replace=False))
            xi, xj = sup(int(code.info[i])), sup(int(code.info[j]))
            pa = oracle.xor_statistics(xi, b)
            pb = oracle.xor_statistics(xj, b)
            pd = oracle.xor_statistics(xi ^ xj, b)
            want = (pa + pb - pd) / 2 - pa * pb
            worst = max(worst, abs(pair_covariance(i, j, b, code) - want))
            instances += 1
    print(f"\ncriterion 3: {instances} instances, max |err| = {worst:.2e}")
    assert worst <= 1e-12


def test_c4_nonsystematic_gain_at_1e3(tmp_path):
    # [64, 48, 24] L=4 non-systematic: the complete decoder reaches the
    # CRC-stop decoder's 1e-3 BLER at 0.2 +/- 0.1 dB lower SNR, with >= 100
    # block errors per point.  One decode gives both curves: on the same
    # noise a CRC-passing decision is the same word under both decoders, so
    # the CRC-stop decoder's errors are the complete decoder's plus its
    # outer rescues (test_paired_decoders_share_the_error_budget)
    grid = (6.5, 6.75, 7.0, 7.25)
    cfg = SimConfig(dims=CodeDims(64, 48, 24), snr_grid_db=grid,
                    list_size=4, decoder="cca_scl", outer_decoder="gcd",
                    trials=400_000, min_errors=100, master_seed=2030,
                    workers=SWEEP_WORKERS, out_dir=str(tmp_path),
                    out_stem="cca_scl")
    cca = run_bler_sweep(cfg)
    recs = {"cca_scl": cca,
            "ca_scl": [dataclasses.replace(r, block_errors=r.block_errors + r.outer_rescues)
                       for r in cca]}
    fewest = min(r.block_errors for d in recs.values() for r in d)
    rescued = sum(r.outer_rescues for r in recs["cca_scl"])
    failed = sum(r.inner_crc_failures for r in recs["cca_scl"])
    gap = _crossing_db(recs["ca_scl"], 1e-3) - _crossing_db(recs["cca_scl"], 1e-3)
    print(f"\ncriterion 4: gain {gap:.4f} dB at BLER 1e-3 "
          f"(rescued {rescued}/{failed} CRC failures, "
          f"fewest block errors per point {fewest})")
    assert fewest >= 100
    assert 0.1 <= gap <= 0.3


def test_c5_systematic_rescue_and_gain(tmp_path):
    # systematic mapping: near-total rescue for [64, 48, 24] L=16,
    # partial rescue for [64, 31, 20] L=4, and a mean SNR gain at 1e-3
    # BLER across the two configurations inside the 0.2-1 dB band
    def sweep(stem, dims, list_size, grid, decoder, cap):
        cfg = SimConfig(dims=dims, snr_grid_db=grid, systematic=True,
                        list_size=list_size, decoder=decoder,
                        outer_decoder="gcd", outer_max_queries=4096,
                        trials=cap, min_errors=100, master_seed=2024,
                        workers=SWEEP_WORKERS, out_dir=str(tmp_path),
                        out_stem=stem)
        return run_bler_sweep(cfg)

    big = CodeDims(64, 48, 24)
    small = CodeDims(64, 31, 20)
    big_ca = sweep("big_ca", big, 16, (6.25, 6.5), "ca_scl", 300_000)
    big_cca = sweep("big_cca", big, 16, (4.75, 5.0, 5.25), "cca_scl", 300_000)
    small_ca = sweep("small_ca", small, 4, (5.0, 5.25), "ca_scl", 400_000)
    small_cca = sweep("small_cca", small, 4, (5.0, 5.25, 5.5), "cca_scl",
                      400_000)

    big_rescue = min(r.outer_rescues / r.inner_crc_failures for r in big_cca)
    tail = small_cca[-1]
    small_rescue = tail.outer_rescues / tail.inner_crc_failures
    gains = (_crossing_db(big_ca, 1e-3) - _crossing_db(big_cca, 1e-3),
             _crossing_db(small_ca, 1e-3) - _crossing_db(small_cca, 1e-3))
    mean_gain = sum(gains) / 2
    print(f"\ncriterion 5: [64,48,24] L=16 rescue >= {big_rescue:.3f} "
          f"per point, gain {gains[0]:.3f} dB; [64,31,20] L=4 rescue "
          f"{tail.outer_rescues}/{tail.inner_crc_failures} = "
          f"{small_rescue:.3f} at {tail.snr_db} dB, gain {gains[1]:.3f} dB; "
          f"mean gain {mean_gain:.3f} dB")
    assert big_rescue >= 0.90
    assert 0.25 <= small_rescue <= 0.55
    assert 0.2 <= mean_gain <= 1.0


def test_c6_soft_output_calibration(tmp_path):
    # [64, 43, 32] L=8 at 2 dB, 1e6 trials: every blockwise-SO bin with
    # >= 100 samples at predicted error >= 1e-3 is within a factor of 2;
    # the list-only baseline is visibly miscalibrated
    cfg = SimConfig(dims=CodeDims(64, 43, 32), snr_grid_db=(2.0,),
                    list_size=8, decoder="ca_scl", trials=1_000_000,
                    master_seed=606, workers=SWEEP_WORKERS,
                    out_dir=str(tmp_path), out_stem="calib")
    result = run_calibration(cfg)

    ratios = [b.empirical_error_rate / b.mean_predicted
              for b in result["so"]
              if b.count >= 100 and b.lower >= 1e-3 - 1e-12]
    off = [b for b in result["so_forney"]
           if b.count >= 100 and not (0.5 * b.mean_predicted
                                      <= b.empirical_error_rate
                                      <= 2.0 * b.mean_predicted)]
    print(f"\ncriterion 6: {len(ratios)} qualifying bins, "
          f"empirical/predicted in [{min(ratios):.2f}, {max(ratios):.2f}]; "
          f"baseline bins out of factor 2: {len(off)}")
    assert len(ratios) >= 3
    assert 0.5 <= min(ratios) and max(ratios) <= 2.0
    assert off, "list-only baseline unexpectedly calibrated"


def test_c7_uer_stays_under_threshold(tmp_path):
    # [64, 43, 32] L=8 at 5 dB: the 95% Wilson upper bound on the
    # undetected-error rate sits at or below every epsilon target
    eps = tuple(10.0 ** e for e in (-1.0, -1.5, -2.0, -2.5, -3.0))
    lines = []
    for systematic in (False, True):
        cfg = SimConfig(dims=CodeDims(64, 43, 32), snr_grid_db=(5.0,),
                        systematic=systematic, list_size=8, decoder="cca_scl",
                        outer_decoder="sogrand", epsilon_grid=eps,
                        trials=20_000, master_seed=707,
                        out_dir=str(tmp_path),
                        out_stem=f"uer_{'sys' if systematic else 'nonsys'}")
        for r in run_uer_sweep(cfg):
            hi = wilson_interval(r.undetected_errors, r.trials)[1]
            tag = "sys" if systematic else "nonsys"
            lines.append((tag, r.epsilon, r.undetected_errors, r.trials, hi))
    worst = max(hi / e for _, e, _, _, hi in lines)
    print(f"\ncriterion 7: {len(lines)} (variant, eps) points, "
          f"max wilson_hi/eps = {worst:.3f}")
    for tag, e, undetected, trials, hi in lines:
        assert hi <= e, (tag, e, undetected, trials, hi)


def test_c8_worker_count_invariance(tmp_path):
    # same master seed, different process counts: byte-identical CSV
    blobs = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        cfg = SimConfig(dims=CodeDims(64, 43, 32), snr_grid_db=(3.0, 4.0),
                        list_size=2, decoder="cca_scl", outer_max_queries=256,
                        trials=4096, min_errors=50, master_seed=808,
                        workers=workers, out_dir=str(out), out_stem="sweep")
        run_bler_sweep(cfg)
        blobs.append((out / "sweep.csv").read_bytes())
    print(f"\ncriterion 8: workers 1 vs 3, {len(blobs[0])} CSV bytes, "
          f"identical = {blobs[0] == blobs[1]}")
    assert blobs[0] == blobs[1]


def test_c9_selftest_exits_clean(capsys):
    rc = run_selftest()
    captured = capsys.readouterr().out
    print(f"\ncriterion 9: selftest rc = {rc}, "
          f"{captured.count('PASS')} checks reported PASS")
    assert rc == 0
