"""Fast cross-checks of the production modules against brute-force references.

Each check prints one PASS/FAIL line; any failure makes the suite exit
nonzero.  The checks mirror the heavyweight test suite at reduced trial
counts so a clean build can be validated from the CLI in well under a
minute.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import oracle
from .channel import ChannelParams, llr_from_channel, message_rng, modulate, transmit
from .crc import CRC6, CRC11, CRC24C, crc_encode, crc_syndrome
from .analysis import pair_covariance
from .outer import gcd_decode_block, orbgrand_schedule, outer_llr, sogrand_decode_block
from .pipeline import INNER, decide_block
from .polar import (CodeDims, ca_encode, construct_polar, encode_systematic,
                    polar_transform)
from .scl import ca_select_batch, scl_decode_batch
from .sim import SimConfig, _trial_wave

__all__ = ["run_selftest", "CHECKS"]


def _check_crc_longdivision():
    rng = np.random.default_rng(1)
    n = 0
    for spec in (CRC6, CRC11, CRC24C):
        r = spec.degree
        for _ in range(400):
            m = rng.integers(0, 2, int(rng.integers(1, 40))).astype(np.uint8)
            if not np.array_equal(crc_encode(m, spec)[-r:],
                                  oracle.crc_longdivision(list(m) + [0] * r, spec.poly)):
                return False, "parity mismatch"
            w = rng.integers(0, 2, int(rng.integers(r, 60))).astype(np.uint8)
            if not np.array_equal(crc_syndrome(w, spec),
                                  oracle.crc_longdivision(w, spec.poly)):
                return False, "syndrome mismatch"
            n += 2
    return True, f"{n} cases, 3 generators"


def _check_transform_vs_kron():
    rng = np.random.default_rng(2)
    n_cases = 0
    for n in (2, 4, 8, 16, 32, 64):
        g = np.array([[1]], dtype=np.uint8)
        while g.shape[0] < n:
            g = np.kron(g, np.array([[1, 0], [1, 1]], dtype=np.uint8))
        u = rng.integers(0, 2, (200, n)).astype(np.uint8)
        if not np.array_equal(polar_transform(u), (u @ g) % 2):
            return False, f"butterfly != Kronecker at n={n}"
        if not np.array_equal(polar_transform(polar_transform(u)), u):
            return False, f"not an involution at n={n}"
        n_cases += 200
    return True, f"{n_cases} words, n up to 64"


def _check_systematic_window():
    rng = np.random.default_rng(3)
    # N = 2048 is past the 5G sequence, so it checks the Bhattacharyya order
    for n, k in ((16, 8), (64, 31), (64, 43), (64, 48), (128, 114), (2048, 88)):
        code = construct_polar(n, k, systematic=True)
        phi = rng.integers(0, 2, (50, k)).astype(np.uint8)
        x = encode_systematic(phi, code)
        if not np.array_equal(x[:, code.info], phi):
            return False, f"window lost at [{n},{k}]"
        if polar_transform(x)[:, code.frozen].any():
            return False, f"not in codebook at [{n},{k}]"
    return True, "300 words, 6 dims, N up to 2048"


def _wave(dims: CodeDims, snr_db: float, seed: int, trials: int) -> np.ndarray:
    """Decoder-input LLRs of trials 0..trials-1, generated as a sweep does
    (5G construction, default CRC for the parity length)."""
    return _trial_wave(SimConfig(dims, (snr_db,), master_seed=seed), snr_db,
                       range(trials))[1]


def _check_scl_exhaustive_ml():
    code = construct_polar(16, 8)
    spec = CRC6
    msgs2 = np.array(list(itertools.product([0, 1], repeat=2)), dtype=np.uint8)
    valid_x = np.stack([ca_encode(m, code, spec) for m in msgs2])
    trials = 100
    llr = _wave(CodeDims(16, 8, 2), 3.0, 42, trials)
    out = scl_decode_batch(llr, code, 256)
    if out.unvisited_mass.any():
        return False, "mass not zero with exhaustive list"
    sel = ca_select_batch(out, spec)
    if not sel["found"].all():
        return False, "exhaustive list missed the CRC-valid paths"
    worst = 0.0
    # list-based posterior of the top path: q over all q plus unvisited mass
    so_top = out.q[:, 0] / (out.q.sum(axis=1) + out.unvisited_mass)
    for t in range(trials):
        # first CRC passer in path-metric order must be the restricted ML word
        ok = ~crc_syndrome(out.u_hat[t][:, code.info], spec).any(axis=1)
        ml_word, _ = oracle.ml_decode(llr[t], valid_x)
        if not np.array_equal(out.x_hat[t, int(np.argmax(ok))], ml_word):
            return False, f"trial {t}: selection != restricted ML"
        exact = oracle.exact_so(out.u_hat[t, 0], llr[t], code)
        worst = max(worst, abs(so_top[t] - exact))
    if worst > 1e-12:
        return False, f"top-path SO vs exact_so err {worst:.2e}"
    return True, f"{trials} trials, max SO err {worst:.1e}"


def _check_scl_q_consistency():
    code = construct_polar(64, 43)
    trials = 200
    out = scl_decode_batch(_wave(CodeDims(64, 43, 32), 2.0, 7, trials), code, 8)
    if not np.allclose(out.q, np.exp(-out.pm)):
        return False, "q != exp(-pm)"
    if (np.diff(out.pm, axis=1) < -1e-12).any():
        return False, "path metrics out of order"
    total = out.q.sum(axis=1) + out.unvisited_mass
    if (total > 1.0 + 1e-9).any():
        return False, f"mass bound violated: {total.max()}"
    return True, f"{trials} trials, max total mass {total.max():.6f}"


def _check_contraction_bound():
    code = construct_polar(128, 114)
    params = ChannelParams(6.0, 90 / 128)
    supports = [np.array([s for s in range(128) if (s & int(c)) == int(c)])
                for c in code.info]
    seed, trials = 12, 300
    for t in range(trials):
        msg = message_rng(seed, t).integers(0, 2, 90).astype(np.uint8)
        y = transmit(modulate(ca_encode(msg, code, CRC24C)), params, seed, t)
        llr = llr_from_channel(y, params)
        lo = outer_llr(llr, code)
        bound = np.array([np.abs(llr[sup]).min() for sup in supports])
        if (np.abs(lo) > bound + 1e-9).any():
            return False, f"trial {t}: |outer| exceeds min |inner|"
    return True, f"{trials} trials x 114 bits"


def _check_covariance_closed_form():
    rng = np.random.default_rng(5)
    code = construct_polar(8, 5)
    sup = lambda c: {s for s in range(8) if (s & c) == c}
    worst = 0.0
    for _ in range(300):
        b = rng.uniform(0, 1, 8)
        i, j = rng.choice(5, 2, replace=False)
        xi, xj = sup(int(code.info[i])), sup(int(code.info[j]))
        pa = oracle.xor_statistics(xi, b)
        pb = oracle.xor_statistics(xj, b)
        pd = oracle.xor_statistics(xi ^ xj, b)
        ref = (pa + pb - pd) / 2 - pa * pb
        worst = max(worst, abs(ref - pair_covariance(int(i), int(j), b, code)))
    if worst > 1e-12:
        return False, f"covariance err {worst:.2e}"
    return True, f"300 instances, max err {worst:.1e}"


def _check_orbgrand_order():
    rng = np.random.default_rng(6)
    k = 8
    mag = rng.uniform(0.1, 5.0, k)
    order = np.argsort(mag, kind="stable")
    rank_of = np.empty(k, dtype=int)
    rank_of[order] = np.arange(1, k + 1)

    def key(mask):
        ranks = tuple(sorted(rank_of[np.flatnonzero(mask)]))
        return sum(ranks), ranks

    every = sorted(itertools.product([0, 1], repeat=k),
                   key=lambda m: key(np.array(m)))
    got = [tuple(m) for m in orbgrand_schedule(order, 100)]
    if got != [tuple(m) for m in every[:100]]:
        return False, "first 100 patterns disagree with exhaustive sort"
    return True, "first 100 of 2^8 patterns in logistic-weight order"


def _check_sogrand_coset():
    # at the full budget the word is the first codeword of the exhaustive
    # ORBGRAND walk over all 2^12 patterns, by weight and then rank tuple,
    # and its soft output phi / (phi + R) charges R with the pattern mass
    # left after the patterns queried up to it
    rng = np.random.default_rng(8)
    k, spec = 12, CRC6
    patterns = list(itertools.product([0, 1], repeat=k))
    worst = 0.0
    for trial in range(50):
        llr = rng.normal(0.5, 2.0, k)
        out = sogrand_decode_block(llr[None], spec, max_queries=1 << k)
        hard, mag = (llr > 0).astype(np.uint8), np.abs(llr)
        rank_of = np.empty(k, dtype=int)
        rank_of[np.argsort(mag, kind="stable")] = np.arange(1, k + 1)

        def key(mask):
            ranks = tuple(sorted(r for r, bit in zip(rank_of.tolist(), mask) if bit))
            return sum(ranks), ranks

        log_keep = -np.logaddexp(0.0, -mag).sum()
        mass = 0.0
        for used, mask in enumerate(sorted(patterns, key=key), 1):
            mask = np.array(mask, dtype=np.uint8)
            lp = log_keep - mag[mask == 1].sum()
            mass += np.exp(lp)
            if not crc_syndrome(hard ^ mask, spec).any():
                break
        if (not out["hit"][0] or out["queries"][0] != used
                or not np.array_equal(out["word"][0], hard ^ mask)):
            return False, f"trial {trial}: word != first codeword of the walk"
        phi = np.exp(lp)
        r_term = max(0.0, 1.0 - mass) * (2.0 ** (k - spec.degree) - 1) / (2.0 ** k - used)
        worst = max(worst, abs(out["so"][0] * (phi + r_term) / phi - 1.0))
    if worst > 1e-9:
        return False, f"SO rel err {worst:.2e}"
    return True, f"50 trials, word = first codeword of the walk, max SO rel err {worst:.1e}"


def _check_gcd_posterior():
    # at the full budget every guessed-part prefix is queried once, so every
    # codeword is scored: the word is the ML word and its soft output that
    # word's exact posterior
    rng = np.random.default_rng(9)
    k, spec = 10, CRC6
    msgs = np.array(list(itertools.product([0, 1], repeat=k - 6)), dtype=np.uint8)
    book = crc_encode(msgs, spec)
    worst = 0.0
    for trial in range(50):
        llr = rng.normal(0.0, 2.0, k)
        out = gcd_decode_block(llr[None], spec, max_queries=len(book))
        if out["queries"][0] != len(book):
            return False, f"trial {trial}: codebook not covered"
        ml_word, post = oracle.ml_decode(llr, book)
        if not np.array_equal(out["word"][0], ml_word):
            return False, f"trial {trial}: word != ML"
        worst = max(worst, abs(out["so"][0] - post))
    if worst > 1e-9:
        return False, f"posterior err {worst:.2e}"
    return True, f"50 trials, full codebook, word = ML, max SO err {worst:.1e}"


def _check_pipeline_totality():
    # 60 noisy trials and, as one more row of the block, the last one's
    # codeword sent without noise
    cfg = SimConfig(CodeDims(64, 48, 24), (0.0,), list_size=4, master_seed=13)
    code, spec = cfg.pipe.code, cfg.pipe.spec
    msgs, llr = _trial_wave(cfg, 0.0, range(60))
    clean = llr_from_channel(modulate(ca_encode(msgs[-1], code, spec)),
                             ChannelParams(0.0, cfg.dims.rate))
    llr = np.vstack([llr, clean])
    sel = ca_select_batch(scl_decode_batch(llr, code, cfg.list_size), spec)
    cols = decide_block(sel, llr, cfg.pipe)
    if cols["message"].shape != (61, 24) or not (
            (cols["so"] >= 0.0) & (cols["so"] <= 1.0 + 1e-12)).all():
        return False, "malformed decisions"
    if cols["origin"][-1] != INNER or not np.array_equal(cols["message"][-1], msgs[-1]):
        return False, "noiseless decode failed"
    return True, "60 noisy + 1 noiseless trials in one block, decision always emitted"


CHECKS = [
    ("crc vs long division", _check_crc_longdivision),
    ("transform vs Kronecker generator", _check_transform_vs_kron),
    ("systematic window property", _check_systematic_window),
    ("exhaustive SCL = restricted ML, SO exact", _check_scl_exhaustive_ml),
    ("path metric / q consistency", _check_scl_q_consistency),
    ("outer LLR magnitude contraction", _check_contraction_bound),
    ("pair covariance closed form", _check_covariance_closed_form),
    ("guess schedule ordering", _check_orbgrand_order),
    ("pattern guessing first codeword", _check_sogrand_coset),
    ("codeword guessing exact posterior", _check_gcd_posterior),
    ("pipeline totality", _check_pipeline_totality),
]


def run_selftest() -> int:
    """Run all checks, print one line per check, return a process exit code."""
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"exception: {exc!r}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name}: {detail}")
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1
