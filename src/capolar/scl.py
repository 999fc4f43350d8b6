"""Successive cancellation list decoding with exact path metrics.

Internally the decoder works with LLRs in the log(P(0)/P(1)) orientation so
the classic f/g recursions apply unchanged; public inputs use the package
convention (positive favours bit 1) and are negated on entry.  The f update
is the exact boxplus, and the path metric accumulates -log P(u_i | y, past),
so q = exp(-pm) is the auxiliary path probability: over all 2^N input
sequences the q values sum to one, which is what makes the blockwise soft
outputs below meaningful.

Every 2L-way prune adds q * 2^(-|frozen positions still ahead|) per discarded
path to the unvisited-mass estimate, the correction term of the list-SO
denominators.  Candidate order is deterministic: ties in pm break toward the
lexicographically smaller input sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LLR_LIMIT
from .crc import CrcSpec, crc_syndrome
from .polar import PolarCode, polar_transform

__all__ = ["BatchSclOutput", "scl_decode_batch", "ca_select_batch"]


@dataclass(frozen=True, eq=False)
class BatchSclOutput:
    """Per-trial lists in ascending-pm order: leading axis is the trial."""

    u_hat: np.ndarray  # (trials, paths, N) uint8
    x_hat: np.ndarray  # (trials, paths, N) uint8
    pm: np.ndarray  # (trials, paths) ascending per trial
    q: np.ndarray  # (trials, paths)
    unvisited_mass: np.ndarray  # (trials,)
    code: PolarCode


def _boxplus(a, b):
    """Exact LLR combine for the XOR of two independent bits (stable form)."""
    return (
        np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
        + np.log1p(np.exp(-np.abs(a + b)))
        - np.log1p(np.exp(-np.abs(a - b)))
    )


def _mass_factors(code: PolarCode) -> np.ndarray:
    """2^(-count of frozen positions strictly after phi), per phi."""
    frozen = np.zeros(code.n_code, dtype=np.int64)
    frozen[code.frozen] = 1
    ahead = frozen[::-1].cumsum()[::-1] - frozen
    return 2.0 ** (-ahead.astype(np.float64))


def scl_decode_batch(llr: np.ndarray, code: PolarCode, list_size: int) -> BatchSclOutput:
    """Decode a (trials, N) block, or one length-N word, of channel LLRs.

    Infinite LLRs are clipped to +-LLR_LIMIT; NaN is refused.
    """
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim == 1:
        llr = llr[None, :]
    if llr.ndim != 2:
        raise ValueError(f"expected a (trials, N) block of LLRs, got shape {llr.shape}")
    if np.isnan(llr).any():
        raise ValueError("channel LLRs contain NaN")
    n_trials, n_code = llr.shape
    if n_code != code.n_code:
        raise ValueError(f"got {n_code} LLRs for a length-{code.n_code} code")
    if list_size < 1:
        raise ValueError("list size must be >= 1")
    n = code.stages
    frozen_mask = np.zeros(n_code, dtype=bool)
    frozen_mask[code.frozen] = True
    factors = _mass_factors(code)

    # Per-path state lives in two packed arrays so that path duplication and
    # pruning are single gathers.  Level s of the recursion holds blocks of
    # N >> s entries; level 0 (the channel) is path-independent and separate.
    width = [n_code >> s for s in range(n + 1)]
    loff = np.concatenate([[0, 0], np.cumsum(width[1:n])]).astype(int)  # loff[s], s>=1
    boff = [0] * (n + 1)
    for s in range(1, n + 1):
        boff[s] = n_code + loff[s]  # bit levels sit after the N u_hat slots

    chan = np.clip(-llr, -LLR_LIMIT, LLR_LIMIT)[:, None, :]
    lpk = np.zeros((n_trials, 1, n_code - 1))
    bpk = np.zeros((n_trials, 1, 2 * n_code - 1), dtype=np.uint8)
    pm = np.zeros((n_trials, 1))
    mass = np.zeros(n_trials)
    rows = np.arange(n_trials)[:, None]
    paths = 1

    for phi in range(n_code):
        if phi == 0:
            lo, hi = 1, n
        else:
            tz = (phi & -phi).bit_length() - 1
            lo, hi = n - tz, n
        for s in range(lo, hi + 1):
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
                # keep both children of every path, interleaved so the list
                # stays in lexicographic order of the input sequences
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

        # push partial sums back up while this subtree is complete
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
    x_hat = polar_transform(u_hat)
    return BatchSclOutput(
        u_hat=u_hat,
        x_hat=x_hat,
        pm=pm,
        q=np.exp(-pm),
        unvisited_mass=mass,
        code=code,
    )


def ca_select_batch(out: BatchSclOutput, spec: CrcSpec) -> dict:
    """CRC filter, selection and both soft outputs over a decoded batch.

    Per trial, the selection is the first CRC-passing candidate in pm
    order.  Its CRC-aware soft output ``so`` is q over (sum of q of the
    passers + 2^-r * unvisited mass): a uniformly distributed unseen path
    survives the r parity checks with probability 2^-r.  ``so_forney``
    normalises over the passers only.  Returns arrays keyed found,
    pass_count, message (K bits, zeros when not found), so, so_forney.
    """
    code = out.code
    words = (out.x_hat if code.systematic else out.u_hat)[:, :, code.info]
    ok = ~crc_syndrome(words, spec).any(axis=2)  # (trials, paths)
    found = ok.any(axis=1)
    pass_count = ok.sum(axis=1)
    # candidates are pm-sorted, so the first passing index is the selection
    sel = np.argmax(ok, axis=1)
    rows = np.arange(len(sel))
    message = words[rows, sel]
    message[~found] = 0
    q_pass = np.where(ok, out.q, 0.0)
    q_sel = out.q[rows, sel]
    denom_f = q_pass.sum(axis=1)
    denom_ca = denom_f + 2.0 ** (-spec.degree) * out.unvisited_mass
    with np.errstate(invalid="ignore", divide="ignore"):
        so = np.where((denom_ca > 0.0) & found, q_sel / denom_ca, 0.0)
        so_f = np.where((denom_f > 0.0) & found, q_sel / denom_f, 0.0)
    return {
        "found": found,
        "pass_count": pass_count,
        "message": message,
        "so": so,
        "so_forney": so_f,
    }
