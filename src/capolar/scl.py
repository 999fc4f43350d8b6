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

Path state is shared, not copied (the lazy copy of Tal and Vardy).  Level
s = 1..n of the recursion holds N >> s LLRs and N >> s partial sums per
path, each level in its own array stored flat with one row per (trial,
path) live when the level was last written.  A row map per level sends each
live path to its row; doubling and pruning compose these maps with the
parent index and move no state.  A level is gathered, one take along axis
0, only when an f/g step or a partial-sum push reads it, and a write leaves
it in path order again.  Level 0, the channel, is shared by all paths.
u_hat is not kept per path: each information position logs its kept
candidates (2 * parent + bit, in the smallest unsigned dtype that holds
2L), and the final paths are traced back through that log in pm order.
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
    width = [n_code >> s for s in range(n + 1)]
    log_dtype = np.min_scalar_type(2 * list_size)

    # per-level state and row maps, as described in the module docstring
    chan = np.clip(-llr, -LLR_LIMIT, LLR_LIMIT)[:, None, :]
    llrs, sums = [None] * (n + 1), [None] * (n + 1)
    llr_row, sum_row = [None] * (n + 1), [None] * (n + 1)
    pm = np.zeros((n_trials, 1))
    mass = np.zeros(n_trials)
    base = np.arange(n_trials)[:, None]
    decisions = {}  # info phi -> (trials, paths) kept candidate: 2 * parent + bit
    paths = 1

    def read(store, row, s):
        data = store[s] if row[s] is None else store[s].take(row[s], axis=0)
        return data.reshape(n_trials, paths, width[s])

    for phi in range(n_code):
        lo = 1 if phi == 0 else n - ((phi & -phi).bit_length() - 1)
        for s in range(lo, n + 1):
            m = width[s]
            par = chan if s == 1 else read(llrs, llr_row, s - 1)
            a, b = par[:, :, :m], par[:, :, m:]
            if s == lo and phi != 0:
                lam = (1.0 - 2.0 * read(sums, sum_row, s)) * a + b
            else:
                lam = _boxplus(a, b)
            if s < n:  # level n is read only here, as the decision LLR
                llrs[s] = lam.reshape(-1, m)
                llr_row[s] = None
        lam = lam[:, :, 0]

        if frozen_mask[phi]:
            pm = pm + np.logaddexp(0.0, -lam)
            word = np.zeros((n_trials, paths, 1), dtype=np.uint8)
        else:
            cand = np.empty((n_trials, 2 * paths))
            cand[:, 0::2] = pm + np.logaddexp(0.0, -lam)
            cand[:, 1::2] = pm + np.logaddexp(0.0, lam)
            if 2 * paths <= list_size:
                # keep both children of every path, interleaved so the list
                # stays in lexicographic order of the input sequences
                keep = np.broadcast_to(np.arange(2 * paths), cand.shape)
                pm = cand
            else:
                order = np.argsort(cand, axis=1, kind="stable")
                keep = np.sort(order[:, :list_size], axis=1)
                dropped = np.take_along_axis(cand, order[:, list_size:], axis=1)
                mass += np.exp(-dropped).sum(axis=1) * factors[phi]
                pm = np.take_along_axis(cand, keep, axis=1)
            decisions[phi] = keep.astype(log_dtype)
            parent = (base * paths + (keep >> 1)).ravel()
            for store, row in ((llrs, llr_row), (sums, sum_row)):
                for s in range(1, n + 1):
                    if store[s] is not None:
                        row[s] = parent if row[s] is None else row[s][parent]
            paths = keep.shape[1]
            word = (keep & 1).astype(np.uint8)[:, :, None]

        # push partial sums back up while this subtree is complete
        s, pos = n, phi
        while pos & 1:
            word = np.concatenate([read(sums, sum_row, s) ^ word, word], axis=2)
            s -= 1
            pos >>= 1
        if s > 0:
            sums[s] = word.reshape(-1, width[s])
            sum_row[s] = None

    # trace each final path back through the logged decisions, in pm order
    order = np.argsort(pm, axis=1, kind="stable")
    pm = np.take_along_axis(pm, order, axis=1)
    u_hat = np.zeros((n_trials, paths, n_code), dtype=np.uint8)
    idx = order
    for phi in reversed(decisions):
        kept = np.take_along_axis(decisions[phi], idx, axis=1)
        u_hat[:, :, phi] = kept & 1
        idx = kept >> 1
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
