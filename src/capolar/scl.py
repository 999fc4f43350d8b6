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

Both children of a path share one penalty evaluation: the child that
follows the decision LLR pays logaddexp(0, -|lam|), the other |lam| more,
which is what logaddexp(0, -+lam) returns bit for bit.  A prune sorts the
candidate values and keeps those at or below the L-th; only rows where the
L-th and (L+1)-th values tie are re-sorted stably, because only there can
the order of equal values change which candidates survive.  The dropped
mass is summed from the sorted values, which is the same sequence either
way.

Path state is shared, not copied (the lazy copy of Tal and Vardy).  Level
s = 1..n of the recursion holds N >> s LLRs and N >> s partial sums per
path, each level in its own array stored width-major: shape (N >> s,
columns), one column per (trial, path) live when the level was last
written.  The f/g halves of a level are then two contiguous blocks, so each
step runs one long loop rather than one short loop per path.  A row map per
level sends each live path to its column; a prune composes the live maps
with the parent index, once per distinct map, and moves no state.  A level
is gathered, one take along axis 1, only when an f/g step or a partial-sum
push reads it, and a write leaves it in path order again; a level is
dropped after its last read.  Level 0, the channel, is shared by all
paths.  A partial-sum push stacks the two halves along axis 0, and the last
one reaches level 0, where it holds every path's codeword: that is x_hat,
transposed.  Nothing else is kept per path: no log of decisions exists, and
u_hat is read off x_hat as x_hat F, which is exact because x_hat = u_hat F
and F is its own inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import LLR_LIMIT
from .crc import CrcSpec, _packed_syndrome
from .polar import PolarCode, _checked_int, polar_transform

__all__ = ["BatchSclOutput", "scl_decode_batch", "ca_select_batch"]


@dataclass(frozen=True, eq=False)
class BatchSclOutput:
    """Per-trial lists in ascending-pm order: leading axis is the trial."""

    x_hat: np.ndarray  # (trials, paths, N) uint8
    pm: np.ndarray  # (trials, paths) ascending per trial
    q: np.ndarray  # (trials, paths)
    unvisited_mass: np.ndarray  # (trials,)
    code: PolarCode

    @cached_property
    def u_hat(self) -> np.ndarray:
        """(trials, paths, N) uint8 input sequences: x_hat F."""
        return polar_transform(self.x_hat)


def _boxplus(a, b, tmp=None):
    """Exact LLR combine for the XOR of two independent bits (stable form).

    sign(a) sign(b) min(|a|, |b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|),
    summed in that order.  The first term is formed as copysign(min, a b),
    which can differ only in the sign of a zero; adding the log1p term,
    never -0, gives the same bits either way.  ``tmp``, scratch of the
    broadcast shape, saves one allocation per call.
    """
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)))
    if tmp is None:
        tmp = np.empty_like(out)
    np.abs(a, out=tmp)
    np.abs(b, out=out)
    np.minimum(tmp, out, out=out)
    np.copysign(out, np.multiply(a, b, out=tmp), out=out)
    for op in (np.add, np.subtract):
        op(a, b, out=tmp)
        np.abs(tmp, out=tmp)
        np.negative(tmp, out=tmp)
        np.exp(tmp, out=tmp)
        np.log1p(tmp, out=tmp)
        op(out, tmp, out=out)
    return out


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
    list_size = _checked_int(list_size, "list_size")
    n = code.stages
    frozen_mask = np.zeros(n_code, dtype=bool)
    frozen_mask[code.frozen] = True
    factors = _mass_factors(code)
    width = [n_code >> s for s in range(n + 1)]

    # per-level state and row maps, as described in the module docstring
    chan = np.ascontiguousarray(np.clip(-llr, -LLR_LIMIT, LLR_LIMIT).T)[:, :, None]
    llrs, sums = [None] * (n + 1), [None] * (n + 1)
    llr_row, sum_row = [None] * (n + 1), [None] * (n + 1)
    pm = np.zeros((n_trials, 1))
    mass = np.zeros(n_trials)
    paths = 1

    # two scratch buffers, for gathered parent LLRs and for f/g temporaries,
    # reused across steps: fresh arrays of this size cost page faults
    scratch = [np.empty(0), np.empty(0)]

    def shaped(i, w):
        size = n_trials * paths * w
        if scratch[i].size < size:
            scratch[i] = np.empty(size)
        return scratch[i][:size].reshape(w, n_trials, paths)

    def read(store, row, s, out=None):
        if row[s] is None:
            data = store[s]
        else:  # row maps are in range; "clip" lets take write straight into out
            data = store[s].take(row[s], axis=1, mode="clip",
                                 out=None if out is None else out.reshape(width[s], -1))
        return data.reshape(width[s], n_trials, paths)

    for phi in range(n_code):
        lo = 1 if phi == 0 else n - ((phi & -phi).bit_length() - 1)
        for s in range(lo, n + 1):
            m = width[s]
            par = chan if s == 1 else read(llrs, llr_row, s - 1, shaped(0, width[s - 1]))
            a, b = par[:m], par[m:]
            tmp = shaped(1, m)
            if s == lo and phi != 0:
                # (1 - 2u) a + b
                np.multiply(2.0, read(sums, sum_row, s), out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                lam = np.multiply(tmp, a, out=tmp) + b
                llrs[s - 1] = None  # the parent level's last read
            else:
                lam = _boxplus(a, b, tmp)
            if s < n:  # level n is read only here, as the decision LLR
                llrs[s] = lam.reshape(m, -1)
                llr_row[s] = None
        lam = lam[0]

        if frozen_mask[phi]:
            pm = pm + np.logaddexp(0.0, -lam)
            word = np.zeros((1, n_trials, paths), dtype=np.uint8)
        else:
            # logaddexp(0, -+lam) as max(-+lam, 0) + logaddexp(0, -|lam|):
            # the same bits from one logaddexp instead of two
            t = np.logaddexp(0.0, -np.abs(lam))
            cand = np.empty((n_trials, 2 * paths))
            cand[:, 0::2] = pm + (np.maximum(-lam, 0.0) + t)
            cand[:, 1::2] = pm + (np.maximum(lam, 0.0) + t)
            if 2 * paths <= list_size:
                # keep both children of every path, interleaved so the list
                # stays in lexicographic order of the input sequences
                pm = cand
                parent = np.arange(cand.size) >> 1
                bits = np.tile(np.array([0, 1], dtype=np.uint8), n_trials * paths)
            else:
                # the list_size smallest; only a tie across the boundary
                # makes the choice depend on the sort, and those rows take
                # the stable order, toward the smaller input sequence
                srt = np.sort(cand, axis=1)
                mask = cand <= srt[:, list_size - 1:list_size]
                tie = np.flatnonzero(srt[:, list_size - 1] == srt[:, list_size])
                if tie.size:
                    order = np.argsort(cand[tie], axis=1, kind="stable")
                    mask[tie] = False
                    mask[tie[:, None], order[:, :list_size]] = True
                mass += np.exp(-srt[:, list_size:]).sum(axis=1) * factors[phi]
                kept = np.flatnonzero(mask)  # trial * 2 * paths + 2 * parent + bit
                pm = cand.take(kept).reshape(n_trials, list_size)
                parent = kept >> 1
                bits = (kept & 1).astype(np.uint8)
            # compose each distinct live row map once: levels written in
            # one descent share theirs (id -> (old map, composed map))
            composed = {}
            for store, row in ((llrs, llr_row), (sums, sum_row)):
                for s in range(1, n + 1):
                    if store[s] is not None:
                        old = row[s]
                        if id(old) not in composed:
                            composed[id(old)] = (old, parent if old is None else old.take(parent))
                        row[s] = composed[id(old)][1]
            paths = pm.shape[1]
            word = bits.reshape(1, n_trials, paths)

        # push partial sums back up while this subtree is complete
        s, pos = n, phi
        while pos & 1:
            word = np.concatenate([read(sums, sum_row, s) ^ word, word])
            sums[s] = None
            s -= 1
            pos >>= 1
        if s > 0:
            sums[s] = word.reshape(width[s], -1)
            sum_row[s] = None

    # the last push ends at level 0 with every path's codeword, one per
    # column; gather them in pm order
    order = np.argsort(pm, axis=1, kind="stable")
    pm = np.take_along_axis(pm, order, axis=1)
    x_hat = word.reshape(n_code, -1).T.take(order + paths * np.arange(n_trials)[:, None], axis=0)
    return BatchSclOutput(
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
    ok = _packed_syndrome(words, spec) == 0  # (trials, paths)
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
