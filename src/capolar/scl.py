"""Successive cancellation list decoding with exact path metrics.

Internally the decoder works with LLRs in the log(P(0)/P(1)) orientation so
the classic f/g recursions apply unchanged; public inputs use the package
convention (positive favours bit 1) and are negated on entry.  The f update
is the exact boxplus, and the path metric accumulates -log P(u_i | y, past),
so exp(-pm) is the auxiliary path probability: over all 2^N input
sequences these sum to one, which is what makes the blockwise soft outputs
meaningful.  Metrics, masses and soft outputs stay in the log domain, so
nothing underflows at long codes, where pm runs past the ~708 at which
exp(-pm) would reach zero.

Every decision pays the penalty of one helper, ``_penalty``: u = 0 on an
LLR lam costs logaddexp(0, -lam), u = 1 costs logaddexp(0, lam), each
formed as max(-+lam, 0) + log1p(e^-|lam|), so both children of a path
share one exp and one log1p.  An all-frozen subtree (a Rate-0 node, as in
the fast SCL of Hashemi, Condo and Gross) is one step: its input LLRs are
independent, so the probability that its inputs are all zero is the
product over them, and pm gains the sum of the u = 0 penalties of the
node's LLRs; the node pushes zero partial sums and prunes nothing.  A
per-code schedule lists the steps, one per information position and one
per maximal all-frozen subtree.

Every 2L-way prune adds the mass exp(-pm) 2^(-|frozen positions still
ahead|) of each discarded path to the unvisited mass, the correction term
of the list-SO denominators; it is kept as its log, ``log_mass``, and the
factors as -ln 2 per frozen position ahead.  Candidate order is
deterministic: ties in pm break toward the lexicographically smaller input
sequence.  A prune sorts the candidate values and keeps those at or below
the L-th; only rows where the L-th and (L+1)-th values tie are re-sorted
stably, because only there can the order of equal values change which
candidates survive.  The dropped mass is summed from the sorted values,
which is the same sequence either way.

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
and F is its own inverse.  CRC selection never needs u_hat: it tests x_hat
against parity columns carried through F (``_x_columns``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .channel import LLR_LIMIT
from .crc import CrcSpec, _parity_columns
from .polar import PolarCode, _butterfly, _checked_int, polar_transform

__all__ = ["BatchSclOutput", "scl_decode_batch", "ca_select_batch"]

_LN2 = np.log(2.0)


@dataclass(frozen=True, eq=False)
class BatchSclOutput:
    """Per-trial lists in ascending-pm order: leading axis is the trial."""

    x_hat: np.ndarray  # (trials, paths, N) uint8
    pm: np.ndarray  # (trials, paths) ascending per trial
    log_mass: np.ndarray  # (trials,) log of the unvisited mass, -inf for none
    code: PolarCode

    @property
    def q(self) -> np.ndarray:
        """(trials, paths) path probabilities exp(-pm)."""
        return np.exp(-self.pm)

    @property
    def unvisited_mass(self) -> np.ndarray:
        """(trials,) unvisited mass exp(log_mass)."""
        return np.exp(self.log_mass)

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


def _penalty(lam):
    """(-log P(u = 0 | lam), -log P(u = 1 | lam)) for LLRs lam = log(P(0)/P(1)).

    Each is max(-+lam, 0) + log1p(e^-|lam|), logaddexp(0, -+lam) with its
    one exp and one log1p shared by both decisions.
    """
    soft = np.abs(lam)
    np.negative(soft, out=soft)
    np.exp(soft, out=soft)
    np.log1p(soft, out=soft)
    pen0 = np.negative(lam)
    np.maximum(pen0, 0.0, out=pen0)
    pen1 = np.maximum(lam, 0.0)
    return np.add(pen0, soft, out=pen0), np.add(pen1, soft, out=pen1)


def _add_dropped(log_mass, dropped, log_factor):
    """log(e^log_mass + e^log_factor * sum of e^-dropped) per row.

    ``dropped`` (rows, k) holds the discarded path metrics in ascending
    order, so its first column is the largest term; shifted by the larger
    of that and log_mass, no term exceeds one and each sum is at least
    one.  The terms are summed transposed, one long row per rank, which
    numpy does far faster than k-wide rows.
    """
    top = np.maximum(log_mass, log_factor - dropped[:, 0])
    terms = np.ascontiguousarray(dropped.T)  # one long row per dropped rank
    np.subtract(log_factor - top, terms, out=terms)
    np.exp(terms, out=terms)
    return top + np.log(terms.sum(axis=0) + np.exp(log_mass - top))


def _log_mass_factors(code: PolarCode) -> np.ndarray:
    """-ln 2 times the count of frozen positions strictly after phi, per phi."""
    frozen = np.zeros(code.n_code, dtype=np.int64)
    frozen[code.frozen] = 1
    ahead = frozen[::-1].cumsum()[::-1] - frozen
    return ahead * -_LN2


@lru_cache(maxsize=16)
def _schedule(code: PolarCode) -> tuple:
    """The decoder's steps, in decoding order: one per information position
    and one per maximal all-frozen subtree below the root.

    Each step is (first position, level its descent starts at, node level,
    all frozen); a node at level s spans N >> s positions, a leaf is at
    level n.  The descent to position phi starts where phi's path leaves
    the previous one: at level n - (trailing zeros of phi), level 1 for 0.
    """
    n, n_code = code.stages, code.n_code
    frozen = np.zeros(n_code, dtype=bool)
    frozen[code.frozen] = True
    steps, phi = [], 0
    while phi < n_code:
        level = n
        if frozen[phi]:
            while level > 1:
                span = n_code >> (level - 1)
                if phi % span or not frozen[phi:phi + span].all():
                    break
                level -= 1
        lo = 1 if phi == 0 else n - ((phi & -phi).bit_length() - 1)
        steps.append((phi, lo, level, bool(frozen[phi])))
        phi += n_code >> level
    return tuple(steps)


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
    log_factors = _log_mass_factors(code)
    width = [n_code >> s for s in range(n + 1)]

    # per-level state and row maps, as described in the module docstring
    chan = np.ascontiguousarray(np.clip(-llr, -LLR_LIMIT, LLR_LIMIT).T)[:, :, None]
    llrs, sums = [None] * (n + 1), [None] * (n + 1)
    llr_row, sum_row = [None] * (n + 1), [None] * (n + 1)
    pm = np.zeros((n_trials, 1))
    log_mass = np.full(n_trials, -np.inf)
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

    for phi, lo, level, frozen in _schedule(code):
        for s in range(lo, level + 1):
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
            if s < level:  # the node's own level is read only here
                llrs[s] = lam.reshape(m, -1)
                llr_row[s] = None

        if frozen:
            # every input of the node is 0: its LLRs are independent, so
            # pm pays the u = 0 penalty of each
            pm = pm + _penalty(lam)[0].sum(axis=0)
            word = np.zeros(lam.shape, dtype=np.uint8)
        else:
            cand = np.empty((n_trials, 2 * paths))
            for bit, pen in enumerate(_penalty(lam[0])):
                np.add(pm, pen, out=cand[:, bit::2])
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
                log_mass = _add_dropped(log_mass, srt[:, list_size:], log_factors[phi])
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
        s, pos = level, phi >> (n - level)
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
    return BatchSclOutput(x_hat=x_hat, pm=pm, log_mass=log_mass, code=code)


@lru_cache(maxsize=16)
def _x_columns(code: PolarCode, spec: CrcSpec) -> np.ndarray:
    """Packed parity-check columns (the ``crc`` format) for testing the CRC
    on a codeword x directly, one per position of x.

    A systematic code carries the CRC word in x at the information
    positions.  Otherwise it sits in u = x F, so x_j enters the syndrome
    through every information position i with F[j, i] = 1: column j is the
    XOR of those columns.  With the columns as a row c, zero off the
    information positions, that is c F^T = ((c R) F) R, since F^T = R F R
    for the reversal R: reverse, transform, reverse.  Stored in the
    narrowest unsigned type that holds them.
    """
    cols = np.zeros(code.n_code, dtype=np.int64)
    cols[code.info] = _parity_columns(spec, code.k_crc)
    if not code.systematic:
        cols = _butterfly(cols[::-1], np.bitwise_xor)[::-1]
    cols = cols.astype(np.min_scalar_type(int(cols.max())))
    cols.setflags(write=False)
    return cols


def ca_select_batch(out: BatchSclOutput, spec: CrcSpec) -> dict:
    """CRC filter, selection and both soft outputs over a decoded batch.

    Per trial, the selection is the first CRC-passing candidate in pm
    order.  Its CRC-aware soft output ``so`` is q over (sum of q of the
    passers + 2^-r * unvisited mass): a uniformly distributed unseen path
    survives the r parity checks with probability 2^-r.  ``so_forney``
    normalises over the passers only.  Both are exp(log q - logsumexp) of
    the log-domain terms, so neither underflows where q alone would.
    Returns arrays keyed found, pass_count, message (K bits, zeros when not
    found), so, so_forney.
    """
    code = out.code
    ok = np.bitwise_xor.reduce(_x_columns(code, spec) * out.x_hat, axis=-1) == 0
    found = ok.any(axis=1)
    pass_count = ok.sum(axis=1)
    # candidates are pm-sorted, so the first passing index is the selection
    sel = np.argmax(ok, axis=1)
    rows = np.arange(len(sel))
    chosen = out.x_hat[rows, sel]
    message = (chosen if code.systematic else polar_transform(chosen))[:, code.info]
    message[~found] = 0
    # the selection has the largest log q of the passers: shifted by it,
    # each term is at most one and the passers' sum at least one
    log_q = -out.pm
    log_sel = log_q[rows, sel]
    with np.errstate(divide="ignore"):  # log(0) on rows without a passer
        shifted = np.exp(np.where(ok, log_q - log_sel[:, None], -np.inf))
        lse_f = log_sel + np.log(shifted.sum(axis=1))
    lse_ca = np.logaddexp(lse_f, out.log_mass - spec.degree * _LN2)
    so = np.where(found, np.exp(log_sel - lse_ca), 0.0)
    so_f = np.where(found, np.exp(log_sel - lse_f), 0.0)
    return {
        "found": found,
        "pass_count": pass_count,
        "message": message,
        "so": so,
        "so_forney": so_f,
    }
