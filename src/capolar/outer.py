"""Outer decoding of the CRC code from channel soft information.

For non-systematic codes the message bits are parities of channel bits:
bit i of the CRC word equals the XOR of x over the support X_i of column
pi(i) of F^(x)n.  Treating the channel bits as independent given y, the
flip probability of such a parity is B = 1/2 - 1/2 prod (1 - 2 B_j), and a
full vector of them comes out of one XOR butterfly because every combine in
the transform joins disjoint supports.  Systematic codes skip all of this:
the CRC word is observed directly at the information positions.

The outer decoder is a soft-input GRAND: guess error patterns around the
hard decision in decreasing plausibility (logistic-weight order over
reliability ranks), keep the most likely one whose syndrome vanishes, and
report a soft output whose denominator charges the unqueried patterns with
the expected mass of codewords hiding among them.  Both guessers decode a
(trials, K) block at once (``*_decode_block``) and return a dict of per-row
columns:

- ``hit`` (n,) bool: a codeword was found within the budget;
- ``word`` (n, K) uint8: that codeword, zero where there is no hit;
- ``so`` (n,) float64: its soft output, zero where there is no hit; only
  with ``soft=True`` (the default), since a caller that reads no soft output
  need not pay for the likelihood sums behind it;
- ``queries`` (n,) int64: pattern queries made.

``soft=False`` leaves every other column exactly as it is.  A guesser over
k guessed bits (k = K for sogrand, K - degree for gcd) queries at most
min(max_queries, 2^k) patterns of the ORBGRAND order; to cap the logistic
weight at w instead, pass the number of rank sets over 1..k of weight <= w.

Without soft output gcd also skips the parity completion of every query
that cannot win.  A query's log likelihood is computed as
lp = (log_keep - cost_S) - cost_P, the costs summing the magnitudes it flips
in the guessed part S and the solved part P.  cost_P >= 0 and rounding is
monotone, so lp <= ub = log_keep - cost_S in floating point too.  A query
whose ub falls below the best lp scored so far thus scores below it; that
threshold only rises and a tie goes to the earlier query, so the query
never wins.

A row comes out bit for bit as it does in a block of that row alone.
"""

from __future__ import annotations

import numpy as np

from .crc import CrcSpec, _packed_syndrome, _parity_columns, _unpack
from .polar import PolarCode, _butterfly, _checked_int
from .scl import _boxplus

__all__ = [
    "hard_decision",
    "outer_llr",
    "orbgrand_schedule",
    "sogrand_decode_block",
    "gcd_decode_block",
]


def hard_decision(llr):
    """Bitwise decision for the convention where positive LLR favours 1."""
    return (np.asarray(llr) > 0).astype(np.uint8)


def outer_llr(llr_in: np.ndarray, code: PolarCode) -> np.ndarray:
    """LLRs of the K CRC-word bits seen by the outer decoder.

    Systematic: restriction of the channel LLRs to the information positions.
    Non-systematic: the butterfly of ``analysis.convert_llr`` carried out directly in the LLR
    domain, which stays exact for saturated inputs where probabilities would
    round to 0 or 1.
    """
    llr_in = np.asarray(llr_in, dtype=np.float64)
    if llr_in.shape[-1] != code.n_code:
        raise ValueError(f"expected {code.n_code} LLRs, got {llr_in.shape[-1]}")
    if code.systematic:
        return llr_in[..., code.info]
    # the inner decoder's boxplus, negated: positive LLRs favour 1 here
    out = _butterfly(llr_in, lambda a, b, out: np.negative(_boxplus(a, b), out=out))
    return out[..., code.info]


def _class_sizes(k: int, top: int, cap: int) -> np.ndarray:
    """Rank sets over k ranks of each weight 0..top, saturated at ``cap``."""
    sizes = np.zeros(top + 1, dtype=np.int64)
    sizes[0] = 1
    for part in range(1, min(k, top) + 1):
        sizes[part:] = np.minimum(sizes[part:] + sizes[:-part], cap)
    return sizes


def _build_schedule(k: int, rows: int) -> np.ndarray:
    """The first ``rows`` rank sets over k ranks in ORBGRAND order (all 2^k
    if fewer), as byte planes: set i flips rank 8b + j + 1 where bit j of
    ``planes[b, i]`` is set, so the planes have shape (ceil(k / 8), sets).

    Sets are ordered by weight (the sum of their ranks), ties broken
    lexicographically on the ascending rank tuples.  Built bottom-up over
    (smallest rank, weight), whole weight classes at a time.
    """
    # every weight up to k(k+1)/2 has at least one set, so no weight past
    # rows - 1 is ever needed
    sizes = _class_sizes(k, min(k * (k + 1) // 2, rows - 1), rows)
    last = min(int(np.searchsorted(np.cumsum(sizes), rows)), len(sizes) - 1)

    # by_weight[t] holds the sets of weight t whose ranks all lie in s..k, in
    # lexicographic order; admitting rank s puts {s} + by_weight[t - s] in
    # front of the sets without it
    n_planes = (k + 7) // 8
    by_weight = [np.zeros((1, n_planes), np.uint8)]
    by_weight += [np.zeros((0, n_planes), np.uint8)] * last
    for s in range(min(k, last), 0, -1):
        byte, bit = (s - 1) >> 3, np.uint8(1 << ((s - 1) & 7))
        for t in range(last, s - 1, -1):
            if len(by_weight[t - s]):
                head = by_weight[t - s].copy()
                head[:, byte] |= bit
                by_weight[t] = np.concatenate((head, by_weight[t]))
    return np.ascontiguousarray(np.concatenate(by_weight)[:rows].T)


# schedule rows per sum block: gcd_decode_block adds one float per block of
# _CHUNK queries to each row's phi and psi sums, in schedule order, so its
# outputs depend on _CHUNK but not on how many blocks a pass holds
_CHUNK = 8192

# sum blocks per gcd_decode_block pass.  A pass builds its index planes once
# and scores every row on them.  Sized by peak RSS: passes of two blocks
# take ~10% off the gcd stage against one (numpy per-call overhead) for
# ~0.4 MB of peak RSS, where passes of four blocks cost ~2.2 MB
_PASS_BLOCKS = 2

# schedule rows gcd_decode_block scores in full, as a pass of their own,
# without soft output before it prunes by each row's best.  On the rows a
# bler-gcd sweep and a C5 sweep hand to gcd, heads of 64 to 1024 queries ran
# within ~10% of each other, 256 never slower than 64, and a head of one
# query 13-22% slower (BENCH_gcd-prune.json)
_HEAD = 256

# the order depends only on the number of guessed bits; each entry holds the
# largest prefix asked for so far
_schedules: dict[int, np.ndarray] = {}


def _schedule(k: int, rows: int) -> np.ndarray:
    """The byte planes of the ORBGRAND order over k ranks, holding at least
    min(rows, 2^k) rank sets."""
    have = _schedules.get(k)
    if have is None or have.shape[1] < min(rows, 2 ** k):
        have = _schedules[k] = _build_schedule(k, rows)
    return have


def _byte_tables(values: np.ndarray, combine) -> np.ndarray:
    """Per byte of ranks, ``values`` folded over each of its 256 subsets.

    Entry v of byte b combines values[..., 8b + j] over the set bits j of v,
    low bits first, so one gather per byte plane maps a batch of rank sets to
    their per-byte shares.  Leading axes (one per trial) carry through: the
    tables have shape ``values.shape[:-1] + (bytes, 256)``.
    """
    lead, width = values.shape[:-1], values.shape[-1]
    n = (width + 7) // 8
    padded = np.zeros(lead + (8 * n,), dtype=values.dtype)
    padded[..., :width] = values
    padded = padded.reshape(lead + (n, 8))
    tab = np.zeros(lead + (n, 256), dtype=values.dtype)
    for j in range(8):
        tab[..., 1 << j:2 << j] = combine(tab[..., :1 << j], padded[..., j:j + 1])
    return tab


def _gather(tab: np.ndarray, index, combine, out: np.ndarray,
            tmp: np.ndarray) -> np.ndarray:
    """The evaluation core of both guessers: per rank set, the combined table
    entries its byte planes pick, written into ``out``.

    ``tab`` holds (..., bytes, 256) tables, one set per leading row of
    ``out``.  ``index`` holds the planes as intp: numpy gathers through intp
    indices several times faster than through the uint8 planes themselves.
    The ``take`` method skips ``np.take``'s Python wrapper, ~1 us a call.
    """
    tab[..., 0, :].take(index[0], axis=-1, out=out, mode="clip")
    for b in range(1, len(index)):
        tab[..., b, :].take(index[b], axis=-1, out=tmp, mode="clip")
        combine(out, tmp, out=out)
    return out


def _checked_block(llr, spec: CrcSpec, max_queries: int, name: str):
    """The argument checks both guessers share; NaN LLRs are refused.

    Returns the block C-ordered, so a sum over one of its rows adds the same
    numbers in the same order as a sum over that row alone, and the budget
    as a plain int.
    """
    llr = np.ascontiguousarray(llr, dtype=np.float64)
    if llr.ndim != 2:
        raise ValueError(f"{name} takes a (trials, K) block of LLRs")
    if llr.shape[1] <= spec.degree:
        raise ValueError(f"{llr.shape[1]} bits cannot carry {spec.degree} parity bits")
    max_queries = _checked_int(max_queries, "max_queries")
    if np.isnan(llr).any():
        raise ValueError(f"{name} got NaN LLRs")
    return llr, max_queries


def _reliability(llr: np.ndarray, spec: CrcSpec):
    """Per row of a block: hard decision, magnitudes, positions least reliable
    first, log P(hard decision right) and the hard decision's syndrome; and
    the parity-check columns, both in the packed format of ``crc``, so that
    the syndrome of a flip pattern is the XOR of the columns it touches."""
    hard = hard_decision(llr)
    mag = np.abs(llr)
    order = np.argsort(mag, axis=1, kind="stable")
    log_keep = -np.logaddexp(0.0, -mag).sum(axis=1)
    cols, syn_hard = _parity_columns(spec, llr.shape[1]), _packed_syndrome(hard, spec)
    return hard, mag, order, log_keep, cols, syn_hard


def orbgrand_schedule(order: np.ndarray, rows: int) -> np.ndarray:
    """The first ``rows`` error patterns in non-decreasing logistic weight
    (all 2^K if fewer), as a (rows, K) uint8 array of flip masks.

    ``order`` lists bit positions from least to most reliable; the rank of a
    position is its 1-based index in this list, and a pattern's logistic
    weight is the sum of the ranks it flips.  The all-zero pattern comes
    first; ties inside a weight class break lexicographically on the flipped
    rank sets.  The masks are over the original positions, unpacked from the
    schedule the guessing decoders evaluate.
    """
    order = np.asarray(order, dtype=np.int64)
    k = len(order)
    if sorted(order.tolist()) != list(range(k)):
        raise ValueError("order must be a permutation of 0..K-1")
    rows = min(_checked_int(rows, "rows"), 2 ** k)
    masks = np.empty((rows, k), dtype=np.uint8)
    masks[:, order] = _flip_masks(_schedule(k, rows), np.arange(rows), k)
    return masks


def _flip_masks(planes: np.ndarray, at: np.ndarray, k: int) -> np.ndarray:
    """The rank flips of schedule rows ``at``: uint8, shape at.shape + (k,)."""
    bits = np.unpackbits(planes[:, at], axis=0, bitorder="little")[:k]
    return np.moveaxis(bits, 0, -1)


def _columns(hard: np.ndarray, perm: np.ndarray, flips: np.ndarray,
             hit: np.ndarray, so: np.ndarray | None, queries: np.ndarray) -> dict:
    """The guessers' per-row columns, ``so`` left out when None.  The word
    of row t is that row's hard decision with position perm[t, i] flipped
    wherever flips[t, i] is set, and reads 0 where there is no hit."""
    mask = np.zeros_like(flips)
    np.put_along_axis(mask, perm, flips, axis=1)
    word = hard ^ mask
    word[~hit] = 0
    cols = {"hit": hit, "word": word, "so": so, "queries": queries}
    if so is None:
        del cols["so"]
    return cols


# patterns x rows that sogrand_decode_block gathers at once: each temporary
# stays within 512 KB however many rows are still searching
_GATHER_CELLS = 1 << 16


def sogrand_decode_block(llr: np.ndarray, spec: CrcSpec,
                         max_queries: int = 1 << 16, soft: bool = True) -> dict:
    """Guess error patterns around the hard decision of each row of a
    (trials, K) block.

    A row stops at its first syndrome-zero pattern, after ``max_queries``
    pattern queries, or when all 2^K patterns are queried.  The codeword's
    soft output is phi / (phi + R), where phi is the pattern likelihood and
    R estimates the codeword mass left in the unqueried patterns: the
    leftover pattern mass times the fraction of unqueried patterns expected
    to be codewords.

    Each round doubles the queries made so far (the first makes 64), up to
    the budget.
    Rows still searching have all made the same number of queries, so they
    share each round's window of the schedule, whose byte planes are
    gathered once for all of them; a row leaves at its hit.
    Returns the per-row columns of the module docstring; each row is what a
    block of that row alone gives.  ``soft=False`` skips the queried mass
    and R, and returns no ``so``.
    """
    llr, max_queries = _checked_block(llr, spec, max_queries, "sogrand_decode_block")
    n, k = llr.shape
    budget = min(max_queries, 2 ** k)
    hard, mag, order, log_keep, cols, syn_hard = _reliability(llr, spec)
    # a hit is a pattern whose syndrome cancels the hard decision's
    syn_tab = _byte_tables(cols[order], np.bitwise_xor)
    cost_tab = _byte_tables(np.take_along_axis(mag, order, axis=1), np.add)

    # each row's hit: its schedule row and log phi
    hit = np.zeros(n, dtype=bool)
    at = np.zeros(n, dtype=np.intp)
    log_phi = np.full(n, -np.inf)
    queried_mass = np.zeros(n)
    used = np.zeros(n, dtype=np.int64)
    searching = np.arange(n)
    queries = 0
    while len(searching) and queries < budget:
        # a round depends on nothing but the queries so far and the budget,
        # so a row's sums group alike in any block; the schedule grows with
        # the deepest query so far, not the budget
        planes = _schedule(k, min(budget, max(4 * queries, 256)))
        stop = min(budget, max(2 * queries, 64))
        index = planes[:, queries:stop].astype(np.intp)
        width = stop - queries
        group = max(1, _GATHER_CELLS // width)
        for first in range(0, len(searching), group):
            rows = searching[first:first + group]
            shape = (len(rows), width)
            syn = _gather(syn_tab[rows], index, np.bitwise_xor,
                          np.empty(shape, np.int64), np.empty(shape, np.int64))
            cost = _gather(cost_tab[rows], index, np.add, np.empty(shape), np.empty(shape))
            lp = log_keep[rows, None] - cost
            hits = syn == syn_hard[rows, None]
            j = hits.argmax(axis=1)
            done = hits[np.arange(len(rows)), j]
            take = np.where(done, j + 1, width)
            if soft:
                for i, t in enumerate(rows.tolist()):
                    queried_mass[t] += float(np.exp(lp[i, :take[i]]).sum())
            used[rows] = queries + take
            hit[rows[done]] = True
            at[rows[done]] = queries + j[done]
            log_phi[rows[done]] = lp[done, j[done]]
        searching, queries = searching[~hit[searching]], stop

    so = _sogrand_so(log_phi, queried_mass, used, k, spec.degree) if soft else None
    # the cached schedule, which holds every row queried
    planes = _schedule(k, int(at.max(initial=0)) + 1)
    return _columns(hard, order, _flip_masks(planes, at, k), hit, so, used)


def _sogrand_so(log_phi: np.ndarray, queried_mass: np.ndarray, used: np.ndarray,
                k: int, degree: int) -> np.ndarray:
    """sogrand's soft outputs phi / (phi + R); 0 where there is no hit,
    whose log phi is -inf."""
    phi = np.exp(log_phi)
    remaining = np.maximum(0.0, 1.0 - queried_mass)
    # the unqueried patterns and the codewords but the hit among them, both
    # scaled by 2^-s to keep 2^k finite past K = 1000 (exact, and a no-op
    # below)
    s = max(0, k - 1000)
    unqueried = np.ldexp(1.0, k - s) - np.ldexp(used, -s)
    r_term = np.zeros(len(phi))
    np.divide(remaining * (np.ldexp(1.0, k - degree - s) - np.ldexp(1.0, -s)),
              unqueried, out=r_term, where=unqueried > 0)
    denom = phi + r_term
    so = np.zeros_like(phi)
    np.divide(phi, denom, out=so, where=denom > 0.0)
    return so


def _parity_split(cols: np.ndarray, syn: np.ndarray, order: np.ndarray, r: int):
    """Solved and guessed positions per row, and the parity solve of each
    guessed column and of the hard decision's syndrome.

    One Gauss-Jordan elimination over GF(2) for the whole block: each row's
    parity-check columns (``cols``, one integer per column, bit i for check
    i) are scanned in that row's reliability order, with the syndrome carried
    along as one more column.  The pivot columns are the first ``r``
    positions whose columns are independent of the ones before: the solved
    part P, in that order; the other positions form the guessed part S.
    Each pivot owns one check; after the elimination a column c reads E c,
    E the row operations, and the bit of E c at the k-th pivot's check is
    bit k of the P combination whose columns XOR to c.
    """
    n, k = cols.shape
    m = np.concatenate((cols, syn[:, None]), axis=1)
    free = np.full(n, (1 << r) - 1, dtype=np.int64)  # checks owning no pivot yet
    owner = np.zeros((n, r), dtype=np.int64)  # the k-th pivot's check, one-hot
    n_pivots = np.zeros(n, dtype=np.int64)
    is_pivot = np.zeros((n, k), dtype=bool)
    rows = np.arange(n)
    for j in range(k):
        if not free.any():
            break
        cand = m[:, j] & free
        low = cand & -cand  # lowest free check of column j, 0 when dependent
        hit = low != 0
        is_pivot[:, j] = hit
        owner[rows[hit], n_pivots[hit]] = low[hit]
        n_pivots += hit
        free ^= low
        # clear column j from every other check: XOR the pivot's check row
        # into theirs, in every column that has the pivot's check set
        m ^= np.where((m & low[:, None]) != 0, (m[:, j] ^ low)[:, None], 0)
    solved = order[is_pivot].reshape(n, r)
    guessed = order[~is_pivot].reshape(n, k - r)
    reduced = np.concatenate((m[:, :k][~is_pivot].reshape(n, k - r), m[:, k:]), axis=1)
    comb = np.zeros_like(reduced)
    for i in range(r):
        comb |= ((reduced & owner[:, i:i + 1]) != 0).astype(np.int64) << i
    return solved, guessed, comb[:, :-1], comb[:, -1]


def _byte_planes(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The low ``len(out)`` bytes of each int64 in x, as intp index planes;
    x must lie below 256 ** len(out)."""
    np.bitwise_and(x, 255, out=out[0])
    for b in range(1, len(out)):
        np.right_shift(x, 8 * b, out=out[b])
        if b < len(out) - 1:
            np.bitwise_and(out[b], 255, out=out[b])
    return out


def _add_blocks(total, x: np.ndarray, block: int):
    """``total`` plus the sum of each ``block`` entries of x in turn, the last
    block ending with x: one float per block, whatever the length of x."""
    for b in range(0, len(x), block):
        total += float(x[b:b + block].sum())
    return total


def gcd_decode_block(llr: np.ndarray, spec: CrcSpec,
                     max_queries: int = 1 << 16, soft: bool = True) -> dict:
    """Guess only the reliable bits of each row of a (trials, K) block;
    solve the unreliable ones from parity.

    The ``degree`` least reliable positions whose parity-check columns are
    linearly independent form the solved part; the remaining K - degree
    positions form the guessed part.  Each query flips an ORBGRAND pattern
    over the guessed part and completes the word through the parity
    equations, so every query lands on a codeword and every row hits.  Every
    row makes the same min(``max_queries``, 2^(K - degree)) queries.  The
    word is the highest-likelihood completion, ties to the earlier query;
    its soft output divides phi(c) by the phi mass of all queried codewords
    plus the guessed-part pattern mass left unqueried, which never exceeds
    the mass of the missed codewords, so the quoted posterior is
    conservative.

    The split into solved and guessed parts is one GF(2) elimination over
    the block.  The schedule over the guessed part depends only on its
    length, so each pass over it is converted to index planes once and
    scored for every row in turn.  Returns the per-row columns of the
    module docstring; each row is what a block of that row alone gives.
    ``soft=False`` skips both mass sums, two ``exp`` passes per query block,
    and returns no ``so``; the word comes from the same lp either way.
    It also prunes by the bound of the module docstring.  The first
    ``_HEAD`` queries form a pass of their own, scored in full to set each
    row's best; each later pass gathers only cost_S for all its queries, and
    completes through parity just those whose ub = log_keep - cost_S reaches
    the row's best lp so far.  Every query still counts in ``queries``, and
    ``word`` is bit for bit that of ``soft=True``.
    """
    llr, max_queries = _checked_block(llr, spec, max_queries, "gcd_decode_block")
    n, k = llr.shape
    r = spec.degree
    sm = k - r
    queries = min(max_queries, 2 ** sm)
    hard, mag, order, log_keep, cols, syn_hard = _reliability(llr, spec)
    solved, guessed, comb_s, comb_hard = _parity_split(cols[order], syn_hard, order, r)
    mag_s = np.take_along_axis(mag, guessed, axis=1)
    mag_p = np.take_along_axis(mag, solved, axis=1)
    if soft:
        log_keep_s = -np.logaddexp(0.0, -mag_s).sum(axis=1)

    # the P flips are a linear image of the syndrome, so each S flip maps to
    # the P combination that cancels its column and a query's P flips are
    # those of the hard decision XOR those of its S flips: tabulated per byte
    # of S ranks, the solve costs no more lookups than the syndrome would.
    # The hard decision's share rides in plane 0's table (XOR is exact).
    comb_tab = _byte_tables(comb_s, np.bitwise_xor)
    comb_tab[:, 0] ^= comb_hard[:, None]
    cost_s_tab = _byte_tables(mag_s, np.add)
    cost_p_tab = _byte_tables(mag_p, np.add)

    # the whole budget prefix of the schedule over S, in passes of whole sum
    # blocks; the int and float temporaries share one scratch buffer, and
    # each pass's index planes are copied into one more (an array per pass
    # beside the survivors' copies cost a bler-gcd sweep ~0.4 MB of peak
    # RSS).  Without soft output the first _HEAD queries form a pass of their
    # own, scored in full, so that the passes after it have a best to prune by
    planes = _schedule(sm, queries)
    width = _PASS_BLOCKS * _CHUNK
    size = min(queries, width)
    comb = np.empty(size, np.int64)
    s_index = np.empty((len(planes), size), np.intp)
    p_index = np.empty(((r + 7) // 8, size), np.intp)
    cost_s, cost_p, lp, tmp = (np.empty(size) for _ in range(4))
    tmp_i = tmp.view(np.int64)
    phi_sum, psi_sum = np.zeros(n), np.zeros(n)
    # each row's best lp and its schedule row; a first -inf keeps query 0
    best_lp, best_at = np.full(n, -np.inf), np.zeros(n, dtype=np.intp)
    edges = {queries, *range(0, queries, width)}
    if not soft:
        edges.add(min(_HEAD, queries))
    edges = sorted(edges)
    for lo, hi in zip(edges, edges[1:]):
        c = hi - lo
        index = s_index[:, :c]
        np.copyto(index, planes[:, lo:hi])
        rows = np.arange(lo, hi)
        for t in range(n):
            _gather(cost_s_tab[t], index, np.add, cost_s[:c], tmp[:c])
            ub = np.subtract(log_keep[t], cost_s[:c], out=lp[:c])
            at, idx = rows, index
            if not soft and lo:
                # the bound of the module docstring: below the best nothing wins
                keep = np.flatnonzero(ub >= best_lp[t])
                if not len(keep):
                    continue
                at, idx, ub = rows[keep], index[:, keep], ub[keep]
            m = len(at)
            _gather(comb_tab[t], idx, np.bitwise_xor, comb[:m], tmp_i[:m])
            _gather(cost_p_tab[t], _byte_planes(comb[:m], p_index[:, :m]), np.add,
                    cost_p[:m], tmp[:m])
            scored = np.subtract(ub, cost_p[:m], out=ub)  # lp, over ub
            if soft:
                phi_sum[t] = _add_blocks(phi_sum[t], np.exp(scored, out=tmp[:c]), _CHUNK)
                np.subtract(log_keep_s[t], cost_s[:c], out=tmp[:c])
                psi_sum[t] = _add_blocks(psi_sum[t], np.exp(tmp[:c], out=tmp[:c]), _CHUNK)
            j = int(np.argmax(scored))
            if scored[j] > best_lp[t]:
                best_lp[t], best_at[t] = scored[j], at[j]

    # the word's P flips: the hard decision's solve XOR its S flips' solves
    s_flips = _flip_masks(planes, best_at, sm)
    p_comb = comb_hard ^ np.bitwise_xor.reduce(
        np.where(s_flips.astype(bool), comb_s, 0), axis=1)
    so = None
    if soft:
        denom = phi_sum + np.maximum(0.0, 1.0 - psi_sum)
        so = np.zeros(n)
        np.divide(np.exp(best_lp), denom, out=so, where=denom > 0.0)
    return _columns(hard, np.concatenate((guessed, solved), axis=1),
                    np.concatenate((s_flips, _unpack(p_comb, r)), axis=1),
                    np.ones(n, dtype=bool), so, np.full(n, queries, dtype=np.int64))
