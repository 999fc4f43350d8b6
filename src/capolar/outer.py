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
reliability ranks), keep the ones whose syndrome vanishes, and report a soft
output whose denominator charges the unqueried patterns with the expected
mass of codewords hiding among them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crc import CrcSpec
from .polar import PolarCode
from .scl import _boxplus

__all__ = [
    "bit_prob",
    "hard_decision",
    "convert_llr",
    "outer_llr",
    "pair_covariance",
    "orbgrand_schedule",
    "sogrand_decode",
    "gcd_decode",
    "OuterDecodeOutput",
]


def hard_decision(llr):
    """Bitwise decision for the convention where positive LLR favours 1."""
    return (np.asarray(llr) > 0).astype(np.uint8)


def bit_prob(llr):
    """P(bit = 1) from an LLR in the package convention (logistic)."""
    llr = np.asarray(llr, dtype=np.float64)
    out = np.empty_like(llr)
    pos = llr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-llr[pos]))
    ex = np.exp(llr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _soft_xor_butterfly(vals, combine):
    """Run the polar butterfly with a custom combine on the last axis."""
    n = vals.shape[-1]
    out = vals.copy()
    half = 1
    while half < n:
        blocks = out.reshape(out.shape[:-1] + (n // (2 * half), 2, half))
        blocks[..., 0, :] = combine(blocks[..., 0, :], blocks[..., 1, :])
        half *= 2
    return out


def convert_llr(b: np.ndarray, code: PolarCode) -> np.ndarray:
    """Flip probabilities of the K CRC-word bits from channel flip probs.

    Evaluates the per-column products through the XOR butterfly in the
    1 - 2B domain, where the soft XOR is a plain multiplication.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape[-1] != code.n_code:
        raise ValueError(f"expected {code.n_code} probabilities, got {b.shape[-1]}")
    if np.any(b < 0.0) or np.any(b > 1.0):
        raise ValueError("flip probabilities must lie in [0, 1]")
    d = _soft_xor_butterfly(1.0 - 2.0 * b, np.multiply)
    return (0.5 - 0.5 * d)[..., code.info]


def outer_llr(llr_in: np.ndarray, code: PolarCode) -> np.ndarray:
    """LLRs of the K CRC-word bits seen by the outer decoder.

    Systematic: restriction of the channel LLRs to the information positions.
    Non-systematic: the convert_llr butterfly carried out directly in the LLR
    domain, which stays exact for saturated inputs where probabilities would
    round to 0 or 1.
    """
    llr_in = np.asarray(llr_in, dtype=np.float64)
    if llr_in.shape[-1] != code.n_code:
        raise ValueError(f"expected {code.n_code} LLRs, got {llr_in.shape[-1]}")
    if code.systematic:
        return llr_in[..., code.info]
    # the inner decoder's boxplus, negated: positive LLRs favour 1 here
    return _soft_xor_butterfly(llr_in, lambda a, b: -_boxplus(a, b))[..., code.info]


def _column_support(code: PolarCode, msg_index: int) -> np.ndarray:
    """Support of the F^(x)n column feeding CRC-word bit msg_index."""
    col = int(code.info[msg_index])
    s = np.arange(code.n_code)
    return s[(s & col) == col]


def _parity_flip_prob(b: np.ndarray, support: np.ndarray) -> float:
    if len(support) == 0:
        return 0.0
    return 0.5 - 0.5 * float(np.prod(1.0 - 2.0 * b[support]))


def pair_covariance(i: int, j: int, b: np.ndarray, code: PolarCode) -> float:
    """Covariance of CRC-word bits i and j under independent channel flips.

    Bits sharing channel positions are correlated; with S = X_i ^ X_j the
    closed form is p_S (1 - p_S) (1 - 2 p_{i minus j}) (1 - 2 p_{j minus i}).
    Disjoint supports give zero.
    """
    b = np.asarray(b, dtype=np.float64)
    xi, xj = _column_support(code, i), _column_support(code, j)
    shared = np.intersect1d(xi, xj)
    if len(shared) == 0:
        return 0.0
    p_shared = _parity_flip_prob(b, shared)
    p_i_only = _parity_flip_prob(b, np.setdiff1d(xi, xj))
    p_j_only = _parity_flip_prob(b, np.setdiff1d(xj, xi))
    return p_shared * (1.0 - p_shared) * (1.0 - 2.0 * p_i_only) * (1.0 - 2.0 * p_j_only)


@dataclass(frozen=True)
class _Schedule:
    """A prefix of the ORBGRAND order over k ranks, stored as byte planes.

    Row i is the i-th rank set of the order; bit j of ``planes[b, i]`` says
    whether it flips rank 8b + j + 1.  ``ends[w]`` counts the rows of
    logistic weight <= w, for every weight class held in full.
    """

    planes: np.ndarray  # (ceil(k / 8), rows) uint8
    ends: np.ndarray
    complete: bool  # all 2^k rank sets are held

    @property
    def rows(self) -> int:
        return self.planes.shape[1]

    def limit(self, max_weight: int | None) -> tuple[int, bool]:
        """Rows of weight <= max_weight held here, and whether that is all."""
        if max_weight is not None and max_weight < len(self.ends):
            return int(self.ends[max_weight]), True
        return self.rows, self.complete


def _class_sizes(k: int, top: int, cap: int) -> np.ndarray:
    """Rank sets over k ranks of each weight 0..top, saturated at ``cap``."""
    sizes = np.zeros(top + 1, dtype=np.int64)
    sizes[0] = 1
    for part in range(1, min(k, top) + 1):
        sizes[part:] = np.minimum(sizes[part:] + sizes[:-part], cap)
    return sizes


def _build_schedule(k: int, rows: int) -> _Schedule:
    """The first ``rows`` rank sets over k ranks in ORBGRAND order.

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
    ends = np.cumsum([len(sets) for sets in by_weight])
    table = np.concatenate(by_weight)[:rows]
    return _Schedule(planes=np.ascontiguousarray(table.T), ends=ends[ends <= rows],
                     complete=len(table) == 2 ** k)


# rows per slice when gcd_decode evaluates its budget: temporaries of this
# many float64s stay in a core's cache
_CHUNK = 8192

# the order depends only on the number of guessed bits; each entry holds the
# largest prefix asked for so far
_schedules: dict[int, _Schedule] = {}


def _schedule(k: int, rows: int) -> _Schedule:
    """The ORBGRAND schedule over k ranks, holding at least ``rows`` sets
    (or all of them)."""
    have = _schedules.get(k)
    if have is None or (have.rows < rows and not have.complete):
        have = _schedules[k] = _build_schedule(k, rows)
    return have


def _byte_tables(values: np.ndarray, combine) -> np.ndarray:
    """Per byte of ranks, ``values`` folded over each of its 256 subsets.

    Entry v of row b combines values[8b + j] over the set bits j of v, low
    bits first, so one gather per byte plane maps a batch of rank sets to
    their per-byte shares.
    """
    n = (len(values) + 7) // 8
    padded = np.zeros(8 * n, dtype=values.dtype)
    padded[:len(values)] = values
    padded = padded.reshape(n, 8)
    tab = np.zeros((n, 256), dtype=values.dtype)
    for j in range(8):
        tab[:, 1 << j:2 << j] = combine(tab[:, :1 << j], padded[:, j:j + 1])
    return tab


def _gather(tab: np.ndarray, index, combine) -> np.ndarray:
    """Per pattern, the combined table entries its byte planes pick.

    ``index`` holds the planes as intp: numpy gathers through intp indices
    several times faster than through the uint8 planes themselves.
    """
    out = tab[0][index[0]]
    for b in range(1, len(index)):
        combine(out, tab[b][index[b]], out=out)
    return out


def _int_planes(x: np.ndarray, n_bytes: int) -> list[np.ndarray]:
    """The low ``n_bytes`` bytes of each integer in x, as intp index planes."""
    return [(x >> np.uint64(8 * b)).astype(np.uint8).astype(np.intp)
            for b in range(n_bytes)]


def _xor_and_sum(planes: np.ndarray, xor_tab: np.ndarray,
                 sum_tab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation core of both guessers: for each rank set in a slice of
    schedule planes, the XOR of one per-rank integer (a syndrome column, or
    the parity solve of one) and the sum of one per-rank float (a
    reliability magnitude), from their byte tables."""
    index = planes.astype(np.intp)
    return _gather(xor_tab, index, np.bitwise_xor), _gather(sum_tab, index, np.add)


def _syndromes(spec: CrcSpec, hard: np.ndarray) -> tuple[np.ndarray, np.uint64]:
    """Parity-check columns packed into integers, and the hard decision's
    syndrome: the syndrome of a flip pattern is the XOR of the columns it
    touches."""
    tab = spec.parity_check(len(hard))
    cols = (tab.T.astype(np.uint64) << np.arange(spec.degree, dtype=np.uint64)).sum(axis=1)
    return cols, np.bitwise_xor.reduce(cols[hard.astype(bool)])


def _check_max_weight(max_weight: int | None):
    if max_weight is not None and max_weight < 0:
        raise ValueError("max_weight must be >= 0")


def _checked_llr(llr, spec: CrcSpec, max_queries: int, list_size: int,
                 max_weight: int | None, name: str) -> np.ndarray:
    """The argument checks both guessers share; NaN LLRs are refused."""
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim != 1:
        raise ValueError(f"{name} takes a single LLR vector")
    if len(llr) <= spec.degree:
        raise ValueError(f"{len(llr)} bits cannot carry {spec.degree} parity bits")
    if max_queries < 1 or list_size < 1:
        raise ValueError("max_queries and list_size must be >= 1")
    _check_max_weight(max_weight)
    if np.isnan(llr).any():
        raise ValueError(f"{name} got NaN LLRs")
    return llr


def orbgrand_schedule(order: np.ndarray, max_weight: int | None = None):
    """Yield error patterns in non-decreasing logistic weight.

    ``order`` lists bit positions from least to most reliable; the rank of a
    position is its 1-based index in this list, and a pattern's logistic
    weight is the sum of the ranks it flips.  The all-zero pattern comes
    first; ties inside a weight class break lexicographically on the flipped
    rank sets.  Patterns are uint8 masks over the original positions,
    unpacked from the schedule the guessing decoders evaluate.
    """
    order = np.asarray(order, dtype=np.int64)
    k = len(order)
    if sorted(order.tolist()) != list(range(k)):
        raise ValueError("order must be a permutation of 0..K-1")
    _check_max_weight(max_weight)
    done, want = 0, 256
    while True:
        sched = _schedule(k, want)
        stop, final = sched.limit(max_weight)
        for row in range(done, stop):
            flips = np.unpackbits(sched.planes[:, row], bitorder="little")[:k]
            mask = np.zeros(k, dtype=np.uint8)
            mask[order[flips.astype(bool)]] = 1
            yield mask
        if final:
            return
        done, want = stop, 4 * sched.rows


@dataclass(frozen=True)
class OuterDecodeOutput:
    """Codebook candidates found by guessing, best first."""

    candidates: tuple[np.ndarray, ...]
    so: tuple[float, ...]
    queries_used: int
    found: bool


def sogrand_decode(llr: np.ndarray, spec: CrcSpec,
                   max_queries: int = 1 << 16, list_size: int = 1,
                   max_weight: int | None = None) -> OuterDecodeOutput:
    """Guess error patterns around the hard decision of ``llr``.

    Stops after ``list_size`` syndrome-zero candidates or ``max_queries``
    pattern queries.  Each candidate's soft output is phi(c) / (sum of phi
    over the list + R), where phi is the pattern likelihood and R estimates
    the codeword mass left in the unqueried patterns: the leftover pattern
    mass times the fraction of unqueried patterns expected to be codewords.
    """
    llr = _checked_llr(llr, spec, max_queries, list_size, max_weight, "sogrand_decode")
    k = len(llr)

    hard = hard_decision(llr)
    mag = np.abs(llr)
    order = np.argsort(mag, kind="stable")  # least reliable first
    log_keep = -np.logaddexp(0.0, -mag).sum()

    # a hit is a pattern whose syndrome cancels the hard decision's
    col_bits, syn_hard = _syndromes(spec, hard)
    syn_tab = _byte_tables(col_bits[order], np.bitwise_xor)
    cost_tab = _byte_tables(mag[order], np.add)

    cands: list[np.ndarray] = []
    log_phi: list[float] = []
    queried_mass = 0.0
    queries = 0
    while len(cands) < list_size:
        # the schedule grows with the deepest query so far, not the budget
        sched = _schedule(k, min(max_queries, max(4 * queries, 256)))
        end = min(max_queries, sched.limit(max_weight)[0])
        if queries >= end:
            break
        # query whole weight classes, at least doubling the queries so far,
        # and stop right after the list_size-th hit in schedule order
        nxt = np.searchsorted(sched.ends, max(2 * queries, 64))
        stop = min(end, int(sched.ends[nxt]) if nxt < len(sched.ends) else end)
        planes = sched.planes[:, queries:stop]
        syn, cost = _xor_and_sum(planes, syn_tab, cost_tab)
        lp = log_keep - cost
        needed = list_size - len(cands)
        hits = np.flatnonzero(syn == syn_hard)[:needed]
        take = int(hits[-1]) + 1 if len(hits) == needed else stop - queries
        queried_mass += float(np.exp(lp[:take]).sum())
        for h in hits.tolist():
            flips = np.unpackbits(planes[:, h], bitorder="little")[:k]
            word = hard.copy()
            word[order[flips.astype(bool)]] ^= 1
            cands.append(word)
            log_phi.append(float(lp[h]))
        queries += take

    n_codewords = 2.0 ** (k - spec.degree)
    n_patterns = 2.0 ** k
    remaining = max(0.0, 1.0 - queried_mass)
    if n_patterns > queries:
        r_term = remaining * (n_codewords - len(cands)) / (n_patterns - queries)
        r_term = max(0.0, r_term)
    else:
        r_term = 0.0
    phi = np.exp(np.array(log_phi)) if cands else np.array([])
    denom = phi.sum() + r_term
    so = phi / denom if denom > 0.0 and len(cands) else np.zeros(len(cands))
    rank = np.argsort(-phi, kind="stable") if len(cands) else np.array([], dtype=int)
    return OuterDecodeOutput(
        candidates=tuple(cands[i] for i in rank),
        so=tuple(float(so[i]) for i in rank),
        queries_used=queries,
        found=bool(cands),
    )


def gcd_decode(llr: np.ndarray, spec: CrcSpec,
               max_queries: int = 1 << 16, list_size: int = 1,
               max_weight: int | None = None) -> OuterDecodeOutput:
    """Guess only the reliable bits; solve the unreliable ones from parity.

    The ``degree`` least reliable positions whose parity-check columns are
    linearly independent form the solved part; the remaining K - degree
    positions form the guessed part.  Each query flips an ORBGRAND pattern
    over the guessed part and completes the word through the parity
    equations, so every query lands on a codeword.  Candidates are the
    ``list_size`` highest-likelihood completions; their soft output divides
    phi(c) by the phi mass of all queried codewords plus the guessed-part
    pattern mass left unqueried, which never exceeds the mass of the missed
    codewords, so the quoted posteriors are conservative.
    """
    llr = _checked_llr(llr, spec, max_queries, list_size, max_weight, "gcd_decode")
    k = len(llr)

    hard = hard_decision(llr)
    mag = np.abs(llr)
    order = np.argsort(mag, kind="stable")  # least reliable first
    r = spec.degree

    col_bits, syn_hard = _syndromes(spec, hard)

    # greedy basis over the reliability order: the first ``degree`` positions
    # with independent columns become the solved part P, everything else the
    # guessed part S; each basis row remembers which P columns built it so a
    # syndrome can be traced back to the P flips that cancel it
    solved: list[int] = []
    guessed: list[int] = []
    basis: list[tuple[int, int, int]] = []  # (pivot bit, reduced column, P combination)
    for pos in order.tolist():
        if len(solved) < r:
            vec = int(col_bits[pos])
            comb = 1 << len(solved)
            for pivot, b_vec, b_comb in basis:
                if (vec >> pivot) & 1:
                    vec ^= b_vec
                    comb ^= b_comb
            if vec:
                basis.append((vec.bit_length() - 1, vec, comb))
                solved.append(pos)
                continue
        guessed.append(pos)
    solved_idx = np.array(solved, dtype=np.int64)
    guessed_idx = np.array(guessed, dtype=np.int64)
    sm = k - r

    mag_s = mag[guessed_idx]
    mag_p = mag[solved_idx]
    cols_s = col_bits[guessed_idx]
    log_keep = -np.logaddexp(0.0, -mag).sum()
    log_keep_s = -np.logaddexp(0.0, -mag_s).sum()

    # the P flips are a linear image of the syndrome, so each S flip maps to
    # the P combination that cancels its column and a query's P flips are
    # those of the hard decision XOR those of its S flips: tabulated per byte
    # of S ranks, the solve costs no more lookups than the syndrome would
    unit = np.zeros(r, dtype=np.uint64)
    for i in range(r):
        t, e = 1 << i, 0
        for pivot, b_vec, b_comb in basis:
            if (t >> pivot) & 1:
                t ^= b_vec
                e ^= b_comb
        unit[i] = e
    n_bytes = (r + 7) // 8
    solve_tab = _byte_tables(unit, np.bitwise_xor)
    combs = _gather(solve_tab, _int_planes(np.append(cols_s, syn_hard), n_bytes),
                    np.bitwise_xor)
    comb_s, comb_hard = combs[:-1], combs[-1]
    comb_tab = _byte_tables(comb_s, np.bitwise_xor)
    cost_s_tab = _byte_tables(mag_s, np.add)
    cost_p_tab = _byte_tables(mag_p, np.add)

    # the whole budget prefix of the schedule over S in one pass; slices of
    # _CHUNK rows keep the temporaries in cache
    budget = max_queries
    if max_weight is not None:
        # build no deeper than the last weight class allowed
        top = min(max_weight, sm * (sm + 1) // 2, budget - 1)
        budget = min(budget, int(_class_sizes(sm, top, budget).sum()))
    sched = _schedule(sm, budget)
    queries = min(budget, sched.limit(max_weight)[0])
    lp = np.empty(queries)
    phi_sum = psi_sum = 0.0
    for lo in range(0, queries, _CHUNK):
        hi = min(queries, lo + _CHUNK)
        comb, cost_s = _xor_and_sum(sched.planes[:, lo:hi], comb_tab, cost_s_tab)
        cost_p = _gather(cost_p_tab, _int_planes(comb_hard ^ comb, n_bytes), np.add)
        lp[lo:hi] = log_keep - cost_s - cost_p
        phi_sum += float(np.exp(lp[lo:hi]).sum())
        psi_sum += float(np.exp(log_keep_s - cost_s).sum())
    # best first; ties keep schedule order
    if list_size == 1:
        best = [int(np.argmax(lp))]
    else:
        best = np.argsort(-lp, kind="stable")[:list_size].tolist()

    cands = []
    for row in best:
        word = hard.copy()
        s_flips = np.unpackbits(sched.planes[:, row], bitorder="little")[:sm].astype(bool)
        word[guessed_idx[s_flips]] ^= 1
        p_comb = int(comb_hard ^ np.bitwise_xor.reduce(comb_s[s_flips]))
        for j in range(r):
            if (p_comb >> j) & 1:
                word[solved_idx[j]] ^= 1
        cands.append(word)
    log_phi = lp[best]
    r_term = max(0.0, 1.0 - psi_sum)
    denom = phi_sum + r_term
    so = np.exp(log_phi) / denom if denom > 0.0 and cands else np.zeros(len(cands))
    return OuterDecodeOutput(
        candidates=tuple(cands),
        so=tuple(float(v) for v in so),
        queries_used=queries,
        found=bool(cands),
    )
