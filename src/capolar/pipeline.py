"""Complete decoding: inner list decoding, outer guessing, threshold test.

The control flow always ends in a decision.  CRC-passing inner candidates
win outright; otherwise the channel LLRs are converted to outer-code LLRs
and the guessing decoder takes over; if even that finds nothing, the hard
decision of the outer LLRs is emitted with zero confidence.  An optional
threshold on the blockwise soft output turns low-confidence decisions into
flagged erasures, with an optional single retry through the outer decoder
when the inner decision is the one that failed the test.

A decision is a row of ``decide_block``'s columns: it decides a block of
trials whose inner stage already ran, in one outer block.
``apply_threshold`` is the one erasure rule on those columns.  Every sweep
decides, and the UER sweep thresholds, through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crc import CrcSpec
from .outer import gcd_decode_block, hard_decision, outer_llr, sogrand_decode_block
from .polar import PolarCode, _checked_int

__all__ = ["PipelineConfig", "ORIGINS", "threshold_test", "apply_threshold",
           "decide_block"]

# the origin column's codes: ORIGINS[code] names the stage that decided
ORIGINS = ("inner", "outer", "fallback")
INNER, OUTER, FALLBACK = range(len(ORIGINS))


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one complete-decoder instance needs."""

    code: PolarCode
    spec: CrcSpec
    list_size: int
    retry_epsilon: float | None = None  # retry inner decisions failing this threshold
    outer_max_queries: int = 1 << 16
    outer_decoder: str = "sogrand"  # pattern guessing | "gcd" codeword guessing

    def __post_init__(self):
        # the counts are stored as plain ints, which SimConfig copies back
        for name in ("list_size", "outer_max_queries"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name))
        k = len(self.code.info)
        if self.spec.degree >= k:
            raise ValueError(
                f"{self.spec.degree} parity bits leave no message in {k} info bits"
            )
        if self.retry_epsilon is not None and not 0.0 <= self.retry_epsilon < 1.0:
            raise ValueError("retry_epsilon must lie in [0, 1)")
        if self.outer_decoder not in ("sogrand", "gcd"):
            raise ValueError(f"unknown outer decoder {self.outer_decoder!r}")

    @property
    def m_msg(self) -> int:
        return len(self.code.info) - self.spec.degree


def threshold_test(so, epsilon: float):
    """Accept a decision: SO strictly above 1 - epsilon, elementwise."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    return np.greater(so, 1.0 - epsilon)


def apply_threshold(cols: dict, epsilon: float):
    """Accept, else take the retry, else erase: the (accepted, retry taken)
    masks over ``decide_block`` columns.  A row not retried has alt_so 0,
    which no threshold accepts."""
    accepted = threshold_test(cols["so"], epsilon)
    return accepted, ~accepted & threshold_test(cols["alt_so"], epsilon)


def decide_block(sel: dict, llr: np.ndarray | None, cfg: PipelineConfig,
                 soft: bool = True) -> dict:
    """Decide each trial of a block whose inner stage already ran.

    ``sel`` is ``ca_select_batch`` of the block, ``llr`` its (trials, N)
    channel LLRs, or None for plain CA-SCL (no outer stage: a CRC failure
    is no decision).  The CRC failures and, unless ``cfg.retry_epsilon`` is
    None, the inner decisions that fail ``threshold_test`` at it are outer
    decoded in one block.  NaN LLRs are refused.

    Returns per-row columns: ``message``, ``so``, ``origin`` (ORIGINS
    codes) and ``queries`` of the decision; ``retried`` and the retry's
    ``alt_message``, ``alt_so`` and ``alt_queries`` (zero if not retried);
    ``found``, ``pass_count`` and ``so_forney`` from ``sel``.  A retry is
    taken only over an SO >= 0, so it is always an outer decision.

    ``soft=False`` leaves out ``so`` and ``alt_so``, and the outer stage
    computes no soft output; every other column is unchanged.  A retry is
    judged by its SO, so it refuses a ``cfg.retry_epsilon``.
    """
    if not soft and cfg.retry_epsilon is not None:
        raise ValueError("a retry is judged by its soft output, which soft=False leaves out")
    m = cfg.m_msg
    found = sel["found"]
    n = len(found)
    cols = {"message": sel["message"][:, :m].copy(),
            "origin": np.where(found, INNER, FALLBACK).astype(np.uint8),
            "queries": np.zeros(n, dtype=np.int64), "retried": np.zeros(n, dtype=bool),
            "alt_message": np.zeros((n, m), dtype=np.uint8),
            "alt_queries": np.zeros(n, dtype=np.int64), "found": found,
            "pass_count": sel["pass_count"], "so_forney": sel["so_forney"]}
    if soft:
        cols["so"], cols["alt_so"] = sel["so"].copy(), np.zeros(n)
    if llr is None:
        return cols
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (n, cfg.code.n_code):
        raise ValueError(f"expected the ({n}, {cfg.code.n_code}) channel LLRs of the "
                         f"selection's trials, got shape {llr.shape}")
    if np.isnan(llr).any():
        raise ValueError("channel LLRs contain NaN")
    if cfg.retry_epsilon is not None:
        cols["retried"] = found & ~threshold_test(cols["so"], cfg.retry_epsilon)
    rows = np.flatnonzero(~found | cols["retried"])

    lo = outer_llr(llr[rows], cfg.code)
    decode = gcd_decode_block if cfg.outer_decoder == "gcd" else sogrand_decode_block
    out = decode(lo, cfg.spec, max_queries=cfg.outer_max_queries, soft=soft)
    # the guesser's word, or the hard decision with zero confidence
    # ("fallback") when it found nothing within its budget
    hit = out["hit"]
    decided = {"message": np.where(hit[:, None], out["word"][:, :m],
                                   hard_decision(lo)[:, :m]),
               "queries": out["queries"]}
    if soft:
        decided["so"] = out["so"]

    # a CRC failure takes the outer decision, a retry its alt columns
    again = found[rows]
    for mask, prefix in ((~again, ""), (again, "alt_")):
        for key, col in decided.items():
            cols[prefix + key][rows[mask]] = col[mask]
    cols["origin"][rows[~again]] = np.where(hit[~again], OUTER, FALLBACK)
    return cols

