"""Complete decoding: inner list decoding, outer guessing, threshold test.

The control flow always ends in a decision.  CRC-passing inner candidates
win outright; otherwise the channel LLRs are converted to outer-code LLRs
and the guessing decoder takes over; if even that finds nothing, the hard
decision of the outer LLRs is emitted with zero confidence.  An optional
threshold on the blockwise soft output turns low-confidence decisions into
flagged erasures, with an optional single retry through the outer decoder
when the inner decision is the one that failed the test.  ``outer_decisions``
runs the outer stage on a block of trials at once; ``resolve_decision``
hands it a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crc import CrcSpec
from .outer import gcd_decode_block, hard_decision, outer_llr, sogrand_decode_block
from .polar import PolarCode
from .scl import _checked_list_size, ca_select_batch, scl_decode_batch

__all__ = ["PipelineConfig", "DecodeResult", "threshold_test", "cca_scl_decode",
           "resolve_decision", "outer_decisions", "InnerDecision"]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one complete-decoder instance needs."""

    code: PolarCode
    spec: CrcSpec
    list_size: int
    epsilon: float | None = None
    retry_on_threshold_fail: bool = False
    outer_max_queries: int = 1 << 16
    outer_list_size: int = 1
    outer_max_weight: int | None = None
    outer_decoder: str = "sogrand"  # pattern guessing | "gcd" codeword guessing

    def __post_init__(self):
        _checked_list_size(self.list_size)
        k = len(self.code.info)
        if self.spec.degree >= k:
            raise ValueError(
                f"{self.spec.degree} parity bits leave no message in {k} info bits"
            )
        if self.epsilon is None:
            if self.retry_on_threshold_fail:
                raise ValueError("retry_on_threshold_fail needs a threshold epsilon")
        elif not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if self.outer_max_queries < 1 or self.outer_list_size < 1:
            raise ValueError("outer budget and list size must be >= 1")
        if self.outer_max_weight is not None and self.outer_max_weight < 0:
            raise ValueError("outer_max_weight must be >= 0")
        if self.outer_decoder not in ("sogrand", "gcd"):
            raise ValueError(f"unknown outer decoder {self.outer_decoder!r}")

    @property
    def m_msg(self) -> int:
        return len(self.code.info) - self.spec.degree


@dataclass(frozen=True)
class DecodeResult:
    """One decision: the message, its confidence, and where it came from."""

    message: np.ndarray
    so: float
    origin: str  # "inner" | "outer" | "fallback"
    erased: bool
    inner_pass_count: int
    outer_queries: int


@dataclass(frozen=True)
class InnerDecision:
    """CRC-passing inner selection handed to resolve_decision."""

    window: np.ndarray  # K-bit CRC word at the information positions
    so: float
    pass_count: int


def threshold_test(so: float, epsilon: float) -> bool:
    """Accept a decision: strictly above 1 - epsilon."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    return so > 1.0 - epsilon


def outer_decisions(lo: np.ndarray, cfg: PipelineConfig) -> list[tuple]:
    """The outer decoder's decision for each row of a (trials, K) block of
    outer LLRs, all rows decoded together.

    Each row gives (message, so, origin, queries): the best candidate's
    message bits, or the hard decision with zero confidence ("fallback")
    when the guesser found nothing within its budget.
    """
    decode = gcd_decode_block if cfg.outer_decoder == "gcd" else sogrand_decode_block
    outs = decode(lo, cfg.spec, max_queries=cfg.outer_max_queries,
                  list_size=cfg.outer_list_size, max_weight=cfg.outer_max_weight)
    m = cfg.m_msg
    return [(out.candidates[0][:m], out.so[0], "outer", out.queries_used) if out.found
            else (hard_decision(row)[:m], 0.0, "fallback", out.queries_used)
            for row, out in zip(lo, outs)]


def resolve_decision(lo: np.ndarray, inner: InnerDecision | None,
                     cfg: PipelineConfig) -> DecodeResult:
    """Finish a trial whose inner stage already ran.

    ``lo`` holds the trial's outer LLRs (``outer_llr`` of its channel LLRs);
    the outer decoder reads nothing else.  ``inner`` carries the CRC-passing
    selection, or None when no list candidate passed.
    """
    k = len(cfg.code.info)
    if np.shape(lo) != (k,):
        raise ValueError(f"expected the {k} outer LLRs of one trial, got shape {np.shape(lo)}")
    block = np.asarray(lo, dtype=np.float64)[None]
    m = cfg.m_msg
    if inner is not None:
        message, so, origin = inner.window[:m].copy(), inner.so, "inner"
        pass_count, queries = inner.pass_count, 0
    else:
        message, so, origin, queries = outer_decisions(block, cfg)[0]
        pass_count = 0

    if cfg.epsilon is None:
        return DecodeResult(message, so, origin, False, pass_count, queries)
    if threshold_test(so, cfg.epsilon):
        return DecodeResult(message, so, origin, False, pass_count, queries)
    if cfg.retry_on_threshold_fail and origin == "inner":
        alt_msg, alt_so, alt_origin, queries = outer_decisions(block, cfg)[0]
        if threshold_test(alt_so, cfg.epsilon):
            return DecodeResult(alt_msg, alt_so, alt_origin, False, pass_count, queries)
        if alt_so > so:
            return DecodeResult(alt_msg, alt_so, alt_origin, True, pass_count, queries)
    return DecodeResult(message, so, origin, True, pass_count, queries)


def cca_scl_decode(llr: np.ndarray, cfg: PipelineConfig) -> DecodeResult:
    """Decode one word end to end: the batch inner path on a single row.

    Never raises on a valid config and LLRs without NaN.
    """
    llr = np.asarray(llr, dtype=np.float64)
    sel = ca_select_batch(scl_decode_batch(llr, cfg.code, cfg.list_size), cfg.spec)
    inner = None
    if sel["found"][0]:
        inner = InnerDecision(sel["message"][0], float(sel["so"][0]),
                              int(sel["pass_count"][0]))
    return resolve_decision(outer_llr(llr, cfg.code), inner, cfg)
