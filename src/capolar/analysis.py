"""Probability-domain views of the outer code, for analysis and tests.

The decoders never use these: ``outer_llr`` carries out the same
contraction in the LLR domain.  They exist so the test suite and the
selftest can check that contraction, and the correlation of CRC-word bits
that share channel positions, against closed forms and ``oracle``.
"""

from __future__ import annotations

import numpy as np

from .polar import PolarCode, _butterfly

__all__ = ["bit_prob", "convert_llr", "pair_covariance"]


def bit_prob(llr):
    """P(bit = 1) from an LLR in the package convention (logistic)."""
    llr = np.asarray(llr, dtype=np.float64)
    out = np.empty_like(llr)
    pos = llr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-llr[pos]))
    ex = np.exp(llr[~pos])
    out[~pos] = ex / (1.0 + ex)
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
    d = _butterfly(1.0 - 2.0 * b, np.multiply)
    return (0.5 - 0.5 * d)[..., code.info]


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
