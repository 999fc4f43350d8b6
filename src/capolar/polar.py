"""Polar code construction and encoding.

The polar transform is x = u F^(x)n with F = [[1, 0], [1, 1]] acting on row
vectors; it is its own inverse.  Bit positions are 0-based and index 0 is
transmitted first.  The frozen set holds the N-K least reliable positions of
the chosen reliability order; the information set carries the CRC-encoded
message in ascending position order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .crc import CrcSpec, crc_encode
from .reliability import bhattacharyya_order, sequence_for

__all__ = [
    "CodeDims",
    "PolarCode",
    "polar_transform",
    "construct_polar",
    "encode_nonsystematic",
    "encode_systematic",
    "ca_encode",
]


def _checked_int(value, name: str, low: int | None = 1) -> int:
    """``value`` as an int >= ``low`` (unless None), or an error naming it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


@dataclass(frozen=True)
class CodeDims:
    """[N, K, M]: block length, CRC-encoded length, message length."""

    n_code: int
    k_crc: int
    m_msg: int

    def __post_init__(self):
        # stored as plain ints, which every consumer can use
        for name in ("n_code", "k_crc", "m_msg"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name, None))
        n, k, m = self.n_code, self.k_crc, self.m_msg
        if n < 2 or n & (n - 1):
            raise ValueError(f"N={n} must be a power of two >= 2")
        if not 0 < k <= n:
            raise ValueError(f"K={k} must satisfy 0 < K <= N={n}")
        if not 0 < m < k:
            raise ValueError(f"M={m} must satisfy 0 < M < K={k}")

    @property
    def parity_bits(self) -> int:
        return self.k_crc - self.m_msg

    @property
    def rate(self) -> float:
        """Overall rate M/N used for Eb/N0 accounting."""
        return self.m_msg / self.n_code


@dataclass(frozen=True, eq=False)
class PolarCode:
    """Frozen/information split of the polar input vector.

    ``frozen`` and ``info`` are sorted 0-based position arrays partitioning
    0..N-1.  ``systematic`` selects where the CRC word is read off a decoded
    path: positions A of u for the plain code, positions A of x for the
    systematic arrangement.
    """

    n_code: int
    frozen: np.ndarray
    info: np.ndarray
    systematic: bool = False
    method: str = "5g"

    def __post_init__(self):
        n = _checked_int(self.n_code, "n_code", None)
        if n < 2 or n & (n - 1):
            raise ValueError(f"N={n} must be a power of two >= 2")
        frozen = np.sort(np.asarray(self.frozen, dtype=np.int64))
        info = np.sort(np.asarray(self.info, dtype=np.int64))
        merged = np.concatenate([frozen, info])
        if len(merged) != n or not np.array_equal(np.sort(merged), np.arange(n)):
            raise ValueError("frozen and info sets must partition 0..N-1")
        frozen.setflags(write=False)
        info.setflags(write=False)
        object.__setattr__(self, "n_code", n)
        object.__setattr__(self, "frozen", frozen)
        object.__setattr__(self, "info", info)

    @property
    def stages(self) -> int:
        return self.n_code.bit_length() - 1

    @property
    def k_crc(self) -> int:
        return len(self.info)


def _butterfly(vals, combine, dtype=None) -> np.ndarray:
    """The F^(x)n butterfly along the last axis of a copy of ``vals``, with
    ``combine(a, b, out=a)`` joining the two halves of every block: XOR is
    the transform, and any soft XOR carries bit statistics through it.

    The work runs width-major, on a copy with the butterfly axis first, so
    each half is one contiguous run across all leading rows instead of a
    short run per row."""
    work = np.array(np.moveaxis(np.asarray(vals), -1, 0), dtype=dtype, order="C")
    n, rows = work.shape[0], math.prod(work.shape[1:])
    half = 1
    while half < n:
        blocks = work.reshape(n // (2 * half), 2, half * rows)
        combine(blocks[:, 0], blocks[:, 1], out=blocks[:, 0])
        half *= 2
    return np.ascontiguousarray(np.moveaxis(work, 0, -1))


def polar_transform(u: np.ndarray) -> np.ndarray:
    """Apply F^(x)n along the last axis (self-inverse XOR butterfly)."""
    u = np.asarray(u)
    n = u.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    return _butterfly(u, np.bitwise_xor, np.uint8)


def construct_polar(n_code: int, k_crc: int, method: str = "5g",
                    systematic: bool = False) -> PolarCode:
    """Freeze the N-K least reliable positions under the chosen ordering."""
    if not 0 < k_crc <= n_code:
        raise ValueError(f"K={k_crc} must satisfy 0 < K <= N={n_code}")
    if method == "5g":
        order = sequence_for(n_code)
    elif method == "bhattacharyya":
        order = bhattacharyya_order(n_code)
    else:
        raise ValueError(f"unknown construction method {method!r}")
    return PolarCode(
        n_code=n_code,
        frozen=order[: n_code - k_crc],
        info=order[n_code - k_crc:],
        systematic=systematic,
        method=method,
    )


def _embed(phi_k: np.ndarray, code: PolarCode) -> np.ndarray:
    phi_k = np.asarray(phi_k, dtype=np.uint8)
    if phi_k.shape[-1] != code.k_crc:
        raise ValueError(f"expected {code.k_crc} bits, got {phi_k.shape[-1]}")
    u = np.zeros(phi_k.shape[:-1] + (code.n_code,), dtype=np.uint8)
    u[..., code.info] = phi_k
    return u


def encode_nonsystematic(phi_k: np.ndarray, code: PolarCode) -> np.ndarray:
    """x = embed(phi_k) F^(x)n."""
    return polar_transform(_embed(phi_k, code))


def encode_systematic(phi_k: np.ndarray, code: PolarCode) -> np.ndarray:
    """Codeword with phi_k appearing verbatim at the information positions.

    Two transform passes: t = T(embed(phi_k)), then x = T(embed(t|_A)).  The
    result is a codeword of the same codebook as encode_nonsystematic with
    x|_A = phi_k whenever the information set is closed downward under the
    bitwise partial order, which holds for the shipped constructions.
    """
    t = polar_transform(_embed(phi_k, code))
    return polar_transform(_embed(t[..., code.info], code))


def ca_encode(msg: np.ndarray, code: PolarCode, spec: CrcSpec) -> np.ndarray:
    """CRC-encode msg to K bits, then polar-encode per code.systematic."""
    phi_k = crc_encode(msg, spec)
    if phi_k.shape[-1] != code.k_crc:
        raise ValueError(
            f"message of {np.asarray(msg).shape[-1]} bits + {spec.degree} parity "
            f"!= K = {code.k_crc}"
        )
    if code.systematic:
        return encode_systematic(phi_k, code)
    return encode_nonsystematic(phi_k, code)
