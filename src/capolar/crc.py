"""CRC outer codes over GF(2).

Bits are numpy arrays with the highest-degree coefficient first.  Encoding is
plain polynomial long division with zero initialisation: the parity bits are
the remainder of msg(x) * x^r divided by the generator, appended after the
message.  The syndrome of a word is its polynomial remainder, which equals
H_O @ word for the parity-check matrix of the systematic code.

There is one parity-check format: position j's column x^(length-1-j) mod g
packed into an int64, bit i for check i (the coefficient of x^(r-1-i)), so a
syndrome is the XOR of the columns at a word's 1-bits, 0 when it passes.  An
int64 holds at most 63 checks, the limit on a generator's degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CrcSpec",
    "CRC6",
    "CRC11",
    "CRC24C",
    "crc_spec_for",
    "crc_encode",
    "crc_syndrome",
]


@dataclass(frozen=True)
class CrcSpec:
    """Generator polynomial of a CRC code, coefficients highest degree first."""

    poly: tuple[int, ...]

    def __post_init__(self):
        if len(self.poly) < 2:
            raise ValueError("generator polynomial needs degree >= 1")
        if any(c not in (0, 1) for c in self.poly):
            raise ValueError("polynomial coefficients must be 0 or 1")
        if self.poly[0] != 1:
            raise ValueError("leading coefficient of the generator must be 1")
        if len(self.poly) > 64:
            raise ValueError(f"degree {len(self.poly) - 1}: the packed checks hold at most 63")

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    def parity_check(self, length: int) -> np.ndarray:
        """H_O for words of ``length`` bits: column j is x^(length-1-j) mod g."""
        return _unpack(_parity_columns(self, length), self.degree).T


# 3GPP TS 38.212 generators used with polar codes
CRC6 = CrcSpec((1, 1, 0, 0, 0, 0, 1))
CRC11 = CrcSpec((1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1))
CRC24C = CrcSpec((1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1))

_DEFAULT_SPECS = {6: CRC6, 11: CRC11, 24: CRC24C}


def crc_spec_for(parity_bits: int) -> CrcSpec:
    """Default generator for a given parity length r = K - M."""
    try:
        return _DEFAULT_SPECS[parity_bits]
    except KeyError:
        known = sorted(_DEFAULT_SPECS)
        raise ValueError(
            f"no default CRC with r={parity_bits} parity bits (known: {known}); "
            "pass an explicit polynomial"
        ) from None


@lru_cache(maxsize=None)
def _parity_columns(spec: CrcSpec, length: int) -> np.ndarray:
    """Packed parity-check columns of ``length``-bit words (module docstring):
    times x, bit i moves to bit i-1, and bit 0 becomes x^r, the generator's
    lower terms."""
    low = sum(c << i for i, c in enumerate(spec.poly[1:]))
    cols = np.empty(length, dtype=np.int64)
    rem = 1 << (spec.degree - 1)  # x^0
    for j in range(length - 1, -1, -1):
        cols[j] = rem
        rem = (rem >> 1) ^ (low if rem & 1 else 0)
    cols.setflags(write=False)
    return cols


def _unpack(packed: np.ndarray, r: int) -> np.ndarray:
    """The r check bits of each packed integer, along a new last axis."""
    return ((packed[..., None] >> np.arange(r)) & 1).astype(np.uint8)


def _packed_syndrome(word: np.ndarray, spec: CrcSpec) -> np.ndarray:
    """Syndrome of ``word`` along its last axis, packed: 0 means it passes."""
    word = np.asarray(word, dtype=np.uint8)
    if word.shape[-1] < spec.degree:
        raise ValueError(
            f"word of {word.shape[-1]} bits is shorter than the {spec.degree}-bit parity"
        )
    return np.bitwise_xor.reduce(_parity_columns(spec, word.shape[-1]) * word, axis=-1)


def crc_encode(msg: np.ndarray, spec: CrcSpec) -> np.ndarray:
    """Append spec.degree parity bits to ``msg`` (vectorised over leading axes)."""
    msg = np.asarray(msg, dtype=np.uint8)
    if msg.shape[-1] == 0:
        raise ValueError("cannot CRC-encode an empty message")
    r = spec.degree
    # parity = remainder of msg(x) * x^r, via the columns for x^(r+j)
    cols = _parity_columns(spec, msg.shape[-1] + r)[: msg.shape[-1]]
    return np.concatenate([msg, _unpack(np.bitwise_xor.reduce(cols * msg, axis=-1), r)], axis=-1)


def crc_syndrome(word: np.ndarray, spec: CrcSpec) -> np.ndarray:
    """Polynomial remainder of ``word`` (vectorised over leading axes)."""
    return _unpack(_packed_syndrome(word, spec), spec.degree)
