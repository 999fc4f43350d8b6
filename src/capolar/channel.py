"""BPSK over AWGN with counter-based per-trial noise.

LLRs follow the convention L = log f(y|x=1) - log f(y|x=0) throughout the
package: positive values favour bit 1.  With the 0 -> +1, 1 -> -1 mapping
this gives L = -2y / sigma^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LLR_LIMIT",
    "ChannelParams",
    "modulate",
    "transmit",
    "llr_from_channel",
    "saturate_llr",
    "noise_rng",
    "message_rng",
    "message_bits",
]

LLR_LIMIT = 40.0

_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class ChannelParams:
    """AWGN operating point; sigma is derived from Eb/N0 and the rate M/N."""

    ebno_db: float
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} must lie in (0, 1]")

    @property
    def sigma(self) -> float:
        return float(np.sqrt(1.0 / (2.0 * self.rate * 10.0 ** (self.ebno_db / 10.0))))


def modulate(x: np.ndarray) -> np.ndarray:
    """BPSK: bit 0 -> +1.0, bit 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(x, dtype=np.float64)


def _streams(seed: int, trials, counter):
    """One Philox stream per trial index, keyed (seed, trial) from counter.

    Key words are reduced mod 2^64 and built as uint64, so every integer
    seed and trial maps to one exact key.  A single bit generator, local to
    the call, is re-keyed in place for each trial by setting its state (key,
    counter, empty buffer), and the same Generator is yielded each time:
    draw from it before advancing to the next trial.
    """
    keys = np.empty((len(trials), 2), dtype=np.uint64)
    keys[:, 0] = int(seed) & _U64
    keys[:, 1] = np.array([int(t) & _U64 for t in trials], dtype=np.uint64)
    bg = np.random.Philox(key=0)
    gen = np.random.Generator(bg)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.array(counter, dtype=np.uint64), "key": None},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for key in keys:
        state["state"]["key"] = key
        bg.state = state
        yield gen


_NOISE = (0, 0, 0, 0)
_MESSAGE = (0, 0, 0, 1)  # far beyond any noise draw of the same key


def noise_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Philox stream for the noise of one trial; a pure function of its key."""
    return next(_streams(seed, [trial], _NOISE))


def message_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Philox stream for message bits, disjoint from the noise stream."""
    return next(_streams(seed, [trial], _MESSAGE))


def message_bits(seed: int, trials, m: int) -> np.ndarray:
    """(len(trials), m) uint8 messages; row i equals
    ``message_rng(seed, trials[i]).integers(0, 2, m)``.

    That draw takes one 32-bit output per bit, the low half of each 64-bit
    Philox word first, and returns its top bit: Lemire's bounded draw for a
    range of 2, which never rejects.  So each trial pulls ceil(m / 2) raw
    words and the whole block is unpacked at once.
    """
    n_words = (m + 1) // 2
    words = np.empty((len(trials), n_words), dtype=np.uint64)
    for row, gen in zip(words, _streams(seed, trials, _MESSAGE)):
        row[:] = gen.bit_generator.random_raw(n_words)
    bits = np.stack([(words >> np.uint64(31)) & np.uint64(1), words >> np.uint64(63)], axis=-1)
    return bits.reshape(len(words), 2 * n_words)[:, :m].astype(np.uint8)


def transmit(s: np.ndarray, params: ChannelParams, seed: int, trial=0) -> np.ndarray:
    """y = s + sigma * z with z drawn from the (seed, trial) noise stream.

    ``trial`` is one index, or a 1-D sequence of indices with one row of s
    per trial: row i then takes its noise from the stream of trial[i].
    """
    s = np.asarray(s, dtype=np.float64)
    if np.ndim(trial) == 0:
        z = noise_rng(seed, trial).standard_normal(s.shape)
    else:
        if s.shape[:1] != (len(trial),):
            raise ValueError(f"{len(trial)} trial indices for signal shape {s.shape}")
        z = np.empty_like(s)
        for row, gen in zip(z.reshape(len(z), -1), _streams(seed, trial, _NOISE)):
            gen.standard_normal(out=row)
    return s + params.sigma * z


def llr_from_channel(y: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Exact channel LLRs -2y/sigma^2 (unsaturated)."""
    return -2.0 * np.asarray(y, dtype=np.float64) / params.sigma**2


def saturate_llr(llr: np.ndarray) -> np.ndarray:
    """Clip LLR magnitudes to ``LLR_LIMIT`` before decoding."""
    return np.clip(llr, -LLR_LIMIT, LLR_LIMIT)
