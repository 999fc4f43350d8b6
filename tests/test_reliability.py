import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capolar.reliability import RELIABILITY_1024, bhattacharyya_order, sequence_for

# TS 38.212 Table 5.3.1.2-1 restricted to N=64, typed in independently from
# the standard rather than derived from the stored table.
Q64 = [
    0, 1, 2, 4, 8, 16, 32, 3, 5, 9, 6, 17, 10, 18, 12, 33,
    20, 34, 24, 36, 7, 11, 40, 19, 13, 48, 14, 21, 35, 26, 37, 25,
    22, 38, 41, 28, 42, 49, 44, 50, 15, 52, 23, 56, 27, 39, 29, 43,
    30, 45, 51, 46, 53, 54, 57, 58, 60, 31, 47, 55, 59, 61, 62, 63,
]


def test_master_table_is_permutation():
    assert np.array_equal(np.sort(RELIABILITY_1024), np.arange(1024))


def test_sequence_for_64_matches_standard():
    assert sequence_for(64).tolist() == Q64


def test_sequence_for_is_nested():
    # dropping entries >= N preserves relative order, so every shorter
    # sequence is a subsequence of every longer one
    s64 = sequence_for(64)
    for n in (2, 4, 8, 16, 32):
        assert sequence_for(n).tolist() == [q for q in s64 if q < n]


@pytest.mark.parametrize("n", [2, 4, 8, 64, 256, 1024])
def test_sequence_for_is_permutation(n):
    assert np.array_equal(np.sort(sequence_for(n)), np.arange(n))


def test_sequence_for_rejects_oversize():
    with pytest.raises(ValueError):
        sequence_for(2048)


def test_bhattacharyya_order_respects_domination():
    # on a BEC, bit-channel j upgrades bit-channel i whenever the binary
    # expansion of j covers that of i, so j may never rank less reliable
    n = 64
    order = bhattacharyya_order(n)
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    for i in range(n):
        for j in range(n):
            if i != j and (i & j) == i:
                assert pos[i] < pos[j], (i, j)


def test_bhattacharyya_order_endpoints():
    for n in (4, 16, 128):
        order = bhattacharyya_order(n)
        assert order[0] == 0
        assert order[-1] == n - 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stages=st.integers(min_value=1, max_value=12))
def test_bhattacharyya_order_is_permutation(stages):
    n = 1 << stages
    order = bhattacharyya_order(n)
    assert np.array_equal(np.sort(order), np.arange(n))
