"""Tests for the overlap-counting and greedy-update kernels."""

import numpy as np

from coreseg import _kernels


def test_overlap_keys_sorted_and_background_free():
    pred = np.array([0, 1, 1, 2, 2, 2], dtype=np.uint32)
    gt = np.array([5, 0, 7, 7, 7, 9], dtype=np.uint32)
    keys, counts = _kernels.overlap_pairs(pred, gt)
    decoded = [(int(k >> np.uint64(32)), int(k & np.uint64(0xFFFFFFFF))) for k in keys]
    assert decoded == [(1, 7), (2, 7), (2, 9)]
    assert counts.tolist() == [1, 2, 1]
    assert decoded == sorted(decoded)


def test_overlap_empty_foreground():
    zero = np.zeros(10, dtype=np.uint32)
    keys, counts = _kernels.overlap_pairs(zero, zero)
    assert keys.size == 0 and counts.size == 0


def test_min_update_all_selected_returns_sentinel():
    min_d = np.array([0.5, 0.25])
    row = np.array([0.4, 0.9])
    out = _kernels.min_update_argmax(min_d, row, np.array([True, True]))
    assert out == -1
    np.testing.assert_array_equal(min_d, [0.4, 0.25])


def test_min_update_tie_breaks_to_lowest_index():
    min_d = np.array([np.inf, np.inf, np.inf])
    row = np.array([0.7, 0.7, 0.7])
    out = _kernels.min_update_argmax(min_d, row, np.zeros(3, dtype=bool))
    assert out == 0
