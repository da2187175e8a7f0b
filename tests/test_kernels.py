"""Tests for the overlap-counting kernel."""

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

