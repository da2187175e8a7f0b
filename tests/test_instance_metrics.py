"""Tests for overlap counting, IoU matching, and the metric suite."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreseg import volume_io
from coreseg.errors import MetricsError
from coreseg.instance_metrics import MatchResult, evaluate, match_instances, overlap_histogram
from coreseg.provenance import InputDigest
from coreseg.report import (
    CSV_COLUMNS,
    MetricsRecord,
    metrics_csv_text,
    metrics_kv_text,
    parse_metrics_csv,
)
from coreseg.volume_io import KIND_INSTANCE, VolumeHeader, _PlaneReader, read_volume, write_volume

from helpers import instance_volume

# Every cell of a valid metrics row after its budget cell, threshold last.
VALID_ROW_AFTER_BUDGET = ",1,0,0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,0.5\n"


def naive_histogram(pred, gt):
    pairs = {}
    pred_totals = {}
    gt_totals = {}
    for p, g in zip(pred.voxels.ravel().tolist(), gt.voxels.ravel().tolist()):
        if p > 0:
            pred_totals[p] = pred_totals.get(p, 0) + 1
        if g > 0:
            gt_totals[g] = gt_totals.get(g, 0) + 1
        if p > 0 and g > 0:
            pairs[(p, g)] = pairs.get((p, g), 0) + 1
    return pairs, pred_totals, gt_totals


def random_labels(rng, shape=(6, 6, 6), k=5):
    return instance_volume(rng.integers(0, k + 1, size=shape, dtype=np.uint32))


def test_overlap_histogram_matches_naive_count():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pred = random_labels(rng)
        gt = random_labels(rng)
        got = overlap_histogram(pred, gt)
        assert got == naive_histogram(pred, gt)


def blob_pair(rng, shape, count):
    """Return (pred, gt) instance volumes of `count` small ellipsoids.

    gt paints ellipsoids of radii 2-4 at random centres; pred relabels
    gt, drops a tenth of its ids and adds a few phantom ellipsoids.
    """
    gt = np.zeros(shape, dtype=np.uint32)
    pred = np.zeros(shape, dtype=np.uint32)
    for label in range(1, count + 1):
        centre = [int(rng.integers(0, n)) for n in shape]
        radii = rng.integers(8, 17, size=3) / 4.0
        box = tuple(slice(max(c - 4, 0), min(c + 5, n)) for c, n in zip(centre, shape))
        coords = np.ogrid[box]
        body = sum(((g - c) / r) ** 2 for g, c, r in zip(coords, centre, radii)) <= 1
        gt[box][body] = label
        if label % 10 == 0:
            continue
        pred[box][body] = count + 1 - label if label % 7 else 2 * count + label
    return instance_volume(pred), instance_volume(gt)


def test_overlap_histogram_holds_a_chunk_not_the_volume():
    # Pairs and totals are counted chunk by chunk, so the allocation peak
    # stays within a tenth of one volume's bytes; counting the whole
    # volume at once holds its masks and keys, about half a volume here.
    pred, gt = blob_pair(np.random.default_rng(8), (32, 256, 256), 800)
    expected = naive_histogram(pred, gt)
    tracemalloc.start()
    try:
        got = overlap_histogram(pred, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert list(got[0]) == sorted(got[0])
    assert peak <= 0.1 * gt.header.payload_bytes, peak / gt.header.payload_bytes


def test_overlap_histogram_folds_counts_as_it_goes():
    # The chunks' counts are folded into running totals every few chunks.
    # Merging every chunk's counts at the end peaked at 0.055x one volume
    # here, with about 6 distinct keys per instance held before the merge.
    pred, gt = blob_pair(np.random.default_rng(8), (32, 256, 256), 800)
    tracemalloc.start()
    try:
        got = overlap_histogram(pred, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == naive_histogram(pred, gt)
    assert peak <= 0.04 * gt.header.payload_bytes, peak / gt.header.payload_bytes


def test_overlap_histogram_rejects_shape_mismatch():
    a = instance_volume(np.zeros((2, 2, 2), dtype=np.uint32))
    b = instance_volume(np.zeros((2, 2, 3), dtype=np.uint32))
    with pytest.raises(MetricsError, match="does not match"):
        overlap_histogram(a, b)


@pytest.mark.parametrize("chunk", [4, 15, 32, 1 << 16])
def test_overlap_histogram_counts_across_chunk_and_plane_borders(monkeypatch, chunk):
    # 3x5 planes: blocks of one row within a plane (4), one plane each (15),
    # planes gathered two at a time with a last block of one plane (32), and
    # all seven planes in one block.
    monkeypatch.setattr(volume_io, "_BLOCK_VOXELS", chunk)
    rng = np.random.default_rng(9)
    pred, gt = random_labels(rng, (7, 3, 5)), random_labels(rng, (7, 3, 5))
    assert overlap_histogram(pred, gt) == naive_histogram(pred, gt)


def test_shape_mismatch_is_refused_before_the_first_plane_pair():
    # An open reader reads its payload as its planes are drawn, so a
    # mismatch must be refused, from the headers, before either is drawn.
    class Unread:
        def __init__(self, shape):
            self.header = VolumeHeader(shape=shape, value_kind=KIND_INSTANCE)

        def planes(self):
            raise AssertionError("a plane was drawn")

    for score in (overlap_histogram, match_instances, evaluate):
        with pytest.raises(MetricsError) as info:
            score(Unread((2, 2, 2)), Unread((2, 2, 3)))
        assert str(info.value) == "pred shape (2, 2, 2) does not match gt shape (2, 2, 3)"


@pytest.mark.parametrize("score", [overlap_histogram, match_instances, evaluate])
def test_open_readers_score_as_the_volumes_read_from_them(tmp_path, score):
    pred, gt = blob_pair(np.random.default_rng(4), (6, 40, 50), 60)
    paths = [tmp_path / "pred.vol3d", tmp_path / "gt.vol3d"]
    for vol, path in zip((pred, gt), paths):
        write_volume(vol, path)
    expected = score(*map(read_volume, paths))
    assert expected == score(pred, gt)
    digests = []
    with _PlaneReader(paths[0], digests) as p, _PlaneReader(paths[1], digests) as g:
        assert score(p, g) == expected
    assert digests == [InputDigest(x, hashlib.sha256(x.read_bytes()).hexdigest()) for x in paths]


def test_overlap_histogram_pairs_sorted_and_background_free():
    top = 2**32 - 1
    pred = instance_volume(np.array([[[0, 1, 1, 2, 2, 2, top]]]))
    gt = instance_volume(np.array([[[5, 0, 7, 7, 7, 9, top]]]))
    pairs, pred_totals, gt_totals = overlap_histogram(pred, gt)
    # match_instances walks pairs in this order, so it must be ascending.
    assert list(pairs.items()) == [((1, 7), 1), ((2, 7), 2), ((2, 9), 1), ((top, top), 1)]
    assert pred_totals == {1: 2, 2: 3, top: 1}
    assert gt_totals == {5: 1, 7: 3, 9: 1, top: 1}


def test_overlap_histogram_empty_foreground():
    zero = instance_volume(np.zeros((1, 1, 10)))
    assert overlap_histogram(zero, zero) == ({}, {}, {})


def hand_case():
    """One matched pair at IoU 0.8, one extra prediction, one missed truth.

    pred instance 1 covers 5 voxels, gt instance 1 covers 4, overlapping
    on 4, so IoU = 4 / (5 + 4 - 4) = 0.8. pred 2 and gt 2 are disjoint
    singletons.
    """
    pred = np.zeros((1, 2, 8), dtype=np.uint32)
    gt = np.zeros((1, 2, 8), dtype=np.uint32)
    pred[0, 0, 0:5] = 1
    gt[0, 0, 0:4] = 1
    pred[0, 1, 0] = 2
    gt[0, 1, 4] = 2
    return instance_volume(pred), instance_volume(gt)


def test_match_instances_hand_case():
    pred, gt = hand_case()
    m = match_instances(pred, gt, 0.5)
    assert m.matches == ((1, 1, 0.8),)
    assert m.unmatched_pred == (2,)
    assert m.unmatched_gt == (2,)
    assert m.sum_iou == 0.8


def test_metrics_hand_arithmetic():
    pred, gt = hand_case()
    r = evaluate(pred, gt, 0.5)
    assert (r.tp, r.fp, r.fn) == (1, 1, 1)
    assert r.precision == 0.5
    assert r.recall == 0.5
    assert r.f1 == 0.5
    assert r.accuracy == pytest.approx(1 / 3)
    assert r.sq == 0.8
    assert r.rq == 0.5
    assert r.pq == 0.4


def test_matching_is_strictly_greater_than_threshold():
    # IoU exactly 0.5: one shared voxel, pred singleton inside a 2-voxel gt.
    pred = np.zeros((1, 1, 4), dtype=np.uint32)
    gt = np.zeros((1, 1, 4), dtype=np.uint32)
    pred[0, 0, 0] = 1
    gt[0, 0, 0:2] = 1
    m = match_instances(instance_volume(pred), instance_volume(gt), 0.5)
    assert m.matches == ()
    assert m.unmatched_pred == (1,)
    assert m.unmatched_gt == (1,)


@pytest.mark.parametrize("bad", [0.49, 1.0, 0.0, -0.5, 1.5])
def test_threshold_domain(bad):
    pred, gt = hand_case()
    with pytest.raises(MetricsError, match="threshold"):
        match_instances(pred, gt, bad)


def test_self_identity_scores_all_ones():
    rng = np.random.default_rng(3)
    for _ in range(5):
        vol = random_labels(rng)
        if int(vol.voxels.max()) == 0:
            continue
        r = evaluate(vol, vol, 0.5)
        k = len(np.unique(vol.voxels[vol.voxels > 0]))
        assert (r.tp, r.fp, r.fn) == (k, 0, 0)
        for name in ("precision", "recall", "f1", "accuracy", "sq", "rq", "pq"):
            assert getattr(r, name) == 1.0


def test_empty_prediction_counts_all_truth_as_missed():
    rng = np.random.default_rng(4)
    gt = random_labels(rng)
    k = len(np.unique(gt.voxels[gt.voxels > 0]))
    empty = instance_volume(np.zeros(gt.voxels.shape, dtype=np.uint32))
    r = evaluate(empty, gt, 0.5)
    assert (r.tp, r.fp, r.fn) == (0, 0, k)
    assert r.f1 == 0.0 and r.pq == 0.0
    r2 = evaluate(gt, empty, 0.5)
    assert (r2.tp, r2.fp, r2.fn) == (0, k, 0)


def test_both_empty_gives_all_zero_scores():
    empty = instance_volume(np.zeros((2, 2, 2), dtype=np.uint32))
    r = evaluate(empty, empty, 0.5)
    assert (r.tp, r.fp, r.fn) == (0, 0, 0)
    for name in ("precision", "recall", "f1", "accuracy", "sq", "rq", "pq"):
        assert getattr(r, name) == 0.0


def test_swapping_arguments_transposes_counts():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = random_labels(rng)
        b = random_labels(rng)
        ra = evaluate(a, b, 0.5)
        rb = evaluate(b, a, 0.5)
        assert (ra.tp, ra.fp, ra.fn) == (rb.tp, rb.fn, rb.fp)
        assert ra.precision == rb.recall and ra.recall == rb.precision
        assert ra.f1 == rb.f1
        assert ra.accuracy == rb.accuracy
        assert ra.sq == rb.sq
        assert ra.pq == rb.pq


def test_relabeling_instances_changes_nothing():
    rng = np.random.default_rng(6)
    pred = random_labels(rng)
    gt = random_labels(rng)
    base = evaluate(pred, gt, 0.5)
    perm = np.array([0, 3, 5, 1, 4, 2], dtype=np.uint32)  # permutes ids 1..5
    permuted = instance_volume(perm[pred.voxels])
    shuffled = evaluate(permuted, gt, 0.5)
    assert (base.tp, base.fp, base.fn) == (shuffled.tp, shuffled.fp, shuffled.fn)
    assert base.pq == pytest.approx(shuffled.pq, abs=1e-12)


def test_f1_accuracy_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = evaluate(random_labels(rng), random_labels(rng), 0.5)
        if r.accuracy > 0:
            assert abs(2 * r.accuracy / (1 + r.accuracy) - r.f1) <= 1e-12
        assert r.rq == r.f1
        assert r.pq == r.sq * r.rq


def test_higher_threshold_cannot_add_matches():
    rng = np.random.default_rng(8)
    pred = random_labels(rng, shape=(8, 8, 8), k=4)
    gt = random_labels(rng, shape=(8, 8, 8), k=4)
    low = match_instances(pred, gt, 0.5)
    high = match_instances(pred, gt, 0.75)
    assert set(high.matches).issubset(set(low.matches))
    assert len(high.matches) <= len(low.matches)


def test_match_result_outputs_sorted():
    rng = np.random.default_rng(9)
    pred = random_labels(rng, shape=(10, 10, 10), k=6)
    gt = random_labels(rng, shape=(10, 10, 10), k=6)
    m = match_instances(pred, gt, 0.5)
    assert list(m.unmatched_pred) == sorted(m.unmatched_pred)
    assert list(m.unmatched_gt) == sorted(m.unmatched_gt)
    pred_ids = [p for p, _, _ in m.matches]
    assert pred_ids == sorted(pred_ids)


def test_csv_round_trip():
    pred, gt = hand_case()
    record = evaluate(pred, gt, 0.5)
    text = metrics_csv_text(record, 64, 0.5)
    budget, back, threshold = parse_metrics_csv(text)
    assert budget == 64
    assert threshold == 0.5
    assert back == record  # repr round-trips floats exactly


def test_csv_columns_are_the_documented_file_format():
    # CSV_COLUMNS is derived from MetricsRecord's field order, so this pins
    # the order the README documents: reordering the fields is a test edit.
    assert CSV_COLUMNS == (
        "budget", "tp", "fp", "fn", "precision", "recall", "f1", "accuracy",
        "sq", "rq", "pq", "iou_threshold",
    )


def test_csv_and_kv_layout():
    record = MetricsRecord.from_counts(tp=1, fp=1, fn=1, sum_iou=0.8)
    csv = metrics_csv_text(record, 8, 0.5)
    lines = csv.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("8,1,1,1,0.5,0.5,0.5,")
    kv = metrics_kv_text(record, 8, 0.5)
    assert "budget=8\n" in kv
    assert "sq=0.8\n" in kv
    assert "iou_threshold=0.5\n" in kv


@pytest.mark.parametrize(
    "text",
    [
        "",
        "budget,tp\n1,2\n",
        ",".join(CSV_COLUMNS) + "\n1,2,3\n",
        ",".join(CSV_COLUMNS) + "\n" + ",".join(["x"] * len(CSV_COLUMNS)) + "\n",
        ",".join(CSV_COLUMNS) + "\n" + "1," * (len(CSV_COLUMNS) - 1) + "1\n" + "2," * (len(CSV_COLUMNS) - 1) + "2\n",
        ",".join(CSV_COLUMNS) + "\n+4" + VALID_ROW_AFTER_BUDGET,
        ",".join(CSV_COLUMNS) + "\n4_0" + VALID_ROW_AFTER_BUDGET,
        ",".join(CSV_COLUMNS) + "\n\u0664" + VALID_ROW_AFTER_BUDGET,
        ",".join(CSV_COLUMNS) + "\n" + "1" * 21 + VALID_ROW_AFTER_BUDGET,
        ",".join(CSV_COLUMNS) + "\n4" + VALID_ROW_AFTER_BUDGET.replace("0.5\n", "0.1\n"),
        ",".join(CSV_COLUMNS) + "\n4" + VALID_ROW_AFTER_BUDGET.replace("0.5\n", "0.5_0\n"),
        ",".join(CSV_COLUMNS) + "\n4" + VALID_ROW_AFTER_BUDGET.replace("0.5\n", " 0.5\n"),
        ",".join(CSV_COLUMNS) + "\n4" + VALID_ROW_AFTER_BUDGET.replace(",1.0,", ",\u0661.0,", 1),
    ],
)
def test_parse_metrics_csv_rejects_malformed(text):
    with pytest.raises(MetricsError):
        parse_metrics_csv(text)


def test_parse_metrics_csv_reads_valid_row():
    text = ",".join(CSV_COLUMNS) + "\n4" + VALID_ROW_AFTER_BUDGET
    assert parse_metrics_csv(text) == (4, MetricsRecord.from_counts(1, 0, 0, 1.0), 0.5)


@settings(max_examples=200, deadline=None)
@given(
    counts=st.tuples(*[st.integers(0, 10**9)] * 3),
    iou_share=st.floats(0, 1),
    threshold=st.floats(0.5, 1, exclude_max=True),
    budget=st.integers(0, 10**9),
)
def test_metrics_csv_round_trips(counts, iou_share, threshold, budget):
    # Every score and threshold the writer can emit reads back exactly.
    tp, fp, fn = counts
    record = MetricsRecord.from_counts(tp, fp, fn, iou_share * tp)
    text = metrics_csv_text(record, budget, threshold)
    assert parse_metrics_csv(text) == (budget, record, threshold)


def test_match_result_sum_iou_empty():
    m = MatchResult(matches=(), unmatched_pred=(), unmatched_gt=(), iou_threshold=0.5)
    assert m.sum_iou == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 6))
def test_identity_property(seed, k):
    rng = np.random.default_rng(seed)
    vol = random_labels(rng, shape=(4, 5, 6), k=k)
    present = int(len(np.unique(vol.voxels[vol.voxels > 0])))
    r = evaluate(vol, vol, 0.5)
    assert r.tp == present and r.fp == 0 and r.fn == 0
    if present:
        assert r.f1 == 1.0 and r.pq == 1.0
