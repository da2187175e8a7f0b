"""Instance matching by IoU and the derived metric suite.

Predicted and ground-truth instances are matched by strict IoU >
threshold with a threshold of at least 0.5, the regime where matching is
provably unique: a predicted instance cannot exceed 0.5 IoU with two
disjoint ground-truth instances. Matched, unmatched-predicted, and
unmatched-truth instances become TP, FP, and FN, from which the suite is
derived:

    precision = tp / (tp + fp)            recall = tp / (tp + fn)
    f1        = 2 tp / (2 tp + fp + fn)   accuracy = tp / (tp + fp + fn)
    sq        = (sum of matched IoU) / tp
    rq        = f1
    pq        = sq * rq = (sum of matched IoU) / (tp + fp/2 + fn/2)

Every ratio with a zero denominator scores 0. The identity
f1 = 2 * accuracy / (1 + accuracy) holds algebraically, and pq <= f1 with
equality iff every match has IoU 1. Background (label 0) never
participates in matching.

Overlap counting is one of the pipeline's two volume hot loops
(component labeling in label_fusion is the other). Both take the voxels
in volume_io's row blocks, so neither holds a volume whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError, MetricsError
from .report import MetricsRecord, check_iou_threshold
from .volume_io import row_blocks

# Row blocks whose counts overlap_histogram folds into its totals at once.
_FOLD = 16
# Ascending keys and their counts, as np.unique(..., return_counts=True) gives.
_Counts = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of IoU matching between two instance volumes.

    Attributes:
        matches: (pred_id, gt_id, iou) triples, ascending by pred_id, with
            every iou strictly above iou_threshold.
        unmatched_pred: Predicted ids with no match (the FP set), ascending.
        unmatched_gt: Ground-truth ids with no match (the FN set), ascending.
        iou_threshold: The strict matching threshold, in [0.5, 1).
    """

    matches: tuple[tuple[int, int, float], ...]
    unmatched_pred: tuple[int, ...]
    unmatched_gt: tuple[int, ...]
    iou_threshold: float

    @property
    def sum_iou(self) -> float:
        return sum(iou for _, _, iou in self.matches)


def overlap_histogram(
    pred, gt
) -> tuple[dict[tuple[int, int], int], dict[int, int], dict[int, int]]:
    """Count overlap voxels per (pred_id, gt_id) pair plus per-id totals.

    A volume here is anything with a ``.header`` and a ``planes()`` that
    yields its z-planes in z order: a LabelVolume, or a volume_io reader
    open on a file, whose planes are read as they are drawn. The shapes
    are compared, from the headers, before the first plane is drawn. The
    two volumes are cut alike into volume_io's row blocks, the aligned
    blocks counted pair by pair and their counts folded into the totals
    in groups, so the scratch is a few blocks' keys and an open reader's
    volume is never whole. The counts are exact integers, summed in
    ascending key order.

    Args:
        pred: Predicted instance volume.
        gt: Ground-truth instance volume of the same shape.

    Returns:
        (pairs, pred_totals, gt_totals): pairs maps (pred_id, gt_id) to the
        count of voxels carrying both labels, in ascending (pred_id, gt_id)
        order; background (0) never participates. The totals map every
        foreground id of each volume to its voxel count. IoU(p, g) is
        derivable as pairs[p, g] / (pred_totals[p] + gt_totals[g] -
        pairs[p, g]).

    Raises:
        MetricsError: On a shape mismatch.
    """
    shape = pred.header.shape
    if shape != gt.header.shape:
        raise MetricsError(f"pred shape {shape} does not match gt shape {gt.header.shape}")
    parts = []
    blocks = zip(row_blocks(shape, pred.planes()), row_blocks(shape, gt.planes()))
    for (_, p), (_, g) in blocks:
        parts.append(_block_counts(p, g))
        if len(parts) == _FOLD:
            parts = [list(map(_merged_counts, zip(*parts)))]
    (keys, counts), pred_totals, gt_totals = map(_merged_counts, zip(*parts))
    pred_ids = (keys >> np.uint64(32)).tolist()
    gt_ids = (keys & np.uint64(0xFFFFFFFF)).tolist()
    pairs = dict(zip(zip(pred_ids, gt_ids), counts.tolist()))
    return pairs, _as_dict(*pred_totals), _as_dict(*gt_totals)


def _block_counts(p: np.ndarray, g: np.ndarray) -> list[_Counts]:
    # One block's counts of its pairs and of p's and g's foreground ids,
    # from masks made once. A pair packs into one (p << 32) | g key, so one
    # sort counts pairs in (p, g) order.
    p_fg = p > 0
    g_fg = g > 0
    totals = [np.unique(v[fg], return_counts=True) for v, fg in ((p, p_fg), (g, g_fg))]
    both = np.logical_and(p_fg, g_fg, out=p_fg)
    keys = p[both].astype(np.uint64)
    keys <<= np.uint64(32)
    keys |= g[both]
    return [np.unique(keys, return_counts=True), *totals]


def _merged_counts(parts: tuple[_Counts, ...]) -> _Counts:
    # Sum the blocks' counts per key, in ascending key order.
    keys, inverse = np.unique(np.concatenate([k for k, _ in parts]), return_inverse=True)
    counts = np.zeros(keys.size, dtype=np.int64)
    np.add.at(counts, inverse, np.concatenate([c for _, c in parts]))
    return keys, counts


def _as_dict(keys: np.ndarray, counts: np.ndarray) -> dict[int, int]:
    return dict(zip(keys.tolist(), counts.tolist()))


def match_instances(pred, gt, iou_threshold: float = 0.5) -> MatchResult:
    """Match instances across volumes by strict IoU > iou_threshold.

    Args:
        pred: Predicted instance volume: a ``.header`` plus ``planes()`` in
            z order, as overlap_histogram takes it.
        gt: Ground-truth instance volume of the same shape, likewise.
        iou_threshold: Strict threshold in [0.5, 1); 0.5 guarantees a
            unique matching.

    Returns:
        A MatchResult partitioning both id sets.

    Raises:
        MetricsError: On shape mismatch or a threshold outside [0.5, 1).
    """
    check_iou_threshold(iou_threshold, MetricsError)
    pairs, pred_totals, gt_totals = overlap_histogram(pred, gt)
    matches: list[tuple[int, int, float]] = []
    matched_pred: set[int] = set()
    matched_gt: set[int] = set()
    # pairs iterates in ascending (pred, gt) order, so sum_iou adds in that order.
    for (p, g), inter in pairs.items():
        union = pred_totals[p] + gt_totals[g] - inter
        iou = inter / union
        if iou > iou_threshold:
            if p in matched_pred or g in matched_gt:
                raise InternalError(
                    "duplicate match despite threshold >= 0.5; matching is broken"
                )
            matches.append((p, g, iou))
            matched_pred.add(p)
            matched_gt.add(g)
    return MatchResult(
        matches=tuple(matches),
        unmatched_pred=tuple(sorted(set(pred_totals) - matched_pred)),
        unmatched_gt=tuple(sorted(set(gt_totals) - matched_gt)),
        iou_threshold=iou_threshold,
    )


def evaluate(pred, gt, iou_threshold: float = 0.5) -> MetricsRecord:
    """Match instances by IoU and derive the metric suite from the matching.

    pred and gt are volumes as overlap_histogram takes them: a ``.header``
    plus ``planes()`` in z order, so a LabelVolume or an open reader.
    """
    m = match_instances(pred, gt, iou_threshold)
    return MetricsRecord.from_counts(
        tp=len(m.matches),
        fp=len(m.unmatched_pred),
        fn=len(m.unmatched_gt),
        sum_iou=m.sum_iou,
    )
