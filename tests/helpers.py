"""Shared test utilities: independent oracles and the score fixture.

The oracles here deliberately re-derive results with algorithms unlike
the library's (breadth-first flood fill instead of union-find, full
rescans instead of incremental minima) so agreement is meaningful.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import signal
from collections import deque

import numpy as np

from coreseg import coreset, volume_io
from coreseg.coreset import EmbeddingMatrix, _distance_row, normalize_rows
from coreseg.report import LearningCurve, MetricsRecord, build_curve
from coreseg.rng import SplitMix64
from coreseg.volume_io import KIND_INSTANCE, KIND_MASK, LabelVolume, VolumeHeader

# ---------------------------------------------------------------------------
# Reference learning-curve fixture: nine budgets with pinned scores and
# their printed percent-of-full columns, used to validate metric definitions
# and reporting output against known-good numbers.
# ---------------------------------------------------------------------------

CURVE_BUDGETS = (0, 8, 16, 32, 64, 128, 256, 512, 1024)

CURVE_F1 = (0.4025, 0.4462, 0.5297, 0.5630, 0.5884, 0.6003, 0.6011, 0.6294, 0.6350)
CURVE_F1_PCT = (63.38, 70.26, 83.41, 88.66, 92.65, 94.53, 94.65, 99.12, 100.00)

CURVE_ACCURACY = (0.2521, 0.2882, 0.3603, 0.3918, 0.4170, 0.4291, 0.4298, 0.4593, 0.4652)
CURVE_ACCURACY_PCT = (54.19, 61.95, 77.45, 84.22, 89.63, 92.23, 92.39, 98.72, 100.00)

CURVE_PANOPTIC = (0.3628, 0.3962, 0.4723, 0.5038, 0.5284, 0.5405, 0.5421, 0.5689, 0.5750)
CURVE_PANOPTIC_PCT = (63.09, 68.90, 82.13, 87.61, 91.89, 93.99, 94.26, 98.93, 100.00)

CURVE_PRECISION = (0.2824, 0.3300, 0.4181, 0.4599, 0.4926, 0.5045, 0.5058, 0.5411, 0.5554)
CURVE_PRECISION_PCT = (50.85, 59.42, 75.29, 82.81, 88.70, 90.85, 91.08, 97.43, 100.00)

CURVE_PCT = {
    "f1": CURVE_F1_PCT,
    "accuracy": CURVE_ACCURACY_PCT,
    "pq": CURVE_PANOPTIC_PCT,
    "precision": CURVE_PRECISION_PCT,
}


def fixture_curve() -> LearningCurve:
    """Build the reference curve; recall and sq are implied consistently.

    recall solves f1 = 2PR/(P+R) for R, and sq = pq/f1 mirrors pq = sq*rq
    with rq = f1, so every derived-field identity holds on the fixture.
    """
    records = {}
    for i, budget in enumerate(CURVE_BUDGETS):
        f1 = CURVE_F1[i]
        acc = CURVE_ACCURACY[i]
        pq = CURVE_PANOPTIC[i]
        prec = CURVE_PRECISION[i]
        recall = prec * f1 / (2.0 * prec - f1)
        records[budget] = MetricsRecord(
            tp=0,
            fp=0,
            fn=0,
            precision=prec,
            recall=recall,
            f1=f1,
            accuracy=acc,
            sq=pq / f1,
            rq=f1,
            pq=pq,
        )
    return build_curve(records)


# ---------------------------------------------------------------------------
# Volume construction helpers
# ---------------------------------------------------------------------------


def mask_volume(arr: np.ndarray) -> LabelVolume:
    """Wrap a 0/1 array as a binary_mask LabelVolume."""
    data = np.ascontiguousarray(np.asarray(arr) != 0).astype(np.uint32)
    return LabelVolume(
        VolumeHeader(shape=tuple(data.shape), value_kind=KIND_MASK), data
    )


def instance_volume(arr: np.ndarray) -> LabelVolume:
    """Wrap a non-negative integer array as an instance_labels LabelVolume."""
    data = np.ascontiguousarray(np.asarray(arr), dtype=np.uint32)
    return LabelVolume(
        VolumeHeader(shape=tuple(data.shape), value_kind=KIND_INSTANCE), data
    )


def random_mask(rng: np.random.Generator, max_edge: int = 16) -> LabelVolume:
    """Draw a random binary volume with random shape and density."""
    shape = tuple(int(rng.integers(1, max_edge + 1)) for _ in range(3))
    density = float(rng.uniform(0.15, 0.7))
    return mask_volume(rng.random(shape) < density)


def shrink(monkeypatch, path, size):
    """Make each volume reader opened from now on cut path's payload to
    size bytes right after it opens.

    _PlaneReader.__init__ has checked the file's size against its header
    by then, and read no payload, so the payload read that follows comes
    up short. path must hold the header that write_volume writes.
    """
    real = volume_io._PlaneReader.__init__

    def open_then_truncate(reader, *args, **kwargs):
        real(reader, *args, **kwargs)
        with open(path, "r+b") as f:
            f.truncate(len(volume_io._header_bytes(reader.header)) + size)

    monkeypatch.setattr(volume_io._PlaneReader, "__init__", open_then_truncate)


def shrink_payload(monkeypatch, path, size):
    """Cut path to size bytes each time a reader takes its size by fstat,
    right after, as if the file shrank then.

    coreset.read_embeddings checks an .f32 payload's size on the whole
    file, so the read that follows comes up short, in whichever chunk holds
    byte size. volume_io's reader takes a .vol3d file's size before it
    reads the header.
    """
    real = os.fstat

    def fstat_then_truncate(fd):
        found = real(fd)
        if os.path.samestat(found, os.stat(path)):
            os.truncate(path, size)
        return found

    monkeypatch.setattr(coreset.os, "fstat", fstat_then_truncate)


class Overran(BaseException):
    """Raised by time_limit. Not an Exception, so the code under test
    cannot handle it as an error of its own."""


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise Overran in the block once it has run for seconds, so a loop
    that never ends fails its test instead of hanging the suite."""

    def overran(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Independent connected-components oracle: breadth-first flood fill
# ---------------------------------------------------------------------------


def neighbor_offsets(kind: str) -> list[tuple[int, int, int]]:
    """All neighbor offsets (both directions) for face6 / full26."""
    out = []
    for off in itertools.product((-1, 0, 1), repeat=3):
        if off == (0, 0, 0):
            continue
        if kind == "face6" and sum(abs(c) for c in off) != 1:
            continue
        out.append(off)
    return out


def bfs_label(mask: np.ndarray, kind: str) -> np.ndarray:
    """Label components by scan-order BFS flood fill.

    Visiting voxels in z-major order and assigning 1, 2, ... at each new
    seed reproduces the canonical numbering by construction.
    """
    mask = np.asarray(mask) != 0
    nz, ny, nx = mask.shape
    offsets = neighbor_offsets(kind)
    labels = np.zeros(mask.shape, dtype=np.uint32)
    current = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[z, y, x] or labels[z, y, x]:
                    continue
                current += 1
                queue = deque([(z, y, x)])
                labels[z, y, x] = current
                while queue:
                    cz, cy, cx = queue.popleft()
                    for dz, dy, dx in offsets:
                        wz, wy, wx = cz + dz, cy + dy, cx + dx
                        if (
                            0 <= wz < nz
                            and 0 <= wy < ny
                            and 0 <= wx < nx
                            and mask[wz, wy, wx]
                            and not labels[wz, wy, wx]
                        ):
                            labels[wz, wy, wx] = current
                            queue.append((wz, wy, wx))
    return labels


# ---------------------------------------------------------------------------
# Independent greedy-selection oracle: full rescan each pick
# ---------------------------------------------------------------------------


def brute_greedy(
    E: EmbeddingMatrix, budget: int, k_init: int, rng_seed: int
) -> tuple[list[str], list[float]]:
    """Reference k-center greedy: rebuild the distance matrix, rescan all
    candidates at every pick, and recompute the radius from scratch."""
    En = normalize_rows(E)
    V = En.values
    n = V.shape[0]
    D = np.empty((n, n))
    for i in range(n):
        D[i] = np.clip(1.0 - np.einsum("ij,j->i", V, V[i]), 0.0, 2.0)
    init = SplitMix64(rng_seed).sample(n, k_init)
    sel: list[int] = []
    trace: list[float] = []
    for step in range(budget):
        if step < k_init:
            pick = init[step]
        else:
            mind = D[sel].min(axis=0)
            cand = np.where(np.isin(np.arange(n), sel), -np.inf, mind)
            pick = int(np.argmax(cand))
        sel.append(pick)
        mind = D[sel].min(axis=0)
        unselected = np.setdiff1d(np.arange(n), sel)
        trace.append(float(mind[unselected].max()) if unselected.size else 0.0)
    return [En.ids[i] for i in sel], trace


def full_row_farthest_first(
    values: np.ndarray, forced: list[int], budget: int
) -> tuple[list[int], list[float]]:
    """Reference farthest-first loop without pruning: one full distance row
    per pick, folded into the running minima of every item."""
    n = values.shape[0]
    selected = np.zeros(n, dtype=np.bool_)
    min_d = np.full(n, np.inf)
    order: list[int] = []
    trace: list[float] = []
    for step in range(budget):
        if step < len(forced):
            pick = forced[step]
        else:
            pick = int(np.argmax(np.where(selected, -np.inf, min_d)))
        selected[pick] = True
        order.append(pick)
        np.minimum(min_d, _distance_row(values, values[pick]), out=min_d)
        unselected = min_d[~selected]
        trace.append(float(unselected.max()) if unselected.size else 0.0)
    return order, trace


def optimal_radius(entries: np.ndarray, k: int) -> float:
    """Exact k-center optimum by enumerating every k-subset of centers."""
    n = entries.shape[0]
    best = np.inf
    for combo in itertools.combinations(range(n), k):
        r = entries[list(combo)].min(axis=0).max()
        if r < best:
            best = r
    return float(best)
