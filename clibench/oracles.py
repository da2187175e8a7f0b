"""Per-stage oracles. Each raises OracleError when an output is wrong.

The expected values come from the benchmark's own construction of the
inputs or from an independent implementation (scipy.ndimage.label), and
every output file is parsed by formats.py rather than by coreseg.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import scipy.ndimage as ndi

from formats import KIND_INSTANCE, read_kv, read_selection, read_vol3d


class OracleError(AssertionError):
    """An operation's output disagrees with the oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def canonical_labels(mask: np.ndarray, rank: int) -> np.ndarray:
    """Label a mask with scipy and renumber components 1..C by first voxel.

    rank 1 is face (6) connectivity and rank 3 is full (26) connectivity,
    as in scipy.ndimage.generate_binary_structure(3, rank).
    """
    labels, count = ndi.label(mask, structure=ndi.generate_binary_structure(3, rank))
    ids, first = np.unique(labels.ravel(), return_index=True)
    fg = ids > 0
    lut = np.zeros(count + 1, dtype=np.uint32)
    lut[ids[fg][np.argsort(first[fg])]] = np.arange(1, count + 1, dtype=np.uint32)
    return lut[labels]


def check_labels(path: Path, expected: np.ndarray) -> None:
    """cc and fuse: the output volume equals the canonical scipy labeling."""
    kind, labels = read_vol3d(path)
    _require(kind == KIND_INSTANCE, f"{path.name}: kind {kind!r}, expected {KIND_INSTANCE}")
    _require(labels.shape == expected.shape, f"{path.name}: shape {labels.shape}")
    _require(np.array_equal(labels, expected), f"{path.name}: labels differ from scipy")


def reflect_index(length: int, start: int, size: int) -> np.ndarray:
    """Source indices of padded positions start..start+size-1 under reflect padding.

    Position i >= length mirrors about the last voxel without repeating it:
    it reads source index 2 * (length - 1) - i.
    """
    idx = np.arange(start, start + size)
    mirrored = 2 * (length - 1) - idx
    _require(bool((mirrored[idx >= length] >= 0).all()), "pad wider than the axis")
    return np.where(idx < length, idx, mirrored)


def check_tile(
    out_dir: Path, name: str, source: np.ndarray, kind: str, patch: tuple[int, int, int]
) -> None:
    """tile: the patch set is complete, reassembles to the source, and its
    margins follow reflect padding."""
    grid = [math.ceil(n / p) for n, p in zip(source.shape, patch)]
    names = {
        f"{name}_z{iz}_y{iy}_x{ix}.vol3d": (iz, iy, ix)
        for iz in range(grid[0])
        for iy in range(grid[1])
        for ix in range(grid[2])
    }
    found = {p.name for p in out_dir.glob("*.vol3d")}
    _require(found == set(names), f"patch files {sorted(found ^ set(names))} missing or extra")
    _require((out_dir / "grid_manifest.txt").is_file(), "grid_manifest.txt missing")
    for fname, cell in names.items():
        got_kind, voxels = read_vol3d(out_dir / fname)
        _require(got_kind == kind, f"{fname}: kind {got_kind!r}, expected {kind!r}")
        _require(voxels.shape == tuple(patch), f"{fname}: shape {voxels.shape}")
        maps = [reflect_index(n, c * p, p) for n, c, p in zip(source.shape, cell, patch)]
        _require(np.array_equal(voxels, source[np.ix_(*maps)]), f"{fname}: voxels differ")


def check_evaluate(path: Path, budget: int, tp: int, fp: int, fn: int) -> None:
    """evaluate: TP, FP and FN equal the prediction's construction."""
    fields = read_kv(path)
    got = tuple(int(fields[k]) for k in ("budget", "tp", "fp", "fn"))
    _require(got == (budget, tp, fp, fn), f"{path.name}: budget,tp,fp,fn={got}, "
             f"expected {(budget, tp, fp, fn)}")


def coverage_radius(unit_rows: np.ndarray, selected: np.ndarray) -> float:
    """Max over unselected rows of the min cosine distance to a selected row."""
    nearest = np.full(unit_rows.shape[0], np.inf)
    for start in range(0, selected.size, 256):
        dist = 1.0 - unit_rows[selected[start : start + 256]] @ unit_rows.T
        np.clip(dist, 0.0, 2.0, out=dist)
        np.minimum(nearest, dist.min(axis=0), out=nearest)
    nearest[selected] = -np.inf
    return float(nearest.max()) if selected.size < unit_rows.shape[0] else 0.0


def check_selections(
    out_dir: Path,
    method: str,
    budgets: list[int],
    ids: list[str],
    unit_rows: np.ndarray,
) -> None:
    """select: ids are unique and known, each budget's ids are a prefix of
    the next budget's, the coreset radius trace is non-increasing, and the
    largest budget's last radius equals a recomputed max-min distance."""
    index = {item: i for i, item in enumerate(ids)}
    previous: list[str] = []
    for budget in sorted(b for b in budgets if b > 0):
        path = out_dir / f"selection_{method}_b{budget}.txt"
        fields, selected, trace = read_selection(path)
        _require(fields.get("method") == method, f"{path.name}: method {fields.get('method')}")
        _require(len(selected) == budget, f"{path.name}: {len(selected)} ids for budget {budget}")
        _require(len(set(selected)) == budget, f"{path.name}: repeated ids")
        _require(all(s in index for s in selected), f"{path.name}: unknown ids")
        _require(selected[: len(previous)] == previous, f"{path.name}: not a prefix extension")
        _require(len(trace) == budget, f"{path.name}: radius trace has {len(trace)} entries")
        if method == "coreset":
            _require(
                all(b <= a for a, b in zip(trace, trace[1:])),
                f"{path.name}: radius trace increases",
            )
        previous = selected
    picks = np.array([index[s] for s in previous], dtype=np.int64)
    radius = coverage_radius(unit_rows, picks)
    _require(abs(radius - trace[-1]) <= 1e-9, f"last radius {trace[-1]!r}, recomputed {radius!r}")
