"""The benchmark's workloads: seeded inputs, the CLI operations of one
pass, and the oracle each operation's outputs must satisfy.

A workload is built in two steps. generate() turns the seed into input
files and is what set-up times. prepare() then computes the oracles'
expectations outside any timed region and returns the operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.ndimage as ndi

import oracles
from formats import KIND_INSTANCE, KIND_MASK, write_embeddings, write_vol3d

DEFAULT_PATCH = (32, 512, 512)
DEFAULT_BUDGETS = [0, 8, 16, 32, 64, 128, 256, 512, 1024]


@dataclass
class Op:
    """One CLI invocation of a pass.

    Attributes:
        stage: Name the op's timing is reported under, e.g. "cc".
        args: coreseg command-line arguments.
        outputs: Every file the op writes; removed before each pass and
            hashed after it.
        check: Oracle; raises oracles.OracleError on a wrong output.
        in_voxels: Voxels of the volumes the op reads (0 for select).
        picks: Selection ids the op writes (0 for volume ops).
    """

    stage: str
    args: list[str]
    outputs: list[Path]
    check: Callable[[], None]
    in_voxels: int = 0
    picks: int = 0


@dataclass
class Workload:
    seed: int
    work: Path
    inputs: dict[str, object] = field(default_factory=dict)

    def generate(self) -> None:
        raise NotImplementedError

    def prepare(self) -> list[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# vol-blobs
# ---------------------------------------------------------------------------

_FULL26 = np.ones((3, 3, 3), dtype=bool)


def _ellipsoid(radii: tuple[float, float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Return (mask, mask dilated by one voxel), both padded by one voxel."""
    half = [math.ceil(r) for r in radii]
    z, y, x = np.ogrid[tuple(slice(-h, h + 1) for h in half)]
    body = (z / radii[0]) ** 2 + (y / radii[1]) ** 2 + (x / radii[2]) ** 2 <= 1.0
    body = np.pad(body, 1)
    return body, ndi.binary_dilation(body, _FULL26)


def _clip(center, size, shape):
    """Slices of a box of `size` centred at `center`, clipped to `shape`,
    in volume coordinates and in box coordinates."""
    vol, box = [], []
    for c, s, n in zip(center, size, shape):
        lo = c - s // 2
        a, b = max(lo, 0), min(lo + s, n)
        vol.append(slice(a, b))
        box.append(slice(a - lo, b - lo))
    return tuple(vol), tuple(box)


def place_blobs(rng, shape, count, region, halo, shapes):
    """Place `count` ellipsoids with centres in `region`, none 26-adjacent
    to an earlier one. Radii are drawn from 2-4 voxels in quarter steps.

    Returns a list of (volume slices, clipped body mask) per blob.
    """
    placed = []
    while len(placed) < count:
        radii = tuple(rng.integers(8, 17, size=3) / 4.0)
        if radii not in shapes:
            shapes[radii] = _ellipsoid(radii)
        body, grown = shapes[radii]
        center = [int(rng.integers(0, n)) for n in region]
        vol, box = _clip(center, body.shape, shape)
        if (halo[vol] & body[box]).any():
            continue
        halo[vol] |= grown[box]
        placed.append((vol, body[box]))
    return placed


@dataclass
class VolBlobs(Workload):
    """tile, cc, evaluate x4 and report on one instance volume of small
    separated ellipsoids."""

    shape: tuple[int, int, int] = (40, 600, 600)
    blobs: int = 6000
    patch: tuple[int, int, int] | None = None  # None = the CLI default
    adds: tuple[int, ...] = (64, 32, 16, 8)  # phantom instances per prediction

    # One prediction per budget label: it drops this share of the patch's
    # instances and adds the matching number of phantoms.
    BUDGETS = (128, 256, 512, 1024)
    DROP_FRACS = (0.4, 0.2, 0.1, 0.05)

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        patch = self.patch or DEFAULT_PATCH
        halo = np.zeros(self.shape, dtype=bool)
        shapes: dict = {}
        blobs = place_blobs(rng, self.shape, self.blobs, self.shape, halo, shapes)
        phantoms = place_blobs(rng, self.shape, max(self.adds), patch, halo, shapes)
        volume = np.zeros(self.shape, dtype=np.uint32)
        for label, (vol, body) in zip(rng.permutation(len(blobs)) + 1, blobs):
            volume[vol][body] = label
        gt = np.ascontiguousarray(volume[tuple(slice(0, p) for p in patch)])
        write_vol3d(self.work / "blobs.vol3d", volume, KIND_INSTANCE)
        write_vol3d(self.work / "mask.vol3d", gt > 0, KIND_MASK)
        write_vol3d(self.work / "gt.vol3d", gt, KIND_INSTANCE)
        gt_ids = np.unique(gt)[1:]
        truth = {}
        for budget, frac, adds in zip(self.BUDGETS, self.DROP_FRACS, self.adds):
            drop = int(round(frac * gt_ids.size))
            kept = rng.permutation(gt_ids)[drop:]
            lut = np.zeros(len(blobs) + 1, dtype=np.uint32)
            new_ids = rng.permutation(kept.size + adds) + 1
            lut[kept] = new_ids[: kept.size]
            pred = lut[gt]
            for label, (vol, body) in zip(new_ids[kept.size :], phantoms):
                inside, box = _crop(vol, body, patch)
                pred[inside][box] = label
            write_vol3d(self.work / f"pred_b{budget}.vol3d", pred, KIND_INSTANCE)
            truth[budget] = (kept.size, adds, drop)
        self.inputs = {"volume": volume, "gt_patch": gt, "gt_ids": gt_ids.size, "truth": truth}

    def prepare(self) -> list[Op]:
        w = self.work
        volume, gt = self.inputs["volume"], self.inputs["gt_patch"]
        expected_cc = oracles.canonical_labels(gt > 0, rank=3)
        patch = self.patch or DEFAULT_PATCH
        patch_args = ["--patch", ",".join(map(str, patch))] if self.patch else []
        grid = [math.ceil(n / p) for n, p in zip(self.shape, patch)]
        tiles = w / "patches"
        tile_outputs = [
            tiles / f"blobs_z{iz}_y{iy}_x{ix}.vol3d"
            for iz in range(grid[0])
            for iy in range(grid[1])
            for ix in range(grid[2])
        ] + [tiles / "grid_manifest.txt", tiles / "run_manifest.txt"]
        ops = [
            Op(
                "tile",
                ["tile", "--volume", str(w / "blobs.vol3d"), "--out-dir", str(tiles)]
                + patch_args,
                tile_outputs,
                lambda: oracles.check_tile(tiles, "blobs", volume, KIND_INSTANCE, patch),
                in_voxels=volume.size,
            ),
            Op(
                "cc",
                ["cc", "--mask", str(w / "mask.vol3d"), "--out", str(w / "cc.vol3d")],
                [w / "cc.vol3d", w / "cc.vol3d.run.txt"],
                lambda: oracles.check_labels(w / "cc.vol3d", expected_cc),
                in_voxels=gt.size,
            ),
        ]
        metrics = w / "metrics"
        for budget, (tp, fp, fn) in self.inputs["truth"].items():
            stem = metrics / f"metrics_b{budget}"
            ops.append(
                Op(
                    "evaluate",
                    ["evaluate", "--pred", str(w / f"pred_b{budget}.vol3d"),
                     "--gt", str(w / "gt.vol3d"), "--budget", str(budget),
                     "--out-dir", str(metrics)],
                    [Path(f"{stem}.txt"), Path(f"{stem}.csv"), Path(f"{stem}.run.txt")],
                    lambda p=Path(f"{stem}.txt"), b=budget, t=(tp, fp, fn): (
                        oracles.check_evaluate(p, b, *t)
                    ),
                    in_voxels=2 * gt.size,
                )
            )
        report = w / "report"
        ops.append(
            Op(
                "report",
                ["report", "--metrics-dir", str(metrics), "--out-dir", str(report)],
                [report / n for n in
                 ("curve.csv", "curve_table.txt", "surpass.txt", "run_manifest.txt")],
                lambda: None,
            )
        )
        return ops

    def describe(self) -> dict:
        return {
            "volume_shape": list(self.shape),
            "volume_bytes": 4 * math.prod(self.shape),
            "patch_shape": list(self.patch or DEFAULT_PATCH),
            "instances": self.blobs,
            "gt_patch_instances": self.inputs["gt_ids"],
            "foreground_frac": float((self.inputs["volume"] > 0).mean()),
        }


def _crop(vol, body, patch):
    """Restrict a blob placed in volume coordinates to the first patch."""
    inside, box = [], []
    for s, n in zip(vol, patch):
        stop = min(s.stop, n)
        inside.append(slice(s.start, stop))
        box.append(slice(0, stop - s.start))
    return tuple(inside), body[tuple(box)]


# ---------------------------------------------------------------------------
# fuse-serpentine
# ---------------------------------------------------------------------------


def serpentine(size: int) -> np.ndarray:
    """One winding path through a size x size grid.

    Even rows 0, 2, 4, ... carry full-width runs; odd rows carry one
    connecting pixel, alternately at the right and the left end, so the
    path starts at the first pixel in scan order.
    """
    path = np.zeros((size, size), dtype=bool)
    path[0::2, :] = True
    for row in range(1, size, 2):
        path[row, -1 if (row // 2) % 2 == 0 else 0] = True
    return path


@dataclass
class FuseSerpentine(Workload):
    """fuse --connectivity face6 over slices that share one serpentine path."""

    slices: int = 32
    size: int = 64

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        path = serpentine(self.size)
        slices_dir = self.work / "slices"
        slices_dir.mkdir(exist_ok=True)
        for z in range(self.slices):
            labels = rng.integers(1, 2**31, size=path.shape, dtype=np.uint32) * path
            write_vol3d(slices_dir / f"slice_{z}.vol3d", labels[None], KIND_INSTANCE)
        self.inputs = {"mask": np.repeat(path[None], self.slices, axis=0)}

    def prepare(self) -> list[Op]:
        w = self.work
        expected = oracles.canonical_labels(self.inputs["mask"], rank=1)
        out = w / "fused.vol3d"
        return [
            Op(
                "fuse",
                ["fuse", "--slices-dir", str(w / "slices"), "--connectivity", "face6",
                 "--out", str(out)],
                [out, w / "fused.vol3d.run.txt"],
                lambda: oracles.check_labels(out, expected),
                in_voxels=self.slices * self.size * self.size,
            )
        ]

    def describe(self) -> dict:
        return {
            "slices": self.slices,
            "slice_shape": [self.size, self.size],
            "slice_bytes": 4 * self.size * self.size,
            "path_voxels": int(serpentine(self.size).sum()),
        }


# ---------------------------------------------------------------------------
# select-sweep
# ---------------------------------------------------------------------------


@dataclass
class SelectSweep(Workload):
    """select --method coreset and --method random over the default budgets."""

    rows: int = 20000
    dim: int = 128
    clusters: int = 64
    budgets: tuple[int, ...] = tuple(DEFAULT_BUDGETS)

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        centers = rng.normal(size=(self.clusters, self.dim))
        members = rng.integers(0, self.clusters, size=self.rows)
        values = (centers[members] + 0.35 * rng.normal(size=(self.rows, self.dim)))
        values = values.astype(np.float32)
        ids = [f"item{i:06d}" for i in range(self.rows)]
        write_embeddings(self.work / "emb", ids, values)
        self.inputs = {"ids": ids, "values": values}

    def prepare(self) -> list[Op]:
        w = self.work
        values = self.inputs["values"].astype(np.float64)
        unit = values / np.linalg.norm(values, axis=1)[:, None]
        ids = self.inputs["ids"]
        budget_args = [] if list(self.budgets) == DEFAULT_BUDGETS else [
            "--budgets", ",".join(map(str, self.budgets))]
        out_dir = w / "selections"
        ops = []
        for method in ("coreset", "random"):
            outputs = [out_dir / f"selection_{method}_b{b}.txt" for b in self.budgets if b > 0]
            ops.append(
                Op(
                    f"select_{method}",
                    ["select", "--embeddings", str(w / "emb"), "--method", method,
                     "--out-dir", str(out_dir)] + budget_args,
                    outputs + [out_dir / f"run_manifest_{method}.txt"],
                    lambda m=method: oracles.check_selections(
                        out_dir, m, list(self.budgets), ids, unit
                    ),
                    picks=sum(b for b in self.budgets if b > 0),
                )
            )
        return ops

    def describe(self) -> dict:
        return {
            "embedding_shape": [self.rows, self.dim],
            "embedding_bytes": 4 * self.rows * self.dim,
            "clusters": self.clusters,
            "budgets": list(self.budgets),
        }


WORKLOADS = {
    "vol-blobs": VolBlobs,
    "fuse-serpentine": FuseSerpentine,
    "select-sweep": SelectSweep,
}

# Reduced inputs with the same structure, for the oracle self-test.
SMALL = {
    "vol-blobs": dict(shape=(12, 40, 40), blobs=20, patch=(8, 32, 32), adds=(3, 2, 1, 1)),
    "fuse-serpentine": dict(slices=4, size=12),
    "select-sweep": dict(rows=300, dim=8, clusters=6, budgets=(0, 4, 8, 16)),
}
