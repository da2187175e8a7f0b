"""Peak memory of the tile, fuse, cc, evaluate and select commands, measured on child processes.

Each command runs as a child of a small `python -S` spawner, which reads
the child's peak RSS from os.wait4. A child spawned straight from pytest
could report pytest's own peak instead: Linux carries the peak RSS of the
address space a program is exec'ed from into the new program's
ru_maxrss. Each command's baseline is the same command on one-voxel
inputs (select's, on a 2x2 embedding set), which loads the same modules
(a command loads only its own, and numpy); what a command holds beyond
it is its inputs plus its scratch.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coreseg
from coreseg.coreset import EmbeddingMatrix, write_embeddings
from coreseg.volume_io import KIND_MASK, new_volume, read_volume, write_volume

MIB = 1 << 20
# Scratch a command may hold beyond its input payloads: planes, chunks
# and the allocator's slack.
SCRATCH_MIB = 4
SHAPE = (16, 512, 512)  # 16 MiB of uint32 payload per volume
PLANE_MIB = 4 * SHAPE[1] * SHAPE[2] / MIB
# The labeler's state per x-run: two int32 keys, a parent and two edge ends
# (4 bytes each), plus up to two more edge ends per row step.
RUN_BYTES = 28
ROWS, DIM = 20000, 128  # 19.5 MiB of float64 embeddings
# What select holds per id: the str and its list slot (about 72 bytes for
# the 10-character ids below), and while validation runs, its slot in the
# sorted copy of the list that checks uniqueness (8 bytes). The bound is
# looser than that.
ID_BYTES = 256

SPAWN = """\
import json, os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(json.dumps({"rc": os.waitstatus_to_exitcode(status), "maxrss_kib": usage.ru_maxrss}))
"""


def peak_mib(tmp_path: Path, *args: str) -> float:
    """Run `python -m coreseg.cli ARGS` under the spawner; return its peak RSS in MiB."""
    spawner = tmp_path / "spawn.py"
    spawner.write_text(SPAWN)
    env = dict(os.environ, PYTHONPATH=str(Path(coreseg.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", str(spawner), sys.executable, "-m", "coreseg.cli", *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 0, done
    return result["maxrss_kib"] / 1024


@pytest.fixture(scope="module")
def volumes(tmp_path_factory):
    # Instances of 24x24 voxels per 32x32 cell through every plane (56 %
    # foreground); the prediction is shifted by 3 voxels in x. The one-voxel
    # volumes in tiny/ serve the baselines.
    d = tmp_path_factory.mktemp("peaks")
    _, y, x = np.ogrid[: SHAPE[0], : SHAPE[1], : SHAPE[2]]
    cells = (y // 32) * (SHAPE[2] // 32) + x // 32 + 1
    gt = np.broadcast_to(np.where((y % 32 < 24) & (x % 32 < 24), cells, 0), SHAPE)
    write_volume(new_volume(gt), d / "gt.vol3d")
    write_volume(new_volume(np.roll(gt, 3, axis=2)), d / "pred.vol3d")
    (d / "tiny").mkdir()
    one = np.ones((1, 1, 1), dtype=np.uint32)
    for name in ("gt.vol3d", "pred.vol3d"):
        write_volume(new_volume(one), d / "tiny" / name)
    write_volume(new_volume(one > 0, KIND_MASK), d / "tiny" / "mask.vol3d")
    return d


def test_tile_holds_the_volume_and_a_plane(tmp_path, volumes):
    # One patch is the whole volume: a command that held the patch on top
    # of the volume would exceed the bound by 12 MiB.
    base = peak_mib(
        tmp_path, "tile", "--volume", str(volumes / "tiny" / "gt.vol3d"), "--out-dir",
        str(tmp_path / "base"), "--patch", "1,1,1",
    )
    peak = peak_mib(
        tmp_path, "tile", "--volume", str(volumes / "gt.vol3d"), "--out-dir",
        str(tmp_path / "out"), "--patch", ",".join(map(str, SHAPE)),
    )
    assert peak - base <= 4 * np.prod(SHAPE) / MIB + SCRATCH_MIB, (base, peak)


def test_evaluate_holds_the_two_volumes_and_a_chunk(tmp_path, volumes):
    # Masks, keys and sort buffers of the whole volume at once would exceed
    # the bound by about 40 MiB.
    base = peak_mib(
        tmp_path, "evaluate", "--pred", str(volumes / "tiny" / "pred.vol3d"), "--gt",
        str(volumes / "tiny" / "gt.vol3d"), "--budget", "8", "--out-dir", str(tmp_path / "base"),
    )
    peak = peak_mib(
        tmp_path, "evaluate", "--pred", str(volumes / "pred.vol3d"), "--gt",
        str(volumes / "gt.vol3d"), "--budget", "8", "--out-dir", str(tmp_path / "out"),
    )
    assert peak - base <= 2 * 4 * np.prod(SHAPE) / MIB + SCRATCH_MIB, (base, peak)


def test_cc_holds_the_mask_and_the_labels(tmp_path, volumes):
    # The squares as a binary mask, labeled with full26. A labeler whose
    # scratch grows by bytes per foreground voxel, not per run, would exceed
    # the bound: the voxel-based one took about 9 bytes each, 20 MiB here.
    mask = tmp_path / "mask.vol3d"
    write_volume(new_volume(read_volume(volumes / "gt.vol3d").voxels > 0, KIND_MASK), mask)
    base = peak_mib(
        tmp_path, "cc", "--mask", str(volumes / "tiny" / "mask.vol3d"), "--out",
        str(tmp_path / "base.vol3d"),
    )
    peak = peak_mib(tmp_path, "cc", "--mask", str(mask), "--out", str(tmp_path / "cc.vol3d"))
    assert peak - base <= 2 * 4 * np.prod(SHAPE) / MIB + SCRATCH_MIB, (base, peak)


def runs_mib(mask: np.ndarray) -> float:
    return RUN_BYTES * np.count_nonzero(np.diff(mask, prepend=0, axis=2) == 1) / MIB


@pytest.fixture(scope="module")
def mask(volumes):
    path = volumes / "mask.vol3d"
    write_volume(new_volume(read_volume(volumes / "gt.vol3d").voxels > 0, KIND_MASK), path)
    return path


# The streaming commands below hold the runs and a few planes, not a
# volume: each bound is far below one 16 MiB payload.


def test_tile_streams_the_volume(tmp_path, volumes):
    # Patches of 12x320x320 pad every axis by reflection, so mirrored runs
    # reuse source planes; each source plane is read once, in file order,
    # and scattered into the patches that take it. A command that held the
    # volume would exceed the bound by about 10 MiB.
    base = peak_mib(
        tmp_path, "tile", "--volume", str(volumes / "tiny" / "gt.vol3d"), "--out-dir",
        str(tmp_path / "base"), "--patch", "1,1,1",
    )
    peak = peak_mib(
        tmp_path, "tile", "--volume", str(volumes / "gt.vol3d"), "--out-dir",
        str(tmp_path / "out"), "--patch", "12,320,320",
    )
    assert peak - base <= 2 * PLANE_MIB + SCRATCH_MIB, (base, peak)


def test_cc_streams_the_mask_and_the_labels(tmp_path, volumes, mask):
    # The mask is read, and the labels written, one plane at a time.
    base = peak_mib(
        tmp_path, "cc", "--mask", str(volumes / "tiny" / "mask.vol3d"), "--out",
        str(tmp_path / "base.vol3d"),
    )
    peak = peak_mib(tmp_path, "cc", "--mask", str(mask), "--out", str(tmp_path / "cc.vol3d"))
    runs = runs_mib(read_volume(mask).voxels)
    assert peak - base <= 3 * PLANE_MIB + runs + SCRATCH_MIB, (base, peak, runs)


def test_fuse_streams_the_slices_and_the_labels(tmp_path, volumes):
    # Each slice is read as the labeler asks for it.
    gt = read_volume(volumes / "gt.vol3d").voxels
    for name, planes in (("tiny", gt[:1, :1, :1]), ("slices", gt)):
        (tmp_path / name).mkdir()
        for z, plane in enumerate(planes):
            write_volume(new_volume(plane[None]), tmp_path / name / f"s{z}.vol3d")
    base = peak_mib(
        tmp_path, "fuse", "--slices-dir", str(tmp_path / "tiny"), "--out",
        str(tmp_path / "base.vol3d"),
    )
    peak = peak_mib(
        tmp_path, "fuse", "--slices-dir", str(tmp_path / "slices"), "--out",
        str(tmp_path / "fused.vol3d"),
    )
    runs = runs_mib(gt > 0)
    assert peak - base <= 3 * PLANE_MIB + runs + SCRATCH_MIB, (base, peak, runs)


def test_evaluate_streams_both_volumes(tmp_path, volumes):
    # pred and gt are read in lockstep, a plane of each at a time.
    base = peak_mib(
        tmp_path, "evaluate", "--pred", str(volumes / "tiny" / "pred.vol3d"), "--gt",
        str(volumes / "tiny" / "gt.vol3d"), "--budget", "8", "--out-dir", str(tmp_path / "base"),
    )
    peak = peak_mib(
        tmp_path, "evaluate", "--pred", str(volumes / "pred.vol3d"), "--gt",
        str(volumes / "gt.vol3d"), "--budget", "8", "--out-dir", str(tmp_path / "out"),
    )
    assert peak - base <= 3 * PLANE_MIB + SCRATCH_MIB, (base, peak)


@pytest.mark.parametrize("method", ["coreset", "random"])
def test_select_holds_one_float64_matrix(tmp_path, method):
    # The select-sweep embeddings: 64 clusters, default budgets. The float32
    # payload beside its float64 copy, a second, normalized matrix, or the
    # greedy's gather of a quarter of the rows would exceed the bound by
    # 4.9 to 19.5 MiB each.
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(64, DIM))
    values = centers[rng.integers(0, 64, ROWS)] + 0.35 * rng.normal(size=(ROWS, DIM))
    ids = [f"item{i:06d}" for i in range(ROWS)]
    write_embeddings(EmbeddingMatrix(ids, values), tmp_path / "e")
    write_embeddings(EmbeddingMatrix(["a", "b"], np.eye(2)), tmp_path / "tiny")
    base = peak_mib(
        tmp_path, "select", "--embeddings", str(tmp_path / "tiny"), "--method", method,
        "--budget", "2", "--k-init", "1", "--out-dir", str(tmp_path / "base"),
    )
    peak = peak_mib(
        tmp_path, "select", "--embeddings", str(tmp_path / "e"), "--method", method,
        "--out-dir", str(tmp_path / "out"),
    )
    held = (8 * ROWS * DIM + ID_BYTES * ROWS) / MIB
    assert peak - base <= held + SCRATCH_MIB, (base, peak, held)
