"""End-to-end tests for the command-line interface."""

import hashlib
import itertools
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import coreseg
from coreseg import (
    cli,
    coreset,
    instance_metrics,
    label_fusion,
    patch_grid,
    provenance,
    volume_io,
)
from coreseg.cli import main as cli_main
from coreseg.config import PipelineConfig, resolved_lines
from coreseg.coreset import (
    kcenter_greedy,
    normalize_rows,
    random_select,
    read_embeddings,
    write_embeddings,
    write_selection_manifest,
)
from coreseg.coreset import EmbeddingMatrix
from coreseg.errors import InternalError
from coreseg.patch_grid import (
    patch_filename,
    patch_ids,
    plan_grid,
    reassemble,
    write_grid_manifest,
)
from coreseg.report import parse_metrics_csv
from coreseg.volume_io import (
    KIND_INSTANCE,
    KIND_MASK,
    new_volume,
    read_volume,
    write_volume,
)

from helpers import shrink


def run(capsys, *args):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli_main([str(a) for a in args])
    except SystemExit as exc:  # argparse-level exits
        code = exc.code if isinstance(exc.code, int) else 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def written_by(tmp_path, write, *args):
    """Return the bytes that write(*args, path) puts in a scratch file."""
    path = tmp_path / "expected.txt"
    write(*args, path)
    return path.read_bytes()


def write_instance(path, voxels):
    write_volume(new_volume(np.asarray(voxels, dtype=np.uint32)), path)


def write_mask(path, voxels):
    write_volume(
        new_volume(np.asarray(voxels, dtype=np.uint32), value_kind=KIND_MASK), path
    )


@pytest.fixture
def demo_volume(tmp_path):
    rng = np.random.default_rng(42)
    vox = rng.integers(0, 3, size=(3, 5, 5), dtype=np.uint32)
    path = tmp_path / "demo.vol3d"
    write_instance(path, vox)
    return path, vox


@pytest.fixture
def demo_embeddings(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.normal(size=(12, 4))
    E = EmbeddingMatrix(ids=[f"p{i}" for i in range(12)], values=values)
    stem = tmp_path / "emb"
    write_embeddings(E, stem)
    return stem, E


# ---------------------------------------------------------------------------
# tile
# ---------------------------------------------------------------------------


def test_tile_writes_patches_and_manifests(capsys, tmp_path, demo_volume):
    vol_path, vox = demo_volume
    out_dir = tmp_path / "patches"
    code, out, err = run(
        capsys,
        "tile",
        "--volume", vol_path,
        "--patch", "2,4,4",
        "--pad-mode", "reflect",
        "--out-dir", out_dir,
    )
    assert code == 0, err
    assert out.strip() == "patches=8 grid=2,2,2 padded=4,8,8"
    assert (out_dir / "grid_manifest.txt").is_file()
    assert (out_dir / "run_manifest.txt").is_file()
    spec = plan_grid(vox.shape, (2, 4, 4), "reflect")
    assert (out_dir / "grid_manifest.txt").read_bytes() == written_by(
        tmp_path, write_grid_manifest, spec, "demo"
    )
    pids = patch_ids(spec, "demo")
    assert len(pids) == 8
    patches = {pid: read_volume(out_dir / patch_filename(pid)) for pid in pids}
    restored = reassemble(patches, spec)
    assert np.array_equal(restored.voxels, vox)


def test_tile_refuses_then_forces_overwrite(capsys, tmp_path, demo_volume):
    vol_path, _ = demo_volume
    out_dir = tmp_path / "patches"
    args = ("tile", "--volume", vol_path, "--patch", "2,4,4", "--out-dir", out_dir)
    assert run(capsys, *args)[0] == 0
    first = (out_dir / "run_manifest.txt").read_bytes()
    code, _, err = run(capsys, *args)
    assert code == 5
    assert "exists" in err
    code, _, _ = run(capsys, *args, "--force")
    assert code == 0
    assert (out_dir / "run_manifest.txt").read_bytes() == first


def test_refused_tile_rerun_reads_only_the_header(capsys, tmp_path, demo_volume, monkeypatch):
    vol_path, _ = demo_volume
    out_dir = tmp_path / "patches"
    args = ("tile", "--volume", vol_path, "--patch", "2,4,4", "--out-dir", out_dir)
    assert run(capsys, *args)[0] == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    # Payloads are read by the reader's planes(), so a payload read now ends
    # in an internal error (exit 4). The patch names follow from the header,
    # and the refusal comes first.
    monkeypatch.setattr(volume_io._PlaneReader, "planes", None)
    code, out, err = run(capsys, *args)
    assert code == 5, err
    assert "exists" in err and out == ""
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
    monkeypatch.undo()
    assert run(capsys, *args, "--force")[0] == 0
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_tile_force_rerun_removes_stale_patches(capsys, tmp_path, demo_volume):
    vol_path, _ = demo_volume
    out_dir = tmp_path / "patches"
    args = ("tile", "--volume", vol_path, "--out-dir", out_dir)
    assert run(capsys, *args, "--patch", "2,4,4")[0] == 0
    assert len(list(out_dir.iterdir())) == 10
    code, out, _ = run(capsys, *args, "--patch", "3,5,5", "--force")
    assert code == 0
    assert out.startswith("patches=1 ")
    spec = plan_grid((3, 5, 5), (3, 5, 5), "reflect")
    filenames = [patch_filename(pid) for pid in patch_ids(spec, "demo")]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        [*filenames, "grid_manifest.txt", "run_manifest.txt"]
    )


@pytest.mark.parametrize("edit", ["../victim", "absolute", "other command"])
def test_force_rerun_deletes_only_this_commands_outputs(
    capsys, tmp_path, demo_volume, edit
):
    vol_path, _ = demo_volume
    out_dir = tmp_path / "patches"
    args = ("tile", "--volume", vol_path, "--out-dir", out_dir)
    assert run(capsys, *args, "--patch", "2,4,4")[0] == 0
    victim = tmp_path / "victim"
    victim.write_text("keep")
    manifest = out_dir / "run_manifest.txt"
    text = manifest.read_text()
    if edit == "other command":
        text = text.replace("command=tile", "command=report")
    else:
        text += f"output={'../victim' if edit == '../victim' else victim}\n"
    manifest.write_text(text)
    before = sorted(p.name for p in out_dir.iterdir())
    assert run(capsys, *args, "--patch", "3,5,5", "--force")[0] == 0
    assert victim.read_text() == "keep"
    after = sorted(p.name for p in out_dir.iterdir())
    if edit == "other command":
        assert set(before) <= set(after)
    else:
        assert len(after) == 3


def test_tile_missing_input_leaves_no_outputs(capsys, tmp_path):
    out_dir = tmp_path / "patches"
    code, _, err = run(
        capsys,
        "tile",
        "--volume", tmp_path / "absent.vol3d",
        "--patch", "2,4,4",
        "--out-dir", out_dir,
    )
    assert code == 3
    assert "absent.vol3d" in err
    assert not out_dir.exists()


def value_in_last_plane(path, monkeypatch):
    # A 2 in the mask's last voxel, found as the last plane is read.
    data = bytearray(path.read_bytes())
    data[-4] = 2
    path.write_bytes(data)


def shrinks_after_size_check(path, monkeypatch):
    # The file is cut to 50 payload bytes once tile's reader has checked its
    # size, so the second plane's read comes up short.
    shrink(monkeypatch, path, 50)


@pytest.mark.parametrize(
    "breakage, message",
    [
        (value_in_last_plane, "binary_mask volume contains values greater than 1"),
        (shrinks_after_size_check, "payload length mismatch: expected 96 bytes, found 50"),
    ],
    ids=["value-in-last-plane", "shrinks-after-size-check"],
)
def test_tile_failing_mid_read_leaves_nothing_behind(
    capsys, tmp_path, monkeypatch, breakage, message
):
    # tile reads its volume inside its commit, as it writes the patches: a
    # read that fails after some patch planes are written must leave no
    # output and no .part, and must leave an earlier run's outputs intact.
    vol = tmp_path / "m.vol3d"
    args = ["tile", "--volume", vol, "--patch", "1,2,2", "--out-dir", tmp_path / "out"]
    write_mask(vol, np.arange(24).reshape(2, 3, 4) % 2)
    breakage(vol, monkeypatch)
    code, out, err = run(capsys, *args)
    assert (code, out) == (3, ""), err
    assert message in err
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["m.vol3d"]
    assert not (tmp_path / "out").exists()
    monkeypatch.undo()
    # The same failure on a forced rerun over an earlier run's 8 patches.
    write_mask(vol, np.arange(24).reshape(2, 3, 4) % 2)
    assert run(capsys, *args)[0] == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert len(before) == 10
    breakage(vol, monkeypatch)
    code, out, err = run(capsys, *args, "--force")
    assert (code, out) == (3, ""), err
    assert message in err
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before
    assert list(tmp_path.rglob("*.part")) == []


def test_tile_holds_a_bounded_number_of_descriptors(capsys, tmp_path):
    # 256 one-voxel patches, tiled by a child that may hold 32 descriptors:
    # each patch file is opened for one write at a time. The outputs match
    # an unlimited run's byte for byte.
    vol = tmp_path / "v.vol3d"
    write_instance(vol, np.arange(256).reshape(4, 8, 8))
    out_dir = tmp_path / "out"
    args = ["tile", "--volume", str(vol), "--patch", "1,1,1", "--out-dir", str(out_dir)]
    assert run(capsys, *args)[0] == 0
    unlimited = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(unlimited) == 256 + 2
    for p in out_dir.iterdir():
        p.unlink()
    limited = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
        "resource.setrlimit(resource.RLIMIT_NOFILE, (32, hard))\n"
        "from coreseg.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(coreseg.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", limited, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == unlimited


def limit_address_space():
    # 4 GiB of address space: an allocation past it fails at once, so no
    # request in the child can touch more memory than that.
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("pad_mode", ["zero", "reflect"])
def test_request_too_large_to_allocate_is_input_error(tmp_path, pad_mode):
    # Zero padding cannot allocate its (1, 4e9) patch plane, reflect its
    # 4e9-entry index run; either way the request is refused, not a fault.
    vol = tmp_path / "v.vol3d"
    write_instance(vol, np.arange(4).reshape(1, 2, 2))
    out_dir = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(coreseg.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "coreseg.cli", "tile", "--volume", str(vol),
         "--patch", "1,1,4000000000", "--pad-mode", pad_mode, "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=limit_address_space,
    )
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("coreseg tile: Unable to allocate"), done.stderr
    assert not out_dir.exists()


def test_tile_rejects_malformed_patch_flag(capsys, tmp_path, demo_volume):
    vol_path, _ = demo_volume
    code, _, err = run(
        capsys,
        "tile",
        "--volume", vol_path,
        "--patch", "2,x,4",
        "--out-dir", tmp_path / "o",
    )
    assert code == 2


def tree(root):
    """Every path under root, relative to it."""
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize(
    "spelling, name",
    [("flag", n) for n in ("../x", "a/b", "a\\b", ".", "..", "a\nb", "a\rb", "a\0b")]
    + [("config", n) for n in ("../x", "a/b", "a\\b", ".", "..")],
)
def test_tile_refuses_name_that_leaves_out_dir(capsys, tmp_path, demo_volume, spelling, name):
    # A patch name is a plain file-name prefix and one grid manifest line:
    # a bad one exits 2 before the volume is read, and nothing is written
    # inside or outside --out-dir.
    vol_path, _ = demo_volume
    args = ["tile", "--volume", vol_path, "--patch", "2,4,4", "--out-dir", tmp_path / "out"]
    if spelling == "flag":
        args += ["--name", name]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"volume_name = {name}\n", encoding="utf-8")
        args += ["--config", cfg]
    before = tree(tmp_path)
    code, _, err = run(capsys, *args)
    assert code == 2, err
    assert repr(name) in err
    if spelling == "config":
        assert f"{cfg}:1: volume_name: " in err
    assert tree(tmp_path) == before


@pytest.mark.parametrize("file_name", ["..vol3d", "...vol3d", "a\nb.vol3d", "a\\b.vol3d"])
def test_tile_refuses_volume_stem_that_leaves_out_dir(capsys, tmp_path, file_name):
    # Without --name the stem is the patch name, under the same rule; a bad
    # one is an input error and nothing is written.
    vol_path = tmp_path / file_name
    write_instance(vol_path, np.ones((2, 2, 2)))
    before = tree(tmp_path)
    code, _, err = run(capsys, "tile", "--volume", vol_path, "--out-dir", tmp_path / "out")
    assert code == 3, err
    assert "volume_name" in err
    assert tree(tmp_path) == before


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def slice_file(directory, name, grid):
    directory.mkdir(parents=True, exist_ok=True)
    arr = np.asarray(grid, dtype=np.uint32)[np.newaxis, :, :]
    write_mask(directory / name, arr)


def test_fuse_orders_slices_numerically(capsys, tmp_path):
    # Lexicographic order would put s10 between s1 and s3 and merge the
    # two foreground voxels into one component; numeric order keeps the
    # empty slice 3 between them.
    slices = tmp_path / "slices"
    slice_file(slices, "s1.vol3d", [[1, 0], [0, 0]])
    slice_file(slices, "s3.vol3d", [[0, 0], [0, 0]])
    slice_file(slices, "s10.vol3d", [[1, 0], [0, 0]])
    out = tmp_path / "fused.vol3d"
    code, stdout, err = run(
        capsys, "fuse", "--slices-dir", slices, "--out", out,
        "--connectivity", "full26",
    )
    assert code == 0, err
    assert stdout.strip() == "components=2 slices=3 shape=3,2,2"
    fused = read_volume(out)
    assert fused.header.value_kind == KIND_INSTANCE
    assert fused.voxels[0, 0, 0] == 1
    assert fused.voxels[1, 0, 0] == 0
    assert fused.voxels[2, 0, 0] == 2
    assert (tmp_path / "fused.vol3d.run.txt").is_file()


def test_fuse_rejects_duplicate_indices(capsys, tmp_path):
    slices = tmp_path / "slices"
    slice_file(slices, "a_1.vol3d", [[1]])
    slice_file(slices, "b_1.vol3d", [[1]])
    code, _, err = run(capsys, "fuse", "--slices-dir", slices, "--out", tmp_path / "f.vol3d")
    assert code == 3
    assert "duplicate slice index 1" in err


def test_fuse_rejects_nonnumeric_name(capsys, tmp_path):
    slices = tmp_path / "slices"
    slice_file(slices, "mask.vol3d", [[1]])
    code, _, err = run(capsys, "fuse", "--slices-dir", slices, "--out", tmp_path / "f.vol3d")
    assert code == 3
    assert "numeric suffix" in err


def test_fuse_rejects_thick_slice(capsys, tmp_path):
    slices = tmp_path / "slices"
    slices.mkdir()
    thick = np.ones((2, 2, 2), dtype=np.uint32)
    write_mask(slices / "s0.vol3d", thick)
    code, _, err = run(capsys, "fuse", "--slices-dir", slices, "--out", tmp_path / "f.vol3d")
    assert code == 3
    assert "z-size 2" in err


def test_fuse_rejects_shape_mismatch_naming_file(capsys, tmp_path):
    slices = tmp_path / "slices"
    slice_file(slices, "s0.vol3d", [[1, 0], [0, 0]])
    slice_file(slices, "s1.vol3d", [[1]])
    code, _, err = run(capsys, "fuse", "--slices-dir", slices, "--out", tmp_path / "f.vol3d")
    assert code == 3
    assert "s1.vol3d" in err and "does not match" in err


def test_fuse_empty_directory(capsys, tmp_path):
    slices = tmp_path / "slices"
    slices.mkdir()
    code, _, err = run(capsys, "fuse", "--slices-dir", slices, "--out", tmp_path / "f.vol3d")
    assert code == 3
    assert "no .vol3d slices" in err


def test_fuse_missing_directory(capsys, tmp_path):
    code, _, err = run(
        capsys, "fuse", "--slices-dir", tmp_path / "nowhere", "--out", tmp_path / "f.vol3d"
    )
    assert code == 3


# ---------------------------------------------------------------------------
# cc
# ---------------------------------------------------------------------------


def corner_mask(tmp_path):
    vox = np.zeros((2, 2, 2), dtype=np.uint32)
    vox[0, 0, 0] = 1
    vox[1, 1, 1] = 1
    path = tmp_path / "corner.vol3d"
    write_mask(path, vox)
    return path


def test_cc_connectivity_changes_component_count(capsys, tmp_path):
    mask = corner_mask(tmp_path)
    code, out, _ = run(
        capsys, "cc", "--mask", mask, "--connectivity", "face6",
        "--out", tmp_path / "f6.vol3d",
    )
    assert code == 0 and out.strip() == "components=2"
    code, out, _ = run(
        capsys, "cc", "--mask", mask, "--connectivity", "full26",
        "--out", tmp_path / "f26.vol3d",
    )
    assert code == 0 and out.strip() == "components=1"
    labeled = read_volume(tmp_path / "f6.vol3d")
    assert labeled.header.value_kind == KIND_INSTANCE
    assert labeled.voxels[0, 0, 0] == 1 and labeled.voxels[1, 1, 1] == 2


def test_cc_rejects_instance_input(capsys, tmp_path):
    path = tmp_path / "labels.vol3d"
    write_instance(path, np.ones((2, 2, 2), dtype=np.uint32))
    code, _, err = run(capsys, "cc", "--mask", path, "--out", tmp_path / "o.vol3d")
    assert code == 3
    assert "binary_mask" in err


def test_cc_header_shape_of_5000_digits_is_input_error(capsys, tmp_path):
    path = tmp_path / "m.vol3d"
    header = f"shape={'1' * 5000},1,1\nkind=binary_mask\nwidth=4\norder=zyx\n\n"
    path.write_bytes(header.encode("ascii") + b"\x00" * 4)
    code, _, err = run(capsys, "cc", "--mask", path, "--out", tmp_path / "o" / "l.vol3d")
    assert code == 3, err
    assert f"{path}: malformed header shape '111" in err
    assert not (tmp_path / "o").exists()


def test_cc_mask_value_in_the_last_plane_leaves_no_output(capsys, tmp_path):
    # The mask is read plane by plane; the bad plane is found only after the
    # others are labeled, and still before anything is written.
    vox = np.zeros((3, 4, 4), dtype=np.uint32)
    vox[0, 0, 0] = 1
    vox[2, 3, 3] = 2
    path = tmp_path / "m.vol3d"
    path.write_bytes(
        b"shape=3,4,4\nkind=binary_mask\nwidth=4\norder=zyx\n\n" + vox.astype("<u4").tobytes()
    )
    code, out, err = run(capsys, "cc", "--mask", path, "--out", tmp_path / "out" / "l.vol3d")
    assert code == 3
    assert err == "coreseg cc: binary_mask volume contains values greater than 1\n"
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_cc_rejects_unknown_connectivity_flag(capsys, tmp_path):
    mask = corner_mask(tmp_path)
    code, _, _ = run(
        capsys, "cc", "--mask", mask, "--connectivity", "8", "--out", tmp_path / "o.vol3d"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def test_select_runs_budget_list_and_skips_zero(capsys, tmp_path, demo_embeddings):
    stem, E = demo_embeddings
    out_dir = tmp_path / "sel"
    code, out, err = run(
        capsys,
        "select",
        "--embeddings", stem,
        "--method", "coreset",
        "--budgets", "0,4,6",
        "--seed", "9",
        "--out-dir", out_dir,
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "budget=0 skipped (nothing to select)"
    assert lines[1].startswith("method=coreset budget=4 radius=")
    assert lines[2].startswith("method=coreset budget=6 radius=")
    assert not (out_dir / "selection_coreset_b0.txt").exists()
    expected = kcenter_greedy(normalize_rows(read_embeddings(stem)), 4, rng_seed=9)
    assert (out_dir / "selection_coreset_b4.txt").read_bytes() == written_by(
        tmp_path, write_selection_manifest, expected
    )


def test_select_single_budget_flag_overrides_list(capsys, tmp_path, demo_embeddings):
    stem, _ = demo_embeddings
    out_dir = tmp_path / "sel"
    code, _, _ = run(
        capsys, "select", "--embeddings", stem, "--budget", "3", "--out-dir", out_dir
    )
    assert code == 0
    files = sorted(p.name for p in out_dir.glob("selection_*.txt"))
    assert files == ["selection_coreset_b3.txt"]


def test_select_random_method(capsys, tmp_path, demo_embeddings):
    stem, _ = demo_embeddings
    out_dir = tmp_path / "sel"
    code, out, _ = run(
        capsys,
        "select",
        "--embeddings", stem,
        "--method", "random",
        "--budget", "5",
        "--out-dir", out_dir,
    )
    assert code == 0
    En = normalize_rows(read_embeddings(stem))
    expected = random_select(En.ids, 5, rng_seed=0, embeddings=En)
    assert (expected.method, expected.k_init, len(expected.radius_trace)) == ("random", 5, 5)
    assert (out_dir / "selection_random_b5.txt").read_bytes() == written_by(
        tmp_path, write_selection_manifest, expected
    )


def test_select_methods_share_directory(capsys, tmp_path, demo_embeddings):
    stem, _ = demo_embeddings
    out_dir = tmp_path / "sel"
    assert run(
        capsys, "select", "--embeddings", stem, "--method", "coreset",
        "--budget", "4", "--out-dir", out_dir,
    )[0] == 0
    # A random run lands beside it without --force: selection files and
    # run manifests are both method-qualified.
    assert run(
        capsys, "select", "--embeddings", stem, "--method", "random",
        "--budget", "4", "--out-dir", out_dir,
    )[0] == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "run_manifest_coreset.txt",
        "run_manifest_random.txt",
        "selection_coreset_b4.txt",
        "selection_random_b4.txt",
    ]


def test_select_k_init_beyond_budget_fails(capsys, tmp_path, demo_embeddings):
    stem, _ = demo_embeddings
    out_dir = tmp_path / "sel"
    code, _, err = run(
        capsys,
        "select",
        "--embeddings", stem,
        "--budget", "2",
        "--k-init", "5",
        "--out-dir", out_dir,
    )
    assert code == 3
    assert "k_init" in err


@pytest.mark.parametrize(
    "meta",
    [
        "count=-1\ndim=4\ndtype=f32le\n",
        "count=12\ndim=-4\ndtype=f32le\n",
        "count=2\ndim=4\ndtype=f32le\ncount=12\n",
        "count=12\ndim=4\nf32le\ndtype=f32le\n",
        f"count={'1' * 5000}\ndim=4\ndtype=f32le\n",
    ],
    ids=["negative-count", "negative-dim", "repeated-key", "no-equals", "5000-digit-count"],
)
def test_select_malformed_embedding_metadata_is_input_error(
    capsys, tmp_path, demo_embeddings, meta
):
    stem, _ = demo_embeddings
    Path(f"{stem}.meta").write_text(meta)
    out_dir = tmp_path / "sel"
    code, _, err = run(
        capsys, "select", "--embeddings", stem, "--budget", "2", "--out-dir", out_dir,
    )
    assert code == 3, err
    assert "malformed embedding metadata" in err
    assert not out_dir.exists()


def test_select_non_utf8_ids_is_input_error(capsys, tmp_path, demo_embeddings):
    stem, _ = demo_embeddings
    ids = Path(f"{stem}.ids")
    ids.write_bytes(ids.read_bytes().replace(b"p3", b"p\xff3"))
    out_dir = tmp_path / "sel"
    code, _, err = run(
        capsys, "select", "--embeddings", stem, "--budget", "2", "--out-dir", out_dir,
    )
    assert code == 3, err
    assert f"{ids}: malformed ids: not UTF-8" in err
    assert not out_dir.exists()


def test_select_empty_id_is_input_error(capsys, tmp_path, demo_embeddings):
    # An empty id would end the manifest's selected block in a blank line,
    # which the manifest reader then refuses.
    stem, _ = demo_embeddings
    ids = Path(f"{stem}.ids")
    ids.write_text(ids.read_text().replace("p1\n", "\n"))
    out_dir = tmp_path / "sel"
    code, out, err = run(
        capsys, "select", "--embeddings", stem, "--budgets", "4", "--out-dir", out_dir,
    )
    assert code == 3, err
    assert f"{ids}: line 2 is an empty id" in err
    assert out == ""
    assert not out_dir.exists()


def test_select_fewer_ids_than_rows_is_input_error(capsys, tmp_path, demo_embeddings):
    stem, _ = demo_embeddings
    ids = Path(f"{stem}.ids")
    ids.write_text(ids.read_text().replace("p11\n", ""))
    out_dir = tmp_path / "sel"
    code, out, err = run(
        capsys, "select", "--embeddings", stem, "--budgets", "4", "--out-dir", out_dir,
    )
    assert code == 3, err
    assert f"coreseg select: {ids}: 11 ids for 12 embedding rows\n" == err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("count, dim", [(0, 4), (12, 0)], ids=["count-0", "dim-0"])
def test_select_empty_embedding_matrix_is_input_error(
    capsys, tmp_path, demo_embeddings, count, dim
):
    # Both files agree with the metadata, so only the matrix check refuses.
    stem, E = demo_embeddings
    Path(f"{stem}.meta").write_text(f"count={count}\ndim={dim}\ndtype=f32le\n")
    Path(f"{stem}.f32").write_bytes(b"")
    Path(f"{stem}.ids").write_text("".join(f"{i}\n" for i in E.ids[:count]))
    out_dir = tmp_path / "sel"
    code, out, err = run(
        capsys, "select", "--embeddings", stem, "--budget", "2", "--out-dir", out_dir,
    )
    assert code == 3, err
    assert err == (
        f"coreseg select: embedding matrix must be (N >= 1, Dim >= 1), got ({count}, {dim})\n"
    )
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "count, dim", [(10**19, 0), (0, 10**19)], ids=["count-huge", "dim-huge"]
)
def test_select_unallocatable_empty_shape_is_input_error(
    capsys, tmp_path, demo_embeddings, count, dim
):
    # An axis of 10**19 beside an axis of 0 matches an empty payload, and
    # numpy refused the shape with a ValueError, exit 4.
    stem, _ = demo_embeddings
    meta = Path(f"{stem}.meta")
    meta.write_text(f"count={count}\ndim={dim}\ndtype=f32le\n")
    Path(f"{stem}.f32").write_bytes(b"")
    Path(f"{stem}.ids").write_bytes(b"")
    out_dir = tmp_path / "sel"
    code, out, err = run(
        capsys, "select", "--embeddings", stem, "--budget", "2", "--out-dir", out_dir,
    )
    assert code == 3, err
    assert err == (
        f"coreseg select: {meta}: malformed embedding metadata: "
        f"shape ({count}, {dim}) is too large\n"
    )
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("method", ["coreset", "random"])
def test_select_infeasible_budget_in_list_writes_nothing(
    capsys, tmp_path, demo_embeddings, method
):
    stem, _ = demo_embeddings
    out_dir = tmp_path / "sel"
    args = ("select", "--embeddings", stem, "--method", method, "--out-dir", out_dir)
    code, out, err = run(capsys, *args, "--budgets", "4,8,64")
    assert code == 3
    assert "budget 64 exceeds item count 12" in err
    assert out == ""
    assert not out_dir.exists()
    # Nothing was left behind, so the corrected rerun needs no --force.
    assert run(capsys, *args, "--budgets", "4,8")[0] == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        f"run_manifest_{method}.txt",
        f"selection_{method}_b4.txt",
        f"selection_{method}_b8.txt",
    ]


def test_select_k_init_beyond_later_budget_writes_nothing(capsys, tmp_path, demo_embeddings):
    stem, _ = demo_embeddings
    out_dir = tmp_path / "sel"
    code, _, err = run(
        capsys, "select", "--embeddings", stem, "--budgets", "0,6,2",
        "--k-init", "4", "--out-dir", out_dir,
    )
    assert code == 3
    assert "k_init 4 outside [1, budget=2]" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("method", ["coreset", "random"])
@pytest.mark.parametrize("spelling", ["config", "flag"])
def test_select_k_init_below_one_exits_2_before_reading(capsys, tmp_path, method, spelling):
    # The embedding stem does not exist, so only a refusal before any input
    # is read gives exit 2; random selection, which draws no k_init picks,
    # refuses the value all the same.
    out_dir = tmp_path / "sel"
    args = ["select", "--embeddings", tmp_path / "gone", "--method", method,
            "--out-dir", out_dir]
    if spelling == "flag":
        args += ["--k-init", "0"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k_init = 0\n", encoding="ascii")
        args += ["--config", cfg]
    code, _, err = run(capsys, *args)
    assert code == 2, err
    assert "k_init must be at least 1, got 0" in err
    assert not out_dir.exists()


def test_select_outputs_are_rerun_stable(capsys, tmp_path, demo_embeddings):
    stem, _ = demo_embeddings
    out_dir = tmp_path / "sel"
    args = ("select", "--embeddings", stem, "--budget", "4", "--out-dir", out_dir)
    assert run(capsys, *args)[0] == 0
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert run(capsys, *args, "--force")[0] == 0
    second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert first == second


@pytest.mark.parametrize("method", ["coreset", "random"])
def test_select_refusal_computes_nothing(
    capsys, tmp_path, demo_embeddings, monkeypatch, method
):
    stem, _ = demo_embeddings
    args = (
        "select", "--embeddings", stem, "--method", method, "--budget", "4",
        "--out-dir", tmp_path / "sel",
    )
    assert run(capsys, *args)[0] == 0
    # A call would now fail with an internal error; the refusal comes first.
    monkeypatch.setattr(coreset, "kcenter_greedy", None)
    monkeypatch.setattr(coreset, "random_select", None)
    assert run(capsys, *args)[0] == 5


@pytest.mark.parametrize("method", ["coreset", "random"])
def test_select_computes_rows_for_the_largest_budget_only(
    capsys, tmp_path, demo_embeddings, monkeypatch, method
):
    stem, _ = demo_embeddings
    real = coreset._distance_row
    sizes = []

    def counted(rows, v):
        sizes.append(len(rows))
        return real(rows, v)

    monkeypatch.setattr(coreset, "_distance_row", counted)
    code, _, err = run(
        capsys, "select", "--embeddings", stem, "--method", method,
        "--budgets", "0,2,5,3", "--k-init", "2", "--out-dir", tmp_path / "sel",
    )
    assert code == 0, err
    # Each pick makes one call against the picks so far (pruning bounds),
    # then exactly one item row, even when pruning leaves it empty.
    assert sizes[0::2] == [1, 2, 3, 4, 5]
    assert len(sizes[1::2]) == 5


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    method=st.sampled_from(["coreset", "random"]),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_select_budgets_are_prefixes_of_one_run(
    capsys, tmp_path_factory, method, n, seed, data
):
    # Every manifest and stdout line equals what a selection run at that
    # budget alone gives.
    budgets = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=5, unique=True))
    k_init = data.draw(st.integers(1, min([b for b in budgets if b > 0], default=1)))
    tmp = tmp_path_factory.mktemp("prefix")
    values = np.random.default_rng(seed % 2**32).normal(size=(n, 3))
    write_embeddings(EmbeddingMatrix([f"p{i}" for i in range(n)], values), tmp / "e")
    En = normalize_rows(read_embeddings(tmp / "e"))
    code, out, err = run(
        capsys, "select", "--embeddings", tmp / "e", "--method", method,
        "--budgets", ",".join(map(str, budgets)), "--seed", seed, "--k-init", k_init,
        "--out-dir", tmp / "out",
    )
    assert code == 0, err
    lines = []
    for b in budgets:
        if b == 0:
            lines.append("budget=0 skipped (nothing to select)")
            continue
        if method == "coreset":
            alone = kcenter_greedy(En, b, k_init=k_init, rng_seed=seed)
        else:
            alone = random_select(En.ids, b, rng_seed=seed, embeddings=En)
        write_selection_manifest(alone, tmp / "alone.txt")
        name = f"selection_{method}_b{b}.txt"
        assert (tmp / "out" / name).read_bytes() == (tmp / "alone.txt").read_bytes()
        lines.append(f"method={method} budget={b} radius={alone.radius_trace[-1]!r}")
    assert out.splitlines() == lines


def test_select_force_rerun_removes_stale_selections(capsys, tmp_path, demo_embeddings):
    stem, _ = demo_embeddings
    out_dir = tmp_path / "sel"
    args = ("select", "--embeddings", stem, "--out-dir", out_dir)
    assert run(capsys, *args, "--method", "random", "--budget", "8")[0] == 0
    assert run(capsys, *args, "--budgets", "4,8,12")[0] == 0
    assert run(capsys, *args, "--budgets", "4", "--force")[0] == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "run_manifest_coreset.txt",
        "run_manifest_random.txt",
        "selection_coreset_b4.txt",
        "selection_random_b8.txt",
    ]


# ---------------------------------------------------------------------------
# evaluate / report
# ---------------------------------------------------------------------------


def labeled_pair(tmp_path):
    vox = np.zeros((2, 3, 3), dtype=np.uint32)
    vox[0, 0, :] = 1
    vox[1, 2, :] = 2
    gt = tmp_path / "gt.vol3d"
    write_instance(gt, vox)
    empty = tmp_path / "empty.vol3d"
    write_instance(empty, np.zeros_like(vox))
    return gt, empty


def test_evaluate_identity_scores(capsys, tmp_path):
    gt, _ = labeled_pair(tmp_path)
    out_dir = tmp_path / "metrics"
    code, out, err = run(
        capsys,
        "evaluate",
        "--pred", gt,
        "--gt", gt,
        "--budget", "8",
        "--out-dir", out_dir,
    )
    assert code == 0, err
    assert out.strip() == "budget=8 tp=2 fp=0 fn=0 f1=1.0 pq=1.0"
    budget, record, threshold = parse_metrics_csv(
        (out_dir / "metrics_b8.csv").read_text()
    )
    assert (budget, threshold) == (8, 0.5)
    assert record.f1 == 1.0 and record.pq == 1.0
    kv = (out_dir / "metrics_b8.txt").read_text()
    assert "f1=1.0\n" in kv


def test_evaluate_requires_budget(capsys, tmp_path):
    gt, _ = labeled_pair(tmp_path)
    code, _, err = run(
        capsys, "evaluate", "--pred", gt, "--gt", gt, "--out-dir", tmp_path / "m"
    )
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("bad", ["0.4", "1.0"])
def test_evaluate_rejects_out_of_range_threshold(capsys, tmp_path, bad):
    gt, _ = labeled_pair(tmp_path)
    code, _, err = run(
        capsys,
        "evaluate",
        "--pred", gt,
        "--gt", gt,
        "--budget", "4",
        "--iou-threshold", bad,
        "--out-dir", tmp_path / "m",
    )
    assert code == 2
    assert "iou_threshold" in err


@pytest.mark.parametrize("bad", ["short", "shape"])
def test_evaluate_refusal_of_a_bad_gt_leaves_no_output(capsys, tmp_path, monkeypatch, bad):
    # Both headers and sizes are checked, and the shapes compared, before
    # either payload is read.
    gt, _ = labeled_pair(tmp_path)
    bad_gt = tmp_path / "bad.vol3d"
    if bad == "short":
        bad_gt.write_bytes(gt.read_bytes()[:-3])
        message = f"{bad_gt}: payload length mismatch: expected 72 bytes, found 69"
    else:
        write_instance(bad_gt, np.zeros((2, 3, 4), dtype=np.uint32))
        message = "pred shape (2, 3, 3) does not match gt shape (2, 3, 4)"

    def unread(self, volume=None):
        raise AssertionError("a payload was read")
        yield

    monkeypatch.setattr(volume_io._PlaneReader, "planes", unread)
    code, out, err = run(
        capsys, "evaluate", "--pred", gt, "--gt", bad_gt, "--budget", "8",
        "--out-dir", tmp_path / "out",
    )
    assert code == 3
    assert err == f"coreseg evaluate: {message}\n"
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_evaluate_refuses_overwrite_without_force(capsys, tmp_path):
    gt, _ = labeled_pair(tmp_path)
    out_dir = tmp_path / "metrics"
    args = ("evaluate", "--pred", gt, "--gt", gt, "--budget", "8", "--out-dir", out_dir)
    assert run(capsys, *args)[0] == 0
    csv_before = (out_dir / "metrics_b8.csv").read_bytes()
    (out_dir / "metrics_b8.csv").write_bytes(b"sentinel")
    code, _, err = run(capsys, *args)
    assert code == 5
    # refusal happens before any write; the sentinel survives intact
    assert (out_dir / "metrics_b8.csv").read_bytes() == b"sentinel"
    assert run(capsys, *args, "--force")[0] == 0
    assert (out_dir / "metrics_b8.csv").read_bytes() == csv_before


def test_report_end_to_end(capsys, tmp_path):
    gt, empty = labeled_pair(tmp_path)
    metrics_dir = tmp_path / "metrics"
    # Two budgets accumulate in one metrics directory without --force:
    # every output name, run manifest included, carries the budget.
    assert run(
        capsys, "evaluate", "--pred", empty, "--gt", gt, "--budget", "2",
        "--out-dir", metrics_dir,
    )[0] == 0
    assert run(
        capsys, "evaluate", "--pred", gt, "--gt", gt, "--budget", "4",
        "--out-dir", metrics_dir,
    )[0] == 0
    assert (metrics_dir / "metrics_b2.run.txt").is_file()
    assert (metrics_dir / "metrics_b4.run.txt").is_file()
    out_dir = tmp_path / "report"
    code, out, err = run(
        capsys, "report", "--metrics-dir", metrics_dir, "--out-dir", out_dir
    )
    assert code == 0, err
    assert "metric=f1 fraction=0.9 budget=4" in out
    csv_lines = (out_dir / "curve.csv").read_text().splitlines()
    assert csv_lines[0] == "metric,budget,score,percent"
    assert "f1,2,0.0,0.00" in csv_lines
    assert "f1,4,1.0,100.00" in csv_lines
    assert (out_dir / "curve_table.txt").is_file()
    assert (out_dir / "surpass.txt").read_text().splitlines()[0] == (
        "metric=f1 fraction=0.9 budget=4"
    )
    assert (out_dir / "run_manifest.txt").is_file()


def test_report_rejects_duplicate_budgets(capsys, tmp_path):
    gt, _ = labeled_pair(tmp_path)
    metrics_dir = tmp_path / "metrics"
    assert run(
        capsys, "evaluate", "--pred", gt, "--gt", gt, "--budget", "2",
        "--out-dir", metrics_dir,
    )[0] == 0
    dup = metrics_dir / "metrics_bdup.csv"
    dup.write_bytes((metrics_dir / "metrics_b2.csv").read_bytes())
    code, _, err = run(
        capsys, "report", "--metrics-dir", metrics_dir, "--out-dir", tmp_path / "r"
    )
    assert code == 3
    assert "duplicate budget 2" in err


def test_report_non_ascii_metrics_is_input_error(capsys, tmp_path):
    gt, _ = labeled_pair(tmp_path)
    metrics_dir = tmp_path / "metrics"
    assert run(
        capsys, "evaluate", "--pred", gt, "--gt", gt, "--budget", "8",
        "--out-dir", metrics_dir,
    )[0] == 0
    csv = metrics_dir / "metrics_b8.csv"
    csv.write_bytes(csv.read_bytes().replace(b"budget", b"b\xe9dget"))
    code, _, err = run(
        capsys, "report", "--metrics-dir", metrics_dir, "--out-dir", tmp_path / "r"
    )
    assert code == 3, err
    assert "metrics_b8.csv: malformed metrics file: not ASCII" in err
    assert "internal error" not in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"iou_threshold": "0.9"}, "cannot report across iou thresholds [0.5, 0.9]"),
        ({"iou_threshold": "0.1"}, "iou_threshold must lie in [0.5, 1), got 0.1"),
        ({"budget": "+2"}, "'+2,0,0,2'"),
        ({"budget": "0_2"}, "'0_2,0,0,2'"),
        ({"iou_threshold": "0.5_0"}, "score or threshold '0.5_0'"),
        ({"iou_threshold": " 0.5"}, "score or threshold ' 0.5'"),
        # 1e30 and 1.1e4000 reached Decimal.quantize and exited 4.
        ({"pq": "1e30"}, "malformed metrics row: pq must lie in [0, 1], got 1e+30\n"),
        ({"pq": "1.1e4000"}, "malformed metrics row: pq must lie in [0, 1], got inf\n"),
        ({"f1": "nan"}, "malformed metrics row: f1 must lie in [0, 1], got nan\n"),
        ({"recall": "-0.1"}, "malformed metrics row: recall must lie in [0, 1], got -0.1\n"),
    ],
    ids=["mixed-thresholds", "threshold-below-half", "plus-sign-budget", "underscore-budget",
         "underscore-threshold", "space-threshold", "score-1e30", "score-overflow",
         "score-nan", "score-negative"],
)
def test_report_rejects_bad_metrics_cells(capsys, tmp_path, edits, message):
    gt, empty = labeled_pair(tmp_path)
    metrics_dir = tmp_path / "metrics"
    for budget, pred in (("2", empty), ("4", gt)):
        assert run(
            capsys, "evaluate", "--pred", pred, "--gt", gt, "--budget", budget,
            "--out-dir", metrics_dir,
        )[0] == 0
    csv = metrics_dir / "metrics_b2.csv"
    header, row = csv.read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(","))) | edits
    csv.write_text(f"{header}\n{','.join(cells.values())}\n")
    code, out, err = run(
        capsys, "report", "--metrics-dir", metrics_dir, "--out-dir", tmp_path / "r"
    )
    assert code == 3, err
    assert message in err
    assert out == ""
    assert not (tmp_path / "r").exists()


def test_report_empty_directory(capsys, tmp_path):
    metrics_dir = tmp_path / "metrics"
    metrics_dir.mkdir()
    code, _, err = run(
        capsys, "report", "--metrics-dir", metrics_dir, "--out-dir", tmp_path / "r"
    )
    assert code == 3
    assert "no metrics_b*.csv" in err


# ---------------------------------------------------------------------------
# all-or-nothing outputs, for every command
# ---------------------------------------------------------------------------

COMMANDS = ["tile", "fuse", "cc", "select", "evaluate", "report"]


def command_case(capsys, tmp_path, command):
    """Write inputs for one run of command under tmp_path.

    Returns (args, run manifest name); every output of the run lands in
    tmp_path / "out", which does not exist yet.
    """
    out = tmp_path / "out"
    if command == "tile":
        vol = tmp_path / "v.vol3d"
        write_instance(vol, np.arange(75, dtype=np.uint32).reshape(3, 5, 5) % 4)
        args = ["tile", "--volume", vol, "--patch", "2,4,4", "--out-dir", out]
        return args, "run_manifest.txt"
    if command == "fuse":
        slice_file(tmp_path / "slices", "s0.vol3d", [[1, 0], [0, 1]])
        slice_file(tmp_path / "slices", "s1.vol3d", [[0, 0], [1, 1]])
        args = ["fuse", "--slices-dir", tmp_path / "slices", "--out", out / "f.vol3d"]
        return args, "f.vol3d.run.txt"
    if command == "cc":
        args = ["cc", "--mask", corner_mask(tmp_path), "--out", out / "c.vol3d"]
        return args, "c.vol3d.run.txt"
    if command == "select":
        values = np.random.default_rng(7).normal(size=(12, 4))
        write_embeddings(EmbeddingMatrix([f"p{i}" for i in range(12)], values), tmp_path / "e")
        args = ["select", "--embeddings", tmp_path / "e", "--budgets", "0,3,5", "--out-dir", out]
        return args, "run_manifest_coreset.txt"
    gt, empty = labeled_pair(tmp_path)
    if command == "evaluate":
        args = ["evaluate", "--pred", empty, "--gt", gt, "--budget", "4", "--out-dir", out]
        return args, "metrics_b4.run.txt"
    metrics = tmp_path / "metrics"
    for budget, pred in (("2", empty), ("4", gt)):
        assert run(
            capsys, "evaluate", "--pred", pred, "--gt", gt, "--budget", budget,
            "--out-dir", metrics,
        )[0] == 0
    return ["report", "--metrics-dir", metrics, "--out-dir", out], "run_manifest.txt"


@pytest.mark.parametrize("command", COMMANDS)
def test_run_manifest_lists_exactly_the_outputs(capsys, tmp_path, command):
    args, run_name = command_case(capsys, tmp_path, command)
    assert run(capsys, *args)[0] == 0
    lines = (tmp_path / "out" / run_name).read_text().splitlines()
    listed = {line.removeprefix("output=") for line in lines if line.startswith("output=")}
    written = {p.name for p in (tmp_path / "out").iterdir()}
    assert listed == written - {run_name}
    assert len(listed) >= 1


@pytest.mark.parametrize(
    "line",
    [
        "iou_threshold=0.3",
        "surpass_fraction=nan",
        "connectivity=18",
        "iou_threshold=abc",
        "patch_shape=0,1,1",
        "budget=-1",
        "volume_name=../x",
        "volume_name=",
        "out_dir=",
    ],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_bad_config_value_exits_2_from_every_command(
    capsys, tmp_path, monkeypatch, command, line
):
    # Every config line is checked as it is parsed, one the command does not
    # use included, so the run stops before its first read. The message says
    # where the bad value is: file, line and key.
    args, _ = command_case(capsys, tmp_path, command)
    for reader in ("volume_io._PlaneReader", "coreset.read_embeddings", "provenance.read_digested"):
        monkeypatch.setattr(f"coreseg.{reader}", None)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# bad value on line 2\n{line}\n", encoding="ascii")
    code, _, err = run(capsys, *args, "--config", cfg)
    assert code == 2, err
    key, _, value = line.partition("=")
    assert f"{cfg}:2: {key}: " in err and value in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_repeated_config_key_exits_2_from_every_command(
    capsys, tmp_path, monkeypatch, command
):
    # A repeated key is refused even when both lines agree, as in every
    # other coreseg text format, and before the command's first read.
    args, _ = command_case(capsys, tmp_path, command)
    for reader in ("volume_io._PlaneReader", "coreset.read_embeddings", "provenance.read_digested"):
        monkeypatch.setattr(f"coreseg.{reader}", None)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("patch_shape=2,4,4\n# again\npatch_shape=2,4,4\n", encoding="ascii")
    code, out, err = run(capsys, *args, "--config", cfg)
    assert code == 2, err
    assert err == f"coreseg {command}: {cfg}:3: duplicate config key 'patch_shape'\n"
    assert out == ""
    assert not (tmp_path / "out").exists()


# Each command's required values, the flag that leaves each one out, and
# the message that names it.
REQUIRED = [
    ("tile", "--volume", "missing required input volume (--volume / volume)"),
    ("tile", "--out-dir", "missing required output directory (--out-dir / out_dir)"),
    ("fuse", "--slices-dir", "missing required slice directory (--slices-dir / slices_dir)"),
    ("fuse", "--out", "missing required output path (--out / out)"),
    ("cc", "--mask", "missing required input mask (--mask / mask)"),
    ("cc", "--out", "missing required output path (--out / out)"),
    ("select", "--embeddings", "missing required embedding stem (--embeddings / embeddings)"),
    ("select", "--out-dir", "missing required output directory (--out-dir / out_dir)"),
    ("evaluate", "--pred", "missing required prediction volume (--pred / pred)"),
    ("evaluate", "--gt", "missing required ground-truth volume (--gt / gt)"),
    ("evaluate", "--out-dir", "missing required output directory (--out-dir / out_dir)"),
    ("evaluate", "--budget", "evaluate requires a budget (--budget / budget)"),
    ("report", "--metrics-dir", "missing required metrics directory (--metrics-dir / metrics_dir)"),
    ("report", "--out-dir", "missing required output directory (--out-dir / out_dir)"),
]


@pytest.mark.parametrize(
    "command, flag, message", REQUIRED, ids=[f"{c}{f}" for c, f, _ in REQUIRED]
)
def test_missing_required_value_exits_2_naming_flag_and_key(
    capsys, tmp_path, monkeypatch, command, flag, message
):
    args, _ = command_case(capsys, tmp_path, command)
    at = args.index(flag)
    del args[at : at + 2]
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, *args)
    assert code == 2, err
    assert err == f"coreseg {command}: {message}\n"
    assert out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("spelling", ["flag", "config"])
@pytest.mark.parametrize(
    "flag, key, reason",
    [
        ("--name", "volume_name", "volume_name must not be empty"),
        ("--out-dir", "out_dir", "expected a non-empty path, got ''"),
    ],
    ids=["volume-name", "path"],
)
def test_empty_value_is_usage_error(
    capsys, tmp_path, monkeypatch, spelling, flag, key, reason
):
    # Taken as given, an empty name would name the patches after the
    # volume's stem while the run manifest recorded "", and an empty output
    # directory is the working directory. Both are refused before any read.
    vol = tmp_path / "in" / "v.vol3d"
    vol.parent.mkdir()
    write_instance(vol, np.ones((3, 5, 5), dtype=np.uint32))
    args = ["tile", "--volume", vol, "--patch", "2,4,4"]
    if key != "out_dir":
        args += ["--out-dir", tmp_path / "out"]
    monkeypatch.setattr(volume_io, "read_volume", None)
    monkeypatch.chdir(tmp_path)
    if spelling == "flag":
        args += [flag, ""]
    else:
        (tmp_path / "run.cfg").write_text(f"{key}=\n", encoding="ascii")
        args += ["--config", "run.cfg"]
    code, out, err = run(capsys, *args)
    assert code == 2, err
    assert reason in err
    if spelling == "config":
        assert f"run.cfg:1: {key}: " in err
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["in", "run.cfg"] if spelling == "config" else ["in"]
    )


@pytest.mark.parametrize("command", COMMANDS)
def test_empty_config_path_is_usage_error(capsys, tmp_path, monkeypatch, command):
    # Taken as "no config file", an empty --config would run on the
    # defaults; it is refused like every other empty path.
    args, _ = command_case(capsys, tmp_path, command)
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, *args, "--config", "")
    assert code == 2, err
    assert "argument --config: expected a non-empty path, got ''" in err
    assert out == ""
    assert sorted(tmp_path.rglob("*")) == before


def manifest_inputs(run_manifest):
    """Return (role, name, digest) for every input= line of a run manifest."""
    lines = run_manifest.read_text().splitlines()
    return [tuple(x.removeprefix("input=").split(":")) for x in lines if x.startswith("input=")]


@pytest.mark.parametrize("command", COMMANDS)
def test_run_manifest_digests_are_of_the_input_bytes(capsys, tmp_path, command):
    args, run_name = command_case(capsys, tmp_path, command)
    assert run(capsys, *args)[0] == 0
    inputs = manifest_inputs(tmp_path / "out" / run_name)
    assert inputs
    for _, name, digest in inputs:
        [path] = [p for p in tmp_path.rglob(name) if "out" not in p.relative_to(tmp_path).parts]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_each_input_is_opened_once(capsys, tmp_path, monkeypatch, command):
    args, run_name = command_case(capsys, tmp_path, command)
    opened = []
    real_open = Path.open

    def recording_open(self, *a, **kw):
        opened.append(self.name)
        return real_open(self, *a, **kw)

    monkeypatch.setattr(Path, "open", recording_open)
    assert run(capsys, *args)[0] == 0
    names = [name for _, name, _ in manifest_inputs(tmp_path / "out" / run_name)]
    assert sorted(n for n in opened if n in names) == sorted(names)


@pytest.mark.parametrize(
    "command, step, role",
    [
        ("cc", "_label_planes", "mask"),
        ("evaluate", "evaluate", "gt"),
        # tile reads as it writes the patches; the grid manifest comes after.
        ("tile", "write_grid_manifest", "volume"),
    ],
    ids=["cc-mask", "evaluate-gt", "tile-volume"],
)
def test_run_manifest_hashes_the_bytes_read_not_a_swapped_file(
    capsys, tmp_path, monkeypatch, command, step, role
):
    # The input is replaced once the command has read it, while it computes;
    # the manifest must still describe the bytes the command read and used.
    args, run_name = command_case(capsys, tmp_path, command)
    path = Path(args[args.index(f"--{role}") + 1])
    original = hashlib.sha256(path.read_bytes()).hexdigest()
    home = {"cc": label_fusion, "evaluate": instance_metrics, "tile": patch_grid}[command]
    real = getattr(home, step)

    def compute_then_swap(*a, **kw):
        result = real(*a, **kw)
        path.write_bytes(b"replaced while the run was computing")
        return result

    monkeypatch.setattr(home, step, compute_then_swap)
    assert run(capsys, *args)[0] == 0
    [digest] = [d for r, _, d in manifest_inputs(tmp_path / "out" / run_name) if r == role]
    assert digest == original


def test_evaluate_calls_the_metrics_through_their_module(capsys, tmp_path, monkeypatch):
    # A wrapper set on instance_metrics, as a tracer sets one, sees each
    # metric layer that evaluate runs, once.
    args, _ = command_case(capsys, tmp_path, "evaluate")
    calls = []
    for name in ("match_instances", "overlap_histogram"):
        real = getattr(instance_metrics, name)

        def counted(*a, real=real, name=name, **kw):
            calls.append(name)
            return real(*a, **kw)

        monkeypatch.setattr(instance_metrics, name, counted)
    assert run(capsys, *args)[0] == 0
    assert calls == ["match_instances", "overlap_histogram"]


@pytest.mark.parametrize(
    "command, writer, failing_call",
    [
        # The fifth of 16 patch-plane writes: all 8 patch files are begun.
        ("tile", "write_plane", 5),
        ("fuse", "_write_run_manifest", 1),
        # The second of cc's two labeled-plane writes.
        ("cc", "write_plane", 2),
        ("select", "write_selection_manifest", 2),
        ("evaluate", "_write_run_manifest", 1),
        ("report", "_write_run_manifest", 1),
    ],
)
def test_failed_write_leaves_nothing_behind(
    capsys, tmp_path, monkeypatch, command, writer, failing_call
):
    args, _ = command_case(capsys, tmp_path, command)
    home = {"write_plane": volume_io, "write_selection_manifest": coreset}.get(writer, cli)
    real = getattr(home, writer)
    calls = []
    parts = []

    def write_then_fail(*a, **kw):
        real(*a, **kw)
        calls.append(a)
        if len(calls) == failing_call:
            parts.extend(tmp_path.rglob("*.part"))
            raise OSError("injected write failure")

    monkeypatch.setattr(home, writer, write_then_fail)
    code, out, err = run(capsys, *args)
    # Each failure fires with .part files on disk; tile's with all 8 patches'.
    assert len(parts) >= (8 if command == "tile" else 1)
    assert code == 3
    assert "injected write failure" in err
    assert out == ""
    assert not (tmp_path / "out").exists()
    assert list(tmp_path.rglob("*.part")) == []
    # Nothing was left behind, so the corrected rerun needs no --force.
    monkeypatch.undo()
    assert run(capsys, *args)[0] == 0


def test_failed_commit_removes_only_the_directories_it_made(capsys, tmp_path, monkeypatch):
    # The output's two new directories go, deepest first; "keep", which was
    # there before the run, stays.
    (tmp_path / "keep").mkdir()
    args = ["cc", "--mask", corner_mask(tmp_path), "--out", tmp_path / "keep/a/b/c.vol3d"]

    def fail(*a, **kw):
        raise OSError("injected write failure")

    monkeypatch.setattr(volume_io, "write_plane", fail)
    code, _, err = run(capsys, *args)
    assert code == 3 and "injected write failure" in err
    assert (tmp_path / "keep").is_dir()
    assert not (tmp_path / "keep" / "a").exists()


def test_failed_commit_removes_the_directories_it_made_past_a_dotdot(
    capsys, tmp_path, monkeypatch
):
    # The output path climbs out of the new "x" with "..": the run makes x
    # and E/c, and a failed run removes those two and nothing else. E, an
    # empty directory of the user's, stays.
    (tmp_path / "w").mkdir()
    (tmp_path / "E").mkdir()
    args = ["cc", "--mask", corner_mask(tmp_path), "--out",
            tmp_path / "w" / "x" / ".." / ".." / "E" / "c" / "out.vol3d"]

    def fail(*a, **kw):
        raise OSError("injected write failure")

    monkeypatch.setattr(volume_io, "write_plane", fail)
    code, _, err = run(capsys, *args)
    assert code == 3 and "injected write failure" in err
    assert not (tmp_path / "w" / "x").exists()
    assert not (tmp_path / "E" / "c").exists()
    assert (tmp_path / "E").is_dir()


@pytest.mark.parametrize("blocked", ["parent", "ancestor"])
def test_output_directory_that_cannot_be_made_reads_as_mkdir_says(
    capsys, tmp_path, blocked
):
    # A file where the output's directory, or one above it, would go: the
    # message is Path.mkdir's own, and the run exits 3 with nothing made.
    (tmp_path / "f").write_text("")
    out_dir = tmp_path / "f" if blocked == "parent" else tmp_path / "new" / "f" / "sub"
    if blocked == "ancestor":
        (tmp_path / "new").mkdir()
        (tmp_path / "new" / "f").write_text("")
    with pytest.raises(OSError) as want:
        out_dir.mkdir(parents=True, exist_ok=True)
    args = ["cc", "--mask", corner_mask(tmp_path), "--out", out_dir / "c.vol3d"]
    code, out, err = run(capsys, *args)
    assert code == 3
    assert err == f"coreseg cc: {want.value}\n"
    assert out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
        ["f", "corner.vol3d"] + (["new", "f"] if blocked == "ancestor" else [])
    )


@pytest.mark.parametrize(
    "command, flag, first_value, renames",
    [
        # The first run scores the ground truth against itself; the rerun
        # scores the empty prediction into the same three names.
        ("evaluate", "--pred", lambda d: d / "gt.vol3d", 3 + 3),
        # The rerun writes 8 patches where the first run wrote 1: three
        # targets are moved aside, and ten files are renamed in.
        ("tile", "--patch", lambda d: "3,5,5", 3 + 10),
        # The first run's budget 4 is dropped and 5 added: the b3 selection
        # and the run manifest are moved aside, and three files renamed in.
        ("select", "--budgets", lambda d: "0,3,4", 2 + 3),
    ],
)
def test_failed_rename_restores_the_previous_outputs(
    capsys, tmp_path, monkeypatch, command, flag, first_value, renames
):
    # Fail each rename of a forced rerun in turn: the output directory must
    # hold exactly the previous run's bytes after each failure.
    args, _ = command_case(capsys, tmp_path, command)
    first_args = list(args)
    first_args[args.index(flag) + 1] = first_value(tmp_path)
    assert run(capsys, *first_args)[0] == 0
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_replace = Path.replace
    for failing_call in itertools.count(1):
        calls = []

        def replace_or_fail(self, target):
            calls.append(self)
            if len(calls) == failing_call:
                raise OSError("injected rename failure")
            return real_replace(self, target)

        monkeypatch.setattr(Path, "replace", replace_or_fail)
        code, stdout, err = run(capsys, *args, "--force")
        monkeypatch.undo()
        if code == 0:
            break
        assert code == 3, err
        assert "injected rename failure" in err
        assert stdout == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before, failing_call
    assert failing_call - 1 == renames
    assert {p.name: p.read_bytes() for p in out.iterdir()} != before


KILLED = 9


def run_killed(args, nth):
    """Run the CLI in a forked child that dies at its nth Path.replace.

    Returns KILLED if it died there, else the child's exit status.
    """
    pid = os.fork()
    if pid == 0:
        calls = itertools.count(1)
        real_replace = Path.replace

        def replace_or_die(self, target):
            if next(calls) == nth:
                os._exit(KILLED)
            return real_replace(self, target)

        Path.replace = replace_or_die
        try:
            os._exit(cli_main([str(a) for a in args]))
        finally:
            os._exit(70)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


@pytest.mark.parametrize(
    "command, first, killed, final, renames",
    [
        # Scores the ground truth against itself, then the empty prediction
        # into the same three names: three moved aside, three renamed in.
        ("evaluate", ["--pred", "gt.vol3d"], ["--pred", "empty.vol3d"], None, 3 + 3),
        # Drops budget 16: the manifest and b8 are moved aside and renamed in.
        ("select", ["--budgets", "8,16"], ["--budgets", "8"], None, 2 + 2),
        # The killed run may leave b16 at its .part or .prev, which the
        # final run, without budget 16, must take out too.
        ("select", ["--budgets", "8,16"], ["--budgets", "8,16"], ["--budgets", "8"], 3 + 3),
    ],
    ids=["evaluate", "select-8,16-8", "select-8,16-8,16-8"],
)
def test_forced_rerun_after_a_killed_run_leaves_only_listed_outputs(
    capsys, tmp_path, command, first, killed, final, renames
):
    # Kill a forced rerun at each rename in turn; a forced run then leaves
    # exactly the outputs its run manifest lists and no temp file.
    if command == "evaluate":
        labeled_pair(tmp_path)
        base = ["evaluate", "--gt", tmp_path / "gt.vol3d", "--budget", "4"]
        first, killed = (["--pred", tmp_path / args[1]] for args in (first, killed))
        run_name = "metrics_b4.run.txt"
    else:
        values = np.random.default_rng(3).normal(size=(20, 4))
        write_embeddings(EmbeddingMatrix([f"p{i}" for i in range(20)], values), tmp_path / "e")
        base = ["select", "--embeddings", tmp_path / "e"]
        run_name = "run_manifest_coreset.txt"
    out = tmp_path / "out"
    base += ["--out-dir", out]
    assert run(capsys, *base, *first)[0] == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    for nth in itertools.count(1):
        for p in out.iterdir():
            p.unlink()
        for name, data in before.items():
            (out / name).write_bytes(data)
        status = run_killed([*base, *killed, "--force"], nth)
        if status == 0:
            break
        assert status == KILLED, nth
        code, _, err = run(capsys, *base, *(final or killed), "--force")
        assert code == 0, err
        lines = (out / run_name).read_text().splitlines()
        listed = {x.removeprefix("output=") for x in lines if x.startswith("output=")}
        assert {p.name for p in out.iterdir()} == listed | {run_name}, nth
    assert nth - 1 == renames


@pytest.mark.parametrize("command", COMMANDS)
def test_output_directory_taken_by_file_is_input_error(capsys, tmp_path, command):
    args, _ = command_case(capsys, tmp_path, command)
    (tmp_path / "out").write_bytes(b"not a directory")
    code, _, err = run(capsys, *args)
    assert code == 3
    assert "internal error" not in err
    assert (tmp_path / "out").read_bytes() == b"not a directory"


def test_force_refuses_directory_in_place_of_output(capsys, tmp_path, demo_volume):
    vol_path, _ = demo_volume
    out_dir = tmp_path / "patches"
    (out_dir / "run_manifest.txt").mkdir(parents=True)
    args = ("tile", "--volume", vol_path, "--patch", "2,4,4", "--out-dir", out_dir)
    code, _, err = run(capsys, *args, "--force")
    assert code == 3
    assert "not a regular file" in err
    assert [p.name for p in out_dir.iterdir()] == ["run_manifest.txt"]
    (out_dir / "run_manifest.txt").rmdir()
    assert run(capsys, *args)[0] == 0


# Names of two temp files each command's outputs would use: <name>.part
# while it is written and <name>.prev while an old output is moved aside.
TEMP_NAMES = {
    "evaluate": ("metrics_b4.csv.part", "metrics_b4.txt.prev"),
    "tile": ("grid_manifest.txt.part", "run_manifest.txt.prev"),
}


@pytest.mark.parametrize("command", sorted(TEMP_NAMES))
def test_file_named_like_a_temp_file_is_an_existing_output(capsys, tmp_path, command):
    # Such a file is the user's: the run is refused without --force and
    # keeps its bytes; a forced run, fresh or over an existing output
    # set, leaves no temp file behind.
    args, _ = command_case(capsys, tmp_path, command)
    out = tmp_path / "out"
    out.mkdir()
    user_files = {name: f"the user's {name}".encode() for name in TEMP_NAMES[command]}
    for name, data in user_files.items():
        (out / name).write_bytes(data)
    code, stdout, err = run(capsys, *args)
    assert code == 5, err
    assert "use --force" in err and stdout == ""
    assert {p.name: p.read_bytes() for p in out.iterdir()} == user_files
    for _ in range(2):
        code, _, err = run(capsys, *args, "--force")
        assert code == 0, err
        assert list(out.glob("*.part")) + list(out.glob("*.prev")) == []
        for name, data in user_files.items():
            (out / name).write_bytes(data)


@pytest.mark.parametrize("command", sorted(TEMP_NAMES))
def test_force_refuses_directory_named_like_a_temp_file(capsys, tmp_path, command):
    args, _ = command_case(capsys, tmp_path, command)
    name = TEMP_NAMES[command][0]
    (tmp_path / "out" / name).mkdir(parents=True)
    code, stdout, err = run(capsys, *args, "--force")
    assert code == 3, err
    assert "not a regular file" in err and stdout == ""
    assert [p.name for p in (tmp_path / "out").iterdir()] == [name]


def test_non_ascii_paths_are_hashed_as_utf8(capsys, tmp_path):
    (tmp_path / "données").mkdir()
    mask = corner_mask(tmp_path / "données")
    out = tmp_path / "sortie" / "é.vol3d"
    code, _, err = run(capsys, "cc", "--mask", mask, "--out", out)
    assert code == 0, err
    config_text = resolved_lines(PipelineConfig(mask=str(mask), out=str(out)))
    digest = hashlib.sha256(config_text.encode("utf-8")).hexdigest()
    lines = (out.parent / "é.vol3d.run.txt").read_text(encoding="utf-8").splitlines()
    assert f"config_sha256={digest}" in lines
    assert "input=mask:corner.vol3d:" + hashlib.sha256(mask.read_bytes()).hexdigest() in lines


def test_non_ascii_volume_name_is_written_to_the_grid_manifest(capsys, tmp_path, demo_volume):
    vol_path, _ = demo_volume
    out_dir = tmp_path / "patches"
    code, _, err = run(
        capsys, "tile", "--volume", vol_path, "--name", "é", "--patch", "2,4,4",
        "--out-dir", out_dir,
    )
    assert code == 0, err
    spec = plan_grid((3, 5, 5), (2, 4, 4), "reflect")
    text = (out_dir / "grid_manifest.txt").read_text(encoding="utf-8")
    assert "\nvolume_name=é\n" in text
    assert text.encode("utf-8") == written_by(tmp_path, write_grid_manifest, spec, "é")
    filenames = [patch_filename(pid) for pid in patch_ids(spec, "é")]
    assert sorted(filenames) == sorted(p.name for p in out_dir.glob("*.vol3d"))


def test_undecodable_argv_byte_is_usage_error(capsys, tmp_path, monkeypatch):
    # Python turns the byte into a lone surrogate that no manifest could
    # hold; the run stops before its first read.
    mask = Path(os.fsdecode(bytes(tmp_path / "m") + b"\xff.vol3d"))
    corner_mask(tmp_path).replace(mask)
    monkeypatch.setattr(volume_io, "_PlaneReader", None)
    code, stdout, err = run(capsys, "cc", "--mask", mask, "--out", tmp_path / "out" / "c.vol3d")
    assert code == 2, err
    assert "argument --mask: not UTF-8: " in err and stdout == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fuse", "report"])
def test_undecodable_input_name_in_a_listing_is_input_error(
    capsys, tmp_path, monkeypatch, command
):
    # A globbed name bypasses argv's check; it is refused before any read,
    # and nothing is written, not even the output directory.
    if command == "fuse":
        inputs = tmp_path / "slices"
        slice_file(inputs, "s0.vol3d", [[1, 0], [0, 1]])
        slice_file(inputs, "s1.vol3d", [[0, 0], [1, 1]])
        (inputs / "s1.vol3d").replace(os.fsdecode(bytes(inputs / "s") + b"\xff1.vol3d"))
        args = ["fuse", "--slices-dir", inputs, "--out", tmp_path / "out" / "f.vol3d"]
        monkeypatch.setattr(volume_io, "read_volume", None)
    else:
        gt, _ = labeled_pair(tmp_path)
        inputs = tmp_path / "metrics"
        assert run(
            capsys, "evaluate", "--pred", gt, "--gt", gt, "--budget", "4", "--out-dir", inputs
        )[0] == 0
        (inputs / "metrics_b4.csv").replace(os.fsdecode(bytes(inputs / "metrics_b") + b"\xff.csv"))
        args = ["report", "--metrics-dir", inputs, "--out-dir", tmp_path / "out"]
        monkeypatch.setattr(provenance, "read_digested", None)
    name = next(p.name for p in inputs.iterdir() if "\udcff" in p.name)
    code, stdout, err = run(capsys, *args)
    assert code == 3, err
    assert f"input file name is not UTF-8: {name!r}" in err and stdout == ""
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# configuration file handling
# ---------------------------------------------------------------------------


def test_config_file_supplies_values_and_flags_win(capsys, tmp_path, demo_embeddings):
    stem, _ = demo_embeddings
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"embeddings={stem}\nbudget=2\nrng_seed=5\n# comment line\n", encoding="ascii"
    )
    out_dir = tmp_path / "sel"
    code, _, err = run(
        capsys, "select", "--config", cfg, "--budget", "4", "--out-dir", out_dir
    )
    assert code == 0, err
    files = sorted(p.name for p in out_dir.glob("selection_*.txt"))
    assert files == ["selection_coreset_b4.txt"]  # flag overrode the file's 2
    # The file's rng_seed survived where no flag was given.
    expected = kcenter_greedy(normalize_rows(read_embeddings(stem)), 4, rng_seed=5)
    assert (out_dir / "selection_coreset_b4.txt").read_bytes() == written_by(
        tmp_path, write_selection_manifest, expected
    )


@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_negative_budget_is_usage_error(capsys, tmp_path, spelling):
    gt, _ = labeled_pair(tmp_path)
    out_dir = tmp_path / "metrics"
    args = ["evaluate", "--pred", gt, "--gt", gt, "--out-dir", out_dir]
    if spelling == "flag":
        args += ["--budget", "-1"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget=-1\n", encoding="ascii")
        args += ["--config", cfg]
    code, _, err = run(capsys, *args)
    assert code == 2
    assert "budget must be non-negative" in err
    assert not out_dir.exists()


def test_config_unknown_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_key=1\n", encoding="ascii")
    code, _, err = run(capsys, "select", "--config", cfg, "--out-dir", tmp_path / "s")
    assert code == 2
    assert "no_such_key" in err


def test_config_line_without_equals_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget=2\n  budgets 2,4\n", encoding="ascii")
    code, _, err = run(capsys, "select", "--config", cfg, "--out-dir", tmp_path / "s")
    assert code == 2, err
    assert err == f"coreseg select: {cfg}:2: expected key = value, got '  budgets 2,4'\n"
    assert not (tmp_path / "s").exists()


def test_config_not_utf8_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"budget=2\n# r\xe9sum\xe9\n")
    code, _, err = run(capsys, "select", "--config", cfg, "--out-dir", tmp_path / "s")
    assert code == 2, err
    assert f"{cfg}: config file is not UTF-8 text" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("spelling", ["config", "flag"])
@pytest.mark.parametrize(
    "command, key, value",
    [
        ("tile", "patch_shape", "\u00b2,1,1"),
        ("tile", "patch_shape", f"{'1' * 5000},1,1"),
        ("tile", "pad_mode", "mirror"),
        ("select", "budgets", "1,\u00b2"),
        ("select", "method", "best"),
        ("select", "rng_seed", "\u0663"),
        ("cc", "connectivity", "18"),
        ("evaluate", "iou_threshold", "0.4"),
        ("evaluate", "iou_threshold", "1.0"),
        ("report", "surpass_fraction", "nan"),
        ("report", "surpass_fraction", "2"),
        ("report", "surpass_fraction", "\u0660.\u0665"),
        ("evaluate", "iou_threshold", "0.7_5"),
        ("select", "budgets", "4,4"),
        ("select", "k_init", "0"),
        ("select", "k_init", "-2"),
    ],
    ids=["superscript-shape", "5000-digit-shape", "pad-mode", "superscript-budget",
         "method", "arabic-indic-seed", "connectivity", "iou-threshold-low",
         "iou-threshold-one", "fraction-nan", "fraction-two", "arabic-indic-fraction",
         "underscore-threshold", "repeated-budget", "k-init-zero", "k-init-negative"],
)
def test_malformed_value_is_usage_error(
    capsys, tmp_path, demo_volume, demo_embeddings, spelling, command, key, value
):
    # A flag and a config line accept the same text, through one parser.
    flags = {"patch_shape": "--patch", "pad_mode": "--pad-mode", "budgets": "--budgets",
             "method": "--method", "rng_seed": "--seed", "connectivity": "--connectivity",
             "iou_threshold": "--iou-threshold", "surpass_fraction": "--fraction",
             "k_init": "--k-init"}
    out_dir = tmp_path / "out"
    # cc, evaluate and report name inputs that do not exist, so only a value
    # refused before any input is opened gives exit 2.
    gone = tmp_path / "gone.vol3d"
    args = {
        "tile": [command, "--volume", demo_volume[0], "--out-dir", out_dir],
        "select": [command, "--embeddings", demo_embeddings[0], "--out-dir", out_dir],
        "cc": [command, "--mask", gone, "--out", out_dir / "cc.vol3d"],
        "evaluate": [command, "--pred", gone, "--gt", gone, "--budget", "4",
                     "--out-dir", out_dir],
        "report": [command, "--metrics-dir", gone, "--out-dir", out_dir],
    }[command]
    if spelling == "flag":
        args += [flags[key], value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n", encoding="utf-8")
        args += ["--config", cfg]
    code, _, err = run(capsys, *args)
    assert code == 2, err
    assert value[:20] in err
    assert not out_dir.exists()


@pytest.mark.parametrize("spelling", ["flag", "config"])
@pytest.mark.parametrize("seed", [-7, -(2**63)])
def test_negative_seed_is_accepted(capsys, tmp_path, demo_embeddings, spelling, seed):
    # The seed is the one signed integer field; the manifest keeps its sign.
    stem, _ = demo_embeddings
    out_dir = tmp_path / "sel"
    args = ["select", "--embeddings", stem, "--budget", "4", "--out-dir", out_dir]
    if spelling == "flag":
        args += ["--seed", seed]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"rng_seed={seed}\n", encoding="ascii")
        args += ["--config", cfg]
    code, _, err = run(capsys, *args)
    assert code == 0, err
    expected = kcenter_greedy(normalize_rows(read_embeddings(stem)), 4, rng_seed=seed)
    written = (out_dir / "selection_coreset_b4.txt").read_bytes()
    assert f"\nrng_seed={seed}\n".encode() in written
    assert written == written_by(tmp_path, write_selection_manifest, expected)


@pytest.mark.parametrize("spelling", ["flag", "config"])
def test_double_minus_seed_is_usage_error(capsys, tmp_path, demo_embeddings, spelling):
    stem, _ = demo_embeddings
    out_dir = tmp_path / "sel"
    args = ["select", "--embeddings", stem, "--out-dir", out_dir]
    if spelling == "flag":
        args.append("--seed=--7")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rng_seed=--7\n", encoding="ascii")
        args += ["--config", cfg]
    code, _, err = run(capsys, *args)
    assert code == 2, err
    assert "expected an integer, got '--7'" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, allowed",
    [
        ("tile", "zero or reflect"),
        ("select", "coreset or random"),
        ("evaluate", "[0.5, 1)"),
        ("report", "(0, 1]"),
    ],
)
def test_help_states_allowed_values(capsys, command, allowed):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert allowed in " ".join(out.split())


def test_config_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "select", "--config", tmp_path / "gone.cfg", "--out-dir", tmp_path / "s"
    )
    assert code == 3


# ---------------------------------------------------------------------------
# parser-level behavior
# ---------------------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys)[0] == 2


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("coreseg ")


@pytest.mark.parametrize(
    "exc, message",
    [
        (InternalError("greedy ran out"), "internal error: greedy ran out"),
        (KeyError("slot"), "internal error: KeyError('slot')"),
    ],
    ids=["internal-error", "unexpected-exception"],
)
def test_internal_failure_of_a_command_exits_4(capsys, monkeypatch, exc, message):
    def broken(cfg, force):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "report", broken)
    code, out, err = run(capsys, "report")
    assert code == 4
    assert out == ""
    assert err == f"coreseg report: {message}\n"


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 8.00 GiB"), "Unable to allocate 8.00 GiB"),
        (MemoryError(), "out of memory"),
    ],
    ids=["numpy", "bare"],
)
def test_allocation_failure_of_a_command_exits_3(capsys, monkeypatch, exc, message):
    def greedy(cfg, force):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "report", greedy)
    code, out, err = run(capsys, "report")
    assert (code, out) == (3, "")
    assert err == f"coreseg report: {message}\n"
