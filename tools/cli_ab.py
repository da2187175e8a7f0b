"""Check that two git revisions' CLIs give byte-identical results.

Usage (from the repository root):

    python3 tools/cli_ab.py REV [--change HEAD]

REV and --change (default HEAD, so commit the change first) are exported
with bench_ab.export into one temporary directory. One set of small inputs
is written there with clibench/formats.py's writers, so neither tree makes
them. Each tree then runs the same fixed script (SCRIPT) of
`python -m coreseg.cli` calls in the same absolute work directory, one
tree after the other, so every path that a message or a manifest holds
reads alike. The script covers every command: both pad modes, both
connectivities, both methods, refused and forced reruns, and calls that
exit 2, 3 and 5. Both methods also run on an embedding set larger than
one read chunk and one normalization block of coreseg.coreset, so that
the chunk and block boundaries are crossed. Every file and every
directory the script leaves (an empty one too), and each call's stdout,
stderr and exit code, are compared. The check prints each difference and exits 1, or exits 0 when
there is none.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# bench_ab sits beside this file; clibench/ is a directory of the root.
sys.path[:0] = [str(ROOT / "tools"), str(ROOT)]

from bench_ab import SIDES, export  # noqa: E402
from clibench.formats import KIND_INSTANCE, KIND_MASK, write_embeddings, write_vol3d  # noqa: E402

SEL = ["select", "--embeddings", "emb", "--seed", "7", "--out-dir", "sel"]
TILE = ["tile", "--volume", "vol.vol3d", "--name", "v", "--out-dir", "tiles_reflect"]
EVAL = ["evaluate", "--pred", "vol.vol3d", "--gt", "gt.vol3d", "--out-dir", "metrics"]
REPORT = ["report", "--metrics-dir", "metrics", "--out-dir", "rep"]

# The calls each tree runs, in order, from the work directory.
SCRIPT = [
    ["tile", "--volume", "vol.vol3d", "--patch", "2,4,4", "--pad-mode", "zero",
     "--out-dir", "tiles_zero"],
    [*TILE, "--patch", "2,4,4", "--pad-mode", "reflect"],
    [*TILE, "--patch", "2,4,4"],  # exists: 5
    [*TILE, "--patch", "3,5,5", "--force"],  # fewer patches; the old ones go
    ["tile", "--volume", "vol.vol3d", "--patch", "0,4,4", "--out-dir", "t"],  # 2
    ["tile", "--volume", "gone.vol3d", "--out-dir", "t"],  # 3
    # A reflect pad longer than its axis: 2 planes padded to 9.
    ["tile", "--volume", "thin.vol3d", "--patch", "9,4,4", "--out-dir", "tiles_thin"],
    ["tile", "--volume", "vol.vol3d", "--patch", "2,3,5", "--pad-mode", "zero",
     "--out-dir", "tiles_zero_333"],  # a 3x3x3 grid
    ["tile", "--volume", "mask_last.vol3d", "--patch", "2,4,4",
     "--out-dir", "tiles_last"],  # a 2 in the last plane: 3
    ["cc", "--mask", "mask.vol3d", "--connectivity", "6", "--out", "cc/face6.vol3d"],
    ["cc", "--mask", "mask.vol3d", "--connectivity", "26", "--out", "cc/full26.vol3d"],
    ["cc", "--mask", "mask.vol3d", "--out", "cc/full26.vol3d"],  # 5
    ["cc", "--mask", "mask.vol3d", "--connectivity", "6", "--out", "cc/full26.vol3d",
     "--force"],
    ["cc", "--mask", "vol.vol3d", "--out", "cc/bad.vol3d"],  # not a mask: 3
    ["cc", "--mask", "mask_last.vol3d", "--out", "cc/last.vol3d"],  # a 2 in the last plane: 3
    ["cc", "--mask", "mask.vol3d", "--out", "vol.vol3d/x/c.vol3d"],  # a file above: 3
    ["fuse", "--slices-dir", "slices", "--connectivity", "6", "--out", "fuse/face6.vol3d"],
    ["fuse", "--slices-dir", "slices", "--out", "fuse/full26.vol3d"],
    ["fuse", "--slices-dir", "cc", "--out", "fuse/bad.vol3d"],  # no numeric suffix: 3
    ["fuse", "--slices-dir", "slices_thick", "--out", "fuse/thick.vol3d"],  # z = 2 midway: 3
    ["fuse", "--slices-dir", "slices_wide", "--out", "fuse/wide.vol3d"],  # (y, x) differs: 3
    [*SEL, "--method", "coreset", "--budgets", "0,2,3,12", "--k-init", "2"],
    [*SEL, "--method", "random", "--budgets", "0,3,12"],
    [*SEL, "--method", "coreset", "--budgets", "3"],  # exists: 5
    [*SEL, "--method", "coreset", "--budget", "5", "--k-init", "5", "--force"],
    [*SEL, "--method", "random", "--budget", "60", "--force"],  # budget = N
    [*SEL, "--method", "coreset", "--budgets", "6,2", "--k-init", "4", "--force"],  # 3
    [*SEL, "--budget", "61", "--force"],  # budget above N: 3
    [*SEL, "--k-init", "0"],  # 2
    [*SEL, "--method", "greedy"],  # 2
    ["select", "--embeddings", "zero", "--budget", "2", "--out-dir", "sel_zero"],  # 3
    ["select", "--embeddings", "empty", "--budget", "2", "--out-dir", "sel_empty"],  # 3
    ["select", "--config", "select.cfg"],
    # 20000x8: 2.4 read chunks, 1.2 normalization blocks, and picks that
    # gather several blocks of rows.
    ["select", "--embeddings", "big", "--method", "coreset", "--budgets", "8,300",
     "--k-init", "2", "--seed", "7", "--out-dir", "sel_big"],
    ["select", "--embeddings", "big", "--method", "random", "--budgets", "8,300",
     "--seed", "7", "--out-dir", "sel_big"],
    [*EVAL, "--budget", "2"],
    ["evaluate", "--pred", "gt.vol3d", "--gt", "vol.vol3d", "--out-dir", "metrics",
     "--budget", "4"],
    [*EVAL, "--budget", "2"],  # exists: 5
    [*EVAL, "--budget", "2", "--iou-threshold", "0.4"],  # 2
    [*EVAL, "--budget", "8", "--iou-threshold", "0.75", "--out-dir", "metrics_75"],
    [*EVAL],  # no budget: 2
    [*EVAL, "--budget", "3", "--gt", "gt_short.vol3d"],  # gt short by 3 bytes: 3
    [*EVAL, "--budget", "3", "--gt", "gt_wide.vol3d"],  # shapes differ: 3
    REPORT,
    [*REPORT, "--fraction", "0.5"],  # exists: 5
    [*REPORT, "--fraction", "0.5", "--force"],
    [*REPORT, "--fraction", "2"],  # 2
    ["report", "--metrics-dir", "sel", "--out-dir", "rep2"],  # no metrics files: 3
]


def write_inputs(into: Path) -> None:
    """Write the script's inputs into `into`, the same on every call."""
    rng = np.random.default_rng(21)
    labels = rng.integers(0, 6, size=(5, 9, 11))
    write_vol3d(into / "vol.vol3d", labels, KIND_INSTANCE)
    write_vol3d(into / "thin.vol3d", labels[:2], KIND_INSTANCE)
    write_vol3d(into / "gt.vol3d", np.where(rng.random(labels.shape) < 0.8, labels, 0),
                KIND_INSTANCE)
    mask = rng.random((6, 10, 12)) < 0.3
    write_vol3d(into / "mask.vol3d", mask, KIND_MASK)
    (into / "slices").mkdir()
    for z in range(4):
        write_vol3d(into / "slices" / f"s{z}.vol3d", rng.random((1, 10, 12)) < 0.4, KIND_MASK)
    ids = [f"item{i:02d}" for i in range(60)]
    values = rng.normal(size=(60, 8))
    write_embeddings(into / "emb", ids, values)
    values[3] = 0.0
    write_embeddings(into / "zero", ids, values)
    write_embeddings(into / "empty", [], np.zeros((0, 4)))
    write_embeddings(into / "big", [f"big{i:05d}" for i in range(20000)],
                     np.random.default_rng(22).normal(size=(20000, 8)))
    (into / "select.cfg").write_text(
        "embeddings = emb\nmethod = random\nbudgets = 2,5\nrng_seed = 3\nout_dir = sel_cfg\n",
        encoding="ascii",
    )
    # Bad inputs: a 2 in the mask's last plane, a gt 3 bytes short, a gt of
    # another shape, and slice directories with a z = 2 slice midway and with
    # a slice of another (y, x) shape.
    mask = mask.astype(np.uint32)
    mask[-1, 4, 5] = 2
    write_vol3d(into / "mask_last.vol3d", mask, KIND_MASK)
    (into / "gt_short.vol3d").write_bytes((into / "gt.vol3d").read_bytes()[:-3])
    write_vol3d(into / "gt_wide.vol3d", rng.integers(0, 6, size=(5, 9, 12)), KIND_INSTANCE)
    for name, shapes in (("slices_thick", [(1, 10, 12), (2, 10, 12), (1, 10, 12)]),
                         ("slices_wide", [(1, 10, 12), (1, 10, 12), (1, 10, 13)])):
        (into / name).mkdir()
        for z, shape in enumerate(shapes):
            write_vol3d(into / name / f"s{z}.vol3d", rng.random(shape) < 0.4, KIND_MASK)


def _child(tree: Path, work: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    # One CLI call with tree's source; returns (exit code, stdout, stderr).
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    done = subprocess.run(
        [sys.executable, "-m", "coreseg.cli", *argv],
        cwd=work, env=env, capture_output=True, timeout=300,
    )
    return done.returncode, done.stdout, done.stderr


def run_script(tree: Path, inputs: Path, work: Path) -> dict:
    """Run SCRIPT with tree's CLI in a fresh copy of inputs at work.

    Returns each call's (exit code, stdout, stderr), every file left in
    work by relative path and the set of directories left there, and
    removes work again.
    """
    shutil.copytree(inputs, work)
    try:
        runs = [_child(tree, work, argv) for argv in SCRIPT]
        left = sorted(work.rglob("*"))
        files = {p.relative_to(work).as_posix(): p.read_bytes() for p in left if p.is_file()}
        dirs = {p.relative_to(work).as_posix() for p in left if p.is_dir()}
    finally:
        shutil.rmtree(work)
    return {"runs": runs, "files": files, "dirs": dirs}


def compare(base: dict, change: dict) -> list[str]:
    """Name each difference between two run_script results."""
    diffs = []
    for i, (argv, b, c) in enumerate(zip(SCRIPT, base["runs"], change["runs"]), 1):
        for what, x, y in zip(("exit code", "stdout", "stderr"), b, c):
            if x != y:
                diffs.append(f"call {i} ({' '.join(argv)}): {what} differs: {x!r} != {y!r}")
    for name in sorted(base["files"].keys() | change["files"].keys()):
        if name not in change["files"]:
            diffs.append(f"file {name}: only in base")
        elif name not in base["files"]:
            diffs.append(f"file {name}: only in change")
        elif base["files"][name] != change["files"][name]:
            diffs.append(f"file {name}: bytes differ")
    for name in sorted(base["dirs"] ^ change["dirs"]):
        side = "base" if name in base["dirs"] else "change"
        diffs.append(f"directory {name}/: only in {side}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the base revision, e.g. the parent commit")
    parser.add_argument("--change", default="HEAD", help="the changed revision")
    args = parser.parse_args(argv)
    results = {}
    with tempfile.TemporaryDirectory(prefix="cli_ab_") as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        for side, rev in zip(SIDES, (args.rev, args.change)):
            tree = Path(tmp) / side
            tree.mkdir()
            sha = export(rev, tree)
            print(f"{side}: {sha}")
            results[side] = run_script(tree, inputs, Path(tmp) / "work")
    diffs = compare(results["base"], results["change"])
    for line in diffs:
        print(line)
    codes = " ".join(str(run[0]) for run in results["base"]["runs"])
    print(f"base exit codes, call by call: {codes}")
    files = len(results["base"]["files"].keys() | results["change"]["files"].keys())
    dirs = len(results["base"]["dirs"] | results["change"]["dirs"])
    print(f"{len(diffs)} differences in {len(SCRIPT)} calls, {files} files and {dirs} directories")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
