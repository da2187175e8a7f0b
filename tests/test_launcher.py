"""The benchmark's traced child must run every command as the plain CLI does.

clibench/launcher.py runs a command with a span around each layer. It
leans on four things of coreseg: cli._write_run_manifest takes five
positional arguments; each (role, input) that it is handed is path-like,
since the wrapper calls Path() on it; instance_metrics defines
match_instances and overlap_histogram; and overlap_histogram's result
has the pairs first. Each command runs here on tiny inputs, once as
`python -m coreseg.cli` and once through the launcher, in the same
directory, and both runs must exit 0 with the same outputs and stdout.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coreseg
from coreseg.cli import main as cli_main
from coreseg.coreset import EmbeddingMatrix, write_embeddings
from coreseg.volume_io import KIND_MASK, new_volume, write_volume

LAUNCHER = Path(__file__).resolve().parents[1] / "clibench" / "launcher.py"
EVAL = ["evaluate", "--pred", "vol.vol3d", "--gt", "gt.vol3d", "--out-dir", "out"]
CASES = {
    "tile": ["tile", "--volume", "vol.vol3d", "--patch", "2,4,4", "--out-dir", "out"],
    "fuse": ["fuse", "--slices-dir", "slices", "--out", "out/f.vol3d"],
    "cc": ["cc", "--mask", "mask.vol3d", "--out", "out/c.vol3d"],
    "select": ["select", "--embeddings", "emb", "--budgets", "0,3,5", "--out-dir", "out"],
    "evaluate": [*EVAL, "--budget", "4"],
    "report": ["report", "--metrics-dir", "metrics", "--out-dir", "out"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("launcher")
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(3, 5, 6))
    write_volume(new_volume(labels), d / "vol.vol3d")
    write_volume(new_volume(np.where(rng.random(labels.shape) < 0.8, labels, 0)), d / "gt.vol3d")
    write_volume(new_volume(rng.random((3, 5, 6)) < 0.4, KIND_MASK), d / "mask.vol3d")
    (d / "slices").mkdir()
    for z in range(2):
        mask = new_volume(rng.random((1, 5, 6)) < 0.4, KIND_MASK)
        write_volume(mask, d / "slices" / f"s{z}.vol3d")
    ids = [f"p{i}" for i in range(12)]
    write_embeddings(EmbeddingMatrix(ids, rng.normal(size=(12, 4))), d / "emb")
    for budget, pred in (("2", "gt.vol3d"), ("4", "vol.vol3d")):
        argv = ["evaluate", "--pred", d / pred, "--gt", d / "gt.vol3d", "--budget", budget,
                "--out-dir", d / "metrics"]
        assert cli_main([str(a) for a in argv]) == 0
    return d


def run_child(work: Path, *argv: str) -> tuple[subprocess.CompletedProcess, dict]:
    """Run `python ARGV` in work; return the process and the files it left
    in work/out, which is removed again."""
    env = dict(os.environ, PYTHONPATH=str(Path(coreseg.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, *argv], cwd=work, env=env, capture_output=True, timeout=120
    )
    out = work / "out"
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    shutil.rmtree(out, ignore_errors=True)
    return done, files


@pytest.mark.parametrize("command", list(CASES))
def test_traced_child_matches_the_plain_cli(tmp_path, inputs, command):
    work = tmp_path / "work"
    shutil.copytree(inputs, work)
    plain, expected = run_child(work, "-m", "coreseg.cli", *CASES[command])
    assert plain.returncode == 0, plain.stderr
    assert expected
    spans = tmp_path / "spans.json"
    traced, got = run_child(work, str(LAUNCHER), str(spans), *CASES[command])
    assert traced.returncode == 0, traced.stderr
    assert got == expected
    assert traced.stdout == plain.stdout
    record = json.loads(spans.read_text(encoding="utf-8"))
    # The manifest wrapper sized every input it was handed.
    assert record["hashed_bytes"] > 0
    names = [span["name"] for span in record["spans"]]
    assert names[0] == "cli.main"
    if command == "evaluate":
        [pairs] = [s for s in record["spans"] if s["name"] == "instance_metrics.overlap_histogram"]
        assert pairs["pairs"] > 0
