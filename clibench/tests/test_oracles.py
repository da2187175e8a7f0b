"""Self-test of the benchmark: every oracle must catch a corrupted output.

Runs real coreseg CLI children on reduced inputs (workloads.SMALL), then
corrupts one output per stage and checks that the operation is counted
as failed, by its oracle alone and by the run's failure count.

Run from the repository root: python3 -m pytest clibench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
from formats import KIND_INSTANCE, read_vol3d, write_vol3d
from oracles import OracleError
from workloads import SMALL, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent.parent


def start(name: str, work: Path):
    workload = WORKLOADS[name](seed=7, work=work, **SMALL[name])
    workload.generate()
    ops = workload.prepare()
    runner = run.Runner(work)
    first = runner.run_pass(ops)
    assert run.count_failures([first]) == (len(ops), 0)
    return ops, runner, first


def failed_stages(runner: run.Runner, pass_run: run.PassRun) -> list[str]:
    for r in pass_run.runs:
        r.failure = runner.verify(r)
    return [r.op.stage for r in pass_run.runs if r.failure]


def op_of(ops, stage):
    return next(op for op in ops if op.stage == stage)


def test_vol_blobs_corruptions_are_counted(tmp_path):
    ops, runner, first = start("vol-blobs", tmp_path)

    tile = op_of(ops, "tile")
    tile.outputs[0].unlink()  # drop a patch file
    with pytest.raises(OracleError):
        tile.check()
    assert failed_stages(runner, first) == ["tile"]

    cc = op_of(ops, "cc")
    kind, labels = read_vol3d(cc.outputs[0])
    assert kind == KIND_INSTANCE and labels.max() >= 2
    swapped = labels.copy()
    swapped[labels == 1], swapped[labels == 2] = 2, 1  # swap two label ids
    write_vol3d(cc.outputs[0], swapped, KIND_INSTANCE)
    with pytest.raises(OracleError):
        cc.check()
    assert failed_stages(runner, first) == ["tile", "cc"]

    evaluate = op_of(ops, "evaluate")
    kv = evaluate.outputs[0]
    lines = kv.read_text(encoding="ascii").splitlines()
    lines = [f"tp={int(v[3:]) + 1}" if v.startswith("tp=") else v for v in lines]
    kv.write_text("\n".join(lines) + "\n", encoding="ascii")  # change tp
    with pytest.raises(OracleError):
        evaluate.check()
    assert failed_stages(runner, first) == ["tile", "cc", "evaluate"]

    # report has no oracle of its own: only the first-pass bytes catch it.
    report = op_of(ops, "report")
    report.outputs[0].write_text("budget\n", encoding="ascii")
    assert failed_stages(runner, first) == ["tile", "cc", "evaluate", "report"]
    assert run.count_failures([first]) == (len(ops), 4)

    again = runner.run_pass(ops)
    assert run.count_failures([again]) == (len(ops), 0)


def test_select_swap_is_counted(tmp_path):
    ops, runner, first = start("select-sweep", tmp_path)
    coreset = op_of(ops, "select_coreset")
    largest = coreset.outputs[-2]  # outputs end with the run manifest
    lines = largest.read_text(encoding="utf-8").splitlines()
    at = lines.index("selected:") + 1
    lines[at], lines[at + 1] = lines[at + 1], lines[at]  # swap two selected ids
    largest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(OracleError):
        coreset.check()
    assert failed_stages(runner, first) == ["select_coreset"]


def test_fuse_change_is_counted(tmp_path):
    ops, runner, first = start("fuse-serpentine", tmp_path)
    fuse = op_of(ops, "fuse")
    kind, labels = read_vol3d(fuse.outputs[0])
    labels.flat[int(np.flatnonzero(labels)[-1])] = 0
    write_vol3d(fuse.outputs[0], labels, kind)
    with pytest.raises(OracleError):
        fuse.check()
    assert failed_stages(runner, first) == ["fuse"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_matches_and_reports_every_layer(tmp_path, name):
    ops, runner, _ = start(name, tmp_path)
    traced = runner.run_pass(ops, traced=True)
    assert run.count_failures([traced]) == (len(ops), 0)
    metrics = run.per_layer([(runner.run_pass(ops), traced)])
    assert list(metrics) == [n for n, _ in layers.PER_LAYER]


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "clibench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", "fuse-serpentine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
