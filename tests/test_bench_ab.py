"""Tests for the before/after benchmark recorder's settings and statistics."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
)
bench_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_ab)


def run(**metrics):
    return {
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
        "failed": 0,
        "attempted": 7,
        "meta": {"seed": 17},
    }


def test_spread_gives_the_median_and_inclusive_quartiles():
    assert bench_ab.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "values": [4.0, 1.0, 3.0, 2.0, 5.0],
    }
    assert bench_ab.spread([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "values": [2.5]}


def test_summarize_counts_wins_pair_by_pair_in_the_better_direction():
    runs = {
        "base": [run(pass_s=2.0, mvox=5.0), run(pass_s=2.0, mvox=5.0), run(pass_s=1.0, mvox=5.0)],
        "change": [run(pass_s=1.0, mvox=6.0), run(pass_s=2.0, mvox=4.0), run(pass_s=1.5, mvox=6.0)],
    }
    got = bench_ab.summarize(runs, {"pass_s": "lower", "mvox": "higher"})
    # A tie counts for neither side.
    assert (got["metrics"]["pass_s"]["change_wins"], got["metrics"]["pass_s"]["base_wins"]) == (1, 1)
    assert (got["metrics"]["mvox"]["change_wins"], got["metrics"]["mvox"]["base_wins"]) == (2, 1)
    assert got["metrics"]["pass_s"]["change"]["median"] == pytest.approx(1.5)
    assert got["failed"] == {"base": [0, 0, 0], "change": [0, 0, 0]}
    assert got["meta"] == {"base": {"seed": 17}, "change": {"seed": 17}}


def test_summarize_keeps_only_metrics_both_sides_report():
    runs = {"base": [run(pass_s=1.0, old=1.0)], "change": [run(pass_s=1.0, new=1.0)]}
    assert list(bench_ab.summarize(runs, {})["metrics"]) == ["pass_s"]


def test_pairs_below_ten_need_trace():
    base = ["HEAD~1", "--out", "BENCH_0.json", "--seed", "3"]
    assert bench_ab.parse_args(base).pairs == 10
    assert bench_ab.parse_args([*base, "--pairs", "2", "--trace", "1"]).pairs == 2
    for extra in (["--pairs", "9"], ["--pairs", "0", "--trace", "1"], ["--seconds", "5"]):
        with pytest.raises(SystemExit):
            bench_ab.parse_args([*base, *extra])


def test_run_once_passes_the_settings_to_the_benchmark(monkeypatch, tmp_path):
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(cmd)
        out = 'meta {"seed": 3}\n{"metrics": {}, "failed": 0, "attempted": 1}\n'
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    got = bench_ab.run_once(tmp_path, "vol-blobs", {"seed": 3, "seconds": 35, "trace": 0})
    assert seen[0][1:] == [
        "clibench/run.py", "--workload", "vol-blobs", "--seed=3", "--seconds=35", "--trace=0",
    ]
    assert got["meta"] == {"seed": 3}


def test_record_runs_for_the_benchmarks_run_seconds(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(bench_ab, "export", lambda rev, into: f"sha-{rev}")
    monkeypatch.setattr(bench_ab, "_git", lambda *args: "")

    def fake_run_once(tree, workload, settings):
        calls.append((tree.name, workload, dict(settings)))
        return run(pass_s=1.0)

    monkeypatch.setattr(bench_ab, "run_once", fake_run_once)
    out = tmp_path / "BENCH_0.json"
    argv = ["A", "--out", str(out), "--seed", "3", "--pairs", "2", "--trace", "1",
            "--workload", "vol-blobs"]
    assert bench_ab.main(argv) == 0
    bench = json.loads((bench_ab.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["settings"] == {"pairs": 2, "seed": 3, "trace": 1,
                                  "seconds": bench["run_seconds"]}
    # The order swaps from one pair to the next.
    assert [c[0] for c in calls] == ["base", "change", "change", "base"]
    assert all(c[2]["seconds"] == bench["run_seconds"] for c in calls)
