"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one PASS/FAIL line via conftest's terminal summary.
Criteria with stated runtime budgets assert them in-test. Tolerances are
fixed here and must not be loosened; a failing criterion means the
implementation and the pinned fixture genuinely disagree.
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from coreseg.cli import main as cli_main
from coreseg.coreset import (
    EmbeddingMatrix,
    cosine_distance_matrix,
    coverage_radius,
    kcenter_greedy,
    normalize_rows,
    random_select,
    write_embeddings,
)
from coreseg.instance_metrics import evaluate
from coreseg.label_fusion import CONN_FACE6, CONN_FULL26, connected_components
from coreseg.patch_grid import PAD_REFLECT, PAD_ZERO, plan_grid, reassemble, tile
from coreseg.report import first_surpass, percent_of_full, round_half_up
from coreseg.volume_io import KIND_MASK, new_volume, write_volume

from helpers import (
    CURVE_ACCURACY,
    CURVE_BUDGETS,
    CURVE_F1,
    CURVE_PCT,
    bfs_label,
    brute_greedy,
    fixture_curve,
    instance_volume,
    mask_volume,
    optimal_radius,
    random_mask,
)


def test_criterion_01_accuracy_f1_identity():
    """|2A/(1+A) - F1| <= 0.0005 for all nine fixture column pairs."""
    start = time.perf_counter()
    violations = []
    for budget, acc, f1 in zip(CURVE_BUDGETS, CURVE_ACCURACY, CURVE_F1):
        implied = 2.0 * acc / (1.0 + acc)
        gap = abs(implied - f1)
        if gap > 0.0005:
            violations.append(f"budget {budget}: |{implied:.6f} - {f1}| = {gap:.6f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s (budget 1s)"
    assert not violations, "accuracy/F1 identity misses 0.0005 at: " + "; ".join(violations)


def test_criterion_02_percent_reproduction():
    """percent_of_full reproduces every fixture percentage within 0.01."""
    start = time.perf_counter()
    curve = fixture_curve()
    violations = []
    for metric, printed_column in CURVE_PCT.items():
        entries = percent_of_full(curve, metric)
        for entry, printed in zip(entries, printed_column):
            gap = abs(entry.percent - printed)
            if gap > 0.01 + 1e-9:
                violations.append(
                    f"{metric} budget {entry.budget}: computed {entry.percent:.2f}"
                    f" vs printed {printed:.2f}"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.3f}s (budget 1s)"
    assert not violations, "percent columns off by more than 0.01 at: " + "; ".join(violations)


def test_criterion_03_first_surpass_budgets():
    """first_surpass at 0.90 returns 64 for f1/pq and 128 for accuracy/precision."""
    curve = fixture_curve()
    got = {m: first_surpass(curve, m, 0.90) for m in ("f1", "pq", "accuracy", "precision")}
    assert got == {"f1": 64, "pq": 64, "accuracy": 128, "precision": 128}, got


def test_criterion_04_greedy_matches_bruteforce_oracle():
    """200 random instances: greedy equals the full-rescan reference."""
    start = time.perf_counter()
    mismatches = []
    for trial in range(200):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 9))
        budget = int(rng.integers(1, n + 1))
        k_init = int(rng.integers(1, budget + 1))
        seed = int(rng.integers(0, 2**32))
        E = EmbeddingMatrix(
            ids=[f"i{j}" for j in range(n)], values=rng.normal(size=(n, d))
        )
        manifest = kcenter_greedy(E, budget, k_init=k_init, rng_seed=seed)
        want_ids, want_trace = brute_greedy(E, budget, k_init=k_init, rng_seed=seed)
        if manifest.selected != want_ids or manifest.radius_trace != want_trace:
            mismatches.append(f"trial {trial} (n={n} d={d} b={budget} k={k_init})")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 4 took {elapsed:.3f}s (budget 10s)"
    assert not mismatches, "greedy diverged from reference on: " + ", ".join(mismatches)


def test_criterion_05_two_approximation_bound():
    """Greedy coverage radius <= 2x the enumerated optimum (N<=12, budget<=4)."""
    start = time.perf_counter()
    violations = []
    for seed in range(20):
        n = 5 + seed % 8
        d = 2 + seed % 5
        rng = np.random.default_rng(seed)
        E = EmbeddingMatrix(
            ids=[f"i{j}" for j in range(n)], values=rng.normal(size=(n, d))
        )
        En = normalize_rows(E)
        D = cosine_distance_matrix(En)
        for budget in range(1, min(4, n) + 1):
            manifest = kcenter_greedy(En, budget, k_init=1, rng_seed=seed)
            achieved = coverage_radius(D, manifest.selected)
            optimum = optimal_radius(D.entries, budget)
            if optimum <= 1e-12:
                continue
            if achieved > 2.0 * optimum + 1e-12:
                violations.append(
                    f"seed {seed} n={n} d={d} budget={budget}:"
                    f" radius {achieved:.4f} > 2 x optimum {optimum:.4f}"
                    f" (ratio {achieved / optimum:.3f})"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.3f}s (budget 30s)"
    assert not violations, "2-approximation exceeded at: " + "; ".join(violations)


def test_criterion_06_components_match_flood_fill():
    """100 random volumes per connectivity equal the BFS oracle, plus corners."""
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    for conn in (CONN_FACE6, CONN_FULL26):
        for _ in range(100):
            vol = random_mask(rng, max_edge=16)
            labeled = connected_components(vol, conn)
            oracle = bfs_label(vol.voxels, conn.kind)
            assert np.array_equal(labeled.voxels, oracle), conn.kind
    corner = np.zeros((2, 2, 2), dtype=np.uint32)
    corner[0, 0, 0] = 1
    corner[1, 1, 1] = 1
    assert int(connected_components(mask_volume(corner), CONN_FACE6).voxels.max()) == 2
    assert int(connected_components(mask_volume(corner), CONN_FULL26).voxels.max()) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 6 took {elapsed:.3f}s (budget 10s)"


def test_criterion_07_evaluation_self_identity():
    """evaluate(X, X, 0.5) is all ones; against empty, f1=0 and fn=count."""
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        shape = tuple(int(rng.integers(2, 10)) for _ in range(3))
        vox = rng.integers(0, 5, size=shape, dtype=np.uint32)
        count = len(np.unique(vox[vox > 0]))
        if count == 0:
            continue
        checked += 1
        vol = instance_volume(vox)
        record = evaluate(vol, vol, 0.5)
        assert (record.tp, record.fp, record.fn) == (count, 0, 0)
        for field in ("precision", "recall", "f1", "accuracy", "sq", "rq", "pq"):
            assert getattr(record, field) == 1.0, field
        empty = instance_volume(np.zeros(shape, dtype=np.uint32))
        against_empty = evaluate(empty, vol, 0.5)
        assert against_empty.f1 == 0.0
        assert against_empty.fn == count


def test_criterion_08_tiling_round_trip():
    """reassemble(tile(v)) == v for 50 non-divisible volumes, both pad modes."""
    rng = np.random.default_rng(8)
    for trial in range(50):
        shape = tuple(int(rng.integers(1, 13)) for _ in range(3))
        while True:
            patch = tuple(int(rng.integers(1, 6)) for _ in range(3))
            if any(s % p for s, p in zip(shape, patch)):
                break
        vol = new_volume(rng.integers(0, 9, size=shape, dtype=np.uint32))
        for mode in (PAD_ZERO, PAD_REFLECT):
            spec = plan_grid(shape, patch, mode)
            restored = reassemble(tile(vol, spec, "v"), spec)
            assert restored == vol, f"trial {trial} mode {mode}"


def _snapshot(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _run_pipeline_cli(work: Path, runner) -> None:
    """Run select + evaluate + report with fixed configs via `runner`."""
    out_sel = work / "sel"
    out_met = work / "metrics"
    out_rep = work / "report"
    runner(
        ["select", "--embeddings", str(work / "emb"), "--budgets", "4,8",
         "--seed", "3", "--out-dir", str(out_sel), "--force"]
    )
    runner(
        ["evaluate", "--pred", str(work / "labels.vol3d"),
         "--gt", str(work / "labels.vol3d"), "--budget", "4",
         "--out-dir", str(out_met), "--force"]
    )
    runner(
        ["evaluate", "--pred", str(work / "labels.vol3d"),
         "--gt", str(work / "labels.vol3d"), "--budget", "8",
         "--out-dir", str(out_met), "--force"]
    )
    runner(
        ["report", "--metrics-dir", str(out_met), "--out-dir", str(out_rep),
         "--force"]
    )


def test_criterion_09_byte_identical_reruns(tmp_path, capsys):
    """Reruns and different thread counts leave byte-identical outputs."""
    work = tmp_path
    rng = np.random.default_rng(99)
    E = EmbeddingMatrix(ids=[f"p{i}" for i in range(10)], values=rng.normal(size=(10, 3)))
    write_embeddings(E, work / "emb")
    vox = rng.integers(0, 3, size=(3, 4, 4), dtype=np.uint32)
    vox[0, 0, 0] = 1
    write_volume(new_volume(vox), work / "labels.vol3d")
    inputs = _snapshot(work)

    def in_process(args):
        assert cli_main(args) == 0, args
        capsys.readouterr()

    _run_pipeline_cli(work, in_process)
    first = _snapshot(work)
    _run_pipeline_cli(work, in_process)
    assert _snapshot(work) == first, "in-process rerun changed output bytes"

    def subprocess_runner(threads):
        env = dict(os.environ)
        env["OPENBLAS_NUM_THREADS"] = threads
        env["OMP_NUM_THREADS"] = threads

        def go(args):
            proc = subprocess.run(
                [sys.executable, "-m", "coreseg.cli", *args],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
        return go

    def reset_outputs():
        for sub in ("sel", "metrics", "report"):
            shutil.rmtree(work / sub, ignore_errors=True)

    reset_outputs()
    _run_pipeline_cli(work, subprocess_runner("1"))
    single = _snapshot(work)
    reset_outputs()
    _run_pipeline_cli(work, subprocess_runner("2"))
    assert _snapshot(work) == single, "thread count changed output bytes"
    assert {k: v for k, v in single.items() if k in inputs} == inputs
    assert single == first, "subprocess outputs differ from in-process outputs"


def test_criterion_10_coreset_beats_median_random():
    """5-cluster Gaussians, N=500, budget=25: greedy radius <= random median."""
    rng = np.random.default_rng(123)
    centers = rng.normal(size=(5, 32))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    blocks = [center + 0.15 * rng.normal(size=(100, 32)) for center in centers]
    values = np.vstack(blocks)
    E = EmbeddingMatrix(ids=[f"p{i}" for i in range(500)], values=values)
    En = normalize_rows(E)
    D = cosine_distance_matrix(En)
    greedy = kcenter_greedy(En, 25, k_init=3, rng_seed=0)
    greedy_radius = coverage_radius(D, greedy.selected)
    assert greedy.radius_trace[-1] == greedy_radius
    random_radii = []
    for seed in range(100):
        pick = random_select(En.ids, 25, rng_seed=seed)
        random_radii.append(coverage_radius(D, pick.selected))
    median_random = float(np.median(random_radii))
    assert greedy_radius <= median_random, (
        f"greedy radius {greedy_radius:.4f} exceeds random median {median_random:.4f}"
    )
