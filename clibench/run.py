"""End-to-end benchmark of the coreseg CLI.

Usage (from the repository root):

    python3 clibench/run.py --workload vol-blobs --seed 1 --seconds 35 --trace 0

One client runs a closed loop: each CLI operation is a fresh
`python -m coreseg.cli ...` child, and the next starts only after the
previous one exits. Set-up writes the seeded inputs and runs one
untimed `coreseg --version` child, which imports every module and
compiles bytecode; it is repeated SETUP_REPEATS times and setup_s is the
median. Passes then repeat while the next one is expected to end less
than half a pass after --seconds, so the passes end as near --seconds as
whole passes allow; the first pass always runs. A pass's time is the sum
of its operations' spawn-to-exit times. Every output is checked against an
oracle and against the bytes of the run's first pass, outside the timed
region.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced passes; a traced pass runs each child through launcher.py and
yields the per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import layers
from oracles import OracleError
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
OP_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0  # stop starting passes that would end after this

END_TO_END = [
    ("pass_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
]


@dataclass
class OpRun:
    op: Op
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    failure: str | None = None
    trace: dict | None = None


@dataclass
class PassRun:
    runs: list[OpRun]
    wall_s: float
    traced: bool


class Runner:
    """Spawns operations one at a time and verifies their outputs."""

    def __init__(self, work: Path) -> None:
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        self.reference: dict[Path, str | None] = {}
        self.count = 0

    def spawn(self, op: Op, traced: bool) -> OpRun:
        self.count += 1
        log = self.logs / f"{self.count:05d}_{op.stage}"
        spans = Path(f"{log}.spans.json")
        if traced:
            argv = [str(HERE / "launcher.py"), str(spans), *op.args]
        else:
            argv = ["-m", "coreseg.cli", *op.args]
        # spawn.py starts the child, so that its ru_maxrss is its own.
        reply = subprocess.run(
            [sys.executable, "-S", str(HERE / "spawn.py"), str(OP_TIMEOUT_S),
             f"{log}.out", f"{log}.err", sys.executable, *argv],
            env=self.env, capture_output=True, text=True, check=True,
        )
        cost = json.loads(reply.stdout)
        run = OpRun(
            op=op,
            rc=cost["rc"],
            wall_s=cost["wall_s"],
            cpu_s=cost["cpu_s"],
            maxrss_mib=cost["maxrss_kib"] / 1024.0,
        )
        if traced and spans.is_file():
            run.trace = json.loads(spans.read_text(encoding="utf-8"))
            run.trace["import_s"] = run.trace.pop("t_main") - cost["t_spawn"]
        return run

    def run_pass(self, ops: list[Op], traced: bool = False) -> PassRun:
        for op in ops:
            for path in op.outputs:
                path.unlink(missing_ok=True)
        runs = [self.spawn(op, traced) for op in ops]
        for run in runs:
            run.failure = self.verify(run)
        return PassRun(runs, sum(run.wall_s for run in runs), traced)

    def verify(self, run: OpRun) -> str | None:
        """Return why an operation failed, or None when it passed."""
        if run.rc != 0:
            return f"exit status {run.rc}"
        try:
            run.op.check()
        except (OracleError, OSError, KeyError, ValueError) as exc:
            return f"oracle: {exc}"
        for path in run.op.outputs:
            digest = _sha256(path)
            expected = self.reference.setdefault(path, digest)
            if digest is None or digest != expected:
                return f"{path.name}: bytes differ from the first pass"
        return None


def count_failures(passes: list[PassRun]) -> tuple[int, int]:
    """Return (attempted, failed) operations, reporting each failure on stderr."""
    runs = [r for p in passes for r in p.runs]
    for r in runs:
        if r.failure:
            print(f"FAILED {r.op.stage}: {r.failure}", file=sys.stderr)
    return len(runs), sum(r.failure is not None for r in runs)


def _sha256(path: Path) -> str | None:
    try:
        with open(path, "rb") as f:
            return hashlib.file_digest(f, "sha256").hexdigest()
    except FileNotFoundError:
        return None


def end_to_end(passes: list[PassRun], setup_s: float) -> dict[str, float]:
    return {
        "pass_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(sum(r.cpu_s for r in p.runs) for p in passes),
        "peak_rss_mib": statistics.median(max(r.maxrss_mib for r in p.runs) for p in passes),
        "setup_s": setup_s,
    }


def stage_metrics(passes: list[PassRun], attempted: int, failed: int) -> list[tuple]:
    """Per-stage medians and throughputs, as (name, value, unit, samples)."""
    rows = []
    for stage in dict.fromkeys(r.op.stage for r in passes[0].runs):
        walls = [r.wall_s for p in passes for r in p.runs if r.op.stage == stage]
        rows.append((f"{stage}_s", statistics.median(walls), "s", len(walls)))
    vox = [
        sum(r.op.in_voxels for r in vol) / sum(r.wall_s for r in vol)
        for p in passes
        if (vol := [r for r in p.runs if r.op.in_voxels])
    ]
    if vox:
        rows.append(("vox_per_s", statistics.median(vox), "voxel/s", len(vox)))
    picks = [
        sum(r.op.picks for r in sel) / sum(r.wall_s for r in sel)
        for p in passes
        if (sel := [r for r in p.runs if r.op.picks])
    ]
    if picks:
        rows.append(("picks_per_s", statistics.median(picks), "pick/s", len(picks)))
    rows.append(("fail_frac", failed / attempted, "ratio", attempted))
    return rows


def per_layer(pairs: list[tuple[PassRun, PassRun]]) -> dict[str, float]:
    """Median over traced passes of each layer metric, plus trace overhead."""
    per_pass = [layers.pass_layers([r.trace for r in traced.runs]) for _, traced in pairs]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    untraced = statistics.median(u.wall_s for u, _ in pairs)
    traced = statistics.median(t.wall_s for _, t in pairs)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


def _git_sha() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _openblas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def metadata(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "inputs": workload.describe(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "openblas_threads": _openblas_threads(),
        "loop": "closed, 1 client, 1 child process at a time",
        "memory_methods": {
            "peak_rss_mib": "ru_maxrss of each child from os.wait4 in spawn.py "
                            "(untraced runs)",
            "*_peak_x": "tracemalloc peak growth over one call / its payload bytes "
                        "(traced runs only)",
        },
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "coreseg" / "cli.py").is_file():
        print(f"clibench: no coreseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".clibench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](seed=args.seed, work=work)
        runner = Runner(work)
        warmup_op = Op("warmup", ["--version"], [], lambda: None)
        setups, warmups = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.generate()
            warmups.append(runner.run_pass([warmup_op]))
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(setups)
        ops = workload.prepare()

        passes: list[PassRun] = []
        t0 = time.perf_counter()
        rounds = 0
        while True:
            passes.append(runner.run_pass(ops))
            if args.trace:
                passes.append(runner.run_pass(ops, traced=True))
            rounds += 1
            now = time.perf_counter()
            mean = (now - t0) / rounds
            if now + mean / 2 > t0 + args.seconds or now + mean > started + RUN_LIMIT_S:
                break

        attempted, failed = count_failures(warmups + passes)

        print(f"clibench {args.workload} seed={args.seed} trace={args.trace}: "
              f"{len(passes)} timed passes")
        print("meta " + json.dumps(metadata(args, workload), sort_keys=True))
        untraced = [p for p in passes if not p.traced]
        if args.trace:
            pairs = list(zip(untraced, [p for p in passes if p.traced]))
            traced_ok = all(r.trace for _, t in pairs for r in t.runs)
            values = per_layer(pairs) if traced_ok else {}
            units = layers.PER_LAYER
        else:
            values = end_to_end(untraced, setup_s)
            units = END_TO_END
            for name, value, unit, n in stage_metrics(untraced, attempted, failed):
                print(f"  {name:<28} {value:>16.6f} {unit:<8} n={n}")
        print("  pass walls (s): " + " ".join(
            f"{p.wall_s:.3f}{'t' if p.traced else ''}" for p in passes))
        for name, unit in units:
            if name in values:
                print(f"  {name:<28} {values[name]:>16.6f} {unit}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units
                if name in values
            },
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
