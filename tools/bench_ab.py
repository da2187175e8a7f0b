"""Record a before/after benchmark of two git revisions.

Usage (from the repository root):

    python3 tools/bench_ab.py REV --out BENCH_17.json --seed 17

REV (the base) and --change (default HEAD, so commit the change first) are
exported with `git archive` into sibling temporary directories, so no
network and no second worktree are needed, and both trees sit alike: a run
in this checkout read 2.9 % slower on select-sweep than the same commit's
export. Each pair runs `clibench/run.py` once in each tree, with the same
workload, seed, run length and trace flag, and swaps which side goes first
from one pair to the next, so a host that drifts slows both sides alike.
The run length is BENCHMARK.json's `run_seconds`. A record takes at least
10 pairs, the number a gain claim needs; a `--trace 1` record, kept for
its per-layer figures, may take fewer. Each side runs its own copy of the
benchmark; the record says whether `clibench/` differs between them.

For every metric the record holds each side's values, median and
quartiles, and how many pairs each side won; ties count for neither. Which
way is better comes from BENCHMARK.json. Each side's `meta` line and its
failed-operation counts are kept per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def export(rev: str, into: Path) -> str:
    """Write REV's tree into `into`; return REV's full commit id."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    archive = subprocess.run(
        ["git", "archive", sha], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def run_once(tree: Path, workload: str, settings: dict) -> dict:
    """Run one benchmark in `tree`; return its result line plus its meta line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    flags = [f"--{k}={settings[k]}" for k in ("seed", "seconds", "trace")]
    done = subprocess.run(
        [sys.executable, "clibench/run.py", "--workload", workload, *flags],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench_ab: {workload} failed in {tree.name}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["meta"] = next(
        json.loads(line[len("meta "):]) for line in lines if line.startswith("meta ")
    )
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles (the inclusive method) of values, with the values."""
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Compare the two sides' runs of one workload, pair by pair."""
    metrics = {}
    names = [n for n in runs["base"][0]["metrics"] if n in runs["change"][0]["metrics"]]
    for name in names:
        values = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = [0, 0]
        for b, c in zip(values["base"], values["change"]):
            if b != c:
                wins[sign * (c - b) > 0] += 1
        metrics[name] = {
            "unit": runs["base"][0]["metrics"][name]["unit"],
            "better": better.get(name, "lower"),
            **{s: spread(values[s]) for s in SIDES},
            "change_wins": wins[1],
            "base_wins": wins[0],
        }
    return {
        "metrics": metrics,
        "failed": {s: [r["failed"] for r in runs[s]] for s in SIDES},
        "attempted": {s: [r["attempted"] for r in runs[s]] for s in SIDES},
        "meta": {s: runs[s][0]["meta"] for s in SIDES},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the base revision, e.g. the parent commit")
    parser.add_argument("--change", default="HEAD", help="the changed revision")
    parser.add_argument("--out", required=True, help="record to write, e.g. BENCH_17.json")
    parser.add_argument("--pairs", type=int, default=10, help="at least 10 unless --trace 1")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    if args.pairs < (1 if args.trace else 10):
        parser.error(f"--pairs {args.pairs}: a record takes at least 10 pairs, "
                     "or 1 with --trace 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    settings = {k: getattr(args, k) for k in ("pairs", "seed", "trace")}
    settings["seconds"] = bench["run_seconds"]
    record = {"settings": settings, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.rev, args.change)):
            trees[side].mkdir()
            record[side] = {"rev": export(rev, trees[side])}
        revs = (record["base"]["rev"], record["change"]["rev"])
        record["clibench_differs"] = bool(_git("diff", "--stat", *revs, "--", "clibench"))
        for workload in workloads:
            runs: dict[str, list[dict]] = {s: [] for s in SIDES}
            for i in range(args.pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_once(trees[side], workload, settings))
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr)
            # Written after each workload, so a cut-off run keeps what it measured.
            record["workloads"][workload] = summarize(runs, better)
            text = json.dumps(record, indent=1, sort_keys=True) + "\n"
            Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
