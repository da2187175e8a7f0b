"""Command-line pipeline: tile, fuse, cc, select, evaluate, report.

Each command reads a flat key=value config (``--config``), applies
command-line overrides (flags win), checks its inputs, and refuses to
touch existing outputs unless ``--force`` is given. All randomness flows
from the configured rng_seed; nothing reads the clock or other ambient
entropy, so identical configurations produce byte-identical outputs.

A ``run_manifest`` capturing the tool version, the hash of the resolved
configuration, and the digest of every input is written alongside every
output set. Each input is read once, by the reader that parses it, and
its digest is of the bytes that reader parsed. A command writes all of
its outputs or none (see _commit). Each command imports the library
names it calls in its own body, so a child loads only the modules of the
command it runs.

Exit statuses:
    0  success
    2  usage or configuration error
    3  input error (missing or malformed files, invalid request, or a
       failed read or write)
    4  internal invariant violation
    5  outputs exist and --force was not given
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

# No coreseg path calls BLAS, so OpenBLAS need start no thread pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .config import KEYS, PipelineConfig, load_config, parse_value, resolved_lines
from .errors import (
    ConfigError,
    CoresegError,
    FusionError,
    GridError,
    InternalError,
    OverwriteRefused,
    ReportError,
)
from .provenance import InputDigest

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4
EXIT_EXISTS = 5

RUN_MANIFEST_VERSION = 1

# Each command's help and its valued flags as (flag, config key, help).
# Every flag sets its key through that key's parser, and the required-value
# messages name a key's flag from here.
_OPTIONS = {
    "tile": ("pad a volume and cut it into patches", (
        ("--volume", "volume", "input .vol3d volume"),
        ("--name", "volume_name", "volume name for patch files"),
        ("--patch", "patch_shape", "patch shape Z,Y,X"),
        ("--pad-mode", "pad_mode", "zero or reflect (default reflect)"),
        ("--out-dir", "out_dir", "directory for patches"),
    )),
    "fuse": ("stack 2D slice masks and label 3D instances", (
        ("--slices-dir", "slices_dir", "directory of z=1 .vol3d slices"),
        ("--connectivity", "connectivity", "6 or 26 (default 26)"),
        ("--out", "out", "output .vol3d instance volume"),
    )),
    "cc": ("label connected components of a mask volume", (
        ("--mask", "mask", "input binary_mask .vol3d volume"),
        ("--connectivity", "connectivity", "6 or 26 (default 26)"),
        ("--out", "out", "output .vol3d instance volume"),
    )),
    "select": ("select items by core-set or random strategy", (
        ("--embeddings", "embeddings", "embedding file stem (<stem>.meta/.f32/.ids)"),
        ("--method", "method", "coreset or random (default coreset)"),
        ("--budget", "budget", "single budget overriding the config list"),
        ("--budgets", "budgets", "comma-separated budget list"),
        ("--seed", "rng_seed", "selection seed"),
        ("--k-init", "k_init", "random initial picks"),
        ("--out-dir", "out_dir", "directory for manifests"),
    )),
    "evaluate": ("score a prediction against ground truth", (
        ("--pred", "pred", "predicted instance .vol3d volume"),
        ("--gt", "gt", "ground-truth instance .vol3d volume"),
        ("--iou-threshold", "iou_threshold",
         "strict IoU match threshold in [0.5, 1) (default 0.5)"),
        ("--budget", "budget", "budget stamped into the record"),
        ("--out-dir", "out_dir", "directory for metrics files"),
    )),
    "report": ("aggregate metrics files into learning curves", (
        ("--metrics-dir", "metrics_dir", "directory of metrics_b*.csv"),
        ("--fraction", "surpass_fraction", "surpass fraction in (0, 1] (default 0.9)"),
        ("--out-dir", "out_dir", "directory for report files"),
    )),
}
_FLAGS = {key: flag for _, options in _OPTIONS.values() for flag, key, _ in options}


def _flag(key: str):
    # Parse a flag with its config key's parser, so a flag accepts exactly
    # what a config file accepts and a bad value exits 2.
    def convert(text: str):
        try:
            return parse_value(key, text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreseg",
        description="Core-set selection and evaluation pipeline for 3D segmentation",
    )
    parser.add_argument("--version", action="version", version=f"coreseg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _OPTIONS.items():
        p = sub.add_parser(command, help=help_text)
        # --config takes a path, parsed as every key without a rule of its own.
        p.add_argument("--config", type=_flag("config"), help="flat key=value configuration file")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        for flag, key, text in options:
            p.add_argument(flag, dest=key, type=_flag(key), help=text)
    return parser


def _merge_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig() if args.config is None else load_config(args.config)
    return replace(cfg, **{k: v for k, v in vars(args).items() if k in KEYS and v is not None})


def _named(key: str, what: str) -> str:
    return f"{what} ({_FLAGS[key]} / {key})"


def _require(cfg: PipelineConfig, key: str, what: str) -> str:
    value = getattr(cfg, key)
    if value is None:
        raise ConfigError(f"missing required {_named(key, what)}")
    return value


def _input_file(cfg: PipelineConfig, key: str, what: str) -> Path:
    p = Path(_require(cfg, key, what))
    if not p.is_file():
        raise FileNotFoundError(f"{_named(key, what)} does not exist: {p}")
    return p


def _input_dir(cfg: PipelineConfig, key: str, what: str) -> Path:
    p = Path(_require(cfg, key, what))
    if not p.is_dir():
        raise NotADirectoryError(f"{_named(key, what)} does not exist: {p}")
    return p


def _write_run_manifest(
    path: Path,
    command: str,
    cfg: PipelineConfig,
    inputs: list[tuple[str, InputDigest]],
    outputs: list[str],
) -> None:
    config_text = resolved_lines(cfg)
    lines = [
        f"format_version={RUN_MANIFEST_VERSION}",
        f"tool=coreseg/{__version__}",
        f"command={command}",
        f"config_sha256={hashlib.sha256(config_text.encode('utf-8')).hexdigest()}",
    ]
    for role, name, digest in sorted((role, d.name, d.sha256) for role, d in inputs):
        lines.append(f"input={role}:{name}:{digest}")
    for name in sorted(outputs):
        lines.append(f"output={name}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_targets(out_dir: Path, names, force: bool) -> None:
    # Refuse an existing target, or its <name>.part or <name>.prev, unless
    # force is set, and one that is not a regular file even then.
    for name in names:
        for target in (out_dir / name, out_dir / f"{name}.part", out_dir / f"{name}.prev"):
            if target.exists():
                if not target.is_file():
                    raise FileExistsError(f"output path is not a regular file: {target}")
                if not force:
                    raise OverwriteRefused(f"output exists: {target} (use --force to overwrite)")


def _commit(
    command: str,
    cfg: PipelineConfig,
    force: bool,
    out_dir: Path,
    writers: dict,
    run_name: str,
    inputs: list[tuple[str, InputDigest]],
) -> None:
    """Write a command's outputs and its run manifest, all of them or none.

    writers maps each output file name to a function that writes that
    output to the path it is given; inputs pairs each input's role with
    the digest its reader recorded. Every target, and its ``<name>.part``
    and ``<name>.prev``, is checked before anything is written: one that
    exists is refused unless force is set, and one that is not a regular
    file is refused even then. Each output, and then the run manifest, is
    written to its ``<name>.part``. Only when all of them are written is
    each existing target moved aside to ``<name>.prev``, the old run
    manifest first, and the new files renamed onto their final names, the
    run manifest last, so a run manifest marks a complete output set. On
    any failure the new files are taken out, the moved targets are moved
    back and the error is re-raised, so the directory holds what it held
    before the run; only a killed run leaves a ``.part`` or ``.prev``. On
    success every ``<name>.prev`` is deleted, and so are the outputs that
    the replaced run manifest of the same command listed and this run did
    not write, with their ``.part`` and ``.prev``, so no output outlives
    the manifest that listed it. A killed run may have left that manifest
    at ``<run_name>.prev``, so its outputs count too. Only plain names of
    regular files in out_dir are deleted.
    """
    steps = {
        **writers,
        run_name: lambda p: _write_run_manifest(p, command, cfg, inputs, list(writers)),
    }
    _check_targets(out_dir, steps, force)
    # Outputs listed by the run manifest this run replaces. tile and report
    # both name theirs run_manifest.txt, so the command must match too.
    replaced: set[str] = set()
    for manifest in (out_dir / run_name, out_dir / f"{run_name}.prev"):
        if manifest.is_file():
            lines = manifest.read_text(encoding="utf-8", errors="replace").splitlines()
            if f"command={command}" in lines:
                replaced |= {x.removeprefix("output=") for x in lines if x.startswith("output=")}
    out_dir.mkdir(parents=True, exist_ok=True)
    made: list[Path] = []
    moved: list[str] = []
    placed: list[str] = []
    try:
        for name, write in steps.items():
            made.append(out_dir / f"{name}.part")
            write(made[-1])
        for name in (run_name, *writers):
            if (out_dir / name).is_file():
                (out_dir / name).replace(out_dir / f"{name}.prev")
                moved.append(name)
        for name, tmp in zip(steps, made):
            tmp.replace(out_dir / name)
            placed.append(name)
    except BaseException:
        for name in placed:
            if name not in moved:
                (out_dir / name).unlink()
        for name in moved:
            (out_dir / f"{name}.prev").replace(out_dir / name)
        for tmp in made:
            if tmp.is_file():
                tmp.unlink()
        raise
    for name in steps:
        (out_dir / f"{name}.prev").unlink(missing_ok=True)
    for name in replaced - steps.keys():
        if "/" not in name and name not in (".", ".."):
            for stale in (out_dir / name, out_dir / f"{name}.part", out_dir / f"{name}.prev"):
                if stale.is_file():
                    stale.unlink()


def _text(content: str):
    return lambda p: p.write_text(content, encoding="ascii")


def cmd_tile(cfg: PipelineConfig, force: bool) -> int:
    from .patch_grid import (
        PatchSpec, check_volume_name, patch_filename, patch_ids, patch_planes, plan_grid,
        write_grid_manifest,
    )
    from .volume_io import VolumeHeader, read_volume, write_volume

    vol_path = _input_file(cfg, "volume", "input volume")
    out_dir = Path(_require(cfg, "out_dir", "output directory"))
    name = cfg.volume_name or check_volume_name(vol_path.stem, GridError)
    run_name = "run_manifest.txt"

    # Patch names depend only on the header's shape, so the grid is planned
    # and the targets checked before the payload is read: a refused rerun
    # reads the header alone. Cached, so the payload's header reuses it.
    @functools.cache
    def plan(header: VolumeHeader) -> PatchSpec:
        spec = plan_grid(header.shape, cfg.patch_shape, cfg.pad_mode)
        names = [patch_filename(pid) for pid in patch_ids(spec, name)]
        _check_targets(out_dir, [*names, "grid_manifest.txt", run_name], force)
        return spec

    read: list[InputDigest] = []
    vol = read_volume(vol_path, digests=read, before_payload=plan)
    spec = plan(vol.header)
    # Each writer fills its patch plane by plane, so one plane is held at a time.
    writers = {
        patch_filename(pid): lambda p, pid=pid: write_volume(patch_planes(vol, spec, pid), p)
        for pid in patch_ids(spec, name)
    }
    writers["grid_manifest.txt"] = lambda p: write_grid_manifest(spec, name, p)
    inputs = [("volume", d) for d in read]
    _commit("tile", cfg, force, out_dir, writers, run_name, inputs)
    nz, ny, nx = spec.grid_dims
    print(
        f"patches={spec.patch_count} grid={nz},{ny},{nx} "
        f"padded={spec.padded_shape[0]},{spec.padded_shape[1]},{spec.padded_shape[2]}"
    )
    return EXIT_OK


def _listing(directory: Path, pattern: str, what: str, error: type[CoresegError]) -> list[Path]:
    # The files matching pattern, sorted. An empty listing is refused, and
    # so, before any read, is a name that UTF-8 cannot encode, which no run
    # manifest could record.
    files = sorted(directory.glob(pattern))
    if not files:
        raise error(f"no {what} in {directory}")
    for f in files:
        try:
            f.name.encode("utf-8")
        except UnicodeEncodeError:
            raise error(f"input file name is not UTF-8: {f.name!r}") from None
    return files


def _ordered_slices(slices_dir: Path) -> list[Path]:
    seen: dict[int, Path] = {}
    for f in _listing(slices_dir, "*.vol3d", ".vol3d slices", FusionError):
        m = re.search(r"([0-9]+)$", f.stem)
        if not m:
            raise FusionError(f"slice filename lacks a numeric suffix: {f.name}")
        num = int(m.group(1))
        if num in seen:
            raise FusionError(
                f"duplicate slice index {num}: {seen[num].name} and {f.name}"
            )
        seen[num] = f
    return [seen[num] for num in sorted(seen)]


def _label(command, cfg, force, out, mask, inputs) -> int:
    # Label mask's components, commit them to out, and return their count.
    from .label_fusion import Connectivity, component_count, connected_components
    from .volume_io import write_volume

    labeled = connected_components(mask, Connectivity(cfg.connectivity))
    writers = {out.name: lambda p: write_volume(labeled, p)}
    _commit(command, cfg, force, out.parent, writers, f"{out.name}.run.txt", inputs)
    return component_count(labeled)


def cmd_fuse(cfg: PipelineConfig, force: bool) -> int:
    from .label_fusion import stack_slices
    from .volume_io import read_volume

    slices_dir = _input_dir(cfg, "slices_dir", "slice directory")
    out = Path(_require(cfg, "out", "output path"))
    files = _ordered_slices(slices_dir)
    grids = []
    read: list[InputDigest] = []
    for f in files:
        v = read_volume(f, digests=read)
        z, y, x = v.header.shape
        if z != 1:
            raise FusionError(f"{f.name}: slice has z-size {z}, expected 1")
        if grids and (y, x) != grids[0].shape:
            raise FusionError(
                f"{f.name}: slice shape {(y, x)} does not match first slice {grids[0].shape}"
            )
        grids.append(v.voxels[0])
    mask = stack_slices(grids)
    count = _label("fuse", cfg, force, out, mask, [("slice", d) for d in read])
    z, y, x = mask.header.shape
    print(f"components={count} slices={len(files)} shape={z},{y},{x}")
    return EXIT_OK


def cmd_cc(cfg: PipelineConfig, force: bool) -> int:
    from .volume_io import read_volume

    mask_path = _input_file(cfg, "mask", "input mask")
    out = Path(_require(cfg, "out", "output path"))
    read: list[InputDigest] = []
    mask = read_volume(mask_path, digests=read)
    print(f"components={_label('cc', cfg, force, out, mask, [('mask', d) for d in read])}")
    return EXIT_OK


def cmd_select(cfg: PipelineConfig, force: bool) -> int:
    from .coreset import (
        METHOD_CORESET, check_budget, kcenter_greedy, normalize_rows, random_select,
        read_embeddings, write_selection_manifest,
    )

    stem = _require(cfg, "embeddings", "embedding stem")
    out_dir = Path(_require(cfg, "out_dir", "output directory"))
    read: list[InputDigest] = []
    E = read_embeddings(stem, digests=read)
    En = normalize_rows(E)
    budgets = (cfg.budget,) if cfg.budget is not None else cfg.budgets
    # Every budget is checked before the first selection is computed, so an
    # infeasible budget late in the list fails at once.
    k_init = cfg.k_init if cfg.method == METHOD_CORESET else None
    for b in budgets:
        if b > 0:
            check_budget(len(En.ids), b, k_init)

    # One run at the largest budget serves them all: each smaller budget is
    # its prefix. The first writer computes it, after _commit's checks, so a
    # refused run computes nothing.
    @functools.cache
    def largest():
        if cfg.method == METHOD_CORESET:
            return kcenter_greedy(En, max(budgets), k_init=cfg.k_init, rng_seed=cfg.rng_seed)
        return random_select(En.ids, max(budgets), rng_seed=cfg.rng_seed, embeddings=En)

    def write_selection(b: int, path: Path) -> None:
        # k_init stays cfg.k_init (<= b) for coreset and becomes b for random.
        m = largest()
        prefix = replace(
            m, budget=b, k_init=min(m.k_init, b), selected=m.selected[:b],
            radius_trace=m.radius_trace[:b],
        )
        write_selection_manifest(prefix, path)

    writers = {
        f"selection_{cfg.method}_b{b}.txt": lambda p, b=b: write_selection(b, p)
        for b in budgets
        if b > 0
    }
    inputs = [("embeddings", d) for d in read]
    # Manifest name carries the method so coreset and random runs can
    # share a directory without colliding.
    _commit("select", cfg, force, out_dir, writers, f"run_manifest_{cfg.method}.txt", inputs)
    for b in budgets:
        if b > 0:
            print(f"method={cfg.method} budget={b} radius={largest().radius_trace[b - 1]!r}")
        else:
            print(f"budget={b} skipped (nothing to select)")
    return EXIT_OK


def cmd_evaluate(cfg: PipelineConfig, force: bool) -> int:
    from .instance_metrics import evaluate
    from .report import metrics_csv_text, metrics_kv_text
    from .volume_io import read_volume

    pred_path = _input_file(cfg, "pred", "prediction volume")
    gt_path = _input_file(cfg, "gt", "ground-truth volume")
    out_dir = Path(_require(cfg, "out_dir", "output directory"))
    if cfg.budget is None:
        raise ConfigError(f"evaluate requires {_named('budget', 'a budget')}")
    read: list[InputDigest] = []
    pred = read_volume(pred_path, digests=read)
    gt = read_volume(gt_path, digests=read)
    record = evaluate(pred, gt, cfg.iou_threshold)
    stem = f"metrics_b{cfg.budget}"
    writers = {
        f"{stem}.txt": _text(metrics_kv_text(record, cfg.budget, cfg.iou_threshold)),
        f"{stem}.csv": _text(metrics_csv_text(record, cfg.budget, cfg.iou_threshold)),
    }
    # Manifest name carries the budget so one metrics directory can
    # accumulate every budget of a learning curve.
    inputs = list(zip(("pred", "gt"), read))
    _commit("evaluate", cfg, force, out_dir, writers, f"{stem}.run.txt", inputs)
    print(
        f"budget={cfg.budget} tp={record.tp} fp={record.fp} fn={record.fn} "
        f"f1={record.f1!r} pq={record.pq!r}"
    )
    return EXIT_OK


def cmd_report(cfg: PipelineConfig, force: bool) -> int:
    from .provenance import read_digested
    from .report import (
        build_curve, parse_metrics_csv, percent_csv, render_curve_table, surpass_summary,
    )

    metrics_dir = _input_dir(cfg, "metrics_dir", "metrics directory")
    out_dir = Path(_require(cfg, "out_dir", "output directory"))
    files = _listing(metrics_dir, "metrics_b*.csv", "metrics_b*.csv files", ReportError)
    records = {}
    thresholds = set()
    read: list[InputDigest] = []
    for f in files:
        try:
            text = read_digested(f, read).decode("ascii")
        except UnicodeDecodeError:
            raise ReportError(f"{f.name}: malformed metrics file: not ASCII") from None
        budget, record, threshold = parse_metrics_csv(text, source=f.name)
        if budget in records:
            raise ReportError(f"{f.name}: duplicate budget {budget}")
        records[budget] = record
        thresholds.add(threshold)
    if len(thresholds) > 1:
        raise ReportError(f"cannot report across iou thresholds {sorted(thresholds)}")
    curve = build_curve(records)
    surpass_text = surpass_summary(curve, cfg.surpass_fraction)
    writers = {
        "curve.csv": _text(percent_csv(curve)),
        "curve_table.txt": _text(render_curve_table(curve)),
        "surpass.txt": _text(surpass_text),
    }
    inputs = [("metrics", d) for d in read]
    _commit("report", cfg, force, out_dir, writers, "run_manifest.txt", inputs)
    print(surpass_text, end="")
    return EXIT_OK


_COMMANDS = {
    "tile": cmd_tile,
    "fuse": cmd_fuse,
    "cc": cmd_cc,
    "select": cmd_select,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        cfg = _merge_config(args)
        return _COMMANDS[command](cfg, args.force)
    except OverwriteRefused as exc:
        print(f"coreseg {command}: {exc}", file=sys.stderr)
        return EXIT_EXISTS
    except ConfigError as exc:
        print(f"coreseg {command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"coreseg {command}: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, CoresegError) as exc:
        print(f"coreseg {command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - safety net for bugs
        print(f"coreseg {command}: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
