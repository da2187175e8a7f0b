"""CLI start-up: a lazy package, per-command modules and no BLAS thread pool.

``import coreseg`` loads no submodule, so ``coreseg.cli`` can default
``OPENBLAS_NUM_THREADS`` to 1 before numpy loads: no coreseg path calls
BLAS (tests/test_blas_free.py), so a CLI child needs no thread pool. An
explicit value in the environment wins. A CLI child loads only the
modules of the command it runs, so ``--version``, ``--help``, a usage
error and ``report`` load no numpy at all.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coreseg
from coreseg.config import PipelineConfig
from coreseg.coreset import METHOD_CORESET, EmbeddingMatrix, write_embeddings
from coreseg.label_fusion import CONN_FULL26
from coreseg.patch_grid import PAD_REFLECT
from coreseg.report import MetricsRecord, metrics_csv_text
from coreseg.volume_io import KIND_MASK, new_volume, write_volume

SRC = str(Path(coreseg.__file__).parent.parent)


def run_child(code: str, **env_vars: str) -> str:
    """Run code in a fresh interpreter whose environment lacks
    OPENBLAS_NUM_THREADS unless given; return its stdout."""
    # This process may have imported coreseg.cli, which set the variable.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout.strip()


def test_import_coreseg_loads_no_numpy():
    code = "import coreseg, sys; print('numpy' in sys.modules)"
    assert run_child(code) == "False"


def test_star_import_binds_every_name():
    code = "from coreseg import *; import coreseg; print(set(coreseg.__all__) - set(dir()))"
    assert run_child(code) == "set()"


@pytest.mark.parametrize("name", [n for n in coreseg.__all__ if n != "__version__"])
def test_export_is_its_submodule_object(name):
    module = importlib.import_module(f"coreseg.{coreseg._EXPORTS[name]}")
    assert getattr(coreseg, name) is getattr(module, name)
    assert vars(coreseg)[name] is getattr(module, name)


def test_public_names_are_pinned():
    # The behaviour contract is the CLI's bytes plus these names; changing
    # it has to be a visible edit here.
    assert set(coreseg.__all__) == {
        "__version__",
        "DistanceMatrix",
        "EmbeddingMatrix",
        "SelectionManifest",
        "cosine_distance_matrix",
        "coverage_radius",
        "kcenter_greedy",
        "normalize_rows",
        "random_select",
        "ConfigError",
        "CoresegError",
        "FusionError",
        "GridError",
        "InternalError",
        "MetricsError",
        "OverwriteRefused",
        "ReportError",
        "SelectionError",
        "VolumeFormatError",
        "MatchResult",
        "MetricsRecord",
        "evaluate",
        "match_instances",
        "overlap_histogram",
        "CONN_FACE6",
        "CONN_FULL26",
        "Connectivity",
        "connected_components",
        "PatchId",
        "PatchSpec",
        "plan_grid",
        "reassemble",
        "tile",
        "LearningCurve",
        "build_curve",
        "first_surpass",
        "percent_of_full",
        "KIND_INSTANCE",
        "KIND_MASK",
        "LabelVolume",
        "VolumeHeader",
        "new_volume",
        "read_volume",
        "write_volume",
    }


def test_dir_lists_all_before_any_use():
    code = "import coreseg, sys; print(set(coreseg.__all__) - set(dir(coreseg)))"
    assert run_child(code) == "set()"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coreseg.no_such_name
    assert not hasattr(coreseg, "no_such_name")


def test_cli_child_runs_one_thread():
    code = "import os, coreseg.cli; print(len(os.listdir('/proc/self/task')))"
    assert run_child(code) == "1"


def test_explicit_thread_count_is_kept():
    code = "import os, coreseg.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_child(code) == "1"
    assert run_child(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_config_defaults_are_the_module_constants():
    # config spells these out so that building the defaults loads nothing.
    cfg = PipelineConfig()
    assert cfg.pad_mode == PAD_REFLECT
    assert cfg.connectivity == CONN_FULL26.kind
    assert cfg.method == METHOD_CORESET


# What every CLI child loads, and what each command adds to it.
BASE = {"cli", "config", "_fields", "errors", "provenance"}
COMMAND_MODULES = {
    "tile": {"volume_io", "patch_grid"},
    "fuse": {"volume_io", "label_fusion"},
    "cc": {"volume_io", "label_fusion"},
    "select": {"coreset", "rng"},
    "evaluate": {"volume_io", "instance_metrics", "report"},
    "report": {"report"},
}


def loaded_by(*argv) -> tuple[int, set[str]]:
    """Run cli.main(argv) in a fresh interpreter; return its status and the
    coreseg submodules plus numpy that it loaded."""
    code = f"""
import contextlib, io, sys
from coreseg import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        status = cli.main({[str(a) for a in argv]!r})
    except SystemExit as exc:
        status = exc.code
names = [m.removeprefix("coreseg.") for m in sys.modules if m.startswith("coreseg.")]
print(status, *names, *[m for m in sys.modules if m == "numpy"])
"""
    status, *names = run_child(code).split()
    return int(status), set(names)


@pytest.mark.parametrize(
    "argv, status",
    [(["--version"], 0), (["--help"], 0), (["tile", "--help"], 0), (["--no-such-flag"], 2)],
)
def test_version_help_and_usage_errors_load_no_numpy(argv, status):
    assert loaded_by(*argv) == (status, BASE)


def command_args(tmp_path: Path, command: str) -> list:
    """Write small inputs for one run of command; return its argv."""
    out = tmp_path / "out"
    vol = tmp_path / "v.vol3d"
    write_volume(new_volume(np.arange(75, dtype=np.uint32).reshape(3, 5, 5) % 4), vol)
    if command == "tile":
        return ["tile", "--volume", vol, "--patch", "2,4,4", "--out-dir", out]
    if command in ("fuse", "cc"):
        grid = np.array([[[1, 0], [0, 1]]], dtype=np.uint32)
        (tmp_path / "slices").mkdir()
        for name in ("s0.vol3d", "s1.vol3d"):
            write_volume(new_volume(grid, value_kind=KIND_MASK), tmp_path / "slices" / name)
        if command == "fuse":
            return ["fuse", "--slices-dir", tmp_path / "slices", "--out", out / "f.vol3d"]
        return ["cc", "--mask", tmp_path / "slices" / "s0.vol3d", "--out", out / "c.vol3d"]
    if command == "select":
        values = np.random.default_rng(7).normal(size=(12, 4))
        write_embeddings(EmbeddingMatrix([f"p{i}" for i in range(12)], values), tmp_path / "e")
        return ["select", "--embeddings", tmp_path / "e", "--budgets", "0,3,5", "--out-dir", out]
    if command == "evaluate":
        return ["evaluate", "--pred", vol, "--gt", vol, "--budget", "4", "--out-dir", out]
    (tmp_path / "metrics").mkdir()
    for budget, tp in ((2, 1), (4, 2)):
        record = MetricsRecord.from_counts(tp, 2 - tp, 2 - tp, 0.9 * tp)
        (tmp_path / "metrics" / f"metrics_b{budget}.csv").write_text(
            metrics_csv_text(record, budget, 0.5), encoding="ascii"
        )
    return ["report", "--metrics-dir", tmp_path / "metrics", "--out-dir", out]


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_its_own_modules(tmp_path, command):
    status, loaded = loaded_by(*command_args(tmp_path, command))
    assert status == 0
    expected = BASE | COMMAND_MODULES[command]
    assert loaded - {"numpy"} == expected
    # report's modules are numpy-free; every other command needs numpy.
    assert ("numpy" in loaded) == (command != "report")
