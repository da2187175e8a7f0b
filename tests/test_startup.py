"""CLI start-up: a lazy package and no BLAS thread pool.

``import coreseg`` loads no submodule, so ``coreseg.cli`` can default
``OPENBLAS_NUM_THREADS`` to 1 before numpy loads: no coreseg path calls
BLAS (tests/test_blas_free.py), so a CLI child needs no thread pool. An
explicit value in the environment wins.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coreseg

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
        "component_count",
        "connected_components",
        "stack_slices",
        "PatchId",
        "PatchSpec",
        "extract_patch",
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
