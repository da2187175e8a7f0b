"""Static check that the library never calls BLAS.

Selection outputs are bit-identical across machines only while no
distance computation goes through a BLAS routine, whose rounding depends
on the build, the thread count and the rows computed together. NumPy
reaches BLAS through the ``@`` operator, ``dot``, ``matmul``, ``inner``,
``vdot`` and ``tensordot``, and through ``einsum`` when ``optimize`` is
passed; none of these may appear in ``src/coreseg``.

Since none does, the CLI starts no BLAS thread pool: ``coreseg.cli``
defaults ``OPENBLAS_NUM_THREADS`` to 1 before its first relative import,
and the package ``__init__`` imports no submodule, so nothing loads
numpy first. The last tests keep both so.
"""

import ast
from pathlib import Path

import pytest

import coreseg

BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot"}
SOURCES = sorted(Path(coreseg.__file__).parent.glob("*.py"))


def blas_uses(tree: ast.AST) -> list[str]:
    """Return 'line: construct' for every BLAS-reaching construct in tree."""
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{line}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{line}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(f"{line}: {node.id}")
        elif isinstance(node, ast.alias) and node.name in BLAS_NAMES:
            found.append(f"{line}: import {node.name}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "einsum" and any(k.arg in ("optimize", None) for k in node.keywords):
                found.append(f"{line}: einsum(optimize=...)")
    return found


def test_sources_found():
    assert any(p.name == "coreset.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_makes_no_blas_call(path):
    assert blas_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "a @ b",
        "a @= b",
        "np.dot(a, b)",
        "a.dot(b)",
        "np.matmul(a, b)",
        "np.inner(a, b)",
        "np.vdot(a, b)",
        "np.tensordot(a, b)",
        "from numpy import dot",
        "np.einsum('ij,j->i', a, b, optimize=True)",
        "np.einsum('ij,j->i', a, b, **options)",
    ],
)
def test_checker_flags_blas_construct(snippet):
    assert blas_uses(ast.parse(snippet))


def test_checker_accepts_plain_einsum_row():
    assert blas_uses(ast.parse("1.0 - np.einsum('ij,j->i', rows, v)")) == []


def numpy_imports(tree: ast.Module) -> list[int]:
    """Return the line of every top-level import in tree that can load
    numpy: a relative one, or one of numpy or coreseg."""
    lines = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] if not node.level else None
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        if modules is None or any(m.split(".")[0] in ("numpy", "coreseg") for m in modules):
            lines.append(node.lineno)
    return lines


def thread_default_line(tree: ast.Module) -> int | None:
    """Return the line of the top-level os.environ.setdefault call that
    sets OPENBLAS_NUM_THREADS, if any."""
    for node in tree.body:
        call = node.value if isinstance(node, ast.Expr) else None
        if (
            isinstance(call, ast.Call)
            and ast.unparse(call.func) == "os.environ.setdefault"
            and [ast.unparse(a) for a in call.args] == ["'OPENBLAS_NUM_THREADS'", "'1'"]
        ):
            return node.lineno
    return None


def source_tree(name: str) -> ast.Module:
    return ast.parse((Path(coreseg.__file__).parent / name).read_text(encoding="utf-8"))


def test_package_init_imports_no_submodule():
    assert numpy_imports(source_tree("__init__.py")) == []


def test_cli_sets_thread_default_before_numpy_can_load():
    tree = source_tree("cli.py")
    line = thread_default_line(tree)
    assert line is not None
    assert numpy_imports(tree) and min(numpy_imports(tree)) > line


def test_thread_default_line_finds_only_the_openblas_default():
    late = ast.parse(
        "import os\nfrom .config import x\nos.environ.setdefault('OPENBLAS_NUM_THREADS', '1')"
    )
    assert thread_default_line(late) == 3
    assert thread_default_line(ast.parse("os.environ.setdefault('OMP_NUM_THREADS', '1')")) is None


@pytest.mark.parametrize(
    "snippet, lines",
    [
        ("from . import __version__", [1]),
        ("from .coreset import kcenter_greedy", [1]),
        ("import numpy as np", [1]),
        ("from numpy.linalg import norm", [1]),
        ("import coreseg.config", [1]),
        ("from importlib import import_module", []),
        ("import os, sys", []),
    ],
)
def test_numpy_imports_finds_loading_imports(snippet, lines):
    assert numpy_imports(ast.parse(snippet)) == lines
