"""Static check that the library never calls BLAS.

Selection outputs are bit-identical across machines only while no
distance computation goes through a BLAS routine, whose rounding depends
on the build, the thread count and the rows computed together. NumPy
reaches BLAS through the ``@`` operator, ``dot``, ``matmul``, ``inner``,
``vdot`` and ``tensordot``, and through ``einsum`` when ``optimize`` is
passed; none of these may appear in ``src/coreseg``.
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
