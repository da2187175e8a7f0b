"""Static check that every public name has a user.

The behaviour contract is the CLI's bytes plus the names in
``coreseg.__all__``. A public name that no module of the package (outside
``__init__.py``, which only maps names to modules) and no acceptance
criterion refers to is kept alive by its own tests alone. This check
fails on such a name: a new export comes with a use, and an export whose
last use goes is retired with it.
"""

import ast
from pathlib import Path

import pytest

import coreseg

PACKAGE = Path(coreseg.__file__).parent
USERS = [
    *sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    Path(__file__).with_name("test_acceptance.py"),
]


def referenced_names(tree: ast.AST) -> set[str]:
    """Return every name tree reads: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def unused_exports(paths) -> list[str]:
    """Return the names in coreseg.__all__ that none of paths refers to."""
    used = set()
    for path in paths:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    return sorted(set(coreseg.__all__) - used)


def test_every_public_name_has_a_user():
    assert unused_exports(USERS) == []


@pytest.mark.parametrize(
    "snippet, names",
    [
        ("tile(vol, spec, name)", {"tile", "vol", "spec", "name"}),
        ("patch_grid.reassemble", {"patch_grid", "reassemble"}),
        ("from .label_fusion import CONN_FACE6 as face", {"CONN_FACE6"}),
        ("import coreseg.report", {"report"}),
        ("def f(v: LabelVolume) -> int: pass", {"LabelVolume", "int"}),
    ],
)
def test_reads_count_as_references(snippet, names):
    assert referenced_names(ast.parse(snippet)) == names


@pytest.mark.parametrize(
    "snippet",
    ["KIND_MASK = 'binary_mask'", "def stack_slices(): pass", "x.tile = 1", "del tile",
     "'extract_patch'", "# component_count"],
)
def test_definitions_and_text_are_not_references(snippet):
    assert not referenced_names(ast.parse(snippet)) & {
        "KIND_MASK", "stack_slices", "tile", "extract_patch", "component_count"
    }
