"""Static check that every public name has a user.

The behaviour contract is the CLI's bytes plus the names in
``coreseg.__all__``. A public name that no module of the package (outside
``__init__.py``, which only maps names to modules) and no acceptance
criterion refers to is kept alive by its own tests alone. This check
fails on such a name: a new export comes with a use, and an export whose
last use goes is retired with it. The same holds for every public
top-level function or class of a module, exported or not.

A name, an attribute or an import counts as a read; text does not, with
one exception: config reaches each value check by name, as the string
second argument of a ``_checked(module, name)`` call, so that string
counts as a read of the name.
"""

import ast
from pathlib import Path

import pytest

import coreseg

PACKAGE = Path(coreseg.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = [*MODULES, Path(__file__).with_name("test_acceptance.py")]


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
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_checked"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.add(node.args[1].value)
    return names


def public_definitions(tree: ast.Module) -> set[str]:
    """Return the public functions and classes defined at tree's top level."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def used_names(paths) -> set[str]:
    used = set()
    for path in paths:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    return used


def unused_exports(paths) -> list[str]:
    """Return the names in coreseg.__all__ that none of paths refers to."""
    return sorted(set(coreseg.__all__) - used_names(paths))


def unused_definitions(modules, paths) -> list[str]:
    """Return 'module.name' for each public definition of modules unread by paths."""
    used = used_names(paths)
    return sorted(
        f"{path.stem}.{name}"
        for path in modules
        for name in public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in used
    )


def test_every_public_name_has_a_user():
    assert unused_exports(USERS) == []


def test_every_public_definition_has_a_user():
    assert unused_definitions(MODULES, USERS) == []


@pytest.mark.parametrize(
    "snippet, names",
    [
        ("tile(vol, spec, name)", {"tile", "vol", "spec", "name"}),
        ("patch_grid.reassemble", {"patch_grid", "reassemble"}),
        ("from .label_fusion import CONN_FACE6 as face", {"CONN_FACE6"}),
        ("import coreseg.report", {"report"}),
        ("def f(v: LabelVolume) -> int: pass", {"LabelVolume", "int"}),
        ("_checked('label_fusion', 'connectivity_kind')", {"_checked", "connectivity_kind"}),
        ("_checked('coreset', 'check_k_init', _parse_int)",
         {"_checked", "check_k_init", "_parse_int"}),
        ("config._checked('report', 'check_iou_threshold')",
         {"config", "_checked", "check_iou_threshold"}),
    ],
)
def test_reads_count_as_references(snippet, names):
    assert referenced_names(ast.parse(snippet)) == names


@pytest.mark.parametrize(
    "snippet",
    ["KIND_MASK = 'binary_mask'", "def stack_slices(): pass", "x.tile = 1", "del tile",
     "'extract_patch'", "# component_count", "getattr(m, 'tile')",
     "_checked('extract_patch')", "_checked(module, name='stack_slices')",
     "checked('label_fusion', 'component_count')"],
)
def test_definitions_and_text_are_not_references(snippet):
    assert not referenced_names(ast.parse(snippet)) & {
        "KIND_MASK", "stack_slices", "tile", "extract_patch", "component_count"
    }


def test_public_definitions_are_top_level_and_unprefixed():
    tree = ast.parse(
        "def tile(): pass\nclass PatchId: pass\ndef _runs(): pass\n"
        "def f():\n    def inner(): pass\nclass C:\n    def method(self): pass\n"
        "KIND_MASK = 'binary_mask'"
    )
    assert public_definitions(tree) == {"tile", "PatchId", "f", "C"}
