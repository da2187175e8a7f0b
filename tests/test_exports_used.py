"""Static check that every public name has a user.

The behaviour contract is the CLI's bytes plus the names in
``coreseg.__all__``. A public name that no module of the package (outside
``__init__.py``, which only maps names to modules) and no acceptance
criterion refers to is kept alive by its own tests alone. This check
fails on such a name: a new export comes with a use, and an export whose
last use goes is retired with it. The same holds for every public
top-level function or class of a module, exported or not, and for every
public method or property of such a class.

A name, an attribute or an import counts as a read of a definition; text
does not, with one exception: config reaches each value check by name,
as the string second argument of a ``_checked(module, name)`` call, so
that string counts as a read of the name. A member is read only as an
attribute, ``x.name``: a bare name of the same spelling, such as a local
variable, is not a read of it.
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


def attribute_reads(tree: ast.AST) -> set[str]:
    """Return every name tree reads as an attribute, x.name."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def public_definitions(tree: ast.Module) -> set[str]:
    """Return the public functions and classes defined at tree's top level."""
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def public_members(tree: ast.Module) -> set[str]:
    """Return 'Class.name' for each public method or property of the
    public classes defined at tree's top level."""
    return {
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def used_names(paths, read=referenced_names) -> set[str]:
    used = set()
    for path in paths:
        used |= read(ast.parse(path.read_text(encoding="utf-8")))
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


def unused_members(modules, paths) -> list[str]:
    """Return 'module.Class.name' for each public member of modules that
    paths never read as an attribute."""
    used = used_names(paths, attribute_reads)
    return sorted(
        f"{path.stem}.{member}"
        for path in modules
        for member in public_members(ast.parse(path.read_text(encoding="utf-8")))
        if member.rpartition(".")[2] not in used
    )


def test_every_public_name_has_a_user():
    assert unused_exports(USERS) == []


def test_every_public_definition_has_a_user():
    assert unused_definitions(MODULES, USERS) == []


def test_every_public_member_has_a_user():
    assert unused_members(MODULES, USERS) == []


def reads(snippet: str) -> set[str]:
    """Return the names snippet reads, an attribute read also as '.name'."""
    tree = ast.parse(snippet)
    return referenced_names(tree) | {"." + name for name in attribute_reads(tree)}


@pytest.mark.parametrize(
    "snippet, names",
    [
        ("tile(vol, spec, name)", {"tile", "vol", "spec", "name"}),
        ("patch_grid.reassemble", {"patch_grid", "reassemble", ".reassemble"}),
        ("from .label_fusion import CONN_FACE6 as face", {"CONN_FACE6"}),
        ("import coreseg.report", {"report"}),
        ("def f(v: LabelVolume) -> int: pass", {"LabelVolume", "int"}),
        ("_checked('label_fusion', 'connectivity_kind')", {"_checked", "connectivity_kind"}),
        ("_checked('coreset', 'check_k_init', _parse_int)",
         {"_checked", "check_k_init", "_parse_int"}),
        ("config._checked('report', 'check_iou_threshold')",
         {"config", "_checked", "._checked", "check_iou_threshold"}),
        ("curve.full_budget", {"curve", "full_budget", ".full_budget"}),
        ("curve.rows[-1].budget", {"curve", "rows", ".rows", "budget", ".budget"}),
        ("self.full_record()", {"self", "full_record", ".full_record"}),
        # A local variable spelled like a member is a name, not a member read.
        ("full_budget = budgets[-1]; full_budget + 1", {"budgets", "full_budget"}),
    ],
)
def test_reads_count_as_references(snippet, names):
    assert reads(snippet) == names


@pytest.mark.parametrize(
    "snippet",
    ["KIND_MASK = 'binary_mask'", "def stack_slices(): pass", "x.tile = 1", "del tile",
     "'extract_patch'", "# component_count", "getattr(m, 'tile')",
     "_checked('extract_patch')", "_checked(module, name='stack_slices')",
     "checked('label_fusion', 'component_count')",
     "curve.full_budget = 16", "del curve.full_budget", "def full_budget(self): pass",
     "full_budget", "getattr(curve, 'full_budget')"],
)
def test_definitions_and_text_are_not_references(snippet):
    assert not reads(snippet) & {
        "KIND_MASK", "stack_slices", "tile", ".tile", "extract_patch", "component_count",
        ".full_budget",
    }


def test_public_definitions_are_top_level_and_unprefixed():
    tree = ast.parse(
        "def tile(): pass\nclass PatchId: pass\ndef _runs(): pass\n"
        "def f():\n    def inner(): pass\nclass C:\n    def method(self): pass\n"
        "KIND_MASK = 'binary_mask'"
    )
    assert public_definitions(tree) == {"tile", "PatchId", "f", "C"}


def test_public_members_are_methods_and_properties_of_public_classes():
    tree = ast.parse(
        "class C:\n    rows: tuple\n    limit = 3\n    def method(self): pass\n"
        "    @property\n    def prop(self): pass\n    def _hidden(self): pass\n"
        "    def __enter__(self): pass\n    class Inner:\n        def deep(self): pass\n"
        "class _P:\n    def method(self): pass\n"
        "def f():\n    class Local:\n        def method(self): pass\n"
    )
    assert public_members(tree) == {"C.method", "C.prop"}
