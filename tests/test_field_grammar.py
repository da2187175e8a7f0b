"""Static check that integer and float fields have one grammar each.

coreseg._fields parses every key=value line and every integer field of
the text formats and the config: ASCII digits, at most 20 after any
leading zeros, so int() never sees text it could refuse. ``str.isdigit``
and its relatives accept "²" and other non-ASCII digits, and a ``\\d``
regex matches every Unicode digit; either one elsewhere would bring back
a second integer grammar. None may appear in ``src/coreseg`` outside
``_fields.py``.

Likewise every float read from a file or a flag goes through
``_fields.parse_float`` (ASCII decimals). ``float()`` on text accepts
"_", surrounding whitespace and non-ASCII digits, so no other module may
call it on text: a parameter annotated ``str``, a string method's
result, a subscript of text, or a name bound to or iterating over text.
The last tests pin parse_float itself: every repr(float) reads back.
"""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import coreseg
from coreseg._fields import parse_float
from coreseg.errors import ConfigError

DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}
GRAMMAR = "_fields.py"
SOURCES = sorted(Path(coreseg.__file__).parent.glob("*.py"))


def digit_parsers(tree: ast.AST) -> list[str]:
    """Return 'line: construct' for every digit test or \\d pattern in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DIGIT_TESTS:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "\\d" in node.value:
                found.append(f"{node.lineno}: {node.value!r}")
    return found


def test_sources_found():
    assert any(p.name == GRAMMAR for p in SOURCES)
    assert any(p.name == "volume_io.py" for p in SOURCES)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != GRAMMAR], ids=lambda p: p.name
)
def test_source_has_no_integer_grammar_of_its_own(path):
    assert digit_parsers(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "p.isdigit()",
        "all(p.isdecimal() for p in parts)",
        "str.isnumeric(p)",
        "re.fullmatch(r'\\d+', p)",
        "re.search(r'(\\d+)$', stem)",
        "PATTERN = re.compile('[a-z]\\\\d{1,3}')",
    ],
)
def test_checker_flags_digit_parser(snippet):
    assert digit_parsers(ast.parse(snippet))


def test_checker_accepts_ascii_digit_class():
    assert digit_parsers(ast.parse("re.search(r'([0-9]+)$', stem)")) == []


# Calls whose result is text, or a container of text.
TEXT_CALLS = {
    "split", "rsplit", "splitlines", "strip", "lstrip", "rstrip", "partition",
    "rpartition", "decode", "read_text", "readline", "readlines", "decode_lines",
    "split_fields",
}


def is_text(node: ast.AST, names: set[str]) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Subscript):
        return is_text(node.value, names)
    if isinstance(node, ast.IfExp):
        return is_text(node.body, names) or is_text(node.orelse, names)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in TEXT_CALLS
    return isinstance(node, ast.JoinedStr)


def bound_names(target: ast.AST) -> list[str]:
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def text_names(scope: ast.AST) -> set[str]:
    """Names in scope that hold text, found until no more are."""
    names = {
        a.arg
        for a in getattr(getattr(scope, "args", None), "args", [])
        if a.annotation is not None and re.search(r"\bstr\b", ast.unparse(a.annotation))
    }
    while True:
        found = set(names)
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and is_text(node.value, found):
                found.update(n for t in node.targets for n in bound_names(t))
            elif isinstance(node, ast.AnnAssign) and node.value and is_text(node.value, found):
                found.update(bound_names(node.target))
            elif isinstance(node, (ast.For, ast.comprehension)) and is_text(node.iter, found):
                found.update(bound_names(node.target))
        if found == names:
            return names
        names = found


def text_floats(tree: ast.AST) -> list[str]:
    """Return 'line: float(arg)' for every float() call on text in tree."""
    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.Lambda)):
            continue
        names = text_names(scope)
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", "") == "float"
                and node.args
                and is_text(node.args[0], names)
            ):
                found.add(f"{node.lineno}: float({ast.unparse(node.args[0])})")
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != GRAMMAR], ids=lambda p: p.name
)
def test_source_has_no_float_grammar_of_its_own(path):
    assert text_floats(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(text: str):\n    return float(text)",
        "def f(text: str | None):\n    return float(text)",
        "cells = line.split(',')\nscores = [float(c) for c in cells[4:]]",
        "trace = [float(v) for v in fields['radius_trace'].split(',')]",
        "trace = [float(v) for v in (text.split(',') if text else [])]",
        "key, sep, value = line.partition('=')\nx = float(value)",
        "for line in path.read_text().splitlines():\n    x = float(line)",
        "fields = split_fields(lines, KEYS, E, ctx)\nx = float(fields['t'])",
        "x = float('0.5')",
    ],
)
def test_checker_flags_float_on_text(snippet):
    assert text_floats(ast.parse(snippet))


@pytest.mark.parametrize(
    "snippet",
    [
        "def f(x: float):\n    return float(x)",
        "min_d = np.full(n, np.inf)\nr = float(min_d[i])",
        "r = float(sub.min(axis=1).max())",
        "coords = ','.join(repr(float(v)) for v in E.values[i])",
        "def f(text: str, x: float):\n    return float(x)",
    ],
)
def test_checker_accepts_float_on_numbers(snippet):
    assert text_floats(ast.parse(snippet)) == []


@given(st.floats(allow_nan=False))
def test_parse_float_reads_back_every_repr(x):
    assert repr(parse_float(repr(x), ConfigError, "x")) == repr(x)


@pytest.mark.parametrize(
    "text", ["nan", "-inf", "Infinity", "1", ".5", "5.", "1E3", "+0.5", "1.5e-07"]
)
def test_parse_float_reads_ascii_decimals(text):
    assert repr(parse_float(text, ConfigError, "x")) == repr(float(text))


@pytest.mark.parametrize(
    "text",
    ["\u0660.\u0665", "1_0", " 0.5", "0.5\n", "", ".", "e5", "1e", "0x1p3", "--1", "\u0131nf"],
)
def test_parse_float_refuses_other_text(text):
    with pytest.raises(ConfigError, match="number"):
        parse_float(text, ConfigError, "number")
