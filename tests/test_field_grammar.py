"""Static check that integer fields have one grammar.

coreseg._fields parses every key=value line and every integer field of
the text formats and the config: ASCII digits, at most 20 after any
leading zeros, so int() never sees text it could refuse. ``str.isdigit``
and its relatives accept "²" and other non-ASCII digits, and a ``\\d``
regex matches every Unicode digit; either one elsewhere would bring back
a second integer grammar. None may appear in ``src/coreseg`` outside
``_fields.py``.
"""

import ast
from pathlib import Path

import pytest

import coreseg

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
