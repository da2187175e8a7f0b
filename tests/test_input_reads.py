"""Static check that the CLI never reads an input file itself.

Each input is read once, by the reader that parses it (read_volume,
read_embeddings, read_digested), and the run manifest takes the digest
that reader recorded of the bytes it parsed. A ``read_bytes``,
``read_text`` or ``open`` call in ``cli.py`` would read an input a second
time, or hash bytes the run did not use. The one read allowed is of the
run manifest that ``_commit`` replaces, which is an output, at its name or
at the ``<name>.prev`` that a killed run moved it to.
"""

import ast
from pathlib import Path

import pytest

from coreseg import cli

READ_NAMES = {"read_bytes", "read_text", "open"}
# (enclosing function, receiver) of the reads that are allowed.
ALLOWED = {("_commit", "manifest")}


def file_reads(tree: ast.AST) -> list[str]:
    """Return 'line: function: call' for every disallowed file read in tree."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in READ_NAMES:
                receiver = ast.unparse(func.value)
                if (function, receiver) not in ALLOWED:
                    found.append(f"{node.lineno}: {function}: {receiver}.{func.attr}()")
            elif isinstance(func, ast.Name) and func.id in READ_NAMES:
                found.append(f"{node.lineno}: {function}: {func.id}()")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_cli_reads_no_input_itself():
    source = Path(cli.__file__).read_text(encoding="utf-8")
    assert file_reads(ast.parse(source)) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "def cmd_report(cfg, force):\n    f.read_text(encoding='ascii')",
        "def _write_run_manifest(path, inputs):\n    p.read_bytes()",
        "def cmd_cc(cfg, force):\n    Path(cfg.mask).open('rb')",
        "def cmd_cc(cfg, force):\n    open(cfg.mask, 'rb')",
        "def cmd_tile(cfg, force):\n    (out_dir / run_name).read_text()",
        "def _commit(out_dir, run_name, inputs):\n    inputs[0][1].read_bytes()",
        "io.open(path)",
    ],
)
def test_checker_flags_input_read(snippet):
    assert file_reads(ast.parse(snippet))


def test_checker_accepts_replaced_manifest_read_in_commit():
    snippet = "def _commit(out_dir, run_name):\n    manifest.read_text()"
    assert file_reads(ast.parse(snippet)) == []
