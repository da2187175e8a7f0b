"""Tests for the CLI byte-identity check's comparison."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "cli_ab", Path(__file__).resolve().parents[1] / "tools" / "cli_ab.py"
)
cli_ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cli_ab)


def fake_trees(monkeypatch, child):
    exported = []

    def fake_export(rev, into):
        exported.append((rev, into.name))
        return f"sha-{rev}"

    monkeypatch.setattr(cli_ab, "export", fake_export)
    monkeypatch.setattr(cli_ab, "_child", child)
    return exported


def test_identical_trees_pass(monkeypatch, capsys):
    works = set()

    def child(tree, work, argv):
        works.add(work)
        # Every call sees the inputs, whatever earlier calls left.
        assert (work / "vol.vol3d").is_file() and (work / "emb.meta").is_file()
        (work / "out").mkdir(exist_ok=True)
        (work / "out" / f"{argv[0]}.txt").write_text(" ".join(argv))
        return 0, b"ok\n", b""

    exported = fake_trees(monkeypatch, child)
    assert cli_ab.main(["A"]) == 0
    assert exported == [("A", "base"), ("HEAD", "change")]
    # Both trees run in one absolute directory, which is gone afterwards.
    (work,) = works
    assert not work.exists()
    out = capsys.readouterr().out
    assert f"0 differences in {len(cli_ab.SCRIPT)} calls" in out


def test_each_difference_is_named(monkeypatch, capsys):
    def child(tree, work, argv):
        change = tree.name == "change"
        if argv == cli_ab.SCRIPT[0]:
            (work / "same.txt").write_text("x")
            (work / "bytes.txt").write_text("new" if change else "old")
            (work / f"{tree.name}_only.txt").write_text("x")
            # An empty directory is a difference too, a shared one is not.
            (work / f"{tree.name}_dir").mkdir()
            (work / "shared_dir").mkdir()
            return 0, b"", b""
        if argv == cli_ab.SCRIPT[1]:
            return (3 if change else 0), b"", (b"boom\n" if change else b"")
        if argv == cli_ab.SCRIPT[2]:
            return 0, (b"radius=2\n" if change else b"radius=1\n"), b""
        return 0, b"", b""

    fake_trees(monkeypatch, child)
    assert cli_ab.main(["A", "--change", "B"]) == 1
    lines = capsys.readouterr().out.splitlines()
    call2 = f"call 2 ({' '.join(cli_ab.SCRIPT[1])})"
    call3 = f"call 3 ({' '.join(cli_ab.SCRIPT[2])})"
    assert [line for line in lines if line.startswith(("call ", "file ", "directory "))] == [
        f"{call2}: exit code differs: 0 != 3",
        f"{call2}: stderr differs: b'' != b'boom\\n'",
        f"{call3}: stdout differs: b'radius=1\\n' != b'radius=2\\n'",
        "file base_only.txt: only in base",
        "file bytes.txt: bytes differ",
        "file change_only.txt: only in change",
        "directory base_dir/: only in base",
        "directory change_dir/: only in change",
    ]
    assert lines[-1].startswith("8 differences")


def test_inputs_are_the_same_on_every_call(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        cli_ab.write_inputs(tmp_path / name)
    files = {
        name: {p.relative_to(tmp_path / name): p.read_bytes()
               for p in (tmp_path / name).rglob("*") if p.is_file()}
        for name in ("a", "b")
    }
    assert files["a"] == files["b"]
    assert Path("slices/s3.vol3d") in files["a"]
