"""The sweep directory's manifest format lives in one module, ``harness.py``,
which writes, reads and replays it: a scan of the package's source for a
name that another module defines for a manifest or a manifest side."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "textrkm"
OWNER = "harness.py"


def _defined(tree: ast.AST) -> set[str]:
    """Every function, class and assigned name in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
    return found


def _scan(path: Path) -> list[str]:
    if path.name == OWNER:
        return []
    names = _defined(ast.parse(path.read_text(encoding="utf-8")))
    return [f"{path.name}: {name}" for name in sorted(names)
            if "manifest" in name.lower() or "SIDE_" in name]


def test_only_the_harness_defines_the_manifest_format():
    found = [where for path in sorted(PACKAGE.glob("*.py")) for where in _scan(path)]
    assert found == []


def test_the_scan_finds_what_the_harness_defines(tmp_path):
    source = (PACKAGE / OWNER).read_text(encoding="utf-8")
    (tmp_path / "corpus.py").write_text(source, encoding="utf-8")
    found = _scan(tmp_path / "corpus.py")
    for name in ("SIDE_TEST", "SIDE_TRAIN", "manifest_filename", "read_split_manifest",
                 "replay_trial", "write_split_manifest"):
        assert (f"corpus.py: {name}" in found) == (name != "replay_trial")
    (tmp_path / "cli.py").write_text(
        "class Manifest: pass\n"
        "def run(a):\n"
        "    for manifest_dir in a: pass\n"
        "    with open(a) as MANIFEST: pass\n"
        "    SIDE_X, b = a\n"
        "    return a.manifest_path, read_split_manifest(a)\n",
        encoding="utf-8",
    )
    assert _scan(tmp_path / "cli.py") == [
        "cli.py: MANIFEST", "cli.py: Manifest", "cli.py: SIDE_X", "cli.py: manifest_dir",
    ]
    (tmp_path / OWNER).write_text(source, encoding="utf-8")
    assert _scan(tmp_path / OWNER) == []
