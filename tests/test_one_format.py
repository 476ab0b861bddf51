"""The bundle format lives behind one module, ``bundle.py``: a scan of the
package's source for the format name and for base64, which packs a bundle's
counts, and for a JSON field reader in the modules whose objects a bundle
stores."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "textrkm"
FORMAT = "textrkm-bundle"
READERS = {"json_field", "json_fields"}
PACKING = {"base64", "binascii"}
STORED = ("rkmeans.py", "representation.py")


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
    return found


def _names_format(tree: ast.AST) -> bool:
    """Whether a string constant in ``tree`` holds the format name."""
    return any(
        isinstance(node, ast.Constant) and isinstance(node.value, str) and FORMAT in node.value
        for node in ast.walk(tree)
    )


def _scan(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    if path.name in STORED:
        found += [f"{path.name}: {name}" for name in sorted(_identifiers(tree) & READERS)]
    if path.name != "bundle.py":
        found += [f"{path.name}: {name}" for name in sorted(_identifiers(tree) & PACKING)]
        if _names_format(tree):
            found.append(f"{path.name}: {FORMAT}")
    return found


def test_only_the_bundle_module_knows_the_bundle_format():
    found = [where for path in sorted(PACKAGE.glob("*.py")) for where in _scan(path)]
    assert found == []


def test_the_scan_finds_what_the_bundle_module_holds(tmp_path):
    source = (PACKAGE / "bundle.py").read_text(encoding="utf-8")
    for name in ("cli.py", "rkmeans.py"):
        (tmp_path / name).write_text(source, encoding="utf-8")
    assert _scan(tmp_path / "cli.py") == ["cli.py: base64", f"cli.py: {FORMAT}"]
    readers = [f"rkmeans.py: {name}" for name in sorted(READERS)]
    assert _scan(tmp_path / "rkmeans.py") == readers + ["rkmeans.py: base64", f"rkmeans.py: {FORMAT}"]
    (tmp_path / "corpus.py").write_text("from binascii import a2b_base64\n", encoding="utf-8")
    assert _scan(tmp_path / "corpus.py") == ["corpus.py: binascii"]
