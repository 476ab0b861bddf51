"""The exact nearest centroid is decided in one place, ``kernels._exact_nearest``,
which takes the argmin of the whole difference tensor's distances: a scan of
the package's source for a sort of candidate pairs and for that argmin anywhere
else."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "textrkm"
RULE = ("kernels.py", "_exact_nearest")
TENSOR_DISTANCES = "ijk,ijk->ij"


def _name(node: ast.AST):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _tensor_argmin(node: ast.AST) -> bool:
    """Whether ``node`` is ``einsum("ijk,ijk->ij", ...)``'s ``argmin``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "argmin"):
        return False
    call = node.value
    return (
        isinstance(call, ast.Call)
        and _name(call.func) == "einsum"
        and bool(call.args)
        and isinstance(call.args[0], ast.Constant)
        and call.args[0].value == TENSOR_DISTANCES
    )


def _second_rules(path: Path) -> list[str]:
    """``file:line`` of each ``lexsort`` in ``path``, and of each tensor argmin
    outside the one rule."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _name(node) == "lexsort" or (_tensor_argmin(node) and (path.name, function) != RULE):
            found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_the_package_decides_the_exact_nearest_centroid_once():
    found = [where for path in sorted(PACKAGE.glob("*.py")) for where in _second_rules(path)]
    assert found == []


def test_the_scan_finds_each_second_rule(tmp_path):
    source = tmp_path / "kernels.py"
    source.write_text(
        "def _exact_nearest(x, c):\n"
        "    return np.einsum('ijk,ijk->ij', x, c).argmin(axis=1)\n"
        "def others(x, c, keys):\n"
        "    np.einsum('ij,ij->i', x, x).argmin(); np.einsum('ijk,ijk->ij', x, c).min()\n"
        "    order = np.lexsort(keys)\n"
        "    return einsum('ijk,ijk->ij', x, c).argmin(axis=1), lexsort\n",
        encoding="utf-8",
    )
    assert _second_rules(source) == ["kernels.py:5", "kernels.py:6", "kernels.py:6"]
