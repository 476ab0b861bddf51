"""Every file the package writes goes through one writer, ``corpus.replacing``,
which replaces its target whole: a scan of the package's source for any other
way to write a file."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "textrkm"
WRITER = ("corpus.py", "replacing")
WRITE_MODES = set("wax+")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` can write a file: ``write_text``, ``write_bytes``, or an
    ``open`` whose mode or flags may write, or cannot be read from the source."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    keywords = {k.arg: k.value for k in call.keywords}
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os":
        flags = keywords.get("flags", call.args[1] if len(call.args) > 1 else None)
        if flags is None:
            return True
        names = {n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", None) for n in ast.walk(flags)}
        return bool(names & WRITE_FLAGS) or not names & {"O_RDONLY"}
    # builtin open(file, mode) or Path.open(mode)
    position = 1 if isinstance(func, ast.Name) else 0
    mode = keywords.get("mode", call.args[position] if len(call.args) > position else None)
    if mode is None:
        return False  # "r"
    return not isinstance(mode, ast.Constant) or bool(WRITE_MODES & set(str(mode.value)))


def _file_writes(path: Path) -> list[str]:
    """``file:line`` of each call in ``path`` that can write a file, outside the writer."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _writes(node) and (path.name, function) != WRITER:
            found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_the_package_writes_files_through_one_writer():
    found = [where for path in sorted(PACKAGE.glob("*.py")) for where in _file_writes(path)]
    assert found == []


def test_the_scan_finds_each_kind_of_write(tmp_path):
    source = tmp_path / "corpus.py"
    source.write_text(
        "def replacing(out):\n"
        "    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)\n"
        "    return open(fd, 'w')\n"
        "def reads(p, mode):\n"
        "    os.open(p, os.O_RDONLY)\n"
        "    open(p).read(); open(p, 'rb'); p.open(); p.read_text()\n"
        "def writes(p, mode):\n"
        "    p.write_text('x'); p.write_bytes(b'x')\n"
        "    open(p, 'a'); open(p, mode=mode); p.open('w'); os.open(p, os.O_RDWR)\n",
        encoding="utf-8",
    )
    assert _file_writes(source) == ["corpus.py:8"] * 2 + ["corpus.py:9"] * 4
