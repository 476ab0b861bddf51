"""`train` and `sweep` take their settings from one helper in ``cli.py``, and
``harness.fit`` reads them from the config it is handed: a scan of the two
modules' source for a settings object built elsewhere in ``cli.py``, for a
helper argument that is not a parsed flag, and for a ``fit`` parameter named
after a setting."""
import ast
import dataclasses
from pathlib import Path

from textrkm.harness import SweepConfig

PACKAGE = Path(__file__).parent.parent / "src" / "textrkm"
HELPER = "_config_from_args"
CONFIGS = {"SweepConfig", "RecursiveConfig", "KMeansConfig"}
# the fields of SweepConfig and the keys of the sweep_config.json it writes
SETTINGS = {f.name for f in dataclasses.fields(SweepConfig)} | SweepConfig().to_dict().keys()


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _called(node: ast.AST) -> str | None:
    """The name a call calls, for a call of a name or of an attribute."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def _built_outside_helper(tree: ast.Module) -> list[str]:
    """``function: Config`` for each settings object built with arguments
    outside the helper. ``SweepConfig()`` alone reads the defaults and names
    no setting."""
    found = []
    for top in tree.body:
        where = getattr(top, "name", "<module>")
        if where != HELPER:
            found += [f"{where}: {_called(node)}" for node in ast.walk(top)
                      if _called(node) in CONFIGS and (node.args or node.keywords)]
    return found


def _helper_callers(tree: ast.Module) -> list[str]:
    return [top.name for top in tree.body if isinstance(top, ast.FunctionDef)
            and any(_called(node) == HELPER for node in ast.walk(top))]


def _helper_keywords_not_flags(tree: ast.Module) -> list[str]:
    """``function: keyword`` for each keyword passed to the helper that is
    not an ``args.<flag>``: a value the parser neither parsed nor defaulted."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if _called(node) == HELPER:
                found += [f"{top.name}: {k.arg}" for k in node.keywords if not (
                    isinstance(k.value, ast.Attribute) and getattr(k.value.value, "id", None) == "args")]
    return found


def _fit_settings(tree: ast.Module) -> list[str]:
    """The parameters of ``fit`` named after a setting."""
    fit = next(top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "fit")
    return [a.arg for a in fit.args.args + fit.args.kwonlyargs if a.arg in SETTINGS]


def test_train_and_sweep_build_their_settings_in_one_helper():
    tree = _parse(PACKAGE / "cli.py")
    assert _built_outside_helper(tree) == []
    assert _helper_callers(tree) == ["cmd_train", "cmd_sweep"]


def test_train_and_sweep_hand_the_helper_only_parsed_flags():
    assert _helper_keywords_not_flags(_parse(PACKAGE / "cli.py")) == []


def test_the_scan_finds_a_planted_helper_keyword(tmp_path):
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    keyword = "ratio_grid=args.ratios,"
    assert keyword in source
    cli = tmp_path / "cli.py"
    cli.write_text(source.replace(keyword, "ratio_grid=args.ratios or ((1, 1),),"), encoding="utf-8")
    assert _helper_keywords_not_flags(_parse(cli)) == ["cmd_sweep: ratio_grid"]


def test_fit_reads_every_setting_from_its_config():
    assert _fit_settings(_parse(PACKAGE / "harness.py")) == []


def test_the_scan_finds_a_planted_settings_path(tmp_path):
    cli = tmp_path / "cli.py"
    planted = "\n\ndef _th(args):\n    return RecursiveConfig(th_percent=args.th)\n"
    cli.write_text((PACKAGE / "cli.py").read_text(encoding="utf-8") + planted, encoding="utf-8")
    assert _built_outside_helper(_parse(cli)) == ["_th: RecursiveConfig"]
    source = (PACKAGE / "harness.py").read_text(encoding="utf-8")
    signature = "config: SweepConfig, seed: int"
    assert signature in source
    harness = tmp_path / "harness.py"
    harness.write_text(source.replace(signature, f"{signature}, smoothing: float = 1.0"), encoding="utf-8")
    assert _fit_settings(_parse(harness)) == ["smoothing"]
