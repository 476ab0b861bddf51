"""README's code: the ``Library use`` block runs as written."""
import re
from pathlib import Path

from synthdata import make_text_corpus, write_corpus_tree

README = Path(__file__).parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    # the block reads data/news and writes model.json, both under tmp_path
    write_corpus_tree(make_text_corpus(n_classes=3, docs_per_class=20, seed=3), tmp_path / "data" / "news")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_use_block(), "README.md", "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    report = dict(line.split("\t") for line in lines if line)
    assert 0.0 <= float(report["accuracy"]) <= 1.0
    assert namespace["model"].n_clusters >= 3 and (tmp_path / "model.json").exists()
