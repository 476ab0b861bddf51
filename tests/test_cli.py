import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from textrkm import harness
from textrkm.cli import load_bundle, main, save_bundle
from textrkm.corpus import TokenizerConfig, load_directory_corpus, read_split_manifest
from textrkm.errors import DataError, InvariantError

from synthdata import make_text_corpus, mutate_lines, write_corpus_tree


@pytest.fixture()
def corpus_tree(tmp_path):
    corpus = make_text_corpus(n_classes=3, docs_per_class=12, doc_len=25, seed=21)
    tree = tmp_path / "corpus"
    write_corpus_tree(corpus, tree)
    return corpus, tree


def test_train_classify_eval_round_trip(tmp_path, corpus_tree, capsys):
    corpus, tree = corpus_tree
    model_path = tmp_path / "model.json"
    rc = main(
        [
            "train",
            "--corpus", str(tree),
            "--labeled-frac", "0.3",
            "--seed", "1",
            "--model-out", str(model_path),
        ]
    )
    assert rc == 0
    model, weights, tokenizer = load_bundle(model_path)
    assert model.n_classes == 3
    assert weights.n_classes == 3

    preds_path = tmp_path / "preds.tsv"
    rc = main(["classify", "--model", str(model_path), "--input", str(tree), "--out", str(preds_path)])
    assert rc == 0
    lines = preds_path.read_text().strip().splitlines()
    assert len(lines) == corpus.n_docs
    for line in lines:
        doc_id, cname, distance = line.split("\t")
        assert cname in corpus.class_names
        assert float(distance) >= 0.0

    truth_path = tmp_path / "truth.tsv"
    truth_path.write_text(
        "\n".join(
            f"{d.doc_id}\t{corpus.class_names[lab]}"
            for d, lab in zip(corpus.documents, corpus.labels)
        )
        + "\n"
    )
    capsys.readouterr()  # drain train/classify status lines
    rc = main(["eval", "--predictions", str(preds_path), "--truth", str(truth_path)])
    assert rc == 0
    out = capsys.readouterr().out
    report = dict(line.split("\t") for line in out.strip().splitlines())
    assert 0.0 <= float(report["accuracy"]) <= 1.0
    assert report["micro_f"] == report["accuracy"]


def test_classify_single_file_input(tmp_path, corpus_tree):
    corpus, tree = corpus_tree
    model_path = tmp_path / "model.json"
    assert main(
        [
            "train",
            "--corpus", str(tree),
            "--labeled-frac", "0.3",
            "--model-out", str(model_path),
        ]
    ) == 0
    single = tmp_path / "single.txt"
    single.write_text(" ".join(corpus.documents[0].tokens))
    out_path = tmp_path / "one.tsv"
    assert main(["classify", "--model", str(model_path), "--input", str(single), "--out", str(out_path)]) == 0
    line = out_path.read_text().strip()
    assert line.split("\t")[0] == "single.txt"


def test_classify_reads_top_level_files_beside_a_subfolder(tmp_path, corpus_tree):
    # a flat directory with one stray subfolder: its top-level files count too
    corpus, tree = corpus_tree
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--corpus", str(tree), "--labeled-frac", "0.3", "--model-out", str(model_path),
    ]) == 0
    flat = tmp_path / "unseen"
    (flat / ".ipynb_checkpoints").mkdir(parents=True)
    for i in range(5):
        (flat / f"doc{i}.txt").write_text(" ".join(corpus.documents[i].tokens))
    (flat / ".ipynb_checkpoints" / "doc0-checkpoint.txt").write_text(
        " ".join(corpus.documents[0].tokens)
    )
    out_path = tmp_path / "preds.tsv"
    assert main(["classify", "--model", str(model_path), "--input", str(flat), "--out", str(out_path)]) == 0
    ids = [line.split("\t")[0] for line in out_path.read_text().splitlines()]
    assert sorted(ids) == sorted(
        [f"doc{i}.txt" for i in range(5)] + [".ipynb_checkpoints/doc0-checkpoint.txt"]
    )


def test_classify_warns_about_entries_that_are_not_regular_files(tmp_path, corpus_tree, capsys):
    corpus, tree = corpus_tree
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--corpus", str(tree), "--labeled-frac", "0.3", "--model-out", str(model_path),
    ]) == 0
    flat = tmp_path / "unseen"
    flat.mkdir()
    (flat / "doc.txt").write_text(" ".join(corpus.documents[0].tokens))
    (flat / "gone").symlink_to(flat / "missing.txt")
    odd = ["gone"]
    if hasattr(os, "mkfifo"):
        os.mkfifo(flat / "pipe")  # opening it for reading would block until a writer comes
        odd.append("pipe")
    capsys.readouterr()
    out_path = tmp_path / "preds.tsv"
    codes = []
    worker = threading.Thread(
        target=lambda: codes.append(main([
            "classify", "--model", str(model_path), "--input", str(flat), "--out", str(out_path),
        ])),
        daemon=True,
    )
    worker.start()
    worker.join(5)
    assert not worker.is_alive(), "classify blocked on the named pipe"
    assert codes == [0]
    assert [line.split("\t")[0] for line in out_path.read_text().splitlines()] == ["doc.txt"]
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning")]
    assert warnings == [f"warning: skipping unreadable file {flat / name}" for name in odd]


# names an output line cannot carry: not UTF-8 (read back as a lone
# surrogate), a tab (the TSV separator) and a line break
BAD_NAMES = [
    pytest.param("bad\udcff.txt", id="not-utf8"),
    pytest.param("a\tb.txt", id="tab"),
    pytest.param("a\nb.txt", id="newline"),
]
# a name that would begin an output line and be read back as a comment; in a
# class directory a file's doc id begins with the class name, so only
# classify inputs and class directories can be so named
COMMENT_NAME = pytest.param("#beta", id="hash")


def _make_or_skip(make, path):
    try:
        make(path)
    except (OSError, UnicodeEncodeError):
        pytest.skip(f"the file system refuses the name {path.name!r}")


def _skip_warnings(err):
    return [line for line in err.splitlines() if line.startswith("warning")]


@pytest.mark.parametrize("name", BAD_NAMES)
def test_sweep_skips_a_badly_named_file(tmp_path, corpus_tree, capsys, name):
    corpus, tree = corpus_tree
    text = " ".join(corpus.documents[0].tokens)
    path = tree / corpus.class_names[0] / name
    _make_or_skip(lambda p: p.write_text(text), path)
    out_dir = tmp_path / "sweep"
    assert main([
        "sweep", "--corpus", str(tree), "--trials", "1", "--ratios", "5:45", "--out", str(out_dir),
    ]) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert _skip_warnings(err) == [f"warning: skipping badly named file {str(path)!r}"]
    assert load_directory_corpus(tree).skipped == ((f"{corpus.class_names[0]}/{name}", "badly named"),)
    (manifest,) = (out_dir / "manifests").iterdir()
    config = harness.SweepConfig.from_dict(json.loads((out_dir / "sweep_config.json").read_text()))
    assert sorted(doc_id for doc_id, _, _ in read_split_manifest(manifest)[1]) == sorted(corpus.doc_ids)
    replayed = harness.replay_trial(tree, manifest, config)
    assert replayed.error is None and replayed.report is not None


@pytest.mark.parametrize("name", BAD_NAMES)
def test_train_warns_for_each_skipped_file(tmp_path, corpus_tree, capsys, name):
    corpus, tree = corpus_tree
    class_dir = tree / corpus.class_names[0]
    _make_or_skip(lambda p: p.write_text(" ".join(corpus.documents[0].tokens)), class_dir / name)
    (class_dir / "punct.txt").write_text("!!! ,,, ...")
    (class_dir / "gone").symlink_to(class_dir / "missing.txt")
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--corpus", str(tree), "--labeled-frac", "0.3", "--model-out", str(model_path),
    ]) == 0
    assert _skip_warnings(capsys.readouterr().err) == [  # in file name order
        f"warning: skipping badly named file {str(class_dir / name)!r}",
        f"warning: skipping unreadable file {class_dir / 'gone'}",
        f"warning: skipping empty document {corpus.class_names[0]}/punct.txt",
    ]
    assert load_bundle(model_path)[0].n_training_points == corpus.n_docs


@pytest.mark.parametrize("name", BAD_NAMES + [COMMENT_NAME])
def test_classify_skips_a_badly_named_file(tmp_path, corpus_tree, capsys, name):
    corpus, tree = corpus_tree
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--corpus", str(tree), "--labeled-frac", "0.3", "--model-out", str(model_path),
    ]) == 0
    flat = tmp_path / "unseen"
    flat.mkdir()
    (flat / "doc.txt").write_text(" ".join(corpus.documents[0].tokens))
    _make_or_skip(lambda p: p.write_text(" ".join(corpus.documents[1].tokens)), flat / name)
    capsys.readouterr()
    out_path = tmp_path / "preds.tsv"
    assert main(["classify", "--model", str(model_path), "--input", str(flat), "--out", str(out_path)]) == 0
    rows = [line.split("\t") for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert [row[0] for row in rows] == ["doc.txt"] and len(rows[0]) == 3
    warnings = _skip_warnings(capsys.readouterr().err)
    assert warnings == [f"warning: skipping badly named file {str(flat / name)!r}"]


@pytest.mark.parametrize("name", BAD_NAMES + [COMMENT_NAME])
def test_badly_named_class_directory_exits_two(tmp_path, corpus_tree, capsys, name):
    corpus, tree = corpus_tree
    _make_or_skip(lambda p: p.mkdir(), tree / name)
    (tree / name / "doc.txt").write_text(" ".join(corpus.documents[0].tokens))
    for argv in (
        ["train", "--corpus", str(tree), "--labeled-frac", "0.3", "--model-out", str(tmp_path / "m.json")],
        ["sweep", "--corpus", str(tree), "--trials", "1", "--ratios", "5:45", "--out", str(tmp_path / "s")],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("data error: class directory name")


def test_sweep_writes_result_files(tmp_path, corpus_tree):
    _, tree = corpus_tree
    out_dir = tmp_path / "sweep"
    rc = main(
        [
            "sweep",
            "--corpus", str(tree),
            "--trials", "2",
            "--base-seed", "3",
            "--ratios", "5:45,10:40",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    assert (out_dir / "per_trial.csv").exists()
    assert (out_dir / "aggregate.csv").exists()
    assert (out_dir / "sweep_config.json").exists()
    manifests = list((out_dir / "manifests").iterdir())
    assert len(manifests) == 4
    text = (out_dir / "sweep_config.json").read_text()
    config = json.loads(text)
    assert config["ratio_grid"] == [[5, 45], [10, 40]]
    assert json.dumps(harness.SweepConfig.from_dict(config).to_dict(), indent=2) == text


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["train", "--corpus", "x"]) == 1  # missing required flags
    capsys.readouterr()


@pytest.mark.parametrize("ratios", ["1-49", "1:49,a:b"])
def test_sweep_malformed_ratios_exit_one(tmp_path, corpus_tree, capsys, ratios):
    _, tree = corpus_tree
    rc = main(["sweep", "--corpus", str(tree), "--ratios", ratios, "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --ratios")
    assert "Traceback" not in err


def test_data_errors_exit_two(tmp_path):
    rc = main(
        [
            "train",
            "--corpus", str(tmp_path / "missing"),
            "--labeled-frac", "0.2",
            "--model-out", str(tmp_path / "m.json"),
        ]
    )
    assert rc == 2
    bad_bundle = tmp_path / "bad.json"
    bad_bundle.write_text("{}")
    rc = main(["classify", "--model", str(bad_bundle), "--input", str(tmp_path), "--out", str(tmp_path / "p.tsv")])
    assert rc == 2


@pytest.mark.parametrize("fraction", ["0", "1.5"])
def test_sweep_test_fraction_outside_zero_one_exits_two(tmp_path, corpus_tree, capsys, fraction):
    _, tree = corpus_tree
    out = tmp_path / "out"
    assert main([
        "sweep", "--corpus", str(tree), "--test-fraction", fraction, "--trials", "1", "--out", str(out),
    ]) == 2
    assert capsys.readouterr().err == f"data error: test_fraction must be in (0,1), got {float(fraction)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_negative_smoothing_exits_two(tmp_path, corpus_tree, capsys, command):
    _, tree = corpus_tree
    out = tmp_path / "out"
    if command == "train":
        rest = ["--labeled-frac", "0.3", "--model-out", str(out)]
    else:  # refused before any trial runs
        rest = ["--ratios", "5:45", "--trials", "1", "--out", str(out)]
    assert main([command, "--corpus", str(tree), "--smoothing", "-1", *rest]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: smoothing must be >= 0") and "Traceback" not in err
    assert not out.exists()


def test_eval_rejects_unknown_predicted_class(tmp_path):
    (tmp_path / "preds.tsv").write_text("doc1\tmystery\t0.5\n")
    (tmp_path / "truth.tsv").write_text("doc1\tknown\n")
    rc = main(
        ["eval", "--predictions", str(tmp_path / "preds.tsv"), "--truth", str(tmp_path / "truth.tsv")]
    )
    assert rc == 2


def write_label_tsv(path, pairs):
    path.write_text("".join(f"{doc_id}\t{name}\n" for doc_id, name in pairs))
    return str(path)


def test_eval_rejects_predictions_missing_truth_docs(tmp_path, capsys):
    truth = [(f"doc{i}", "a" if i % 2 else "b") for i in range(5)]
    rc = main([
        "eval",
        "--predictions", write_label_tsv(tmp_path / "preds.tsv", truth[:2]),
        "--truth", write_label_tsv(tmp_path / "truth.tsv", truth),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert "accuracy" not in captured.out
    assert "3 of 5" in captured.err


def test_eval_names_the_first_unknown_prediction_id(tmp_path, capsys):
    preds = [("real", "a"), ("ghost-b", "b"), ("a", "a"), ("ghost-a", "a")]
    rc = main([
        "eval",
        "--predictions", write_label_tsv(tmp_path / "preds.tsv", preds),
        "--truth", write_label_tsv(tmp_path / "truth.tsv", [("real", "a"), ("a", "b")]),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "data error: prediction for unknown doc id 'ghost-b'\n"
    assert captured.out == ""


@pytest.mark.parametrize("side", ["predictions", "truth"])
def test_eval_rejects_duplicate_doc_ids(tmp_path, capsys, side):
    truth = [("doc0", "a"), ("doc1", "b")]
    files = {"predictions": truth, "truth": truth}
    files[side] = truth + [("doc1", "a")]
    rc = main([
        "eval",
        "--predictions", write_label_tsv(tmp_path / "preds.tsv", files["predictions"]),
        "--truth", write_label_tsv(tmp_path / "truth.tsv", files["truth"]),
    ])
    assert rc == 2
    assert "doc1" in capsys.readouterr().err


@pytest.fixture()
def trained_bundle(tmp_path, corpus_tree):
    _, tree = corpus_tree
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--corpus", str(tree), "--labeled-frac", "0.3", "--model-out", str(model_path),
    ]) == 0
    return json.loads(model_path.read_text()), tree


def _drop(d, key):
    return {k: v for k, v in d.items() if k != key}


def _with_centroid_value(b, value):
    # json.dumps writes NaN / Infinity tokens, and json.loads accepts them
    first = b["model"]["clusters"][0]
    clusters = [{**first, "centroid": [value] * len(first["centroid"])}] + b["model"]["clusters"][1:]
    return {**b, "model": {**b["model"], "clusters": clusters}}


V1_BUNDLE = Path(__file__).parent / "data" / "bundle_v1.json"
V2_BUNDLE = Path(__file__).parent / "data" / "bundle_v2.json"


def _as_version_two(b, **weights):
    # the model part of versions 2 and 3 is the same; the v2 fixture's weight
    # table has the same class names as every three-class synthetic corpus
    stored = json.loads(V2_BUNDLE.read_text())["weights"]
    return {**b, "version": 2, "weights": {**stored, **weights}}


def _edit_first_class(b, key, edit):
    entries = b["weights"]["counts"]
    first = {**entries[0], key: edit(entries[0][key])}
    return {**b, "weights": {**b["weights"], "counts": [first] + entries[1:]}}


BROKEN_BUNDLES = {
    "format only": lambda b: {"format": "textrkm-bundle"},
    "not an object": lambda b: [b],
    "model without clusters": lambda b: {**b, "model": _drop(b["model"], "clusters")},
    "model stats not an object": lambda b: {**b, "model": {**b["model"], "stats": [1]}},
    "label out of range": lambda b: {**b, "model": {
        **b["model"], "clusters": [{**b["model"]["clusters"][0], "label": 99}] + b["model"]["clusters"][1:]
    }},
    "weights without terms": lambda b: {**b, "weights": _drop(b["weights"], "terms")},
    "weights wrong size": lambda b: _as_version_two(b, weights=[[0.5]]),
    "oov weight wrong length": lambda b: _as_version_two(b, oov_weight=[0.5]),
    "oov weight above one": lambda b: _as_version_two(b, oov_weight=[1.5, 0.1, 0.1]),
    "count negative": lambda b: _edit_first_class(b, "counts", lambda n: [-1] + n[1:]),
    "count zero": lambda b: _edit_first_class(b, "counts", lambda n: [0] + n[1:]),
    "count fractional": lambda b: _edit_first_class(b, "counts", lambda n: [1.5] + n[1:]),
    "count a string": lambda b: _edit_first_class(b, "counts", lambda n: ["1"] + n[1:]),
    "count a boolean": lambda b: _edit_first_class(b, "counts", lambda n: [True] + n[1:]),
    "count reaches 2**53": lambda b: _edit_first_class(b, "counts", lambda n: [2**53] + n[1:]),
    "count overflows int64": lambda b: _edit_first_class(b, "counts", lambda n: [2**64] + n[1:]),
    "counts shorter than term ids": lambda b: _edit_first_class(b, "counts", lambda n: n[:-1]),
    "term id out of range": lambda b: _edit_first_class(
        b, "term_ids", lambda t: t[:-1] + [len(b["weights"]["terms"])]
    ),
    "term id negative": lambda b: _edit_first_class(b, "term_ids", lambda t: [-1] + t[1:]),
    "term ids duplicated": lambda b: _edit_first_class(b, "term_ids", lambda t: t[:1] + t[:-1]),
    "term ids unsorted": lambda b: _edit_first_class(b, "term_ids", lambda t: t[::-1]),
    "a class without counts": lambda b: _edit_first_class(
        _edit_first_class(b, "term_ids", lambda t: []), "counts", lambda n: []
    ),
    "counts of a class missing": lambda b: {**b, "weights": {
        **b["weights"], "counts": b["weights"]["counts"][:-1]
    }},
    "counts of an extra class": lambda b: {**b, "weights": {
        **b["weights"], "counts": b["weights"]["counts"] * 2
    }},
    "tokenizer without pattern": lambda b: {**b, "tokenizer": _drop(b["tokenizer"], "strip_pattern")},
    "NaN centroid": lambda b: _with_centroid_value(b, float("nan")),
    "infinite centroid": lambda b: _with_centroid_value(b, float("inf")),
    "strip pattern does not compile": lambda b: {
        **b, "tokenizer": {**b["tokenizer"], "strip_pattern": "("}
    },
    "strip pattern other than the fixed one": lambda b: {
        **b, "tokenizer": {**b["tokenizer"], "strip_pattern": "[^a-z]+"}
    },
    "member index overflows": lambda b: {**b, "model": {
        **b["model"], "clusters": [{**b["model"]["clusters"][0], "member_indices": [10**30]}]
        + b["model"]["clusters"][1:]
    }},
    "unknown version": lambda b: {**b, "version": 99},
    "member indices not a partition": lambda b: {**b, "model": {
        **b["model"], "clusters": [{**c, "member_indices": [0]} for c in b["model"]["clusters"]]
    }},
    "labeled mask too short": lambda b: {**b, "model": {
        **b["model"], "labeled": b["model"]["labeled"][1:]
    }},
    "unknown distance": lambda b: {**b, "model": {**b["model"], "distance": "manhattan"}},
}


@pytest.mark.parametrize("case", sorted(BROKEN_BUNDLES))
def test_classify_malformed_bundle_exits_two(tmp_path, capsys, trained_bundle, case):
    bundle, tree = trained_bundle
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BROKEN_BUNDLES[case](bundle)))
    capsys.readouterr()
    rc = main(["classify", "--model", str(bad), "--input", str(tree), "--out", str(tmp_path / "p.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "Traceback" not in err


def test_classify_non_utf8_bundle_exits_two(tmp_path, capsys, trained_bundle):
    _, tree = trained_bundle
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe not utf-8")
    capsys.readouterr()
    rc = main(["classify", "--model", str(bad), "--input", str(tree), "--out", str(tmp_path / "p.tsv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("data error: cannot read model bundle")


@pytest.mark.parametrize(
    "content",
    [b'{"format": ', b"\xff\xfe not utf-8", None],
    ids=["bad json", "not utf-8", "missing"],
)
def test_load_bundle_rejects_unreadable_file(tmp_path, content):
    path = tmp_path / "model.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(DataError, match="cannot read model bundle"):
        load_bundle(path)


def fixture_corpus():
    """The corpus tests/data/bundle_v1.json and bundle_v2.json were trained on,
    by the version-1 and version-2 writers, with ``--labeled-frac 0.4``."""
    return make_text_corpus(
        n_classes=3, docs_per_class=20, doc_len=6, class_words=10, shared_words=40,
        signal=0.2, seed=5,
    )


def test_version_one_bundle_loads_to_the_model_train_writes_today(tmp_path, capsys):
    tree = tmp_path / "corpus"
    write_corpus_tree(fixture_corpus(), tree)
    v3 = tmp_path / "model.json"
    assert main(["train", "--corpus", str(tree), "--labeled-frac", "0.4", "--model-out", str(v3)]) == 0
    assert json.loads(v3.read_text())["version"] == 3
    new, new_w, _ = load_bundle(v3)
    for bundle in (V1_BUNDLE, V2_BUNDLE):
        old, old_w, _ = load_bundle(bundle)
        assert old.training_doc_ids == new.training_doc_ids
        assert np.array_equal(old.labeled, new.labeled)
        assert old.training_label_assignments == new.training_label_assignments
        assert np.array_equal(old.centroids, new.centroids)
        assert np.array_equal(old.labels, new.labels)
        assert old.stats == new.stats
        assert old_w.vocabulary == new_w.vocabulary
        assert old_w.class_names == new_w.class_names
        assert old_w.smoothing == new_w.smoothing
        assert np.array_equal(old_w.weights.view(np.int64), new_w.weights.view(np.int64))
        assert np.array_equal(old_w.oov_weight.view(np.int64), new_w.oov_weight.view(np.int64))
        with pytest.raises(DataError, match="no counts"):  # only version 3 is written
            save_bundle(tmp_path / "rewritten.json", old, old_w, TokenizerConfig())
    assert load_bundle(V1_BUNDLE)[0].training_label_assignments == json.loads(
        V1_BUNDLE.read_text()
    )["model"]["training_label_assignments"]
    outputs = []
    for bundle in (V1_BUNDLE, V2_BUNDLE, v3):
        out = tmp_path / f"{bundle.stem}.tsv"
        assert main(["classify", "--model", str(bundle), "--input", str(tree), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    capsys.readouterr()


def test_version_two_bundle_with_huge_weights_exits_two(tmp_path, capsys):
    corpus = fixture_corpus()
    tree = tmp_path / "corpus"
    write_corpus_tree(corpus, tree)
    terms = json.loads(V2_BUNDLE.read_text())["weights"]["terms"]
    # a stored term twice in one document, whose weights add up to inf, and
    # common0, at most once per document: a finite embedding whose
    # euclidean distances overflow
    repeated = next(
        t for doc in corpus.documents for t in doc.tokens if t in terms and doc.tokens.count(t) > 1
    )
    assert max(doc.tokens.count("common0") for doc in corpus.documents) == 1
    for term in (repeated, "common0"):
        bundle = json.loads(V2_BUNDLE.read_text())
        bundle["weights"]["weights"][terms.index(term)] = [1e308] * corpus.n_classes
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bundle))
        capsys.readouterr()
        rc = main(["classify", "--model", str(bad), "--input", str(tree), "--out", str(tmp_path / "p.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: weights must lie in [0, 1]")
        assert "Traceback" not in err


def test_version_one_bundle_with_inconsistent_labels_exits_two(tmp_path, capsys, corpus_tree):
    _, tree = corpus_tree
    bundle = json.loads(V1_BUNDLE.read_text())
    assigned = bundle["model"]["training_label_assignments"]
    doc_id = sorted(assigned)[0]
    assigned[doc_id] = (assigned[doc_id] + 1) % 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bundle))
    rc = main(["classify", "--model", str(bad), "--input", str(tree), "--out", str(tmp_path / "p.tsv")])
    assert rc == 2
    assert "disagree" in capsys.readouterr().err


def _draw_path(node, data) -> tuple:
    """A position in a JSON tree, drawn one level at a time (None stops),
    so that a schema key is as likely as a single centroid coordinate."""
    path = ()
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from([None, *keys]))
        if key is None:
            break
        path += (key,)
        node = node[key]
    return path


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _mutated_bundle_bytes(bundle: dict, data) -> bytes:
    kind = data.draw(st.sampled_from(["drop a key", "replace a value", "truncate"]))
    if kind == "truncate":
        raw = json.dumps(bundle).encode()
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    bundle = json.loads(json.dumps(bundle))  # a fresh copy to edit
    path = _draw_path(bundle, data)
    if kind == "drop a key":
        # the deepest non-empty object on the path; the bundle itself is one
        target = next(
            node for node in (_at(bundle, path[:i]) for i in range(len(path), -1, -1))
            if isinstance(node, dict) and node
        )
        del target[data.draw(st.sampled_from(sorted(target)))]
    else:
        value = data.draw(st.sampled_from([None, "", -1, 1e308, 10**30, [], {}]))
        if not path:
            return json.dumps(value).encode()
        _at(bundle, path[:-1])[path[-1]] = value
    return json.dumps(bundle).encode()


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small_bundle")
    corpus = make_text_corpus(n_classes=3, docs_per_class=6, doc_len=10, seed=4)
    tree = tmp / "corpus"
    write_corpus_tree(corpus, tree)
    path = tmp / "model.json"
    assert main(["train", "--corpus", str(tree), "--labeled-frac", "0.5", "--model-out", str(path)]) == 0
    return json.loads(path.read_text()), tree, tmp


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_classify_mutated_bundle_exits_zero_or_two(small_bundle, capsys, data):
    bundle, tree, tmp = small_bundle
    bad = tmp / "mutated.json"
    bad.write_bytes(_mutated_bundle_bytes(bundle, data))
    capsys.readouterr()
    rc = main(["classify", "--model", str(bad), "--input", str(tree), "--out", str(tmp / "p.tsv")])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    assert "Traceback" not in err
    if rc == 2:  # after any "skipping empty document" warnings
        assert err.splitlines()[-1].startswith("data error:")


def test_eval_non_utf8_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"doc0\ta\xff\n")
    rc = main(["eval", "--predictions", str(bad), "--truth", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "Traceback" not in err


def test_train_non_utf8_stopwords_exits_two(tmp_path, capsys, corpus_tree):
    _, tree = corpus_tree
    bad = tmp_path / "stop.txt"
    bad.write_bytes(b"the\n\xff\n")
    rc = main([
        "train", "--corpus", str(tree), "--labeled-frac", "0.3",
        "--stopwords", str(bad), "--model-out", str(tmp_path / "m.json"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("data error:")


def test_sweep_exits_three_on_invariant_error(tmp_path, corpus_tree, monkeypatch, capsys):
    def broken_build_model(*args, **kwargs):
        raise InvariantError("partition lost a point")

    monkeypatch.setattr(harness, "build_model", broken_build_model)
    _, tree = corpus_tree
    rc = main([
        "sweep", "--corpus", str(tree), "--trials", "1", "--ratios", "10:40",
        "--out", str(tmp_path / "sweep"),
    ])
    assert rc == 3
    assert "partition lost a point" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


TSV_VALUES = ["", " ", "#", "x", "a", "b", "doc0", "doc1", "doc9", "a\tb", "0.5", "\xe9"]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_eval_mutated_tsv_exits_zero_or_two(tmp_path, capsys, data):
    truth = [(f"doc{i}", "ab"[i % 2]) for i in range(4)]
    texts = {
        "predictions": "".join(f"{d}\t{c}\t0.5\n" for d, c in truth),
        "truth": "".join(f"{d}\t{c}\n" for d, c in truth),
    }
    paths = {name: tmp_path / f"{name}.tsv" for name in texts}
    for name, text in texts.items():
        paths[name].write_bytes(text.encode())
    side = data.draw(st.sampled_from(sorted(texts)))
    paths[side].write_bytes(mutate_lines(texts[side], data, TSV_VALUES)[0])
    capsys.readouterr()
    rc = main(["eval", "--predictions", str(paths["predictions"]), "--truth", str(paths["truth"])])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    assert "Traceback" not in err
    if rc == 2:
        assert err.startswith("data error:")
    else:  # only a complete predictions file is scored
        ids = [_listed_ids(paths[name]) for name in ("predictions", "truth")]
        assert ids[0] == ids[1] == sorted(set(ids[1]))


def _listed_ids(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return sorted(line.split("\t")[0] for line in lines if line.strip() and line[0] != "#")
