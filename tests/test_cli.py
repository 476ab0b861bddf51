import errno
import json
import os
import resource
import tempfile
import threading
import tracemalloc
from itertools import compress
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import reference
from textrkm import cli, harness
from textrkm import corpus as corpus_module
from textrkm.cli import load_bundle, main, save_bundle
from textrkm.corpus import (
    TokenizerConfig, load_directory_corpus, mask_labels, read_split_manifest, scan_directory,
)
from textrkm.errors import DataError, InvariantError
from textrkm.rkmeans import RecursiveConfig, pool_labels, training_partition

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
    std = capsys.readouterr()
    assert _skip_warnings(std.err) == [  # in file name order
        f"warning: skipping badly named file {str(class_dir / name)!r}",
        f"warning: skipping unreadable file {class_dir / 'gone'}",
        f"warning: skipping empty document {corpus.class_names[0]}/punct.txt",
    ]
    assert std.out.startswith(f"trained on {corpus.n_docs} docs ")


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


# a sign, an underscore, an inner space and Arabic-Indic digits, which int() reads
@pytest.mark.parametrize("ratios", ["1-49", "1:49,a:b", "+5:45", "1_0:40", "10: 40", "\u0661\u0660:\u0664\u0660"])
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
def test_sweep_test_fraction_outside_zero_one_exits_two(
    tmp_path, corpus_tree, capsys, monkeypatch, fraction
):
    _, tree = corpus_tree
    out = tmp_path / "out"

    def no_load(*args, **kwargs):
        raise AssertionError("the corpus was read before the fraction was checked")

    monkeypatch.setattr(cli, "load_directory_corpus", no_load)
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
# written by the version-3 writer, the last to store the training partition
V3_BUNDLE = Path(__file__).parent / "data" / "bundle_v3.json"
V3_COSINE_BUNDLE = Path(__file__).parent / "data" / "bundle_v3_cosine.json"


def _as_version_two(b, **weights):
    # the version-2 fixture with its weight table edited
    stored = json.loads(V2_BUNDLE.read_text())
    return {**stored, "weights": {**stored["weights"], **weights}}


def _v3(edit):
    """A case made from the version-3 fixture rather than the bundle given:
    only versions 1-3 store a training partition to break."""
    return lambda b: edit(json.loads(V3_BUNDLE.read_text()))


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
    "member index overflows": _v3(lambda b: {**b, "model": {
        **b["model"], "clusters": [{**b["model"]["clusters"][0], "member_indices": [10**30]}]
        + b["model"]["clusters"][1:]
    }}),
    "unknown version": lambda b: {**b, "version": 99},
    "member indices not a partition": _v3(lambda b: {**b, "model": {
        **b["model"], "clusters": [{**c, "member_indices": [0]} for c in b["model"]["clusters"]]
    }}),
    "labeled mask too short": _v3(lambda b: {**b, "model": {
        **b["model"], "labeled": b["model"]["labeled"][1:]
    }}),
    "unknown distance": lambda b: {**b, "model": {**b["model"], "distance": "manhattan"}},
    "label a float": lambda b: _with_first_cluster(b, label=1.7),
    "label a boolean": lambda b: _with_first_cluster(b, label=True),
    "depth a float": lambda b: _with_first_cluster(b, depth=1.0),
    "centroid of another dimension": lambda b: _with_first_cluster(b, centroid=[0.5]),
    "smoothing a numeric string": lambda b: {**b, "weights": {**b["weights"], "smoothing": "1"}},
    "smoothing infinite": lambda b: {**b, "weights": {**b["weights"], "smoothing": float("inf")}},
    "smoothing past float64": lambda b: {**b, "weights": {**b["weights"], "smoothing": 10**400}},
    "centroid past float64": lambda b: _with_first_cluster(b, centroid=[10**400] * 3),
    "label past int64": lambda b: _with_first_cluster(b, label=10**30),
    "run stat a string": lambda b: {**b, "model": {
        **b["model"], "stats": {**b["model"]["stats"], "kmeans_runs": "many"}
    }},
    "fallback count a float": lambda b: {**b, "model": {
        **b["model"], "stats": {**b["model"]["stats"], "fallback_counts": {"fallback_size": 1.5}}
    }},
    "stopwords a string": lambda b: {**b, "tokenizer": {**b["tokenizer"], "stopwords": "abc"}},
    "stopwords unsorted": lambda b: {**b, "tokenizer": {**b["tokenizer"], "stopwords": ["b", "a"]}},
    "min token length a boolean": lambda b: {**b, "tokenizer": {**b["tokenizer"], "min_token_len": True}},
    "labeled flag a boolean": _v3(lambda b: {**b, "model": {
        **b["model"], "labeled": [True] + b["model"]["labeled"][1:]
    }}),
    "training doc id a number": _v3(lambda b: {**b, "model": {
        **b["model"], "training_doc_ids": [0] + b["model"]["training_doc_ids"][1:]
    }}),
    "weight class names reversed": lambda b: {**b, "weights": {
        **b["weights"], "class_names": b["weights"]["class_names"][::-1]
    }},
    "class names repeated": lambda b: {
        **b,
        "weights": {**b["weights"], "class_names": ["a", "a", "b"]},
        "model": {**b["model"], "class_names": ["a", "a", "b"]},
    },
    "version a boolean": lambda b: {**b, "version": True},
    "version a float": lambda b: {**b, "version": 3.0},
    "acceptance reason unknown": lambda b: _with_first_cluster(b, acceptance="banana"),
    "depth negative": lambda b: _with_first_cluster(b, depth=-7),
    "member positions decreasing": _v3(lambda b: _with_first_cluster(
        b, member_indices=b["model"]["clusters"][0]["member_indices"][::-1]
    )),
    "member positions listed twice": _v3(lambda b: _with_first_cluster(
        # the first cluster drops its first member and takes one of the second's
        b, member_indices=sorted(b["model"]["clusters"][0]["member_indices"][1:]
                                 + b["model"]["clusters"][1]["member_indices"][:1])
    )),
    "version 3 without its partition": lambda b: {**b, "version": 3},
    "run stats distance other than the model's": lambda b: _with_stats(b, distance="cosine"),
    "run stats max depth off the clusters'": lambda b: _with_stats(b, max_depth_reached=1),
    "run stats recursion calls not runs - 1": lambda b: _with_stats(b, recursion_calls=1),
    "run stats k-means runs fewer than the levels reached": lambda b: _with_stats(
        b, kmeans_runs=0, recursion_calls=-1
    ),
    "run stats fallback counts off the clusters'": lambda b: _with_stats(
        b, fallback_counts={"fallback_size": 1}
    ),
    "run stats orphan count off the clusters'": lambda b: _with_stats(b, orphan_count=1),
}


def _with_first_cluster(b, **fields):
    clusters = b["model"]["clusters"]
    return {**b, "model": {**b["model"], "clusters": [{**clusters[0], **fields}] + clusters[1:]}}


def _with_stats(b, **fields):
    return {**b, "model": {**b["model"], "stats": {**b["model"]["stats"], **fields}}}


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


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"format": "textrkm-bundle", "version": ' + "9" * 5000 + "}",
], ids=["nested too deep", "integer past the int-string limit"])
def test_classify_unparseable_bundle_exits_two(tmp_path, capsys, trained_bundle, text):
    _, tree = trained_bundle
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    capsys.readouterr()
    rc = main(["classify", "--model", str(bad), "--input", str(tree), "--out", str(tmp_path / "p.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot read model bundle") and err.count("\n") == 1


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
    v4, pool = tmp_path / "model.json", tmp_path / "pool.tsv"
    assert main(["train", "--corpus", str(tree), "--labeled-frac", "0.4", "--model-out", str(v4),
                 "--pool-labels-out", str(pool)]) == 0
    assert json.loads(v4.read_text())["version"] == 4
    new, new_w, _ = load_bundle(v4)
    for bundle in (V1_BUNDLE, V2_BUNDLE, V3_BUNDLE):
        old, old_w, old_tokenizer = load_bundle(bundle)
        assert old.cluster_of is None  # the stored partition is checked, then dropped
        assert np.array_equal(old.centroids, new.centroids)
        assert np.array_equal(old.labels, new.labels)
        assert old.acceptance == new.acceptance
        assert np.array_equal(old.depths, new.depths)
        assert old.stats == new.stats
        assert old_w.vocabulary == new_w.vocabulary
        assert old_w.class_names == new_w.class_names
        assert old_w.smoothing == new_w.smoothing
        assert np.array_equal(old_w.weights.view(np.int64), new_w.weights.view(np.int64))
        assert np.array_equal(old_w.oov_weight.view(np.int64), new_w.oov_weight.view(np.int64))
        rewritten = tmp_path / "rewritten.json"
        if bundle == V3_BUNDLE:  # the counts are kept: it re-saves to what train writes
            save_bundle(rewritten, old, old_w, old_tokenizer)
            assert rewritten.read_bytes() == v4.read_bytes()
        else:
            with pytest.raises(DataError, match="no counts"):  # versions 1 and 2 stored none
                save_bundle(rewritten, old, old_w, old_tokenizer)
    # the labels the stored partitions give the unlabeled docs, in training
    # order, are the pool labels train writes
    names = new.class_names
    written = [tuple(line.split("\t")) for line in pool.read_text().splitlines()]
    v1_stored = json.loads(V1_BUNDLE.read_text())["model"]["training_label_assignments"]
    assert dict(written) == {doc_id: names[c] for doc_id, c in v1_stored.items()}
    doc_ids, labeled, cluster_of = training_partition(json.loads(V3_BUNDLE.read_text())["model"])
    assert written == [
        (doc_id, names[c]) for doc_id, c in pool_labels(new.labels, cluster_of, doc_ids, labeled).items()
    ]
    outputs = []
    for bundle in (V1_BUNDLE, V2_BUNDLE, V3_BUNDLE, v4):
        out = tmp_path / f"{bundle.stem}.tsv"
        assert main(["classify", "--model", str(bundle), "--input", str(tree), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
    capsys.readouterr()


@pytest.mark.parametrize("bundle", [V3_BUNDLE, V3_COSINE_BUNDLE], ids=["euclidean", "cosine"])
def test_a_version_three_bundle_and_its_version_four_re_save_classify_alike(tmp_path, capsys, bundle):
    tree = tmp_path / "corpus"
    write_corpus_tree(fixture_corpus(), tree)
    v4 = tmp_path / "v4.json"
    save_bundle(v4, *load_bundle(bundle))
    saved = json.loads(v4.read_text())
    assert saved["version"] == 4
    assert saved["model"].keys() == {"class_names", "distance", "clusters", "stats"}
    assert {key for c in saved["model"]["clusters"] for key in c} == {"label", "centroid", "acceptance", "depth"}
    outputs = []
    for path in (bundle, v4):
        out = tmp_path / f"{path.stem}.tsv"
        assert main(["classify", "--model", str(path), "--input", str(tree), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == fixture_corpus().n_docs
    capsys.readouterr()


def test_pool_labels_list_the_pool_and_score_as_the_model_labels_it(tmp_path, corpus_tree, capsys):
    _, tree = corpus_tree
    bundle, pool = tmp_path / "model.json", tmp_path / "pool.tsv"
    assert main(["train", "--corpus", str(tree), "--labeled-frac", "0.3", "--seed", "2",
                 "--model-out", str(bundle), "--pool-labels-out", str(pool)]) == 0
    assert capsys.readouterr().out.endswith(f"pool labels written to {pool}\n")
    corpus = load_directory_corpus(tree)
    d_labeled, d_unlabeled = mask_labels(corpus, 0.3, 2)
    _, model, training = harness.fit(d_labeled, d_unlabeled, 1.0, RecursiveConfig(), 2)
    assert np.array_equal(load_bundle(bundle)[0].centroids, model.centroids)  # the model train saved
    rows = [line.split("\t") for line in pool.read_text(encoding="utf-8").splitlines()]
    ids = [doc_id for doc_id, _ in rows]
    # every unlabeled training doc once, in training order, and no labeled doc
    unlabeled = training.labels < 0
    assert ids == list(compress(training.doc_ids, unlabeled.tolist()))
    assert sorted(ids) == sorted(d_unlabeled.doc_ids)
    assert not set(ids) & set(d_labeled.doc_ids)
    # scored against the masked truth, the file is as accurate as the labels
    # of the clusters holding the pool's points
    truth_of = dict(zip(corpus.doc_ids, corpus.labels.tolist()))
    truth = tmp_path / "truth.tsv"
    truth.write_text("".join(f"{d}\t{corpus.class_names[truth_of[d]]}\n" for d in d_unlabeled.doc_ids))
    expected = np.mean(model.labels[model.cluster_of[unlabeled]] == [truth_of[d] for d in ids])
    assert main(["eval", "--predictions", str(pool), "--truth", str(truth)]) == 0
    report = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
    assert report["accuracy"] == f"{expected:.6f}"


def test_train_writes_pool_labels_only_when_asked(tmp_path, corpus_tree):
    _, tree = corpus_tree
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", "--corpus", str(tree), "--labeled-frac", "0.3",
                 "--model-out", str(out / "model.json")]) == 0
    assert os.listdir(out) == ["model.json"]


@pytest.mark.parametrize("existing", [None, b"an earlier result\n"])
def test_failed_pool_label_write_leaves_the_file_as_it_was(tmp_path, corpus_tree, capsys, monkeypatch, existing):
    _, tree = corpus_tree
    out = tmp_path / "out"
    out.mkdir()
    pool = out / "pool.tsv"
    if existing is not None:
        pool.write_bytes(existing)

    class FailingLabels(dict):
        def items(self):
            yield next(iter(super().items()))
            raise DataError("injected while writing pool labels")

    monkeypatch.setattr(cli, "pool_labels", lambda *args: FailingLabels(pool_labels(*args)))
    capsys.readouterr()
    assert main(["train", "--corpus", str(tree), "--labeled-frac", "0.3",
                 "--model-out", str(out / "model.json"), "--pool-labels-out", str(pool)]) == 2
    assert capsys.readouterr().err == "data error: injected while writing pool labels\n"
    assert sorted(os.listdir(out)) == ["model.json"] + ([] if existing is None else ["pool.tsv"])
    if existing is not None:
        assert pool.read_bytes() == existing


def test_failed_bundle_write_leaves_the_old_bundle(tmp_path, corpus_tree, capsys):
    # a file size limit stands for a full disk: the write fails part-way
    _, tree = corpus_tree
    out = tmp_path / "out"
    out.mkdir()
    bundle = out / "model.json"
    train = ["train", "--corpus", str(tree), "--labeled-frac", "0.3", "--model-out", str(bundle)]
    assert main(train) == 0
    old = bundle.read_bytes()
    limits = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (len(old) // 2, limits[1]))
    try:
        capsys.readouterr()
        assert main(train + ["--seed", "1"]) == 2
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limits)
    assert capsys.readouterr().err.startswith(f"data error: [Errno {errno.EFBIG}] ")
    assert os.listdir(out) == ["model.json"] and bundle.read_bytes() == old


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


def _draw_path(node, data, to_leaf=False) -> tuple:
    """A position in a JSON tree, drawn one level at a time (None stops,
    unless ``to_leaf``), so that a schema key is as likely as a single
    centroid coordinate."""
    path = ()
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(list(keys) if to_leaf else [None, *keys]))
        if key is None:
            break
        path += (key,)
        node = node[key]
    return path


def _at(node, path):
    for key in path:
        node = node[key]
    return node


# drawn in place of a value: every JSON type, bools and numeric strings,
# floats, ints past int64 and float64, and (as raw text, which ``json.dumps``
# cannot write) nesting past the parser's limit and an integer past the
# int-string limit
MUTANT_VALUES = [
    None, "", "1", "1.5", "true", "abc", "cosine", "pure", -1, 0, 1, 2, 10**30, 10**400,
    -0.5, 0.0, 1.0, 1.7, 1e308, float("nan"), float("inf"), True, False,
    [], [1], [0.5, 0.5, 0.5], ["a"], ["b", "a"], [[1.0]], {}, {"a": 1},
]
RAW_VALUES = {"@nested@": "[" * 100_000 + "]" * 100_000, "@huge@": "9" * 5000, "@deep@": "[" * 50 + "]" * 50}


def _mutated_bundle_bytes(bundle: dict, data) -> bytes:
    kind = data.draw(st.sampled_from([
        "drop a key", "replace a value", "replace a leaf", "replace a leaf by one of its type",
        "swap two siblings", "replace with raw text", "truncate",
    ]))
    if kind == "truncate":
        raw = json.dumps(bundle).encode()
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    bundle = json.loads(json.dumps(bundle))  # a fresh copy to edit
    path = _draw_path(bundle, data, to_leaf="leaf" in kind)
    if kind == "drop a key":
        # the deepest non-empty object on the path; the bundle itself is one
        target = next(
            node for node in (_at(bundle, path[:i]) for i in range(len(path), -1, -1))
            if isinstance(node, dict) and node
        )
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif kind == "swap two siblings":
        # two values of the deepest container on the path with two or more
        target = next(
            (node for node in (_at(bundle, path[:i]) for i in range(len(path), -1, -1))
             if isinstance(node, (dict, list)) and len(node) > 1),
            None,
        )
        if target is not None:
            keys = sorted(target) if isinstance(target, dict) else range(len(target))
            a, b = data.draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2, unique=True))
            target[a], target[b] = target[b], target[a]
    else:
        values = MUTANT_VALUES
        if kind == "replace with raw text":
            values = sorted(RAW_VALUES)
        elif kind.endswith("its type"):  # an int may stand for a float
            old = type(_at(bundle, path))
            values = [v for v in values if type(v) is old or (old, type(v)) == (float, int)] or values
        value = data.draw(st.sampled_from(values))
        if not path:
            bundle = value
        else:
            _at(bundle, path[:-1])[path[-1]] = value
    text = json.dumps(bundle)
    for mark, raw in RAW_VALUES.items():
        text = text.replace(json.dumps(mark), raw)
    return text.encode()


def _as_parsed(a, b) -> bool:
    """Whether JSON value ``b`` is ``a``, except that an int may come back as
    the float nearest to it: a bool is neither, and NaN is NaN."""
    if type(a) is dict:
        return type(b) is dict and a.keys() == b.keys() and all(_as_parsed(a[k], b[k]) for k in a)
    if type(a) is list:
        return type(b) is list and len(a) == len(b) and all(map(_as_parsed, a, b))
    if type(a) is float and a != a:
        return type(b) is float and b != b
    if (type(a), type(b)) == (int, float):
        return float(a) == b
    return type(a) is type(b) and a == b


def test_as_parsed_tells_bools_from_ints_and_allows_int_to_float():
    assert _as_parsed({"a": [1, 2.5, float("nan")]}, {"a": [1.0, 2.5, float("nan")]})
    assert _as_parsed(10**30, 1e30)
    assert not _as_parsed([1], [True])
    assert not _as_parsed([True], [1])
    assert not _as_parsed([1.0], [1])
    assert not _as_parsed({"a": 1}, {"a": 1, "b": 2})
    assert not _as_parsed(["1"], [1])


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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_accepted_bundle_re_saves_to_its_input(small_bundle, data):
    # the reader coerces nothing: whatever it accepts, the writer gives back
    bundle, _, tmp = small_bundle
    raw = _mutated_bundle_bytes(bundle, data)
    path = tmp / "accepted.json"
    path.write_bytes(raw)
    try:
        loaded = load_bundle(path)
    except DataError:
        event("rejected")
        return
    event("accepted")
    save_bundle(path, *loaded)
    assert _as_parsed(json.loads(raw), json.loads(path.read_text()))


def _leaf_paths(node, path=()):
    """Every path to a scalar or an empty container in a JSON tree."""
    if isinstance(node, (dict, list)) and node:
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield from _leaf_paths(node[key], path + (key,))
    else:
        yield path


def test_every_field_given_every_value_is_rejected_or_re_saved_as_given(small_bundle):
    # the property above, exhaustively: one leaf per schema position (the
    # first cluster's label stands for every label) times every mutant value
    bundle, _, tmp = small_bundle
    leaves = {}
    for path in _leaf_paths(bundle):
        leaves.setdefault(tuple("*" if type(key) is int else key for key in path), path)
    edited_path = tmp / "edited.json"
    for path in leaves.values():
        for value in MUTANT_VALUES:
            edited = json.loads(json.dumps(bundle))
            _at(edited, path[:-1])[path[-1]] = value
            edited_path.write_text(json.dumps(edited))
            try:
                loaded = load_bundle(edited_path)
            except DataError:
                continue
            save_bundle(edited_path, *loaded)
            assert _as_parsed(edited, json.loads(edited_path.read_text())), (path, value)


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


def test_main_runs_again_after_any_call(tiny_tree, tmp_path, capsys):
    """The parser is built once per process and serves every later call:
    each command in turn, then a usage error or a help request, each
    followed by a valid call."""
    tree, bundle, _ = tiny_tree
    preds = tmp_path / "p.tsv"
    valid = {
        "train": ["train", "--corpus", str(tree), "--labeled-frac", "0.5", "--model-out", str(tmp_path / "m.json")],
        "classify": ["classify", "--model", str(bundle), "--input", str(tree), "--out", str(preds)],
        "eval": ["eval", "--predictions", str(preds), "--truth", str(preds)],
        "sweep": ["sweep", "--corpus", str(tree), "--ratios", "5:45", "--trials", "1", "--out", str(tmp_path / "s")],
    }
    for argv in valid.values():
        assert main(argv) == 0, argv
    assert cli.build_parser() is cli.build_parser()
    for argv, rc in [(["classify", "--model"], 1), ([], 1), (["--help"], 0), (["sweep", "--help"], 0)]:
        assert main(argv) == rc, argv
        assert main(valid["classify"]) == 0
    capsys.readouterr()


# what an option is given: negative, zero, not a number, infinite or huge
ARGV_VALUES = ["-1", "0", "-0.5", "nan", "inf", "-inf", "1e400", "1e30", str(10**30)]


@pytest.fixture(scope="module")
def tiny_tree(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny_tree")
    tree = tmp / "corpus"
    write_corpus_tree(make_text_corpus(n_classes=3, docs_per_class=4, doc_len=8, seed=6), tree)
    bundle = tmp / "model.json"
    assert main(["train", "--corpus", str(tree), "--labeled-frac", "0.5", "--model-out", str(bundle)]) == 0
    return tree, bundle, tmp


def _drawn_options(data, options: dict[str, list[str]]) -> list[str]:
    """Up to two of ``options``, each with one of its values; the rest keep
    the values given before them, or their defaults."""
    argv = []
    for option in data.draw(st.lists(st.sampled_from(sorted(options)), max_size=2, unique=True)):
        argv += [option, data.draw(st.sampled_from(options[option]), label=option)]
    return argv


def _assert_exits_cleanly(argv, capsys):
    capsys.readouterr()
    rc = main(argv)
    event(f"exit {rc}")
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), err
    assert "Traceback" not in err
    if rc:
        assert err.splitlines()[-1].startswith(("error:", "data error:")), err


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_train_options_exit_cleanly(tiny_tree, capsys, data):
    tree, _, tmp = tiny_tree
    argv = ["train", "--corpus", str(tree), "--labeled-frac", "0.5", "--model-out", str(tmp / "m.json")]
    options = ["--labeled-frac", "--seed", "--th", "--smoothing", "--min-token-len", "--pool-size"]
    _assert_exits_cleanly(argv + _drawn_options(data, dict.fromkeys(options, ARGV_VALUES)), capsys)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_classify_paths_exit_cleanly(tiny_tree, capsys, data):
    # names like the option values above, as missing files or earlier outputs
    tree, bundle, tmp = tiny_tree
    names = [tmp / v for v in ARGV_VALUES]
    paths = {  # the valid path first
        "--model": [bundle, tree, *names],
        "--input": [tree, bundle, *names],
        "--out": [tmp / "p.tsv", tree, *names],
    }
    broken = data.draw(st.lists(st.sampled_from(sorted(paths)), max_size=2, unique=True))
    argv = ["classify"]
    for option, (valid, *others) in paths.items():
        argv += [option, str(data.draw(st.sampled_from(others)) if option in broken else valid)]
    _assert_exits_cleanly(argv, capsys)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sweep_options_exit_cleanly(tiny_tree, capsys, data):
    tree, _, tmp = tiny_tree
    argv = ["sweep", "--corpus", str(tree), "--ratios", "5:45", "--trials", "1", "--out", str(tmp / "s")]
    if data.draw(st.booleans()):
        argv.append("--transductive")
    options = {
        "--ratios": ["0:50", "-1:51", "5:45,10:50", "nan:inf", "1e30:1", f"1:{10**30}"],
        "--trials": ["-1", "0", "nan", "inf", "1e400"],  # never huge: each trial runs
        **dict.fromkeys(
            ["--base-seed", "--test-fraction", "--smoothing", "--th", "--pool-size", "--min-token-len"],
            ARGV_VALUES,
        ),
    }
    _assert_exits_cleanly(argv + _drawn_options(data, options), capsys)


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


# ---------------------------------------------------------------------------
# classify streams its input one reader batch at a time
# ---------------------------------------------------------------------------

# appended to the classify bundles' vocabulary: a stopword of some of their
# tokenizers, one-letter terms, the reader's batch separator, and terms no
# file can hold (outside ASCII, upper case)
EXTRA_TERMS = ["the", "q", "|", "ab", "\xe9t\xe9", "Up"]
OTHER_WORDS = ["zz", "qq9", "unseenword", "7", "x", "the", "ab", "q", "common1", "\xe9t\xe9"]


@pytest.fixture(scope="module")
def classify_bundles(tmp_path_factory):
    """A cosine and a euclidean bundle, each under three tokenizers, whose
    vocabulary lists ``EXTRA_TERMS`` with counts; and the vocabulary."""
    tmp = tmp_path_factory.mktemp("classify_bundles")
    tree = tmp / "corpus"
    write_corpus_tree(make_text_corpus(n_classes=3, docs_per_class=8, doc_len=12, seed=4), tree)
    bundles = []
    for distance in ("cosine", "euclidean"):
        trained = tmp / f"{distance}.json"
        assert main(["train", "--corpus", str(tree), "--labeled-frac", "0.5",
                     "--distance", distance, "--model-out", str(trained)]) == 0
        payload = json.loads(trained.read_text(encoding="utf-8"))
        weights = payload["weights"]
        n_terms = len(weights["terms"])
        weights["terms"] += EXTRA_TERMS
        weights["counts"][0]["term_ids"] += range(n_terms, n_terms + len(EXTRA_TERMS))
        weights["counts"][0]["counts"] += [3] * len(EXTRA_TERMS)
        for min_len, stopwords in [(2, []), (1, ["ab", "the"]), (3, ["common1"])]:
            payload["tokenizer"].update(min_token_len=min_len, stopwords=stopwords)
            path = tmp / f"{distance}-{min_len}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            bundles.append(path)
    return bundles, sorted(load_bundle(bundles[0])[1].vocabulary)


def _file_bytes(vocabulary):
    word = st.sampled_from(vocabulary) | st.sampled_from(OTHER_WORDS)
    cased = st.tuples(word, st.booleans()).map(lambda t: t[0].upper() if t[1] else t[0])
    separator = st.sampled_from([" ", "\n", ". ", ",", "|", "\xe9"])
    words = st.lists(st.tuples(cased, separator), max_size=60)
    return words.map(lambda ws: "".join(w + s for w, s in ws).encode("latin-1"))


# file kind -> its name at position i in the listing
FILE_NAMES = {
    "text": "f{:02d}", "empty": "f{:02d}", "dangling": "f{:02d}",
    "#": "#f{:02d}", "tab": "f\t{:02d}", "not-utf8": "f{:02d}\udcff",
}


def _write_input(root: Path, entries, layout: str) -> Path:
    """The input tree of ``(kind, text, folder)`` entries; the path to classify."""
    for i, (kind, text, folder) in enumerate(entries):
        directory = root / folder if layout == "subdirs" else root
        directory.mkdir(exist_ok=True)
        target = os.path.join(os.fsencode(directory), os.fsencode(FILE_NAMES[kind].format(i)))
        if kind == "dangling":
            os.symlink(os.fsencode(root / "missing"), target)
        else:
            with open(target, "wb") as f:
                f.write(b"" if kind == "empty" else text)
    # one file: the first whose name is UTF-8 (pytest's captured stderr,
    # unlike sys.stderr, cannot print a path that is not)
    names = [name for name in sorted(os.listdir(root)) if name.isprintable() or "\udcff" not in name]
    if layout == "file" and names:
        return root / names[0]
    return root


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_streamed_classify_equals_reading_the_whole_input(classify_bundles, capsys, data):
    """Exit code, standard output, warnings, the files left in ``--out``'s
    directory and the predictions file are byte for byte those of the
    reference that reads the whole input before it embeds any of it, under
    either metric. Budgets of a few dozen bytes cut an input into many
    batches and its longer files into pieces."""
    bundles, vocabulary = classify_bundles
    bundle = data.draw(st.sampled_from(bundles))
    budget = data.draw(st.sampled_from([corpus_module.READ_BATCH_BYTES, 16, 64, 256]))
    layout = data.draw(st.sampled_from(["flat", "subdirs", "file"]))
    out_dir = data.draw(st.sampled_from(["out", "in", "in/a"]))  # beside or among the inputs
    entry = st.tuples(
        st.sampled_from(["text"] * 4 + sorted(set(FILE_NAMES) - {"text"})),
        _file_bytes(vocabulary),
        st.sampled_from(["", "a", "b"]),
    )
    entries = data.draw(st.lists(entry, max_size=10))
    results = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(corpus_module, "READ_BATCH_BYTES", budget):
        (Path(tmp) / "in").mkdir()
        source = _write_input(Path(tmp) / "in", entries, layout)
        out = Path(tmp) / out_dir / "preds.tsv"
        out.parent.mkdir(parents=True, exist_ok=True)
        argv = ["classify", "--model", str(bundle), "--input", str(source), "--out", str(out)]
        for command in (cli.cmd_classify, reference.cmd_classify):
            capsys.readouterr()
            with mock.patch.object(cli, "cmd_classify", command):
                rc = main(argv)
            std = capsys.readouterr()
            written = out.read_text(encoding="utf-8") if out.exists() else ""
            results.append((rc, std.out, std.err, sorted(os.listdir(out.parent)), written))
            out.unlink(missing_ok=True)
    event(f"exit {results[0][0]}")
    streamed, whole = results
    assert streamed == whole


def _flat_input(directory: Path, texts) -> Path:
    directory.mkdir()
    for i, text in enumerate(texts):
        (directory / f"doc{i:05d}.txt").write_text(text)
    return directory


@pytest.mark.parametrize("existing", [None, b"an earlier result\n"])
@pytest.mark.parametrize("failure", ["every file empty", "after the first batch"])
def test_failed_classify_leaves_out_as_it_was(tmp_path, tiny_tree, capsys, monkeypatch, existing, failure):
    _, bundle, _ = tiny_tree
    words = " ".join(load_bundle(bundle)[1].vocabulary)
    texts = [""] * 3 if failure == "every file empty" else [words] * 6
    source = _flat_input(tmp_path / "in", texts)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "preds.tsv"
    if existing is not None:
        out.write_bytes(existing)
    calls = []

    def classify_batch_failing_after_one(*args, **kwargs):
        calls.append(len(args[0]))
        if len(calls) > 1:
            raise DataError("injected after the first batch")
        return classify_batch(*args, **kwargs)

    classify_batch = cli.classify_batch
    monkeypatch.setattr(cli, "classify_batch", classify_batch_failing_after_one)
    monkeypatch.setattr(corpus_module, "READ_BATCH_BYTES", 2 * len(words))
    capsys.readouterr()
    assert main(["classify", "--model", str(bundle), "--input", str(source), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if failure == "every file empty":
        assert err.endswith(f"data error: no usable documents under {source}\n") and not calls
    else:
        assert err == "data error: injected after the first batch\n" and calls == [2, 2]
    assert os.listdir(out_dir) == ([] if existing is None else ["preds.tsv"])
    if existing is not None:
        assert out.read_bytes() == existing


def test_classify_memory_grows_by_the_file_listing_only(tmp_path, tiny_tree, monkeypatch):
    """Past the files' sorted listing, a classify holds no state per file: with
    small batches, the traced peak grows per extra input file by at most a
    quarter more than the listing's own peak does. The inputs are large
    enough for the listing, not the bundle, to set both peaks."""
    _, bundle, _ = tiny_tree
    vocabulary = sorted(load_bundle(bundle)[1].vocabulary)
    rng = np.random.default_rng(0)
    monkeypatch.setattr(corpus_module, "READ_BATCH_BYTES", 2**12)
    n = 1000

    def traced_peak(function, *args) -> int:
        tracemalloc.start()
        try:
            function(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def classify(source):
        assert main(["classify", "--model", str(bundle), "--input", str(source),
                     "--out", str(tmp_path / "preds.tsv")]) == 0

    inputs = [
        _flat_input(tmp_path / str(size), [" ".join(rng.choice(vocabulary, 30)) for _ in range(size)])
        for size in (n, 4 * n)
    ]
    classify(inputs[0])  # imports, caches and buffers made once per process
    few, many = (traced_peak(classify, source) for source in inputs)
    listing_few, listing_many = (traced_peak(scan_directory, source) for source in inputs)
    per_file, listing_per_file = (many - few) / (3 * n), (listing_many - listing_few) / (3 * n)
    # about 250 bytes a file here, against about 590 when the whole input
    # was read, embedded and classified at once
    assert per_file <= 1.25 * listing_per_file, (per_file, listing_per_file)
