import hashlib
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textrkm import harness
from textrkm.corpus import Corpus, Document, read_split_manifest, split_train_test
from textrkm.errors import DataError, InvariantError
from textrkm.harness import (
    SWEEP_METRICS,
    SweepConfig,
    aggregate_rows,
    default_ratio_grid,
    emit_results,
    manifest_filename,
    ratio_str,
    replay_trial,
    run_sweep,
    run_trial,
)

from synthdata import make_text_corpus, mutate_lines, write_corpus_tree


def split_corpus(corpus, seed=0):
    return split_train_test(corpus, test_fraction=0.5, rng_seed=seed)


def noisy_corpus(seed=13):
    return make_text_corpus(
        n_classes=4,
        docs_per_class=50,
        doc_len=12,
        class_words=10,
        shared_words=40,
        signal=0.45,
        seed=seed,
    )


def test_default_ratio_grid_spans_one_to_twenty_of_fifty():
    grid = default_ratio_grid()
    assert len(grid) == 20
    assert grid[0] == (1, 49)
    assert grid[-1] == (20, 30)
    assert all(a + b == 50 for a, b in grid)


def test_sweep_config_validation():
    with pytest.raises(DataError):
        SweepConfig(trials_per_ratio=0)
    with pytest.raises(DataError):
        SweepConfig(ratio_grid=((1, 49), (2, 50)))
    with pytest.raises(DataError):
        SweepConfig(ratio_grid=())


def test_run_trial_deterministic():
    corpus = make_text_corpus(n_classes=3, docs_per_class=20, seed=1)
    train, test = split_corpus(corpus)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=1)
    r1 = run_trial(train, test, (10, 40), 5, cfg)
    r2 = run_trial(train, test, (10, 40), 5, cfg)
    assert r1.report.to_flat() == r2.report.to_flat()
    assert r1.labeled_doc_ids == r2.labeled_doc_ids


def test_more_labels_do_not_hurt_on_average():
    corpus = noisy_corpus()
    train, test = split_corpus(corpus)
    cfg = SweepConfig(ratio_grid=((1, 49), (20, 30)), trials_per_ratio=1)
    lo = [run_trial(train, test, (1, 49), s, cfg).metrics["accuracy"] for s in range(20)]
    hi = [run_trial(train, test, (20, 30), s, cfg).metrics["accuracy"] for s in range(20)]
    assert np.mean(hi) >= np.mean(lo)


def test_trivial_corpus_duplicated_docs_scores_one():
    # every document of a class is identical, so test docs duplicate labeled docs
    docs, labels = [], []
    for c, word in enumerate(["aardvark", "bobcat", "caribou"]):
        for i in range(10):
            docs.append(Document(f"c{c}/d{i}", (word, word, word)))
            labels.append(c)
    corpus = Corpus.from_documents(documents=docs, labels=labels, class_names=("c0", "c1", "c2"))
    train, test = split_corpus(corpus)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=1)
    result = run_trial(train, test, (10, 40), 0, cfg)
    assert result.metrics["accuracy"] == 1.0


def test_transductive_flag_includes_test_pool():
    corpus = make_text_corpus(n_classes=3, docs_per_class=16, seed=2)
    train, test = split_corpus(corpus)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=1, transductive=True)
    result = run_trial(train, test, (10, 40), 3, cfg, keep_model=True)
    # test docs participate unlabeled: they appear in the training label map
    assigned = set(result.model.training_label_assignments)
    assert {d.doc_id for d in test.documents} <= assigned


def test_sweep_row_counts_and_zero_std_single_trial():
    corpus = make_text_corpus(n_classes=3, docs_per_class=16, seed=3)
    grid = default_ratio_grid()
    cfg = SweepConfig(ratio_grid=grid, trials_per_ratio=1, base_seed=4)
    table = run_sweep(corpus, cfg)
    assert len(table.rows) == len(grid) * len(SWEEP_METRICS) == 100
    assert all(row.std == 0.0 for row in table.rows)
    assert all(row.n_trials == 1 for row in table.rows)
    assert all(row.vmin <= row.mean <= row.vmax for row in table.rows)


def test_sweep_deterministic_for_fixed_seed():
    corpus = make_text_corpus(n_classes=3, docs_per_class=12, seed=5)
    cfg = SweepConfig(ratio_grid=((5, 45), (10, 40)), trials_per_ratio=2, base_seed=6)
    t1 = run_sweep(corpus, cfg)
    t2 = run_sweep(corpus, cfg)
    assert t1.rows == t2.rows
    assert [r.metrics for r in t1.records] == [r.metrics for r in t2.records]


def test_no_leakage_hidden_truth_never_reaches_learner(tmp_path):
    # one manifest, replayed on a corpus whose masked training documents
    # carry other labels, must learn and score exactly the same
    corpus = make_text_corpus(n_classes=3, docs_per_class=14, seed=7)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=1)
    paths = emit_results(run_sweep(corpus, cfg), tmp_path / "out")
    (manifest,) = paths["manifests"].iterdir()
    entries = read_split_manifest(manifest)[1]
    masked = {doc_id for doc_id, side, flag in entries if side == "train" and not flag}
    assert 0 < len(masked) < len(entries) // 2
    permuted = Corpus(
        corpus.doc_ids,
        [(lab + 1) % corpus.n_classes if d in masked else lab for d, lab in zip(corpus.doc_ids, corpus.labels)],
        corpus.class_names,
        corpus.encoding,
    )
    r1 = replay_trial(corpus, manifest, cfg, keep_model=True)
    r2 = replay_trial(permuted, manifest, cfg, keep_model=True)
    assert np.array_equal(r1.model.centroids, r2.model.centroids)
    assert np.array_equal(r1.model.labels, r2.model.labels)
    assert r1.report.to_flat() == r2.report.to_flat()


def test_emit_results_files_and_round_trips(tmp_path):
    corpus = make_text_corpus(n_classes=3, docs_per_class=12, seed=9)
    cfg = SweepConfig(ratio_grid=((5, 45), (10, 40)), trials_per_ratio=3, base_seed=1)
    table = run_sweep(corpus, cfg)
    paths = emit_results(table, tmp_path / "out")

    per_trial_lines = paths["per_trial"].read_text().strip().splitlines()
    assert per_trial_lines[0] == "ratio,trial,metric,value"
    assert len(per_trial_lines) == 1 + 2 * 3 * len(SWEEP_METRICS)
    for line in per_trial_lines[1:]:
        value = line.rsplit(",", 1)[1]
        assert np.isfinite(float(value))

    aggregate_lines = paths["aggregate"].read_text().splitlines()
    assert aggregate_lines[0] == "ratio,metric,max,min,mean,std"
    parsed = [line.split(",") for line in aggregate_lines[1:]]
    assert [(ratio, metric) for ratio, metric, *_ in parsed] == [
        (ratio_str(r.ratio), r.metric) for r in table.rows
    ]
    for (_, _, *values), want in zip(parsed, table.rows):  # repr floats parse back exactly
        assert [float(v) for v in values] == [want.vmax, want.vmin, want.mean, want.std]

    manifests = sorted(p.name for p in paths["manifests"].iterdir())
    assert len(manifests) == 6
    assert paths["config"].exists()


def test_aggregates_recomputable_from_per_trial_values(tmp_path):
    corpus = make_text_corpus(n_classes=3, docs_per_class=12, seed=10)
    cfg = SweepConfig(ratio_grid=((5, 45),), trials_per_ratio=4, base_seed=2)
    table = run_sweep(corpus, cfg)
    paths = emit_results(table, tmp_path / "out")
    values: dict[str, list[float]] = {m: [] for m in SWEEP_METRICS}
    for line in paths["per_trial"].read_text().strip().splitlines()[1:]:
        _, _, metric, value = line.split(",")
        values[metric].append(float(value))
    for row in table.rows:
        arr = np.array(values[row.metric])
        assert row.vmax == arr.max()
        assert row.vmin == arr.min()
        assert row.mean == arr.mean()
        assert row.std == arr.std()


def test_replay_reproduces_trial_bitwise(tmp_path):
    corpus = make_text_corpus(n_classes=3, docs_per_class=14, seed=11)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=2, base_seed=3)
    table = run_sweep(corpus, cfg)
    paths = emit_results(table, tmp_path / "out")
    for rec in table.records:
        manifest = paths["manifests"] / manifest_filename(rec.ratio, rec.trial)
        replayed = replay_trial(corpus, manifest, cfg)
        assert replayed.metrics == rec.metrics
        assert replayed.seed == rec.seed


def test_failed_trials_recorded_not_dropped():
    corpus = make_text_corpus(n_classes=3, docs_per_class=10, seed=12)
    # a fixed oversized pool: fine at 1:49, impossible at 20:30
    cfg = SweepConfig(
        ratio_grid=((1, 49), (20, 30)), trials_per_ratio=1, unlabeled_pool_size=11
    )
    table = run_sweep(corpus, cfg)
    by_ratio = {rec.ratio: rec for rec in table.records}
    assert by_ratio[(1, 49)].error is None
    assert by_ratio[(20, 30)].error is not None
    failed_rows = [r for r in table.rows if r.ratio == (20, 30)]
    assert all(r.n_trials == 0 and np.isnan(r.mean) for r in failed_rows)


def test_s2_shaped_euclidean_sweep_outputs_are_pinned(tmp_path):
    # byte-identity of the whole pipeline: only a deliberate change of the
    # clustering's draws or arithmetic may move these values
    corpus = make_text_corpus(
        n_classes=20, docs_per_class=60, doc_len=8, class_words=10, shared_words=40,
        signal=0.2, seed=13,
    )
    table = run_sweep(corpus, SweepConfig(ratio_grid=((20, 30), (5, 45)), trials_per_ratio=2))
    paths = emit_results(table, tmp_path)
    assert [rec.n_clusters for rec in table.records] == [174, 174, 48, 37]
    assert {
        k: hashlib.sha256(paths[k].read_bytes()).hexdigest() for k in ("per_trial", "aggregate")
    } == {
        "per_trial": "9811095bb951573c6803a1a9892cfa64b7787a81c64ec5db1ed52ce2b6d0935c",
        "aggregate": "53fce4d5a614c8dfbf04b9d13c679c17bfc9415b7179158962963492d373598b",
    }


def test_s2_shaped_transductive_sweep_from_disk_is_pinned(tmp_path):
    # the directory route and the encodings carried through subsets,
    # concat_corpora and make_training_collection; values from the
    # token-string pipeline that preceded the encoding
    corpus = make_text_corpus(
        n_classes=20, docs_per_class=100, doc_len=8, class_words=10, shared_words=40,
        signal=0.2, seed=13,
    )
    write_corpus_tree(corpus, tmp_path / "tree")
    config = SweepConfig(
        ratio_grid=((20, 30), (5, 45)), trials_per_ratio=2, transductive=True,
        unlabeled_pool_size=1500,
    )
    table = run_sweep(tmp_path / "tree", config)
    paths = emit_results(table, tmp_path / "out")
    assert [rec.n_clusters for rec in table.records] == [332, 333, 80, 74]
    assert {
        k: hashlib.sha256(paths[k].read_bytes()).hexdigest() for k in ("per_trial", "aggregate")
    } == {
        "per_trial": "ba7a3d6caac8f5391aad0a593c63bdff298c124cbc978f288dea8ce3d6b1bb13",
        "aggregate": "970d486cf81958e9de52c0828f7744f6eef28c300b19f6311acedc6d94f8eac2",
    }


def _emitted_files(corpus, config) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as out:
        emit_results(run_sweep(corpus, config), out)
        return {str(p.relative_to(out)): p.read_bytes() for p in Path(out).rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def ordered_sweep():
    corpus = make_text_corpus(
        n_classes=3, docs_per_class=12, doc_len=8, class_words=10, shared_words=30, signal=0.4,
        seed=6,
    )
    config = SweepConfig(ratio_grid=((10, 40), (20, 30)), trials_per_ratio=2, base_seed=1)
    return corpus, config, _emitted_files(corpus, config)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sweep_outputs_do_not_depend_on_corpus_order(ordered_sweep, data):
    corpus, config, files = ordered_sweep
    order = data.draw(st.permutations(range(corpus.n_docs)))
    assert _emitted_files(corpus.subset(order), config) == files


def test_invariant_error_propagates_out_of_sweep(monkeypatch):
    def broken_build_model(*args, **kwargs):
        raise InvariantError("partition lost a point")

    monkeypatch.setattr(harness, "build_model", broken_build_model)
    corpus = make_text_corpus(n_classes=3, docs_per_class=10, seed=12)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=2)
    with pytest.raises(InvariantError, match="partition lost a point"):
        run_sweep(corpus, cfg)


def test_sweep_config_dict_round_trip():
    cfg = SweepConfig(
        ratio_grid=((3, 47), (6, 44)),
        trials_per_ratio=5,
        base_seed=9,
        smoothing=0.5,
        unlabeled_pool_size=17,
        transductive=True,
    )
    back = SweepConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_sweep_config_from_dict_reads_the_retired_policy_key():
    cfg = SweepConfig(ratio_grid=((3, 47),), trials_per_ratio=2)
    d = cfg.to_dict()
    assert "empty_cluster_policy" not in d
    assert SweepConfig.from_dict({**d, "empty_cluster_policy": "reseed_farthest"}) == cfg
    with pytest.raises(DataError, match="unknown empty_cluster_policy 'drop'"):
        SweepConfig.from_dict({**d, "empty_cluster_policy": "drop"})


def test_sweep_config_from_dict_rejects_missing_field():
    with pytest.raises(DataError, match="KeyError: 'trials_per_ratio'"):
        SweepConfig.from_dict({"ratio_grid": [[1, 49]]})


@pytest.mark.parametrize(
    "header, bad", [("# ratio", "# ratio 10-40"), ("# seed", "# seed three")]
)
def test_replay_rejects_malformed_header(tmp_path, header, bad):
    corpus = make_text_corpus(n_classes=3, docs_per_class=6, seed=11)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=1)
    paths = emit_results(run_sweep(corpus, cfg), tmp_path / "out")
    manifest = paths["manifests"] / manifest_filename((10, 40), 0)
    lines = manifest.read_text().splitlines()
    lines = [bad if line.startswith(header + " ") else line for line in lines]
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{manifest}: header '{bad}'")):
        replay_trial(corpus, manifest, cfg)


MANIFEST_VALUES = ["", "train", "test", "0", "1", "2", "-1", "x", "10:40", "0:0", "3", "9" * 30]


@pytest.fixture(scope="module")
def emitted_manifest(tmp_path_factory):
    corpus = make_text_corpus(n_classes=3, docs_per_class=8, doc_len=10, seed=11)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=1)
    paths = emit_results(run_sweep(corpus, cfg), tmp_path_factory.mktemp("replay") / "out")
    manifest = paths["manifests"] / manifest_filename((10, 40), 0)
    return corpus, cfg, manifest.read_text(encoding="utf-8"), manifest.parent


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_replay_mutated_manifest_raises_only_data_error(emitted_manifest, data):
    corpus, cfg, text, tmp = emitted_manifest
    values = MANIFEST_VALUES + [d.doc_id for d in corpus.documents[:3]]
    raw, repeated = mutate_lines(text, data, values)
    manifest = tmp / "mutated.tsv"
    manifest.write_bytes(raw)
    try:
        replay_trial(corpus, manifest, cfg)
    except DataError:
        return
    # a manifest that lists a document twice is never replayed
    assert repeated is None or repeated.startswith("#")
