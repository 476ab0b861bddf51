import hashlib
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textrkm import harness
from textrkm.corpus import Corpus, Document, mask_from_flags, mask_labels, split_train_test
from textrkm.errors import DataError, InvariantError
from textrkm.harness import (
    DEFAULT_RATIO_GRID,
    SWEEP_METRICS,
    SweepConfig,
    SweepTable,
    aggregate_rows,
    emit_results,
    manifest_filename,
    ratio_str,
    read_split_manifest,
    replay_trial,
    run_sweep,
    run_trial,
    write_split_manifest,
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
    grid = DEFAULT_RATIO_GRID
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


@pytest.mark.parametrize("grid", [[[5, 45], [10, 40]], [(5, 45), (10, 40)], ([5, 45], (10, 40))])
def test_sweep_config_keeps_a_list_ratio_grid_as_tuples(grid, tmp_path):
    cfg = SweepConfig(ratio_grid=grid, trials_per_ratio=1)
    as_tuples = SweepConfig(ratio_grid=((5, 45), (10, 40)), trials_per_ratio=1)
    assert cfg.ratio_grid == ((5, 45), (10, 40)) and cfg == as_tuples
    assert hash(cfg) == hash(as_tuples)
    corpus = make_text_corpus(n_classes=3, docs_per_class=20, seed=1)
    table = run_sweep(corpus, cfg)
    assert [rec.ratio for rec in table.records] == [(5, 45), (10, 40)]
    assert all(rec.error is None for rec in table.records)


@pytest.mark.parametrize("grid", [
    [(np.int64(5), 45)], [[5, np.int32(45)]], np.array([[5, 45]]), [(True, 45)], (5, 45), "5:45",
])
def test_sweep_config_refuses_a_ratio_grid_of_other_python_types(grid):
    with pytest.raises(DataError, match=r"ratio_grid must be a tuple of \(int, int\) pairs"):
        SweepConfig(ratio_grid=grid)


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


def test_transductive_flag_includes_test_pool(monkeypatch):
    corpus = make_text_corpus(n_classes=3, docs_per_class=16, seed=2)
    train, test = split_corpus(corpus)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=1, transductive=True)
    seen = []

    def recording_fit(*args):
        weights, model, training = fit(*args)
        seen.append((model, dict(zip(training.doc_ids, training.labels.tolist()))))
        return weights, model, training

    fit = harness.fit
    monkeypatch.setattr(harness, "fit", recording_fit)
    run_trial(train, test, (10, 40), 3, cfg)
    # test docs participate unlabeled: each is a training point of the model
    ((model, training),) = seen
    assert model.cluster_of.shape == (len(training),)
    assert {d.doc_id: -1 for d in test.documents}.items() <= training.items()


def test_sweep_row_counts_and_zero_std_single_trial():
    corpus = make_text_corpus(n_classes=3, docs_per_class=16, seed=3)
    grid = DEFAULT_RATIO_GRID
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


def test_no_leakage_hidden_truth_never_reaches_learner(tmp_path, monkeypatch):
    # one manifest, replayed on a corpus whose masked training documents
    # carry other labels, must learn and score exactly the same
    corpus = make_text_corpus(n_classes=3, docs_per_class=14, seed=7)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=1)
    paths = emit_results(run_sweep(corpus, cfg), tmp_path / "out")
    (manifest,) = paths["manifests"].iterdir()
    _, train, _, labeled = read_split_manifest(manifest, corpus)
    masked = {train.doc_ids[i] for i in np.flatnonzero(~labeled)}
    assert 0 < len(masked) < corpus.n_docs // 2
    permuted = Corpus(
        corpus.doc_ids,
        np.array([(lab + 1) % corpus.n_classes if d in masked else lab
                  for d, lab in zip(corpus.doc_ids, corpus.labels.tolist())]),
        corpus.class_names,
        corpus.encoding,
    )
    models = []

    def recording_fit(*args):
        weights, model, training = fit(*args)
        models.append(model)
        return weights, model, training

    fit = harness.fit
    monkeypatch.setattr(harness, "fit", recording_fit)
    r1 = replay_trial(corpus, manifest, cfg)
    r2 = replay_trial(permuted, manifest, cfg)
    m1, m2 = models
    assert np.array_equal(m1.centroids, m2.centroids)
    assert np.array_equal(m1.labels, m2.labels)
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


def test_replay_returns_every_trial_of_its_sweep(tmp_path):
    # each manifest replays to its record: the metrics, the clusters, and
    # the ratio, seed and trial index that name it
    corpus = make_text_corpus(n_classes=3, docs_per_class=14, seed=11)
    cfg = SweepConfig(ratio_grid=((5, 45), (10, 40)), trials_per_ratio=3, base_seed=2)
    table = run_sweep(corpus, cfg)
    paths = emit_results(table, tmp_path / "out")
    fields = ("metrics", "n_clusters", "ratio", "seed", "trial")
    replayed = [
        replay_trial(corpus, paths["manifests"] / manifest_filename(rec.ratio, rec.trial), cfg)
        for rec in table.records
    ]
    assert [[getattr(r, f) for f in fields] for r in replayed] == [
        [getattr(r, f) for f in fields] for r in table.records
    ]
    assert sorted({r.trial for r in replayed}) == [0, 1, 2]


def s1_shaped_corpus():
    """S1's generator settings (150-token documents) at 4 classes of 30."""
    return make_text_corpus(n_classes=4, docs_per_class=30, doc_len=150, class_words=200,
                            shared_words=2000, signal=0.3, seed=1)


SWEEP_SETTINGS = [{}, {"transductive": True}, {"unlabeled_pool_size": 30}]


@pytest.mark.parametrize("settings", SWEEP_SETTINGS)
def test_every_trial_of_a_sweep_replays_to_its_record(tmp_path, settings):
    # a sweep embeds from the halves' stored layouts, a replay per call
    corpus = s1_shaped_corpus()
    cfg = SweepConfig(ratio_grid=((1, 49), (5, 45), (20, 30)), trials_per_ratio=2, **settings)
    table = run_sweep(corpus, cfg)
    paths = emit_results(table, tmp_path / "out")
    for rec in table.records:
        assert rec.error is None
        replayed = replay_trial(corpus, paths["manifests"] / manifest_filename(rec.ratio, rec.trial), cfg)
        assert (replayed.metrics, replayed.n_clusters) == (rec.metrics, rec.n_clusters)


@pytest.mark.parametrize("settings", SWEEP_SETTINGS)
def test_a_sweep_embeds_through_the_harness_name_twice_per_trial(monkeypatch, settings):
    """Tools that time the embedding rebind ``harness.embed_corpus``; every
    trial reaches it, for the training collection and the test half. The
    training collection reads the stored layout only when it is the whole
    training half, and only then is that half laid out."""
    calls, laid_out = [], []

    def recording(corpus, w, layout=None):
        calls.append(layout is not None)
        return embed_corpus(corpus, w, layout=layout)

    def counting(enc, n_classes):
        laid_out.append(enc)
        return token_layout(enc, n_classes)

    embed_corpus, token_layout = harness.embed_corpus, harness.token_layout
    monkeypatch.setattr(harness, "embed_corpus", recording)
    monkeypatch.setattr(harness, "token_layout", counting)
    cfg = SweepConfig(ratio_grid=((5, 45), (20, 30)), trials_per_ratio=2, **settings)
    table = run_sweep(s1_shaped_corpus(), cfg)
    assert all(rec.error is None for rec in table.records)
    assert calls == [not settings, True] * len(table.records)
    assert len(laid_out) == (1 if settings else 2)


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


def test_a_sweep_keeps_only_its_own_manifests(tmp_path):
    # an earlier sweep's manifests, and that of a trial failed in this one,
    # would replay under a config that did not make them
    corpus = make_text_corpus(n_classes=3, docs_per_class=10, seed=12)
    earlier = SweepConfig(ratio_grid=((5, 45), (10, 40), (20, 30)), trials_per_ratio=3)
    paths = emit_results(run_sweep(corpus, earlier), tmp_path / "out")
    assert len(list(paths["manifests"].iterdir())) == 9
    # a fixed oversized pool: fine at 1:49, impossible at 20:30
    config = SweepConfig(ratio_grid=((1, 49), (20, 30)), trials_per_ratio=1, unlabeled_pool_size=11)
    paths = emit_results(run_sweep(corpus, config), tmp_path / "out")
    assert sorted(p.name for p in paths["manifests"].iterdir()) == ["ratio_1_49_trial_00.tsv"]


def _pinned_outputs(table: SweepTable, paths) -> tuple[list[int], dict[str, str]]:
    """Each trial's cluster count, and the sha256 of each CSV file."""
    shas = {k: hashlib.sha256(paths[k].read_bytes()).hexdigest() for k in ("per_trial", "aggregate")}
    return [rec.n_clusters for rec in table.records], shas


def s2_shaped_euclidean_sweep(out_dir: Path) -> tuple[list[int], dict[str, str]]:
    corpus = make_text_corpus(
        n_classes=20, docs_per_class=60, doc_len=8, class_words=10, shared_words=40,
        signal=0.2, seed=13,
    )
    table = run_sweep(corpus, SweepConfig(ratio_grid=((20, 30), (5, 45)), trials_per_ratio=2))
    return _pinned_outputs(table, emit_results(table, out_dir))


def s2_shaped_transductive_sweep_from_disk(out_dir: Path) -> tuple[list[int], dict[str, str]]:
    corpus = make_text_corpus(
        n_classes=20, docs_per_class=100, doc_len=8, class_words=10, shared_words=40,
        signal=0.2, seed=13,
    )
    write_corpus_tree(corpus, out_dir / "tree")
    config = SweepConfig(
        ratio_grid=((20, 30), (5, 45)), trials_per_ratio=2, transductive=True,
        unlabeled_pool_size=1500,
    )
    table = run_sweep(out_dir / "tree", config)
    return _pinned_outputs(table, emit_results(table, out_dir / "out"))


# ``python tests/test_golden_sweep.py`` prints both sweeps' values
def test_s2_shaped_euclidean_sweep_outputs_are_pinned(tmp_path):
    # byte-identity of the whole pipeline: only a deliberate change of the
    # clustering's draws or arithmetic may move these values
    clusters, shas = s2_shaped_euclidean_sweep(tmp_path)
    assert clusters == [174, 168, 48, 36]
    assert shas == {
        "per_trial": "14b924be0e809520ef13b45dfd74046ce4a53bfbd5a79889cc77408490520b4c",
        "aggregate": "5925cea35547f72268a41629f8ec57c3c6d1250cd3f10902d27f4b42276a0d76",
    }


def test_s2_shaped_transductive_sweep_from_disk_is_pinned(tmp_path):
    # the directory route and the encodings carried through subsets,
    # concat_corpora and make_training_collection
    clusters, shas = s2_shaped_transductive_sweep_from_disk(tmp_path)
    assert clusters == [332, 336, 79, 74]
    assert shas == {
        "per_trial": "ec07373d8adc57df39c8a300a032ddbc60e7061567fc10d4c1d90e6775526ce2",
        "aggregate": "de246ae7457ec360c9b91f75f6c866936da7256bc31efda11ce9bd07e75e307c",
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


def test_a_bug_in_a_trial_propagates_out_of_sweep(monkeypatch):
    # only a DataError fails a trial; any other exception is a bug, and a
    # per_trial.csv row would hide it behind an exit status of 0
    def broken_build_model(*args, **kwargs):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(harness, "build_model", broken_build_model)
    corpus = make_text_corpus(n_classes=3, docs_per_class=10, seed=12)
    cfg = SweepConfig(ratio_grid=((10, 40),), trials_per_ratio=2)
    with pytest.raises(IndexError, match="index 7 is out of bounds"):
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
    # each retired key is read at the one value the program applies, and
    # refused at any other
    cfg = SweepConfig(ratio_grid=((3, 47),), trials_per_ratio=2)
    d = cfg.to_dict()
    for key, kept, other in [
        ("empty_cluster_policy", "reseed_farthest", "drop"),
        ("min_cluster_size_for_recursion", None, 4),
        ("centroid_shift_tolerance", 1e-6, 1e-4),
    ]:
        assert key not in d
        assert SweepConfig.from_dict({**d, key: kept}) == cfg
        with pytest.raises(DataError, match=f"retired field '{key}' must be {kept!r}, got {other!r}"):
            SweepConfig.from_dict({**d, key: other})
    # a key neither a field nor retired: a later version's setting, a misspelt one
    for key, value in [("seeding", "mean"), ("th_prcent", 50)]:
        with pytest.raises(DataError, match=f"unknown field '{key}'"):
            SweepConfig.from_dict({**d, key: value})


def test_sweep_config_from_dict_rejects_missing_field():
    with pytest.raises(DataError, match="field 'trials_per_ratio' is missing"):
        SweepConfig.from_dict({"ratio_grid": [[1, 49]]})


@pytest.mark.parametrize("key, value", [
    ("transductive", "false"),
    ("transductive", 0),
    ("trials_per_ratio", 2.9),
    ("trials_per_ratio", True),
    ("base_seed", "3"),
    ("smoothing", "1"),
    ("unlabeled_pool_size", 1.0),
    ("min_cluster_size_for_recursion", False),
    ("distance", None),
    ("ratio_grid", [[1, 49.0]]),
    ("ratio_grid", [[True, 49]]),
    ("tokenizer", "abc"),
])
def test_sweep_config_from_dict_rejects_other_json_types(key, value):
    d = SweepConfig().to_dict()
    with pytest.raises(DataError, match=f"field '{key}' must be "):
        SweepConfig.from_dict({**d, key: value})


@pytest.mark.parametrize("key, value", [
    ("unlabeled_pool_size", 2.5),
    ("unlabeled_pool_size", True),
    ("smoothing", True),
    ("transductive", 1),
    ("trials_per_ratio", np.int64(1)),
])
def test_sweep_config_refuses_what_its_json_file_cannot_hold(key, value):
    # each of these would run a sweep whose sweep_config.json from_dict
    # rejects, or which json.dumps cannot write
    with pytest.raises(DataError, match=f"field '{key}' must be "):
        SweepConfig(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("base_seed", -1),
    ("unlabeled_pool_size", -3),
    ("smoothing", float("inf")),
    ("smoothing", 10**400),
    ("ratio_grid", [[1, 24, 25]]),
])
def test_sweep_config_rejects_values_every_trial_would_fail_on(key, value):
    with pytest.raises(DataError, match="must be|pairs"):
        SweepConfig.from_dict({**SweepConfig().to_dict(), key: value})


def test_sweep_config_dict_is_derived_from_every_field():
    tokenizer = {"min_token_len": 2, "stopwords": [], "strip_pattern": "[^a-z0-9]+"}
    assert SweepConfig().to_dict() == {
        "ratio_grid": [list(r) for r in DEFAULT_RATIO_GRID],
        "trials_per_ratio": 20, "base_seed": 0, "test_fraction": 0.5, "smoothing": 1.0,
        "th_percent": 5.0, "max_recursion_depth": 16, "distance": "euclidean", "max_iterations": 100,
        "tokenizer": tokenizer, "unlabeled_pool_size": None, "transductive": False,
    }
    # an int is read into a float field as it is, and compares equal
    d = {**SweepConfig().to_dict(), "smoothing": 1, "th_percent": 5}
    assert SweepConfig.from_dict(d) == SweepConfig()


def test_sweep_config_derives_its_field_types_once_per_class(monkeypatch):
    looked_up = []

    def counting_get_type_hints(cls):
        looked_up.append(cls)
        return get_type_hints(cls)

    get_type_hints = harness.get_type_hints
    monkeypatch.setattr(harness, "get_type_hints", counting_get_type_hints)
    configs = [SweepConfig(), SweepConfig.from_dict(SweepConfig(trials_per_ratio=3).to_dict())]
    assert configs[1] == SweepConfig(trials_per_ratio=3)
    assert len(looked_up) == len(set(looked_up)) <= 3  # SweepConfig, RecursiveConfig, KMeansConfig


def test_manifest_round_trip(tmp_path):
    corpus = make_text_corpus(n_classes=2, docs_per_class=8, seed=8)
    train, test = split_train_test(corpus, test_fraction=0.5, rng_seed=1)
    d_l, d_u = mask_labels(train, 0.3, rng_seed=2)
    path = tmp_path / "split.tsv"
    write_split_manifest(path, train.doc_ids, test.doc_ids, d_l.doc_ids, (3, 7), 4, 2)
    header, train2, test2, labeled = read_split_manifest(path, corpus)
    assert header == ((3, 7), 4, 2)
    assert train2.doc_ids == train.doc_ids
    assert test2.doc_ids == test.doc_ids
    d_l2, d_u2 = mask_from_flags(train2, labeled)
    assert (d_l2.doc_ids, d_l2.labels.tolist()) == (d_l.doc_ids, d_l.labels.tolist())
    assert (d_u2.doc_ids, d_u2.labels.tolist()) == (d_u.doc_ids, d_u.labels.tolist())


def test_manifest_rejects_unknown_doc(tmp_path):
    corpus = make_text_corpus(n_classes=2, docs_per_class=3, seed=9)
    path = tmp_path / "bad.tsv"
    path.write_text("ghost/doc\ttrain\t1\n")
    with pytest.raises(DataError):
        read_split_manifest(path, corpus)


def test_manifest_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"# seed 1\na\ttrain\t1\xff\n")
    with pytest.raises(DataError, match=re.escape(f"{path} is not UTF-8")):
        read_split_manifest(path, make_text_corpus(n_classes=2, docs_per_class=3, seed=9))


def test_manifest_rejects_non_integer_flag(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# seed 1\na\ttrain\tx\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: labeled flag 'x'")):
        read_split_manifest(path, make_text_corpus(n_classes=2, docs_per_class=3, seed=9))


@pytest.mark.parametrize("flag", ["2", "-1", "01"])
def test_manifest_rejects_flag_other_than_zero_or_one(tmp_path, flag):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# seed 1\na\ttrain\t{flag}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: labeled flag '{flag}' is not 0 or 1")):
        read_split_manifest(path, make_text_corpus(n_classes=2, docs_per_class=3, seed=9))


@pytest.mark.parametrize(
    "header, bad",
    [
        ("# ratio", "# ratio 10-40"),
        ("# seed", "# seed three"),
        # a sign, an underscore, an inner space or Arabic-Indic digits, which int() reads
        ("# ratio", "# ratio +1_0: \u0664\u0660"),
        ("# ratio", "# ratio +10:40"),
        ("# ratio", "# ratio 1_0:40"),
        ("# ratio", "# ratio 10: 40"),
        ("# ratio", "# ratio \u0661\u0660:\u0664\u0660"),
        ("# seed", "# seed +3"),
        ("# seed", "# seed 1_0"),
        ("# seed", "# seed 4 0"),
        ("# seed", "# seed \u0664\u0660"),
        ("# trial", "# trial first"),
        ("# trial", "# trial -1"),
    ],
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
