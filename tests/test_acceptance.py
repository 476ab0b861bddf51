"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 4 additionally runs against a real newsgroups-style corpus
when TEXTRKM_20NG_DIR points at a ``<root>/<class>/<file>`` tree; without it
that leg is skipped and the synthetic desk-scale corpus still exercises the
same trend assertions.
"""
import collections
import os
import time

import numpy as np
import pytest

from textrkm import harness
from textrkm.classifier import classify_batch
from textrkm.cli import load_bundle, save_bundle
from textrkm.corpus import Corpus, load_directory_corpus, split_train_test
from textrkm.evaluation import score
from textrkm.harness import (
    SweepConfig,
    emit_results,
    manifest_filename,
    replay_trial,
    run_sweep,
    run_trial,
)
from textrkm.representation import fit_term_weights
from textrkm.rkmeans import (
    ACCEPT_PURE,
    ACCEPT_THRESHOLD,
    FALLBACK_REASONS,
    ClusterModel,
    KMeansConfig,
    RecursiveConfig,
    RunStats,
    kmeans,
)

from reference import (
    cluster_class_stats, embed_tokens, lloyd_objectives, majority_label, relative_percentage,
)
from synthdata import make_point_cloud, make_text_corpus

NEWSGROUPS_ENV = "TEXTRKM_20NG_DIR"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {name}: {status}" + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _split(corpus, seed=0):
    return split_train_test(corpus, test_fraction=0.5, rng_seed=seed)


# ---------------------------------------------------------------------------
# criterion 1: purity / termination rule, recounted from raw members
# ---------------------------------------------------------------------------

def test_criterion_1_cluster_purity_and_termination(monkeypatch):
    # an easy corpus (clean recursion-free trials) and a heavily overlapping
    # one that forces deep recursion, fallback acceptances and orphans
    corpora = [
        make_text_corpus(
            n_classes=4, docs_per_class=50, doc_len=12, class_words=10,
            shared_words=40, signal=0.45, seed=13,
        ),
        make_text_corpus(
            n_classes=4, docs_per_class=50, doc_len=8, class_words=10,
            shared_words=40, signal=0.2, seed=13,
        ),
    ]
    config = SweepConfig(ratio_grid=((1, 49), (5, 45), (10, 40), (20, 30)), trials_per_ratio=3)

    checked = 0
    violations = 0
    fallbacks = 0
    orphans = 0
    max_depth = 0
    fitted = []  # each model, with the doc ids of its training points

    def recording_fit(*args):
        weights, model, training = fit(*args)
        fitted.append((model, list(training.doc_ids)))
        return weights, model, training

    fit = harness.fit
    monkeypatch.setattr(harness, "fit", recording_fit)
    for corpus in corpora:
        train, test = _split(corpus)
        train_labels = {d.doc_id: lab for d, lab in zip(train.documents, train.labels)}
        for ratio in config.ratio_grid:
            for t in range(config.trials_per_ratio):
                result = run_trial(train, test, ratio, config.base_seed + t, config)
                model, doc_ids = fitted.pop()
                th = model.stats.th_percent
                labeled = set(result.labeled_doc_ids)
                max_depth = max(max_depth, model.stats.max_depth_reached)
                for j, (label, reason) in enumerate(zip(model.labels.tolist(), model.acceptance)):
                    member_ids = [doc_ids[i] for i in np.flatnonzero(model.cluster_of == j)]
                    member_labels = np.array(
                        [
                            train_labels[doc_id] if doc_id in labeled else -1
                            for doc_id in member_ids
                        ],
                        dtype=np.int64,
                    )
                    ncp, lsp = cluster_class_stats(member_labels, model.n_classes)
                    if reason in (ACCEPT_PURE, ACCEPT_THRESHOLD):
                        checked += 1
                        maj = majority_label(lsp)
                        if maj != label:
                            violations += 1
                            continue
                        for c in range(model.n_classes):
                            if c != maj and lsp[c] > 0 and relative_percentage(lsp, maj, c) > th:
                                violations += 1
                    elif reason in FALLBACK_REASONS:
                        fallbacks += 1
                    else:
                        orphans += 1
                assert model.stats.fallback_total == sum(
                    1 for reason in model.acceptance if reason in FALLBACK_REASONS
                )
    _report(
        1,
        "cluster purity/termination",
        checked > 0 and violations == 0 and fallbacks > 0,
        f"{checked} threshold-accepted clusters recounted, {violations} violations, "
        f"{fallbacks} fallback acceptances, {orphans} orphans, "
        f"max recursion depth {max_depth}",
    )


# ---------------------------------------------------------------------------
# criterion 2: brute-force oracle equivalence on >=1000 random instances
# ---------------------------------------------------------------------------

def _toy_model(centroids, labels):
    centroids = np.asarray(centroids, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return ClusterModel(
        centroids=centroids,
        labels=labels,
        acceptance=("pure",) * len(labels),
        depths=np.zeros(len(labels), dtype=np.int64),
        distance="euclidean",
        class_names=tuple(f"c{i}" for i in range(int(labels.max()) + 1)),
        stats=RunStats(5.0, 0, "euclidean"),
    )


def _brute_force_argmin(vec, centroids):
    best, best_d = 0, float("inf")
    for j, c in enumerate(centroids):
        d = 0.0
        for a, b in zip(vec, c):
            d += (a - b) * (a - b)
        if d < best_d:
            best, best_d = j, d
    return best


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    n_instances = 1000
    mismatches = 0
    sse_increases = 0
    iterated = 0
    for _ in range(n_instances):
        k = int(rng.integers(1, 4))           # <= 3 classes
        n = int(rng.integers(k, 17))          # <= 16 points
        d = int(rng.integers(1, 4))           # <= 3 dims
        x = rng.normal(size=(n, d))
        labels = rng.integers(-1, k, size=n).astype(np.int64)
        labels[:k] = np.arange(k)  # guarantee one labeled point per class
        seed_rows = [int(np.flatnonzero(labels == c)[0]) for c in range(k)]
        result = kmeans(x, x[seed_rows], KMeansConfig())
        hist = lloyd_objectives(x, x[seed_rows])
        if any(b > a + 1e-9 for a, b in zip(hist, hist[1:])):
            sse_increases += 1
        iterated += len(hist) >= 2
        model = _toy_model(result.centroids, rng.integers(0, k, size=result.centroids.shape[0]))
        queries = rng.normal(size=(3, d))
        preds = classify_batch(queries, model, ["q0", "q1", "q2"])
        for q, p in zip(queries, preds):
            if p.cluster != _brute_force_argmin(q.tolist(), result.centroids.tolist()):
                mismatches += 1
    _report(
        2,
        "oracle equivalence",
        mismatches == 0 and sse_increases == 0 and iterated >= n_instances // 2,
        f"{n_instances} instances: {mismatches} argmin mismatches, "
        f"{sse_increases} SSE increases over {iterated} runs of 2 or more iterations",
    )


# ---------------------------------------------------------------------------
# criterion 3: synthetic separable recovery, 2% labeled
# ---------------------------------------------------------------------------

def test_criterion_3_separable_recovery():
    accuracies = []
    oracle_accuracies = []
    for seed in range(20):
        x, truth, centers = make_point_cloud(
            n_classes=4, points_per_class=500, dim=4, center_scale=8.0, sigma=1.0, seed=seed
        )
        # centers are 8*e_i: pairwise distance 8*sqrt(2) > 6 sigma
        rng = np.random.default_rng(seed + 1000)
        train_idx, test_idx = [], []
        for c in range(4):
            members = np.flatnonzero(truth == c)
            perm = rng.permutation(members)
            train_idx.extend(perm[:250])
            test_idx.extend(perm[250:])
        train_idx = np.array(sorted(train_idx))
        test_idx = np.array(sorted(test_idx))

        labels = np.full(len(train_idx), -1, dtype=np.int64)
        for c in range(4):
            members = np.flatnonzero(truth[train_idx] == c)
            chosen = rng.permutation(members)[:5]  # 2% of 1000 = 20 -> 5 per class
            labels[chosen] = c
        model_input = x[train_idx]
        from textrkm.rkmeans import build_model

        model = build_model(model_input, labels, ("a", "b", "c", "d"), RecursiveConfig(), 0)
        preds = classify_batch(x[test_idx], model, [f"t{i}" for i in test_idx])
        acc = np.mean([p.label == truth[i] for p, i in zip(preds, test_idx)])
        accuracies.append(acc)

        # independent oracle: nearest true mean
        d2 = ((x[test_idx][:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        oracle_accuracies.append(np.mean(d2.argmin(axis=1) == truth[test_idx]))

    mean_acc = float(np.mean(accuracies))
    mean_oracle = float(np.mean(oracle_accuracies))
    _report(
        3,
        "synthetic separable recovery",
        mean_oracle >= 0.99 and mean_acc >= 0.95,
        f"model accuracy {mean_acc:.4f} (oracle {mean_oracle:.4f}) over 20 seeds",
    )


# ---------------------------------------------------------------------------
# criterion 4: trend reproduction on a 10-class desk-scale corpus
# ---------------------------------------------------------------------------

TREND_RATIOS = ((1, 49), (20, 30))
TREND_TRIALS = 20


def _trend_trials(corpus):
    train, test = _split(corpus)
    cfg = SweepConfig(ratio_grid=TREND_RATIOS, trials_per_ratio=1)
    start = time.perf_counter()
    results = {
        ratio: [run_trial(train, test, ratio, seed, cfg) for seed in range(TREND_TRIALS)]
        for ratio in TREND_RATIOS
    }
    elapsed = time.perf_counter() - start
    return results, elapsed


def _assert_trend(num, corpus, corpus_name):
    k = corpus.n_classes
    majority_baseline = max(collections.Counter(corpus.labels).values()) / corpus.n_docs
    results, elapsed = _trend_trials(corpus)
    mean_low = float(np.mean([r.metrics["accuracy"] for r in results[(1, 49)]]))
    mean_high = float(np.mean([r.metrics["accuracy"] for r in results[(20, 30)]]))
    # measured 2 ratios x 20 trials; the full sweep is 20 ratios x 20 trials
    projected_full_sweep = elapsed * 10.0
    ok = (
        mean_high >= mean_low
        and mean_low >= 3.0 * majority_baseline
        and mean_high >= 3.0 * majority_baseline
        and projected_full_sweep < 1800.0
    )
    _report(
        num,
        f"trend reproduction ({corpus_name})",
        ok,
        f"k={k}, acc@1:49={mean_low:.4f}, acc@20:30={mean_high:.4f}, "
        f"baseline={majority_baseline:.3f}, projected full sweep {projected_full_sweep:.0f}s",
    )
    return results


@pytest.fixture(scope="module")
def synthetic_trend_corpus():
    return make_text_corpus(
        n_classes=10, docs_per_class=100, doc_len=20, class_words=12,
        shared_words=60, signal=0.4, seed=42,
    )


@pytest.fixture(scope="module")
def synthetic_trend_results(synthetic_trend_corpus):
    return _assert_trend(4, synthetic_trend_corpus, "synthetic 10-class")


def test_criterion_4_trend_synthetic(synthetic_trend_results):
    assert synthetic_trend_results  # trend asserted inside the fixture


def _load_newsgroups_subset():
    root = os.environ.get(NEWSGROUPS_ENV)
    if not root:
        pytest.skip(
            f"real newsgroups corpus not available: set {NEWSGROUPS_ENV} to a "
            "<root>/<class>/<file> tree with >=10 classes of >=100 documents"
        )
    corpus = load_directory_corpus(root)
    counts = collections.Counter(corpus.labels)
    eligible = [c for c, n in counts.items() if n >= 100]
    if len(eligible) < 10:
        pytest.skip(f"{root} has only {len(eligible)} classes with >=100 documents")
    top10 = sorted(sorted(eligible), key=lambda c: -counts[c])[:10]
    keep = sorted(top10)
    remap = {old: new for new, old in enumerate(keep)}
    per_class_cap = 200  # desk scale
    taken = collections.Counter()
    idx = []
    for i, lab in enumerate(corpus.labels):
        if lab in remap and taken[lab] < per_class_cap:
            idx.append(i)
            taken[lab] += 1
    documents = corpus.documents
    return Corpus.from_documents(
        documents=[documents[i] for i in idx],
        labels=[remap[corpus.labels[i]] for i in idx],
        class_names=tuple(corpus.class_names[c] for c in keep),
    )


def test_criterion_4_trend_newsgroups():
    corpus = _load_newsgroups_subset()
    _assert_trend(4, corpus, "newsgroups top-10")


# ---------------------------------------------------------------------------
# criterion 5: balanced-corpus macro/micro identity
# ---------------------------------------------------------------------------

def test_criterion_5_balanced_macro_micro(synthetic_trend_results):
    max_gap = 0.0
    max_identity_err = 0.0
    n_trials = 0
    for results in synthetic_trend_results.values():
        for r in results:
            n_trials += 1
            gap = abs(r.metrics["macro_f"] - r.metrics["micro_f"])
            max_gap = max(max_gap, gap)
            for v in r.report.micro:
                max_identity_err = max(max_identity_err, abs(v - r.report.accuracy))
    # the exact identity must also hold on arbitrary confusion matrices
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        cm = rng.integers(0, 25, size=(k, k))
        if cm.sum() == 0:
            cm[0, 0] = 1
        rep = score(cm)
        for v in rep.micro:
            max_identity_err = max(max_identity_err, abs(v - rep.accuracy))
    _report(
        5,
        "balanced-corpus macro/micro identity",
        max_gap <= 0.05 and max_identity_err <= 1e-12,
        f"max |macroF-microF| = {max_gap:.4f} over {n_trials} trials; "
        f"max |micro - accuracy| = {max_identity_err:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 6: determinism, manifest replay, bundle save/load
# ---------------------------------------------------------------------------

def test_criterion_6_determinism_and_replay(tmp_path, monkeypatch):
    corpus = make_text_corpus(
        n_classes=4, docs_per_class=30, doc_len=15, signal=0.5, seed=77
    )
    cfg = SweepConfig(ratio_grid=((5, 45), (15, 35)), trials_per_ratio=2, base_seed=11)
    table = run_sweep(corpus, cfg)
    paths = emit_results(table, tmp_path / "sweep")
    replay_exact = True
    for rec in table.records:
        manifest = paths["manifests"] / manifest_filename(rec.ratio, rec.trial)
        replayed = replay_trial(corpus, manifest, cfg)
        if replayed.metrics != rec.metrics:
            replay_exact = False
        fresh = run_trial(*_split(corpus, cfg.base_seed), rec.ratio, rec.seed, cfg)
        if fresh.report.to_flat() != replayed.report.to_flat():
            replay_exact = False

    fitted = []

    def recording_fit(*args):
        fitted.append(fit(*args))
        return fitted[-1]

    fit = harness.fit
    monkeypatch.setattr(harness, "fit", recording_fit)
    train, test = _split(corpus, cfg.base_seed)
    run_trial(train, test, (15, 35), 11, cfg)
    ((weights, model, _),) = fitted
    save_bundle(tmp_path / "model.json", model, weights, cfg.tokenizer)
    loaded, loaded_weights, _ = load_bundle(tmp_path / "model.json")
    test_x = np.vstack([embed_tokens(d.tokens, weights) for d in test.documents])
    before = classify_batch(test_x, model, test.doc_ids)
    after = classify_batch(test_x, loaded, test.doc_ids)
    model_exact = (
        list(before) == list(after)
        and np.array_equal(loaded.centroids, model.centroids)
        and np.array_equal(loaded.labels, model.labels)
        and loaded.acceptance == model.acceptance
        and np.array_equal(loaded.depths, model.depths)
        and loaded.stats == model.stats
        and np.array_equal(loaded_weights.weights, weights.weights)
    )
    _report(
        6,
        "determinism and replay",
        replay_exact and model_exact,
        f"{len(table.records)} trials replayed bit-exactly; "
        f"save/load reproduces {len(after)} classifications",
    )


# ---------------------------------------------------------------------------
# criterion 7: representation invariants
# ---------------------------------------------------------------------------

def test_criterion_7_representation_invariants():
    max_col_err = 0.0
    max_lin_err = 0.0
    rng = np.random.default_rng(7)
    for seed in range(5):
        corpus = make_text_corpus(
            n_classes=3 + seed, docs_per_class=12, doc_len=18, seed=seed
        )
        w = fit_term_weights(corpus, smoothing=float(seed % 3) / 2.0 + 0.5)
        col_err = np.max(np.abs(w.weights.sum(axis=0) - 1.0))
        max_col_err = max(max_col_err, float(col_err))
        docs = corpus.documents
        for _ in range(20):  # 5 corpora x 20 = 100 random pairs
            a = docs[int(rng.integers(len(docs)))].tokens
            b = docs[int(rng.integers(len(docs)))].tokens
            combined = embed_tokens(list(a) + list(b), w)
            weighted = (
                len(a) * embed_tokens(a, w) + len(b) * embed_tokens(b, w)
            ) / (len(a) + len(b))
            max_lin_err = max(max_lin_err, float(np.max(np.abs(combined - weighted))))
    _report(
        7,
        "representation invariants",
        max_col_err <= 1e-9 and max_lin_err <= 1e-12,
        f"max column-sum error {max_col_err:.2e}, "
        f"max linearity error {max_lin_err:.2e} over 100 pairs",
    )
