import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textrkm import representation
from textrkm.cli import load_bundle, save_bundle
from textrkm.corpus import Corpus, Document, DocumentReader, TokenizerConfig
from textrkm.errors import DataError
from textrkm.harness import fit
from textrkm.representation import (
    TermClassWeights,
    embed_corpus,
    fit_term_weights,
    term_class_counts,
    weights_from_dict,
    weights_to_dict,
)
from textrkm.rkmeans import RecursiveConfig

from reference import embed_tokens
from synthdata import make_text_corpus


def two_class_corpus():
    return Corpus.from_documents(
        documents=[Document("a", ("x", "x")), Document("b", ("y",))],
        labels=[0, 1],
        class_names=("A", "B"),
    )


def test_fit_unsmoothed_single_term_classes():
    w = fit_term_weights(two_class_corpus(), smoothing=0.0)
    ix, iy = w.vocabulary["x"], w.vocabulary["y"]
    assert w.weights[ix, 0] == 1.0
    assert w.weights[iy, 0] == 0.0
    assert w.weights[iy, 1] == 1.0


def test_fit_laplace_arithmetic():
    w = fit_term_weights(two_class_corpus(), smoothing=1.0)
    ix, iy = w.vocabulary["x"], w.vocabulary["y"]
    assert w.weights[ix, 0] == pytest.approx((2 + 1) / (2 + 2), abs=0)
    assert w.weights[iy, 0] == pytest.approx(0.25, abs=0)


def test_columns_sum_to_one_random_fits():
    # oracle: direct summation over the matrix
    for seed in range(10):
        corpus = make_text_corpus(
            n_classes=3 + seed % 3, docs_per_class=6, doc_len=15, seed=seed
        )
        w = fit_term_weights(corpus, smoothing=float(seed % 4) / 2.0)
        colsums = np.array([sum(w.weights[:, c]) for c in range(w.n_classes)])
        assert np.all(np.abs(colsums - 1.0) <= 1e-9)


def test_embed_examples():
    w = fit_term_weights(two_class_corpus(), smoothing=0.0)
    assert embed_tokens(["x"], w).tolist() == [1.0, 0.0]
    assert embed_tokens(["x", "y"], w).tolist() == [0.5, 0.5]


def test_embed_matches_per_token_oracle_and_bounds():
    rng = np.random.default_rng(0)
    corpus = make_text_corpus(n_classes=4, docs_per_class=8, doc_len=20, seed=1)
    w = fit_term_weights(corpus, smoothing=1.0)
    terms = list(w.vocabulary)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        tokens = [terms[int(rng.integers(len(terms)))] for _ in range(n)]
        if rng.random() < 0.5:
            tokens.append("never-seen-token")
        vec = embed_tokens(tokens, w)
        # independent oracle: plain python per-token summation
        for c in range(w.n_classes):
            expected = (
                sum(
                    w.weights[w.vocabulary[t], c]
                    if t in w.vocabulary
                    else w.oov_weight[c]
                    for t in tokens
                )
                / len(tokens)
            )
            assert abs(vec[c] - expected) <= 1e-12
            col_lo = min(w.weights[:, c].min(), w.oov_weight[c])
            col_hi = max(w.weights[:, c].max(), w.oov_weight[c])
            assert col_lo - 1e-12 <= vec[c] <= col_hi + 1e-12


def test_embed_rejects_empty():
    w = fit_term_weights(two_class_corpus())
    with pytest.raises(DataError):
        embed_tokens([], w)


def test_embed_components_in_unit_interval():
    corpus = make_text_corpus(n_classes=5, docs_per_class=6, seed=2)
    w = fit_term_weights(corpus, smoothing=1.0)
    x, _ = embed_corpus(corpus, w)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)


def test_embed_corpus_keeps_order_and_is_deterministic():
    corpus = make_text_corpus(n_classes=2, docs_per_class=3, seed=3)
    w = fit_term_weights(corpus, smoothing=1.0)
    reversed_ = corpus.subset(range(corpus.n_docs - 1, -1, -1))
    x, ids = embed_corpus(corpus, w)
    y, reversed_ids = embed_corpus(reversed_, w)
    assert ids == corpus.doc_ids and reversed_ids == corpus.doc_ids[::-1]
    assert x.tobytes() == y[::-1].tobytes()
    x2, _ = embed_corpus(corpus, w)
    assert np.array_equal(x, x2)


def test_concatenation_linearity_identity():
    corpus = make_text_corpus(n_classes=3, docs_per_class=10, doc_len=25, seed=4)
    w = fit_term_weights(corpus, smoothing=1.0)
    rng = np.random.default_rng(5)
    docs = corpus.documents
    for _ in range(50):
        a = docs[int(rng.integers(len(docs)))].tokens
        b = docs[int(rng.integers(len(docs)))].tokens
        combined = embed_tokens(list(a) + list(b), w)
        weighted = (len(a) * embed_tokens(a, w) + len(b) * embed_tokens(b, w)) / (
            len(a) + len(b)
        )
        assert np.max(np.abs(combined - weighted)) <= 1e-12


def test_fit_uses_labeled_docs_only():
    corpus = make_text_corpus(n_classes=3, docs_per_class=8, seed=6)
    w1 = fit_term_weights(corpus, smoothing=1.0)
    w2 = fit_term_weights(corpus, smoothing=1.0)
    assert w1.vocabulary == w2.vocabulary
    assert np.array_equal(w1.weights, w2.weights)
    # unlabeled text never reaches the fit: vocabulary has no term from it
    assert "unlabeledonlyterm" not in w1.vocabulary


def test_fit_requires_labels_and_nonempty_vocab():
    corpus = make_text_corpus(n_classes=2, docs_per_class=2, seed=7)
    unlabeled = Corpus.from_documents(
        documents=corpus.documents,
        labels=[None] * corpus.n_docs,
        class_names=corpus.class_names,
    )
    with pytest.raises(DataError):
        fit_term_weights(unlabeled)
    missing_class = Corpus.from_documents(
        documents=corpus.documents[:2],
        labels=[0, 0],
        class_names=corpus.class_names,
    )
    with pytest.raises(DataError):
        fit_term_weights(missing_class)


def test_save_load_weights_bit_exact(tmp_path):
    # the weight table's file route is the model bundle
    corpus = make_text_corpus(n_classes=4, docs_per_class=7, doc_len=18, seed=8)
    w, model, _ = fit(corpus, corpus.subset([]), smoothing=0.7,
                      recursive=RecursiveConfig(), seed=0)
    path = tmp_path / "bundle.json"
    save_bundle(path, model, w, TokenizerConfig())
    _, loaded, _ = load_bundle(path)
    assert loaded.vocabulary == w.vocabulary
    assert loaded.class_names == w.class_names
    assert loaded.smoothing == w.smoothing
    assert np.array_equal(loaded.weights, w.weights)
    assert np.array_equal(loaded.oov_weight, w.oov_weight)


def test_weights_dict_round_trip():
    # the stored counts rebuild the fitted table bit for bit
    for seed, smoothing in enumerate([1.5, 0.0, 1.0, 0.25]):
        corpus = make_text_corpus(n_classes=3 + seed, docs_per_class=5, seed=9 + seed)
        w = fit_term_weights(corpus, smoothing=smoothing)
        stored = json.loads(json.dumps(weights_to_dict(w)))
        assert "weights" not in stored and "oov_weight" not in stored
        back = weights_from_dict(stored)
        assert back.vocabulary == w.vocabulary
        assert back.class_names == w.class_names
        assert back.smoothing == w.smoothing
        assert np.array_equal(back.counts, w.counts)
        assert np.array_equal(back.weights.view(np.int64), w.weights.view(np.int64))
        assert np.array_equal(back.oov_weight.view(np.int64), w.oov_weight.view(np.int64))


# ---------------------------------------------------------------------------
# the array code against per-token loops
# ---------------------------------------------------------------------------

def loop_term_class_counts(corpus):
    """Oracle: one increment per labeled token."""
    terms = sorted({tok for doc in corpus.documents for tok in doc.tokens})
    vocabulary = {t: i for i, t in enumerate(terms)}
    tf = np.zeros((len(terms), corpus.n_classes))
    for doc, label in zip(corpus.documents, corpus.labels):
        for tok in doc.tokens:
            tf[vocabulary[tok], label] += 1.0
    return vocabulary, tf


def loop_embed_corpus(corpus, w):
    """Oracle: ``embed_tokens`` document by document."""
    rows = [embed_tokens(doc.tokens, w) for doc in corpus.documents]
    return np.vstack(rows) if rows else np.zeros((0, w.n_classes))


def random_weights(terms, n_classes, rng):
    # arbitrary mantissas, so that any change in the order of additions shows
    return TermClassWeights(
        vocabulary={t: i for i, t in enumerate(terms)},
        weights=rng.random((len(terms), n_classes)),
        oov_weight=rng.random(n_classes),
        smoothing=1.0,
        class_names=tuple(f"c{i}" for i in range(n_classes)),
    )


def assert_embeds_like_loop(corpus, w, block_rows=None):
    """``block_rows`` documents or tail rows to a block; None keeps the
    default byte budget."""
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(representation, "EMBED_BLOCK_BYTES", block_rows * 8 * (w.n_classes + 1))
        x, ids = embed_corpus(corpus, w)
    want = loop_embed_corpus(corpus, w)
    assert x.shape == want.shape and x.tobytes() == want.tobytes()
    assert ids == corpus.doc_ids


EDGE_DOCS = [
    Document("oov-only", ("never", "seen", "never")),
    Document("single", ("common3",)),
    Document("repeated", ("common1",) * 9 + ("common2", "common1", "unseen")),
    Document("single-oov", ("unseen",)),
]


# 0 finishes every document on its own, 10**9 runs the position loop to the
# end; blocks of 1 and 3 rows split the position loop's documents and the
# long documents' tails
@pytest.mark.parametrize("doc_cost", [0, 1, 3, representation.EMBED_DOC_COST, 10**9])
def test_embed_corpus_is_bit_identical_to_per_token_loop(monkeypatch, doc_cost):
    monkeypatch.setattr(representation, "EMBED_DOC_COST", doc_cost)
    corpus = make_text_corpus(n_classes=4, docs_per_class=10, doc_len=23, seed=14)
    mixed = Corpus.from_documents(
        documents=EDGE_DOCS[:3] + corpus.documents[:17] + EDGE_DOCS[3:]
        + corpus.documents[17:],
        labels=[None] * (corpus.n_docs + len(EDGE_DOCS)),
        class_names=corpus.class_names,
    )
    one_class = random_weights(["common1", "common2", "common3"], 1, np.random.default_rng(15))
    for block_rows in (1, 3, None):
        for smoothing in (0.0, 0.7):
            w = fit_term_weights(corpus, smoothing=smoothing)
            assert_embeds_like_loop(mixed, w, block_rows)
        assert_embeds_like_loop(mixed, one_class, block_rows)
        assert_embeds_like_loop(corpus.subset([]), fit_term_weights(corpus), block_rows)


def test_embed_corpus_of_files_read_through_the_vocabulary(tmp_path):
    """Files read straight into the weights' rows embed bit for bit as when
    read over their own sorted terms; weights of another vocabulary are
    refused."""
    corpus = make_text_corpus(n_classes=4, docs_per_class=10, doc_len=23, seed=14)
    w = fit_term_weights(corpus.subset(range(0, corpus.n_docs, 3)), smoothing=0.7)
    files = []
    for i, doc in enumerate(corpus.documents + EDGE_DOCS):
        files.append((f"d{i:02d}", tmp_path / f"d{i:02d}"))
        files[-1][1].write_text(" ".join(doc.tokens + ("x", "the", "Common1")))
    config = TokenizerConfig(min_token_len=2, stopwords=frozenset({"the", "common2"}))
    whole, direct = DocumentReader(config), DocumentReader(config, w.vocabulary)
    assert whole.read(files) == direct.read(files) == []
    x, ids = embed_corpus(whole.pop(), w)
    direct_corpus = direct.pop()
    assert direct_corpus.encoding.vocabulary is w.vocabulary
    y, direct_ids = embed_corpus(direct_corpus, w)
    assert x.tobytes() == y.tobytes() and ids == direct_ids == [name for name, _ in files]
    with pytest.raises(DataError, match="another vocabulary"):
        embed_corpus(direct_corpus, dataclasses.replace(w, vocabulary=dict(w.vocabulary)))


def test_term_class_counts_match_per_token_loop():
    corpus = make_text_corpus(n_classes=5, docs_per_class=9, doc_len=31, seed=16)
    documents = corpus.documents
    documents[3] = Document(documents[3].doc_id, ("solo",))
    corpus = Corpus.from_documents(documents, corpus.labels, corpus.class_names)
    vocabulary, tf = term_class_counts(corpus)
    want_vocabulary, want_tf = loop_term_class_counts(corpus)
    assert vocabulary == want_vocabulary
    assert list(vocabulary) == sorted(vocabulary)
    assert tf.dtype == np.float64 and np.array_equal(tf, want_tf)


@settings(max_examples=60, deadline=None)
@given(
    n_classes=st.integers(1, 4),
    n_docs=st.integers(1, 90),
    doc_cost=st.sampled_from([0, 1, representation.EMBED_DOC_COST, 10**9]),
    block_rows=st.sampled_from([1, 3, None]),
    seed=st.integers(0, 2**16),
)
def test_counts_and_embedding_match_loops_on_random_corpora(
    n_classes, n_docs, doc_cost, block_rows, seed
):
    # Pareto-skewed lengths: many short documents, a few long ones; some
    # documents hold only out-of-vocabulary tokens
    rng = np.random.default_rng(seed)
    lengths = np.minimum(1 + rng.pareto(1.2, n_docs) * 6, 400).astype(int)
    words = ["a", "b", "c", "dd", "e", "f", "oov1", "oov2"]
    documents = []
    for i, n in enumerate(lengths):
        pool = words[-2:] if rng.random() < 0.15 else words
        documents.append(Document(f"d{i}", tuple(pool[j] for j in rng.integers(len(pool), size=n))))
    labeled = Corpus.from_documents(
        documents=documents,
        labels=[int(c) for c in rng.integers(n_classes, size=n_docs)],
        class_names=tuple(f"c{i}" for i in range(n_classes)),
    )
    vocabulary, tf = term_class_counts(labeled)
    want_vocabulary, want_tf = loop_term_class_counts(labeled)
    assert vocabulary == want_vocabulary and np.array_equal(tf, want_tf)

    terms = [t for t in words if not t.startswith("oov")]
    w = random_weights(terms, n_classes, rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(representation, "EMBED_DOC_COST", doc_cost)
        assert_embeds_like_loop(labeled, w, block_rows)


def _random_documents(n_docs, doc_len, terms, rng):
    picks = rng.integers(len(terms), size=(n_docs, doc_len))
    return [Document(f"d{i}", tuple(terms[j] for j in row)) for i, row in enumerate(picks)]


def _random_corpus(n_docs, doc_len, terms, class_names, rng):
    documents = _random_documents(n_docs, doc_len, terms, rng)
    return Corpus.from_documents(documents, [None] * n_docs, class_names)


def test_embed_corpus_memory_is_bounded():
    # 10k documents, 1M tokens, K=20; gathering every token's weight row at
    # once would take 160 MB
    n_docs, doc_len, n_classes = 10_000, 100, 20
    rng = np.random.default_rng(17)
    terms = [f"term{i}" for i in range(3000)]
    w = random_weights(terms[:2500], n_classes, rng)  # the last 500 are OOV
    corpus = _random_corpus(n_docs, doc_len, terms, w.class_names, rng)
    tracemalloc.start()
    try:
        x, _ = embed_corpus(corpus, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result, the lookup table with its OOV column, and a few (docs, K+1)
    # arrays: the sums and one block's gathered rows; nothing per token
    rows = n_docs * (n_classes + 1) * 8
    budget = x.nbytes + (w.vocab_size + 1) * (n_classes + 1) * 8 + 2 * rows
    assert peak < budget + 2**19


def test_embed_corpus_memory_is_bounded_on_one_long_document():
    # a 1M-token document is finished on its own, one block of weight rows
    # at a time; gathering all its rows at once would take 168 MB
    n_tokens, n_classes = 1_000_000, 20
    rng = np.random.default_rng(19)
    terms = [f"term{i}" for i in range(3000)]
    w = random_weights(terms[:2500], n_classes, rng)
    corpus = _random_corpus(1, n_tokens, terms, w.class_names, rng)
    tracemalloc.start()
    try:
        embed_corpus(corpus, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the lookup table, and two chunks of gathered rows with their row
    # indices: the next one is gathered while the last is still bound
    table = (w.vocab_size + 1) * (n_classes + 1) * 8
    rows = representation.EMBED_BLOCK_BYTES // ((n_classes + 1) * 8)
    chunk = rows * (n_classes + 2) * 8
    assert peak < table + 2 * chunk + 2**19


def test_encoding_memory_is_bounded():
    n_docs, doc_len = 10_000, 100
    rng = np.random.default_rng(18)
    terms = [f"term{i}" for i in range(3000)]
    documents, labels = _random_documents(n_docs, doc_len, terms, rng), [None] * n_docs
    n_tokens = n_docs * doc_len
    tracemalloc.start()
    try:
        enc = Corpus.from_documents(documents, labels, ("c0",)).encoding
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert enc.ids.nbytes == 4 * n_tokens
    assert peak < 8 * n_tokens
    # the ids, plus the offsets and the term table, which grow with documents
    # and terms, not tokens
    assert retained < 4 * n_tokens + 8 * (n_docs + 1) + 2**20
