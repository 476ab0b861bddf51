"""Class-count document embedding: one vector component per class.

Instead of a full bag-of-words matrix, every document becomes a K-vector
whose j-th component is the average relevance of its tokens to class j. The
relevance table is fitted on labeled documents only: the multinomial
naive-Bayes estimate ``(tf + s) / (tf.sum(0) + s * V)``, so each class column
is a probability distribution over the vocabulary. It is a pure function of
the integer term/class counts and ``s``; a bundle stores the counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np

from .corpus import Corpus, Document
from .errors import DataError

# Most tokens ``embed_corpus`` handles at once. A block costs about 40 bytes
# per token (ids, document keys, one gathered weight column); gathering all
# K weight columns of a 750k-token corpus at once would take 120 MB at K=20.
EMBED_BLOCK_TOKENS = 2**13


@dataclass
class TermClassWeights:
    """Fitted per-term, per-class relevance weights.

    ``weights[t, c]`` is the relevance of vocabulary term t to class c;
    ``oov_weight[c]`` is what an out-of-vocabulary token contributes to
    component c (the smoothed floor). ``counts`` is the (V, K) term/class
    count matrix they derive from; a version-1 or -2 bundle stored none.
    """

    vocabulary: dict[str, int]
    weights: np.ndarray
    oov_weight: np.ndarray
    smoothing: float
    class_names: tuple[str, ...]
    counts: np.ndarray | None = None

    @property
    def n_classes(self) -> int:
        return self.weights.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[0]

    def validate(self) -> None:
        if self.weights.shape != (len(self.vocabulary), len(self.class_names)):
            raise DataError("weight matrix shape does not match vocabulary/classes")
        # a fitted entry is (tf + s) / (sum tf + s V) with tf <= sum tf and
        # V >= 1, so rounding never takes it past 1
        if not np.all((self.weights >= 0) & (self.weights <= 1)):
            raise DataError("weights must lie in [0, 1]")
        if self.oov_weight.shape != (len(self.class_names),):
            raise DataError("oov weight length does not match classes")
        if not np.all((self.oov_weight >= 0) & (self.oov_weight <= 1)):
            raise DataError("oov weights must lie in [0, 1]")


def term_class_counts(corpus: Corpus) -> tuple[dict[str, int], np.ndarray]:
    """Vocabulary (sorted terms) and the (V, K) token count matrix.

    Each class column is one ``bincount`` over the token ids of that class's
    documents, so at most one class's ids are held at a time.
    """
    by_class: list[list[Document]] = [[] for _ in range(corpus.n_classes)]
    for doc, label in zip(corpus.documents, corpus.labels):
        if label is None:
            raise DataError(f"term weights are fitted on labeled documents only: {doc.doc_id!r}")
        by_class[label].append(doc)
    vocabulary = {
        term: i for i, term in enumerate(sorted(set(_all_tokens(corpus.documents))))
    }
    tf = np.empty((len(vocabulary), corpus.n_classes), dtype=np.float64)
    for c, docs in enumerate(by_class):
        ids = np.fromiter(
            map(vocabulary.__getitem__, _all_tokens(docs)),
            dtype=np.intp,
            count=sum(len(doc.tokens) for doc in docs),
        )
        tf[:, c] = np.bincount(ids, minlength=len(vocabulary))
    return vocabulary, tf


def weights_from_counts(
    vocabulary: dict[str, int], counts: np.ndarray, smoothing: float, class_names: Sequence[str]
) -> TermClassWeights:
    """``w[t, c] = (tf[t, c] + s) / (sum_t tf[t, c] + s * V)`` and the OOV
    floor ``s / (sum_t tf[t, c] + s * V)``: the one formula of the fit and of
    the bundle reader."""
    smoothing = float(smoothing)
    if not smoothing >= 0:
        raise DataError(f"smoothing must be >= 0, got {smoothing}")
    mass = counts.sum(axis=0)
    if not np.all(mass > 0):
        missing = [name for name, m in zip(class_names, mass) if not m > 0]
        raise DataError(f"classes without any labeled token: {missing}")
    denom = mass + smoothing * len(vocabulary)
    w = TermClassWeights(
        vocabulary=vocabulary,
        weights=(counts + smoothing) / denom,
        oov_weight=smoothing / denom,
        smoothing=smoothing,
        class_names=tuple(class_names),
        counts=counts,
    )
    w.validate()
    return w


def fit_term_weights(d_labeled: Corpus, smoothing: float = 1.0) -> TermClassWeights:
    """Fit the relevance table (``weights_from_counts``) on a fully labeled corpus."""
    vocabulary, tf = term_class_counts(d_labeled)
    return weights_from_counts(vocabulary, tf, smoothing, d_labeled.class_names)


def embed_tokens(tokens: Sequence[str], w: TermClassWeights) -> np.ndarray:
    """Average the per-token weight rows into one K-vector.

    Out-of-vocabulary tokens contribute the OOV floor and still count in the
    denominator, which keeps the token-count-weighted concatenation identity
    exact.
    """
    if not tokens:
        raise DataError("cannot embed a document with zero tokens")
    vec = np.zeros(w.n_classes, dtype=np.float64)
    n_oov = 0
    for tok in tokens:
        idx = w.vocabulary.get(tok)
        if idx is None:
            n_oov += 1
        else:
            vec += w.weights[idx]
    if n_oov:
        vec += n_oov * w.oov_weight
    return vec / len(tokens)


def embed_corpus(
    corpus: Corpus, w: TermClassWeights
) -> tuple[np.ndarray, list[str], list[str]]:
    """Embed every document, preserving order.

    Returns ``(matrix, kept_ids, dropped_ids)``; documents with zero tokens
    are dropped and reported rather than raising. Each row equals
    ``embed_tokens`` of its document bit for bit: a weighted ``bincount``
    adds a document's token weights in token order, as that loop does.
    Documents go in runs of at most ``EMBED_BLOCK_TOKENS`` tokens; a longer
    document is a run of its own, since splitting it would change the order
    of its additions.
    """
    kept = [doc for doc in corpus.documents if doc.tokens]
    dropped = [doc.doc_id for doc in corpus.documents if not doc.tokens]
    v = w.vocab_size
    # row c holds class c's weights; column v, the id of every
    # out-of-vocabulary token, adds 0 (the OOV floor is added per document)
    table = np.zeros((w.n_classes, v + 1), dtype=np.float64)
    table[:, :v] = w.weights.T
    lengths = np.fromiter((len(doc.tokens) for doc in kept), dtype=np.int64, count=len(kept))
    ends = np.cumsum(lengths)
    matrix = np.empty((len(kept), w.n_classes), dtype=np.float64)
    start = 0
    while start < len(kept):
        limit = ends[start] - lengths[start] + EMBED_BLOCK_TOKENS
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        matrix[start:stop] = _embed_block(kept[start:stop], lengths[start:stop], w, table)
        start = stop
    return matrix, [doc.doc_id for doc in kept], dropped


def _all_tokens(docs: Sequence[Document]) -> Iterator[str]:
    return chain.from_iterable(doc.tokens for doc in docs)


def _embed_block(
    docs: list[Document], lengths: np.ndarray, w: TermClassWeights, table: np.ndarray
) -> np.ndarray:
    v = w.vocab_size
    ids = np.fromiter(
        map(w.vocabulary.get, _all_tokens(docs), repeat(v)),
        dtype=np.intp,
        count=int(lengths.sum()),
    )
    doc_of = np.repeat(np.arange(len(docs)), lengths)
    sums = np.empty((len(docs), w.n_classes), dtype=np.float64)
    for c, row in enumerate(table):
        sums[:, c] = np.bincount(doc_of, weights=row.take(ids), minlength=len(docs))
    n_oov = np.bincount(doc_of[ids == v], minlength=len(docs))
    has_oov = n_oov > 0
    sums[has_oov] += n_oov[has_oov, None] * w.oov_weight
    return sums / lengths[:, None]


# ---------------------------------------------------------------------------
# the weight table's part of the bundle (JSON)
# ---------------------------------------------------------------------------

def weights_to_dict(w: TermClassWeights) -> dict:
    """The ``weights`` object of a version-3 bundle: for each class, the
    increasing ids of the terms it counts and their integer counts."""
    if w.counts is None:
        raise DataError("a weight table read from a version-1 or -2 bundle has no counts")
    return {
        "class_names": list(w.class_names),
        "smoothing": w.smoothing,
        "terms": sorted(w.vocabulary, key=w.vocabulary.get),
        "counts": [
            {"term_ids": ids.tolist(), "counts": w.counts[ids, c].astype(np.int64).tolist()}
            for c, ids in enumerate(map(np.flatnonzero, w.counts.T))
        ],
    }


def weights_from_dict(d: dict, version: int = 3) -> TermClassWeights:
    """Inverse of ``weights_to_dict``: rebuild the counts, derive the table.

    Counts must be integers in ``[1, 2**53)``, which float64 holds exactly.
    Versions 1 and 2 stored the table itself and no counts. A malformed
    payload raises ``DataError``, or ``KeyError``, ``TypeError``,
    ``ValueError`` or ``OverflowError``, which the bundle loader turns into
    ``DataError``.
    """
    terms, class_names = d["terms"], tuple(d["class_names"])
    vocabulary = {t: i for i, t in enumerate(terms)}
    if version < 3:
        weights = np.array(d["weights"], dtype=np.float64).reshape(len(terms), len(class_names))
        oov = np.array(d["oov_weight"], dtype=np.float64)
        w = TermClassWeights(vocabulary, weights, oov, float(d["smoothing"]), class_names)
        w.validate()
        return w
    if len(d["counts"]) != len(class_names):
        raise DataError("one counts entry per class expected")
    counts = np.zeros((len(terms), len(class_names)), dtype=np.float64)
    for c, entry in enumerate(d["counts"]):
        ids, n = entry["term_ids"], entry["counts"]
        if not (isinstance(ids, list) and isinstance(n, list) and set(map(type, ids + n)) <= {int}):
            raise DataError(f"class {c}: term ids and counts must be lists of integers")
        ids, n = np.array(ids, dtype=np.int64), np.array(n, dtype=np.int64)
        if not (
            ids.shape == n.shape
            and np.all(ids[1:] > ids[:-1]) and np.all((ids >= 0) & (ids < len(terms)))
            and np.all((n >= 1) & (n < 2**53))
        ):
            raise DataError(f"class {c}: term ids must increase in [0, {len(terms)}), "
                            "with one count in [1, 2**53) each")
        counts[ids, c] = n
    return weights_from_counts(vocabulary, counts, d["smoothing"], class_names)
