"""Class-count document embedding: one vector component per class.

Instead of a full bag-of-words matrix, every document becomes a K-vector
whose j-th component is the average relevance of its tokens to class j. The
relevance table is fitted on labeled documents only: the multinomial
naive-Bayes estimate ``(tf + s) / (tf.sum(0) + s * V)``, so each class column
is a probability distribution over the vocabulary. It is a pure function of
the integer term/class counts and ``s``; a bundle stores the counts.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .corpus import UNLABELED, Corpus
from .errors import DataError, json_field, json_fields

# ``embed_corpus`` stops its per-position loop where finishing the longer
# documents one by one costs fewer numpy passes, one document counting as
# EMBED_DOC_COST positions. It works on blocks of rows of EMBED_BLOCK_BYTES
# each: the position loop on that many documents' sums at a time, which keeps
# them and one position's gathered rows in cache, and a long document's tail
# on that many weight rows at a time.
EMBED_DOC_COST = 4
EMBED_BLOCK_BYTES = 2**18


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

    One ``bincount`` over ``label * G + id`` keys of the corpus's encoding
    (G terms) counts every class; the vocabulary is the terms that occur.
    """
    labels = corpus.labels
    if np.any(labels == UNLABELED):
        doc_id = corpus.doc_ids[int(np.argmax(labels == UNLABELED))]
        raise DataError(f"term weights are fitted on labeled documents only: {doc_id!r}")
    enc = corpus.encoding
    g = len(enc.terms)
    keys = np.repeat(labels * g, enc.lengths) + enc.token_ids()
    counts = np.bincount(keys, minlength=corpus.n_classes * g).reshape(corpus.n_classes, g)
    present = np.flatnonzero(counts.any(axis=0))
    vocabulary = {term: i for i, term in enumerate(enc.terms[present].tolist())}
    return vocabulary, counts[:, present].T.astype(np.float64, order="C")


def check_smoothing(smoothing: float) -> float:
    """``smoothing`` as a float; DataError unless it is finite and >= 0."""
    if not 0 <= smoothing <= sys.float_info.max:  # an int past it would not convert
        raise DataError(f"smoothing must be >= 0 and finite, got {smoothing}")
    return float(smoothing)


def weights_from_counts(
    vocabulary: dict[str, int], counts: np.ndarray, smoothing: float, class_names: Sequence[str]
) -> TermClassWeights:
    """``w[t, c] = (tf[t, c] + s) / (sum_t tf[t, c] + s * V)`` and the OOV
    floor ``s / (sum_t tf[t, c] + s * V)``: the one formula of the fit and of
    the bundle reader."""
    smoothing = check_smoothing(smoothing)
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


def embed_corpus(corpus: Corpus, w: TermClassWeights) -> tuple[np.ndarray, list[str]]:
    """Embed every document, preserving order: ``(matrix, corpus.doc_ids)``.

    A row is the mean of its document's weight rows, an out-of-vocabulary
    token counting as the OOV floor, and equals bit for bit the per-token
    sum of ``embed_tokens`` in ``tests/reference.py``: with the documents
    sorted longest first, position p adds the weight row of token p of every
    document longer than p, one block of documents at a time, so each
    document's weights are added in token order from 0.0. The longest
    documents finish one by one with ``np.add.accumulate``, which adds in
    order too. An encoding read through ``w.vocabulary`` holds the weight
    rows' ids already; any other is mapped to them through its term table,
    one position at a time.
    """
    enc = corpus.encoding
    k, v = w.n_classes, w.vocab_size
    # row t holds term t's weights; row v, every out-of-vocabulary term's,
    # adds 0 to them and 1 to column k, the document's count of OOV tokens
    table = np.zeros((v + 1, k + 1), dtype=np.float64)
    table[:v, :k] = w.weights
    table[v, k] = 1.0
    if enc.vocabulary is w.vocabulary:
        rows_of = np.asarray  # the ids are rows already
    elif enc.vocabulary is None:
        rows_of = np.fromiter(
            map(w.vocabulary.get, enc.terms.tolist(), repeat(v)), dtype=np.intp, count=len(enc.terms)
        ).take
    else:
        raise DataError("the documents were read through another vocabulary than the weights'")
    perm = np.argsort(-enc.lengths, kind="stable")
    starts, lens = enc.starts[perm], enc.lengths[perm]
    sums = np.zeros((len(perm), k + 1), dtype=np.float64)
    rows = max(1, EMBED_BLOCK_BYTES // (8 * (k + 1)))
    # n_pos loop positions, then the documents longer than n_pos one by one;
    # longer[p] documents are longer than p
    ends = np.append(lens, 0)
    n_pos = int(ends[np.argmin(ends + EMBED_DOC_COST * np.arange(len(ends)))])
    longer = np.searchsorted(-lens, -np.arange(n_pos))
    for b in range(0, len(perm), rows):
        block, block_starts = sums[b : b + rows], starts[b : b + rows]
        for p, m in enumerate((np.minimum(longer[longer > b], b + rows) - b).tolist()):
            block[:m] += table.take(rows_of(enc.ids.take(block_starts[:m] + p)), axis=0)
    for i in range(int(np.count_nonzero(lens > n_pos))):
        end = starts[i] + lens[i]
        for a in range(starts[i] + n_pos, end, rows):
            chunk = table.take(rows_of(enc.ids[a : min(a + rows, end)]), axis=0)
            chunk[0] += sums[i]
            sums[i] = np.add.accumulate(chunk, axis=0, out=chunk)[-1]
    # the OOV floor, added after the weight rows as the reference
    # ``embed_tokens`` adds it; where there is none this adds 0.0, which
    # changes no sum (a sum from 0.0 is never -0.0)
    sums[:, :k] += sums[:, k, None] * w.oov_weight
    sums[:, :k] /= lens[:, None]
    matrix = np.empty((len(perm), k), dtype=np.float64)
    matrix[perm] = sums[:, :k]
    return matrix, corpus.doc_ids


# ---------------------------------------------------------------------------
# the weight table's part of the bundle (JSON)
# ---------------------------------------------------------------------------

def weights_to_dict(w: TermClassWeights) -> dict:
    """The ``weights`` object of a version-3 or -4 bundle: for each class, the
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
    payload raises ``DataError``, or ``OverflowError`` for an integer past
    int64, which the bundle loader turns into ``DataError``.
    """
    terms = json_field(d, "terms", list[str])
    class_names = tuple(json_field(d, "class_names", list[str]))
    smoothing = check_smoothing(json_field(d, "smoothing", float))
    vocabulary = dict(zip(terms, range(len(terms))))
    if version < 3:
        rows = json_field(d, "weights", list[list[float]])
        if len(rows) != len(terms) or not set(map(len, rows)) <= {len(class_names)}:
            raise DataError("weight matrix shape does not match vocabulary/classes")
        weights = np.array(rows, dtype=np.float64).reshape(len(terms), len(class_names))
        oov = np.array(json_field(d, "oov_weight", list[float]), dtype=np.float64)
        w = TermClassWeights(vocabulary, weights, oov, smoothing, class_names)
        w.validate()
        return w
    entries = json_field(d, "counts", list[dict])
    ids, n = json_fields(entries, "term_ids", list[int]), json_fields(entries, "counts", list[int])
    lengths = list(map(len, ids))
    if len(entries) != len(class_names) or lengths != list(map(len, n)):
        raise DataError("one counts entry per class expected, with one count per term id")
    columns = np.repeat(np.arange(len(class_names)), lengths)
    ids = np.fromiter(chain.from_iterable(ids), np.int64, len(columns))
    n = np.fromiter(chain.from_iterable(n), np.int64, len(columns))
    # within a class, ids increase exactly where these keys do
    keys = columns * len(terms) + ids
    if not (
        np.all((ids >= 0) & (ids < len(terms))) and np.all(np.diff(keys) > 0)
        and np.all((n >= 1) & (n < 2**53))
    ):
        raise DataError(f"term ids must increase in [0, {len(terms)}) within each class, "
                        "with one count in [1, 2**53) each")
    counts = np.zeros((len(terms), len(class_names)), dtype=np.float64)
    counts[ids, columns] = n
    return weights_from_counts(vocabulary, counts, smoothing, class_names)
