"""Class-count document embedding: one vector component per class.

Instead of a full bag-of-words matrix, every document becomes a K-vector
whose j-th component is the average relevance of its tokens to class j. The
relevance table is fitted on labeled documents only: the multinomial
naive-Bayes estimate ``(tf + s) / (tf.sum(0) + s * V)``, so each class column
is a probability distribution over the vocabulary. It is a pure function of
the integer term/class counts and ``s``.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .corpus import UNLABELED, Corpus, Encoding, id_dtype
from .errors import DataError

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
    count matrix they derive from, or None for a table given without them.
    A table fitted on a load's documents keeps that load's term table,
    ``terms``, and the id there of each vocabulary term in row order,
    ``term_ids``: ``embed_corpus`` maps the load's ids to rows through them
    with no lookup. A table read from a bundle has neither.
    """

    vocabulary: dict[str, int]
    weights: np.ndarray
    oov_weight: np.ndarray
    smoothing: float
    class_names: tuple[str, ...]
    counts: np.ndarray | None = None
    terms: np.ndarray | None = None
    term_ids: np.ndarray | None = None

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


def _present_term_counts(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """The ids, ascending, of the terms of the corpus's term table that
    occur, and their (V, K) float64 counts.

    One ``bincount`` over ``label * G + id`` keys of the corpus's encoding
    (G terms) counts every class. The ids are added to the label parts in
    place, so that no more than two int64s per token are held at once.
    """
    labels = corpus.labels
    if np.any(labels == UNLABELED):
        doc_id = corpus.doc_ids[int(np.argmax(labels == UNLABELED))]
        raise DataError(f"term weights are fitted on labeled documents only: {doc_id!r}")
    enc = corpus.encoding
    g = len(enc.terms)
    ids = enc.token_ids()
    keys = np.repeat(labels * g, enc.lengths)
    keys += ids
    del ids
    counts = np.bincount(keys, minlength=corpus.n_classes * g).reshape(corpus.n_classes, g)
    del keys
    present = np.flatnonzero(counts.any(axis=0))
    return present, counts[:, present].T.astype(np.float64, order="C")


def _vocabulary(terms: np.ndarray, term_ids: np.ndarray) -> dict[str, int]:
    return {term: i for i, term in enumerate(terms[term_ids].tolist())}


def check_smoothing(smoothing: float) -> float:
    """``smoothing`` as a float; DataError unless it is finite and >= 0."""
    if not 0 <= smoothing <= sys.float_info.max:  # an int past it would not convert
        raise DataError(f"smoothing must be >= 0 and finite, got {smoothing}")
    return float(smoothing)


def weights_from_counts(
    vocabulary: dict[str, int], counts: np.ndarray, smoothing: float, class_names: Sequence[str]
) -> TermClassWeights:
    """``w[t, c] = (tf[t, c] + s) / (sum_t tf[t, c] + s * V)`` and the OOV
    floor ``s / (sum_t tf[t, c] + s * V)``: the one formula of the table,
    for fitted counts and stored ones alike."""
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
    term_ids, tf = _present_term_counts(d_labeled)
    terms = d_labeled.encoding.terms
    w = weights_from_counts(_vocabulary(terms, term_ids), tf, smoothing, d_labeled.class_names)
    return replace(w, terms=terms, term_ids=term_ids)


@dataclass(frozen=True, eq=False)
class TokenLayout:
    """The order in which ``embed_corpus`` adds up the tokens of an encoding.

    The documents go longest first (``perm``, with their ``starts`` and
    ``lens`` in that order), in blocks of ``block_rows``. For each position p
    below ``n_pos``, a block adds token p of each of its documents longer
    than p (``longer[p]`` documents of the whole order are); each document
    longer than ``n_pos`` then finishes alone. ``ids`` holds the ids the
    position loop reads, in the order it reads them, in the smallest
    unsigned dtype that holds every id of the encoding; without it, each
    step gathers its ids from the encoding.
    """

    encoding: Encoding
    perm: np.ndarray
    starts: np.ndarray
    lens: np.ndarray
    longer: np.ndarray
    n_pos: int
    block_rows: int
    ids: np.ndarray | None = None

    def steps(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(b, ids)`` for each position of each block, in loop order:
        ``ids`` are the tokens at that position of the ``len(ids)``
        documents from row ``b`` of the order on."""
        a = 0
        rows = self.block_rows
        for b in range(0, len(self.perm), rows):
            block_starts = self.starts[b : b + rows]
            for p, m in enumerate((np.minimum(self.longer[self.longer > b], b + rows) - b).tolist()):
                if self.ids is None:
                    yield b, self.encoding.ids.take(block_starts[:m] + p)
                else:
                    yield b, self.ids[a : a + m]
                    a += m

    @cached_property
    def _by_start(self) -> np.ndarray:
        return np.argsort(self.starts, kind="stable")

    def rows_of(self, corpus: Corpus) -> np.ndarray:
        """The row of the order of each of the corpus's documents; DataError
        for a document the layout lacks."""
        enc, by_start = corpus.encoding, self._by_start
        rows = np.zeros(corpus.n_docs, dtype=np.intp)
        found = np.zeros(corpus.n_docs, dtype=bool)
        if enc.ids is self.encoding.ids and by_start.size:
            at = np.searchsorted(self.starts[by_start], enc.starts).clip(max=by_start.size - 1)
            rows = by_start[at]
            found = (self.starts[rows] == enc.starts) & (self.lens[rows] == enc.lengths)
        if not found.all():
            doc_id = corpus.doc_ids[int(np.argmin(found))]
            raise DataError(f"document {doc_id!r} is not in the token layout")
        return rows


def token_layout(enc: Encoding, n_classes: int, store: bool = True) -> TokenLayout:
    """The ``TokenLayout`` of ``enc`` for weights of ``n_classes`` classes,
    its position loop's ids stored if ``store``. The loop stops where
    finishing the longer documents one by one costs fewer numpy passes, one
    document counting as ``EMBED_DOC_COST`` positions; a block holds as many
    documents' sums as fit in ``EMBED_BLOCK_BYTES``."""
    perm = np.argsort(-enc.lengths, kind="stable")
    starts, lens = enc.starts[perm], enc.lengths[perm]
    rows = max(1, EMBED_BLOCK_BYTES // (8 * (n_classes + 1)))
    ends = np.append(lens, 0)
    n_pos = int(ends[np.argmin(ends + EMBED_DOC_COST * np.arange(len(ends)))])
    longer = np.searchsorted(-lens, -np.arange(n_pos))
    layout = TokenLayout(enc, perm, starts, lens, longer, n_pos, rows)
    if not store:
        return layout
    n_ids = len(enc.terms) if enc.vocabulary is None else len(enc.vocabulary) + 1
    ids = np.empty(int(np.minimum(lens, n_pos).sum()), dtype=id_dtype(n_ids))
    a = 0
    for _, part in layout.steps():
        ids[a : a + len(part)] = part
        a += len(part)
    return replace(layout, ids=ids)


def _id_table(enc: Encoding, w: TermClassWeights) -> np.ndarray:
    """The weight table indexed by the encoding's ids, one column more: row
    i holds the weights of the term with id i and 0, or, for a term out of
    the vocabulary, zeros and 1, which counts the document's OOV tokens."""
    k, v = w.n_classes, w.vocab_size
    if enc.vocabulary is w.vocabulary:
        n_ids, ids, rows = v + 1, slice(v), slice(v)  # the ids are rows already; v is OOV
    elif enc.vocabulary is not None:
        raise DataError("the documents were read through another vocabulary than the weights'")
    elif enc.terms is w.terms:
        n_ids, ids, rows = len(enc.terms), w.term_ids, slice(v)
    else:
        rows = np.fromiter(
            map(w.vocabulary.get, enc.terms.tolist(), repeat(-1)), dtype=np.intp, count=len(enc.terms)
        )
        n_ids, ids = len(enc.terms), np.flatnonzero(rows >= 0)
        rows = rows[ids]
    table = np.zeros((n_ids, k + 1), dtype=np.float64)
    table[:, k] = 1.0
    table[ids, :k] = w.weights[rows]
    table[ids, k] = 0.0
    return table


def embed_corpus(
    corpus: Corpus, w: TermClassWeights, layout: TokenLayout | None = None
) -> tuple[np.ndarray, list[str]]:
    """Embed every document, preserving order: ``(matrix, corpus.doc_ids)``.

    A row is the mean of its document's weight rows, an out-of-vocabulary
    token counting as the OOV floor, and equals bit for bit the per-token
    sum of ``embed_tokens`` in ``tests/reference.py``: in the order of a
    ``TokenLayout``, position p adds the weight row of token p of every
    document longer than p, one block of documents at a time, so each
    document's weights are added in token order from 0.0. The longest
    documents finish one by one with ``np.add.accumulate``, which adds in
    order too, over one block of rows at a time. The weight table is indexed
    by the encoding's own ids (``_id_table``).

    Without ``layout``, the call lays the corpus out and gathers each
    position's ids as it goes. A stored ``token_layout`` of any rows of the
    corpus's load that hold all its documents gives the same rows bit for
    bit; a document it lacks is a DataError. A sweep stores one per half
    and reuses it for every trial's table.
    """
    enc = corpus.encoding
    k = w.n_classes
    table = _id_table(enc, w)
    if layout is None:
        layout = token_layout(enc, k, store=False)
        at = np.empty_like(layout.perm)
        at[layout.perm] = np.arange(len(at))
    else:
        at = layout.rows_of(corpus)
    starts, lens, n_pos, rows = layout.starts, layout.lens, layout.n_pos, layout.block_rows
    sums = np.zeros((len(lens), k + 1), dtype=np.float64)
    for b, ids in layout.steps():
        sums[b : b + len(ids)] += table.take(ids, axis=0)
    for i in range(int(np.count_nonzero(lens > n_pos))):
        end = starts[i] + lens[i]
        for a in range(starts[i] + n_pos, end, rows):
            chunk = table.take(enc.ids[a : min(a + rows, end)], axis=0)
            chunk[0] += sums[i]
            sums[i] = np.add.accumulate(chunk, axis=0, out=chunk)[-1]
    # the OOV floor, added after the weight rows as the reference
    # ``embed_tokens`` adds it; where there is none this adds 0.0, which
    # changes no sum (a sum from 0.0 is never -0.0)
    sums[:, :k] += sums[:, k, None] * w.oov_weight
    sums[:, :k] /= lens[:, None]
    return sums[at, :k], corpus.doc_ids
