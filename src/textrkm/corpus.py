"""Document collections: loading, tokenization, splitting and label masking.

A corpus is an ordered list of documents, stored as one integer encoding of
their tokens, with an optional class label per document. All randomized
operations take an explicit seed and are bitwise deterministic for fixed
inputs. The order of a fully labeled corpus does not matter to a sweep:
``split_train_test`` and ``mask_labels`` draw over and return documents in
(class index, doc id) order, and ``make_training_collection`` draws its pool
over sorted doc ids. A directory-loaded corpus is already in (class
directory, file name) order, which is that order too.
"""
from __future__ import annotations

import os
import re
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, json_field

UNLABELED = -1
STRIP_PATTERN = r"[^a-z0-9]+"


@dataclass(frozen=True)
class Document:
    doc_id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class TokenizerConfig:
    """Token filters, applied after lowercasing and splitting on every
    character outside a-z and 0-9 (``STRIP_PATTERN``, which is fixed)."""

    min_token_len: int = 2
    stopwords: frozenset[str] = frozenset()

    def to_dict(self) -> dict:
        return {
            "min_token_len": self.min_token_len,
            "stopwords": sorted(self.stopwords),
            "strip_pattern": STRIP_PATTERN,
        }

    @staticmethod
    def from_dict(d: Mapping) -> "TokenizerConfig":
        """Inverse of ``to_dict``; another strip pattern, or stopwords not sorted
        and distinct as ``to_dict`` writes them, raise DataError."""
        if d.get("strip_pattern") != STRIP_PATTERN:
            raise DataError(f"tokenizer strip_pattern must be {STRIP_PATTERN!r}")
        stopwords = json_field(d, "stopwords", list[str])
        if stopwords != sorted(set(stopwords)):
            raise DataError("tokenizer stopwords must be sorted and distinct")
        return TokenizerConfig(json_field(d, "min_token_len", int), frozenset(stopwords))


@dataclass(frozen=True, eq=False)
class Encoding:
    """Every token of a corpus as an id into one sorted term table.

    Document i's ids are ``ids[starts[i]:starts[i] + lengths[i]]`` (int32, in
    token order), so ``terms[ids]`` gives its tokens back. A subset or a
    concatenation of one load is a choice of rows: it has rows of ``starts``
    and ``lengths`` (int64) of its own and shares ``ids`` and ``terms`` (an
    object array of str). An encoding read through a ``vocabulary`` (see
    ``DocumentReader``) has no ``terms``: a token's id is its term's id in
    that mapping, or ``len(vocabulary)`` for a term the mapping lacks.
    """

    terms: np.ndarray
    ids: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    vocabulary: Mapping[str, int] | None = None

    def take(self, rows: np.ndarray) -> "Encoding":
        """The encoding of the documents at ``rows``, in that order."""
        return Encoding(self.terms, self.ids, self.starts[rows], self.lengths[rows], self.vocabulary)

    def token_ids(self) -> np.ndarray:
        """The ids of the documents' tokens, one document after another."""
        offsets = np.cumsum(self.lengths) - self.lengths  # of each document in the result
        positions = np.repeat(self.starts - offsets, self.lengths) + np.arange(self.lengths.sum())
        return self.ids[positions]


@dataclass(eq=False)
class Corpus:
    """Ordered documents with per-document optional labels.

    ``doc_ids[i]`` names document i, whose tokens are row i of
    ``encoding``; ``labels[i]`` (int64) is its class index, or UNLABELED
    (-1). ``class_names`` gives the dense index -> name map. ``skipped``
    records the ``(doc_id, why)`` of each file dropped at load time
    ("unreadable", "badly named" or "empty"). A subset takes its rows of its
    parent's encoding and labels, so both share one ``ids`` array. Every
    document has at least one token: a corpus holding one without raises
    DataError.
    """

    doc_ids: list[str]
    labels: np.ndarray
    class_names: tuple[str, ...]
    encoding: Encoding = field(repr=False)
    skipped: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        lengths = self.encoding.lengths
        if not lengths.all():
            raise DataError(f"document {self.doc_ids[int(np.argmin(lengths))]!r} has no tokens")

    @classmethod
    def from_documents(
        cls, documents: Sequence[Document], labels: Sequence[int | None], class_names: Sequence[str]
    ) -> "Corpus":
        """A corpus of in-memory documents, encoded over their sorted terms; a
        label of None is UNLABELED."""
        terms = sorted(set(chain.from_iterable(d.tokens for d in documents)))
        id_of = {t: i for i, t in enumerate(terms)}
        lengths = np.array([len(d.tokens) for d in documents], dtype=np.int64)
        tokens = chain.from_iterable(d.tokens for d in documents)
        ids = np.fromiter(map(id_of.__getitem__, tokens), dtype=np.int32, count=int(lengths.sum()))
        encoding = Encoding(np.array(terms, dtype=object), ids, np.cumsum(lengths) - lengths, lengths)
        labels = np.array([UNLABELED if v is None else v for v in labels], dtype=np.int64)
        return cls([d.doc_id for d in documents], labels, tuple(class_names), encoding)

    @property
    def documents(self) -> list[Document]:
        """The documents with their tokens, decoded anew from the encoding.

        A corpus read through a vocabulary keeps no term table to decode
        from: DataError."""
        enc = self.encoding
        if enc.vocabulary is not None:
            raise DataError("a corpus read through a vocabulary keeps no term table: "
                            "its documents cannot be decoded")
        tokens = enc.terms[enc.token_ids()].tolist()
        bounds = [0, *np.cumsum(enc.lengths).tolist()]
        return [Document(d, tuple(tokens[a:b])) for d, a, b in zip(self.doc_ids, bounds, bounds[1:])]

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, indices: Sequence[int], drop_labels: bool = False) -> "Corpus":
        """The documents at ``indices`` (negative ones count from the end), in that order."""
        rows = np.asarray(indices, dtype=np.intp)
        return Corpus(
            doc_ids=[self.doc_ids[i] for i in rows.tolist()],
            labels=np.full(len(rows), UNLABELED, dtype=np.int64) if drop_labels else self.labels[rows],
            class_names=self.class_names,
            encoding=self.encoding.take(rows),
        )


def concat_corpora(a: Corpus, b: Corpus) -> Corpus:
    """Append b's documents after a's: rows of one load, which share its
    ``ids``, under one class name table; anything else raises DataError."""
    if a.class_names != b.class_names:
        raise DataError("cannot concatenate corpora with different class tables")
    ea, eb = a.encoding, b.encoding
    if ea.ids is not eb.ids:
        raise DataError("cannot concatenate corpora of different loads")
    rows = np.concatenate([ea.starts, eb.starts]), np.concatenate([ea.lengths, eb.lengths])
    encoding = Encoding(ea.terms, ea.ids, *rows, ea.vocabulary)
    return Corpus(a.doc_ids + b.doc_ids, np.concatenate([a.labels, b.labels]), a.class_names, encoding)


# ---------------------------------------------------------------------------
# tokenization and reading files
# ---------------------------------------------------------------------------

# Byte -> token byte: A-Z lowercased, a-z and 0-9 kept, any other byte a
# space. On latin-1 text this is lower() followed by STRIP_PATTERN -> " ",
# since no latin-1 character but A-Z lowercases into [a-z0-9].
_FOLD = bytes(c | 0x20 if chr(c).isascii() and chr(c).isalnum() else 0x20 for c in range(256))

# The token that joins the documents of a batch; _FOLD never produces "|".
_SEPARATOR = "|"

# Bytes of file text tokenized at a time, and the size of each read call. A
# batch holds whole files and is cut once it reaches this size, so the
# transient words and ids of a batch stay a small multiple of it; a larger
# file is tokenized in pieces of about this size.
READ_BATCH_BYTES = 2**18

# A character that a tab-separated output line cannot carry: a tab, a line
# break of str.splitlines, or a lone surrogate (a file name that is not UTF-8).
_UNUSABLE_IN_NAME = re.compile("[\t\n\v\f\r\x1c-\x1e\x85\u2028\u2029\ud800-\udfff]")


def _usable_name(name: str) -> bool:
    """False for a name that is not UTF-8, holds a tab or a line break, or
    begins with "#" (which manifests and label files read as a comment)."""
    if name.startswith("#"):
        return False
    return name.isprintable() or _UNUSABLE_IN_NAME.search(name) is None


class _TermTable(dict):
    """Word -> its id if kept, -2 if the filters drop it, -1 for the batch
    separator. A word missing from the table meets the length and stopword
    filters once. Without a vocabulary, kept words get provisional ids in
    the order they are first seen; with one, the table starts as a copy of
    it less the terms the filters drop, and any other kept word gets the id
    ``len(vocabulary)`` on every lookup without being stored, so the table
    does not grow with the distinct words of the input."""

    def __init__(self, config: TokenizerConfig, vocabulary: Mapping[str, int] | None = None):
        super().__init__(vocabulary or {})
        self.min_len, self.stopwords = config.min_token_len, config.stopwords
        self.kept: list[str] = []  # kept words by provisional id
        self.oov = None
        if vocabulary is not None:
            self.oov = len(vocabulary)
            too_short = [term for term in vocabulary if len(term) < self.min_len]
            for term in [*self.stopwords, *too_short]:
                self.pop(term, None)
        self[_SEPARATOR] = -1  # over a term "|" of the vocabulary

    def __missing__(self, word: str) -> int:
        value = -2
        if len(word) >= self.min_len and word not in self.stopwords:
            if self.oov is not None:
                return self.oov
            value = len(self.kept)
            self.kept.append(word)
        self[word] = value
        return value


class DocumentReader:
    """Reads files as latin-1 text into one encoding under one tokenizer config.

    Files are tokenized a batch at a time: the folded texts of a batch are
    joined by the separator token, split once, and every word is mapped to
    its id in one pass over the term table. A file of ``READ_BATCH_BYTES``
    or more is added a piece at a time, each piece but the last a batch of
    its own, and its kept-token count is carried from piece to piece.
    Without a ``vocabulary``, ``encoding`` sorts the kept words and remaps
    the ids once; with one, words get their ids there as they are read (see
    ``Encoding``), and nothing is sorted.
    """

    def __init__(self, config: TokenizerConfig, vocabulary: Mapping[str, int] | None = None):
        self.terms = _TermTable(config, vocabulary)
        self.vocabulary = vocabulary
        self.doc_ids: list[str] = []
        self._ids = array("i")  # the id of every kept token
        self._lengths = array("q")  # the kept-token count of every document
        self._open = 0  # kept tokens of the pieces added of a file not yet ended

    def read(self, files: Iterable[tuple[str, str | Path | None]]) -> list[tuple[str, str]]:
        """Add the documents of ``(doc_id, path)`` files, in order; return the
        ``(doc_id, "unreadable", "empty" or "badly named")`` of each file
        skipped, in file order. A path of None (no regular file) is unreadable,
        and a doc id that ``_usable_name`` rejects is badly named; neither is
        opened."""
        return list(chain.from_iterable(self.batches(files)))

    def batches(self, files: Iterable[tuple[str, str | Path | None]]) -> Iterator[list[tuple[str, str]]]:
        """``read``, yielding the skipped files of each batch once the batch is
        added. Between batches no file is partly added, so a caller may
        ``pop`` the documents read so far."""
        batch: list[tuple[str, bytes | str]] = []  # (doc_id, file bytes or why it was skipped)
        size = 0
        for doc_id, path in files:
            if not _usable_name(doc_id):
                batch.append((doc_id, "badly named"))
                continue
            mark = None  # the ids and terms before the first piece of a long file
            try:
                if path is None:
                    raise FileNotFoundError
                fd = os.open(path, os.O_RDONLY)
                try:
                    data = b""
                    while part := os.read(fd, READ_BATCH_BYTES):
                        data += part
                        # a long file: add all but its last piece, each cut
                        # after a byte that folds to a space, on its own
                        if len(data) >= READ_BATCH_BYTES and (
                            cut := data.translate(_FOLD).rfind(b" ") + 1
                        ):
                            if mark is None:
                                yield self._add_batch(batch)
                                batch, size = [], 0
                                mark = len(self._ids), len(self.terms.kept)
                            self._add_piece(data[:cut])
                            data = data[cut:]
                finally:
                    os.close(fd)
            except OSError:
                if mark is not None:  # forget the pieces already added
                    del self._ids[mark[0]:]
                    for word in self.terms.kept[mark[1]:]:
                        del self.terms[word]
                    del self.terms.kept[mark[1]:]
                    self._open = 0
                batch.append((doc_id, "unreadable"))
                continue
            batch.append((doc_id, data))
            size += len(data)
            if size >= READ_BATCH_BYTES:
                yield self._add_batch(batch)
                batch, size = [], 0
        yield self._add_batch(batch)

    def _add_piece(self, data: bytes) -> None:
        """Append the kept tokens of a piece of a file that more pieces follow."""
        words = data.translate(_FOLD).decode("ascii").split()
        ids = np.fromiter(map(self.terms.__getitem__, words), dtype=np.int32, count=len(words))
        ids = ids[ids >= 0]
        self._ids.frombytes(ids.tobytes())
        self._open += ids.size

    def _add_batch(self, batch: list[tuple[str, bytes | str]]) -> list[tuple[str, str]]:
        """Append the documents of a batch that keep a token; return the
        ``(doc_id, why)`` of the others, in batch order. The first file of
        the batch ends the pieces added since the last batch, if any."""
        texts = [data.translate(_FOLD) for _, data in batch if isinstance(data, bytes)]
        words = f" {_SEPARATOR} ".encode().join(texts).decode("ascii").split()
        ids = np.fromiter(map(self.terms.__getitem__, words), dtype=np.int32, count=len(words))
        del words  # the largest transient of a batch
        kept = ids >= 0
        lengths = np.bincount(np.cumsum(ids == -1, dtype=np.int32)[kept], minlength=len(texts))
        lengths[:1] += self._open
        self._open = 0
        self._lengths.frombytes(lengths[lengths > 0].tobytes())
        self._ids.frombytes(ids[kept].tobytes())
        skipped, n_kept = [], iter(lengths.tolist())
        for doc_id, data in batch:
            if isinstance(data, str):
                skipped.append((doc_id, data))
            elif next(n_kept):
                self.doc_ids.append(doc_id)
            else:
                skipped.append((doc_id, "empty"))
        return skipped

    def pop(self) -> Corpus:
        """The documents read since the last pop, unlabeled and with no class
        names, which the reader then forgets; its term table stays."""
        popped = Corpus(self.doc_ids, np.full(len(self.doc_ids), UNLABELED), (), self.encoding())
        self.doc_ids, self._ids, self._lengths = [], array("i"), array("q")
        return popped

    def encoding(self) -> Encoding:
        """The documents read so far, over their sorted terms or through the
        reader's vocabulary."""
        ids, lengths = np.frombuffer(self._ids, dtype=np.intc), np.array(self._lengths, dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        if self.vocabulary is not None:
            return Encoding(np.empty(0, dtype=object), ids.copy(), starts, lengths, self.vocabulary)
        kept = self.terms.kept
        order = np.array(sorted(range(len(kept)), key=kept.__getitem__), dtype=np.intp)
        sorted_id = np.empty(len(order), dtype=np.int32)
        sorted_id[order] = np.arange(len(order), dtype=np.int32)
        return Encoding(np.array(kept, dtype=object)[order], sorted_id[ids], starts, lengths)


def scan_directory(directory: str | Path) -> list[tuple[str, bool, str | None]]:
    """``(name, is_dir, path)`` of each entry of ``directory``, sorted by name;
    ``path`` is None for an entry that is neither a directory nor a regular
    file (a pipe, on which ``open`` blocks, or a broken or looping link)."""
    listing = []
    with os.scandir(directory) as entries:
        for e in entries:
            try:
                is_dir = e.is_dir()
                path = e.path if is_dir or e.is_file() else None
            except OSError:  # a link that loops
                is_dir, path = False, None
            listing.append((e.name, is_dir, path))
    return sorted(listing)


def load_directory_corpus(
    root_path: str | Path, config: TokenizerConfig = TokenizerConfig()
) -> Corpus:
    """Load a ``<root>/<class-name>/<doc-file>`` tree as a fully labeled corpus.

    Class names are the immediate subdirectory names, sorted lexicographically
    and indexed densely; a class name that ``_usable_name`` rejects is an
    error. Files are read as latin-1 text. Documents that are unreadable
    (not a regular file, or failing to open), badly named (like such a
    class) or empty after tokenization are skipped (listed with the reason
    in ``corpus.skipped``); a class left with zero documents is an error.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise DataError(f"corpus root {root} is not a directory")
    class_names = [name for name, is_dir, _ in scan_directory(root) if is_dir]
    if not class_names:
        raise DataError(f"corpus root {root} contains no class directories")
    for name in class_names:
        if not _usable_name(name):
            raise DataError(f"class directory name {name!r} is not UTF-8, holds a tab "
                            "or a line break, or begins with '#'")

    reader, labels, skipped = DocumentReader(config), [], []
    for ci, name in enumerate(class_names):
        files = [(f"{name}/{f}", p) for f, is_dir, p in scan_directory(root / name) if not is_dir]
        n_before = len(reader.doc_ids)
        skipped += reader.read(files)
        if len(reader.doc_ids) == n_before:
            raise DataError(f"class directory {root / name} has no readable non-empty documents")
        labels += [ci] * (len(reader.doc_ids) - n_before)
    labels = np.array(labels, dtype=np.int64)
    return Corpus(reader.doc_ids, labels, tuple(class_names), reader.encoding(), tuple(skipped))


# ---------------------------------------------------------------------------
# splitting and masking
# ---------------------------------------------------------------------------

def _stratified_draw(
    corpus: Corpus, fraction: float, rng_seed: int, spare: int, too_small: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per class, draw ``round(fraction * size)`` of its documents, at least 1
    and at most ``size - spare``; ``(drawn, rest)`` rows in (class index, doc
    id) order. A smaller class than ``1 + spare`` raises ``too_small``."""
    labels = corpus.labels
    if ((labels < 0) | (labels >= corpus.n_classes)).any():
        raise DataError("operation requires a fully labeled corpus, each label a class of its table")
    # every row, grouped by class and in doc id order within a class:
    # independent of the corpus's order
    ids = corpus.doc_ids
    rows = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    rows = rows[np.argsort(labels[rows], kind="stable")]
    rng = np.random.default_rng(rng_seed)
    chosen = np.zeros(len(rows), dtype=bool)
    start, sizes = 0, np.bincount(labels, minlength=corpus.n_classes).tolist()
    for name, size in zip(corpus.class_names, sizes):
        if size < 1 + spare:
            raise DataError(too_small.format(name=name, n=size))
        n = min(max(int(round(size * fraction)), 1), size - spare)
        chosen[start + rng.permutation(size)[:n]] = True
        start += size
    return rows[chosen], rows[~chosen]


def check_test_fraction(test_fraction: float) -> None:
    """DataError unless ``test_fraction`` lies strictly between 0 and 1."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0,1), got {test_fraction}")


def split_train_test(
    corpus: Corpus, test_fraction: float = 0.5, rng_seed: int = 0
) -> tuple[Corpus, Corpus]:
    """Stratified random train/test split; both sides keep their labels.

    Both sides list their documents in (class index, doc id) order.
    """
    check_test_fraction(test_fraction)
    test_idx, train_idx = _stratified_draw(
        corpus, test_fraction, rng_seed, spare=1,
        too_small="class {name!r} has {n} document(s); "
        "need at least 2 to appear on both sides of the split",
    )
    return corpus.subset(train_idx), corpus.subset(test_idx)


def mask_labels(corpus: Corpus, labeled_fraction: float, rng_seed: int) -> tuple[Corpus, Corpus]:
    """Hide labels on all but a stratified fraction of a labeled corpus.

    Returns ``(d_labeled, d_unlabeled)``. The unlabeled corpus carries no
    label, so the ground truth cannot leak into a learner that only sees the
    two corpora. Every class keeps at least one labeled document regardless
    of the fraction. Both corpora list their documents in (class index, doc
    id) order.
    """
    if not 0.0 < labeled_fraction < 1.0:
        raise DataError(f"labeled_fraction must be in (0,1), got {labeled_fraction}")
    labeled_idx, unlabeled_idx = _stratified_draw(
        corpus, labeled_fraction, rng_seed, spare=0,
        too_small="class {name!r} has no documents; cannot keep one labeled",
    )
    return corpus.subset(labeled_idx), corpus.subset(unlabeled_idx, drop_labels=True)


def make_training_collection(
    d_labeled: Corpus,
    d_unlabeled: Corpus,
    pool_size: int | None = None,
    rng_seed: int = 0,
) -> Corpus:
    """Labeled docs plus a uniform unlabeled sample, as one training corpus.

    ``pool_size`` is the number of unlabeled documents to draw (without
    replacement), an int; None takes the whole unlabeled set. Sampled
    documents carry no label.
    """
    if d_labeled.class_names != d_unlabeled.class_names:
        raise DataError("labeled/unlabeled corpora have different class tables")
    ids = d_unlabeled.doc_ids
    rows = np.arange(len(ids))
    if pool_size is not None:
        if type(pool_size) is not int:  # int() would read True as 1 and cut 2.5 to 2
            raise DataError(f"pool size must be an int, got {pool_size!r}")
        if pool_size > len(ids):
            raise DataError(f"requested {pool_size} unlabeled documents but only {len(ids)} available")
        if pool_size < 0:
            raise DataError(f"pool size must be >= 0, got {pool_size}")
        order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
        perm = np.random.default_rng(rng_seed).permutation(len(order))
        rows = np.sort(order[perm[:pool_size]])
    return concat_corpora(d_labeled, d_unlabeled.subset(rows, drop_labels=True))


# ---------------------------------------------------------------------------
# split manifests (replayable trials)
# ---------------------------------------------------------------------------

SIDE_TRAIN = "train"
SIDE_TEST = "test"


def write_split_manifest(
    path: str | Path,
    train_ids: Iterable[str],
    test_ids: Iterable[str],
    labeled_ids: Iterable[str],
    meta: Mapping[str, str] | None = None,
) -> None:
    """Write ``doc_id<TAB>side<TAB>labeled_flag`` lines, one per document.

    ``meta`` entries are recorded as leading ``# key value`` comment lines
    (trial seed, ratio, ...), which readers surface back as strings.
    """
    labeled = set(labeled_ids)
    lines = []
    for key, value in (meta or {}).items():
        lines.append(f"# {key} {value}")
    for doc_id in train_ids:
        flag = 1 if doc_id in labeled else 0
        lines.append(f"{doc_id}\t{SIDE_TRAIN}\t{flag}")
    for doc_id in test_ids:
        lines.append(f"{doc_id}\t{SIDE_TEST}\t0")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_split_manifest(path: str | Path) -> tuple[dict[str, str], list[tuple[str, str, int]]]:
    """Parse a split manifest back into (meta, [(doc_id, side, labeled_flag)])."""
    meta: dict[str, str] = {}
    entries: list[tuple[str, str, int]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split(None, 1)
            if len(parts) == 2:
                meta[parts[0]] = parts[1]
            continue
        fields = line.split("\t")
        if len(fields) != 3 or fields[1] not in (SIDE_TRAIN, SIDE_TEST):
            raise DataError(f"{path}:{lineno}: malformed manifest line {line!r}")
        if fields[2] not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: labeled flag {fields[2]!r} is not 0 or 1")
        entries.append((fields[0], fields[1], int(fields[2])))
    return meta, entries


def apply_split_manifest(
    corpus: Corpus, entries: list[tuple[str, str, int]]
) -> tuple[Corpus, Corpus, dict[str, int]]:
    """Rebuild (train, test, labeled id set) from a fully labeled corpus.

    Returns ``(train, test, labeled_flags)`` where ``labeled_flags`` maps
    train doc ids to the manifest's labeled flag. Every manifest doc id must
    exist in the corpus and be listed once.
    """
    by_id = {doc_id: i for i, doc_id in enumerate(corpus.doc_ids)}
    train_idx: list[int] = []
    test_idx: list[int] = []
    flags: dict[str, int] = {}
    for doc_id, side, flag in entries:
        i = by_id.pop(doc_id, None)
        if i is None:
            raise DataError(f"manifest doc id {doc_id!r} not present in corpus or listed twice")
        if side == SIDE_TRAIN:
            train_idx.append(i)
            flags[doc_id] = flag
        else:
            test_idx.append(i)
    return corpus.subset(train_idx), corpus.subset(test_idx), flags


def mask_from_flags(train: Corpus, labeled_flags: Mapping[str, int]) -> tuple[Corpus, Corpus]:
    """Replay a recorded mask: same return contract as ``mask_labels``."""
    labeled_idx = [i for i, d in enumerate(train.doc_ids) if labeled_flags.get(d)]
    unlabeled_idx = [i for i, d in enumerate(train.doc_ids) if not labeled_flags.get(d)]
    return train.subset(labeled_idx), train.subset(unlabeled_idx, drop_labels=True)
