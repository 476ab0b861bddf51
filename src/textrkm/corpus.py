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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError

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
        """Inverse of ``to_dict``; a missing or other strip pattern raises DataError."""
        if "strip_pattern" not in d or d["strip_pattern"] != STRIP_PATTERN:
            raise DataError(f"tokenizer strip_pattern must be {STRIP_PATTERN!r}")
        return TokenizerConfig(
            min_token_len=int(d["min_token_len"]),
            stopwords=frozenset(d["stopwords"]),
        )


@dataclass(frozen=True, eq=False)
class Encoding:
    """Every token of a corpus as an id into one sorted term table.

    Document i's ids are ``ids[indptr[i]:indptr[i + 1]]`` (int32, in token
    order), so ``terms[ids]`` gives its tokens back. ``terms`` is an object
    array of str, which subsets share.
    """

    terms: np.ndarray
    ids: np.ndarray
    indptr: np.ndarray

    def take(self, rows: np.ndarray) -> "Encoding":
        """The encoding of the documents at ``rows``, in that order (all, in order: itself)."""
        if np.array_equal(rows, np.arange(len(self.indptr) - 1)):
            return self
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        positions = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return Encoding(self.terms, self.ids[positions], indptr)

    def concat(self, other: "Encoding") -> "Encoding":
        """This encoding's documents, then ``other``'s: over the term table
        both share, or else over the sorted union of the two tables."""
        terms, a, b = self.terms, self.ids, other.ids
        if other.terms is not terms:
            terms, new_id = np.unique(np.concatenate([terms, other.terms]), return_inverse=True)
            new_id = new_id.astype(np.int32)
            a, b = new_id[a], new_id[len(self.terms) + b]
        indptr = np.concatenate([self.indptr, self.indptr[-1] + other.indptr[1:]])
        return Encoding(terms, np.concatenate([a, b]), indptr)


@dataclass
class Corpus:
    """Ordered documents with per-document optional labels.

    ``doc_ids[i]`` names document i, whose tokens are row i of
    ``encoding``; ``labels[i]`` is its class index, or None when it is
    unlabeled. ``class_names`` gives the dense index -> name map.
    ``skipped`` records the ``(doc_id, why)`` of each file dropped at load
    time ("unreadable", "badly named" or "empty"). A subset's encoding is
    cut from its parent's, so both share one term table.
    """

    doc_ids: list[str]
    labels: list[int | None]
    class_names: tuple[str, ...]
    encoding: Encoding = field(repr=False)
    skipped: tuple[tuple[str, str], ...] = ()

    @classmethod
    def from_documents(
        cls, documents: Sequence[Document], labels: Sequence[int | None], class_names: Sequence[str]
    ) -> "Corpus":
        """A corpus of in-memory documents, encoded over their sorted terms."""
        terms = sorted(set(chain.from_iterable(d.tokens for d in documents)))
        id_of = {t: i for i, t in enumerate(terms)}
        indptr = np.concatenate([[0], np.cumsum([len(d.tokens) for d in documents], dtype=np.int64)])
        tokens = chain.from_iterable(d.tokens for d in documents)
        ids = np.fromiter(map(id_of.__getitem__, tokens), dtype=np.int32, count=int(indptr[-1]))
        encoding = Encoding(np.array(terms, dtype=object), ids, indptr)
        return cls([d.doc_id for d in documents], list(labels), tuple(class_names), encoding)

    @property
    def documents(self) -> list[Document]:
        """The documents with their tokens, decoded anew from the encoding."""
        enc = self.encoding
        tokens, bounds = enc.terms[enc.ids].tolist(), enc.indptr.tolist()
        return [Document(d, tuple(tokens[a:b])) for d, a, b in zip(self.doc_ids, bounds, bounds[1:])]

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def label_array(self) -> np.ndarray:
        """Labels as int64 with UNLABELED (-1) for missing."""
        return np.array([UNLABELED if v is None else v for v in self.labels], dtype=np.int64)

    def subset(self, indices: Iterable[int], drop_labels: bool = False) -> "Corpus":
        rows = np.arange(self.n_docs)[np.fromiter(indices, dtype=np.intp)]
        idx = rows.tolist()
        return Corpus(
            doc_ids=[self.doc_ids[i] for i in idx],
            labels=[None] * len(idx) if drop_labels else [self.labels[i] for i in idx],
            class_names=self.class_names,
            encoding=self.encoding.take(rows),
        )


def concat_corpora(a: Corpus, b: Corpus) -> Corpus:
    """Append b's documents after a's; class name tables must agree."""
    if a.class_names != b.class_names:
        raise DataError("cannot concatenate corpora with different class tables")
    return Corpus(
        doc_ids=a.doc_ids + b.doc_ids,
        labels=a.labels + b.labels,
        class_names=a.class_names,
        encoding=a.encoding.concat(b.encoding),
    )


# ---------------------------------------------------------------------------
# tokenization and reading files
# ---------------------------------------------------------------------------

# Byte -> token byte: A-Z lowercased, a-z and 0-9 kept, any other byte a
# space. On latin-1 text this is lower() followed by STRIP_PATTERN -> " ",
# since no latin-1 character but A-Z lowercases into [a-z0-9].
_FOLD = bytes(c | 0x20 if chr(c).isascii() and chr(c).isalnum() else 0x20 for c in range(256))

# The token that joins the documents of a batch; _FOLD never produces "|".
_SEPARATOR = b"|"

# Bytes of file text tokenized at a time, and the size of each read call. A
# batch holds whole files and is cut once it reaches this size, so the
# transient words and ids of a batch stay a small multiple of it.
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
    """Word (ASCII bytes) -> 1 + its provisional id if kept, 0 if the filters
    drop it, -1 for the batch separator. A word missing from the table meets
    the length and stopword filters once; kept words get ids in the order
    they are first seen."""

    def __init__(self, config: TokenizerConfig):
        super().__init__({_SEPARATOR: -1})
        self.min_len, self.stopwords = config.min_token_len, config.stopwords
        self.kept: list[bytes] = []  # kept words by provisional id

    def __missing__(self, word: bytes) -> int:
        value = 0
        if len(word) >= self.min_len and word.decode("ascii") not in self.stopwords:
            self.kept.append(word)
            value = len(self.kept)
        self[word] = value
        return value


def _read_file(path: str | Path) -> bytes:
    fd = os.open(path, os.O_RDONLY)
    try:
        parts = []
        while part := os.read(fd, READ_BATCH_BYTES):
            parts.append(part)
    finally:
        os.close(fd)
    return b"".join(parts)


class DocumentReader:
    """Reads files as latin-1 text into one encoding under one tokenizer config.

    Files are tokenized a batch at a time: the folded texts of a batch are
    joined by the separator token, split once, and every word is mapped to
    its id in one pass over the term table. ``encoding`` sorts the kept words
    and remaps the ids once.
    """

    def __init__(self, config: TokenizerConfig):
        self.terms = _TermTable(config)
        self.doc_ids: list[str] = []
        self._ids = array("i")  # 1 + provisional id of every kept token
        self._indptr = array("q", [0])

    def read(self, files: Iterable[tuple[str, str | Path | None]]) -> list[tuple[str, str]]:
        """Add the documents of ``(doc_id, path)`` files, in order; return the
        ``(doc_id, "unreadable", "empty" or "badly named")`` of each file
        skipped, in file order. A path of None (no regular file) is unreadable,
        and a doc id that ``_usable_name`` rejects is badly named; neither is
        opened."""
        skipped: list[tuple[str, str]] = []
        batch: list[tuple[str, bytes | str]] = []  # (doc_id, file bytes or why it was skipped)
        size = 0
        for doc_id, path in files:
            if not _usable_name(doc_id):
                batch.append((doc_id, "badly named"))
                continue
            try:
                if path is None:
                    raise FileNotFoundError
                data = _read_file(path)
            except OSError:
                batch.append((doc_id, "unreadable"))
                continue
            batch.append((doc_id, data))
            size += len(data)
            if size >= READ_BATCH_BYTES:
                skipped += self._add_batch(batch)
                batch, size = [], 0
        skipped += self._add_batch(batch)
        return skipped

    def _add_batch(self, batch: list[tuple[str, bytes | str]]) -> list[tuple[str, str]]:
        """Append the documents of a batch that keep a token; return the
        ``(doc_id, why)`` of the others, in batch order."""
        texts = [data.translate(_FOLD) for _, data in batch if isinstance(data, bytes)]
        words = (b" " + _SEPARATOR + b" ").join(texts).split()
        ids = np.fromiter(map(self.terms.__getitem__, words), dtype=np.int32, count=len(words))
        del words  # the largest transient of a batch
        kept = ids > 0
        lengths = np.bincount(np.cumsum(ids < 0, dtype=np.int32)[kept], minlength=len(texts))
        self._indptr.frombytes((len(self._ids) + np.cumsum(lengths[lengths > 0])).tobytes())
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

    def encoding(self) -> Encoding:
        """The documents read so far, over their sorted terms."""
        kept = self.terms.kept
        order = np.array(sorted(range(len(kept)), key=kept.__getitem__), dtype=np.intp)
        sorted_id = np.zeros(len(order) + 1, dtype=np.int32)
        sorted_id[order + 1] = np.arange(len(order), dtype=np.int32)
        return Encoding(
            np.array([w.decode("ascii") for w in kept], dtype=object)[order],
            sorted_id[np.frombuffer(self._ids, dtype=np.intc)],
            np.array(self._indptr, dtype=np.int64),
        )


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
    return Corpus(reader.doc_ids, labels, tuple(class_names), reader.encoding(), tuple(skipped))


# ---------------------------------------------------------------------------
# splitting and masking
# ---------------------------------------------------------------------------

def _stratified_draw(
    corpus: Corpus, fraction: float, rng_seed: int, spare: int, too_small: str
) -> tuple[list[int], list[int]]:
    """Per class, draw ``round(fraction * size)`` of its documents, at least 1
    and at most ``size - spare``; ``(drawn, rest)`` in (class index, doc id)
    order. A smaller class than ``1 + spare`` raises ``too_small``."""
    members: list[list[int]] = [[] for _ in range(corpus.n_classes)]
    for i, lab in enumerate(corpus.labels):
        if lab is None:
            raise DataError("operation requires a fully labeled corpus")
        members[lab].append(i)
    rng = np.random.default_rng(rng_seed)
    drawn, rest = [], []
    for name, m in zip(corpus.class_names, members):
        if len(m) < 1 + spare:
            raise DataError(too_small.format(name=name, n=len(m)))
        m.sort(key=corpus.doc_ids.__getitem__)  # independent of the corpus's order
        n = min(max(int(round(len(m) * fraction)), 1), len(m) - spare)
        chosen = {m[p] for p in rng.permutation(len(m))[:n]}
        drawn.extend(i for i in m if i in chosen)
        rest.extend(i for i in m if i not in chosen)
    return drawn, rest


def split_train_test(
    corpus: Corpus, test_fraction: float = 0.5, rng_seed: int = 0
) -> tuple[Corpus, Corpus]:
    """Stratified random train/test split; both sides keep their labels.

    Both sides list their documents in (class index, doc id) order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0,1), got {test_fraction}")
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
    replacement); None takes the whole unlabeled set. Sampled documents carry
    no label.
    """
    if d_labeled.class_names != d_unlabeled.class_names:
        raise DataError("labeled/unlabeled corpora have different class tables")
    ids = d_unlabeled.doc_ids
    if pool_size is None:
        return concat_corpora(d_labeled, d_unlabeled.subset(range(len(ids)), drop_labels=True))
    n_pool = int(pool_size)
    if n_pool > len(ids):
        raise DataError(f"requested {n_pool} unlabeled documents but only {len(ids)} available")
    if n_pool < 0:
        raise DataError(f"pool size must be >= 0, got {n_pool}")
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    perm = np.random.default_rng(rng_seed).permutation(len(order))
    sampled = np.sort(order[perm[:n_pool]])
    return concat_corpora(d_labeled, d_unlabeled.subset(sampled, drop_labels=True))


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
