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
from array import array
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class SplitSpec:
    """How to carve a labeled corpus into train and test halves."""

    test_fraction: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise DataError(f"test_fraction must be in (0,1), got {self.test_fraction}")


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
    ``skipped`` records doc ids dropped at load time (unreadable or empty
    after tokenization). A subset's encoding is cut from its parent's, so
    both share one term table.
    """

    doc_ids: list[str]
    labels: list[int | None]
    class_names: tuple[str, ...]
    encoding: Encoding = field(repr=False)
    skipped: tuple[str, ...] = ()

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
    def n_labeled(self) -> int:
        return sum(1 for v in self.labels if v is not None)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def label_array(self) -> np.ndarray:
        """Labels as int64 with UNLABELED (-1) for missing."""
        return np.array([UNLABELED if v is None else v for v in self.labels], dtype=np.int64)

    def fully_labeled(self) -> bool:
        return all(v is not None for v in self.labels)

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


class DocumentReader:
    """Reads files as latin-1 text into one encoding under one tokenizer config.

    ``terms`` maps each distinct word seen to 1 + its provisional id (ids
    in the order the kept words were first seen), or to 0 when the filters
    reject it. ``encoding`` sorts the kept words and remaps the ids once.
    """

    def __init__(self, config: TokenizerConfig):
        self.config = config
        self.terms: dict[str, int] = {}
        self.doc_ids: list[str] = []
        self._kept: list[str] = []  # kept words by provisional id
        self._ids = array("i")  # 1 + provisional id of every kept token
        self._indptr = array("q", [0])

    def add(self, doc_id: str, data: bytes) -> bool:
        """Append the kept tokens of latin-1 ``data`` as document ``doc_id``;
        False, with nothing appended, when no token is kept."""
        words = data.translate(_FOLD).decode("ascii").split()
        start = len(self._ids)
        try:
            self._ids.extend(filter(None, map(self.terms.__getitem__, words)))
        except KeyError:  # words not seen before meet the filters once
            del self._ids[start:]
            n, stopwords = self.config.min_token_len, self.config.stopwords
            for w in set(words).difference(self.terms):
                if len(w) >= n and w not in stopwords:
                    self._kept.append(w)
                    self.terms[w] = len(self._kept)
                else:
                    self.terms[w] = 0
            self._ids.extend(filter(None, map(self.terms.__getitem__, words)))
        if len(self._ids) == start:
            return False
        self.doc_ids.append(doc_id)
        self._indptr.append(len(self._ids))
        return True

    def read(self, files: Iterable[tuple[str, str | Path | None]]) -> list[tuple[str, str]]:
        """Add the documents of ``(doc_id, path)`` files, in order; return the
        ``(doc_id, "unreadable" or "empty")`` of each file skipped. A path of
        None (no regular file) is unreadable and never opened."""
        skipped = []
        for doc_id, path in files:
            try:
                if path is None:
                    raise FileNotFoundError
                with open(path, "rb") as f:
                    data = f.read()
            except OSError:
                skipped.append((doc_id, "unreadable"))
                continue
            if not self.add(doc_id, data):
                skipped.append((doc_id, "empty"))
        return skipped

    def encoding(self) -> Encoding:
        """The documents added so far, over their sorted terms."""
        order = np.array(sorted(range(len(self._kept)), key=self._kept.__getitem__), dtype=np.intp)
        sorted_id = np.zeros(len(order) + 1, dtype=np.int32)
        sorted_id[order + 1] = np.arange(len(order), dtype=np.int32)
        return Encoding(
            np.array(self._kept, dtype=object)[order],
            sorted_id[np.frombuffer(self._ids, dtype=np.intc)],
            np.array(self._indptr, dtype=np.int64),
        )


def tokenize(raw_text: str, config: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Lowercase, split on every character outside a-z and 0-9 (what is left
    outside ASCII becomes "?" first); then the stopword and length filters."""
    reader = DocumentReader(config)
    reader.add("", raw_text.lower().encode("ascii", "replace"))
    enc = reader.encoding()
    return enc.terms[enc.ids].tolist()


def _holds(test: Callable[[], bool]) -> bool:
    """``test()`` of a directory entry; False where it raises (a link that loops)."""
    try:
        return test()
    except OSError:
        return False


def load_directory_corpus(
    root_path: str | Path, config: TokenizerConfig = TokenizerConfig()
) -> Corpus:
    """Load a ``<root>/<class-name>/<doc-file>`` tree as a fully labeled corpus.

    Class names are the immediate subdirectory names, sorted lexicographically
    and indexed densely. Files are read as latin-1 text. Documents that are
    unreadable (not a regular file, or failing to open) or empty after
    tokenization are skipped (counted in ``corpus.skipped``); a class left
    with zero documents is an error.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise DataError(f"corpus root {root} is not a directory")
    with os.scandir(root) as entries:
        class_names = sorted(e.name for e in entries if _holds(e.is_dir))
    if not class_names:
        raise DataError(f"corpus root {root} contains no class directories")

    reader, labels, skipped = DocumentReader(config), [], []
    for ci, name in enumerate(class_names):
        # every entry but directories; a pipe or a broken link is never opened
        with os.scandir(root / name) as entries:
            files = sorted((e.name, e.path if _holds(e.is_file) else None)
                           for e in entries if not _holds(e.is_dir))
        n_before = len(reader.doc_ids)
        skipped += [doc_id for doc_id, _ in reader.read((f"{name}/{f}", p) for f, p in files)]
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


def split_train_test(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Stratified random train/test split; both sides keep their labels.

    Both sides list their documents in (class index, doc id) order.
    """
    test_idx, train_idx = _stratified_draw(
        corpus, spec.test_fraction, spec.rng_seed, spare=1,
        too_small="class {name!r} has {n} document(s); "
        "need at least 2 to appear on both sides of the split",
    )
    return corpus.subset(train_idx), corpus.subset(test_idx)


def mask_labels(
    corpus: Corpus, labeled_fraction: float, rng_seed: int
) -> tuple[Corpus, Corpus, dict[str, int]]:
    """Hide labels on all but a stratified fraction of a labeled corpus.

    Returns ``(d_labeled, d_unlabeled, hidden)`` where ``hidden`` maps each
    unlabeled doc id to its ground-truth class index. The ground truth never
    rides on the unlabeled corpus itself, so it cannot leak into a learner
    that only sees the two corpora. Every class keeps at least one labeled
    document regardless of the fraction. Both corpora list their documents
    in (class index, doc id) order.
    """
    if not 0.0 < labeled_fraction < 1.0:
        raise DataError(f"labeled_fraction must be in (0,1), got {labeled_fraction}")
    labeled_idx, unlabeled_idx = _stratified_draw(
        corpus, labeled_fraction, rng_seed, spare=0,
        too_small="class {name!r} has no documents; cannot keep one labeled",
    )
    hidden = {corpus.doc_ids[i]: corpus.labels[i] for i in unlabeled_idx}
    return corpus.subset(labeled_idx), corpus.subset(unlabeled_idx, drop_labels=True), hidden


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
    n_pool = len(ids) if pool_size is None else int(pool_size)
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


def mask_from_flags(
    train: Corpus, labeled_flags: Mapping[str, int]
) -> tuple[Corpus, Corpus, dict[str, int]]:
    """Replay a recorded mask: same return contract as ``mask_labels``."""
    labeled_idx = [i for i, d in enumerate(train.doc_ids) if labeled_flags.get(d)]
    unlabeled_idx = [i for i, d in enumerate(train.doc_ids) if not labeled_flags.get(d)]
    hidden = {train.doc_ids[i]: train.labels[i] for i in unlabeled_idx}
    return train.subset(labeled_idx), train.subset(unlabeled_idx, drop_labels=True), hidden
