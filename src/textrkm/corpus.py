"""Document collections: loading, tokenization, splitting and label masking.

A corpus is an ordered list of tokenized documents with an optional class
label per document. All randomized operations take an explicit seed and are
bitwise deterministic for fixed inputs. The order of a fully labeled corpus
does not matter to a sweep: ``split_train_test`` and ``mask_labels`` draw
over and return documents in (class index, doc id) order, and
``make_training_collection`` draws its pool over sorted doc ids. A
directory-loaded corpus is already in (class directory, file name) order,
which is that order too.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping

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
    array of str; subsets and concatenations share it.
    """

    terms: np.ndarray
    ids: np.ndarray
    indptr: np.ndarray

    def take(self, rows: np.ndarray) -> "Encoding":
        """The encoding of the documents at ``rows``, in that order."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        positions = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return Encoding(self.terms, self.ids[positions], indptr)


def encode(documents: list[Document], distinct: Iterable[str] | None = None) -> Encoding:
    """The encoding of ``documents``; ``distinct``, if given, holds their terms."""
    if distinct is None:
        distinct = set(chain.from_iterable(d.tokens for d in documents))
    terms = sorted(distinct)
    id_of = {t: i for i, t in enumerate(terms)}
    indptr = np.concatenate([[0], np.cumsum([len(d.tokens) for d in documents], dtype=np.int64)])
    ids = np.fromiter(
        map(id_of.__getitem__, chain.from_iterable(d.tokens for d in documents)),
        dtype=np.int32,
        count=int(indptr[-1]),
    )
    return Encoding(np.array(terms, dtype=object), ids, indptr)


@dataclass
class Corpus:
    """Ordered documents with per-document optional labels.

    ``labels[i]`` is the class index of ``documents[i]`` or None when the
    document is unlabeled. ``class_names`` gives the dense index -> name map.
    ``skipped`` records doc ids dropped at load time (unreadable or empty
    after tokenization). ``encoding`` is built on first use by ``encoded``;
    a subset's is cut from its parent's, so both share one term table.
    ``documents`` must not change once the corpus is encoded.
    """

    documents: list[Document]
    labels: list[int | None]
    class_names: tuple[str, ...]
    skipped: tuple[str, ...] = ()
    encoding: Encoding | None = field(default=None, repr=False, compare=False)

    def encoded(self) -> Encoding:
        if self.encoding is None:
            self.encoding = encode(self.documents)
        return self.encoding

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    @property
    def n_labeled(self) -> int:
        return sum(1 for v in self.labels if v is not None)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def doc_ids(self) -> list[str]:
        return [d.doc_id for d in self.documents]

    def label_array(self) -> np.ndarray:
        """Labels as int64 with UNLABELED (-1) for missing."""
        return np.array(
            [UNLABELED if v is None else v for v in self.labels], dtype=np.int64
        )

    def fully_labeled(self) -> bool:
        return all(v is not None for v in self.labels)

    def validate(self) -> None:
        if len(self.labels) != len(self.documents):
            raise DataError("labels and documents length mismatch")
        seen = set()
        for d in self.documents:
            if not d.tokens:
                raise DataError(f"document {d.doc_id!r} has no tokens")
            if d.doc_id in seen:
                raise DataError(f"duplicate doc id {d.doc_id!r}")
            seen.add(d.doc_id)
        for v in self.labels:
            if v is not None and not 0 <= v < self.n_classes:
                raise DataError(f"label {v} out of range for {self.n_classes} classes")

    def subset(self, indices: Iterable[int], drop_labels: bool = False) -> "Corpus":
        idx = list(indices)
        return Corpus(
            documents=[self.documents[i] for i in idx],
            labels=[None if drop_labels else self.labels[i] for i in idx],
            class_names=self.class_names,
            encoding=self.encoded().take(np.arange(self.n_docs)[idx]),
        )


def concat_corpora(a: Corpus, b: Corpus) -> Corpus:
    """Append b's documents after a's; class name tables must agree."""
    if a.class_names != b.class_names:
        raise DataError("cannot concatenate corpora with different class tables")
    ea, eb = a.encoded(), b.encoded()
    encoding = None
    if ea.terms is eb.terms:  # else the result encodes itself on first use
        indptr = np.concatenate([ea.indptr, ea.indptr[-1] + eb.indptr[1:]])
        encoding = Encoding(ea.terms, np.concatenate([ea.ids, eb.ids]), indptr)
    return Corpus(
        documents=a.documents + b.documents,
        labels=a.labels + b.labels,
        class_names=a.class_names,
        encoding=encoding,
    )


# ---------------------------------------------------------------------------
# tokenization and reading files
# ---------------------------------------------------------------------------

# Byte -> token byte: A-Z lowercased, a-z and 0-9 kept, any other byte a
# space. On latin-1 text this is lower() followed by STRIP_PATTERN -> " ",
# since no latin-1 character but A-Z lowercases into [a-z0-9].
_FOLD = bytes(c | 0x20 if chr(c).isascii() and chr(c).isalnum() else 0x20 for c in range(256))


class DocumentReader:
    """Reads files as latin-1 text into Documents under one tokenizer config.

    ``terms`` maps each distinct word seen to itself, the one str object all
    documents hold for it, or to "" when the filters reject it.
    """

    def __init__(self, config: TokenizerConfig):
        self.config = config
        self.terms: dict[str, str] = {}

    def tokens(self, data: bytes) -> tuple[str, ...]:
        """The kept tokens of latin-1 ``data``, in order."""
        words = data.translate(_FOLD).decode("ascii").split()
        try:
            return tuple(filter(None, map(self.terms.__getitem__, words)))
        except KeyError:  # words not seen before meet the filters once
            n, stopwords = self.config.min_token_len, self.config.stopwords
            for w in set(words).difference(self.terms):
                self.terms[w] = w if len(w) >= n and w not in stopwords else ""
        return tuple(filter(None, map(self.terms.__getitem__, words)))

    def read(
        self, files: Iterable[tuple[str, str | Path]]
    ) -> tuple[list[Document], list[tuple[str, str]]]:
        """The documents of ``(doc_id, path)`` files, in order, and the
        ``(doc_id, "unreadable" or "empty")`` of each file skipped."""
        documents, skipped = [], []
        for doc_id, path in files:
            try:
                with open(path, "rb") as f:
                    data = f.read()
            except OSError:
                skipped.append((doc_id, "unreadable"))
                continue
            tokens = self.tokens(data)
            if tokens:
                documents.append(Document(doc_id, tokens))
            else:
                skipped.append((doc_id, "empty"))
        return documents, skipped


def tokenize(raw_text: str, config: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Lowercase, split on every character outside a-z and 0-9 (what is left
    outside ASCII becomes "?" first); then the stopword and length filters."""
    return list(DocumentReader(config).tokens(raw_text.lower().encode("ascii", "replace")))


def _is_dir(entry: os.DirEntry) -> bool:
    try:
        return entry.is_dir()
    except OSError:  # a link that loops: listed as a file, skipped when read
        return False


def load_directory_corpus(
    root_path: str | Path, config: TokenizerConfig = TokenizerConfig()
) -> Corpus:
    """Load a ``<root>/<class-name>/<doc-file>`` tree as a fully labeled corpus.

    Class names are the immediate subdirectory names, sorted lexicographically
    and indexed densely. Files are read as latin-1 text. Documents that are
    unreadable or empty after tokenization are skipped (counted in
    ``corpus.skipped``); a class left with zero documents is an error. The
    corpus comes encoded, and each distinct term is one str object.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise DataError(f"corpus root {root} is not a directory")
    with os.scandir(root) as entries:
        class_names = sorted(e.name for e in entries if _is_dir(e))
    if not class_names:
        raise DataError(f"corpus root {root} contains no class directories")

    reader = DocumentReader(config)
    documents: list[Document] = []
    labels: list[int | None] = []
    skipped: list[str] = []
    for ci, name in enumerate(class_names):
        # every entry but directories: broken links and such skip as unreadable
        with os.scandir(root / name) as entries:
            files = sorted((e.name, e.path) for e in entries if not _is_dir(e))
        docs, skips = reader.read((f"{name}/{f}", path) for f, path in files)
        if not docs:
            raise DataError(f"class directory {root / name} has no readable non-empty documents")
        documents += docs
        labels += [ci] * len(docs)
        skipped += [doc_id for doc_id, _ in skips]

    corpus = Corpus(
        documents=documents,
        labels=labels,
        class_names=tuple(class_names),
        skipped=tuple(skipped),
        encoding=encode(documents, filter(None, reader.terms.values())),
    )
    corpus.validate()
    return corpus


# ---------------------------------------------------------------------------
# splitting and masking
# ---------------------------------------------------------------------------

def _class_members(corpus: Corpus) -> list[list[int]]:
    """Per-class document indices ordered by doc id (load-order independent)."""
    members: list[list[int]] = [[] for _ in range(corpus.n_classes)]
    for i, lab in enumerate(corpus.labels):
        if lab is None:
            raise DataError("operation requires a fully labeled corpus")
        members[lab].append(i)
    for m in members:
        m.sort(key=lambda i: corpus.documents[i].doc_id)
    return members


def split_train_test(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Stratified random train/test split; both sides keep their labels.

    Both sides list their documents in (class index, doc id) order.
    """
    rng = np.random.default_rng(spec.rng_seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for ci, members in enumerate(_class_members(corpus)):
        if len(members) < 2:
            raise DataError(
                f"class {corpus.class_names[ci]!r} has {len(members)} document(s); "
                "need at least 2 to appear on both sides of the split"
            )
        n_test = int(round(len(members) * spec.test_fraction))
        n_test = min(max(n_test, 1), len(members) - 1)
        perm = rng.permutation(len(members))
        chosen = {members[p] for p in perm[:n_test]}
        test_idx.extend(i for i in members if i in chosen)
        train_idx.extend(i for i in members if i not in chosen)
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
    rng = np.random.default_rng(rng_seed)
    labeled_idx: list[int] = []
    unlabeled_idx: list[int] = []
    for ci, members in enumerate(_class_members(corpus)):
        if not members:
            raise DataError(
                f"class {corpus.class_names[ci]!r} has no documents; cannot keep one labeled"
            )
        n_lab = int(round(len(members) * labeled_fraction))
        n_lab = min(max(n_lab, 1), len(members))
        perm = rng.permutation(len(members))
        chosen = {members[p] for p in perm[:n_lab]}
        labeled_idx.extend(i for i in members if i in chosen)
        unlabeled_idx.extend(i for i in members if i not in chosen)
    hidden = {corpus.documents[i].doc_id: corpus.labels[i] for i in unlabeled_idx}
    return (
        corpus.subset(labeled_idx),
        corpus.subset(unlabeled_idx, drop_labels=True),
        hidden,
    )


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
    if pool_size is None:  # every document in its order: nothing to draw or gather
        pool = Corpus(d_unlabeled.documents, [None] * d_unlabeled.n_docs, d_unlabeled.class_names)
        pool.encoding = d_unlabeled.encoded()
        return concat_corpora(d_labeled, pool)
    n_pool = int(pool_size)
    if n_pool > d_unlabeled.n_docs:
        raise DataError(
            f"requested {n_pool} unlabeled documents but only {d_unlabeled.n_docs} available"
        )
    if n_pool < 0:
        raise DataError(f"pool size must be >= 0, got {n_pool}")
    order = sorted(range(d_unlabeled.n_docs), key=lambda i: d_unlabeled.documents[i].doc_id)
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(len(order))
    sampled = sorted(order[p] for p in perm[:n_pool])
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
    by_id = {d.doc_id: i for i, d in enumerate(corpus.documents)}
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
    labeled_idx = [i for i, d in enumerate(train.documents) if labeled_flags.get(d.doc_id)]
    unlabeled_idx = [i for i, d in enumerate(train.documents) if not labeled_flags.get(d.doc_id)]
    hidden = {train.documents[i].doc_id: train.labels[i] for i in unlabeled_idx}
    return train.subset(labeled_idx), train.subset(unlabeled_idx, drop_labels=True), hidden
