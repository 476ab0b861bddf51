"""Seeded synthetic corpora for the benchmark, written as files.

A document of class c draws each token from c's private word list with
probability ``signal`` and from a shared pool otherwise. Draws are made per
class with numpy, so the 10k-document sweep shapes generate in a fraction of
a second. The generator is the ground truth: it returns the class name of
every document it writes, and the benchmark scores predictions against that
map rather than against anything the program under test reports.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    n_classes: int
    docs_per_class: int
    doc_len: int
    class_words: int
    shared_words: int
    signal: float
    sentences: bool = False  # capitalized sentences with periods, news-style


def class_names(shape: Shape) -> list[str]:
    return [f"topic{c:02d}" for c in range(shape.n_classes)]


def make_docs(shape: Shape, rng: np.random.Generator, docs_per_class: int) -> list[tuple[int, str]]:
    """``(class index, text)`` for ``docs_per_class`` documents of every class."""
    vocab = [f"common{w}" for w in range(shape.shared_words)]
    docs: list[tuple[int, str]] = []
    for c in range(shape.n_classes):
        offset = len(vocab)
        vocab += [f"topic{c}word{w}" for w in range(shape.class_words)]
        size = (docs_per_class, shape.doc_len)
        private = rng.random(size) < shape.signal
        ids = np.where(
            private,
            offset + rng.integers(shape.class_words, size=size),
            rng.integers(shape.shared_words, size=size),
        )
        for row in ids.tolist():
            words = [vocab[i] for i in row]
            if shape.sentences:
                words = _as_sentences(words)
            docs.append((c, " ".join(words)))
    return docs


def _as_sentences(words: list[str], length: int = 12) -> list[str]:
    """Capitalize each sentence's first word and end it with a period."""
    out = list(words)
    for start in range(0, len(out), length):
        out[start] = out[start].capitalize()
        end = min(start + length, len(out)) - 1
        out[end] += "."
    return out


def _write(path: Path, text: str) -> None:
    # one open, write and close: file creation dominates set-up time
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        if os.write(fd, data) != len(data):
            raise OSError(f"short write to {path}")
    finally:
        os.close(fd)


def write_tree(root: Path, shape: Shape, seed: int) -> dict[str, str]:
    """Write a ``<root>/<class>/<file>`` corpus; return doc id -> class name."""
    names = class_names(shape)
    truth: dict[str, str] = {}
    counters = [0] * shape.n_classes
    for c, text in make_docs(shape, np.random.default_rng(seed), shape.docs_per_class):
        cdir = root / names[c]
        if counters[c] == 0:
            cdir.mkdir(parents=True)
        fname = f"doc{counters[c]:04d}.txt"
        counters[c] += 1
        _write(cdir / fname, text)
        truth[f"{names[c]}/{fname}"] = names[c]
    return truth


def write_flat(directory: Path, shape: Shape, seed: int, docs_per_class: int) -> dict[str, str]:
    """Write unseen documents, classes shuffled together, into one flat
    directory; return file name -> class name."""
    names = class_names(shape)
    rng = np.random.default_rng(seed)
    docs = make_docs(shape, rng, docs_per_class)
    order = rng.permutation(len(docs))
    directory.mkdir(parents=True)
    truth: dict[str, str] = {}
    for pos, i in enumerate(order.tolist()):
        c, text = docs[i]
        fname = f"doc{pos:05d}.txt"
        _write(directory / fname, text)
        truth[fname] = names[c]
    return truth
