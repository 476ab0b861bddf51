"""Synthetic corpora for tests: class-specific vocabularies plus shared noise.

Documents of class c draw most tokens from that class's private word list and
the rest from a shared pool, which gives well-separated class-count embeddings
while still exercising vocabulary overlap, OOV handling and stratified splits.
Everything is seeded and deterministic. ``mutate_lines`` draws broken
copies of line-based files for the hypothesis properties.
"""
from __future__ import annotations

import numpy as np

from textrkm.corpus import Corpus, Document


def make_text_corpus(
    n_classes: int = 4,
    docs_per_class: int = 40,
    doc_len: int = 30,
    class_words: int = 12,
    shared_words: int = 20,
    signal: float = 0.75,
    seed: int = 0,
    class_prefix: str = "topic",
) -> Corpus:
    """Fully labeled corpus with ``n_classes * docs_per_class`` documents."""
    rng = np.random.default_rng(seed)
    shared = [f"common{w}" for w in range(shared_words)]
    private = [
        [f"{class_prefix}{c}word{w}" for w in range(class_words)]
        for c in range(n_classes)
    ]
    documents = []
    labels = []
    for c in range(n_classes):
        for d in range(docs_per_class):
            tokens = []
            for _ in range(doc_len):
                if rng.random() < signal:
                    tokens.append(private[c][int(rng.integers(class_words))])
                else:
                    tokens.append(shared[int(rng.integers(shared_words))])
            documents.append(Document(f"{class_prefix}{c}/doc{d:03d}", tuple(tokens)))
            labels.append(c)
    return Corpus.from_documents(
        documents=documents,
        labels=labels,
        class_names=tuple(f"{class_prefix}{c}" for c in range(n_classes)),
    )


def write_corpus_tree(corpus: Corpus, root) -> None:
    """Materialize a corpus as the <root>/<class>/<file> directory layout."""
    for doc, label in zip(corpus.documents, corpus.labels):
        cdir = root / corpus.class_names[label]
        cdir.mkdir(parents=True, exist_ok=True)
        (cdir / doc.doc_id.split("/")[-1]).write_text(" ".join(doc.tokens), encoding="utf-8")


def make_point_cloud(
    n_classes: int = 4,
    points_per_class: int = 50,
    dim: int = 4,
    center_scale: float = 8.0,
    sigma: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spherical Gaussian blobs at scaled one-hot centers.

    Returns ``(points, true_labels, centers)``; pairwise center distance is
    ``center_scale * sqrt(2)``.
    """
    rng = np.random.default_rng(seed)
    centers = np.eye(max(n_classes, dim))[:n_classes, :dim] * center_scale
    points = []
    labels = []
    for c in range(n_classes):
        pts = rng.normal(loc=centers[c], scale=sigma, size=(points_per_class, dim))
        points.append(pts)
        labels.extend([c] * points_per_class)
    return np.vstack(points), np.array(labels, dtype=np.int64), centers


def mutate_lines(text: str, data, values: list[str]) -> tuple[bytes, str | None]:
    """One drawn mutation of a line-based file, and the line it repeated, if any.

    Drops or repeats a line, replaces one field (tab-separated, or
    space-separated on a ``#`` line) with one of ``values``, truncates the
    bytes or inserts a byte that is not UTF-8. ``data`` is hypothesis's
    ``st.data()``.
    """
    from hypothesis import strategies as st

    raw, lines = text.encode(), text.splitlines()
    kind = data.draw(st.sampled_from(
        ["drop a line", "repeat a line", "replace a field", "truncate", "non-utf-8"]
    ))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw)))], None
    if kind == "non-utf-8":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff" + raw[at:], None
    i = data.draw(st.integers(0, len(lines) - 1))
    repeated = None
    if kind == "drop a line":
        del lines[i]
    elif kind == "repeat a line":
        repeated = lines[i]
        lines.insert(data.draw(st.integers(0, len(lines))), repeated)
    else:
        sep = " " if lines[i].startswith("#") else "\t"
        fields = lines[i].split(sep)
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(values))
        lines[i] = sep.join(fields)
    return ("\n".join(lines) + "\n").encode(), repeated
