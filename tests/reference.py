"""Reference definitions the program is checked against.

Each is the plain, slow form of something the program computes another way:
one document's embedding summed token by token, one vector's nearest-centroid
prediction, the full difference tensor for euclidean assignment, cosine
distances pair by pair, an unbuffered scatter-add for centroid sums, the
textbook Lloyd loop over those two and its objective per iteration, and the
per-cluster label statistics that the recursion computes for all clusters
at once. ``tokenize`` runs the program's file reader on one str, so
that the tokenizing rule can be checked on text, and ``cmd_classify`` is the
``classify`` command that reads its whole input before it embeds any of it.
"""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from textrkm.classifier import Prediction, classify_batch
from textrkm.cli import _warn_skipped, load_bundle
from textrkm.corpus import DocumentReader, TokenizerConfig, scan_directory
from textrkm.errors import DataError
from textrkm.representation import TermClassWeights, embed_corpus
from textrkm.rkmeans import KMeansConfig, kmeans


def tokenize(raw_text: str, config: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Lowercase, split on every character outside a-z and 0-9 (what is left
    outside ASCII becomes "?" first); then the stopword and length filters.

    The tokens are those ``DocumentReader`` reads from a file of those bytes.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc"
        path.write_bytes(raw_text.lower().encode("ascii", "replace"))
        reader = DocumentReader(config)
        reader.read([("doc", path)])
    enc = reader.encoding()
    return enc.terms[enc.ids].tolist()


def embed_tokens(tokens, w: TermClassWeights) -> np.ndarray:
    """Reference: average the per-token weight rows into one K-vector.

    Out-of-vocabulary tokens contribute the OOV floor and still count in the
    denominator, which keeps the token-count-weighted concatenation identity
    exact. For a table with counts, every weight of class c is
    ``(tf[t, c] + s) / D[c]`` with ``D = sum_t tf + s * V``, so the mean is
    ``(S[c] + s * n) / (n * D[c])``, ``S[c]`` being the counts of the ``n``
    tokens summed as Python ints. A table without counts adds the weight
    rows in token order from 0.0, the OOV floor after them, and divides by
    ``n``. ``embed_corpus`` reproduces each row bit for bit.
    """
    if not tokens:
        raise DataError("cannot embed a document with zero tokens")
    if w.counts is not None:
        n, s = len(tokens), w.smoothing
        rows = [w.vocabulary[tok] for tok in tokens if tok in w.vocabulary]
        denominators = w.counts.sum(axis=0) + s * len(w.vocabulary)
        numerators = [sum(int(w.counts[i, c]) for i in rows) for c in range(w.n_classes)]
        return np.array([(float(num) + s * n) / (n * d) for num, d in zip(numerators, denominators)])
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


def classify(vector, model, doc_id: str = "") -> Prediction:
    """Reference: ``classify_batch`` of one vector."""
    (prediction,) = classify_batch(np.asarray(vector, dtype=np.float64).reshape(1, -1), model, [doc_id])
    return prediction


def cmd_classify(args) -> int:
    """Reference: ``cli.cmd_classify`` as one pass over the whole input. The
    files are listed up front and read into one encoding over the input's
    own sorted terms, which ``embed_corpus`` maps to the weights' rows; the
    predictions are written at once, to ``--out`` itself."""
    model, weights, tokenizer = load_bundle(args.model)
    path = Path(args.input)
    if path.is_file():
        base, files = path.parent, [(path.name, path)]
    elif path.is_dir():
        base, files = path, []
        for name, is_dir, p in scan_directory(path):
            if is_dir:
                files += [(f"{name}/{f}", q) for f, sub, q in scan_directory(p) if not sub]
            else:
                files.append((name, p))
    else:
        raise DataError(f"input path {path} does not exist")
    if not files:
        raise DataError(f"no input documents under {path}")
    reader = DocumentReader(tokenizer)
    _warn_skipped(base, reader.read(files))
    if not reader.doc_ids:
        raise DataError(f"no usable documents under {path}")
    x, doc_ids = embed_corpus(reader.pop(), weights)
    preds = classify_batch(x, model, doc_ids)
    lines = [f"{p.doc_id}\t{model.class_names[p.label]}\t{p.distance!r}" for p in preds]
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(preds)} predictions written to {out}")
    return 0


def unblocked_euclidean(x, centroids):
    """Reference: the whole ``(n, m, d)`` difference tensor at once."""
    diff = x[:, None, :] - centroids[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    assign = d2.argmin(axis=1).astype(np.int64)
    return assign, d2[np.arange(x.shape[0]), assign]


def cosine_distances(x, centroids):
    """Reference: the ``(n, m)`` matrix of 1 - cosine similarity, with
    similarity 0 where either vector is zero."""
    x_norms = np.sqrt((x * x).sum(axis=1))
    c_norms = np.sqrt((centroids * centroids).sum(axis=1))
    dist = np.ones((x.shape[0], centroids.shape[0]))
    for i, j in np.argwhere(np.outer(x_norms, c_norms) > 0):
        dist[i, j] = 1.0 - float(x[i] @ centroids[j]) / (x_norms[i] * c_norms[j])
    return dist


def add_at_sums(x, assign, n_clusters):
    """Reference: unbuffered scatter-add of each row into its cluster."""
    sums = np.zeros((n_clusters, x.shape[1]), dtype=np.float64)
    np.add.at(sums, assign, x)
    return sums, np.bincount(assign, minlength=n_clusters).astype(np.int64)


def lloyd_reference(x, seeds, max_iterations, tolerance):
    """Euclidean Lloyd iteration on the reference kernels.

    Assign, move each centroid to its members' mean; an empty cluster is
    reseeded on the farthest point (one point per cluster, lowest cluster
    index first) and forces another pass, unless the centroids came out as
    they went in; stop when no centroid moves by ``tolerance`` or more.
    The final means are summed again from the last assignment, and clusters
    that ended empty are dropped. Returns ``(assignments, centroids, counts,
    n_iter)``.
    """
    centroids = np.array(seeds, dtype=np.float64)
    k = centroids.shape[0]
    n_iter = 0
    for _ in range(max_iterations):
        n_iter += 1
        assign, dist = unblocked_euclidean(x, centroids)
        sums, counts = add_at_sums(x, assign, k)
        means = centroids.copy()
        for j in range(k):
            if counts[j]:
                means[j] = sums[j] / counts[j]
        empties = [j for j in range(k) if counts[j] == 0][: x.shape[0]]
        if empties:
            farthest = np.argsort(-dist, kind="stable")
            for j, i in zip(empties, farthest):
                means[j] = x[i]
            if np.array_equal(means, centroids):
                break
            centroids = means
            continue
        shift = max(np.sqrt(((means[j] - centroids[j]) ** 2).sum()) for j in range(k))
        centroids = means
        if shift < tolerance:
            break
    sums, counts = add_at_sums(x, assign, k)
    kept = [j for j in range(k) if counts[j]]
    renumber = {j: new for new, j in enumerate(kept)}
    return (
        np.array([renumber[j] for j in assign], dtype=np.int64),
        np.array([sums[j] / counts[j] for j in kept]),
        counts[kept],
        n_iter,
    )


def lloyd_objectives(x, seeds, config=KMeansConfig()):
    """The partition SSE after each iteration of ``kmeans(x, seeds, config)``,
    read from the program's own runs cut off after 1, 2, ... ``n_iter``
    iterations: each run's summed squared euclidean distance from every
    point to its cluster's mean."""
    n_iter = kmeans(x, seeds, config).n_iter
    objectives = []
    for i in range(1, n_iter + 1):
        run = kmeans(x, seeds, KMeansConfig(config.distance, max_iterations=i))
        diff = x - run.centroids[run.assignments]
        objectives.append(float(np.einsum("ij,ij->", diff, diff)))
    return objectives


def cluster_class_stats(member_labels: np.ndarray, n_classes: int) -> tuple[int, np.ndarray]:
    """(number of distinct labeled classes, per-class labeled counts)."""
    member_labels = np.asarray(member_labels, dtype=np.int64)
    lab = member_labels[member_labels >= 0]
    lsp = np.bincount(lab, minlength=n_classes).astype(np.int64)
    return int((lsp > 0).sum()), lsp


def majority_label(lsp: np.ndarray) -> int:
    """Class with the highest labeled count; ties go to the lowest index."""
    lsp = np.asarray(lsp)
    if lsp.sum() <= 0:
        raise DataError("cluster has no labeled members")
    return int(np.argmax(lsp))


def relative_percentage(lsp: np.ndarray, majority: int, other: int) -> float:
    """100 * labeled count of ``other`` / labeled count of ``majority``."""
    lsp = np.asarray(lsp)
    if lsp[majority] <= 0:
        raise DataError("majority class has zero labeled count")
    return 100.0 * float(lsp[other]) / float(lsp[majority])
