"""Golden outputs: a small recursing euclidean sweep, byte for byte.

The files under ``tests/data/golden_sweep`` were written by an earlier
version of the program; any change to the bits of the split, the masking,
the embedding, the k-means, the recursion's decisions or the scoring fails
this test. The same sweep under cosine is pinned by one digest: cosine
assignment runs the exact euclidean kernel on unit vectors, so its bits do
not depend on the BLAS either.

To rewrite the files after a deliberate change of outputs, run
``PYTHONPATH=src:tests python tests/test_golden_sweep.py``; it also prints
the pinned bundle's and the cosine sweep's digests, to be copied into
``PINNED_BUNDLE`` and ``COSINE_SWEEP``.
"""
import base64
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from textrkm import harness
from textrkm.cli import load_bundle, save_bundle
from textrkm.corpus import TokenizerConfig, mask_labels
from textrkm.harness import SweepConfig, emit_results, fit, manifest_filename, ratio_str, run_sweep
from textrkm.rkmeans import KMeansConfig, RecursiveConfig

from synthdata import make_text_corpus

GOLDEN = Path(__file__).parent / "data" / "golden_sweep"

# 20 classes of 8-token documents with a weak class signal: the training
# collection (2000 documents) recurses, and spans more than one embedding
# block of documents
CORPUS = dict(n_classes=20, docs_per_class=200, doc_len=8, class_words=10,
              shared_words=40, signal=0.2, seed=13)
CONFIG = SweepConfig(ratio_grid=((2, 8), (5, 5)), trials_per_ratio=2)


def digest(a) -> str:
    return hashlib.blake2b(a if isinstance(a, bytes) else a.tobytes(), digest_size=16).hexdigest()


def sweep_outputs(out_dir: Path, monkeypatch, config=CONFIG) -> tuple[dict[str, bytes], list[dict], int]:
    """The sweep's CSV files, one record per trial, and the deepest recursion
    level reached. A trial's record holds digests of its manifest, its
    training matrix, its trained centroids and each final cluster's label,
    acceptance reason and depth, and the model's ``RunStats``."""
    built = []

    def recording_build_model(x, *args, **kwargs):
        model = build_model(x, *args, **kwargs)
        built.append((x, model))
        return model

    build_model = harness.build_model
    monkeypatch.setattr(harness, "build_model", recording_build_model)
    table = run_sweep(make_text_corpus(**CORPUS), config)
    files = emit_results(table, out_dir)
    names = [manifest_filename(rec.ratio, rec.trial) for rec in table.records]
    assert sorted(m.name for m in files["manifests"].iterdir()) == sorted(names)
    digests = [
        {"ratio": ratio_str(rec.ratio), "trial": rec.trial,
         "manifest": digest((files["manifests"] / name).read_bytes()),
         "training_matrix": digest(x), "centroids": digest(model.centroids),
         "decisions": digest(json.dumps(
             [list(c) for c in zip(model.labels.tolist(), model.acceptance, model.depths.tolist())]
         ).encode()),
         "stats": asdict(model.stats)}
        for rec, name, (x, model) in zip(table.records, names, built)
    ]
    depth = max(model.depths.max() for _, model in built)
    csvs = {name: files[name].read_bytes() for name in ("per_trial", "aggregate")}
    return csvs, digests, depth


def test_sweep_matches_golden_outputs(tmp_path, monkeypatch):
    csvs, digests, depth = sweep_outputs(tmp_path, monkeypatch)
    assert depth > 0, "the golden sweep no longer recurses"
    for name, data in csvs.items():
        assert data == (GOLDEN / f"{name}.csv").read_bytes(), f"{name}.csv differs"
    assert digests == json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))


# blake2b of the version-5 bundle ``save_bundle`` writes for a model trained
# on CORPUS at one part labeled in five, seed 7, depth limit 3: it recurses,
# and accepts clusters as orphans and at both the size and the depth limit.
# ``__main__`` prints it. The readers of the bundles before it are tested
# against the files tests/data/bundle_v*.json.
PINNED_BUNDLE = "a1057767166886e298629e727aa75a24"
# blake2b of the version-4 bundle the version-4 writer wrote for that model:
# the same JSON, with each class's term ids and counts as JSON integers
PINNED_V4_BUNDLE = "63f2a586f85e62112e10737f72c9c8fa"


def pinned_bundle_bytes(tmp: Path) -> bytes:
    d_labeled, d_unlabeled = mask_labels(make_text_corpus(**CORPUS), 0.2, 7)
    config = SweepConfig(recursive=RecursiveConfig(max_recursion_depth=3))
    weights, model, _ = fit(d_labeled, d_unlabeled, config, 7)
    assert model.stats.fallback_counts == {"fallback_size": 9, "fallback_depth": 4}
    assert model.stats.orphan_count == 3
    save_bundle(tmp / "model.json", model, weights, TokenizerConfig())
    return (tmp / "model.json").read_bytes()


def test_bundle_matches_pinned_bytes(tmp_path):
    assert digest(pinned_bundle_bytes(tmp_path)) == PINNED_BUNDLE


def test_the_pinned_version_four_bundle_re_saves_to_the_pinned_bundle(tmp_path):
    v5 = pinned_bundle_bytes(tmp_path)
    payload = json.loads(v5)
    payload["version"] = 4
    payload["weights"]["counts"] = [  # unpacked from base64 of little-endian uint32s
        {key: np.frombuffer(base64.b64decode(text), "<u4").tolist() for key, text in entry.items()}
        for entry in payload["weights"]["counts"]
    ]
    v4 = json.dumps(payload).encode()
    assert digest(v4) == PINNED_V4_BUNDLE
    (tmp_path / "v4.json").write_bytes(v4)
    save_bundle(tmp_path / "re-saved.json", *load_bundle(tmp_path / "v4.json"))
    assert (tmp_path / "re-saved.json").read_bytes() == v5


# blake2b of the golden sweep run under cosine: its CSV files, the records of
# ``sweep_outputs`` and every test prediction's distance. ``__main__`` prints it.
COSINE_SWEEP = "627d8248fda3e79097ce1f6dc2f2f11e"
COSINE_CONFIG = replace(CONFIG, recursive=RecursiveConfig(kmeans=KMeansConfig(distance="cosine")))


def cosine_sweep_digest(out_dir: Path, monkeypatch) -> str:
    distances = []

    def recording_classify_batch(*args):
        preds = classify_batch(*args)
        distances.extend(p.distance for p in preds)
        return preds

    classify_batch = harness.classify_batch
    monkeypatch.setattr(harness, "classify_batch", recording_classify_batch)
    csvs, digests, depth = sweep_outputs(out_dir, monkeypatch, COSINE_CONFIG)
    assert depth > 0, "the cosine sweep no longer recurses"
    record = [{name: data.decode() for name, data in csvs.items()}, digests, distances]
    return digest(json.dumps(record).encode())


def test_cosine_sweep_matches_pinned_digest(tmp_path, monkeypatch):
    assert cosine_sweep_digest(tmp_path, monkeypatch) == COSINE_SWEEP


if __name__ == "__main__":
    import tempfile

    import pytest

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        csvs, digests, depth = sweep_outputs(Path(tmp), mp)
        pin = digest(pinned_bundle_bytes(Path(tmp)))
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        cosine = cosine_sweep_digest(Path(tmp), mp)
    for name, data in csvs.items():
        (GOLDEN / f"{name}.csv").write_bytes(data)
    (GOLDEN / "digests.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} (deepest recursion level {depth})", file=sys.stderr)
    print(f'PINNED_BUNDLE = "{pin}"', file=sys.stderr)
    print(f'COSINE_SWEEP = "{cosine}"', file=sys.stderr)
