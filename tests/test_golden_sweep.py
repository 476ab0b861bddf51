"""Golden outputs: a small recursing euclidean sweep, byte for byte.

The files under ``tests/data/golden_sweep`` were written by an earlier
version of the program; any change to the bits of the split, the masking,
the embedding, the k-means or the scoring fails this test. Cosine runs are
left out: they rank with a BLAS product whose bits vary between BLAS builds.

To rewrite the files after a deliberate change of outputs, run
``PYTHONPATH=src:tests python tests/test_golden_sweep.py``.
"""
import hashlib
import json
import sys
from pathlib import Path

from textrkm import harness
from textrkm.harness import SweepConfig, emit_results, manifest_filename, ratio_str, run_sweep

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


def sweep_outputs(out_dir: Path, monkeypatch) -> tuple[dict[str, bytes], list[dict], int]:
    """The sweep's CSV files, one digest triple per trial (its manifest, its
    training matrix and its trained centroids), and the deepest recursion
    level reached."""
    built = []

    def recording_build_model(x, *args, **kwargs):
        model = build_model(x, *args, **kwargs)
        built.append((x, model))
        return model

    build_model = harness.build_model
    monkeypatch.setattr(harness, "build_model", recording_build_model)
    table = run_sweep(make_text_corpus(**CORPUS), CONFIG)
    files = emit_results(table, out_dir)
    names = [manifest_filename(rec.ratio, rec.trial) for rec in table.records]
    assert sorted(m.name for m in files["manifests"].iterdir()) == sorted(names)
    digests = [
        {"ratio": ratio_str(rec.ratio), "trial": rec.trial,
         "manifest": digest((files["manifests"] / name).read_bytes()),
         "training_matrix": digest(x), "centroids": digest(model.centroids)}
        for rec, name, (x, model) in zip(table.records, names, built)
    ]
    depth = max(c.depth for _, model in built for c in model.clusters)
    csvs = {name: files[name].read_bytes() for name in ("per_trial", "aggregate")}
    return csvs, digests, depth


def test_sweep_matches_golden_outputs(tmp_path, monkeypatch):
    csvs, digests, depth = sweep_outputs(tmp_path, monkeypatch)
    assert depth > 0, "the golden sweep no longer recurses"
    for name, data in csvs.items():
        assert data == (GOLDEN / f"{name}.csv").read_bytes(), f"{name}.csv differs"
    assert digests == json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile

    import pytest

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        csvs, digests, depth = sweep_outputs(Path(tmp), mp)
    for name, data in csvs.items():
        (GOLDEN / f"{name}.csv").write_bytes(data)
    (GOLDEN / "digests.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} (deepest recursion level {depth})", file=sys.stderr)
