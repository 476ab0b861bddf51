"""Experiment harness: seeded trials, the label-ratio sweep, result files.

A trial masks the training half at one labeled:unlabeled ratio, fits the
representation on the labeled part, clusters the mixed collection, classifies
the held-out test half, and scores it. A sweep runs a grid of ratios (default
1:49 .. 20:30 in steps of one part out of fifty) with a fixed number of
seeded trials per ratio and aggregates max/min/mean/std per metric. Every
trial writes a split manifest so it can be replayed bit-for-bit.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .classifier import classify_batch
from .corpus import (
    Corpus,
    TokenizerConfig,
    apply_split_manifest,
    concat_corpora,
    load_directory_corpus,
    make_training_collection,
    mask_from_flags,
    mask_labels,
    read_split_manifest,
    split_train_test,
    write_split_manifest,
)
from .errors import DataError, InvariantError
from .evaluation import EvalReport, confusion, score
from .representation import TermClassWeights, check_smoothing, embed_corpus, fit_term_weights
from .rkmeans import ClusterModel, KMeansConfig, RecursiveConfig, build_model

SWEEP_METRICS = ("accuracy", "macro_precision", "macro_recall", "macro_f", "micro_f")


def default_ratio_grid(total: int = 50, first: int = 1, last: int = 20) -> tuple[tuple[int, int], ...]:
    """Labeled:unlabeled integer pairs over a fixed number of parts."""
    return tuple((i, total - i) for i in range(first, last + 1))


@dataclass(frozen=True)
class SweepConfig:
    ratio_grid: tuple[tuple[int, int], ...] = default_ratio_grid()
    trials_per_ratio: int = 20
    base_seed: int = 0
    test_fraction: float = 0.5
    smoothing: float = 1.0
    recursive: RecursiveConfig = field(default_factory=RecursiveConfig)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    unlabeled_pool_size: int | None = None  # None = use the whole unlabeled set
    transductive: bool = False              # include test docs, unlabeled, in training

    def __post_init__(self):
        if self.trials_per_ratio < 1:
            raise DataError("trials_per_ratio must be >= 1")
        if not self.ratio_grid:
            raise DataError("ratio_grid is empty")
        totals = {a + b for a, b in self.ratio_grid}
        if len(totals) != 1:
            raise DataError(f"ratio grid pairs must share one total, got totals {sorted(totals)}")
        if any(a < 1 or b < 1 for a, b in self.ratio_grid):
            raise DataError("ratio parts must be >= 1")
        check_smoothing(self.smoothing)

    def to_dict(self) -> dict:
        km = self.recursive.kmeans
        return {
            "ratio_grid": [list(r) for r in self.ratio_grid],
            "trials_per_ratio": self.trials_per_ratio,
            "base_seed": self.base_seed,
            "test_fraction": self.test_fraction,
            "smoothing": self.smoothing,
            "th_percent": self.recursive.th_percent,
            "max_recursion_depth": self.recursive.max_recursion_depth,
            "min_cluster_size_for_recursion": self.recursive.min_cluster_size_for_recursion,
            "distance": km.distance,
            "max_iterations": km.max_iterations,
            "centroid_shift_tolerance": km.centroid_shift_tolerance,
            "tokenizer": self.tokenizer.to_dict(),
            "unlabeled_pool_size": self.unlabeled_pool_size,
            "transductive": self.transductive,
        }

    @staticmethod
    def from_dict(d: Mapping) -> "SweepConfig":
        """Inverse of ``to_dict``; a malformed payload raises DataError.

        Older files also hold ``"empty_cluster_policy": "reseed_farthest"``,
        the only policy there is now.
        """
        try:
            config = SweepConfig(
                ratio_grid=tuple((int(a), int(b)) for a, b in d["ratio_grid"]),
                trials_per_ratio=int(d["trials_per_ratio"]),
                base_seed=int(d["base_seed"]),
                test_fraction=float(d["test_fraction"]),
                smoothing=float(d["smoothing"]),
                recursive=RecursiveConfig(
                    th_percent=float(d["th_percent"]),
                    max_recursion_depth=int(d["max_recursion_depth"]),
                    min_cluster_size_for_recursion=(
                        None
                        if d["min_cluster_size_for_recursion"] is None
                        else int(d["min_cluster_size_for_recursion"])
                    ),
                    kmeans=KMeansConfig(
                        distance=str(d["distance"]),
                        max_iterations=int(d["max_iterations"]),
                        centroid_shift_tolerance=float(d["centroid_shift_tolerance"]),
                    ),
                ),
                tokenizer=TokenizerConfig.from_dict(d["tokenizer"]),
                unlabeled_pool_size=(
                    None if d["unlabeled_pool_size"] is None else int(d["unlabeled_pool_size"])
                ),
                transductive=bool(d["transductive"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed sweep config: {type(exc).__name__}: {exc}") from exc
        policy = d.get("empty_cluster_policy", "reseed_farthest")
        if policy != "reseed_farthest":
            raise DataError(f"malformed sweep config: unknown empty_cluster_policy {policy!r}")
        return config


@dataclass
class TrialResult:
    """One trial. A failed sweep trial has ``report=None`` and ``error`` set.

    ``trial`` is the trial's position within its ratio in a sweep.
    """

    ratio: tuple[int, int]
    seed: int
    trial: int = 0
    report: EvalReport | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    n_clusters: int = 0
    labeled_doc_ids: tuple[str, ...] = ()
    model: ClusterModel | None = None
    error: str | None = None


def fit(
    d_labeled: Corpus,
    pool: Corpus,
    smoothing: float,
    recursive: RecursiveConfig,
    seed: int,
    pool_size: int | None = None,
) -> tuple[TermClassWeights, ClusterModel]:
    """The train pipeline of ``textrkm train``, sweep trials and replays.

    Draws the unlabeled pool into the training collection, fits the weight
    table on the labeled documents, embeds the collection and clusters it.
    ``seed`` drives the pool draw and the k-means seed choice.
    """
    training = make_training_collection(d_labeled, pool, pool_size, rng_seed=seed)
    weights = fit_term_weights(d_labeled, smoothing)
    x, kept_ids, dropped = embed_corpus(training, weights)
    if dropped:
        raise DataError(f"training documents with zero tokens: {dropped[:5]}")
    config = dataclasses.replace(
        recursive, kmeans=dataclasses.replace(recursive.kmeans, rng_seed=seed)
    )
    model = build_model(x, training.label_array(), kept_ids, training.class_names, config)
    return weights, model


def _run_pipeline(
    d_labeled: Corpus,
    d_unlabeled: Corpus,
    test: Corpus,
    ratio: tuple[int, int],
    trial_seed: int,
    config: SweepConfig,
    keep_model: bool = False,
) -> TrialResult:
    """The deterministic stages shared by fresh trials and manifest replays."""
    pool = d_unlabeled
    if config.transductive:
        pool = concat_corpora(pool, test.subset(range(test.n_docs), drop_labels=True))
    weights, model = fit(
        d_labeled, pool, config.smoothing, config.recursive, trial_seed, config.unlabeled_pool_size
    )
    test_x, test_ids, dropped = embed_corpus(test, weights)
    if dropped:
        raise DataError(f"test documents with zero tokens: {dropped[:5]}")
    preds = classify_batch(test_x, model, test_ids)
    # a dropped test document raised above, so preds are in test order
    report = score(confusion(test.labels, [p.label for p in preds], test.n_classes))
    flat = report.to_flat()
    return TrialResult(
        ratio=ratio,
        seed=trial_seed,
        report=report,
        metrics={m: flat[m] for m in SWEEP_METRICS},
        n_clusters=model.n_clusters,
        labeled_doc_ids=tuple(d_labeled.doc_ids),
        model=model if keep_model else None,
    )


def run_trial(
    train: Corpus,
    test: Corpus,
    ratio: tuple[int, int],
    trial_seed: int,
    config: SweepConfig,
    keep_model: bool = False,
) -> TrialResult:
    """Mask the training half at the given ratio, then learn and score."""
    labeled_fraction = ratio[0] / (ratio[0] + ratio[1])
    d_labeled, d_unlabeled = mask_labels(train, labeled_fraction, trial_seed)
    return _run_pipeline(d_labeled, d_unlabeled, test, ratio, trial_seed, config, keep_model)


@dataclass
class SweepRow:
    ratio: tuple[int, int]
    metric: str
    vmax: float
    vmin: float
    mean: float
    std: float
    n_trials: int


@dataclass
class SweepTable:
    rows: list[SweepRow]
    records: list[TrialResult]
    train_doc_ids: tuple[str, ...]
    test_doc_ids: tuple[str, ...]
    config: SweepConfig


def aggregate_rows(records: list[TrialResult]) -> list[SweepRow]:
    """One row per (ratio, metric): max/min/mean/std over successful trials."""
    rows: list[SweepRow] = []
    ratios: list[tuple[int, int]] = []
    for rec in records:
        if rec.ratio not in ratios:
            ratios.append(rec.ratio)
    for ratio in ratios:
        ok = [r for r in records if r.ratio == ratio and r.error is None]
        for metric in SWEEP_METRICS:
            values = np.array([r.metrics[metric] for r in ok], dtype=np.float64)
            if values.size:
                stats = (values.max(), values.min(), values.mean(), values.std())
            else:
                stats = (np.nan,) * 4
            rows.append(
                SweepRow(
                    ratio=ratio,
                    metric=metric,
                    vmax=float(stats[0]),
                    vmin=float(stats[1]),
                    mean=float(stats[2]),
                    std=float(stats[3]),
                    n_trials=len(ok),
                )
            )
    return rows


def run_sweep(corpus: Corpus | str | Path, config: SweepConfig = SweepConfig()) -> SweepTable:
    """Run the full ratio grid; individual trial failures are recorded, not raised.

    An ``InvariantError`` is a bug in the program rather than a failed trial,
    so it propagates.
    """
    if not isinstance(corpus, Corpus):
        corpus = load_directory_corpus(corpus, config.tokenizer)
    train, test = split_train_test(corpus, config.test_fraction, config.base_seed)
    records: list[TrialResult] = []
    for ratio in config.ratio_grid:
        for t in range(config.trials_per_ratio):
            seed = config.base_seed + t
            try:
                result = run_trial(train, test, ratio, seed, config)
            except InvariantError:
                raise
            except Exception as exc:  # a failed trial is recorded, never dropped
                result = TrialResult(ratio=ratio, seed=seed, error=f"{type(exc).__name__}: {exc}")
            result.trial = t
            records.append(result)
    return SweepTable(
        rows=aggregate_rows(records),
        records=records,
        train_doc_ids=tuple(train.doc_ids),
        test_doc_ids=tuple(test.doc_ids),
        config=config,
    )


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def ratio_str(ratio: tuple[int, int]) -> str:
    return f"{ratio[0]}:{ratio[1]}"


def manifest_filename(ratio: tuple[int, int], trial: int) -> str:
    return f"ratio_{ratio[0]}_{ratio[1]}_trial_{trial:02d}.tsv"


def emit_results(table: SweepTable, out_dir: str | Path) -> dict[str, Path]:
    """Write per-trial CSV, aggregate CSV, replay manifests and the config.

    Float columns use ``repr`` so parsing them back reproduces the exact
    values.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    per_trial = out / "per_trial.csv"
    lines = ["ratio,trial,metric,value"]
    for rec in table.records:
        if rec.error is not None:
            lines.append(f"{ratio_str(rec.ratio)},{rec.trial},error,{json.dumps(rec.error)}")
            continue
        for metric in SWEEP_METRICS:
            lines.append(f"{ratio_str(rec.ratio)},{rec.trial},{metric},{rec.metrics[metric]!r}")
    per_trial.write_text("\n".join(lines) + "\n", encoding="utf-8")

    aggregate = out / "aggregate.csv"
    lines = ["ratio,metric,max,min,mean,std"]
    for row in table.rows:
        lines.append(
            f"{ratio_str(row.ratio)},{row.metric},{row.vmax!r},{row.vmin!r},{row.mean!r},{row.std!r}"
        )
    aggregate.write_text("\n".join(lines) + "\n", encoding="utf-8")

    manifest_dir = out / "manifests"
    manifest_dir.mkdir(exist_ok=True)
    for rec in table.records:
        if rec.error is not None:
            continue
        write_split_manifest(
            manifest_dir / manifest_filename(rec.ratio, rec.trial),
            table.train_doc_ids,
            table.test_doc_ids,
            rec.labeled_doc_ids,
            meta={
                "ratio": ratio_str(rec.ratio),
                "trial": str(rec.trial),
                "seed": str(rec.seed),
            },
        )

    config_path = out / "sweep_config.json"
    config_path.write_text(json.dumps(table.config.to_dict(), indent=2), encoding="utf-8")
    return {
        "per_trial": per_trial,
        "aggregate": aggregate,
        "manifests": manifest_dir,
        "config": config_path,
    }


def replay_trial(
    corpus: Corpus | str | Path,
    manifest_path: str | Path,
    config: SweepConfig,
    keep_model: bool = False,
) -> TrialResult:
    """Re-run one trial exactly from its emitted manifest.

    The manifest pins the train/test split and the labeled mask; the recorded
    seed drives every remaining stochastic stage, so the result is
    bit-identical to the original trial.
    """
    if not isinstance(corpus, Corpus):
        corpus = load_directory_corpus(corpus, config.tokenizer)
    meta, entries = read_split_manifest(manifest_path)
    for key in ("ratio", "seed"):
        if key not in meta:
            raise DataError(f"manifest {manifest_path} is missing the {key!r} header")
    try:
        a, b = meta["ratio"].split(":")
        ratio = (int(a), int(b))
    except ValueError:
        raise DataError(
            f"{manifest_path}: header '# ratio {meta['ratio']}' is not <labeled>:<unlabeled>"
        ) from None
    if not meta["seed"].isdecimal():  # numpy seeds are non-negative
        raise DataError(
            f"{manifest_path}: header '# seed {meta['seed']}' is not a non-negative integer"
        )
    seed = int(meta["seed"])
    train, test, flags = apply_split_manifest(corpus, entries)
    d_labeled, d_unlabeled = mask_from_flags(train, flags)
    return _run_pipeline(d_labeled, d_unlabeled, test, ratio, seed, config, keep_model)
