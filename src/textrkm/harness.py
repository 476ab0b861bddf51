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
from typing import Mapping, get_origin, get_type_hints

import numpy as np

from .classifier import classify_batch
from .corpus import (
    Corpus,
    TokenizerConfig,
    apply_split_manifest,
    check_test_fraction,
    concat_corpora,
    load_directory_corpus,
    make_training_collection,
    mask_from_flags,
    mask_labels,
    read_split_manifest,
    split_train_test,
    write_split_manifest,
)
from .errors import DataError, InvariantError, json_field
from .evaluation import EvalReport, confusion, score
from .representation import TermClassWeights, check_smoothing, embed_corpus, fit_term_weights
from .rkmeans import ClusterModel, RecursiveConfig, build_model

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
        # a list or a tuple of int pairs, kept as the tuple of tuples from_dict makes
        grid = self.ratio_grid
        if not isinstance(grid, (list, tuple)) or not all(
            isinstance(pair, (list, tuple)) and all(type(v) is int for v in pair) for pair in grid
        ):
            raise DataError(f"ratio_grid must be a tuple of (int, int) pairs, got {grid!r}")
        object.__setattr__(self, "ratio_grid", tuple(map(tuple, grid)))
        _flat_kwargs(SweepConfig, self.to_dict())  # every field of a JSON type, as from_dict reads it
        if self.trials_per_ratio < 1:
            raise DataError("trials_per_ratio must be >= 1")
        if self.base_seed < 0:  # numpy seeds are non-negative
            raise DataError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.ratio_grid:
            raise DataError("ratio_grid is empty")
        if any(len(r) != 2 or min(r) < 1 for r in self.ratio_grid):
            raise DataError("ratio grid entries must be pairs of parts >= 1")
        totals = {a + b for a, b in self.ratio_grid}
        if len(totals) != 1:
            raise DataError(f"ratio grid pairs must share one total, got totals {sorted(totals)}")
        if self.unlabeled_pool_size is not None and self.unlabeled_pool_size < 0:
            raise DataError(f"unlabeled_pool_size must be >= 0, got {self.unlabeled_pool_size}")
        check_test_fraction(self.test_fraction)
        check_smoothing(self.smoothing)

    def to_dict(self) -> dict:
        """One key per field, ``recursive`` flattened in place."""
        return _flat_fields(self)

    @staticmethod
    def from_dict(d: Mapping) -> "SweepConfig":
        """Inverse of ``to_dict``; a field missing or of another JSON type raises
        DataError. Older files also hold ``"empty_cluster_policy":
        "reseed_farthest"``, the only policy there is now."""
        policy = d.get("empty_cluster_policy", "reseed_farthest")
        if policy != "reseed_farthest":
            raise DataError(f"malformed sweep config: unknown empty_cluster_policy {policy!r}")
        return SweepConfig(**_flat_kwargs(SweepConfig, d))


def _flat_fields(config) -> dict:
    out = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, TokenizerConfig):
            out[f.name] = value.to_dict()
        elif dataclasses.is_dataclass(value):
            out |= _flat_fields(value)
        else:
            out[f.name] = [list(pair) for pair in value] if isinstance(value, tuple) else value
    return out


def _flat_kwargs(cls, d: Mapping) -> dict:
    """The arguments of ``cls`` from the keys ``_flat_fields`` writes, typed by ``json_field``."""
    kwargs = {}
    for name, kind in get_type_hints(cls).items():
        if kind is TokenizerConfig:
            kwargs[name] = TokenizerConfig.from_dict(json_field(d, name, dict))
        elif dataclasses.is_dataclass(kind):
            kwargs[name] = kind(**_flat_kwargs(kind, d))
        elif get_origin(kind) is tuple:
            kwargs[name] = tuple(map(tuple, json_field(d, name, list[list[int]])))
        else:
            kwargs[name] = json_field(d, name, kind)
    return kwargs


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
) -> tuple[TermClassWeights, ClusterModel, Corpus]:
    """The train pipeline of ``textrkm train``, sweep trials and replays.

    Draws the unlabeled pool into the training collection, fits the weight
    table on the labeled documents, embeds the collection and clusters it.
    ``seed`` drives the pool draw and the k-means seed choice. Returns the
    weights, the model and the training collection, whose document i is the
    model's training point i.
    """
    training = make_training_collection(d_labeled, pool, pool_size, rng_seed=seed)
    weights = fit_term_weights(d_labeled, smoothing)
    x, _ = embed_corpus(training, weights)
    model = build_model(x, training.labels, training.class_names, recursive, seed)
    return weights, model, training


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
    weights, model, _ = fit(
        d_labeled, pool, config.smoothing, config.recursive, trial_seed, config.unlabeled_pool_size
    )
    test_x, test_ids = embed_corpus(test, weights)
    preds = classify_batch(test_x, model, test_ids)
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
    for ratio in dict.fromkeys(r.ratio for r in records):  # in first-seen order
        ok = [r for r in records if r.ratio == ratio and r.error is None]
        for metric in SWEEP_METRICS:
            values = np.array([r.metrics[metric] for r in ok], dtype=np.float64)
            stats = (values.max(), values.min(), values.mean(), values.std()) if ok else (np.nan,) * 4
            rows.append(SweepRow(ratio, metric, *map(float, stats), n_trials=len(ok)))
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


def parse_count(text: str) -> int:
    """A non-negative integer in ASCII digits only; ValueError otherwise.
    ``int`` alone would also read a sign, underscores, surrounding spaces
    and the digits of other scripts."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


def parse_ratio(text: str) -> tuple[int, int]:
    """Inverse of ``ratio_str``, its parts read by ``parse_count``; ValueError otherwise."""
    labeled, unlabeled = text.split(":")
    return parse_count(labeled), parse_count(unlabeled)


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
        ratio = parse_ratio(meta["ratio"])
    except ValueError:
        raise DataError(
            f"{manifest_path}: header '# ratio {meta['ratio']}' is not <labeled>:<unlabeled>"
        ) from None
    try:
        seed = parse_count(meta["seed"])  # numpy seeds are non-negative
    except ValueError:
        raise DataError(
            f"{manifest_path}: header '# seed {meta['seed']}' is not a non-negative integer"
        ) from None
    train, test, flags = apply_split_manifest(corpus, entries)
    d_labeled, d_unlabeled = mask_from_flags(train, flags)
    return _run_pipeline(d_labeled, d_unlabeled, test, ratio, seed, config, keep_model)
