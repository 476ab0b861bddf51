"""Experiment harness: seeded trials, the label-ratio sweep, result files.

A trial masks the training half at one labeled:unlabeled ratio, fits the
representation on the labeled part, clusters the mixed collection, classifies
the held-out test half, and scores it. A sweep runs a grid of ratios (default
1:49 .. 20:30 in steps of one part out of fifty) with a fixed number of
seeded trials per ratio and aggregates max/min/mean/std per metric. Every
trial writes a split manifest so it can be replayed bit-for-bit; this module
writes, reads and replays them.
"""
from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, get_origin, get_type_hints

import numpy as np

from .classifier import classify_batch
from .corpus import (
    Corpus,
    TokenizerConfig,
    check_test_fraction,
    concat_corpora,
    load_directory_corpus,
    make_training_collection,
    mask_from_flags,
    mask_labels,
    replacing,
    split_train_test,
)
from .errors import DataError, json_field
from .evaluation import EvalReport, confusion, score
from .representation import (
    TermClassWeights,
    TokenLayout,
    check_smoothing,
    embed_corpus,
    fit_term_weights,
    token_layout,
)
from .rkmeans import ClusterModel, RecursiveConfig, build_model

SWEEP_METRICS = ("accuracy", "macro_precision", "macro_recall", "macro_f", "micro_f")

# keys older sweep_config.json files hold for settings the program no longer
# has, each with the one value it still applies
RETIRED_KEYS = {
    "empty_cluster_policy": "reseed_farthest",
    "min_cluster_size_for_recursion": None,
    "centroid_shift_tolerance": 1e-6,
}

DEFAULT_RATIO_GRID = tuple((i, 50 - i) for i in range(1, 21))  # 1:49 .. 20:30


@dataclass(frozen=True)
class SweepConfig:
    ratio_grid: tuple[tuple[int, int], ...] = DEFAULT_RATIO_GRID
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
        for i, pair in enumerate(self.ratio_grid):  # a pair listed twice would run its trials twice
            if pair in self.ratio_grid[:i]:
                raise DataError(f"ratio grid lists the pair {ratio_str(pair)} twice")
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
        """Inverse of ``to_dict``; a field missing, of another JSON type or
        unknown raises DataError. A key of ``RETIRED_KEYS``, which older files
        hold, is read only at the value the program still applies."""
        for key, kept in RETIRED_KEYS.items():
            if d.get(key, kept) != kept:
                raise DataError(f"malformed sweep config: retired field {key!r} must be {kept!r}, "
                                f"got {d[key]!r}")
        config = SweepConfig(**_flat_kwargs(SweepConfig, d))
        unknown = d.keys() - config.to_dict().keys() - RETIRED_KEYS.keys()
        if unknown:
            raise DataError(f"malformed sweep config: unknown field {min(unknown)!r}")
        return config


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


_field_types = functools.cache(get_type_hints)  # each dataclass's field types, derived once


def _flat_kwargs(cls, d: Mapping) -> dict:
    """The arguments of ``cls`` from the keys ``_flat_fields`` writes, typed by ``json_field``."""
    kwargs = {}
    for name, kind in _field_types(cls).items():
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

    ``trial`` is the trial's position within its ratio in a sweep; a
    replay reads it from the manifest.
    """

    ratio: tuple[int, int]
    seed: int
    trial: int = 0
    report: EvalReport | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    n_clusters: int = 0
    labeled_doc_ids: tuple[str, ...] = ()
    error: str | None = None


def fit(
    d_labeled: Corpus, pool: Corpus, config: SweepConfig, seed: int, layout: TokenLayout | None = None
) -> tuple[TermClassWeights, ClusterModel, Corpus]:
    """The train pipeline of ``textrkm train``, sweep trials and replays.

    Draws the unlabeled pool into the training collection, fits the weight
    table on the labeled documents, embeds the collection and clusters it,
    by the settings of ``config``. ``seed`` drives the pool draw and the
    k-means seed choice. ``layout``, a stored ``token_layout`` that holds
    every document of the training collection, is passed to
    ``embed_corpus``. Returns the weights, the model and the training
    collection, whose document i is the model's training point i.
    """
    training = make_training_collection(d_labeled, pool, config.unlabeled_pool_size, rng_seed=seed)
    weights = fit_term_weights(d_labeled, config.smoothing)
    x, _ = embed_corpus(training, weights, layout=layout)
    model = build_model(x, training.labels, training.class_names, config.recursive, seed)
    return weights, model, training


def _run_pipeline(
    d_labeled: Corpus,
    d_unlabeled: Corpus,
    test: Corpus,
    ratio: tuple[int, int],
    trial_seed: int,
    config: SweepConfig,
    layouts: tuple[TokenLayout | None, TokenLayout | None] = (None, None),
) -> TrialResult:
    """The deterministic stages shared by fresh trials and manifest replays.

    ``layouts`` are stored ``token_layout``s, each holding every document
    of the training collection and of ``test`` in turn, or None for a call
    that gathers its ids as it goes.
    """
    train_layout, test_layout = layouts
    pool = d_unlabeled
    if config.transductive:
        pool = concat_corpora(pool, test.subset(range(test.n_docs), drop_labels=True))
    weights, model, _ = fit(d_labeled, pool, config, trial_seed, train_layout)
    test_x, test_ids = embed_corpus(test, weights, layout=test_layout)
    preds = classify_batch(test_x, model, test_ids)
    report = score(confusion(test.labels, preds.labels, test.n_classes))
    flat = report.to_flat()
    return TrialResult(
        ratio=ratio,
        seed=trial_seed,
        report=report,
        metrics={m: flat[m] for m in SWEEP_METRICS},
        n_clusters=model.n_clusters,
        labeled_doc_ids=tuple(d_labeled.doc_ids),
    )


def run_trial(
    train: Corpus,
    test: Corpus,
    ratio: tuple[int, int],
    trial_seed: int,
    config: SweepConfig,
    layouts: tuple[TokenLayout | None, TokenLayout | None] = (None, None),
) -> TrialResult:
    """Mask the training half at the given ratio, then learn and score;
    ``layouts`` as ``_run_pipeline`` reads them."""
    labeled_fraction = ratio[0] / (ratio[0] + ratio[1])
    d_labeled, d_unlabeled = mask_labels(train, labeled_fraction, trial_seed)
    return _run_pipeline(d_labeled, d_unlabeled, test, ratio, trial_seed, config, layouts)


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
    """Run the full ratio grid. A trial fails when its data do (a
    ``DataError``): it is recorded, not raised. Any other exception is a bug
    and propagates. Each half that every trial embeds whole is laid out
    once (``token_layout``): the test half, and the train half when each
    training collection is that half, with the whole pool and without the
    test documents.
    """
    if not isinstance(corpus, Corpus):
        corpus = load_directory_corpus(corpus, config.tokenizer)
    train, test = split_train_test(corpus, config.test_fraction, config.base_seed)
    whole = config.unlabeled_pool_size is None and not config.transductive
    train_layout = token_layout(train.encoding, train.n_classes) if whole else None
    layouts = (train_layout, token_layout(test.encoding, test.n_classes))
    records: list[TrialResult] = []
    for ratio in config.ratio_grid:
        for t in range(config.trials_per_ratio):
            seed = config.base_seed + t
            try:
                result = run_trial(train, test, ratio, seed, config, layouts)
            except DataError as exc:  # a failed trial is recorded, never dropped
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
    """Write per-trial CSV, aggregate CSV, replay manifests and the config,
    each replacing its file whole (``corpus.replacing``). Once the new
    per-trial CSV is in place, an earlier sweep's config and manifests are
    removed; the config is written last, so it marks a sweep whose files
    were all written.

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
    with replacing(per_trial) as f:
        f.write("\n".join(lines) + "\n")
    config_path = out / "sweep_config.json"
    config_path.unlink(missing_ok=True)
    manifest_dir = out / "manifests"
    for path in manifest_dir.glob("ratio_*_trial_*.tsv"):
        path.unlink()

    aggregate = out / "aggregate.csv"
    lines = ["ratio,metric,max,min,mean,std"]
    for row in table.rows:
        lines.append(
            f"{ratio_str(row.ratio)},{row.metric},{row.vmax!r},{row.vmin!r},{row.mean!r},{row.std!r}"
        )
    with replacing(aggregate) as f:
        f.write("\n".join(lines) + "\n")

    manifest_dir.mkdir(exist_ok=True)
    for rec in table.records:
        if rec.error is not None:
            continue
        write_split_manifest(
            manifest_dir / manifest_filename(rec.ratio, rec.trial),
            table.train_doc_ids,
            table.test_doc_ids,
            rec.labeled_doc_ids,
            rec.ratio,
            rec.trial,
            rec.seed,
        )

    with replacing(config_path) as f:
        f.write(json.dumps(table.config.to_dict(), indent=2))
    return {
        "per_trial": per_trial,
        "aggregate": aggregate,
        "manifests": manifest_dir,
        "config": config_path,
    }


# ---------------------------------------------------------------------------
# split manifests (replayable trials)
# ---------------------------------------------------------------------------

SIDE_TRAIN = "train"
SIDE_TEST = "test"

# each header a manifest holds, its parser and the form it must have
_HEADERS = {
    "ratio": (parse_ratio, "<labeled>:<unlabeled>"),
    "trial": (parse_count, "a non-negative integer"),
    "seed": (parse_count, "a non-negative integer"),  # numpy seeds are non-negative
}


def write_split_manifest(
    path: str | Path,
    train_ids: Iterable[str],
    test_ids: Iterable[str],
    labeled_ids: Iterable[str],
    ratio: tuple[int, int],
    trial: int,
    seed: int,
) -> None:
    """Write ``# ratio``, ``# trial`` and ``# seed`` header lines, then
    ``doc_id<TAB>side<TAB>labeled_flag`` lines, one per document, replacing
    ``path`` whole (``corpus.replacing``)."""
    labeled = set(labeled_ids)
    lines = [f"# ratio {ratio_str(ratio)}", f"# trial {trial}", f"# seed {seed}"]
    for doc_id in train_ids:
        flag = 1 if doc_id in labeled else 0
        lines.append(f"{doc_id}\t{SIDE_TRAIN}\t{flag}")
    for doc_id in test_ids:
        lines.append(f"{doc_id}\t{SIDE_TEST}\t0")
    with replacing(Path(path)) as f:
        f.write("\n".join(lines) + "\n")


def read_split_manifest(
    path: str | Path, corpus: Corpus
) -> tuple[tuple[tuple[int, int], int, int], Corpus, Corpus, np.ndarray]:
    """Read a split manifest over a fully labeled corpus in one pass into
    ``((ratio, trial, seed), train, test, labeled)``: the parsed headers,
    the rows of each side in manifest order and a bool per train row. Every
    manifest doc id must exist in the corpus and be listed once. A ``#``
    line other than the three headers is a comment; the headers are checked
    after every other line, so a malformed line is reported first."""
    header: dict[str, str] = {}
    row_of = {doc_id: i for i, doc_id in enumerate(corpus.doc_ids)}
    rows: dict[str, list[int]] = {SIDE_TRAIN: [], SIDE_TEST: []}
    labeled: list[bool] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split(None, 1)
            if len(parts) == 2 and parts[0] in _HEADERS:
                header[parts[0]] = parts[1]
            continue
        fields = line.split("\t")
        if len(fields) != 3 or fields[1] not in rows:
            raise DataError(f"{path}:{lineno}: malformed manifest line {line!r}")
        doc_id, side, flag = fields
        if flag not in ("0", "1"):
            raise DataError(f"{path}:{lineno}: labeled flag {flag!r} is not 0 or 1")
        i = row_of.pop(doc_id, None)
        if i is None:
            raise DataError(f"manifest doc id {doc_id!r} not present in corpus or listed twice")
        rows[side].append(i)
        if side == SIDE_TRAIN:
            labeled.append(flag == "1")
    values = []
    for key, (parse, form) in _HEADERS.items():
        if key not in header:
            raise DataError(f"manifest {path} is missing the {key!r} header")
        try:
            values.append(parse(header[key]))
        except ValueError:
            raise DataError(f"{path}: header '# {key} {header[key]}' is not {form}") from None
    train, test = corpus.subset(rows[SIDE_TRAIN]), corpus.subset(rows[SIDE_TEST])
    return tuple(values), train, test, np.array(labeled, dtype=bool)


def replay_trial(
    corpus: Corpus | str | Path,
    manifest_path: str | Path,
    config: SweepConfig,
) -> TrialResult:
    """Re-run one trial exactly from its emitted manifest.

    The manifest pins the train/test split and the labeled mask; the recorded
    seed drives every remaining stochastic stage, so the result is
    bit-identical to the original trial, whose ratio and index it carries.
    """
    if not isinstance(corpus, Corpus):
        corpus = load_directory_corpus(corpus, config.tokenizer)
    (ratio, trial, seed), train, test, labeled = read_split_manifest(manifest_path, corpus)
    d_labeled, d_unlabeled = mask_from_flags(train, labeled)
    result = _run_pipeline(d_labeled, d_unlabeled, test, ratio, seed, config)
    return dataclasses.replace(result, trial=trial)
