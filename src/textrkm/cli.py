"""Command-line interface: train, classify, eval, sweep.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable

from . import kernels
from .classifier import classify_batch
from .corpus import (
    Corpus, DocumentReader, TokenizerConfig, load_directory_corpus, mask_labels, scan_directory,
)
from .errors import DataError, InvariantError
from .evaluation import align_labels, confusion, format_report, score
from .harness import SweepConfig, default_ratio_grid, emit_results, fit, ratio_str, run_sweep
from .representation import TermClassWeights, embed_corpus, weights_from_dict, weights_to_dict
from .rkmeans import (
    ClusterModel,
    KMeansConfig,
    RecursiveConfig,
    model_from_dict,
    model_from_v1_dict,
    model_to_dict,
)

_BUNDLE_FORMAT = "textrkm-bundle"
_BUNDLE_VERSION = 3


def save_bundle(
    path: str | Path,
    model: ClusterModel,
    weights: TermClassWeights,
    tokenizer: TokenizerConfig,
) -> None:
    """One self-contained JSON file: tokenizer + term/class counts + cluster model."""
    payload = {
        "format": _BUNDLE_FORMAT,
        "version": _BUNDLE_VERSION,
        "tokenizer": tokenizer.to_dict(),
        "weights": weights_to_dict(weights),
        "model": model_to_dict(model),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_bundle(path: str | Path) -> tuple[ClusterModel, TermClassWeights, TokenizerConfig]:
    """Read a version-3 bundle, or a version-1 or -2 one; anything else raises DataError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model bundle {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _BUNDLE_FORMAT:
        raise DataError(f"{path} is not a model bundle")
    version = payload.get("version")
    if version not in (1, 2, 3):
        raise DataError(f"{path}: unsupported bundle version {version!r}")
    read_model = model_from_v1_dict if version == 1 else model_from_dict
    try:
        return (
            read_model(payload["model"]),
            weights_from_dict(payload["weights"], version),
            TokenizerConfig.from_dict(payload["tokenizer"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"malformed model bundle {path}: {type(exc).__name__}: {exc}") from exc
    except InvariantError as exc:  # the file is at fault, not the program
        raise DataError(f"inconsistent model bundle {path}: {exc}") from exc


def _tokenizer_from_args(args) -> TokenizerConfig:
    stopwords: frozenset[str] = frozenset()
    if args.stopwords:
        words = Path(args.stopwords).read_text(encoding="utf-8").split()
        stopwords = frozenset(w.lower() for w in words)
    return TokenizerConfig(min_token_len=args.min_token_len, stopwords=stopwords)


def _recursive_config_from_args(args) -> RecursiveConfig:
    return RecursiveConfig(th_percent=args.th, kmeans=KMeansConfig(distance=args.distance))


def _warn_skipped(base: Path, skipped: Iterable[tuple[str, str]]) -> None:
    """One warning line per ``(doc_id, why)`` file skipped under ``base``."""
    for doc_id, why in skipped:
        if why == "empty":
            what = f"document {doc_id}"
        elif why == "unreadable":
            what = f"file {base / doc_id}"
        else:  # a name an output line cannot carry, so it is quoted here
            what = f"file {str(base / doc_id)!r}"
        print(f"warning: skipping {why} {what}", file=sys.stderr)


def cmd_train(args) -> int:
    tokenizer = _tokenizer_from_args(args)
    corpus = load_directory_corpus(args.corpus, tokenizer)
    _warn_skipped(Path(args.corpus), corpus.skipped)
    d_labeled, d_unlabeled = mask_labels(corpus, args.labeled_frac, args.seed)
    weights, model = fit(
        d_labeled,
        d_unlabeled,
        args.smoothing,
        _recursive_config_from_args(args),
        args.seed,
        args.pool_size,
    )
    save_bundle(args.model_out, model, weights, tokenizer)
    n_docs = model.n_training_points
    print(
        f"trained on {n_docs} docs "
        f"({d_labeled.n_docs} labeled, {n_docs - d_labeled.n_docs} unlabeled), "
        f"{model.n_classes} classes -> {model.n_clusters} clusters "
        f"(fallback acceptances: {model.stats.fallback_total}, "
        f"orphans: {model.stats.orphan_count}, backend: {kernels.backend()})"
    )
    print(f"model written to {args.model_out}")
    return 0


def _read_input(path: Path, tokenizer: TokenizerConfig, class_names: tuple[str, ...]) -> Corpus:
    """An unlabeled corpus of the input files: every file directly under a
    directory (id ``filename``) and every file one level down (id
    ``subdir/filename``); labels implied by a class layout are ignored here.
    An entry that is not a regular file is reported unreadable, and a name
    that ``corpus._usable_name`` rejects badly named; neither is opened."""
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
    return Corpus(reader.doc_ids, [None] * len(reader.doc_ids), class_names, reader.encoding())


def cmd_classify(args) -> int:
    model, weights, tokenizer = load_bundle(args.model)
    batch = _read_input(Path(args.input), tokenizer, model.class_names)
    x, kept_ids, _dropped = embed_corpus(batch, weights)
    preds = classify_batch(x, model, kept_ids)
    lines = [
        f"{p.doc_id}\t{model.class_names[p.label]}\t{p.distance!r}" for p in preds
    ]
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(preds)} predictions written to {out}")
    return 0


def _read_label_tsv(path: str | Path) -> dict[str, str]:
    """doc_id -> class name from the first two tab-separated columns.

    A doc id listed twice is a DataError: which line should count is not
    knowable.
    """
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise DataError(f"{path}:{lineno}: expected doc_id<TAB>class, got {line!r}")
        if fields[0] in out:
            raise DataError(f"{path}:{lineno}: doc id {fields[0]!r} listed twice")
        out[fields[0]] = fields[1]
    return out


def cmd_eval(args) -> int:
    preds = _read_label_tsv(args.predictions)
    truth = _read_label_tsv(args.truth)
    true, predicted, class_names = align_labels(preds, truth)
    report = score(confusion(true, predicted, len(class_names)))
    sys.stdout.write(format_report(report, class_names))
    return 0


def _parse_ratio_grid(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for part in text.split(","):
        try:
            a, b = part.strip().split(":")
            pairs.append((int(a), int(b)))
        except ValueError:
            raise _UsageError(
                f"--ratios: {part.strip()!r} is not <labeled>:<unlabeled> in integers"
            ) from None
    return tuple(pairs)


def cmd_sweep(args) -> int:
    grid = _parse_ratio_grid(args.ratios) if args.ratios else default_ratio_grid()
    config = SweepConfig(
        ratio_grid=grid,
        trials_per_ratio=args.trials,
        base_seed=args.base_seed,
        test_fraction=args.test_fraction,
        smoothing=args.smoothing,
        recursive=_recursive_config_from_args(args),
        tokenizer=_tokenizer_from_args(args),
        unlabeled_pool_size=args.pool_size,
        transductive=args.transductive,
    )
    corpus = load_directory_corpus(args.corpus, config.tokenizer)
    _warn_skipped(Path(args.corpus), corpus.skipped)
    table = run_sweep(corpus, config)
    paths = emit_results(table, args.out)
    failures = sum(1 for r in table.records if r.error is not None)
    for row in table.rows:
        if row.metric == "accuracy":
            print(
                f"ratio {ratio_str(row.ratio)}: accuracy "
                f"mean={row.mean:.4f} min={row.vmin:.4f} max={row.vmax:.4f} "
                f"std={row.std:.4f} over {row.n_trials} trials"
            )
    if failures:
        print(f"warning: {failures} trial(s) failed; see per-trial CSV", file=sys.stderr)
    print(f"results written to {paths['per_trial'].parent}")
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="textrkm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_training_flags(p):
        p.add_argument("--th", type=float, default=5.0,
                       help="relative-percentage outlier threshold (default 5.0)")
        p.add_argument("--distance", choices=["euclidean", "cosine"], default="euclidean")
        p.add_argument("--smoothing", type=float, default=1.0,
                       help="additive smoothing for term weights (default 1.0)")
        p.add_argument("--min-token-len", type=int, default=2)
        p.add_argument("--stopwords", default=None, help="optional stopword file")
        p.add_argument("--pool-size", type=int, default=None,
                       help="unlabeled documents to draw into training (default: all)")

    p_train = sub.add_parser("train", help="build a model from a labeled corpus directory")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--labeled-frac", type=float, required=True,
                         help="fraction of documents whose labels the learner may see")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--model-out", required=True)
    add_common_training_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_classify = sub.add_parser("classify", help="label documents with a trained model")
    p_classify.add_argument("--model", required=True)
    p_classify.add_argument("--input", required=True, help="document file or directory")
    p_classify.add_argument("--out", required=True)
    p_classify.set_defaults(func=cmd_classify)

    p_eval = sub.add_parser("eval", help="score a predictions file against ground truth")
    p_eval.add_argument("--predictions", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run the labeled:unlabeled ratio sweep")
    p_sweep.add_argument("--corpus", required=True)
    p_sweep.add_argument("--trials", type=int, default=20)
    p_sweep.add_argument("--base-seed", type=int, default=0)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--ratios", default=None,
                         help='comma-separated pairs like "1:49,10:40" (default full grid)')
    p_sweep.add_argument("--test-fraction", type=float, default=0.5)
    p_sweep.add_argument("--transductive", action="store_true",
                         help="include test documents, unlabeled, during training")
    add_common_training_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
