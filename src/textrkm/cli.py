"""Command-line interface: train, classify, eval, sweep.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import secrets
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from . import kernels
from .classifier import classify_batch
from .corpus import (
    DocumentReader, TokenizerConfig, load_directory_corpus, mask_labels, scan_directory,
)
from .errors import DataError, InvariantError, json_field
from .evaluation import align_labels, confusion, format_report, score
from .harness import (
    SweepConfig, default_ratio_grid, emit_results, fit, parse_ratio, ratio_str, run_sweep,
)
from .representation import TermClassWeights, embed_corpus, weights_from_dict, weights_to_dict
from .rkmeans import (
    ClusterModel,
    KMeansConfig,
    RecursiveConfig,
    model_from_dict,
    model_from_v1_dict,
    model_from_v3_dict,
    model_to_dict,
    pool_labels,
)

_BUNDLE_FORMAT = "textrkm-bundle"
_BUNDLE_VERSION = 4
# the model reader of each bundle version; versions 1-3 also store the
# training partition, which is checked and dropped
_MODEL_READERS = {1: model_from_v1_dict, 2: model_from_v3_dict, 3: model_from_v3_dict, 4: model_from_dict}


def save_bundle(
    path: str | Path,
    model: ClusterModel,
    weights: TermClassWeights,
    tokenizer: TokenizerConfig,
) -> None:
    """One self-contained JSON file: tokenizer + term/class counts + cluster
    model, without the training partition. It replaces ``path`` whole
    (``_replacing``)."""
    payload = {
        "format": _BUNDLE_FORMAT,
        "version": _BUNDLE_VERSION,
        "tokenizer": tokenizer.to_dict(),
        "weights": weights_to_dict(weights),
        "model": model_to_dict(model),
    }
    with _replacing(Path(path)) as f:
        f.write(json.dumps(payload))


def load_bundle(path: str | Path) -> tuple[ClusterModel, TermClassWeights, TokenizerConfig]:
    """Read a version-4 bundle, or a version-1 to -3 one; anything else raises DataError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ValueError, RecursionError) as exc:
        # bad JSON, an integer past the int-string limit, or nesting too deep
        raise DataError(f"cannot read model bundle {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _BUNDLE_FORMAT:
        raise DataError(f"{path} is not a model bundle")
    version = json_field(payload, "version", int)
    if version not in _MODEL_READERS:
        raise DataError(f"{path}: unsupported bundle version {version!r}")
    try:
        model = _MODEL_READERS[version](json_field(payload, "model", dict))
        weights = weights_from_dict(json_field(payload, "weights", dict), version)
        tokenizer = TokenizerConfig.from_dict(json_field(payload, "tokenizer", dict))
    except (OverflowError, InvariantError) as exc:  # too large a number; parts that disagree
        raise DataError(f"malformed model bundle {path}: {exc}") from exc
    if weights.class_names != model.class_names or len(set(model.class_names)) < model.n_classes:
        raise DataError(f"{path}: the weights and the model must list the same distinct class names")
    return model, weights, tokenizer


def _tokenizer_from_args(args) -> TokenizerConfig:
    words = Path(args.stopwords).read_text(encoding="utf-8").split() if args.stopwords else ()
    return TokenizerConfig(args.min_token_len, frozenset(w.lower() for w in words))


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
    if args.seed < 0:  # numpy seeds are non-negative
        raise DataError(f"--seed must be >= 0, got {args.seed}")
    tokenizer = _tokenizer_from_args(args)
    corpus = load_directory_corpus(args.corpus, tokenizer)
    _warn_skipped(Path(args.corpus), corpus.skipped)
    d_labeled, d_unlabeled = mask_labels(corpus, args.labeled_frac, args.seed)
    weights, model, training = fit(
        d_labeled,
        d_unlabeled,
        args.smoothing,
        _recursive_config_from_args(args),
        args.seed,
        args.pool_size,
    )
    save_bundle(args.model_out, model, weights, tokenizer)
    n_docs = training.n_docs
    print(
        f"trained on {n_docs} docs "
        f"({d_labeled.n_docs} labeled, {n_docs - d_labeled.n_docs} unlabeled), "
        f"{model.n_classes} classes -> {model.n_clusters} clusters "
        f"(fallback acceptances: {model.stats.fallback_total}, "
        f"orphans: {model.stats.orphan_count}, backend: {kernels.backend()})"
    )
    print(f"model written to {args.model_out}")
    if args.pool_labels_out is not None:
        labels = pool_labels(model.labels, model.cluster_of, training.doc_ids, training.labels >= 0)
        names = model.class_names
        with _replacing(Path(args.pool_labels_out)) as f:
            f.write("".join(f"{doc_id}\t{names[c]}\n" for doc_id, c in labels.items()))
        print(f"{len(labels)} pool labels written to {args.pool_labels_out}")
    return 0


def _input_files(path: Path) -> tuple[Path, Iterator[tuple[str, str | None]]]:
    """The directory doc ids name files under, and the ``(doc_id, path)`` of
    the input files in order: every file directly under a directory (id
    ``filename``) and every file one level down (id ``subdir/filename``);
    labels implied by a class layout are ignored here. An entry that is not
    a regular file has the path None. Every directory is listed here, so no
    file made later, such as the output's, is an input."""
    if path.is_file():
        return path.parent, iter([(path.name, path)])
    if not path.is_dir():
        raise DataError(f"input path {path} does not exist")
    listing = scan_directory(path)
    subdirs = {name: scan_directory(p) for name, is_dir, p in listing if is_dir}

    def files():
        for name, is_dir, p in listing:
            if is_dir:
                yield from ((f"{name}/{f}", q) for f, sub, q in subdirs[name] if not sub)
            else:
                yield name, p

    return path, files()


@contextmanager
def _replacing(out: Path) -> Iterator[TextIO]:
    """A new text file in ``out``'s directory that replaces ``out`` when the
    block ends without an error, and is removed when it raises one: ``out``
    is never left holding part of a result."""
    tmp = out.parent / f".{out.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, out)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_classify(args) -> int:
    """Read, embed, classify and write the input one reader batch at a time,
    each word read straight into its row of the bundle's weights."""
    model, weights, tokenizer = load_bundle(args.model)
    path, out = Path(args.input), Path(args.out)
    base, files = _input_files(path)
    reader = DocumentReader(tokenizer, weights.vocabulary)
    names = model.class_names
    n_files = n_preds = 0
    with _replacing(out) as f:
        for skipped in reader.batches(files):
            _warn_skipped(base, skipped)
            n_files += len(skipped) + len(reader.doc_ids)
            if not reader.doc_ids:
                continue
            x, doc_ids = embed_corpus(reader.pop(), weights)
            preds = classify_batch(x, model, doc_ids)
            f.write("".join(f"{p.doc_id}\t{names[p.label]}\t{p.distance!r}\n" for p in preds))
            n_preds += len(preds)
        if not n_files:
            raise DataError(f"no input documents under {path}")
        if not n_preds:
            raise DataError(f"no usable documents under {path}")
    print(f"{n_preds} predictions written to {out}")
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
            pairs.append(parse_ratio(part.strip()))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; every later call returns it."""
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
    p_train.add_argument("--pool-labels-out", default=None,
                         help="also write doc_id<TAB>class_name for each unlabeled training document")
    add_common_training_flags(p_train)

    p_classify = sub.add_parser("classify", help="label documents with a trained model")
    p_classify.add_argument("--model", required=True)
    p_classify.add_argument("--input", required=True, help="document file or directory")
    p_classify.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="score a predictions file against ground truth")
    p_eval.add_argument("--predictions", required=True)
    p_eval.add_argument("--truth", required=True)

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
        # looked up by name at each call, so that a rebinding of cmd_* holds
        return globals()[f"cmd_{args.command}"](args)
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
