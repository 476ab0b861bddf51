"""Command-line interface: train, classify, eval, sweep.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

from . import kernels
from .bundle import load_bundle, save_bundle
from .classifier import classify_batch
from .corpus import (
    DocumentReader, TokenizerConfig, load_directory_corpus, mask_labels, replacing, scan_directory,
)
from .errors import DataError, InvariantError
from .evaluation import align_labels, confusion, format_report, score
from .harness import (
    SweepConfig, emit_results, fit, parse_ratio, ratio_str, run_sweep,
)
from .representation import embed_corpus
from .rkmeans import KMeansConfig, RecursiveConfig, pool_labels


def _config_from_args(args, **sweep) -> SweepConfig:
    """The settings of ``add_common_training_flags``, and a sweep's own in ``sweep``."""
    words = () if args.stopwords is None else Path(args.stopwords).read_text(encoding="utf-8").split()
    return SweepConfig(
        smoothing=args.smoothing,
        recursive=RecursiveConfig(th_percent=args.th, kmeans=KMeansConfig(distance=args.distance)),
        tokenizer=TokenizerConfig(args.min_token_len, frozenset(w.lower() for w in words)),
        unlabeled_pool_size=args.pool_size,
        **sweep,
    )


def _refuse_one_file(flag: str, path: str, other_flag: str, other: str | None) -> None:
    """A usage error when two path options name one file, which one of the writes would replace."""
    if other is not None and os.path.realpath(path) == os.path.realpath(other):
        raise _UsageError(f"{flag} and {other_flag} name one file: {path}")


def _corpus_dirs(corpus: str) -> list[str]:
    """The real paths of the corpus root and of its class directories, the
    root first; none when the root is not a directory (loading it fails)."""
    if not os.path.isdir(corpus):
        return []
    classes = [p for _, is_dir, p in scan_directory(corpus) if is_dir]
    return [os.path.realpath(p) for p in (corpus, *classes)]


def _refuse_output(flag: str, path: str | None, corpus: str | None = None) -> None:
    """A data error when the directory of ``path`` does not exist; a usage
    error when it is a class directory of ``corpus``, whose next load would
    read the file as a document."""
    if path is None:
        return
    parent = Path(path).parent
    if not parent.is_dir():
        raise DataError(f"{flag} {path}: {parent} is not an existing directory")
    if corpus is not None and os.path.realpath(parent) in _corpus_dirs(corpus)[1:]:
        raise _UsageError(f"{flag} {path} is inside a class directory of --corpus {corpus}")


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
    _refuse_one_file("--model-out", args.model_out, "--pool-labels-out", args.pool_labels_out)
    _refuse_output("--model-out", args.model_out, args.corpus)
    _refuse_output("--pool-labels-out", args.pool_labels_out, args.corpus)
    config = _config_from_args(args)
    corpus = load_directory_corpus(args.corpus, config.tokenizer)
    _warn_skipped(Path(args.corpus), corpus.skipped)
    d_labeled, d_unlabeled = mask_labels(corpus, args.labeled_frac, args.seed)
    weights, model, training = fit(d_labeled, d_unlabeled, config, args.seed)
    save_bundle(args.model_out, model, weights, config.tokenizer)
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
        with replacing(Path(args.pool_labels_out)) as f:
            f.write("".join(f"{doc_id}\t{names[c]}\n" for doc_id, c in labels.items()))
        print(f"{len(labels)} pool labels written to {args.pool_labels_out}")
    return 0


def _input_files(path: Path, out: Path) -> tuple[Path, Iterator[tuple[str, str | None]]]:
    """The directory doc ids name files under, and the ``(doc_id, path)`` of
    the input files in order: every file directly under a directory (id
    ``filename``) and every file one level down (id ``subdir/filename``);
    labels implied by a class layout are ignored here. An entry that is not
    a regular file has the path None. Every directory is listed here, so no
    file made later, such as the output's temporary file, is an input; nor
    is the entry at ``out``, which the output replaces."""
    out_dir = os.stat(out.parent)

    def holds_out(directory) -> bool:  # one stat per directory, none per file
        return os.path.samestat(os.stat(directory), out_dir)

    def scan(directory):
        listing = scan_directory(directory)
        return [e for e in listing if e[0] != out.name] if holds_out(directory) else listing

    if path.is_file():
        at_out = path.name == out.name and holds_out(path.parent)
        return path.parent, iter([] if at_out else [(path.name, path)])
    if not path.is_dir():
        raise DataError(f"input path {path} does not exist")
    listing = scan(path)
    subdirs = {name: scan(p) for name, is_dir, p in listing if is_dir}

    def files():
        for name, is_dir, p in listing:
            if is_dir:
                yield from ((f"{name}/{f}", q) for f, sub, q in subdirs[name] if not sub)
            else:
                yield name, p

    return path, files()


def cmd_classify(args) -> int:
    """Read, embed, classify and write the input one reader batch at a time,
    each word read straight into its row of the model's weights."""
    _refuse_one_file("--model", args.model, "--out", args.out)
    _refuse_output("--out", args.out)
    model, weights, tokenizer = load_bundle(args.model)
    path, out = Path(args.input), Path(args.out)
    base, files = _input_files(path, out)
    reader = DocumentReader(tokenizer, weights.vocabulary)
    names = model.class_names
    n_files = n_preds = 0
    with replacing(out) as f:
        for skipped in reader.batches(files):
            _warn_skipped(base, skipped)
            n_files += len(skipped) + len(reader.doc_ids)
            if not reader.doc_ids:
                continue
            x, doc_ids = embed_corpus(reader.pop(), weights)
            preds = classify_batch(x, model, doc_ids)
            rows = zip(doc_ids, map(names.__getitem__, preds.labels.tolist()), preds.distances.tolist())
            f.write("".join(f"{d}\t{c}\t{r!r}\n" for d, c, r in rows))
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


def _path(text: str) -> str:
    """A path flag's value; an empty one, which would name the current directory, is refused."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _parse_ratio_grid(text: str) -> tuple[tuple[int, int], ...]:
    """The ``--ratios`` pairs; a usage error, raised out of ``parse_args``, otherwise."""
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
    # the sweep's files at or under the corpus would be read back as
    # documents, or its manifests as a class, by the next load
    out = os.path.realpath(args.out)
    if any(os.path.commonpath([d, out]) == d for d in _corpus_dirs(args.corpus)):
        raise _UsageError(f"--out {args.out} is at or under --corpus {args.corpus}")
    config = _config_from_args(
        args,
        ratio_grid=args.ratios,
        trials_per_ratio=args.trials,
        base_seed=args.base_seed,
        test_fraction=args.test_fraction,
        transductive=args.transductive,
    )
    # emit_results makes the directory and its missing parents
    made = next(p for p in (Path(args.out), *Path(args.out).parents) if os.path.lexists(p))
    if not made.is_dir():
        raise DataError(f"--out {args.out}: {made} is not a directory")
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

    sweep = SweepConfig()  # the default of each setting

    def add_common_training_flags(p):
        p.add_argument("--th", type=float, default=sweep.recursive.th_percent,
                       help="relative-percentage outlier threshold (default %(default)s)")
        p.add_argument("--distance", choices=kernels.METRICS, default=sweep.recursive.kmeans.distance)
        p.add_argument("--smoothing", type=float, default=sweep.smoothing,
                       help="additive smoothing for term weights (default %(default)s)")
        p.add_argument("--min-token-len", type=int, default=sweep.tokenizer.min_token_len)
        p.add_argument("--stopwords", type=_path, default=None, help="optional stopword file")
        p.add_argument("--pool-size", type=int, default=None,
                       help="unlabeled documents to draw into training (default: all)")

    p_train = sub.add_parser("train", help="build a model from a labeled corpus directory")
    p_train.add_argument("--corpus", type=_path, required=True)
    p_train.add_argument("--labeled-frac", type=float, required=True,
                         help="fraction of documents whose labels the learner may see")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--model-out", type=_path, required=True)
    p_train.add_argument("--pool-labels-out", type=_path, default=None,
                         help="also write doc_id<TAB>class_name for each unlabeled training document")
    add_common_training_flags(p_train)

    p_classify = sub.add_parser("classify", help="label documents with a trained model")
    p_classify.add_argument("--model", type=_path, required=True)
    p_classify.add_argument("--input", type=_path, required=True, help="document file or directory")
    p_classify.add_argument("--out", type=_path, required=True)

    p_eval = sub.add_parser("eval", help="score a predictions file against ground truth")
    p_eval.add_argument("--predictions", type=_path, required=True)
    p_eval.add_argument("--truth", type=_path, required=True)

    p_sweep = sub.add_parser("sweep", help="run the labeled:unlabeled ratio sweep")
    p_sweep.add_argument("--corpus", type=_path, required=True)
    p_sweep.add_argument("--trials", type=int, default=sweep.trials_per_ratio)
    p_sweep.add_argument("--base-seed", type=int, default=sweep.base_seed)
    p_sweep.add_argument("--out", type=_path, required=True)
    p_sweep.add_argument("--ratios", type=_parse_ratio_grid, default=sweep.ratio_grid,
                         help='comma-separated pairs like "1:49,10:40" (default 1:49 .. 20:30)')
    p_sweep.add_argument("--test-fraction", type=float, default=sweep.test_fraction)
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
