import collections
import os
import re
import tempfile
import threading
import tracemalloc
from itertools import pairwise
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textrkm import corpus as corpus_module
from textrkm.corpus import (
    UNLABELED,
    Corpus,
    Document,
    DocumentReader,
    Encoding,
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
from textrkm.errors import DataError

from reference import tokenize
from synthdata import make_text_corpus, write_corpus_tree


def test_tokenize_keeps_stopwords_by_default():
    assert tokenize("The CAT, the cat.") == ["the", "cat", "the", "cat"]


def test_tokenize_stopword_removal():
    cfg = TokenizerConfig(stopwords=frozenset(["the"]))
    assert tokenize("The CAT, the cat.", cfg) == ["cat", "cat"]


def test_tokenize_empty_input():
    assert tokenize("") == []


def test_tokenize_min_length_filter():
    cfg = TokenizerConfig(min_token_len=3)
    assert tokenize("an ant ate it", cfg) == ["ant", "ate"]


def test_tokenize_strips_punctuation_and_digits_separate():
    assert tokenize("foo-bar 42x") == ["foo", "bar", "42x"]


REFERENCE_STRIP = re.compile(r"[^a-z0-9]+")


def reference_tokenize(text, config=TokenizerConfig()):
    """The regex tokenizer the byte table replaced."""
    words = REFERENCE_STRIP.sub(" ", text.lower()).split()
    return [w for w in words if len(w) >= config.min_token_len and w not in config.stopwords]


# runs of bytes that make words, split them, or need folding
BYTE_PIECES = [b"ab", b"Ab", b"ZZ", b"a", b"q9", b"0", b"\xc0", b"\xd7", b"\xdf", b"\xb5", b"\xfe",
               b"\xff", b"\xaa", b" ", b"\n", b"-", b"\x00"]
DOC_BYTES = st.binary(max_size=40) | st.lists(st.sampled_from(BYTE_PIECES), max_size=30).map(b"".join)


def write_files(directory, docs):
    """``(doc_id, path)`` of each of ``docs`` written to a file of its own;
    None stands for an entry that is no regular file, "missing" for a path
    that fails to open."""
    files = []
    for i, d in enumerate(docs):
        path = directory / f"d{i:02d}"
        if isinstance(d, bytes):
            path.write_bytes(d)
        files.append((f"d{i:02d}", None if d is None else path))
    return files


def expected_read(docs, config):
    """The documents and the ``(doc_id, why)`` skips of ``write_files(docs)``."""
    documents, skipped = [], []
    for i, d in enumerate(docs):
        tokens = reference_tokenize(d.decode("latin-1"), config) if isinstance(d, bytes) else []
        if tokens:
            documents.append(Document(f"d{i:02d}", tuple(tokens)))
        else:
            skipped.append((f"d{i:02d}", "empty" if isinstance(d, bytes) else "unreadable"))
    return documents, skipped


def draw_config(data, docs):
    texts = [d.decode("latin-1") for d in docs if isinstance(d, bytes)]
    words = sorted({w for t in texts for w in REFERENCE_STRIP.sub(" ", t.lower()).split()})
    return TokenizerConfig(
        min_token_len=data.draw(st.integers(1, 4)),
        stopwords=frozenset(data.draw(st.sets(st.sampled_from(words or ["ab"])))),
    )


@settings(max_examples=300, deadline=None)
@given(
    docs=st.lists(DOC_BYTES | st.sampled_from([None, "missing"]), min_size=1, max_size=12),
    budget=st.just(corpus_module.READ_BATCH_BYTES) | st.integers(1, 48),
    cuts=st.lists(st.integers(0, 12), max_size=3),
    data=st.data(),
)
@example(
    docs=[bytes(range(256)), bytes(range(256))[::-1]], budget=corpus_module.READ_BATCH_BYTES, cuts=[], data=None
)
@example(docs=[b"ab cd", None, b"", b"cd ef ab", "missing", b"ab"], budget=4, cuts=[3], data=None)
def test_reader_tokens_equal_the_regex_tokenizer_on_latin1_bytes(docs, budget, cuts, data):
    """One reader, files split over several ``read`` calls. With a batch
    budget of a few bytes, a batch holds one or a few files and a file takes
    several read calls, so words must keep their verdicts and ids across
    batches and calls, and no document may be lost at a batch's end."""
    config = TokenizerConfig(min_token_len=1) if data is None else draw_config(data, docs)
    reader = DocumentReader(config)
    skipped = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(corpus_module, "READ_BATCH_BYTES", budget):
        files = write_files(Path(tmp), docs)
        for a, b in pairwise([0, *sorted(cuts), len(files)]):
            skipped += reader.read(files[a:b])
    documents, expected_skipped = expected_read(docs, config)
    assert skipped == expected_skipped
    assert reader.doc_ids == [d.doc_id for d in documents]
    expected = Corpus.from_documents(documents, [None] * len(documents), ()).encoding
    assert_same_encoding(reader.encoding(), expected)
    for d in docs:
        if isinstance(d, bytes):
            assert tokenize(d.decode("latin-1"), config) == reference_tokenize(d.decode("latin-1"), config)


def assert_same_encoding(enc, expected):
    """The same terms, and the same ids in the same rows, as ``expected``."""
    assert list(enc.terms) == list(expected.terms)
    assert enc.ids.dtype == np.int32 and np.array_equal(enc.ids, expected.ids)
    assert enc.starts.dtype == enc.lengths.dtype == np.int64
    assert np.array_equal(enc.starts, expected.starts) and np.array_equal(enc.lengths, expected.lengths)


def test_reading_many_small_files_keeps_a_bounded_peak(tmp_path):
    """The reader's transient memory is set by its batch budget, not by how
    many files it reads."""
    rng = np.random.default_rng(0)
    words = [f"word{i:03d}" for i in range(400)]

    def transient_peak(n_files):
        directory = tmp_path / str(n_files)
        directory.mkdir()
        docs = [" ".join(rng.choice(words, 100)).encode() for _ in range(n_files)]  # 800 bytes each
        files = write_files(directory, docs)
        reader = DocumentReader(TokenizerConfig())
        tracemalloc.start()
        try:
            assert reader.read(files) == []
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - current

    budget = corpus_module.READ_BATCH_BYTES
    few, many = transient_peak(500), transient_peak(4000)  # 2 and 13 batches
    assert many < 16 * budget
    assert many < few + budget


def read_encoding(files, budget):
    reader = DocumentReader(TokenizerConfig())
    with mock.patch.object(corpus_module, "READ_BATCH_BYTES", budget):
        skipped = reader.read(files)
    return reader, skipped


def test_reading_a_large_file_keeps_a_bounded_peak(tmp_path):
    """A file of eight batch budgets is tokenized in pieces: the peak stays a
    small multiple of the budget, and the encoding is the one the whole file
    read as one batch gives."""
    rng = np.random.default_rng(0)
    words = [f"word{i:03d}" for i in range(400)]
    budget = corpus_module.READ_BATCH_BYTES
    files = write_files(tmp_path, [" ".join(rng.choice(words, budget)).encode()])  # 8 x budget
    tracemalloc.start()
    try:
        reader, skipped = read_encoding(files, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the ids kept take 4 x budget; the whole file as one batch peaks at ~60 x
    assert peak < 16 * budget
    whole, whole_skipped = read_encoding(files, 16 * budget)
    assert skipped == whole_skipped == [] and reader.doc_ids == whole.doc_ids
    assert_same_encoding(reader.encoding(), whole.encoding())


def test_reading_through_a_vocabulary_stores_no_unknown_word(tmp_path):
    """Words outside the vocabulary read as its OOV id and are not kept, so
    files of distinct unknown words peak no higher than files drawn from the
    vocabulary, read a batch at a time as ``classify`` does."""
    vocabulary = {f"v{i:07d}": i for i in range(1000)}
    rng = np.random.default_rng(0)

    def read(name, words):
        (tmp_path / name).mkdir()
        docs = [" ".join(words[i : i + 30]).encode() for i in range(0, len(words), 30)]
        files = write_files(tmp_path / name, docs)
        reader, ids = DocumentReader(TokenizerConfig(), vocabulary), []
        tracemalloc.start()
        try:
            for skipped in reader.batches(files):
                assert skipped == []
                ids.append(reader.pop().encoding.ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reader.terms) == len(vocabulary) + 1  # and the separator
        return peak, np.concatenate(ids)

    known_peak, known = read("known", [f"v{i:07d}" for i in rng.integers(0, 1000, 60_000)])
    unknown_peak, unknown = read("unknown", [f"u{i:07d}" for i in range(60_000)])
    assert len(known) == len(unknown) == 60_000 and np.all(unknown == len(vocabulary)) and np.all(known < 1000)
    # storing 60,000 unknown words would take several MB
    assert unknown_peak < known_peak + corpus_module.READ_BATCH_BYTES


def test_a_corpus_read_through_a_vocabulary_cannot_be_decoded(tmp_path):
    # such an encoding keeps no term table, and is no load of another corpus
    files = write_files(tmp_path, [b"alpha beta", b"gamma"])
    reader = DocumentReader(TokenizerConfig(), {"alpha": 0, "gamma": 1})
    assert reader.read(files) == []
    read = reader.pop()
    assert read.encoding.ids.tolist() == [0, 2, 1]
    with pytest.raises(DataError, match="read through a vocabulary keeps no term table"):
        read.documents
    other = Corpus.from_documents([Document("x", ("alpha",))], [None], ())
    for a, b in ((read, other), (other, read)):
        with pytest.raises(DataError, match="of different loads"):
            concat_corpora(a, b)


def test_a_large_file_failing_midway_leaves_no_trace(tmp_path, monkeypatch):
    """A read error after some pieces of a file were added makes the file
    unreadable and forgets its tokens and the words only it held."""
    files = write_files(tmp_path, [b"ab cd", b"gh ij cd ef", b"ef ab"])

    class FailingOs:
        """``os`` as the reader sees it: reads fail after the first one."""

        reads = 0

        def __getattr__(self, name):
            return getattr(os, name)

        def read(self, fd, n):
            self.reads += 1
            if self.reads > 1:
                raise OSError("read error")
            return os.read(fd, n)

    reader = DocumentReader(TokenizerConfig(min_token_len=1))
    expected = DocumentReader(TokenizerConfig(min_token_len=1))
    expected_skipped = expected.read(files[::2])
    with mock.patch.object(corpus_module, "READ_BATCH_BYTES", 4):
        skipped = reader.read(files[:1])
        monkeypatch.setattr(corpus_module, "os", FailingOs())
        skipped += reader.read(files[1:2])  # "gh " is added before the error
        monkeypatch.setattr(corpus_module, "os", os)
        skipped += reader.read(files[2:])
    assert skipped == [("d01", "unreadable")] and expected_skipped == []
    assert reader.doc_ids == expected.doc_ids == ["d00", "d02"]
    assert list(reader.encoding().terms) == ["ab", "cd", "ef"]
    assert_same_encoding(reader.encoding(), expected.encoding())


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(st.characters(codec=None, categories=None), max_size=40)
    | st.lists(
        st.sampled_from(["\u212a", "K", "k", "\u0130", "\u00df", "A", "1", " ", "\ud800"]), max_size=20
    ).map("".join),
    min_len=st.integers(1, 4),
)
@example(text="\u212aelvin \u212a", min_len=1)  # KELVIN SIGN lowercases to "k"
def test_tokenize_equals_the_regex_tokenizer_on_any_str(text, min_len):
    config = TokenizerConfig(min_token_len=min_len)
    assert tokenize(text, config) == reference_tokenize(text, config)


def test_load_directory_corpus_counts(tmp_path):
    for cname in ("alpha", "beta"):
        d = tmp_path / cname
        d.mkdir()
        for i in range(3):
            (d / f"doc{i}.txt").write_text(f"{cname} words here number{i}")
    corpus = load_directory_corpus(tmp_path)
    assert corpus.n_docs == 6
    assert corpus.n_classes == 2
    assert corpus.class_names == ("alpha", "beta")
    assert None not in corpus.labels
    assert corpus.skipped == ()


def test_load_directory_skips_empty_and_unreadable(tmp_path):
    d = tmp_path / "only"
    d.mkdir()
    for i in range(8):
        (d / f"doc{i}.txt").write_text(f"some real words {i}")
    (d / "empty.txt").write_text("??? !!! .")  # nothing survives tokenization
    (d / "gone.txt").symlink_to(tmp_path / "missing-target")  # unreadable
    corpus = load_directory_corpus(tmp_path)
    assert corpus.n_docs == 8
    assert corpus.skipped == (("only/empty.txt", "empty"), ("only/gone.txt", "unreadable"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_load_directory_skips_a_named_pipe_without_opening_it(tmp_path):
    d = tmp_path / "only"
    d.mkdir()
    (d / "doc.txt").write_text("some real words")
    os.mkfifo(d / "pipe")  # opening it for reading would block until a writer comes
    loaded = []
    worker = threading.Thread(target=lambda: loaded.append(load_directory_corpus(tmp_path)), daemon=True)
    worker.start()
    worker.join(5)
    assert not worker.is_alive(), "loading blocked on the named pipe"
    assert loaded[0].doc_ids == ["only/doc.txt"] and loaded[0].skipped == (("only/pipe", "unreadable"),)


def reference_load(root, config):
    """Documents and skipped ``(doc_id, why)`` of a class tree, read file by
    file with pathlib and the regex tokenizer."""
    documents, skipped = [], []
    for cdir in sorted(p for p in root.iterdir() if p.is_dir()):
        for f in sorted(p for p in cdir.iterdir() if not p.is_dir()):
            doc_id = f"{cdir.name}/{f.name}"
            try:
                tokens = reference_tokenize(f.read_bytes().decode("latin-1"), config)
            except OSError:
                skipped.append((doc_id, "unreadable"))
                continue
            if tokens:
                documents.append(Document(doc_id, tuple(tokens)))
            else:
                skipped.append((doc_id, "empty"))
    return documents, tuple(skipped)


@pytest.mark.parametrize(
    "config",
    [TokenizerConfig(), TokenizerConfig(min_token_len=3, stopwords=frozenset(["end", "caf"]))],
    ids=["default", "len3-stopwords"],
)
def test_loaded_tree_equals_the_regex_tokenizer(tmp_path, config):
    alpha, beta = tmp_path / "alpha", tmp_path / "beta"
    (alpha / "nested").mkdir(parents=True)
    beta.mkdir()
    (alpha / "upper.txt").write_bytes(b"Hello WORLD, Caf\xe9 na\xefve \xc0\xc9\xfe end. AB12 x")
    (alpha / "latin.txt").write_bytes(bytes(range(256)) + b" end the END")
    (alpha / "punct.txt").write_bytes(b"?!... --- \xff\xd7")
    (alpha / "empty.txt").write_bytes(b"")
    (alpha / "broken.txt").symlink_to(tmp_path / "missing-target")
    (alpha / "loop.txt").symlink_to(alpha / "loop.txt")
    (alpha / "nested" / "inner.txt").write_bytes(b"never read")
    (beta / "b.txt").write_bytes(b"HELLO world \xffMIXED\xffcase\xff 42 a")
    (beta / "c.txt").write_bytes(b"Zz zz ZZ na\xefve")
    (tmp_path / "stray.txt").write_bytes(b"not a class")
    corpus = load_directory_corpus(tmp_path, config)
    documents, skipped = reference_load(tmp_path, config)
    assert corpus.documents == documents
    assert corpus.skipped == skipped
    assert {"alpha/punct.txt", "alpha/empty.txt", "alpha/broken.txt", "alpha/loop.txt"} <= dict(skipped).keys()
    assert corpus.labels.dtype == np.int64
    assert corpus.labels.tolist() == [0 if d.doc_id.startswith("alpha/") else 1 for d in documents]
    expected = Corpus.from_documents(documents, corpus.labels, corpus.class_names).encoding
    assert_same_encoding(corpus.encoding, expected)


def test_load_directory_errors(tmp_path):
    with pytest.raises(DataError):
        load_directory_corpus(tmp_path / "nope")
    empty_class = tmp_path / "tree" / "empty"
    empty_class.mkdir(parents=True)
    with pytest.raises(DataError):
        load_directory_corpus(tmp_path / "tree")


def test_split_is_deterministic_and_stratified():
    corpus = make_text_corpus(n_classes=2, docs_per_class=10, seed=1)
    train1, test1 = split_train_test(corpus, test_fraction=0.5, rng_seed=42)
    train2, test2 = split_train_test(corpus, test_fraction=0.5, rng_seed=42)
    assert train1.doc_ids == train2.doc_ids
    assert test1.doc_ids == test2.doc_ids
    per_class = collections.Counter(test1.labels)
    assert per_class[0] == 5 and per_class[1] == 5


def test_split_remerge_reproduces_multiset():
    for seed in range(5):
        corpus = make_text_corpus(n_classes=3, docs_per_class=7, seed=seed)
        train, test = split_train_test(corpus, test_fraction=0.4, rng_seed=seed)
        merged = sorted(train.doc_ids + test.doc_ids)
        assert merged == sorted(corpus.doc_ids)
        assert not set(train.doc_ids) & set(test.doc_ids)


def test_split_sizes_near_halves():
    corpus = make_text_corpus(n_classes=5, docs_per_class=193, seed=0)
    train, test = split_train_test(corpus, test_fraction=0.5, rng_seed=0)
    assert train.n_docs + test.n_docs == corpus.n_docs
    assert abs(train.n_docs - test.n_docs) <= corpus.n_classes


def test_split_rejects_singleton_class():
    corpus = Corpus.from_documents(
        documents=[Document("a/x", ("aa",)), Document("b/x", ("bb",)), Document("b/y", ("bb",))],
        labels=[0, 1, 1],
        class_names=("a", "b"),
    )
    with pytest.raises(DataError):
        split_train_test(corpus, test_fraction=0.5, rng_seed=0)


@pytest.mark.parametrize("bad_label", [None, 2, -2])
def test_split_and_mask_refuse_a_document_without_a_class_of_the_table(bad_label):
    docs = [Document(f"{c}/{i}", ("aa",)) for c in "ab" for i in range(3)]
    corpus = Corpus.from_documents(docs, [0, 0, 0, 1, 1, bad_label], ("a", "b"))
    for draw in (lambda: split_train_test(corpus), lambda: mask_labels(corpus, 0.5, 0)):
        with pytest.raises(DataError, match="requires a fully labeled corpus"):
            draw()


def test_mask_labels_fraction_arithmetic():
    # 50 docs at fraction 0.4 -> 20 labeled, 30 unlabeled
    corpus = make_text_corpus(n_classes=2, docs_per_class=25, seed=2)
    d_l, d_u = mask_labels(corpus, 0.4, rng_seed=0)
    assert d_l.n_docs == 20
    assert d_u.n_docs == 30
    assert sorted(d_l.doc_ids + d_u.doc_ids) == sorted(corpus.doc_ids)


def test_mask_labels_floor_one_per_class():
    corpus = make_text_corpus(n_classes=4, docs_per_class=13, seed=3)
    d_l, d_u = mask_labels(corpus, 0.02, rng_seed=0)  # 1:49 territory
    per_class = collections.Counter(d_l.labels)
    assert all(per_class[c] >= 1 for c in range(4))
    assert d_l.n_docs == 4


def test_mask_preserves_ground_truth():
    corpus = make_text_corpus(n_classes=3, docs_per_class=9, seed=4)
    labels = corpus.labels.tolist()
    d_l, d_u = mask_labels(corpus, 0.3, rng_seed=9)
    assert d_u.labels.tolist() == [UNLABELED] * d_u.n_docs
    assert corpus.labels.tolist() == labels  # the masked corpus keeps every label
    truth = dict(zip(corpus.doc_ids, labels))
    assert d_l.labels.tolist() == [truth[doc_id] for doc_id in d_l.doc_ids]


def test_mask_deterministic():
    corpus = make_text_corpus(n_classes=3, docs_per_class=9, seed=5)
    a = mask_labels(corpus, 0.25, rng_seed=11)
    b = mask_labels(corpus, 0.25, rng_seed=11)
    assert a[0].doc_ids == b[0].doc_ids
    assert a[1].doc_ids == b[1].doc_ids


def test_training_collection_whole_pool_and_empty_pool():
    corpus = make_text_corpus(n_classes=2, docs_per_class=10, seed=6)
    d_l, d_u = mask_labels(corpus, 0.2, rng_seed=0)
    full = make_training_collection(d_l, d_u)  # default: whole pool
    assert full.n_docs == d_l.n_docs + d_u.n_docs
    drawn = make_training_collection(d_l, d_u, pool_size=d_u.n_docs)  # a draw of every document
    assert full.documents == drawn.documents and full.labels.tolist() == drawn.labels.tolist()
    assert np.array_equal(full.encoding.token_ids(), drawn.encoding.token_ids())
    # a labeled pool still enters unlabeled
    both = make_training_collection(d_l, d_l).labels.tolist()
    assert both == d_l.labels.tolist() + [UNLABELED] * d_l.n_docs
    only_labeled = make_training_collection(d_l, d_u, pool_size=0)
    assert only_labeled.doc_ids == d_l.doc_ids
    assert UNLABELED not in only_labeled.labels.tolist()


def test_training_collection_count_arithmetic():
    corpus = make_text_corpus(n_classes=2, docs_per_class=50, seed=7)
    d_l, d_u = mask_labels(corpus, 0.1, rng_seed=0)  # 10 labeled, 90 unlabeled
    assert (d_l.n_docs, d_u.n_docs) == (10, 90)
    training = make_training_collection(d_l, d_u, pool_size=90)
    assert training.n_docs == 100
    assert np.count_nonzero(training.labels != UNLABELED) == 10
    with pytest.raises(DataError):
        make_training_collection(d_l, d_u, pool_size=91)


@pytest.mark.parametrize("pool_size", [True, 2.5, "3", np.int64(3)])
def test_training_collection_refuses_a_pool_size_that_is_no_int(pool_size):
    corpus = make_text_corpus(n_classes=2, docs_per_class=10, seed=7)
    d_l, d_u = mask_labels(corpus, 0.2, rng_seed=0)
    with pytest.raises(DataError, match="pool size must be an int"):
        make_training_collection(d_l, d_u, pool_size=pool_size)


def test_trials_take_rows_and_copy_no_tokens(tmp_path):
    """The subsets and concatenations of a trial are rows of the load's
    encoding: they share its ids, and their traced peak does not grow with
    the length of the documents."""
    words = [f"word{i:03d}" for i in range(300)]

    def trial_peaks(doc_len):
        rng, root = np.random.default_rng(0), tmp_path / str(doc_len)
        for c in range(3):
            (root / f"c{c}").mkdir(parents=True)
            for i in range(100):
                (root / f"c{c}" / f"d{i:03d}").write_text(" ".join(rng.choice(words, doc_len)))
        corpus = load_directory_corpus(root)
        train, test = split_train_test(corpus, 0.5, rng_seed=0)
        tracemalloc.start()
        try:
            d_l, d_u = mask_labels(train, 0.2, rng_seed=1)
            training = make_training_collection(d_l, d_u, rng_seed=1)
            masked = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            pool = concat_corpora(d_u, test.subset(range(test.n_docs), drop_labels=True))
            transductive = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        drawn = make_training_collection(d_l, pool, pool_size=pool.n_docs // 2, rng_seed=1)
        for part in (train, test, d_l, d_u, training, pool, drawn):
            assert part.encoding.ids is corpus.encoding.ids
        assert len(corpus.encoding.ids) == 300 * doc_len
        return masked, transductive

    (short_masked, short_pool), (long_masked, long_pool) = trial_peaks(20), trial_peaks(400)
    # copying the training half's tokens would add over 60,000 ids
    assert long_masked < short_masked + 16 * 1024
    assert long_pool < short_pool + 16 * 1024


def test_split_spec_validation():
    corpus = make_text_corpus(n_classes=2, docs_per_class=4, seed=8)
    for fraction in (0.0, 1.0, 1.5, -0.5):
        with pytest.raises(DataError, match="test_fraction"):
            split_train_test(corpus, test_fraction=fraction)


def test_manifest_round_trip(tmp_path):
    corpus = make_text_corpus(n_classes=2, docs_per_class=8, seed=8)
    train, test = split_train_test(corpus, test_fraction=0.5, rng_seed=1)
    d_l, d_u = mask_labels(train, 0.3, rng_seed=2)
    path = tmp_path / "split.tsv"
    write_split_manifest(
        path, train.doc_ids, test.doc_ids, d_l.doc_ids, meta={"seed": "2"}
    )
    meta, entries = read_split_manifest(path)
    assert meta["seed"] == "2"
    train2, test2, flags = apply_split_manifest(corpus, entries)
    assert train2.doc_ids == train.doc_ids
    assert test2.doc_ids == test.doc_ids
    d_l2, d_u2 = mask_from_flags(train2, flags)
    assert (d_l2.doc_ids, d_l2.labels.tolist()) == (d_l.doc_ids, d_l.labels.tolist())
    assert (d_u2.doc_ids, d_u2.labels.tolist()) == (d_u.doc_ids, d_u.labels.tolist())


def test_manifest_rejects_unknown_doc(tmp_path):
    corpus = make_text_corpus(n_classes=2, docs_per_class=3, seed=9)
    path = tmp_path / "bad.tsv"
    path.write_text("ghost/doc\ttrain\t1\n")
    _, entries = read_split_manifest(path)
    with pytest.raises(DataError):
        apply_split_manifest(corpus, entries)


def test_corpus_tree_round_trip(tmp_path):
    corpus = make_text_corpus(n_classes=3, docs_per_class=4, seed=10)
    write_corpus_tree(corpus, tmp_path)
    loaded = load_directory_corpus(tmp_path)
    assert loaded.doc_ids == corpus.doc_ids
    assert loaded.labels.tolist() == corpus.labels.tolist()
    assert [d.tokens for d in loaded.documents] == [d.tokens for d in corpus.documents]


def test_labels_are_int64_with_minus_one_for_unlabeled():
    corpus = Corpus.from_documents(
        documents=[Document("x", ("tok",)), Document("y", ("tok",))],
        labels=[1, None],
        class_names=("a", "b"),
    )
    assert corpus.labels.dtype == np.int64 and corpus.labels.tolist() == [1, -1]
    assert corpus.subset([0, 1], drop_labels=True).labels.tolist() == [-1, -1]


def test_manifest_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"# seed 1\na\ttrain\t1\xff\n")
    with pytest.raises(DataError, match=re.escape(f"{path} is not UTF-8")):
        read_split_manifest(path)


def test_manifest_rejects_non_integer_flag(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# seed 1\na\ttrain\tx\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: labeled flag 'x'")):
        read_split_manifest(path)


@pytest.mark.parametrize("flag", ["2", "-1", "01"])
def test_manifest_rejects_flag_other_than_zero_or_one(tmp_path, flag):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# seed 1\na\ttrain\t{flag}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: labeled flag '{flag}' is not 0 or 1")):
        read_split_manifest(path)


# ---------------------------------------------------------------------------
# the integer encoding
# ---------------------------------------------------------------------------

def decoded(corpus):
    enc = corpus.encoding
    return [tuple(enc.terms[enc.ids[a : a + n]]) for a, n in zip(enc.starts.tolist(), enc.lengths.tolist())]


def assert_encodes(corpus, terms, documents):
    assert corpus.encoding.terms is terms
    assert corpus.encoding.ids.dtype == np.int32
    assert corpus.encoding.starts.dtype == corpus.encoding.lengths.dtype == np.int64
    assert decoded(corpus) == [d.tokens for d in documents]
    assert corpus.documents == documents and corpus.doc_ids == [d.doc_id for d in documents]


TOKENS = st.lists(st.sampled_from(["a", "b", "cc", "d", "ee"]), min_size=1, max_size=7)
TOKEN_LISTS = st.lists(TOKENS, max_size=15)


@settings(max_examples=50, deadline=None)
@given(docs=TOKEN_LISTS.filter(bool), other_docs=TOKEN_LISTS, data=st.data())
def test_subsets_and_concatenations_decode_to_their_tokens(docs, other_docs, data):
    documents = [Document(f"d{i:02d}", tuple(toks)) for i, toks in enumerate(docs)]
    corpus = Corpus.from_documents(documents, [i % 2 for i in range(len(docs))], ("c0", "c1"))
    terms, ids = corpus.encoding.terms, corpus.encoding.ids
    assert list(terms) == sorted({t for toks in docs for t in toks})
    assert_encodes(corpus, terms, documents)
    rows = st.lists(st.integers(-len(docs), len(docs) - 1))  # Python's negative indices too
    rows_a, rows_b = data.draw(rows), data.draw(rows)
    # every subset is rows of the corpus's encoding and shares its ids and terms
    a, b = corpus.subset(rows_a), corpus.subset(rows_b, drop_labels=True)
    docs_a, docs_b = [documents[i] for i in rows_a], [documents[i] for i in rows_b]
    assert a.labels.tolist() == [i % 2 for i in np.arange(len(docs))[rows_a]]
    assert b.labels.tolist() == [UNLABELED] * len(rows_b)
    assert_encodes(a, terms, docs_a)
    assert_encodes(b, terms, docs_b)
    joined = concat_corpora(a, b)
    assert_encodes(joined, terms, docs_a + docs_b)
    assert joined.labels.tolist() == a.labels.tolist() + b.labels.tolist()
    pool_size = data.draw(st.integers(0, b.n_docs))
    training = make_training_collection(a, b, pool_size, rng_seed=1)
    drawn = training.documents[a.n_docs :]
    assert len(drawn) == pool_size and all(d in docs_b for d in drawn)
    assert_encodes(training, terms, docs_a + drawn)
    assert all(c.encoding.ids is ids for c in (a, b, joined, training))
    # a corpus built apart, even of the same documents, is another load:
    # no concatenation joins it to rows of this one
    other = [Document(f"o{i:02d}", tuple(toks)) for i, toks in enumerate(other_docs)]
    apart = Corpus.from_documents(other, [None] * len(other), ("c0", "c1"))
    again = Corpus.from_documents(documents, [None] * len(documents), ("c0", "c1"))
    for x, y in ((a, apart), (apart, b), (corpus, again)):
        with pytest.raises(DataError, match="cannot concatenate corpora of different loads"):
            concat_corpora(x, y)
    with pytest.raises(DataError, match="cannot concatenate corpora of different loads"):
        make_training_collection(a, apart)


def test_a_document_without_tokens_is_refused():
    documents = [Document("full", ("a", "b")), Document("hollow", ()), Document("void", ())]
    with pytest.raises(DataError, match="document 'hollow' has no tokens"):
        Corpus.from_documents(documents, [None] * 3, ())
    full = Corpus.from_documents(documents[:1], [None], ())
    enc = full.encoding
    hollow = Encoding(enc.terms, enc.ids, enc.starts[[0, 0]], np.array([2, 0], dtype=np.int64))
    with pytest.raises(DataError, match="document 'hollow' has no tokens"):
        Corpus(["full", "hollow"], np.full(2, UNLABELED), (), hollow)
    assert Corpus.from_documents([], [], ()).n_docs == full.subset([]).n_docs == 0


def test_loaded_corpus_holds_one_str_per_distinct_term(tmp_path):
    write_corpus_tree(make_text_corpus(n_classes=3, docs_per_class=8, doc_len=20, seed=3), tmp_path)
    corpus = load_directory_corpus(tmp_path)
    terms = corpus.encoding.terms
    assert_encodes(corpus, terms, corpus.documents)
    tokens = [t for d in corpus.documents for t in d.tokens]
    assert len({id(t) for t in tokens}) == len(terms)
    ids = corpus.encoding.token_ids()
    assert len(ids) == len(tokens) and all(t is terms[i] for t, i in zip(tokens, ids))
