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
    Corpus,
    Document,
    DocumentReader,
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
    enc = reader.encoding()
    expected = Corpus.from_documents(documents, [None] * len(documents), ()).encoding
    assert list(enc.terms) == list(expected.terms)
    assert enc.ids.dtype == np.int32 and np.array_equal(enc.ids, expected.ids)
    assert enc.indptr.dtype == np.int64 and np.array_equal(enc.indptr, expected.indptr)
    for d in docs:
        if isinstance(d, bytes):
            assert tokenize(d.decode("latin-1"), config) == reference_tokenize(d.decode("latin-1"), config)


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
    assert corpus.labels == [0 if d.doc_id.startswith("alpha/") else 1 for d in documents]
    expected = Corpus.from_documents(documents, corpus.labels, corpus.class_names).encoding
    assert list(corpus.encoding.terms) == list(expected.terms)
    assert np.array_equal(corpus.encoding.ids, expected.ids)
    assert np.array_equal(corpus.encoding.indptr, expected.indptr)


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
    labels = list(corpus.labels)
    d_l, d_u = mask_labels(corpus, 0.3, rng_seed=9)
    assert all(lab is None for lab in d_u.labels)
    assert corpus.labels == labels  # the masked corpus keeps every label
    truth = dict(zip(corpus.doc_ids, labels))
    assert d_l.labels == [truth[doc_id] for doc_id in d_l.doc_ids]


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
    assert full.documents == drawn.documents and full.labels == drawn.labels
    assert np.array_equal(full.encoding.ids, drawn.encoding.ids)
    # a labeled pool still enters unlabeled
    assert make_training_collection(d_l, d_l).labels == d_l.labels + [None] * d_l.n_docs
    only_labeled = make_training_collection(d_l, d_u, pool_size=0)
    assert only_labeled.doc_ids == d_l.doc_ids
    assert None not in only_labeled.labels


def test_training_collection_count_arithmetic():
    corpus = make_text_corpus(n_classes=2, docs_per_class=50, seed=7)
    d_l, d_u = mask_labels(corpus, 0.1, rng_seed=0)  # 10 labeled, 90 unlabeled
    assert (d_l.n_docs, d_u.n_docs) == (10, 90)
    training = make_training_collection(d_l, d_u, pool_size=90)
    assert training.n_docs == 100
    assert sum(lab is not None for lab in training.labels) == 10
    with pytest.raises(DataError):
        make_training_collection(d_l, d_u, pool_size=91)


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
    assert (d_l2.doc_ids, d_l2.labels) == (d_l.doc_ids, d_l.labels)
    assert (d_u2.doc_ids, d_u2.labels) == (d_u.doc_ids, d_u.labels)


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
    assert loaded.labels == corpus.labels
    assert [d.tokens for d in loaded.documents] == [d.tokens for d in corpus.documents]


def test_label_array_uses_minus_one():
    corpus = Corpus.from_documents(
        documents=[Document("x", ("tok",)), Document("y", ("tok",))],
        labels=[1, None],
        class_names=("a", "b"),
    )
    assert np.array_equal(corpus.label_array(), np.array([1, -1]))


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
    return [tuple(enc.terms[enc.ids[a:b]]) for a, b in zip(enc.indptr[:-1], enc.indptr[1:])]


def assert_encodes(corpus, terms, documents):
    assert corpus.encoding.terms is terms
    assert corpus.encoding.ids.dtype == np.int32 and corpus.encoding.indptr.dtype == np.int64
    assert decoded(corpus) == [d.tokens for d in documents]
    assert corpus.documents == documents and corpus.doc_ids == [d.doc_id for d in documents]


TOKEN_LISTS = st.lists(st.lists(st.sampled_from(["a", "b", "cc", "d", "ee"]), max_size=7), max_size=15)


@settings(max_examples=50, deadline=None)
@given(docs=TOKEN_LISTS.filter(bool), other_docs=TOKEN_LISTS, data=st.data())
def test_subsets_and_concatenations_decode_to_their_tokens(docs, other_docs, data):
    documents = [Document(f"d{i:02d}", tuple(toks)) for i, toks in enumerate(docs)]
    corpus = Corpus.from_documents(documents, [i % 2 for i in range(len(docs))], ("c0", "c1"))
    terms = corpus.encoding.terms
    assert list(terms) == sorted({t for toks in docs for t in toks})
    assert_encodes(corpus, terms, documents)
    rows = st.lists(st.integers(-len(docs), len(docs) - 1))  # Python's negative indices too
    rows_a, rows_b = data.draw(rows), data.draw(rows)
    # every subset cuts from the corpus's encoding and shares its term table
    a, b = corpus.subset(rows_a), corpus.subset(rows_b, drop_labels=True)
    docs_a, docs_b = [documents[i] for i in rows_a], [documents[i] for i in rows_b]
    assert a.labels == [i % 2 for i in np.arange(len(docs))[rows_a]] and b.labels == [None] * len(rows_b)
    assert_encodes(a, terms, docs_a)
    assert_encodes(b, terms, docs_b)
    assert_encodes(concat_corpora(a, b), terms, docs_a + docs_b)
    pool_size = data.draw(st.integers(0, b.n_docs))
    training = make_training_collection(a, b, pool_size, rng_seed=1)
    drawn = training.documents[a.n_docs :]
    assert len(drawn) == pool_size and all(d in docs_b for d in drawn)
    assert_encodes(training, terms, docs_a + drawn)
    # a corpus built apart has a term table of its own; joined to one cut
    # from this corpus, the result has the sorted union of both tables
    other = [Document(f"o{i:02d}", tuple(toks)) for i, toks in enumerate(other_docs)]
    apart = Corpus.from_documents(other, [None] * len(other), ("c0", "c1"))
    for joined, want in ((concat_corpora(a, apart), docs_a + other), (concat_corpora(apart, b), other + docs_b)):
        union = joined.encoding.terms
        assert list(union) == sorted(set(terms) | set(apart.encoding.terms))
        assert_encodes(joined, union, want)


def test_loaded_corpus_holds_one_str_per_distinct_term(tmp_path):
    write_corpus_tree(make_text_corpus(n_classes=3, docs_per_class=8, doc_len=20, seed=3), tmp_path)
    corpus = load_directory_corpus(tmp_path)
    terms = corpus.encoding.terms
    assert_encodes(corpus, terms, corpus.documents)
    tokens = [t for d in corpus.documents for t in d.tokens]
    assert len({id(t) for t in tokens}) == len(terms)
    ids = corpus.encoding.ids
    assert all(t is terms[i] for t, i in zip(tokens, ids))
