import logging
import re
import sys
import tracemalloc

import numpy as np
import pytest

from topicgrow import corpus as corpus_module
from topicgrow.corpus import (
    SPARSE_HEADER_RE,
    Corpus,
    Vocabulary,
    background_model,
    doc_language_model,
    ingest_sparse,
    ingest_text,
    load_corpus,
    read_stopwords,
    reindex_corpus,
    tokenize,
    write_sparse_corpus,
)
from topicgrow.errors import DataError
from topicgrow.synthgen import SynthConfig, generate_corpus


def row_as_dict(corpus, d):
    ids, counts = corpus.docs[d]
    return {corpus.vocab.terms[t]: int(c) for t, c in zip(ids, counts)}


TOKEN_RE = re.compile(r"[^\W_]+")  # runs of word characters other than the underscore


def reference_tokenize(text):
    return TOKEN_RE.findall(text.lower())


def reference_ingest_text(lines, min_df=1, stopwords=None):
    """The dictionary-counting ingest loop over regex tokens, kept as the reference:
    returns (terms, rows, doc_ids, dropped doc ids)."""
    stopwords = set(stopwords) if stopwords else set()
    token_lists = [reference_tokenize(line) for line in lines]
    df = {}
    for tokens in token_lists:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    kept = sorted(t for t, n in df.items() if n >= min_df and t not in stopwords)
    index = {t: i for i, t in enumerate(kept)}
    rows, doc_ids, dropped = [], [], []
    for i, tokens in enumerate(token_lists):
        counts = {}
        for term in tokens:
            tid = index.get(term)
            if tid is not None:
                counts[tid] = counts.get(tid, 0) + 1
        if counts:
            ids = sorted(counts)
            rows.append((np.array(ids), np.array([counts[t] for t in ids])))
            doc_ids.append(str(i))
        else:
            dropped.append(str(i))
    return kept, rows, doc_ids, dropped


def reference_reindex(corpus, vocab):
    """The per-entry reindex loop, kept as the reference: returns (rows, doc_ids, dropped)."""
    rows, doc_ids, dropped = [], [], []
    for d, (ids, counts) in enumerate(corpus.docs):
        new = {}
        for tid, c in zip(ids, counts):
            mapped = vocab.index.get(corpus.vocab.terms[tid])
            if mapped is not None:
                new[mapped] = new.get(mapped, 0) + int(c)
        if new:
            kept = sorted(new)
            rows.append((np.array(kept), np.array([new[t] for t in kept])))
            doc_ids.append(corpus.doc_ids[d])
        else:
            dropped.append(corpus.doc_ids[d])
    return rows, doc_ids, dropped


def assert_rows_equal(corpus, rows):
    assert corpus.n_docs == len(rows)
    for (ids, counts), (ref_ids, ref_counts) in zip(corpus.docs, rows):
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(counts, ref_counts)
        assert ids.dtype == counts.dtype == np.int64


def random_lines(rng, n_lines, words):
    """Mixed-case lines of Zipf-distributed words and punctuation, some of them empty."""
    weights = 1.0 / np.arange(1, len(words) + 1)
    lines = []
    for _ in range(n_lines):
        n = int(rng.integers(0, 12))
        picks = rng.choice(words, size=n, p=weights / weights.sum())
        lines.append(" ".join(w.upper() if rng.random() < 0.2 else w for w in picks) + ".,!"[n % 3])
    return lines


class TestVocabulary:
    def test_roundtrip(self):
        vocab = Vocabulary(["b", "a", "c"])
        for i, term in enumerate(vocab.terms):
            assert vocab.index[term] == i
            assert vocab.terms[i] == term

    def test_dense_ids(self):
        vocab = Vocabulary(["x", "y"])
        assert sorted(vocab.index.values()) == [0, 1]

    @pytest.mark.parametrize("terms, first_repeat", [
        (["a", "a"], "a"), (["a", "b", "b", "a"], "b"), (["x", "a", "b", "c", "a"], "a"),
    ])
    def test_duplicate_rejected_naming_the_first_repeat(self, terms, first_repeat):
        with pytest.raises(DataError) as raised:
            Vocabulary(terms)
        assert str(raised.value) == f"duplicate vocabulary term: {first_repeat!r}"


class TestIngestText:
    def test_basic_counting(self):
        corpus = ingest_text(["a b b", "b c"], min_df=1)
        assert corpus.n_terms == 3
        assert row_as_dict(corpus, 0) == {"a": 1, "b": 2}
        assert row_as_dict(corpus, 1) == {"b": 1, "c": 1}

    def test_min_df_filter(self):
        corpus = ingest_text(["a b b", "b c"], min_df=2)
        assert corpus.vocab.terms == ["b"]

    def test_stopword_filter(self):
        corpus = ingest_text(["x y", "y z", "z x"], stopwords={"y"})
        assert sorted(corpus.vocab.terms) == ["x", "z"]
        assert corpus.n_docs == 3

    def test_lexicographic_vocab(self):
        corpus = ingest_text(["zebra apple", "apple mango"])
        assert corpus.vocab.terms == sorted(corpus.vocab.terms)

    def test_empty_after_filter_dropped(self):
        corpus = ingest_text(["a a", "b", "a"], min_df=2)
        assert corpus.n_docs == 2
        assert corpus.dropped_doc_ids == ["1"]

    def test_all_empty_is_error(self):
        with pytest.raises(DataError, match="empty corpus"):
            ingest_text(["a", "b"], min_df=2)

    def test_tokenizer_splits_punctuation(self):
        assert tokenize("Foo-bar, baz42! qux_quux") == ["foo", "bar", "baz42", "qux", "quux"]

    @pytest.mark.parametrize("text, tokens", [
        ("İstanbul", ["i", "stanbul"]),  # lowers to i + a combining dot, which is no letter
        ("ΣΑΣ ΟΔΟΣ.", ["σας", "οδος"]),  # a final capital sigma lowers to the final form
        ("Straße STRASSE", ["straße", "strasse"]),
        ("_a__b_", ["a", "b"]),
        ("\u212aELVIN, K.", ["kelvin", "k"]),  # the Kelvin sign lowers to an ASCII k
        ("x²+½ Ⅻ 日本語", ["x²", "½", "ⅻ", "日本語"]),
        ("a\u00a0b\u2028c\x85d\x1ce", ["a", "b", "c", "d", "e"]),
    ])
    def test_tokenizer_cases_match_the_regex(self, text, tokens):
        assert tokenize(text) == reference_tokenize(text) == tokens

    def test_tokenizer_matches_the_regex_on_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        lowers_to_ascii = "".join(c for c in every if c.lower().isascii())  # str.translate's text
        assert "\u212a" in lowers_to_ascii  # the Kelvin sign, which lowers to "k"
        for text in (every, lowers_to_ascii):
            assert tokenize(text) == reference_tokenize(text)

    def test_capitalized_stopwords_are_removed(self):
        corpus = ingest_text(["The cat and the dog"], stopwords={"The", "and"})
        assert corpus.vocab.terms == ["cat", "dog"]
        assert row_as_dict(corpus, 0) == {"cat": 1, "dog": 1}

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_loop(self, seed, caplog):
        rng = np.random.default_rng(seed)
        words = ["alpha", "beta", "gamma", "delta", "eps", "eta", "theta", "x1", "b2_c"]
        words += [f"rare{i}" for i in range(20)]
        lines = random_lines(rng, int(rng.integers(1, 40)), words)
        min_df = int(rng.integers(1, 4))
        stopwords = set(rng.choice(["beta", "eta", "theta", "absent"], size=2).tolist())
        terms, rows, doc_ids, dropped = reference_ingest_text(lines, min_df, stopwords)
        if not rows:
            with pytest.raises(DataError, match="all documents empty"):
                ingest_text(lines, min_df=min_df, stopwords=stopwords)
            return
        with caplog.at_level(logging.WARNING, logger="topicgrow.corpus"):
            corpus = ingest_text(lines, min_df=min_df, stopwords=stopwords)
        assert corpus.vocab.terms == terms
        assert_rows_equal(corpus, rows)
        assert corpus.doc_ids == doc_ids
        assert corpus.dropped_doc_ids == dropped
        expected = [f"dropped {len(dropped)} empty documents after filtering"] if dropped else []
        assert [r.getMessage() for r in caplog.records] == expected

    def test_one_shot_generator(self):
        lines = ["the cat sat", "", "a cat ran", "dogs ran fast"]
        lazy, direct = ingest_text(line for line in lines), ingest_text(lines)
        assert (lazy.vocab, lazy.doc_ids, lazy.dropped_doc_ids) == (
            direct.vocab, direct.doc_ids, direct.dropped_doc_ids)
        assert_rows_equal(lazy, direct.docs)

    @pytest.mark.parametrize("lines", [[], iter([])], ids=["list", "iterator"])
    def test_no_input_documents_is_error(self, lines):
        with pytest.raises(DataError, match="^empty corpus: no input documents$"):
            ingest_text(lines)

    @pytest.mark.parametrize("lines", [["a b"], []], ids=["documents", "no documents"])
    def test_min_df_below_one_is_error(self, lines):
        """The argument is checked before the input is read, so its message wins."""
        with pytest.raises(DataError, match="^min_df must be >= 1$"):
            ingest_text(lines, min_df=0)

    def test_no_tokens_at_all_is_error(self):
        with pytest.raises(DataError, match="all documents empty"):
            ingest_text(["", "?!"])

    def test_deterministic(self):
        lines = ["the cat sat", "a cat ran", "dogs ran fast"]
        a = ingest_text(lines, min_df=1)
        b = ingest_text(lines, min_df=1)
        assert a.vocab == b.vocab
        for (ia, ca), (ib, cb) in zip(a.docs, b.docs):
            assert np.array_equal(ia, ib) and np.array_equal(ca, cb)


def reference_ingest_sparse(triples, vocab=None):
    """The dictionary-counting sparse ingest, kept as the reference."""
    term_ids = {} if vocab is None else vocab.index
    doc_order = []
    doc_counts = {}
    for lineno, (doc_id, term, count) in enumerate(triples, start=1):
        if isinstance(count, float) and not count.is_integer():
            raise DataError(f"invalid count {count!r} at entry {lineno}")
        count = int(count)
        if count < 1:
            raise DataError(f"invalid count {count!r} at entry {lineno}")
        tid = term_ids.get(term)
        if tid is None:
            if vocab is not None:
                raise DataError(f"term {term!r} at entry {lineno} is not in the vocabulary")
            tid = term_ids[term] = len(term_ids)
        if doc_id not in doc_counts:
            doc_counts[doc_id] = {}
            doc_order.append(doc_id)
        row = doc_counts[doc_id]
        row[tid] = row.get(tid, 0) + count
    if not doc_order:
        raise DataError("empty corpus: no triples")
    if vocab is None:
        vocab = Vocabulary(term_ids)
    docs = []
    for doc_id in doc_order:
        row = doc_counts[doc_id]
        ids = sorted(row)
        docs.append((np.array(ids), np.array([row[t] for t in ids])))
    return Corpus(vocab, docs, [str(d) for d in doc_order])


def reference_read_sparse(path):
    """The sparse file reader that kept every triple as a tuple, kept as the reference."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        m = SPARSE_HEADER_RE.match(header)
        if not m:
            raise DataError(f"bad sparse corpus header: {header.strip()!r}")
        n_docs, n_terms, nnz = (int(g) for g in m.groups())
        terms, triples = [], []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) == 1 and not triples:
                terms.append(parts[0])
                continue
            if len(parts) != 3:
                raise DataError(f"bad sparse corpus line {lineno}: {line.strip()!r}")
            try:
                count = int(parts[2])
            except ValueError:
                raise DataError(f"invalid count {parts[2]!r} at line {lineno}") from None
            triples.append((parts[0], parts[1], count))
    corpus = reference_ingest_sparse(triples, vocab=Vocabulary(terms) if terms else None)
    if corpus.n_docs != n_docs or corpus.n_terms != n_terms or len(triples) != nnz:
        raise DataError(
            f"sparse corpus header mismatch: header says docs={n_docs} terms={n_terms} "
            f"nnz={nnz}, file has docs={corpus.n_docs} terms={corpus.n_terms} nnz={len(triples)}"
        )
    return corpus


def outcome(read, *args):
    """What a reader makes of its input: the corpus's parts, or its DataError message."""
    try:
        corpus = read(*args)
    except DataError as exc:
        return str(exc)
    return (corpus.vocab.terms, corpus.doc_ids, *(a.tolist() for a in corpus.flat()))


def random_sparse_text(rng, vocab_lines):
    """A sparse file of random triples, with duplicate pairs and blank lines."""
    terms = [f"t{i}" for i in rng.permutation(25)]
    lines = []
    for _ in range(int(rng.integers(1, 60))):
        lines.append(f"doc{rng.integers(12)} {rng.choice(terms[:20])} {rng.integers(1, 6)}")
        if rng.random() < 0.3:
            lines.append(lines[-1])  # the same pair again: counts are summed
        if rng.random() < 0.2:
            lines.append(" " * int(rng.integers(3)))
    docs = {line.split()[0] for line in lines if line.strip()}
    seen = {line.split()[1] for line in lines if line.strip()}
    nnz = sum(1 for line in lines if line.strip())
    head = [f"docs={len(docs)} terms={len(terms) if vocab_lines else len(seen)} nnz={nnz}"]
    return "\n".join(head + (terms if vocab_lines else []) + lines) + "\n"


class TestSparseReaderOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_synth_round_trip(self, tmp_path, seed):
        corpus, _ = generate_corpus(SynthConfig(seed=seed, n_docs=40, doc_len=30, n_topics=3,
                                                vocab_size=80))
        path = tmp_path / "corpus.sparse"
        write_sparse_corpus(corpus, path)
        got = outcome(load_corpus, path)
        assert got == outcome(reference_read_sparse, path)
        assert got[:2] == (corpus.vocab.terms, corpus.doc_ids)

    @pytest.mark.parametrize("vocab_lines", [True, False])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_files(self, tmp_path, seed, vocab_lines):
        path = tmp_path / "corpus.sparse"
        path.write_text(random_sparse_text(np.random.default_rng(seed), vocab_lines))
        got = outcome(load_corpus, path)
        assert isinstance(got, tuple)
        assert got == outcome(reference_read_sparse, path)

    @pytest.mark.parametrize("text", [
        "docs=1 terms=1 nnz=1\nd0 a\n",
        "docs=1 terms=1 nnz=1\nd0 a 1 extra\n",
        "docs=1 terms=1 nnz=2\nd0 a 1\nlonely\n",
        "docs=1 terms=1 nnz=1\nd0 a 1.5\n",
        "docs=1 terms=1 nnz=1\nd0 a x\n",
        "docs=1 terms=1 nnz=1\nd0 a 0\n",
        "docs=1 terms=1 nnz=2\nd0 a 1\nd0 a -2\n",
        "docs=1 terms=1 nnz=1\na\nd0 b 1\n",
        "docs=1 terms=2 nnz=2\na\nb\nd0 a 1\nd0 c 0\n",  # count before term, one entry
        "docs=1 terms=2 nnz=1\na\na\nd0 a 1\n",
        "docs=0 terms=0 nnz=0\n",
        "docs=0 terms=1 nnz=0\na\n\n",
        "docs=5 terms=1 nnz=1\nd0 a 1\n",
        "docs=1 terms=3 nnz=1\nd0 a 1\n",
        "docs=1 terms=1 nnz=1\nd0 a 1\nd0 a 2\n",
        # several faults: the file's lines are checked before its entries
        "docs=1 terms=1 nnz=2\nd0 a 0\nd0 a 1 2\n",
        "docs=1 terms=1 nnz=2\na\na\nd0 b 0\nd0 a x\n",
        "docs=1 terms=1 nnz=2\na\nd0 b 1\nd0 a 0\n",
    ])
    def test_malformed_files_keep_their_messages(self, tmp_path, text):
        path = tmp_path / "bad.sparse"
        path.write_text(text)
        got = outcome(load_corpus, path)
        assert isinstance(got, str)
        assert got == outcome(reference_read_sparse, path)

    @pytest.mark.parametrize("triples, vocab", [
        ([(0, "a", 2), (1, "b", 3.0), (0, "a", 1), (2, "c", True)], None),
        ([("x", "b", 1), ("y", "a", 2), ("x", "b", 4)], Vocabulary(["a", "b", "z"])),
        ([(0, "a", 1.5)], None),
        ([(0, "a", 1), (0, "b", float("nan"))], None),
        ([(0, "a", -1.0)], None),
        ([(0, "a", 1), (1, "q", 2)], Vocabulary(["a"])),
        ([], None),
    ])
    def test_triples_match_the_reference(self, triples, vocab):
        assert outcome(ingest_sparse, triples, vocab) == outcome(
            reference_ingest_sparse, triples, vocab)


class TestIngestSparse:
    def test_duplicate_pairs_summed(self):
        corpus = ingest_sparse([(0, "a", 2), (0, "a", 1)])
        assert corpus.n_docs == 1
        assert row_as_dict(corpus, 0) == {"a": 3}

    def test_two_docs(self):
        corpus = ingest_sparse([(0, "a", 1), (1, "b", 4)])
        assert corpus.n_docs == 2
        assert corpus.n_terms == 2

    def test_zero_count_rejected(self):
        with pytest.raises(DataError, match="invalid count"):
            ingest_sparse([(0, "a", 0)])

    def test_first_appearance_vocab(self):
        corpus = ingest_sparse([(0, "zz", 1), (0, "aa", 1), (1, "mm", 2)])
        assert corpus.vocab.terms == ["zz", "aa", "mm"]

    def test_total_tokens(self):
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 3), (1, "a", 5)])
        assert corpus.total_tokens == 10


class TestLanguageModels:
    def test_doc_model_even_split(self):
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 2), (1, "c", 1)])
        probs = doc_language_model(corpus, 0)
        np.testing.assert_allclose(probs[:2], [0.5, 0.5])
        assert probs[2] == 0.0

    def test_doc_model_one_hot(self):
        corpus = ingest_sparse([(0, "a", 1), (1, "b", 2)])
        probs = doc_language_model(corpus, 0)
        np.testing.assert_array_equal(probs, [1.0, 0.0])

    def test_doc_model_quarters(self):
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 3)])
        np.testing.assert_allclose(doc_language_model(corpus, 0), [0.25, 0.75])

    def test_background_two_singletons(self):
        corpus = ingest_sparse([(0, "a", 1), (1, "b", 1)])
        np.testing.assert_allclose(background_model(corpus), [0.5, 0.5])

    def test_background_single_doc_equals_doc_model(self):
        corpus = ingest_sparse([(0, "a", 3), (0, "b", 1)])
        np.testing.assert_allclose(background_model(corpus), doc_language_model(corpus, 0))

    def test_background_summed_counts(self):
        # counts pooled by hand: a: 3+1=4, b: 4 -> (0.5, 0.5)
        corpus = ingest_sparse([(0, "a", 3), (1, "a", 1), (1, "b", 4)])
        np.testing.assert_allclose(background_model(corpus), [0.5, 0.5])

    def test_doc_models_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_docs = rng.integers(1, 6)
            triples = []
            for d in range(n_docs):
                for t in rng.choice(8, size=rng.integers(1, 5), replace=False):
                    triples.append((d, f"t{t}", int(rng.integers(1, 9))))
            corpus = ingest_sparse(triples)
            for d in range(corpus.n_docs):
                assert abs(doc_language_model(corpus, d).sum() - 1.0) < 1e-12

    def test_background_is_weighted_average(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            triples = []
            for d in range(int(rng.integers(2, 6))):
                for t in rng.choice(6, size=rng.integers(1, 4), replace=False):
                    triples.append((d, f"t{t}", int(rng.integers(1, 7))))
            corpus = ingest_sparse(triples)
            weights = np.array([corpus.docs[d][1].sum() for d in range(corpus.n_docs)], dtype=float)
            weights /= weights.sum()
            avg = sum(w * doc_language_model(corpus, d) for d, w in enumerate(weights))
            np.testing.assert_allclose(background_model(corpus), avg, atol=1e-12)


class TestCorpusInvariants:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([([0], [1]), ([], [])], "empty document row"),
            ([([0], [1]), ([0, 1], [1])], "row ids/counts shape mismatch"),
            ([([0], [1]), ([2, 0, 2], [1, 1, 1])], "duplicate term id within a document row"),
            ([([0], [1]), ([1, 1], [1, 1])], "duplicate term id within a document row"),
            ([([0], [1]), ([0, 3], [1, 1])], "term id out of vocabulary range"),
            ([([0], [1]), ([-1, 0], [1, 1])], "term id out of vocabulary range"),
            ([([0], [1]), ([1, 0], [2, 0])], "invalid count: counts must be >= 1"),
            ([([0], [1]), ([1], [-4])], "invalid count: counts must be >= 1"),
        ],
    )
    def test_each_defect_keeps_its_message(self, rows, message):
        vocab = Vocabulary(["a", "b", "c"])
        rows = [(np.array(i, dtype=np.int64), np.array(c, dtype=np.int64)) for i, c in rows]
        with pytest.raises(DataError) as raised:
            Corpus(vocab, rows, ["d0", "d1"])
        assert str(raised.value) == message

    def test_unsorted_rows_come_out_sorted(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        rows = [([3, 0, 2], [5, 6, 7]), ([1], [2]), ([2, 1], [8, 9])]
        corpus = Corpus(vocab, rows, ["x", "y", "z"])
        assert_rows_equal(corpus, [([0, 2, 3], [6, 7, 5]), ([1], [2]), ([1, 2], [9, 8])])

    def test_row_boundaries_are_not_compared(self):
        # a row may start at or below the last term of the row before it
        vocab = Vocabulary(["a", "b", "c"])
        corpus = Corpus(vocab, [([1, 2], [1, 1]), ([2], [3]), ([0, 1], [4, 5])], ["x", "y", "z"])
        assert_rows_equal(corpus, [([1, 2], [1, 1]), ([2], [3]), ([0, 1], [4, 5])])

    def test_docs_flat_and_segments_agree(self):
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(30):
            ids = rng.choice(40, size=int(rng.integers(1, 12)), replace=False)
            rows.append((ids, rng.integers(1, 9, size=ids.size)))
        corpus = Corpus(Vocabulary([f"t{i}" for i in range(40)]), rows, [str(d) for d in range(30)])
        doc_idx, word_idx, counts = corpus.flat()
        starts, lengths = corpus.segments()
        assert counts.dtype == np.float64
        np.testing.assert_array_equal(doc_idx, np.repeat(np.arange(30), lengths))
        for d, ((ids, row_counts), (ref_ids, ref_counts)) in enumerate(zip(corpus.docs, rows)):
            order = np.argsort(ref_ids)
            np.testing.assert_array_equal(ids, ref_ids[order])
            np.testing.assert_array_equal(row_counts, ref_counts[order])
            run = slice(starts[d], starts[d] + lengths[d])
            np.testing.assert_array_equal(word_idx[run], ids)
            np.testing.assert_array_equal(counts[run], row_counts)
            assert corpus.docs[d][1].sum() == ref_counts.sum()
            assert not ids.flags.writeable and not row_counts.flags.writeable
        assert corpus.total_tokens == sum(c.sum() for _, c in rows)

    def test_non_integral_row_count_rejected(self):
        with pytest.raises(DataError, match="^counts must be integers$"):
            Corpus(Vocabulary(["a", "b"]), [([0, 1], [1.5, 3])], ["d0"])

    def test_duplicate_term_id_rejected(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(DataError):
            Corpus(vocab, [(np.array([0, 0]), np.array([1, 1]))], ["d0"])

    def test_out_of_range_id_rejected(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(DataError):
            Corpus(vocab, [(np.array([1]), np.array([1]))], ["d0"])

    def test_flat_matches_rows(self):
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1), (1, "b", 3)])
        doc_idx, word_idx, counts = corpus.flat()
        assert counts.sum() == corpus.total_tokens
        assert list(doc_idx) == [0, 0, 1]
        assert list(word_idx) == [0, 1, 1]


def reference_entry_rows(n_docs, doc_idx, word_idx, counts):
    """Flat entries summed per document in dictionaries, kept as the reference:
    returns (rows, positions of the documents with entries, positions of the rest)."""
    sums = [{} for _ in range(n_docs)]
    for d, t, c in zip(doc_idx, word_idx, counts):
        sums[d][t] = sums[d].get(t, 0) + int(c)
    rows = [(sorted(row), [row[t] for t in sorted(row)]) for row in sums if row]
    kept = [d for d, row in enumerate(sums) if row]
    return rows, kept, [d for d in range(n_docs) if d not in kept]


class TestFromEntries:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_row_constructor(self, seed):
        rng = np.random.default_rng(seed)
        n_docs, n_terms = int(rng.integers(1, 15)), int(rng.integers(1, 12))
        n = int(rng.integers(1, 60))
        doc_idx, word_idx = rng.integers(n_docs, size=n), rng.integers(n_terms, size=n)
        counts = rng.integers(1, 6, size=n)
        repeat = rng.integers(n, size=int(rng.integers(0, 10)))  # pairs given twice or more
        doc_idx = np.append(doc_idx, doc_idx[repeat])
        word_idx = np.append(word_idx, word_idx[repeat])
        counts = np.append(counts, rng.integers(1, 6, size=repeat.size))
        order = rng.permutation(doc_idx.size)
        doc_idx, word_idx, counts = doc_idx[order], word_idx[order], counts[order]
        vocab = Vocabulary([f"t{i}" for i in range(n_terms)])
        doc_ids = [f"doc{d}" for d in range(n_docs)]
        rows, kept, empty = reference_entry_rows(n_docs, doc_idx, word_idx, counts)
        reference = Corpus(vocab, rows, [doc_ids[d] for d in kept])
        corpus = Corpus.from_entries(vocab, doc_idx, word_idx, counts, doc_ids)
        assert outcome(lambda: corpus) == outcome(lambda: reference)
        assert corpus.dropped_doc_ids == [doc_ids[d] for d in empty]
        assert_rows_equal(corpus, rows)

    def test_integral_floats_build_the_int_corpus(self):
        vocab, doc_ids = Vocabulary(["a", "b", "c"]), ["x", "y", "z"]
        entries = ([2, 0, 2, 0], [1, 2, 1, 0], [3, 1, 4, 2**40])
        as_ints = outcome(Corpus.from_entries, vocab, *entries, doc_ids)
        as_floats = outcome(Corpus.from_entries, vocab,
                            *(np.array(a, dtype=float) for a in entries), doc_ids)
        assert as_floats == as_ints and not isinstance(as_ints, str)
        rows = [([1, 0], [2, 5]), ([2], [2**40])]
        float_rows = [(np.array(i, dtype=float), np.array(c, dtype=float)) for i, c in rows]
        row_ids = ["x", "y"]
        assert outcome(Corpus, vocab, float_rows, row_ids) == outcome(Corpus, vocab, rows, row_ids)

    def test_counts_above_2_53_merge_exactly(self):
        corpus = Corpus.from_entries(Vocabulary(["a", "b"]), [0, 0, 0], [1, 1, 0],
                                     [2**53, 1, 2**60], ["d"])
        assert corpus.docs[0][1].tolist() == [2**60, 2**53 + 1]
        assert corpus.total_tokens == 2**60 + 2**53 + 1

    @pytest.mark.parametrize("doc_idx, word_idx, counts, message", [
        ([0, 1], [0, 1], [1, 0], "invalid count: counts must be >= 1"),
        # a negative count would cancel its pair's other count in the sum
        ([0, 0, 1], [2, 2, 1], [2, -1, 1], "invalid count: counts must be >= 1"),
        # keyed as doc * 3 + term, term 3 of document 0 is term 0 of document 1
        ([0, 1], [3, 0], [1, 1], "term id out of vocabulary range"),
        ([1, 0], [-1, 2], [1, 1], "term id out of vocabulary range"),
        ([0, 2], [0, 0], [1, 1], "document position out of range"),
        ([-1, 1], [0, 2], [1, 1], "document position out of range"),
        ([], [], [], "empty corpus: no documents"),
        # floats must be integral and fit int64; a cast would truncate or raise
        ([0, 0], [0, 1.9], [2.7, 1], "term ids must be integers"),
        ([0, 0], [0, 1], [2.7, 1], "counts must be integers"),
        ([0.5, 1], [0, 1], [1, 1], "document positions must be integers"),
        ([0, 1], [0, 1], [1, float("nan")], "counts must be integers"),
        ([0, 1], [0, 1], [1, float("inf")], "counts must be integers"),
        ([0, 1], [0, 1], [2.0**63, 1], "counts must be integers"),
        ([0, 1], [0, 1], ["1", "2"], "counts must be integers"),
    ])
    def test_each_defect_is_rejected_before_keying(self, doc_idx, word_idx, counts, message):
        with pytest.raises(DataError) as raised:
            Corpus.from_entries(Vocabulary(["a", "b", "c"]), doc_idx, word_idx, counts, ["x", "y"])
        assert str(raised.value) == message


def one_sort_merge(vocab, doc_idx, word_idx, counts, doc_ids):
    """Every entry keyed and sorted at once, kept as the oracle of the blocked merge.
    Returns what ``merged`` returns of a corpus."""
    doc_idx, word_idx, counts = (np.asarray(a).astype(np.int64) for a in (doc_idx, word_idx,
                                                                          counts))
    keys = doc_idx * len(vocab) + word_idx
    order = np.argsort(keys)
    keys, counts = keys[order], counts[order]
    first = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
    docs, word_idx = np.divmod(keys[first], len(vocab))
    lengths = np.bincount(docs, minlength=len(doc_ids))
    kept = lengths > 0
    return (vocab.terms, word_idx, np.add.reduceat(counts, first),
            np.cumsum(lengths[kept]) - lengths[kept], lengths[kept],
            [doc_ids[d] for d in np.flatnonzero(kept)],
            [doc_ids[d] for d in np.flatnonzero(~kept)])


def merged(corpus):
    return (corpus.vocab.terms, corpus._word_idx, corpus._counts, *corpus.segments(),
            corpus.doc_ids, corpus.dropped_doc_ids)


def assert_same_merge(vocab, doc_idx, word_idx, counts, doc_ids):
    got = merged(Corpus.from_entries(vocab, doc_idx, word_idx, counts, doc_ids))
    expected = one_sort_merge(vocab, doc_idx, word_idx, counts, doc_ids)
    for a, b in zip(got, expected):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes()
        else:
            assert a == b


def grouped_entries(lengths, n_terms, seed):
    """Entries of documents with the given entry counts, grouped by document in order, their
    terms drawn at random (so pairs repeat), with counts 1 to 5."""
    rng = np.random.default_rng(seed)
    doc_idx = np.repeat(np.arange(len(lengths)), lengths)
    return doc_idx, rng.integers(n_terms, size=doc_idx.size), rng.integers(1, 6, doc_idx.size)


class TestBlockedMerge:
    VOCAB = Vocabulary([f"t{i}" for i in range(30)])

    def doc_ids(self, n):
        return [f"doc{d}" for d in range(n)]

    @pytest.mark.parametrize("block", [1, 3, 8, 64, corpus_module._MERGE_ENTRIES])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shuffled", [False, True], ids=["grouped", "shuffled"])
    def test_random_entries_match_the_one_sort_merge(self, monkeypatch, block, seed, shuffled):
        monkeypatch.setattr(corpus_module, "_MERGE_ENTRIES", block)
        lengths = np.random.default_rng(seed).integers(0, 20, size=40)  # some documents empty
        doc_idx, word_idx, counts = grouped_entries(lengths, len(self.VOCAB), seed)
        if shuffled:
            order = np.random.default_rng(seed).permutation(doc_idx.size)
            doc_idx, word_idx, counts = doc_idx[order], word_idx[order], counts[order]
        assert_same_merge(self.VOCAB, doc_idx, word_idx, counts, self.doc_ids(40))

    @pytest.mark.parametrize("lengths", [
        [3, 20, 2],  # a document of more entries than a block, in the middle
        [20, 1, 1],  # ... first
        [2, 2, 20],  # ... last
        [4, 4, 8, 3],  # a block ends exactly where a document starts
        [8, 8, 8],
        [0, 5, 0, 0, 4, 0],  # documents without entries, first, between blocks and last
    ])
    def test_document_layouts_match_the_one_sort_merge(self, monkeypatch, lengths):
        monkeypatch.setattr(corpus_module, "_MERGE_ENTRIES", 8)
        # Eight terms, so a document of 20 entries repeats pairs on both sides of any cut.
        doc_idx, word_idx, counts = grouped_entries(lengths, 8, sum(lengths))
        assert_same_merge(self.VOCAB, doc_idx, word_idx, counts, self.doc_ids(len(lengths)))

    def test_duplicate_pairs_are_summed_within_a_long_document(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "_MERGE_ENTRIES", 2)
        entries = ([0, 0, 0, 0, 0, 1, 1], [4, 2, 4, 2, 4, 4, 4], [1, 2, 3, 4, 5, 6, 7])
        assert_same_merge(self.VOCAB, *entries, ["x", "y"])
        corpus = Corpus.from_entries(self.VOCAB, *entries, ["x", "y"])
        assert [row.tolist() for row in corpus.docs[0]] == [[2, 4], [6, 9]]

    @pytest.mark.parametrize("block", [2, 64])
    def test_integral_floats_match_the_one_sort_merge(self, monkeypatch, block):
        monkeypatch.setattr(corpus_module, "_MERGE_ENTRIES", block)
        doc_idx, word_idx, counts = grouped_entries([5, 0, 7, 3], len(self.VOCAB), 1)
        floats = [a.astype(float) for a in (doc_idx, word_idx, counts)]
        assert_same_merge(self.VOCAB, *floats, self.doc_ids(4))
        assert (outcome(Corpus.from_entries, self.VOCAB, *floats, self.doc_ids(4))
                == outcome(Corpus.from_entries, self.VOCAB, doc_idx, word_idx, counts,
                           self.doc_ids(4)))

    @pytest.mark.parametrize("shuffled, sizes", [(False, [8, 2, 9, 2]), (True, [21])],
                             ids=["grouped", "shuffled"])
    def test_blocks_hold_whole_documents_up_to_the_block_size(self, monkeypatch, shuffled,
                                                                sizes):
        monkeypatch.setattr(corpus_module, "_MERGE_ENTRIES", 8)
        sorted_sizes = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda keys: sorted_sizes.append(keys.size) or
                            argsort(keys))
        doc_idx, word_idx, counts = grouped_entries([3, 5, 2, 9, 1, 1], len(self.VOCAB), 2)
        if shuffled:
            doc_idx, word_idx, counts = doc_idx[::-1], word_idx[::-1], counts[::-1]
        Corpus.from_entries(self.VOCAB, doc_idx, word_idx, counts, self.doc_ids(6))
        assert sorted_sizes == sizes

    @pytest.mark.parametrize("doc_idx, word_idx, counts, message", [
        # several defects at once: from_entries' first failing check wins, whatever the blocks
        ([0.5, 1], [0, 1.5], [0.5, 1], "document positions must be integers"),
        ([0, 1], [0, 1.5], [0.5, 1], "term ids must be integers"),
        ([0, 5], [0, 30], [0, 1], "term id out of vocabulary range"),
        ([0, 5], [0, 3], [0, 1], "invalid count: counts must be >= 1"),
        ([5, 0], [0, 3], [1, 1], "document position out of range"),
        ([0, 0, 0, 0, 1, 1, 1, 1, 2], [1] * 9, [1] * 8 + [0], "invalid count: counts must be >= 1"),
        ([0, 0, 0, 0, 1, 1, 1, 1, 9], [1] * 9, [1] * 9, "document position out of range"),
        ([0, 0, 0, 0, 1, 1, 1, 1, 2], [1] * 8 + [30], [1] * 9, "term id out of vocabulary range"),
    ])
    def test_a_defect_anywhere_is_rejected_before_any_block_is_keyed(
            self, monkeypatch, doc_idx, word_idx, counts, message):
        monkeypatch.setattr(corpus_module, "_MERGE_ENTRIES", 2)
        monkeypatch.setattr(np, "argsort", lambda keys: pytest.fail("a block was keyed"))
        with pytest.raises(DataError) as raised:
            Corpus.from_entries(self.VOCAB, doc_idx, word_idx, counts, self.doc_ids(3))
        assert str(raised.value) == message

    def test_merge_memory_is_bounded_by_a_block_not_the_tokens(self):
        # 240,000 tokens grouped by document: one sort of them all peaks at 5.5 MiB (keys,
        # their order and the sorted keys); per block the merged entries dominate.
        corpus, truth = generate_corpus(SynthConfig(seed=1, n_docs=1200))
        doc_idx = np.repeat(np.arange(1200), truth.token_words.shape[1])
        tracemalloc.start()
        try:
            Corpus.from_entries(corpus.vocab, doc_idx, truth.token_words.ravel(),
                                np.broadcast_to(1, doc_idx.shape), corpus.doc_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestFiles:
    def test_sparse_roundtrip(self, tmp_path):
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1), (1, "b", 3)])
        path = tmp_path / "corpus.sparse"
        write_sparse_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.vocab == corpus.vocab
        for d in range(corpus.n_docs):
            assert row_as_dict(loaded, d) == row_as_dict(corpus, d)

    def test_sparse_roundtrip_keeps_unused_terms(self, tmp_path):
        vocab = Vocabulary(["a", "unused", "b"])
        corpus = Corpus(vocab, [(np.array([0, 2]), np.array([2, 1]))], ["d0"])
        path = tmp_path / "corpus.sparse"
        write_sparse_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.vocab == vocab
        assert row_as_dict(loaded, 0) == {"a": 2, "b": 1}

    @pytest.mark.parametrize("triples, message", [
        ([("d 0", "a b", 2), ("d1", "c", 1)], "term 'a b' is empty or holds whitespace"),
        ([("d0", "", 2), ("d1", "c", 1)], "term '' is empty or holds whitespace"),
        ([("d0", "a", 2), ("d\t1", "c", 1)], "doc id 'd\\t1' is empty or holds whitespace"),
        ([("", "a", 2)], "doc id '' is empty or holds whitespace"),
    ])
    def test_sparse_writer_rejects_what_its_reader_cannot_split(self, tmp_path, triples,
                                                                message):
        path = tmp_path / "corpus.sparse"
        with pytest.raises(DataError, match=re.escape(message)):
            write_sparse_corpus(ingest_sparse(triples), path)
        assert not path.exists()

    def test_sparse_roundtrip_of_names_without_whitespace(self, tmp_path):
        corpus = ingest_sparse([("d-0", "a_b", 2), ("d1", "ç,é", 1), (7, "c", 3)])
        path = tmp_path / "corpus.sparse"
        write_sparse_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.vocab == corpus.vocab
        assert loaded.doc_ids == ["d-0", "d1", "7"]
        for d in range(corpus.n_docs):
            assert row_as_dict(loaded, d) == row_as_dict(corpus, d)

    def test_sparse_without_vocabulary_lines(self, tmp_path):
        path = tmp_path / "corpus.sparse"
        path.write_text("docs=2 terms=2 nnz=3\nd0 b 1\nd0 a 2\nd1 b 3\n")
        loaded = load_corpus(path)
        assert loaded.vocab.terms == ["b", "a"]
        assert row_as_dict(loaded, 1) == {"b": 3}

    def test_term_outside_vocabulary_rejected(self, tmp_path):
        path = tmp_path / "bad.sparse"
        path.write_text("docs=1 terms=1 nnz=1\na\nd0 b 1\n")
        with pytest.raises(DataError, match="not in the vocabulary"):
            load_corpus(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.sparse"
        path.write_text("docs=5 terms=1 nnz=1\nd0 a 1\n")
        with pytest.raises(DataError, match="mismatch"):
            load_corpus(path)

    @pytest.mark.parametrize("text", ["docs=2 terms=2 nnz=3\na\nb\nd0 a 1\nd0 b 2\nd1 b 3\n",
                                      "the cat sat\nthe dog\n"], ids=["sparse", "text"])
    def test_a_byte_order_mark_does_not_change_the_corpus(self, tmp_path, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert outcome(load_corpus, marked) == outcome(load_corpus, plain)

    def test_a_byte_order_mark_is_not_part_of_the_first_stopword(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("w225\nthe\n", encoding="utf-8-sig")
        assert read_stopwords(path) == {"w225", "the"}

    @pytest.mark.parametrize("read", [load_corpus, read_stopwords])
    @pytest.mark.parametrize("data", [b"caf\xe9\n", b"docs=1 terms=1 nnz=1\nd0 caf\xe9 1\n"],
                             ids=["first-line", "past-the-header"])
    def test_bytes_that_are_not_utf8_are_a_data_error_naming_the_file(self, tmp_path, read,
                                                                     data):
        path = tmp_path / "latin1.txt"
        path.write_bytes(data)
        with pytest.raises(DataError, match=re.escape(f"{path} is not UTF-8 text")):
            read(path)

    @pytest.mark.parametrize("filters", [{}, {"stopwords": {"the"}}, {"min_df": 2}])
    def test_text_file_loads_as_its_lines(self, tmp_path, filters):
        lines = ["The cat sat", "", "the dog, the cat", "docs=1 terms=1 nnz=1", "dog"]
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded, direct = load_corpus(path, **filters), ingest_text(lines, **filters)
        assert (loaded.vocab, loaded.doc_ids) == (direct.vocab, direct.doc_ids)
        assert_rows_equal(loaded, direct.docs)

    @pytest.mark.parametrize("newline, end", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", ""),
                                              ("\n", "\n\n"), ("\r\n", "\r\n\r\n")],
                             ids=["lf", "crlf", "no-final-newline", "blank-last-line",
                                  "crlf-blank-last-line"])
    def test_text_file_line_ends(self, tmp_path, newline, end):
        lines = ["Ünïcode, ΣΑΣ!", "the cat; sat", "", "tab\tsep-a-rated", "the end."]
        path = tmp_path / "corpus.txt"
        path.write_bytes((newline.join(lines) + end).encode("utf-8"))
        lines += [""] * (end.count("\n") - 1)  # a blank last line is a document of its own
        loaded, direct = load_corpus(path), ingest_text(lines)
        assert (loaded.vocab, loaded.doc_ids, loaded.dropped_doc_ids) == (
            direct.vocab, direct.doc_ids, direct.dropped_doc_ids)
        assert_rows_equal(loaded, direct.docs)

    def test_empty_text_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(DataError, match="empty corpus: no input documents"):
            load_corpus(path)

    def test_sparse_file_is_opened_and_sniffed_once(self, tmp_path, monkeypatch):
        opened, matched = [], []

        class CountingHeader:
            def match(self, line):
                matched.append(line)
                return SPARSE_HEADER_RE.match(line)

        monkeypatch.setattr(corpus_module, "open",
                            lambda *args, **kw: opened.append(args[0]) or open(*args, **kw),
                            raising=False)
        monkeypatch.setattr(corpus_module, "SPARSE_HEADER_RE", CountingHeader())
        path = tmp_path / "corpus.sparse"
        path.write_text("docs=2 terms=2 nnz=3\na\nb\nd0 a 1\nd0 b 2\nd1 b 3\n")
        loaded = load_corpus(path)
        assert (opened, matched) == ([path], ["docs=2 terms=2 nnz=3\n"])
        assert loaded.vocab.terms == ["a", "b"] and row_as_dict(loaded, 1) == {"b": 3}

    @pytest.mark.parametrize("filters", [{"stopwords": {"a"}}, {"min_df": 2}])
    def test_text_filters_on_a_sparse_file_rejected(self, tmp_path, filters):
        path = tmp_path / "corpus.sparse"
        path.write_text("docs=2 terms=2 nnz=3\na\nb\nd0 a 1\nd0 b 2\nd1 b 3\n")
        with pytest.raises(DataError, match="text corpora only"):
            load_corpus(path, **filters)


class TestReindex:
    def test_reindex_drops_unknown_terms(self):
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1), (1, "c", 3)])
        target = Vocabulary(["b", "a"])
        out = reindex_corpus(corpus, target)
        assert out.n_docs == 1
        assert row_as_dict(out, 0) == {"a": 2, "b": 1}
        assert out.dropped_doc_ids == ["1"]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_loop(self, seed):
        rng = np.random.default_rng(seed)
        terms = [f"t{i}" for i in range(30)]
        triples = [
            (f"doc{d}", terms[t], int(rng.integers(1, 5)))
            for d in range(20)
            for t in rng.choice(30, size=int(rng.integers(1, 6)), replace=False)
        ]
        corpus = ingest_sparse(triples)
        target = Vocabulary(rng.permutation(terms[:18] + ["new1", "new2"]).tolist())
        rows, doc_ids, dropped = reference_reindex(corpus, target)
        out = reindex_corpus(corpus, target)
        assert out.vocab == target
        assert_rows_equal(out, rows)
        assert out.doc_ids == doc_ids
        assert out.dropped_doc_ids == dropped

    def test_no_surviving_document_is_error(self):
        corpus = ingest_sparse([(0, "a", 2), (1, "b", 1)])
        with pytest.raises(DataError, match="no documents survive"):
            reindex_corpus(corpus, Vocabulary(["c"]))
