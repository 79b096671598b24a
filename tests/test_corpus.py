import numpy as np
import pytest

from topicgrow.corpus import (
    Corpus,
    Vocabulary,
    background_model,
    doc_language_model,
    ingest_sparse,
    ingest_text,
    read_sparse_corpus,
    reindex_corpus,
    tokenize,
    write_sparse_corpus,
)
from topicgrow.errors import DataError


def row_as_dict(corpus, d):
    ids, counts = corpus.docs[d]
    return {corpus.vocab.term_of(int(t)): int(c) for t, c in zip(ids, counts)}


class TestVocabulary:
    def test_roundtrip(self):
        vocab = Vocabulary(["b", "a", "c"])
        for i, term in enumerate(vocab.terms):
            assert vocab.id_of(term) == i
            assert vocab.term_of(i) == term

    def test_dense_ids(self):
        vocab = Vocabulary(["x", "y"])
        assert sorted(vocab.index.values()) == [0, 1]

    def test_duplicate_rejected(self):
        with pytest.raises(DataError):
            Vocabulary(["a", "a"])


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

    def test_deterministic(self):
        lines = ["the cat sat", "a cat ran", "dogs ran fast"]
        a = ingest_text(lines, min_df=1)
        b = ingest_text(lines, min_df=1)
        assert a.vocab == b.vocab
        for (ia, ca), (ib, cb) in zip(a.docs, b.docs):
            assert np.array_equal(ia, ib) and np.array_equal(ca, cb)


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
            weights = np.array([corpus.doc_tokens(d) for d in range(corpus.n_docs)], dtype=float)
            weights /= weights.sum()
            avg = sum(w * doc_language_model(corpus, d) for d, w in enumerate(weights))
            np.testing.assert_allclose(background_model(corpus), avg, atol=1e-12)


class TestCorpusInvariants:
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


class TestFiles:
    def test_sparse_roundtrip(self, tmp_path):
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1), (1, "b", 3)])
        path = tmp_path / "corpus.sparse"
        write_sparse_corpus(corpus, path)
        loaded = read_sparse_corpus(path)
        assert loaded.vocab == corpus.vocab
        for d in range(corpus.n_docs):
            assert row_as_dict(loaded, d) == row_as_dict(corpus, d)

    def test_sparse_roundtrip_keeps_unused_terms(self, tmp_path):
        vocab = Vocabulary(["a", "unused", "b"])
        corpus = Corpus(vocab, [(np.array([0, 2]), np.array([2, 1]))], ["d0"])
        path = tmp_path / "corpus.sparse"
        write_sparse_corpus(corpus, path)
        loaded = read_sparse_corpus(path)
        assert loaded.vocab == vocab
        assert row_as_dict(loaded, 0) == {"a": 2, "b": 1}

    def test_sparse_without_vocabulary_lines(self, tmp_path):
        path = tmp_path / "corpus.sparse"
        path.write_text("docs=2 terms=2 nnz=3\nd0 b 1\nd0 a 2\nd1 b 3\n")
        loaded = read_sparse_corpus(path)
        assert loaded.vocab.terms == ["b", "a"]
        assert row_as_dict(loaded, 1) == {"b": 3}

    def test_term_outside_vocabulary_rejected(self, tmp_path):
        path = tmp_path / "bad.sparse"
        path.write_text("docs=1 terms=1 nnz=1\na\nd0 b 1\n")
        with pytest.raises(DataError, match="not in the vocabulary"):
            read_sparse_corpus(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.sparse"
        path.write_text("docs=zzz\n")
        with pytest.raises(DataError, match="header"):
            read_sparse_corpus(path)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.sparse"
        path.write_text("docs=5 terms=1 nnz=1\nd0 a 1\n")
        with pytest.raises(DataError, match="mismatch"):
            read_sparse_corpus(path)


class TestReindex:
    def test_reindex_drops_unknown_terms(self):
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1), (1, "c", 3)])
        target = Vocabulary(["b", "a"])
        out = reindex_corpus(corpus, target)
        assert out.n_docs == 1
        assert row_as_dict(out, 0) == {"a": 2, "b": 1}
        assert out.dropped_doc_ids == ["1"]
