import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from oracles import per_document_fold_in

from topicgrow import metrics
from topicgrow.corpus import Corpus, Vocabulary, ingest_sparse
from topicgrow.errors import DataError
from topicgrow.metrics import (
    CooccurrenceStats,
    perplexity,
    pmi_coherence,
    topic_coverage_error,
    topic_quality_error,
    top_words,
)
from topicgrow.plsa import FOLD_IN_PASSES, _e_step, fold_in_docs
from topicgrow.synthgen import PROFILES, SynthConfig, generate_corpus


class AllPairsStats:
    """Oracle: the statistics PMI was scored from when every within-document
    pair of a reference corpus was counted up front."""

    def __init__(self, corpus):
        self.terms = list(corpus.vocab.terms)
        self.index = {t: i for i, t in enumerate(self.terms)}
        self.df = np.zeros(corpus.n_terms, dtype=np.int64)
        self.co_df = Counter()
        for ids, _ in corpus.docs:
            self.df[ids] += 1
            self.co_df.update(itertools.combinations(ids.tolist(), 2))
        self.n_docs = corpus.n_docs

    def co(self, i, j):
        if i > j:
            i, j = j, i
        return self.co_df.get((i, j), 0)


def oracle_pmi(topics, vocab, stats, top_n):
    """Oracle: PMI scored pair by pair from ``AllPairsStats``, over the topics
    with at least one top word that a reference document holds."""
    n = stats.n_docs
    per_topic = []
    for row in np.asarray(topics, dtype=float):
        ranked = top_words(row, top_n)
        sids = [stats.index.get(vocab.terms[w]) for w in ranked]
        if all(i is None or stats.df[i] == 0 for i in sids):
            continue
        total = 0.0
        pairs = 0
        for a, b in itertools.combinations(range(len(ranked)), 2):
            i, j = sids[a], sids[b]
            df_i = stats.df[i] if i is not None and stats.df[i] > 0 else 0.5
            df_j = stats.df[j] if j is not None and stats.df[j] > 0 else 0.5
            co = stats.co(i, j) if i is not None and j is not None else 0
            if co == 0:
                co = 0.5
            total += math.log(co * n / (df_i * df_j))
            pairs += 1
        per_topic.append(total / pairs)
    return float(np.mean(per_topic))


def random_reference(rng, n_docs, n_terms, max_len):
    triples = []
    for d in range(n_docs):
        for t in rng.choice(n_terms, size=rng.integers(1, max_len + 1), replace=False):
            triples.append((d, f"t{t}", 1))
    return ingest_sparse(triples)


def brute_force_tqe(learned, truth):
    total = 0.0
    for row in learned:
        total += min(math.dist(row, t) for t in truth)
    return total / len(learned)


def brute_force_tce(learned, truth):
    total = 0.0
    for t in truth:
        total += min(math.dist(row, t) for row in learned)
    return total / len(truth)


class TestQualityAndCoverage:
    def test_exact_match_is_zero(self):
        rng = np.random.default_rng(1)
        topics = rng.dirichlet(np.ones(6), size=4)
        assert topic_quality_error(topics, topics) == 0.0
        assert topic_coverage_error(topics, topics) == 0.0

    def test_uniform_vs_one_hot(self):
        learned = np.array([[0.5, 0.5]])
        truth = np.array([[1.0, 0.0]])
        expected = math.sqrt(0.5)
        assert topic_quality_error(learned, truth) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            learned = rng.dirichlet(np.ones(5), size=2)
            truth = rng.dirichlet(np.ones(5), size=3)
            assert topic_quality_error(learned, truth) == pytest.approx(
                brute_force_tqe(learned, truth), abs=1e-12
            )
            assert topic_coverage_error(learned, truth) == pytest.approx(
                brute_force_tce(learned, truth), abs=1e-12
            )

    def test_duplicated_learned_topic_coverage(self):
        rng = np.random.default_rng(5)
        truth = rng.dirichlet(np.ones(4), size=2)
        learned = np.array([truth[0], truth[0]])
        expected = np.linalg.norm(truth[1] - truth[0]) / 2
        assert topic_coverage_error(learned, truth) == pytest.approx(expected, abs=1e-12)
        assert topic_quality_error(learned, truth) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        learned = rng.dirichlet(np.ones(5), size=3)
        truth = rng.dirichlet(np.ones(5), size=3)
        tqe = topic_quality_error(learned, truth)
        assert topic_quality_error(learned[::-1], truth[::-1]) == pytest.approx(tqe, abs=1e-12)

    def test_vocab_mismatch_raises(self):
        with pytest.raises(DataError, match="vocabulary mismatch"):
            topic_quality_error(np.ones((1, 3)) / 3, np.ones((1, 4)) / 4)


class TestPmi:
    def test_independent_pair_scores_zero(self):
        # df = (2, 2, ...), co = 1, n = 4 -> p(i,j) = p(i) p(j) exactly
        corpus = ingest_sparse(
            [(0, "w0", 1), (1, "w0", 1), (1, "w1", 1), (2, "w1", 1), (3, "w2", 1)]
        )
        stats = CooccurrenceStats.from_corpus(corpus)
        topics = np.array([[0.5, 0.4, 0.1]])
        score = pmi_coherence(topics, corpus.vocab, stats, top_n=2)
        assert score == pytest.approx(0.0, abs=1e-9)

    def test_always_cooccurring_pair(self):
        # df_i = df_j = co = n/2 -> pair PMI = log 2
        corpus = ingest_sparse(
            [(0, "a", 1), (0, "b", 1), (1, "a", 1), (1, "b", 1), (2, "c", 1), (3, "d", 1)]
        )
        stats = CooccurrenceStats.from_corpus(corpus)
        topics = np.array([[0.6, 0.4, 0.0, 0.0]])
        score = pmi_coherence(topics, corpus.vocab, stats, top_n=2)
        assert score == pytest.approx(math.log(2), abs=1e-12)

    def test_three_word_topic_hand_computed(self):
        # docs {a,b}, {a,c}, {a,b,c}: df=(3,2,2), co(ab)=2, co(ac)=2, co(bc)=1
        corpus = ingest_sparse(
            [(0, "a", 1), (0, "b", 1), (1, "a", 1), (1, "c", 1),
             (2, "a", 1), (2, "b", 1), (2, "c", 1)]
        )
        stats = CooccurrenceStats.from_corpus(corpus)
        topics = np.array([[0.5, 0.3, 0.2]])
        expected = (
            math.log((2 / 3) / ((3 / 3) * (2 / 3)))
            + math.log((2 / 3) / ((3 / 3) * (2 / 3)))
            + math.log((1 / 3) / ((2 / 3) * (2 / 3)))
        ) / 3
        score = pmi_coherence(topics, corpus.vocab, stats, top_n=3)
        assert score == pytest.approx(expected, abs=1e-12)

    def test_zero_cooccurrence_smoothed(self):
        corpus = ingest_sparse([(0, "a", 1), (1, "b", 1)])
        stats = CooccurrenceStats.from_corpus(corpus)
        topics = np.array([[0.7, 0.3]])
        score = pmi_coherence(topics, corpus.vocab, stats, top_n=2)
        assert score == pytest.approx(math.log(0.5 * 2 / (1 * 1)), abs=1e-12)

    def test_scale_invariance(self):
        triples = [(0, "a", 1), (0, "b", 1), (1, "a", 1), (1, "c", 1),
                   (2, "a", 1), (2, "b", 1), (2, "c", 1)]
        corpus = ingest_sparse(triples)
        # three copies of each document: every df, co-df and n triples
        tripled = ingest_sparse([(f"{d}.{copy}", t, c) for d, t, c in triples for copy in range(3)])
        topics = np.array([[0.5, 0.3, 0.2]])
        a = pmi_coherence(topics, corpus.vocab, CooccurrenceStats.from_corpus(corpus),
                          top_n=3)
        b = pmi_coherence(topics, tripled.vocab, CooccurrenceStats.from_corpus(tripled),
                          top_n=3)
        assert a == pytest.approx(b, abs=1e-12)

    def test_top_n_below_two_raises(self):
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 1)])
        with pytest.raises(DataError, match="top_n must be >= 2"):
            pmi_coherence(np.array([[0.6, 0.4]]), corpus.vocab,
                          CooccurrenceStats.from_corpus(corpus), top_n=1)

    def test_missing_word_smoothed(self):
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 1)])
        stats = CooccurrenceStats.from_corpus(corpus)
        other_vocab = Vocabulary(["a", "zzz"])
        topics = np.array([[0.4, 0.6]])
        score = pmi_coherence(topics, other_vocab, stats, top_n=2)
        assert math.isfinite(score)

    def test_topic_without_a_reference_word_is_left_out(self):
        # alone, the topic on the absent x and y would score log(2 * 100) per pair
        corpus = ingest_sparse([(d, t, 1) for d in range(100) for t in ("a", "b")])
        stats = CooccurrenceStats.from_corpus(corpus)
        vocab = Vocabulary(["a", "b", "x", "y"])
        on_ab = np.array([[0.5, 0.4, 0.05, 0.05]])
        assert pmi_coherence(on_ab, vocab, stats, top_n=2) == 0.0
        both = np.vstack([on_ab, [[0.05, 0.05, 0.5, 0.4]]])
        assert pmi_coherence(both, vocab, stats, top_n=2) == 0.0

    def test_topic_with_one_reference_word_keeps_the_smoothing(self):
        # df(a) = 80, df(b) = 40, co-df(a, b) = 20 of 100; y is absent, so (a, y) is smoothed
        triples = [(d, "a", 1) for d in range(80)] + [(d, "b", 1) for d in range(20)]
        corpus = ingest_sparse(triples + [(d, "b", 1) for d in range(80, 100)])
        stats = CooccurrenceStats.from_corpus(corpus)
        topics = np.array([[0.5, 0.4, 0.1], [0.5, 0.1, 0.4]])
        expected = (math.log(20 * 100 / (80 * 40)) + math.log(0.5 * 100 / (80 * 0.5))) / 2
        score = pmi_coherence(topics, Vocabulary(["a", "b", "y"]), stats, top_n=2)
        assert score == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("terms", [["y", "zzz"], ["c", "zzz"]],
                             ids=["not_in_vocab", "in_no_document"])
    def test_no_top_word_in_the_reference_raises(self, terms):
        # "c" is in the reference's vocabulary, but no document holds it
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 1)], vocab=Vocabulary(["a", "b", "c"]))
        stats = CooccurrenceStats.from_corpus(corpus)
        with pytest.raises(DataError, match="no document of the reference corpus holds a top"):
            pmi_coherence(np.array([[0.4, 0.6]]), Vocabulary(terms), stats, top_n=2)

    def test_stats_invariants(self):
        rng = np.random.default_rng(9)
        corpus = random_reference(rng, 12, 8, 5)
        stats = CooccurrenceStats.from_corpus(corpus)
        assert stats.vocab is corpus.vocab
        topics = rng.dirichlet(np.ones(corpus.n_terms), size=3)
        pmi_coherence(topics, corpus.vocab, stats, top_n=4)
        np.testing.assert_array_equal(stats.df, AllPairsStats(corpus).df)

    @pytest.mark.parametrize("top_n", [2, 3, 20])
    @pytest.mark.parametrize("k", [1, 7, 40])
    def test_matches_all_pairs_oracle(self, top_n, k):
        rng = np.random.default_rng(100 * top_n + k)
        for _ in range(3):
            corpus = random_reference(rng, int(rng.integers(5, 60)), 30, 12)
            # the model knows 6 terms the reference never saw
            vocab = Vocabulary(corpus.vocab.terms + [f"new{i}" for i in range(6)])
            topics = rng.dirichlet(np.full(len(vocab), 0.3), size=k)
            stats = CooccurrenceStats.from_corpus(corpus)
            got = pmi_coherence(topics, vocab, stats, top_n=top_n)
            assert got == oracle_pmi(topics, vocab, AllPairsStats(corpus), top_n)

    @pytest.mark.parametrize("docs_per_block", [1, 2])
    def test_counts_across_many_document_blocks(self, monkeypatch, docs_per_block):
        rng = np.random.default_rng(31 + docs_per_block)
        corpus = random_reference(rng, 45, 30, 12)
        vocab = Vocabulary(corpus.vocab.terms + [f"new{i}" for i in range(6)])
        topics = rng.dirichlet(np.full(len(vocab), 0.3), size=7)
        stats = CooccurrenceStats.from_corpus(corpus)
        groups = np.array([[stats.vocab.index.get(vocab.terms[w], -1)
                            for w in top_words(row, 5)] for row in topics])
        assert (groups < 0).any()
        # a block holds _PAIR_BLOCK_CELLS // groups.size documents
        monkeypatch.setattr(metrics, "_PAIR_BLOCK_CELLS", docs_per_block * groups.size)
        oracle = AllPairsStats(corpus)
        assert pmi_coherence(topics, vocab, stats, top_n=5) == oracle_pmi(
            topics, vocab, oracle, 5)
        counts = stats.count_pairs(groups)
        expected = np.zeros(counts.shape)
        for g, ids in enumerate(groups.tolist()):
            for a, i in enumerate(ids):
                for b, j in enumerate(ids):
                    if i >= 0 and j >= 0:
                        expected[g, a, b] = oracle.df[i] if a == b else oracle.co(i, j)
        np.testing.assert_array_equal(counts, expected)

    def test_paper_scale_reference_memory(self):
        # Counting every within-document pair of this reference up front
        # allocates about 18 MiB; the top-word pairs need a few.
        reference, truth = generate_corpus(SynthConfig(seed=3, n_docs=1000))
        tracemalloc.start()
        try:
            stats = CooccurrenceStats.from_corpus(reference)
            pmi_coherence(truth.topics, reference.vocab, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_single_term_model_is_a_data_error(self):
        corpus = ingest_sparse([(0, "cat", 2), (1, "cat", 1)])
        stats = CooccurrenceStats.from_corpus(corpus)
        with pytest.raises(DataError, match="at least 2 ranked words per topic"):
            pmi_coherence(np.array([[1.0]]), corpus.vocab, stats)

    def test_top_words_tie_breaks_low_index(self):
        ids = top_words(np.array([0.2, 0.4, 0.2, 0.2]), 3)
        assert list(ids) == [1, 0, 2]


class TestPerplexity:
    def test_uniform_single_topic_equals_vocab_size(self):
        corpus = ingest_sparse([(0, "a", 6), (0, "b", 4), (1, "c", 5), (1, "a", 5)])
        v = corpus.n_terms
        topics = np.full((1, v), 1.0 / v)
        value = perplexity(corpus, topics, 0)
        assert value == pytest.approx(v, abs=1e-6)

    def test_perfect_topics_approach_one(self):
        corpus = ingest_sparse([(0, "a", 10), (1, "a", 8)])
        topics = np.array([[1.0 - 1e-9]])
        value = perplexity(corpus, topics, 0)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_matches_direct_evaluation(self):
        # single-word documents make the held-out split content-independent,
        # so the expected value can be assembled by hand: 8 tokens seen, 2 scored
        corpus = ingest_sparse([(0, "a", 10), (1, "b", 10)])
        f = 1e-6
        topics = np.array([[1.0 - f, f], [f, 1.0 - f]])
        total_ll, total_n = 0.0, 0
        for wid in (0, 1):
            mix, _ = per_document_fold_in((np.array([wid]), np.array([8])), topics)
            total_ll += 2 * math.log(float(mix @ topics[:, wid]))
            total_n += 2
        expected = math.exp(-total_ll / total_n)
        assert perplexity(corpus, topics, 123) == pytest.approx(expected, abs=1e-9)

    def test_short_documents_skipped(self):
        corpus = ingest_sparse([(0, "a", 1), (1, "a", 4), (1, "b", 4)])
        v = corpus.n_terms
        topics = np.full((1, v), 1.0 / v)
        value = perplexity(corpus, topics, 0)
        assert value == pytest.approx(v, abs=1e-6)

    def test_at_least_one(self):
        rng = np.random.default_rng(13)
        triples = []
        for d in range(6):
            for t in rng.choice(7, size=rng.integers(2, 6), replace=False):
                triples.append((d, f"t{t}", int(rng.integers(1, 7))))
        corpus = ingest_sparse(triples)
        topics = rng.dirichlet(np.ones(corpus.n_terms), size=3)
        assert perplexity(corpus, topics, 5) >= 1.0

    def test_folds_in_once_with_the_full_budget(self, monkeypatch):
        budgets = []
        real = metrics.fold_in_docs

        def spy(corpus, docs, topics, init_mixes, passes=FOLD_IN_PASSES):
            budgets.append(passes)
            return real(corpus, docs, topics, init_mixes, passes)

        monkeypatch.setattr(metrics, "fold_in_docs", spy)
        corpus = ingest_sparse([(0, "a", 3), (0, "b", 2), (1, "a", 5), (1, "b", 1)])
        perplexity(corpus, np.array([[0.6, 0.4], [0.5, 0.5]]), 0)
        assert budgets == [FOLD_IN_PASSES]

    def test_bad_split_fraction(self):
        corpus = ingest_sparse([(0, "a", 3)])
        with pytest.raises(DataError):
            perplexity(corpus, np.array([[1.0]]), 0, split_fraction=1.0)

    def test_negative_seed_raises(self):
        corpus = ingest_sparse([(0, "a", 3), (0, "b", 2)])
        with pytest.raises(DataError, match="seed must be non-negative"):
            perplexity(corpus, np.array([[0.6, 0.4]]), -1)

    def test_no_evaluable_documents_raises(self):
        corpus = ingest_sparse([(0, "a", 1), (1, "b", 1)])
        with pytest.raises(DataError, match="no evaluable documents"):
            perplexity(corpus, np.array([[0.5, 0.5]]), 0)

    def test_zero_predictive_probability_raises(self):
        # whichever token is seen, its fold-in zeroes the other topic's weight
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 1)])
        topics = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DataError, match="zero predictive probability"):
            perplexity(corpus, topics, 0)
        # a NaN topic entry leaves no predictive probability either
        with pytest.raises(DataError, match="zero predictive probability"):
            perplexity(corpus, np.array([[0.5, 0.5], [np.nan, 0.5]]), 0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_the_per_document_unique_split_on_a_desk_corpus(self, seed):
        corpus, truth = generate_corpus(SynthConfig(seed=seed, **PROFILES["desk"]))
        topics = 0.99 * truth.topics + 0.01 / corpus.n_terms
        # reference: each document's halves counted with np.unique into row lists
        split_rng = np.random.default_rng(seed)
        seen_rows, unseen_rows = [], []
        for ids, counts in corpus.docs:
            tokens = split_rng.permutation(np.repeat(ids, counts))
            n1 = min(max(int(0.8 * tokens.size), 1), tokens.size - 1)
            seen_rows.append(np.unique(tokens[:n1], return_counts=True))
            unseen_rows.append(np.unique(tokens[n1:], return_counts=True))
        doc_ids = list(range(corpus.n_docs))
        seen = Corpus(corpus.vocab, seen_rows, doc_ids)
        unseen = Corpus(corpus.vocab, unseen_rows, doc_ids)
        k = topics.shape[0]
        mixes, _ = fold_in_docs(seen, np.arange(seen.n_docs), topics,
                                np.full((seen.n_docs, k), 1.0 / k))
        lls = _e_step(unseen, topics, mixes)[2]
        expected = math.exp(-float(lls.sum()) / unseen.total_tokens)
        assert perplexity(corpus, topics, seed) == expected

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_per_document_fold_in_oracle(self, k):
        rng = np.random.default_rng(17)
        triples = [(0, "t0", 1)]  # one token: skipped
        for d in range(1, 25):
            for t in rng.choice(30, size=rng.integers(2, 12), replace=False):
                triples.append((d, f"t{t}", int(rng.integers(1, 8))))
        corpus = ingest_sparse(triples)
        topics = rng.dirichlet(np.full(corpus.n_terms, 0.5), size=k)
        topics = 0.99 * topics + 0.01 / corpus.n_terms
        # oracle: split each document in rng order, fold its seen part in on its own
        split_rng = np.random.default_rng(11)
        total_ll, total_n = 0.0, 0
        for ids, counts in corpus.docs:
            tokens = np.repeat(ids, counts)
            if tokens.size < 2:
                continue
            tokens = split_rng.permutation(tokens)
            n1 = min(max(int(0.8 * tokens.size), 1), tokens.size - 1)
            seen_ids, seen_counts = np.unique(tokens[:n1], return_counts=True)
            mix, _ = per_document_fold_in((seen_ids, seen_counts), topics)
            total_ll += float(np.log(mix @ topics[:, tokens[n1:]]).sum())
            total_n += tokens.size - n1
        expected = math.exp(-total_ll / total_n)
        assert perplexity(corpus, topics, 11) == pytest.approx(expected, rel=1e-12)
