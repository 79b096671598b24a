import math

import numpy as np
import pytest

from topicgrow import plsa
from topicgrow.corpus import (
    Corpus,
    Vocabulary,
    background_model,
    doc_language_model,
    ingest_sparse,
)
from topicgrow.errors import DataError
from topicgrow.plsa import (
    EmConfig,
    _e_step,
    _floor_rows,
    _m_step,
    em_refine,
    fold_in,
    fold_in_all,
    fold_in_docs,
    log_likelihood,
    train_plsa,
)


def brute_force_loglik(corpus, topics, mixes):
    """Independent double-loop evaluation of the training log-likelihood."""
    total = 0.0
    for d in range(corpus.n_docs):
        ids, counts = corpus.docs[d]
        for tid, c in zip(ids, counts):
            inner = 0.0
            for z in range(topics.shape[0]):
                inner += mixes[d][z] * topics[z][tid]
            total += c * math.log(inner)
    return total


def random_instance(rng, n_docs=4, n_terms=6, k=3):
    triples = []
    for d in range(n_docs):
        for t in rng.choice(n_terms, size=rng.integers(2, n_terms), replace=False):
            triples.append((d, f"t{t}", int(rng.integers(1, 6))))
    corpus = ingest_sparse(triples)
    topics = rng.dirichlet(np.ones(corpus.n_terms), size=k)
    mixes = rng.dirichlet(np.ones(k), size=corpus.n_docs)
    return corpus, topics, mixes


def e_step_doc(corpus, d, topics, mix):
    """Per-document oracle: posterior p(z|d,w) over the distinct words of document d."""
    ids, _ = corpus.docs[d]
    joint = mix[None, :] * topics[:, ids].T
    return joint / joint.sum(axis=1)[:, None]


def m_step(corpus, posteriors, smoothing_floor):
    """Per-document oracle M-step: topics floored and renormalized, dead topics uniform."""
    k = posteriors[0].shape[1]
    topic_mass = np.zeros((k, corpus.n_terms))
    mixes = np.zeros((corpus.n_docs, k))
    for d, post in enumerate(posteriors):
        ids, counts = corpus.docs[d]
        weighted = post * counts[:, None]
        topic_mass[:, ids] += weighted.T
        mixes[d] = weighted.sum(axis=0) / weighted.sum()
    topic_mass[topic_mass.sum(axis=1) == 0.0] = 1.0
    return _floor_rows(topic_mass, smoothing_floor), mixes


def posteriors_of(corpus, topics, mixes):
    """The kernel's posteriors p(z|d,w) as a topic-major (K, nnz) array."""
    return _e_step(corpus, topics, mixes)[0] / corpus.flat()[2]


def oracle_posteriors(corpus, topics, mixes):
    return [e_step_doc(corpus, d, topics, mixes[d]) for d in range(corpus.n_docs)]


def topic_major(corpus, posteriors):
    """Per-document posteriors as the kernel's (K, nnz) count-weighted array."""
    return (np.concatenate(posteriors) * corpus.flat()[2][:, None]).T


class TestEStep:
    def test_single_topic_posterior_is_one(self):
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1)])
        post = posteriors_of(corpus, np.array([[0.3, 0.7]]), np.array([[1.0]]))
        np.testing.assert_array_equal(post, np.ones((1, 2)))

    def test_symmetric_topics_give_even_posterior(self):
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 1)])
        topics = np.array([[0.4, 0.6], [0.4, 0.6]])
        post = posteriors_of(corpus, topics, np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(post, np.full((2, 2), 0.5))

    def test_hand_evaluated_posterior(self):
        # p(z|d,w) = (0.6*0.1, 0.4*0.3) / 0.18 = (1/3, 2/3)
        corpus = ingest_sparse([(0, "a", 1)])
        topics = np.array([[0.1], [0.3]])
        post = posteriors_of(corpus, topics, np.array([[0.6, 0.4]]))
        np.testing.assert_allclose(post, [[1.0 / 3.0], [2.0 / 3.0]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        corpus, topics, mixes = random_instance(rng)
        post = posteriors_of(corpus, topics, mixes)
        np.testing.assert_allclose(post.sum(axis=0), 1.0, atol=1e-9)


class TestMStep:
    def test_single_doc_single_topic(self):
        corpus = ingest_sparse([(0, "a", 1), (1, "b", 1)])
        topics, mixes = _m_step(corpus, np.ones((1, 2)), smoothing_floor=0.0)
        np.testing.assert_allclose(topics, [[0.5, 0.5]])
        np.testing.assert_allclose(mixes, [[1.0], [1.0]])

    def test_even_posteriors_recover_background(self):
        corpus = ingest_sparse([(0, "a", 1), (1, "b", 1)])
        topics, mixes = _m_step(corpus, np.full((2, 2), 0.5), smoothing_floor=0.0)
        bg = background_model(corpus)
        np.testing.assert_allclose(topics[0], bg, atol=1e-12)
        np.testing.assert_allclose(topics[1], bg, atol=1e-12)
        np.testing.assert_allclose(mixes, np.full((2, 2), 0.5))

    def test_hand_evaluated_mix(self):
        # doc {a:2, b:1}; posterior one-hot per word -> p(z|d) = (2/3, 1/3)
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1)])
        posteriors = [np.array([[1.0, 0.0], [0.0, 1.0]])]
        _, mixes = _m_step(corpus, topic_major(corpus, posteriors), smoothing_floor=0.0)
        np.testing.assert_allclose(mixes[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_dead_topic_reset_to_uniform(self):
        corpus = ingest_sparse([(0, "a", 1)])
        posteriors = [np.array([[1.0, 0.0]])]
        topics, _ = _m_step(corpus, topic_major(corpus, posteriors), smoothing_floor=0.0)
        np.testing.assert_allclose(topics[1], [1.0])

    def test_floor_respected(self):
        corpus = ingest_sparse([(0, "a", 5), (0, "b", 1), (1, "a", 2)])
        posteriors = [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0]])]
        topics, mixes = _m_step(corpus, topic_major(corpus, posteriors), smoothing_floor=1e-6)
        assert np.all(topics >= 1e-6 * (1 - 1e-12))
        np.testing.assert_allclose(topics.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(mixes.sum(axis=1), 1.0, atol=1e-9)


class TestKernel:
    """The batched topic-major kernel against the per-document E- and M-steps."""

    def test_e_step_matches_per_doc_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            corpus, topics, mixes = random_instance(rng)
            weighted, ll = _e_step(corpus, topics, mixes)
            expected = topic_major(corpus, oracle_posteriors(corpus, topics, mixes))
            np.testing.assert_allclose(weighted, expected, rtol=1e-12, atol=1e-15)
            assert ll == pytest.approx(brute_force_loglik(corpus, topics, mixes), abs=1e-10)

    @pytest.mark.parametrize("floor", [0.0, 1e-6])
    def test_m_step_matches_per_doc_oracle(self, floor):
        rng = np.random.default_rng(5)
        for _ in range(5):
            corpus, topics, mixes = random_instance(rng)
            posteriors = oracle_posteriors(corpus, topics, mixes)
            new_topics, new_mixes = _m_step(corpus, topic_major(corpus, posteriors), floor)
            oracle_topics, oracle_mixes = m_step(corpus, posteriors, floor)
            np.testing.assert_allclose(new_topics, oracle_topics, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(new_mixes, oracle_mixes, rtol=1e-12, atol=1e-15)

    def test_hand_evaluated_posterior(self):
        # p(z|d,w) = (0.6*0.1, 0.4*0.3) / 0.18 = (1/3, 2/3)
        corpus = ingest_sparse([(0, "a", 1)])
        weighted, ll = _e_step(corpus, np.array([[0.1], [0.3]]), np.array([[0.6, 0.4]]))
        np.testing.assert_allclose(weighted, [[1.0 / 3.0], [2.0 / 3.0]], atol=1e-15)
        assert ll == pytest.approx(math.log(0.18), abs=1e-15)

    def test_hand_evaluated_mix(self):
        # doc {a:2, b:1}; posterior one-hot per word -> p(z|d) = (2/3, 1/3)
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1)])
        _, mixes = _m_step(corpus, np.array([[2.0, 0.0], [0.0, 1.0]]), 0.0)
        np.testing.assert_allclose(mixes[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_dead_topic_reset_to_uniform(self):
        corpus = ingest_sparse([(0, "a", 1)])
        topics, _ = _m_step(corpus, np.array([[1.0], [0.0]]), 0.0)
        np.testing.assert_allclose(topics[1], [1.0])

    def test_unused_term_gets_exactly_the_floor(self):
        vocab = Vocabulary(["a", "unused", "b", "c"])
        docs = [(np.array([0, 2]), np.array([3, 1])), (np.array([2, 3]), np.array([2, 2]))]
        corpus = Corpus(vocab, docs, ["d0", "d1"])
        config = EmConfig(seed=4, max_iters=30, smoothing_floor=1e-6)
        topics, _, _ = train_plsa(corpus, 2, config)
        assert np.all(topics[:, 1] == config.smoothing_floor)

    @pytest.mark.parametrize("max_iters", [1, 2, 200])
    def test_trace_loglik_belongs_to_returned_parameters(self, max_iters):
        rng = np.random.default_rng(19)
        corpus, topics, mixes = random_instance(rng, n_docs=6, n_terms=8, k=3)
        config = EmConfig(seed=0, max_iters=max_iters)
        trace = []
        topics, mixes, ll = em_refine(corpus, topics, mixes, config, trace=trace)
        assert (len(trace) < max_iters) == (max_iters == 200)  # only the large budget converges
        assert trace[-1].loglik == ll == log_likelihood(corpus, topics, mixes)
        assert ll == pytest.approx(brute_force_loglik(corpus, topics, mixes), abs=1e-10)


class TestLogLikelihood:
    def test_perfect_fit_is_zero(self):
        corpus = ingest_sparse([(0, "a", 1)])
        assert log_likelihood(corpus, np.array([[1.0]]), np.array([[1.0]])) == 0.0

    def test_half_probability(self):
        corpus = ingest_sparse([(0, "a", 2)])
        topics = np.array([[0.5, 0.5]])
        ll = log_likelihood(corpus, topics, np.array([[1.0]]))
        assert ll == pytest.approx(2 * math.log(0.5), abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            corpus, topics, mixes = random_instance(rng)
            fast = log_likelihood(corpus, topics, mixes)
            slow = brute_force_loglik(corpus, topics, mixes)
            assert fast == pytest.approx(slow, abs=1e-10)

    def test_unmodelable_word_raises(self):
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 1)])
        topics = np.array([[1.0, 0.0]])
        with pytest.raises(DataError, match="unmodelable"):
            log_likelihood(corpus, topics, np.array([[1.0]]))


class TestTrainPlsa:
    def test_k1_recovers_background(self):
        corpus = ingest_sparse(
            [(0, "a", 3), (0, "b", 1), (1, "b", 2), (1, "c", 4), (2, "a", 1), (2, "c", 1)]
        )
        config = EmConfig(seed=5, max_iters=50)
        topics, mixes, trace = train_plsa(corpus, 1, config)
        bg = background_model(corpus)
        np.testing.assert_allclose(topics[0], bg, atol=1e-6)
        ids, counts = corpus.flat()[1], corpus.flat()[2]
        expected_ll = float(np.dot(counts, np.log(bg[ids])))
        assert trace[-1].loglik == pytest.approx(expected_ll, rel=1e-9)

    def test_disjoint_docs_reach_saturated_likelihood(self):
        corpus = ingest_sparse(
            [(0, "a", 4), (0, "b", 2), (1, "c", 3), (1, "d", 3)]
        )
        config = EmConfig(seed=2, max_iters=300, rel_tol=1e-9)
        topics, mixes, trace = train_plsa(corpus, 2, config)
        saturated = 0.0
        for d in range(corpus.n_docs):
            ids, counts = corpus.docs[d]
            lm = doc_language_model(corpus, d)
            saturated += float(np.dot(counts, np.log(lm[ids])))
        assert trace[-1].loglik == pytest.approx(saturated, abs=1e-6)

    def test_monotone_loglik(self):
        rng = np.random.default_rng(9)
        corpus, _, _ = random_instance(rng, n_docs=6, n_terms=8, k=3)
        _, _, trace = train_plsa(corpus, 3, EmConfig(seed=1, max_iters=60))
        lls = [row.loglik for row in trace]
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-8 * abs(prev)

    def test_simplex_invariants(self):
        rng = np.random.default_rng(13)
        corpus, _, _ = random_instance(rng, n_docs=5, n_terms=7, k=2)
        topics, mixes, _ = train_plsa(corpus, 2, EmConfig(seed=3, max_iters=20))
        np.testing.assert_allclose(topics.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(mixes.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(topics >= 1e-9 * (1 - 1e-12))
        assert np.all(mixes >= 0)

    def test_deterministic_trace(self):
        rng = np.random.default_rng(17)
        corpus, _, _ = random_instance(rng, n_docs=5, n_terms=7, k=2)
        config = EmConfig(seed=21, max_iters=30)
        t1, m1, trace1 = train_plsa(corpus, 2, config)
        t2, m2, trace2 = train_plsa(corpus, 2, config)
        assert np.array_equal(t1, t2)
        assert np.array_equal(m1, m2)
        assert [r.loglik for r in trace1] == [r.loglik for r in trace2]


class TestFoldIn:
    def test_degenerate_fit(self):
        topics = np.array([[1.0, 0.0], [0.0, 1.0]])
        doc = (np.array([0]), np.array([3]))
        mix, ll = fold_in(doc, topics, EmConfig(seed=0))
        assert mix[0] == pytest.approx(1.0, abs=1e-9)
        assert ll == pytest.approx(0.0, abs=1e-9)

    def test_single_topic(self):
        topics = np.array([[0.25, 0.75]])
        doc = (np.array([0, 1]), np.array([1, 2]))
        mix, ll = fold_in(doc, topics, EmConfig(seed=0))
        np.testing.assert_array_equal(mix, [1.0])
        assert ll == pytest.approx(math.log(0.25) + 2 * math.log(0.75), abs=1e-12)

    def test_beats_uniform_mix(self):
        rng = np.random.default_rng(23)
        topics = rng.dirichlet(np.ones(6), size=3)
        doc = (np.array([0, 2, 5]), np.array([4, 1, 2]))
        mix, ll = fold_in(doc, topics, EmConfig(seed=0))
        uniform_ll = float(
            np.dot(doc[1], np.log(np.full(3, 1.0 / 3.0) @ topics[:, doc[0]]))
        )
        assert ll >= uniform_ll - 1e-12

    def test_inner_loop_monotone(self):
        rng = np.random.default_rng(29)
        topics = rng.dirichlet(np.ones(8), size=4)
        doc = (np.array([1, 3, 4, 6]), np.array([2, 5, 1, 3]))
        history = []
        fold_in(doc, topics, EmConfig(seed=0), ll_history=history)
        for prev, cur in zip(history, history[1:]):
            assert cur >= prev - 1e-8 * abs(prev)

    @pytest.mark.parametrize("budget", [1, 50])
    def test_batch_unmodelable_word_raises(self, budget):
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 1), (1, "a", 2)])
        topics = np.array([[1.0, 0.0]])
        with pytest.raises(DataError, match="unmodelable"):
            fold_in_all(corpus, topics, EmConfig(seed=0, fold_in_max_iters=budget))

    def test_batch_matches_per_doc(self):
        corpus, topics = sparse_topic_instance()
        config = EmConfig(seed=0, fold_in_max_iters=30)
        passes = []
        for d in range(corpus.n_docs):
            history = []
            fold_in(corpus.docs[d], topics, config, ll_history=history)
            passes.append(len(history))
        assert min(passes) <= 7  # one document plateaus early
        assert max(passes) == config.fold_in_max_iters + 1  # one is stopped by the cap
        warm = np.random.default_rng(5).dirichlet(np.ones(4), size=corpus.n_docs)
        for init in (None, warm):  # None is the uniform start
            mixes, lls = fold_in_all(corpus, topics, config, init_mixes=init)
            for d in range(corpus.n_docs):
                mix, ll = fold_in(
                    corpus.docs[d], topics, config, init_mix=None if init is None else init[d]
                )
                np.testing.assert_allclose(mixes[d], mix, rtol=1e-12, atol=1e-12)
                assert lls[d] == pytest.approx(ll, rel=1e-12)


def sparse_topic_instance():
    """Eight documents against four sparse topics: they plateau after 7 to 31 passes."""
    rng = np.random.default_rng(2)
    triples = []
    for d in range(8):
        for t in rng.choice(12, size=rng.integers(2, 8), replace=False):
            triples.append((d, f"t{t:02d}", int(rng.integers(1, 6))))
    corpus = ingest_sparse(triples)
    topics = rng.dirichlet(np.full(corpus.n_terms, 0.3), size=4)
    return corpus, 0.999 * topics + 0.001 / corpus.n_terms


def mixed_length_instance(k):
    """Fourteen documents of 1 to 48 distinct words against k sparse topics."""
    rng = np.random.default_rng(5)
    triples = []
    for d, size in enumerate([48, 1, 3, 20, 2, 7, 30, 5, 12, 1, 9, 16, 4, 25]):
        for t in rng.choice(60, size=size, replace=False):
            triples.append((d, f"t{t:02d}", int(rng.integers(1, 6))))
    corpus = ingest_sparse(triples)
    topics = rng.dirichlet(np.full(corpus.n_terms, 0.3), size=k)
    return corpus, 0.999 * topics + 0.001 / corpus.n_terms


class TestFoldInDocs:
    """The padded-block batch kernel against single-document ``fold_in``."""

    def test_each_document_matches_fold_in(self):
        corpus, topics = sparse_topic_instance()
        config = EmConfig(seed=0, fold_in_max_iters=30)
        passes = []
        for d in range(corpus.n_docs):
            history = []
            fold_in(corpus.docs[d], topics, config, ll_history=history)
            passes.append(len(history))
        docs = np.array([6, 1, 4, 0, 7, 3])  # a subset, out of corpus order
        assert len({passes[d] for d in docs}) == docs.size
        assert passes[1] == config.fold_in_max_iters + 1  # doc 1 stops at the cap
        init = np.random.default_rng(3).dirichlet(np.ones(4), size=docs.size)
        mixes, lls = fold_in_docs(corpus, docs, topics, config, init)
        for i, d in enumerate(docs):
            mix, ll = fold_in(corpus.docs[d], topics, config, init_mix=init[i])
            np.testing.assert_allclose(mixes[i], mix, rtol=1e-12, atol=1e-12)
            assert lls[i] == pytest.approx(ll, rel=1e-12)

    def test_blocks_match_fold_in(self, monkeypatch):
        corpus, topics = mixed_length_instance(k=4)
        config = EmConfig(seed=0, fold_in_max_iters=30)
        docs = np.array([3, 0, 9, 6, 1, 13, 3, 7, 11, 2, 5, 12])  # out of order, 3 twice
        init = np.random.default_rng(4).dirichlet(np.ones(4), size=docs.size)
        expected, passes = [], []
        for i, d in enumerate(docs):
            history = []
            expected.append(fold_in(corpus.docs[d], topics, config, init[i], history))
            passes.append(len(history))
        # Under one block, at least 30% plateau before the slowest, so the batch drop runs.
        assert np.mean(np.array(passes) < max(passes)) >= 0.3
        blocks = []  # each block's document lengths
        kernel = plsa._fold_in_block

        def spy(*args):
            blocks.append(list(args[3]))
            return kernel(*args)

        monkeypatch.setattr(plsa, "_fold_in_block", spy)
        results = {}
        for budget in 2 ** np.arange(6, 18):
            monkeypatch.setattr(plsa, "_BLOCK_ENTRIES", int(budget))
            blocks.clear()
            results[budget] = fold_in_docs(corpus, docs, topics, config, init)
            assert all(len(b) == 1 or len(b) * b[0] * 4 <= budget for b in blocks)
            if budget == 2**6:  # several blocks; the 48-word document (192 entries) alone
                assert len(blocks) > 2 and blocks[0] == [48]
        assert len(blocks) == 1  # 2^17: one block
        for mixes, lls in results.values():
            np.testing.assert_allclose(mixes, results[2**17][0], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(lls, results[2**17][1], rtol=1e-12)
            for i, (mix, ll) in enumerate(expected):
                np.testing.assert_allclose(mixes[i], mix, rtol=1e-12, atol=1e-12)
                assert lls[i] == pytest.approx(ll, rel=1e-12)

    def test_single_topic_matches_fold_in(self, monkeypatch):
        corpus, topics = mixed_length_instance(k=1)
        monkeypatch.setattr(plsa, "_BLOCK_ENTRIES", 2**4)
        docs = np.array([5, 0, 1, 5, 3])
        mixes, lls = fold_in_docs(corpus, docs, topics, EmConfig(seed=0), np.ones((5, 1)))
        np.testing.assert_array_equal(mixes, 1.0)
        for i, d in enumerate(docs):
            assert lls[i] == pytest.approx(fold_in(corpus.docs[d], topics, EmConfig(seed=0))[1],
                                           rel=1e-12)

    def test_zero_probability_word_raises(self):
        # The bad word "z" is the whole of the shortest document, padded in one
        # block with the longer ones.
        corpus = ingest_sparse(
            [(0, "a", 1), (0, "b", 2), (0, "c", 1), (1, "a", 2), (1, "c", 1), (2, "z", 1)]
        )
        topics = np.array([[0.5, 0.3, 0.2, 0.0], [0.2, 0.2, 0.6, 0.0]])
        init = np.full((3, 2), 0.5)
        with pytest.raises(DataError, match="unmodelable"):
            fold_in_docs(corpus, np.array([2, 0, 1]), topics, EmConfig(seed=0), init)

    def test_fold_in_budget_must_be_positive(self):
        with pytest.raises(DataError, match="fold_in_max_iters"):
            EmConfig(seed=0, fold_in_max_iters=0)

    @pytest.mark.parametrize("name", ["rel_tol", "fold_in_rel_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-6])
    def test_tolerance_must_be_finite_and_positive(self, name, value):
        with pytest.raises(DataError, match=f"^{name} must be finite and > 0"):
            EmConfig(seed=0, **{name: value})
