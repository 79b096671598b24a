import math

import numpy as np
import pytest
from oracles import per_document_fold_in

from topicgrow import nplsa, plsa
from topicgrow.corpus import background_model, doc_language_model, ingest_sparse
from topicgrow.errors import AlgorithmError, DataError
from topicgrow.nplsa import doc_self_loglik, train_nplsa
from topicgrow.plsa import EmConfig, _e_step, _floor_rows
from topicgrow.synthgen import PROFILES, SynthConfig, generate_corpus


def deficit(doc, topics, **budget):
    """Goodness-of-fit deficit in nats: log p(doc | own MLE) - log p(doc | fold-in fit)."""
    return doc_self_loglik(doc) - per_document_fold_in(doc, topics, **budget)[1]


def random_corpus(rng, n_docs=8, n_terms=10, max_count=6):
    triples = []
    for d in range(n_docs):
        for t in rng.choice(n_terms, size=rng.integers(2, n_terms), replace=False):
            triples.append((d, f"t{t}", int(rng.integers(1, max_count))))
    return ingest_sparse(triples)


def serial_nplsa(corpus, epsilon, config, order_seed=None):
    """Reference nPLSA: one fold-in and one E-step per visited document, ragged mixes.

    Returns (topics, dense mixes, per-sweep (K, loglik, objective, spawned doc ids)).
    """
    n_docs = corpus.n_docs
    rng = np.random.default_rng(config.seed)
    topics = _floor_rows(rng.dirichlet(np.ones(corpus.n_terms), size=1), config.smoothing_floor)
    mixes = [np.ones(1)] * n_docs
    fitted = np.ones(n_docs, dtype=np.int64)
    order = np.arange(n_docs)
    if order_seed is not None:
        order = np.random.default_rng(order_seed).permutation(n_docs)
    sweeps = []
    prev_ll = None
    for _ in range(config.max_iters):
        spawned = []
        posteriors = [None] * n_docs
        for d in order:
            ids, counts = corpus.docs[d]
            k = topics.shape[0]
            old = np.zeros(k)
            old[: mixes[d].size] = mixes[d]
            fit_mix, fit_ll = per_document_fold_in(corpus.docs[d], topics,
                                                   init_mix=0.9 * old + 0.1 / k)
            old_probs = old @ topics[:, ids]
            if np.all(old_probs > 0.0):
                old_ll = float(np.dot(counts, np.log(old_probs)))
                if old_ll > fit_ll:  # never fall below the previous fit
                    fit_mix, fit_ll = old, old_ll
            if doc_self_loglik(corpus.docs[d]) - fit_ll > epsilon:
                topics = np.vstack([topics, doc_language_model(corpus, d)])
                post = np.zeros((ids.size, k + 1))
                post[:, k] = 1.0
                spawned.append(int(d))
            else:
                mix = old if fitted[d] == k else fit_mix
                joint = mix[None, :] * topics[:, ids].T
                post = joint / joint.sum(axis=1)[:, None]
            fitted[d] = topics.shape[0]
            posteriors[d] = post
        topic_mass = np.zeros((topics.shape[0], corpus.n_terms))
        mix_mass = np.zeros((n_docs, topics.shape[0]))
        for d, post in enumerate(posteriors):
            ids, counts = corpus.docs[d]
            weighted = post * counts[:, None]
            topic_mass[: post.shape[1], ids] += weighted.T
            mix_mass[d, : post.shape[1]] = weighted.sum(axis=0)
        alive = topic_mass.sum(axis=1) > 0.0
        fitted = np.array([alive[:t].sum() for t in fitted])
        topics = _floor_rows(topic_mass[alive], config.smoothing_floor)
        mixes = [mix_mass[d, alive][: fitted[d]] / mix_mass[d].sum() for d in range(n_docs)]
        ll = 0.0
        for d, mix in enumerate(mixes):
            ids, counts = corpus.docs[d]
            ll += float(np.dot(counts, np.log(mix @ topics[: mix.size, ids])))
        k = topics.shape[0]
        sweeps.append((k, ll, ll - epsilon * k, tuple(spawned)))
        if not spawned and prev_ll is not None and abs(ll - prev_ll) <= config.rel_tol * (
            abs(prev_ll) + 1e-12
        ):
            break
        prev_ll = ll
    dense = np.zeros((n_docs, topics.shape[0]))
    for d, mix in enumerate(mixes):
        dense[d, : mix.size] = mix
    return topics, dense, sweeps


def desk_corpus(seed, n_docs=60):
    profile = dict(PROFILES["desk"], n_docs=n_docs)
    return generate_corpus(SynthConfig(seed=seed, **profile))[0]


def penalized_objective(corpus, topics, mixes, fitted, epsilon):
    """loglik - epsilon * K, a document fitted against fewer than K topics refreshed by fold-in."""
    lls = _e_step(corpus, topics, mixes)[2]
    stale = np.flatnonzero(fitted < topics.shape[0])
    if stale.size:
        lls[stale] = nplsa.best_fits(corpus, stale, topics, mixes, lls)[1]
    return float(lls.sum()) - epsilon * topics.shape[0]


class TestDelta:
    def test_self_fit_is_near_zero(self):
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 2), (1, "b", 1), (1, "c", 3)])
        topics = np.vstack([doc_language_model(corpus, d) for d in range(2)])
        topics = _floor_rows(topics, 1e-9)
        # tight inner budget so convergence slack does not mask the floor slack
        for d in range(2):
            assert deficit(corpus.docs[d], topics, passes=500, tol=1e-13) <= 1e-6

    def test_floored_one_hot_hand_value(self):
        # doc {a:4} against the floored one-hot-at-b topic: 0 - 4*log(1e-9)
        corpus = ingest_sparse([(0, "a", 4), (1, "b", 1)])
        topics = np.array([[1e-9, 1.0 - 1e-9]])
        value = deficit(corpus.docs[0], topics)
        assert value == pytest.approx(-4 * math.log(1e-9), rel=1e-9)

    def test_never_meaningfully_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            corpus = random_corpus(rng, n_docs=4, n_terms=8)
            topics = rng.dirichlet(np.ones(corpus.n_terms), size=int(rng.integers(1, 4)))
            for d in range(corpus.n_docs):
                assert deficit(corpus.docs[d], topics) >= -1e-9

    def test_self_loglik(self):
        doc = (np.array([0, 1]), np.array([1, 3]))
        expected = math.log(0.25) + 3 * math.log(0.75)
        assert doc_self_loglik(doc) == pytest.approx(expected, abs=1e-12)


class TestTrainNplsa:
    def test_huge_epsilon_behaves_like_k1_plsa(self):
        corpus = ingest_sparse(
            [(0, "a", 3), (0, "b", 1), (1, "b", 2), (1, "c", 4), (2, "a", 1), (2, "c", 1)]
        )
        topics, _, _ = train_nplsa(corpus, 1e9, EmConfig(seed=4, max_iters=60))
        assert topics.shape[0] == 1
        np.testing.assert_allclose(topics[0], background_model(corpus), atol=1e-6)

    def test_disjoint_docs_saturate_at_k2(self):
        corpus = ingest_sparse([(0, "a", 4), (0, "b", 2), (1, "c", 3), (1, "d", 3)])
        topics, _, _ = train_nplsa(corpus, 0.1, EmConfig(seed=7, max_iters=80))
        assert topics.shape[0] == 2
        mles = [doc_language_model(corpus, d) for d in range(2)]
        for topic in topics:
            assert min(np.linalg.norm(topic - mle) for mle in mles) < 0.05

    def test_objective_trace_non_decreasing(self):
        rng = np.random.default_rng(11)
        corpus = random_corpus(rng, n_docs=10, n_terms=12)
        for eps in (2.0, 8.0, 25.0):
            _, _, trace = train_nplsa(corpus, eps, EmConfig(seed=1, max_iters=60))
            values = [row.objective for row in trace]
            for prev, cur in zip(values, values[1:]):
                assert cur >= prev - 1e-6 * abs(prev)

    def test_epsilon_monotonicity(self):
        rng = np.random.default_rng(13)
        corpus = random_corpus(rng, n_docs=12, n_terms=14)
        config = EmConfig(seed=3, max_iters=60)
        ks = [train_nplsa(corpus, eps, config)[0].shape[0] for eps in (0.5, 2.0, 8.0, 32.0)]
        assert ks == sorted(ks, reverse=True)

    def test_topic_cap_raises(self):
        corpus = ingest_sparse([(0, "a", 5), (1, "b", 5), (2, "c", 5), (3, "d", 5)])
        with pytest.raises(AlgorithmError, match="topic explosion"):
            train_nplsa(corpus, 0.01, EmConfig(seed=0), max_topics=2)

    def test_topic_cap_below_one_raises(self):
        corpus = ingest_sparse([(0, "a", 5), (1, "b", 5)])
        for max_topics in (0, -1):
            with pytest.raises(DataError, match="max_topics must be >= 1"):
                train_nplsa(corpus, 1.0, EmConfig(seed=0), max_topics=max_topics)

    def test_negative_order_seed_raises(self):
        corpus = ingest_sparse([(0, "a", 5), (1, "b", 5)])
        with pytest.raises(DataError, match="order_seed must be non-negative"):
            train_nplsa(corpus, 1.0, EmConfig(seed=0), order_seed=-1)

    def test_invalid_epsilon(self):
        corpus = ingest_sparse([(0, "a", 1)])
        for epsilon in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DataError):
                train_nplsa(corpus, epsilon, EmConfig(seed=0))

    def test_one_e_step_per_sweep_without_spawn_or_refit(self, monkeypatch):
        # A spawn leaves the documents visited before it fitted against fewer
        # topics, so the sweep after a spawning sweep refits them.
        calls = []
        e_step, m_step = plsa._e_step, plsa._m_step
        monkeypatch.setattr(plsa, "_e_step", lambda *a: calls.append("E") or e_step(*a))
        monkeypatch.setattr(plsa, "_m_step", lambda *a: calls.append("M") or m_step(*a))
        _, _, trace = train_nplsa(desk_corpus(1), 150.0, EmConfig(seed=1, max_iters=15))
        spawned = [bool(row.spawned) for row in trace]
        rerun = [cur or prev for prev, cur in zip([False] + spawned, spawned)]
        assert 0 < sum(rerun) < len(rerun)
        expected = ["E"]
        for again in rerun:
            expected += ["E"] * again + ["M", "E"]
        assert calls == expected

    def test_state_invariants(self):
        rng = np.random.default_rng(17)
        corpus = random_corpus(rng)
        topics, mixes, trace = train_nplsa(corpus, 5.0, EmConfig(seed=2, max_iters=50))
        assert mixes.shape == (corpus.n_docs, topics.shape[0])
        assert np.all(mixes >= 0.0)
        np.testing.assert_allclose(mixes.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(topics.sum(axis=1), 1.0, atol=1e-9)
        ks = [row.k for row in trace]
        assert ks == sorted(ks)  # growth never loses live topics on this corpus

    def test_order_seed_reproducible(self):
        rng = np.random.default_rng(19)
        corpus = random_corpus(rng)
        config = EmConfig(seed=5, max_iters=40)
        topics1, _, t1 = train_nplsa(corpus, 4.0, config, order_seed=99)
        topics2, _, t2 = train_nplsa(corpus, 4.0, config, order_seed=99)
        assert np.array_equal(topics1, topics2)
        assert [r.loglik for r in t1] == [r.loglik for r in t2]


class TestSerialEquivalence:
    """The batched sweep against the per-document reference sweep."""

    @staticmethod
    def assert_same_run(corpus, epsilon, config, order_seed):
        got_topics, got_mixes, trace = train_nplsa(corpus, epsilon, config, order_seed=order_seed)
        topics, mixes, sweeps = serial_nplsa(corpus, epsilon, config, order_seed)
        ks, lls, objectives, spawned = (list(column) for column in zip(*sweeps))
        assert [row.spawned for row in trace] == spawned
        assert [row.k for row in trace] == ks
        np.testing.assert_array_equal(got_mixes == 0, mixes == 0)
        np.testing.assert_allclose([row.loglik for row in trace], lls, rtol=1e-12)
        np.testing.assert_allclose([row.objective for row in trace], objectives, rtol=1e-12)
        np.testing.assert_allclose(got_topics, topics, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(got_mixes, mixes, rtol=1e-12, atol=1e-12)
        return trace

    @pytest.mark.parametrize("order_seed", [None, 7])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_desk_corpus(self, seed, order_seed):
        trace = self.assert_same_run(
            desk_corpus(seed), 150.0, EmConfig(seed=1, max_iters=15), order_seed
        )
        assert sum(len(row.spawned) for row in trace) >= 3

    @pytest.mark.parametrize("epsilon", [2.0, 8.0])
    def test_random_corpus(self, epsilon):
        corpus = random_corpus(np.random.default_rng(11), n_docs=10, n_terms=12)
        self.assert_same_run(corpus, epsilon, EmConfig(seed=1, max_iters=60), order_seed=3)


class TestPenalizedObjective:
    def test_spawn_improves_objective(self):
        # three docs, two clearly shared and one outlier; spawning the outlier's
        # model must beat paying the per-topic penalty when its deficit > epsilon
        corpus = ingest_sparse(
            [(0, "a", 6), (0, "b", 2), (1, "a", 4), (1, "b", 4), (2, "x", 5), (2, "y", 5)]
        )
        config = EmConfig(seed=1, max_iters=60)
        topics, mixes, _ = train_nplsa(corpus, 1e9, config)  # K=1 background fit
        eps = 3.0
        d_out = 2
        gap = deficit(corpus.docs[d_out], topics)
        assert gap > eps

        before = penalized_objective(corpus, topics, mixes, np.array([1, 1, 1]), eps)
        after = penalized_objective(
            corpus,
            np.vstack([topics, doc_language_model(corpus, d_out)]),
            np.vstack([np.pad(mixes[:d_out], ((0, 0), (0, 1))), [0.0, 1.0]]),
            np.array([1, 1, 2]),
            eps,
        )
        assert after > before
