import itertools
import math

import numpy as np
import pytest

from topicgrow.autostop import (
    StopDetector,
    diversity,
    estimate_query_model,
    query_distance,
    train_parameter_free,
    train_weakly_supervised,
)
from topicgrow.corpus import background_model, ingest_sparse
from topicgrow.errors import DataError
from topicgrow.plsa import EmConfig


class TestDiversity:
    def test_identical_topics(self):
        topics = np.array([[0.3, 0.7], [0.3, 0.7]])
        assert diversity(topics) == 0.0

    def test_disjoint_one_hots(self):
        topics = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert diversity(topics) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_three_topic_hand_value(self):
        topics = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        expected = (math.sqrt(2) + 2 * math.sqrt(0.5)) / 3
        assert diversity(topics) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.94281, abs=5e-6)

    def test_single_topic_is_error(self):
        with pytest.raises(DataError, match="diversity undefined"):
            diversity(np.array([[1.0]]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        topics = rng.dirichlet(np.ones(6), size=4)
        base = diversity(topics)
        for perm in itertools.permutations(range(4)):
            assert diversity(topics[list(perm)]) == pytest.approx(base, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            topics = rng.dirichlet(np.ones(5), size=3)
            assert 0.0 <= diversity(topics) <= math.sqrt(2) + 1e-12


class TestQueryDistance:
    def test_exact_match(self):
        topics = np.array([[0.2, 0.8], [0.6, 0.4]])
        dist, idx = query_distance(np.array([0.6, 0.4]), topics)
        assert dist == 0.0 and idx == 1

    def test_tie_prefers_low_index(self):
        topics = np.array([[0.0, 1.0], [1.0, 0.0]])
        dist, idx = query_distance(np.array([1.0, 0.0]), topics)
        assert dist == 0.0 and idx == 1
        dist, idx = query_distance(np.array([0.5, 0.5]), topics)
        assert idx == 0  # equidistant, lowest index wins

    def test_uniform_vs_one_hot(self):
        dist, _ = query_distance(np.array([0.5, 0.5]), np.array([[1.0, 0.0]]))
        assert dist == pytest.approx(math.sqrt(0.5), abs=1e-12)


def feedback_corpus():
    # feedback docs d0, d1 contain the query term "a" and pool to (3, 3, 2, 2);
    # d2 balances the collection so the background model is exactly uniform
    return ingest_sparse(
        [
            (0, "a", 2), (0, "b", 1), (0, "c", 1),
            (1, "a", 1), (1, "b", 2), (1, "c", 1), (1, "d", 2),
            (2, "c", 1), (2, "d", 1),
        ]
    )


class TestQueryModelEstimation:
    def test_lambda_one_gives_pooled_mle(self):
        corpus = feedback_corpus()
        model = estimate_query_model(corpus, ["a"], lam=1.0)
        np.testing.assert_allclose(model.theta_q, [0.3, 0.3, 0.2, 0.2], atol=1e-12)
        assert model.feedback_size == 2

    def test_lambda_near_zero_keeps_initialization(self):
        corpus = feedback_corpus()
        model = estimate_query_model(corpus, ["a"], lam=1e-12)
        np.testing.assert_allclose(model.theta_q, [0.3, 0.3, 0.2, 0.2], atol=1e-6)

    def test_matches_grid_search_oracle(self):
        corpus = feedback_corpus()
        np.testing.assert_allclose(background_model(corpus), 0.25)
        lam = 0.5
        model = estimate_query_model(corpus, ["a"], lam=lam)

        counts = np.array([3.0, 3.0, 2.0, 2.0])
        theta_c = np.full(4, 0.25)
        best, best_obj = None, -np.inf
        step = 100
        for i in range(step + 1):
            for j in range(step + 1 - i):
                for k in range(step + 1 - i - j):
                    theta = np.array([i, j, k, step - i - j - k]) / step
                    obj = float(np.dot(counts, np.log(lam * theta + (1 - lam) * theta_c)))
                    if obj > best_obj:
                        best, best_obj = theta, obj
        assert np.linalg.norm(model.theta_q - best) <= 1e-3
        # interior optimum lands exactly on the grid for this instance
        np.testing.assert_allclose(best, [0.35, 0.35, 0.15, 0.15], atol=1e-12)

    def test_unmatched_query_raises(self):
        corpus = feedback_corpus()
        with pytest.raises(DataError, match="query not in corpus"):
            estimate_query_model(corpus, ["zzz"])


class TestStopDetector:
    def test_fires_after_patience_stalls(self):
        det = StopDetector(mode="maximize", patience=2)
        assert not det.update(1, 0.1)
        assert not det.update(2, 0.5)
        assert not det.update(3, 0.4)
        assert det.update(4, 0.3)
        assert det.best_k == 2 and det.best_score == 0.5

    def test_improvement_resets_patience(self):
        det = StopDetector(mode="maximize", patience=2)
        det.update(1, 0.1)
        det.update(2, 0.05)
        det.update(3, 0.2)
        det.update(4, 0.15)
        assert not det.fired
        assert det.best_k == 3

    def test_minimize_mode(self):
        det = StopDetector(mode="minimize", patience=1)
        det.update(1, 5.0)
        det.update(2, 3.0)
        assert det.update(3, 4.0)
        assert det.best_k == 2

    def test_ties_do_not_improve(self):
        det = StopDetector(mode="maximize", patience=2)
        det.update(1, 1.0)
        det.update(2, 1.0)
        assert det.update(3, 1.0)
        assert det.best_k == 1


def clustered_corpus(rng, n_docs=24, n_terms=18, n_clusters=3, doc_len=60):
    """Documents drawn from disjoint-support cluster distributions."""
    block = n_terms // n_clusters
    triples = []
    for d in range(n_docs):
        c = d % n_clusters
        words = rng.choice(np.arange(c * block, (c + 1) * block), size=doc_len)
        for t, cnt in zip(*np.unique(words, return_counts=True)):
            triples.append((d, f"t{t:02d}", int(cnt)))
    return ingest_sparse(triples)


class TestParameterFree:
    def test_recovers_cluster_count(self):
        rng = np.random.default_rng(41)
        corpus = clustered_corpus(rng)
        detector = StopDetector(mode="maximize", patience=3)
        topics, mixes, trace = train_parameter_free(
            corpus, EmConfig(seed=1, max_iters=60), detector=detector
        )
        assert 3 <= topics.shape[0] <= 5
        assert mixes.shape == (corpus.n_docs, topics.shape[0])

    def test_one_spawn_per_iteration(self):
        rng = np.random.default_rng(43)
        corpus = clustered_corpus(rng, n_docs=15)
        _, _, trace = train_parameter_free(
            corpus, EmConfig(seed=2, max_iters=40), max_spawns=4
        )
        grow = [row for row in trace if row.phase == "grow"]
        ks = [row.k for row in grow]
        assert ks == list(range(2, 2 + len(grow)))

    def test_snapshot_matches_best_score(self):
        rng = np.random.default_rng(47)
        corpus = clustered_corpus(rng)
        detector = StopDetector(mode="maximize", patience=3)
        train_parameter_free(corpus, EmConfig(seed=3, max_iters=60), detector=detector)
        snap_topics, _ = detector.best_snapshot
        assert snap_topics.shape[0] == detector.best_k
        assert diversity(snap_topics) == pytest.approx(detector.best_score, abs=1e-9)

    def test_identical_docs_stop_small(self):
        triples = []
        for d in range(10):
            for t in range(6):
                triples.append((d, f"t{t}", t + 1))
        corpus = ingest_sparse(triples)
        detector = StopDetector(mode="maximize", patience=3)
        topics, _, _ = train_parameter_free(
            corpus, EmConfig(seed=5, max_iters=40), detector=detector
        )
        assert topics.shape[0] <= 3

    def test_spawn_sequence_deterministic(self):
        rng = np.random.default_rng(53)
        corpus = clustered_corpus(rng)
        config = EmConfig(seed=9, max_iters=50)
        t1, _, tr1 = train_parameter_free(corpus, config, max_spawns=5)
        t2, _, tr2 = train_parameter_free(corpus, config, max_spawns=5)
        assert np.array_equal(t1, t2)
        assert [r.epsilon for r in tr1 if r.phase == "grow"] == [
            r.epsilon for r in tr2 if r.phase == "grow"
        ]


class TestWeaklySupervised:
    def test_query_pulls_out_matching_cluster(self):
        rng = np.random.default_rng(59)
        corpus = clustered_corpus(rng)
        detector = StopDetector(mode="minimize", patience=3)
        topics, mixes, trace = train_weakly_supervised(
            corpus, ["t01"], EmConfig(seed=4, max_iters=60), detector=detector
        )
        assert mixes.shape == (corpus.n_docs, topics.shape[0])
        np.testing.assert_allclose(mixes.sum(axis=1), 1.0, atol=1e-9)
        # cluster 0 owns terms t00..t05; the closest topic should live there
        snap_topics, _ = detector.best_snapshot
        model = estimate_query_model(corpus, ["t01"])
        _, idx = query_distance(model.theta_q, snap_topics)
        top_word = int(np.argmax(snap_topics[idx]))
        assert corpus.vocab.term_of(top_word).startswith("t0")

    def test_background_query_stops_early(self):
        rng = np.random.default_rng(61)
        corpus = clustered_corpus(rng)
        # a term that occurs in every document makes the lam->0 feedback model
        # collapse onto the corpus background model
        triples = []
        for d in range(corpus.n_docs):
            ids, counts = corpus.docs[d]
            for t, c in zip(ids, counts):
                triples.append((d, corpus.vocab.term_of(int(t)), int(c)))
            triples.append((d, "common", 3))
        corpus = ingest_sparse(triples)
        model = estimate_query_model(corpus, ["common"], lam=1e-12)
        np.testing.assert_allclose(model.theta_q, background_model(corpus), atol=1e-9)

        detector = StopDetector(mode="minimize", patience=3)
        train_weakly_supervised(
            corpus, ["common"], EmConfig(seed=6, max_iters=50), lam=1e-12,
            detector=detector,
        )
        assert detector.best_k <= 5
