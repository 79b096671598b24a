import itertools
import math

import numpy as np
import pytest

from topicgrow import autostop
from topicgrow.autostop import (
    StopDetector,
    diversity,
    estimate_query_model,
    query_distance,
    train_parameter_free,
    train_weakly_supervised,
)
from topicgrow.corpus import background_model, ingest_sparse
from topicgrow.errors import AlgorithmError, DataError
from topicgrow.metrics import topic_coverage_error
from topicgrow.nplsa import doc_self_loglik, grow, spawn, warm_start
from topicgrow.plsa import EmConfig, _e_step, fold_in, fold_in_all
from topicgrow.synthgen import PROFILES, SynthConfig, generate_corpus


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

    def test_document_matching_several_terms_is_pooled_once(self):
        model = estimate_query_model(feedback_corpus(), [" A", "b", "zzz"], lam=1.0)
        assert model.feedback_size == 2
        assert model.terms == ["a", "b", "zzz"]
        np.testing.assert_allclose(model.theta_q, [0.3, 0.3, 0.2, 0.2], atol=1e-12)

    @pytest.mark.parametrize("lam", [math.nan, -0.5, 1.5, -math.inf])
    def test_lambda_outside_the_unit_interval_raises(self, lam):
        with pytest.raises(DataError, match="lam must lie in"):
            estimate_query_model(feedback_corpus(), ["a"], lam=lam)

    def test_lambda_zero_keeps_initialization(self):
        model = estimate_query_model(feedback_corpus(), ["a"], lam=0.0)
        np.testing.assert_allclose(model.theta_q, [0.3, 0.3, 0.2, 0.2], atol=1e-12)


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


def spy_fold_ins(monkeypatch):
    """Record (topics, init_mixes, mixes, lls) of every ``fold_in_all`` call the grow makes."""
    calls = []
    real = autostop.fold_in_all

    def spy(corpus, topics, config, init_mixes=None):
        mixes, lls = real(corpus, topics, config, init_mixes=init_mixes)
        calls.append((topics.copy(), np.array(init_mixes), mixes.copy(), lls.copy()))
        return mixes, lls

    monkeypatch.setattr(autostop, "fold_in_all", spy)
    return calls


def spy_grow_states(monkeypatch):
    """Record (topics, mixes) of every iteration of ``nplsa.grow`` the growth run reads."""
    states = []
    real = autostop.grow

    def spy(*args):
        for topics, mixes, row in real(*args):
            states.append((topics.copy(), mixes.copy()))
            yield topics, mixes, row

    monkeypatch.setattr(autostop, "grow", spy)
    return states


def oracle_deficits(corpus, topics, mixes, config):
    """(deficits, E-step bounds): every document fitted by its own ``fold_in``.

    A deficit is the self log-likelihood minus the better of the fold-in fit,
    warm-started as growth starts it, and the log-likelihood under the EM mix.
    """
    self_lls = np.array([doc_self_loglik(doc) for doc in corpus.docs])
    em_lls = _e_step(corpus, topics, mixes)[2]
    warm = warm_start(mixes, topics.shape[0])[1]
    fit_lls = np.array([fold_in(corpus.docs[d], topics, config, init_mix=warm[d])[1]
                        for d in range(corpus.n_docs)])
    return self_lls - np.maximum(fit_lls, em_lls), self_lls - em_lls


def check_fold_ins(corpus, config, calls, states, trace):
    """One fold-in per spawn, equal to per-document ``fold_in``; each spawn the oracle's argmax."""
    grow = [row for row in trace if row.phase == "grow"]
    assert len(calls) == len(grow)  # one fold_in_all per spawn: the post-spawn one
    for row, (topics, init, mixes, lls) in zip(grow, calls):
        old_topics, old_mixes = states[row.iteration - 1]
        np.testing.assert_array_equal(topics[:-1], old_topics)
        np.testing.assert_array_equal(init, warm_start(old_mixes, topics.shape[0])[1])
        for d in range(corpus.n_docs):
            mix, ll = fold_in(corpus.docs[d], topics, config, init_mix=init[d])
            np.testing.assert_allclose(mixes[d], mix, rtol=1e-12, atol=1e-12)
            assert lls[d] == pytest.approx(ll, rel=1e-12)
        deficits, bounds = oracle_deficits(corpus, old_topics, old_mixes, config)
        assert np.all(deficits <= bounds)
        d_star = int(np.argmax(deficits))
        assert row.spawned == (d_star,)
        assert row.epsilon == pytest.approx(deficits[d_star], rel=1e-12)


class TestGrowthBudgets:
    def train(self, which, **budgets):
        corpus = clustered_corpus(np.random.default_rng(73), n_docs=12)
        config = EmConfig(seed=1, max_iters=20)
        if which == "auto":
            return train_parameter_free(corpus, config, **budgets)
        return train_weakly_supervised(corpus, ["t01"], config, **budgets)

    @pytest.mark.parametrize("which", ["auto", "query"])
    @pytest.mark.parametrize("max_spawns", [-1, -3])
    def test_negative_spawn_budget_raises(self, which, max_spawns):
        with pytest.raises(DataError, match="max_spawns must be >= 0"):
            self.train(which, max_spawns=max_spawns)

    @pytest.mark.parametrize("which", ["auto", "query"])
    @pytest.mark.parametrize("max_topics", [0, -2])
    def test_topic_cap_below_one_raises(self, which, max_topics):
        with pytest.raises(DataError, match="max_topics must be >= 1"):
            self.train(which, max_topics=max_topics)

    def test_topic_cap_raises(self):
        detector = StopDetector(mode="maximize", patience=50)
        with pytest.raises(AlgorithmError, match="topic explosion: more than 2 topics"):
            self.train("auto", detector=detector, max_topics=2)

    @pytest.mark.parametrize("which, mode, advice", [
        ("auto", "maximize", "without a diversity peak"),
        ("query", "minimize", "without a query-distance minimum"),
    ])
    def test_topic_cap_names_the_stop_rule(self, which, mode, advice):
        detector = StopDetector(mode=mode, patience=50)
        with pytest.raises(AlgorithmError, match=f"more than 2 topics {advice}$"):
            self.train(which, detector=detector, max_topics=2)

    @pytest.mark.parametrize("which", ["auto", "query"])
    def test_zero_spawn_budget_refines_one_topic(self, which):
        topics, _, trace = self.train(which, max_spawns=0)
        assert topics.shape[0] == 1
        assert not [row for row in trace if row.phase == "grow"]


class TestGrowFoldIns:
    def test_parameter_free_fold_ins_match_fold_in(self, monkeypatch):
        calls, states = spy_fold_ins(monkeypatch), spy_grow_states(monkeypatch)
        corpus = clustered_corpus(np.random.default_rng(67), n_docs=18)
        config = EmConfig(seed=7, max_iters=40)
        _, _, trace = train_parameter_free(corpus, config, max_spawns=5)
        check_fold_ins(corpus, config, calls, states, trace)

    def test_weakly_supervised_fold_ins_match_fold_in(self, monkeypatch):
        calls, states = spy_fold_ins(monkeypatch), spy_grow_states(monkeypatch)
        corpus = clustered_corpus(np.random.default_rng(71), n_docs=18)
        config = EmConfig(seed=8, max_iters=40)
        _, _, trace = train_weakly_supervised(corpus, ["t07"], config, max_spawns=4)
        check_fold_ins(corpus, config, calls, states, trace)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_desk_spawns_are_the_oracle_argmax(self, monkeypatch, seed):
        calls, states = spy_fold_ins(monkeypatch), spy_grow_states(monkeypatch)
        corpus, _ = generate_corpus(SynthConfig(seed=seed, **dict(PROFILES["desk"], n_docs=60)))
        config = EmConfig(seed=seed)
        _, _, trace = train_parameter_free(corpus, config, max_spawns=8)
        check_fold_ins(corpus, config, calls, states, trace)


def fold_in_until_slowest(corpus, topics, config, init_mixes):
    """Reference batch fold-in: every document iterates until the slowest one plateaus."""
    _, word_idx, counts = corpus.flat()
    starts, lengths = corpus.segments()
    rows = np.take(topics, word_idx, axis=1)
    mixes = np.asarray(init_mixes, dtype=float).T.copy()
    prev_lls = None
    for it in range(config.fold_in_max_iters + 1):
        weighted = np.repeat(mixes, lengths, axis=1) * rows
        probs = weighted.sum(axis=0)
        lls = np.add.reduceat(counts * np.log(probs), starts)
        converged = prev_lls is not None and np.all(
            np.abs(lls - prev_lls) <= config.fold_in_rel_tol * (np.abs(prev_lls) + 1e-12)
        )
        if converged or it == config.fold_in_max_iters:
            return mixes.T, lls
        prev_lls = lls
        weighted *= counts / probs
        mixes = np.add.reduceat(weighted, starts, axis=1)
        mixes /= mixes.sum(axis=0)


@pytest.mark.parametrize("seed", range(1, 7))
def test_desk_grid_picks_the_reference_k(monkeypatch, seed):
    """Per-document stopping moves deficits slightly but not the chosen K or the fit."""
    corpus, truth = generate_corpus(SynthConfig(seed=seed, **PROFILES["desk"]))
    config = EmConfig(seed=seed)
    results = []
    for fold_in_all in (fold_in_until_slowest, autostop.fold_in_all):
        monkeypatch.setattr(autostop, "fold_in_all", fold_in_all)
        detector = StopDetector(mode="maximize", patience=15)
        topics, _, _ = train_parameter_free(corpus, config, detector=detector, max_spawns=14)
        results.append((detector.best_k, topic_coverage_error(topics, truth.topics)))
    (ref_k, ref_tce), (k, tce) = results
    assert k == ref_k
    assert tce == pytest.approx(ref_tce, rel=0.10)


def two_fold_in_phase(corpus, config, max_topics):
    """Farthest-first spawning by two full fold-ins per spawn, the reference for the search."""

    def phase(topics, mixes, doc_lls, self_lls, fitted):
        k = topics.shape[0]
        fit_mixes, fit_lls = fold_in_all(corpus, topics, config, init_mixes=warm_start(mixes, k)[1])
        deltas = self_lls - fit_lls
        d_star = int(np.argmax(deltas))
        topics = spawn(corpus, topics, d_star, max_topics, "")
        new_mixes, _ = fold_in_all(
            corpus, topics, config, init_mixes=warm_start(fit_mixes, k + 1)[1]
        )
        new_mixes[d_star] = 0.0
        new_mixes[d_star, k] = 1.0
        return topics, new_mixes, (d_star,), {"epsilon": float(deltas[d_star]), "phase": "grow"}

    return phase


@pytest.mark.parametrize("seed", range(1, 7))
def test_desk_grid_search_picks_the_two_fold_in_k(monkeypatch, seed):
    """The bounded search moves deficits slightly but not the chosen K or the fit."""
    corpus, truth = generate_corpus(SynthConfig(seed=seed, **PROFILES["desk"]))
    config = EmConfig(seed=seed)

    def two_fold_in_grow(corpus, config, max_topics, spawn_phase):
        return grow(corpus, config, max_topics, two_fold_in_phase(corpus, config, max_topics))

    results = []
    for grow_fn in (two_fold_in_grow, grow):
        monkeypatch.setattr(autostop, "grow", grow_fn)
        detector = StopDetector(mode="maximize", patience=15)
        topics, _, _ = train_parameter_free(corpus, config, detector=detector, max_spawns=14)
        results.append((detector.best_k, topic_coverage_error(topics, truth.topics)))
    (ref_k, ref_tce), (k, tce) = results
    assert k == ref_k
    assert tce == pytest.approx(ref_tce, rel=0.10)
