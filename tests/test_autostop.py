import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from topicgrow import autostop
from topicgrow.autostop import (
    diversity,
    estimate_query_model,
    query_distance,
    train_parameter_free,
    train_weakly_supervised,
)
from topicgrow.corpus import background_model, ingest_sparse, ingest_text
from topicgrow.errors import AlgorithmError, DataError
from topicgrow.metrics import topic_coverage_error
from topicgrow.nplsa import doc_self_loglik, grow, spawn, warm_start
from topicgrow.plsa import EmConfig, _e_step, _m_step, fold_in, fold_in_all
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

    def test_term_matches_as_given_then_in_lowercase(self):
        corpus = ingest_sparse([(0, "Apple", 2), (0, "banana", 1), (1, "banana", 1),
                                (1, "Cherry", 3), (2, "apple", 1), (2, "Cherry", 1)])
        given = estimate_query_model(corpus, ["Apple"], lam=1.0)
        assert (given.terms, given.feedback_size) == (["Apple"], 1)
        np.testing.assert_allclose(given.theta_q, [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)
        lowered = estimate_query_model(corpus, ["APPLE"], lam=1.0)
        assert (lowered.terms, lowered.feedback_size) == (["apple"], 1)
        with pytest.raises(DataError, match="query not in corpus"):
            estimate_query_model(corpus, ["cherry"])

    def test_uppercase_query_matches_a_text_corpus(self):
        corpus = ingest_text(["The Cat sat", "a dog ran", "the dog sat"])
        model = estimate_query_model(corpus, ["CAT"], lam=1.0)
        assert (model.terms, model.feedback_size) == (["cat"], 1)

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


def rollback_row(trace):
    """The trace's rollback row and the rows before it."""
    n = [row.phase for row in trace].index("rollback")
    return trace[n], trace[:n]


def scripted_grow(scores, patience):
    """``_grow`` on a tiny corpus with the row at K topics scored ``scores[K - 1]``.

    Returns the rollback row and the rows before it, after checking that each of
    those rows was scored once and the rollback row scored no more."""
    corpus = clustered_corpus(np.random.default_rng(73), n_docs=12)
    scored = []

    def score_fn(topics):
        scored.append(topics.shape[0])
        score = scores[topics.shape[0] - 1]
        return score, {"diversity": score}

    _, _, trace = autostop._grow(corpus, EmConfig(seed=1, max_iters=20), score_fn, patience,
                                 max_topics=12, max_spawns=len(scores) - 1, advice="")
    rollback, grown = rollback_row(trace)
    assert scored == [row.k for row in grown]
    return rollback, grown


class TestStopRule:
    def test_fires_after_patience_stalls(self):
        rollback, grown = scripted_grow([0.1, 0.5, 0.4, 0.3, 0.9], patience=2)
        assert [row.k for row in grown] == [1, 2, 3, 4]
        assert (rollback.k, rollback.diversity, rollback.stop) == (2, 0.5, "patience")

    def test_a_spent_spawn_budget_ends_growth(self):
        rollback, grown = scripted_grow([0.1, 0.2, 0.3], patience=5)
        assert [row.k for row in grown] == [1, 2, 3]
        assert (rollback.k, rollback.stop) == (3, "spawn budget")
        assert [row.stop for row in grown] == ["", "", ""]

    def test_improvement_resets_patience(self):
        rollback, grown = scripted_grow([0.1, 0.05, 0.2, 0.15, 0.1, 0.0], patience=2)
        assert [row.k for row in grown] == [1, 2, 3, 4, 5]
        assert rollback.k == 3

    def test_query_rule_minimizes_distance(self, monkeypatch):
        distances = [5.0, 3.0, 4.0, 1.0]
        monkeypatch.setattr(autostop, "query_distance",
                            lambda theta_q, topics: (distances[topics.shape[0] - 1], 0))
        corpus = clustered_corpus(np.random.default_rng(73), n_docs=12)
        _, _, trace = train_weakly_supervised(corpus, ["t01"], EmConfig(seed=1, max_iters=20),
                                              patience=1, max_spawns=3)
        rollback, grown = rollback_row(trace)
        assert [row.k for row in grown] == [1, 2, 3]
        assert (rollback.k, rollback.query_distance) == (2, 3.0)

    def test_ties_do_not_improve(self):
        rollback, grown = scripted_grow([1.0, 1.0, 1.0, 2.0], patience=2)
        assert [row.k for row in grown] == [1, 2, 3]
        assert rollback.k == 1


class TestParameterFree:
    def test_recovers_cluster_count(self):
        rng = np.random.default_rng(41)
        corpus = clustered_corpus(rng)
        topics, mixes, trace = train_parameter_free(
            corpus, EmConfig(seed=1, max_iters=60), patience=3
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

    def test_rollback_matches_the_best_grow_row(self):
        rng = np.random.default_rng(47)
        corpus = clustered_corpus(rng)
        _, _, trace = train_parameter_free(corpus, EmConfig(seed=3, max_iters=60), patience=3)
        rollback, grown = rollback_row(trace)
        best = max(grown, key=lambda row: row.diversity)  # the first of equal scores
        assert rollback.k == best.k >= 2
        assert rollback.diversity == best.diversity

    def test_identical_docs_stop_small(self):
        triples = []
        for d in range(10):
            for t in range(6):
                triples.append((d, f"t{t}", t + 1))
        corpus = ingest_sparse(triples)
        topics, _, _ = train_parameter_free(
            corpus, EmConfig(seed=5, max_iters=40), patience=3
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
        topics, mixes, trace = train_weakly_supervised(
            corpus, ["t01"], EmConfig(seed=4, max_iters=60), patience=3
        )
        assert mixes.shape == (corpus.n_docs, topics.shape[0])
        np.testing.assert_allclose(mixes.sum(axis=1), 1.0, atol=1e-9)
        rollback, grown = rollback_row(trace)
        best = min(grown, key=lambda row: row.query_distance)  # the first of equal scores
        assert (rollback.k, rollback.query_distance, rollback.closest_topic) == (
            best.k, best.query_distance, best.closest_topic)
        # cluster 0 owns terms t00..t05; the closest topic should live there
        assert topics.shape[0] == rollback.k
        top_word = int(np.argmax(topics[rollback.closest_topic]))
        assert corpus.vocab.terms[top_word].startswith("t0")

    def test_background_query_stops_early(self):
        rng = np.random.default_rng(61)
        corpus = clustered_corpus(rng)
        # a term that occurs in every document makes the lam->0 feedback model
        # collapse onto the corpus background model
        triples = []
        for d in range(corpus.n_docs):
            ids, counts = corpus.docs[d]
            for t, c in zip(ids, counts):
                triples.append((d, corpus.vocab.terms[t], int(c)))
            triples.append((d, "common", 3))
        corpus = ingest_sparse(triples)
        model = estimate_query_model(corpus, ["common"], lam=1e-12)
        np.testing.assert_allclose(model.theta_q, background_model(corpus), atol=1e-9)

        _, _, trace = train_weakly_supervised(
            corpus, ["common"], EmConfig(seed=6, max_iters=50), lam=1e-12, patience=3,
        )
        assert rollback_row(trace)[0].k <= 5


def spy_fold_ins(monkeypatch):
    """Record the post-spawn refits of a grow, one dict per spawn.

    Each holds the ``fold_in_all`` call's (config, topics, init_mixes, mixes,
    lls) and, under "rest", the (docs, config, init_mixes, mixes) of the
    ``autostop.fold_in_docs`` call that runs the new topic's takers on, if any.
    """
    calls = []
    real_all, real_docs = autostop.fold_in_all, autostop.fold_in_docs

    def spy_all(corpus, topics, config, init_mixes=None):
        mixes, lls = real_all(corpus, topics, config, init_mixes=init_mixes)
        calls.append({"all": (config, topics.copy(), np.array(init_mixes), mixes.copy(),
                              lls.copy()), "rest": None})
        return mixes, lls

    def spy_docs(corpus, docs, topics, config, init_mixes):
        mixes, lls = real_docs(corpus, docs, topics, config, init_mixes)
        calls[-1]["rest"] = (docs.copy(), config, np.array(init_mixes), mixes.copy())
        return mixes, lls

    monkeypatch.setattr(autostop, "fold_in_all", spy_all)
    monkeypatch.setattr(autostop, "fold_in_docs", spy_docs)
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


def refit_config(config):
    """The post-spawn refit's first budget: at most ``_SPAWN_REFIT_PASSES`` fold-in passes."""
    return replace(config, fold_in_max_iters=min(config.fold_in_max_iters,
                                                 autostop._SPAWN_REFIT_PASSES))


def check_fold_ins(corpus, config, calls, states, trace):
    """Each spawn the oracle's argmax, its deficits fitted with the full budget, then a refit
    equal to per-document ``fold_in``: capped, the new topic's takers running on to the full
    budget. The next state is one EM step from the refit. Returns the takers run on."""
    grow = [row for row in trace if row.phase == "grow"]
    assert len(calls) == len(grow)  # one fold_in_all per spawn: the post-spawn one
    refit = refit_config(config)
    n_rest = 0
    for row, call in zip(grow, calls):
        used, topics, init, mixes, lls = call["all"]
        assert used == refit
        old_topics, old_mixes = states[row.iteration - 1]
        np.testing.assert_array_equal(topics[:-1], old_topics)
        np.testing.assert_array_equal(init, warm_start(old_mixes, topics.shape[0])[1])
        for d in range(corpus.n_docs):
            mix, ll = fold_in(corpus.docs[d], topics, refit, init_mix=init[d])
            np.testing.assert_allclose(mixes[d], mix, rtol=1e-12, atol=1e-12)
            assert lls[d] == pytest.approx(ll, rel=1e-12)
        deficits, bounds = oracle_deficits(corpus, old_topics, old_mixes, config)
        assert np.all(deficits <= bounds)
        d_star = int(np.argmax(deficits))
        assert row.spawned == (d_star,)
        assert row.epsilon == pytest.approx(deficits[d_star], rel=1e-12)

        takers = np.flatnonzero((mixes[:, -1] > autostop._SPAWN_UPTAKE)
                                & (np.arange(corpus.n_docs) != d_star))
        post = mixes.copy()
        if refit == config or not takers.size:
            assert call["rest"] is None
        else:
            docs, rest, rest_init, rest_mixes = call["rest"]
            np.testing.assert_array_equal(docs, takers)
            assert rest == replace(config, fold_in_max_iters=config.fold_in_max_iters
                                   - refit.fold_in_max_iters)
            np.testing.assert_array_equal(rest_init, mixes[docs])
            for d, start, got in zip(docs, rest_init, rest_mixes):
                mix, _ = fold_in(corpus.docs[d], topics, rest, init_mix=start)
                np.testing.assert_allclose(got, mix, rtol=1e-12, atol=1e-12)
            post[docs] = rest_mixes
            n_rest += docs.size
        post[d_star] = np.eye(1, topics.shape[0], topics.shape[0] - 1)
        ratio, doc_counts, _ = _e_step(corpus, topics, post)
        if doc_counts.any(axis=0).all():  # no topic pruned
            expected = _m_step(corpus, topics, post, ratio, doc_counts, config.smoothing_floor)
            for got, want in zip(states[row.iteration], expected):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    return n_rest


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

    @pytest.mark.parametrize("which", ["auto", "query"])
    @pytest.mark.parametrize("patience", [0, -1])
    def test_patience_below_one_raises(self, which, patience):
        with pytest.raises(DataError, match="patience must be >= 1"):
            self.train(which, patience=patience)

    def test_topic_cap_raises(self):
        with pytest.raises(AlgorithmError, match="topic explosion: more than 2 topics"):
            self.train("auto", patience=50, max_topics=2)

    @pytest.mark.parametrize("which, advice", [
        ("auto", "without a diversity peak"),
        ("query", "without a query-distance minimum"),
    ])
    def test_topic_cap_names_the_stop_rule(self, which, advice):
        with pytest.raises(AlgorithmError, match=f"more than 2 topics {advice}$"):
            self.train(which, patience=50, max_topics=2)

    @pytest.mark.parametrize("which", ["auto", "query"])
    def test_zero_spawn_budget_refines_one_topic(self, which):
        topics, _, trace = self.train(which, max_spawns=0)
        assert topics.shape[0] == 1
        assert not [row for row in trace if row.phase == "grow"]


class TestGrowFoldIns:
    @pytest.mark.parametrize("budget", [EmConfig(seed=7).fold_in_max_iters, 3])
    def test_parameter_free_fold_ins_match_fold_in(self, monkeypatch, budget):
        calls, states = spy_fold_ins(monkeypatch), spy_grow_states(monkeypatch)
        corpus = clustered_corpus(np.random.default_rng(67), n_docs=18)
        config = EmConfig(seed=7, max_iters=40, fold_in_max_iters=budget)
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
        assert check_fold_ins(corpus, config, calls, states, trace) > 0

    @pytest.mark.parametrize("which", ["auto", "query"])
    def test_the_bounded_search_keeps_the_full_budget(self, monkeypatch, which):
        configs = []
        real = autostop.best_fits

        def spy(corpus, docs, topics, mixes, old_lls, config):
            configs.append(config)
            return real(corpus, docs, topics, mixes, old_lls, config)

        monkeypatch.setattr(autostop, "best_fits", spy)
        corpus = clustered_corpus(np.random.default_rng(71), n_docs=18)
        config = EmConfig(seed=8, max_iters=40)
        if which == "auto":
            train_parameter_free(corpus, config, max_spawns=4)
        else:
            train_weakly_supervised(corpus, ["t07"], config, max_spawns=4)
        assert configs and all(used is config for used in configs)


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
        topics, _, trace = train_parameter_free(corpus, config, patience=15, max_spawns=14)
        results.append((rollback_row(trace)[0].k, topic_coverage_error(topics, truth.topics)))
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
        topics, _, trace = train_parameter_free(corpus, config, patience=15, max_spawns=14)
        results.append((rollback_row(trace)[0].k, topic_coverage_error(topics, truth.topics)))
    (ref_k, ref_tce), (k, tce) = results
    assert k == ref_k
    assert tce == pytest.approx(ref_tce, rel=0.10)
