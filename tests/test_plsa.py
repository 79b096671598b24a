import logging
import math
from dataclasses import replace
from itertools import count, islice

import numpy as np
import pytest
from oracles import per_document_fold_in

from topicgrow import autostop, nplsa, plsa
from topicgrow.corpus import (
    Corpus,
    Vocabulary,
    background_model,
    doc_language_model,
    ingest_sparse,
    pooled_counts,
)
from topicgrow.errors import DataError
from topicgrow.plsa import (
    EmConfig,
    TraceRow,
    _e_step,
    _floor_rows,
    _m_step,
    _plateaued,
    e_step_doc,
    em_refine,
    em_steps,
    fold_in,
    fold_in_all,
    fold_in_docs,
    init_topics,
    log_likelihood,
    run_to_plateau,
    train_plsa,
)
from topicgrow.synthgen import PROFILES, SynthConfig, generate_corpus


def brute_force_doc_logliks(corpus, topics, mixes):
    """Independent double-loop evaluation of each document's log-likelihood."""
    lls = []
    for d in range(corpus.n_docs):
        ids, counts = corpus.docs[d]
        total = 0.0
        for tid, c in zip(ids, counts):
            inner = 0.0
            for z in range(topics.shape[0]):
                inner += mixes[d][z] * topics[z][tid]
            total += c * math.log(inner)
        lls.append(total)
    return lls


def brute_force_loglik(corpus, topics, mixes):
    """Independent double-loop evaluation of the training log-likelihood."""
    return sum(brute_force_doc_logliks(corpus, topics, mixes))


def random_instance(rng, n_docs=4, n_terms=6, k=3):
    triples = []
    for d in range(n_docs):
        for t in rng.choice(n_terms, size=rng.integers(2, n_terms), replace=False):
            triples.append((d, f"t{t}", int(rng.integers(1, 6))))
    corpus = ingest_sparse(triples)
    topics = rng.dirichlet(np.ones(corpus.n_terms), size=k)
    mixes = rng.dirichlet(np.ones(k), size=corpus.n_docs)
    return corpus, topics, mixes


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


def oracle_posteriors(corpus, topics, mixes):
    return [e_step_doc(corpus, d, topics, mixes[d]) for d in range(corpus.n_docs)]


def oracle_doc_counts(corpus, posteriors):
    """Expected counts n(d,z) = sum_w n(d,w) p(z|d,w), one row per document."""
    return np.array([post.T @ corpus.docs[d][1] for d, post in enumerate(posteriors)])


def doc_counts_of(corpus, topics, mixes):
    return _e_step(corpus, topics, mixes)[1]


def em_step(corpus, topics, mixes, smoothing_floor=0.0):
    """One E-step and M-step of the kernel. Returns (topics, mixes)."""
    ratio, doc_counts, _ = _e_step(corpus, topics, mixes)
    return _m_step(corpus, topics, mixes, ratio, doc_counts, smoothing_floor)


# Topics whose posteriors are one-hot: topic 0 explains only "a", topic 1 only "b".
ONE_HOT = np.array([[1.0, 0.0], [0.0, 1.0]])


class TestEStep:
    def test_single_topic_posterior_is_one(self):
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1)])
        counts = doc_counts_of(corpus, np.array([[0.3, 0.7]]), np.array([[1.0]]))
        np.testing.assert_array_equal(counts, [[3.0]])

    def test_symmetric_topics_give_even_posterior(self):
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 1)])
        topics = np.array([[0.4, 0.6], [0.4, 0.6]])
        counts = doc_counts_of(corpus, topics, np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(counts, np.full((1, 2), 1.0))

    def test_hand_evaluated_posterior(self):
        # p(z|d,w) = (0.6*0.1, 0.4*0.3) / 0.18 = (1/3, 2/3), times n(d,w) = 1
        corpus = ingest_sparse([(0, "a", 1)])
        topics = np.array([[0.1], [0.3]])
        counts = doc_counts_of(corpus, topics, np.array([[0.6, 0.4]]))
        np.testing.assert_allclose(counts, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)

    def test_rows_sum_to_one(self):
        # the posterior rows sum to one, so each document's counts sum to its length
        rng = np.random.default_rng(3)
        corpus, topics, mixes = random_instance(rng)
        counts = doc_counts_of(corpus, topics, mixes)
        lengths = [corpus.docs[d][1].sum() for d in range(corpus.n_docs)]
        np.testing.assert_allclose(counts.sum(axis=1), lengths, atol=1e-9)


class TestMStep:
    def test_single_doc_single_topic(self):
        corpus = ingest_sparse([(0, "a", 1), (1, "b", 1)])
        topics, mixes = em_step(corpus, np.array([[0.3, 0.7]]), np.ones((2, 1)))
        np.testing.assert_allclose(topics, [[0.5, 0.5]])
        np.testing.assert_allclose(mixes, [[1.0], [1.0]])

    def test_even_posteriors_recover_background(self):
        corpus = ingest_sparse([(0, "a", 1), (1, "b", 1)])
        topics, mixes = em_step(corpus, np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        bg = background_model(corpus)
        np.testing.assert_allclose(topics[0], bg, atol=1e-12)
        np.testing.assert_allclose(topics[1], bg, atol=1e-12)
        np.testing.assert_allclose(mixes, np.full((2, 2), 0.5))

    def test_hand_evaluated_mix(self):
        # doc {a:2, b:1}; posterior one-hot per word -> p(z|d) = (2/3, 1/3)
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1)])
        _, mixes = em_step(corpus, ONE_HOT, np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(mixes[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_dead_topic_reset_to_uniform(self):
        corpus = ingest_sparse([(0, "a", 1)])
        topics, _ = em_step(corpus, np.array([[1.0], [1.0]]), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(topics[1], [1.0])

    def test_entry_rescaled_below_the_floor_is_floored_too(self):
        # entry 0 lies below the floor and entry 1 just above it, so rescaling
        # the rest of the row takes entry 1 below it as well: both are floored
        f = 1e-3
        row = np.array([[0.2 * f, f * (1 + 1e-7)] + [(1 - 1.2 * f) / 10] * 10])
        out = _floor_rows(row, f)[0]
        plain = row[0] / row.sum()
        assert out[0] == f and out[1] == f
        scale = (1 - 2 * f) / (1 - plain[:2].sum())
        np.testing.assert_allclose(out[2:], plain[2:] * scale, rtol=1e-14)
        assert abs(out.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("k, v", [(1, 2), (3, 7), (5, 40), (10, 400)])
    def test_floor_properties_on_random_rows_with_zeros(self, k, v):
        rng = np.random.default_rng(k * 1000 + v)
        for floor in [0.0, 1e-12, 1e-6 / v, 0.1 / v, 0.4999 / v]:
            mat = rng.dirichlet(np.full(v, 0.5), size=k)
            mat[rng.random((k, v)) < 0.4] = 0.0
            mat[:, 0] += 1e-3  # no row is all zeros
            mat *= rng.uniform(0.5, 50.0)
            out = _floor_rows(mat, floor)
            plain = mat / mat.sum(axis=1, keepdims=True)
            if floor == 0.0:
                np.testing.assert_array_equal(out, plain)
            assert np.all(out >= floor)
            assert np.all(out[plain < floor] == floor)  # zeros among them
            np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            for o, p in zip(out, plain):
                order = np.argsort(p, kind="stable")
                assert np.all(np.diff(o[order]) >= 0)  # order is kept
                kept = o > floor  # these share one scale, which takes each floored one to <= floor
                scale = (1 - floor * (~kept).sum()) / p[kept].sum()
                np.testing.assert_allclose(o[kept], p[kept] * scale, rtol=1e-12, atol=0)
                assert np.all(p[~kept] * scale <= floor * (1 + 1e-12))

    def test_floor_respected(self):
        corpus = ingest_sparse([(0, "a", 5), (0, "b", 1), (1, "a", 2)])
        mixes = np.array([[0.5, 0.5], [1.0, 0.0]])
        topics, mixes = em_step(corpus, ONE_HOT, mixes, smoothing_floor=1e-6)
        assert np.all(topics >= 1e-6 * (1 - 1e-12))
        np.testing.assert_allclose(topics.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(mixes.sum(axis=1), 1.0, atol=1e-9)


class TestKernel:
    """The expected-counts kernel against the per-document E- and M-steps."""

    def test_e_step_matches_per_doc_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            corpus, topics, mixes = random_instance(rng)
            _, doc_counts, doc_lls = _e_step(corpus, topics, mixes)
            expected = oracle_doc_counts(corpus, oracle_posteriors(corpus, topics, mixes))
            np.testing.assert_allclose(doc_counts, expected, rtol=1e-12, atol=1e-15)
            assert doc_lls.shape == (corpus.n_docs,)
            np.testing.assert_allclose(
                doc_lls, brute_force_doc_logliks(corpus, topics, mixes), rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize("floor", [0.0, 1e-6])
    def test_m_step_matches_per_doc_oracle(self, floor):
        rng = np.random.default_rng(5)
        for _ in range(5):
            corpus, topics, mixes = random_instance(rng)
            new_topics, new_mixes = em_step(corpus, topics, mixes, floor)
            oracle_topics, oracle_mixes = m_step(
                corpus, oracle_posteriors(corpus, topics, mixes), floor
            )
            np.testing.assert_allclose(new_topics, oracle_topics, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(new_mixes, oracle_mixes, rtol=1e-12, atol=1e-15)

    def test_hand_evaluated_posterior(self):
        # p(z|d,w) = (0.6*0.1, 0.4*0.3) / 0.18 = (1/3, 2/3)
        corpus = ingest_sparse([(0, "a", 1)])
        _, doc_counts, doc_lls = _e_step(corpus, np.array([[0.1], [0.3]]), np.array([[0.6, 0.4]]))
        np.testing.assert_allclose(doc_counts, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)
        assert doc_lls[0] == pytest.approx(math.log(0.18), abs=1e-15)

    def test_hand_evaluated_mix(self):
        # doc {a:2, b:1}; posterior one-hot per word -> n(d,z) = (2, 1), p(z|d) = (2/3, 1/3)
        corpus = ingest_sparse([(0, "a", 2), (0, "b", 1)])
        ratio, doc_counts, _ = _e_step(corpus, ONE_HOT, np.array([[0.5, 0.5]]))
        np.testing.assert_allclose(doc_counts, [[2.0, 1.0]], atol=1e-15)
        _, mixes = _m_step(corpus, ONE_HOT, np.array([[0.5, 0.5]]), ratio, doc_counts, 0.0)
        np.testing.assert_allclose(mixes[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_dead_topic_reset_to_uniform(self):
        corpus = ingest_sparse([(0, "a", 1)])
        topics, mixes = np.array([[1.0], [1.0]]), np.array([[1.0, 0.0]])
        ratio, doc_counts, _ = _e_step(corpus, topics, mixes)
        np.testing.assert_array_equal(doc_counts, [[1.0, 0.0]])
        topics, _ = _m_step(corpus, topics, mixes, ratio, doc_counts, 0.0)
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


def layout_instance():
    """Nine documents of 1 to 40 distinct words out of 49 terms, with rare and common words.

    Term "w00" is in every document (df = D), which makes up the whole of
    the single-word documents 4 and 7. "w46" occurs only in the 3-word
    document 2 and "w47" only in the 40-word document 3 (df = 1); "w48" occurs
    nowhere.
    """
    rng = np.random.default_rng(8)
    sizes = [6, 12, 3, 40, 1, 9, 17, 1, 5]
    triples = []
    for d, size in enumerate(sizes):
        words = list(rng.choice(np.arange(1, 46), size=size - 1, replace=False))
        if d in (2, 3):
            words[-1] = 44 + d
        for t in [0, *words]:
            triples.append((d, f"w{t:02d}", int(rng.integers(1, 6))))
    vocab = Vocabulary([f"w{t:02d}" for t in range(49)])
    return ingest_sparse(triples, vocab=vocab)


def layout_corpus(monkeypatch, cells):
    """A fresh ``layout_instance`` whose EM layout is cut at ``cells`` padded cells per block."""
    monkeypatch.setattr(plsa, "_BLOCK_CELLS", cells)
    corpus = layout_instance()
    plsa._layout(corpus)
    return corpus


class TestBlockLayout:
    """The kernel on padded blocks against the per-document oracle, across block budgets."""

    BUDGETS = [1, 8, 32, 64, 4096]

    def test_instance_covers_the_edge_cases(self):
        corpus = layout_instance()
        df = np.bincount(corpus.flat()[1], minlength=corpus.n_terms)
        assert df[0] == corpus.n_docs and df[46] == df[47] == 1 and df[48] == 0
        assert 46 in corpus.docs[2][0] and 47 in corpus.docs[3][0]
        assert sorted(corpus.segments()[1])[:3] == [1, 1, 3]

    @pytest.mark.parametrize("cells", BUDGETS)
    def test_blocks_cover_every_entry_once(self, monkeypatch, cells):
        corpus = layout_corpus(monkeypatch, cells)
        lay = plsa._layout(corpus)
        doc_idx, word_idx, counts = corpus.flat()
        lengths = corpus.segments()[1]
        if cells == 1:  # one document, and one word, per block
            assert len(lay.doc_blocks) == corpus.n_docs
            assert len(lay.word_blocks) == lay.word_order.size
        if cells == 32:  # the 40-word document sits alone in its block
            assert lay.doc_blocks[0][:2] == (0, 1) and lengths[lay.doc_order[0]] == 40
        real = lay.words < corpus.n_terms
        assert real.sum() == word_idx.size == lay.counts[real].size
        assert np.all(lay.counts[~real] == 0.0)
        on = lay.word_cells < lay.n_cells
        assert on.sum() == word_idx.size
        np.testing.assert_array_equal(np.sort(lay.word_cells[on]), np.flatnonzero(real))
        word_of_row = np.repeat(
            lay.word_order, [(c1 - c0) // (r1 - r0) for r0, r1, c0, c1 in lay.word_blocks
                             for _ in range(r1 - r0)]
        )
        np.testing.assert_array_equal(lay.words[lay.word_cells[on]], word_of_row[on])
        assert lay.max_cells <= max(cells, lengths.max(), np.bincount(word_idx).max())

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("cells", BUDGETS)
    def test_matches_oracle(self, monkeypatch, cells, k):
        corpus = layout_corpus(monkeypatch, cells)
        rng = np.random.default_rng(k)
        topics = rng.dirichlet(np.ones(corpus.n_terms), size=k)
        mixes = rng.dirichlet(np.ones(k), size=corpus.n_docs)
        posteriors = oracle_posteriors(corpus, topics, mixes)
        ratio, doc_counts, doc_lls = _e_step(corpus, topics, mixes)
        np.testing.assert_allclose(
            doc_counts, oracle_doc_counts(corpus, posteriors), rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            doc_lls, brute_force_doc_logliks(corpus, topics, mixes), rtol=1e-12
        )
        new_topics, new_mixes = _m_step(corpus, topics, mixes, ratio, doc_counts, 1e-9)
        oracle_topics, oracle_mixes = m_step(corpus, posteriors, 1e-9)
        np.testing.assert_allclose(new_topics, oracle_topics, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(new_mixes, oracle_mixes, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("cells", [64, 4096])
    def test_bad_probability_in_a_padded_block_raises(self, monkeypatch, cells, bad):
        # "w46" is the last word of the 3-word document 2, padded in a block of
        # longer documents under either budget; "w47" is in the longest document.
        corpus = layout_corpus(monkeypatch, cells)
        lay = plsa._layout(corpus)
        row = int(np.flatnonzero(lay.doc_order == 2)[0])
        r0, r1, c0, c1 = next(b for b in lay.doc_blocks if b[0] <= row < b[1])
        assert r1 - r0 > 1 and (c1 - c0) // (r1 - r0) > 3
        rng = np.random.default_rng(0)
        mixes = rng.dirichlet(np.ones(2), size=corpus.n_docs)
        for term in (46, 47):
            topics = rng.dirichlet(np.ones(corpus.n_terms), size=2)
            topics[:, term] = bad
            with pytest.raises(DataError, match="unmodelable"):
                _e_step(corpus, topics, mixes)
            with pytest.raises(DataError, match="unmodelable"):
                log_likelihood(corpus, topics, mixes)

    def test_fold_in_of_no_documents(self):
        corpus = layout_instance()
        topics = np.full((2, corpus.n_terms), 1.0 / corpus.n_terms)
        mixes, lls = fold_in_docs(corpus, np.array([], dtype=np.int64), topics, np.ones((0, 2)))
        assert mixes.shape == (0, 2) and lls.shape == (0,)

    def test_results_do_not_depend_on_call_history(self):
        def run(corpus, k):
            rng = np.random.default_rng(k)
            topics = rng.dirichlet(np.ones(corpus.n_terms), size=k)
            mixes = rng.dirichlet(np.ones(k), size=corpus.n_docs)
            ratio, doc_counts, doc_lls = _e_step(corpus, topics, mixes)
            return (ratio, doc_counts, doc_lls,
                    *_m_step(corpus, topics, mixes, ratio, doc_counts, 1e-9))

        used = layout_instance()
        first = run(used, 3)
        run(used, 5)
        for again, fresh in zip(run(used, 3), run(layout_instance(), 3)):
            np.testing.assert_array_equal(again, fresh)
        for a, b in zip(first, run(layout_instance(), 3)):
            np.testing.assert_array_equal(a, b)


def topic_major_e_step(corpus, topics, mixes):
    """Reference E-step: the topic-major ``(K, nnz)`` posterior kernel the package used to run.

    Returns ``(weighted, doc_counts, doc_lls)``: ``weighted[z, i]`` is
    n(d,w) p(z|d,w) for flat entry i and stands in for the kernel's ratio.
    """
    _, word_idx, counts = corpus.flat()
    starts, lengths = corpus.segments()
    weighted = np.take(topics, word_idx, axis=1)
    for z in range(weighted.shape[0]):
        weighted[z] *= np.repeat(mixes[:, z], lengths)
    denom = weighted.sum(axis=0)
    if not np.all(denom > 0.0):
        raise DataError("unmodelable word: zero mixture probability in E-step")
    doc_lls = np.add.reduceat(counts * np.log(denom), starts)
    weighted *= counts / denom
    return weighted, np.add.reduceat(weighted, starts, axis=1).T, doc_lls


def topic_major_m_step(corpus, topics, mixes, weighted, doc_counts, smoothing_floor, eta=1.0):
    """Reference M-step of ``topic_major_e_step``'s ``weighted``. Returns (topics, mixes).

    With ``eta``, topics are proportional to p(w|z) S^eta and mixes to p(z|d) F^eta,
    S and F the plain update's multiplicative factors, powered without rescaling.
    """
    _, word_idx, _ = corpus.flat()
    starts, _ = corpus.segments()
    k = weighted.shape[0]
    topic_mass = np.empty((k, corpus.n_terms))
    for z in range(k):
        topic_mass[z] = np.bincount(word_idx, weights=weighted[z], minlength=corpus.n_terms)
    mix_mass = np.add.reduceat(weighted, starts, axis=1)
    if eta != 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            topic_mass = topics * np.where(topics > 0.0, topic_mass / topics, 0.0) ** eta
            mix_mass = mixes.T * np.where(mixes.T > 0.0, mix_mass / mixes.T, 0.0) ** eta
    topic_mass[topic_mass.sum(axis=1) == 0.0] = 1.0
    mix_mass /= mix_mass.sum(axis=0)
    return _floor_rows(topic_mass, smoothing_floor), mix_mass.T


def desk_corpus(seed, n_docs=60):
    profile = dict(PROFILES["desk"], n_docs=n_docs)
    return generate_corpus(SynthConfig(seed=seed, **profile))[0]


class TestTopicMajorEquivalence:
    """Trainers on the kernel against the same trainers on the topic-major reference."""

    @staticmethod
    def both(monkeypatch, train):
        fast = train()
        for module in (plsa,):
            monkeypatch.setattr(module, "_e_step", topic_major_e_step)
            monkeypatch.setattr(module, "_m_step", topic_major_m_step)
        return fast, train()

    @pytest.mark.parametrize("k", [1, 4, 10])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_train_plsa(self, monkeypatch, seed, k):
        corpus = desk_corpus(seed)
        (topics, mixes, trace), (ref_topics, ref_mixes, ref_trace) = self.both(
            monkeypatch, lambda: train_plsa(corpus, k, EmConfig(seed=seed))
        )
        assert len(trace) == len(ref_trace) > 1
        np.testing.assert_allclose([r.loglik for r in trace], [r.loglik for r in ref_trace],
                                   rtol=1e-12)
        np.testing.assert_allclose(topics, ref_topics, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(mixes, ref_mixes, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_train_parameter_free(self, monkeypatch, seed):
        corpus = desk_corpus(seed)

        def train():
            return autostop.train_parameter_free(corpus, EmConfig(seed=seed), patience=9,
                                                 max_spawns=8)

        (topics, _, trace), (ref_topics, _, ref_trace) = self.both(monkeypatch, train)
        assert [(r.k, r.phase) for r in trace] == [(r.k, r.phase) for r in ref_trace]
        np.testing.assert_allclose([r.loglik for r in trace], [r.loglik for r in ref_trace],
                                   rtol=1e-12)
        np.testing.assert_allclose([r.epsilon or 0.0 for r in trace],
                                   [r.epsilon or 0.0 for r in ref_trace], rtol=1e-12)
        np.testing.assert_allclose(topics, ref_topics, rtol=1e-9, atol=1e-12)


class TestEmSteps:
    """The one EM loop: its start row, fixed-K dead topics, and pruning under a spawn phase."""

    @staticmethod
    def instance(k=3):
        corpus, topics, mixes = random_instance(np.random.default_rng(5), n_docs=6, n_terms=8,
                                                k=k)
        return corpus, topics, mixes, EmConfig(seed=0)

    def test_row_zero_is_the_e_step_of_the_inputs(self):
        corpus, topics, mixes, config = self.instance()
        out_topics, out_mixes, row = next(em_steps(corpus, topics, mixes, config))
        assert out_topics is topics and out_mixes is mixes
        loglik = float(_e_step(corpus, topics, mixes)[2].sum())
        assert row == TraceRow(iteration=0, k=3, loglik=loglik)

    def test_fixed_k_keeps_a_dead_topic_and_resets_it_to_uniform(self, caplog):
        corpus, topics, _, config = self.instance(k=2)
        mixes = np.zeros((corpus.n_docs, 2))
        mixes[:, 0] = 1.0
        with caplog.at_level(logging.WARNING, logger="topicgrow.plsa"):
            new_topics, new_mixes, row = next(islice(em_steps(corpus, topics, mixes, config), 1,
                                                     None))
        assert row.k == new_topics.shape[0] == new_mixes.shape[1] == 2
        np.testing.assert_allclose(new_topics[1], 1.0 / corpus.n_terms)
        assert [r.getMessage() for r in caplog.records] == [
            "m_step: 1 topic(s) received zero mass, reset to uniform"
        ]

    def test_a_phase_that_starves_a_topic_prunes_it(self, caplog):
        corpus, topics, mixes, config = self.instance(k=3)
        seen = []

        def starve_topic_1(topics, mixes, doc_lls, fitted):
            fitted[:] = np.arange(corpus.n_docs) % 3 + 1
            post = mixes.copy()
            post[:, 1] = 0.0
            post /= post.sum(axis=1, keepdims=True)
            seen.append((fitted, post))
            return topics, post, (), {}

        with caplog.at_level(logging.INFO, logger="topicgrow.plsa"):
            new_topics, new_mixes, row = next(islice(
                em_steps(corpus, topics, mixes, config, starve_topic_1), 1, None))
        (fitted, post), = seen
        assert row.k == new_topics.shape[0] == new_mixes.shape[1] == 2
        alive = [0, 2]
        # Dropping a topic no document weighs leaves every likelihood as it was.
        assert _e_step(corpus, topics[alive], post[:, alive])[2].sum() == pytest.approx(
            _e_step(corpus, topics, post)[2].sum(), rel=1e-14)
        ref_topics, ref_mixes, ref_row = next(islice(
            em_steps(corpus, topics[alive], post[:, alive], config), 1, None))
        # The same step as fixed-K EM from the pruned state, up to the E-step's round-off.
        np.testing.assert_allclose(new_topics, ref_topics, rtol=1e-12)
        np.testing.assert_allclose(new_mixes, ref_mixes, rtol=1e-12)
        assert row.loglik == pytest.approx(ref_row.loglik, rel=1e-14)
        np.testing.assert_array_equal(fitted, np.array([1, 1, 2] * 2))  # fitted k=2 -> 1, 3 -> 2
        assert "pruning 1 dead topic(s)" in [r.getMessage() for r in caplog.records]


class TestRunToPlateau:
    """The one plateau loop on scripted rows: (topics, mixes, row) with row 0 the start."""

    @staticmethod
    def scripted(lls, spawned=(), produced=None):
        """Rows 0, 1, ... with the given log-likelihoods; the ones in ``spawned`` spawned a topic."""
        for it, ll in enumerate(lls):
            if produced is not None:
                produced.append(it)
            row = TraceRow(iteration=it, k=1, loglik=ll, spawned=(it,) if it in spawned else ())
            yield f"topics{it}", f"mixes{it}", row

    def test_a_spawning_row_never_ends_the_run(self):
        lls = [-100.0, -50.0, -50.0, -50.0, -50.0, -50.0]
        trace = []
        topics, mixes, row = run_to_plateau(self.scripted(lls, spawned={2, 3}),
                                            EmConfig(seed=0), trace)
        # Rows 2 and 3 have plateaued but spawned; row 4 is the first plateau without a spawn.
        assert (topics, mixes, row.iteration, row.stop) == ("topics4", "mixes4", 4, "plateau")
        assert [r.iteration for r in trace] == [1, 2, 3, 4]
        assert [r.stop for r in trace] == ["", "", "", "plateau"]
        _, _, row = run_to_plateau(self.scripted(lls), EmConfig(seed=0))
        assert (row.iteration, row.stop) == (2, "plateau")

    def test_rows_number_on_from_the_trace(self):
        trace = [TraceRow(iteration=7, k=3, phase="rollback")]
        run_to_plateau(self.scripted([-9.0, -5.0, -4.0, -4.0]), EmConfig(seed=0), trace,
                       phase="refine")
        assert [(r.iteration, r.phase) for r in trace] == [
            (7, "rollback"), (8, "refine"), (9, "refine"), (10, "refine")]

    def test_max_iters_caps_the_run(self):
        produced, trace = [], []
        lls = [-1000.0 / (it + 1) for it in range(50)]  # rising by far more than rel_tol
        _, _, row = run_to_plateau(self.scripted(lls, produced=produced),
                                   EmConfig(seed=0, max_iters=5), trace)
        assert row.iteration == 5 and len(trace) == 5 and row.stop == "max_iters"
        assert produced == [0, 1, 2, 3, 4, 5]  # no row past the cap is drawn

    @pytest.mark.parametrize("max_iters, stop", [(2, "max_iters"), (3, "plateau")])
    def test_a_plateau_on_the_last_allowed_row_is_a_plateau(self, max_iters, stop):
        _, _, row = run_to_plateau(self.scripted([-9.0, -5.0, -4.0, -4.0]),
                                   EmConfig(seed=0, max_iters=max_iters))
        assert (row.iteration, row.stop) == (max_iters, stop)

    def test_no_trace_records_nothing(self):
        rows = list(self.scripted([-9.0, -5.0, -4.0, -4.0]))
        topics, mixes, row = run_to_plateau(iter(rows), EmConfig(seed=0), phase="refine")
        assert (topics, mixes, row) == rows[3]
        # Without a trace the rows keep their own numbers and phase.
        assert [(r.iteration, r.phase) for _, _, r in rows] == [(it, "") for it in range(4)]


def parent_em_refine(corpus, topics, mixes, config, trace=None, start_iter=1, phase=""):
    """Fixed-K EM as its own loop, as it was before ``em_steps``: the oracle of ``em_refine``."""
    ratio, doc_counts, _ = _e_step(corpus, topics, mixes)
    prev_ll = None
    for it in range(config.max_iters):
        topics, mixes = _m_step(corpus, topics, mixes, ratio, doc_counts, config.smoothing_floor)
        ratio, doc_counts, doc_lls = _e_step(corpus, topics, mixes)
        ll = float(doc_lls.sum())
        if trace is not None:
            trace.append(TraceRow(iteration=start_iter + it, k=topics.shape[0], loglik=ll,
                                  phase=phase))
        if prev_ll is not None and _plateaued(ll, prev_ll, config.rel_tol):
            break
        prev_ll = ll
    return topics, mixes, ll


def parent_grow(corpus, config, max_topics, spawn_phase):
    """The growth loop as it was before ``em_steps``: the oracle of ``nplsa.grow``."""
    rng = np.random.default_rng(config.seed)
    topics = _floor_rows(init_topics(1, corpus.n_terms, rng), config.smoothing_floor)
    mixes = np.ones((corpus.n_docs, 1))
    self_lls = np.array([nplsa.doc_self_loglik(doc) for doc in corpus.docs])
    fitted = np.ones(corpus.n_docs, dtype=np.int64)
    ratio, doc_counts, doc_lls = _e_step(corpus, topics, mixes)
    yield topics, mixes, TraceRow(iteration=0, k=1, loglik=float(doc_lls.sum()))
    for it in count(1):
        topics, post_mixes, spawned, fields = spawn_phase(topics, mixes, doc_lls, self_lls, fitted)
        if post_mixes is None:
            post_mixes = mixes
        else:
            ratio, doc_counts, _ = _e_step(corpus, topics, post_mixes)
        alive = doc_counts.any(axis=0)
        if not alive.all():
            topics, post_mixes = topics[alive], post_mixes[:, alive]
            doc_counts = doc_counts[:, alive]
            fitted[:] = np.cumsum(alive)[fitted - 1]
        topics, mixes = _m_step(corpus, topics, post_mixes, ratio, doc_counts,
                                config.smoothing_floor)
        ratio, doc_counts, doc_lls = _e_step(corpus, topics, mixes)
        yield topics, mixes, TraceRow(iteration=it, k=topics.shape[0],
                                      loglik=float(doc_lls.sum()), spawned=tuple(spawned),
                                      **fields)


def top_term(corpus):
    return corpus.vocab.terms[int(np.argmax(pooled_counts(corpus)))]


class TestOneLoopEquivalence:
    """Every trainer on ``em_steps`` against the same trainer on the two loops it replaced."""

    TRAINERS = {
        **{f"plsa-k{k}": (lambda c, cfg, k=k: train_plsa(c, k, cfg)) for k in (1, 4, 10)},
        **{f"nplsa-e{eps:g}-o{order}": (lambda c, cfg, eps=eps, order=order:
                                          nplsa.train_nplsa(c, eps, cfg, order_seed=order))
           for eps in (150.0, 40.0) for order in (None, 7)},
        "auto": lambda c, cfg: autostop.train_parameter_free(c, cfg),
        "query": lambda c, cfg: autostop.train_weakly_supervised(c, [top_term(c)], cfg),
    }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", list(TRAINERS))
    def test_bit_identical_to_the_two_loops(self, monkeypatch, name, seed):
        corpus = desk_corpus(seed)
        train = self.TRAINERS[name]
        if not name.startswith("nplsa"):  # the old loops had no over-relaxed fixed-K step
            monkeypatch.setattr(plsa, "_ETA_CAP", 1.0)
        topics, mixes, trace = train(corpus, EmConfig(seed=seed))
        def refine(corpus, topics, mixes, config, trace=None, phase=""):
            start_iter = trace[-1].iteration + 1 if trace else 1
            return parent_em_refine(corpus, topics, mixes, config, trace, start_iter, phase)

        for module in (plsa, autostop):
            monkeypatch.setattr(module, "em_refine", refine)
        for module in (nplsa, autostop):
            monkeypatch.setattr(module, "grow", parent_grow)
        ref_topics, ref_mixes, ref_trace = train(corpus, EmConfig(seed=seed))
        assert np.array_equal(topics, ref_topics)
        assert np.array_equal(mixes, ref_mixes)
        assert [replace(r, wall_ms=None) for r in trace] == [
            replace(r, wall_ms=None) for r in ref_trace]


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pruning_growth_run_matches_the_growth_loop(self, seed):
        """A phase that spawns a topic each iteration and, from K=2 on, starves the oldest one."""
        corpus = desk_corpus(seed)

        def run(grow):
            seen = []

            def phase(topics, mixes, doc_lls, self_lls, fitted):
                seen.append(fitted.copy())
                d, k = int(np.argmax(self_lls - doc_lls)), topics.shape[0]
                topics = nplsa.spawn(corpus, topics, d, 100, "")
                post = nplsa.warm_start(mixes, k + 1)[1]
                if k > 1:  # at K=1 the spawned topic, zero off document d's words, is all left
                    post[:, 0] = 0.0
                post /= post.sum(axis=1, keepdims=True)
                fitted[d] = topics.shape[0]
                return topics, post, (d,), {"phase": "grow"}

            rows = list(islice(grow(corpus, EmConfig(seed=seed), 100, phase), 6))
            return rows, seen

        (rows, seen), (ref_rows, ref_seen) = run(nplsa.grow), run(parent_grow)
        assert [r.k for _, _, r in rows] == [1, 2, 2, 2, 2, 2]  # from K=2, one pruned a step
        for (topics, mixes, row), (ref_topics, ref_mixes, ref_row) in zip(rows, ref_rows):
            assert np.array_equal(topics, ref_topics) and np.array_equal(mixes, ref_mixes)
            assert replace(row, wall_ms=None) == ref_row
        assert all(np.array_equal(a, b) for a, b in zip(seen, ref_seen, strict=True))


class TestOverRelaxation:
    """Fixed-K EM's over-relaxed M-step and its fall-back to the plain step."""

    @staticmethod
    def aggressive(monkeypatch):
        """Constants that overshoot often, so that steps get rejected."""
        monkeypatch.setattr(plsa, "_ETA_GROWTH", 3.0)
        monkeypatch.setattr(plsa, "_ETA_CAP", 30.0)

    def test_eta_one_is_the_plain_m_step(self):
        corpus, topics, mixes = random_instance(np.random.default_rng(3), n_docs=6, n_terms=8)
        ratio, doc_counts, _ = _e_step(corpus, topics, mixes)
        plain = _m_step(corpus, topics, mixes, ratio, doc_counts, 1e-9)
        for got, want in zip(_m_step(corpus, topics, mixes, ratio, doc_counts, 1e-9, eta=1.0),
                             plain):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("eta", [1.5, 3.0])
    def test_relaxed_m_step_matches_the_topic_major_formula(self, eta):
        corpus, topics, mixes = random_instance(np.random.default_rng(4), n_docs=6, n_terms=8)
        mixes[0, 1] = 0.0  # a zero weight stays zero
        mixes /= mixes.sum(axis=1, keepdims=True)
        ratio, doc_counts, _ = _e_step(corpus, topics, mixes)
        weighted, ref_counts, _ = topic_major_e_step(corpus, topics, mixes)
        got = _m_step(corpus, topics, mixes, ratio, doc_counts, 1e-9, eta)
        want = topic_major_m_step(corpus, topics, mixes, weighted, ref_counts, 1e-9, eta)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
        assert got[1][0, 1] == 0.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_rejected_step_is_the_plain_step_from_the_kept_state(self, monkeypatch, seed):
        self.aggressive(monkeypatch)
        corpus = desk_corpus(seed)
        rng = np.random.default_rng(seed)
        topics, mixes = init_topics(6, corpus.n_terms, rng), np.full((corpus.n_docs, 6), 1 / 6)
        config = EmConfig(seed=seed)
        states = list(islice(em_steps(corpus, topics, mixes, config), 40))
        rows = [row for _, _, row in states]
        assert sum(r.rejected for r in rows) >= 2
        for (prev_t, prev_m, prev_row), (t, m, row) in zip(states, states[1:]):
            assert row.eta == (1.0 if prev_row.rejected or prev_row.iteration == 0
                               else min(prev_row.eta * 3.0, 30.0))
            if row.rejected:
                ratio, doc_counts, _ = _e_step(corpus, prev_t, prev_m)
                plain_t, plain_m = _m_step(corpus, prev_t, prev_m, ratio, doc_counts,
                                           config.smoothing_floor)
                assert np.array_equal(t, plain_t) and np.array_equal(m, plain_m)
                assert row.loglik == float(_e_step(corpus, plain_t, plain_m)[2].sum())

    def test_loglik_never_decreases(self, monkeypatch):
        self.aggressive(monkeypatch)
        rng = np.random.default_rng(23)
        rejected = 0
        for _ in range(12):
            corpus, topics, mixes = random_instance(rng, n_docs=8, n_terms=12, k=4)
            rows = [r for _, _, r in islice(em_steps(corpus, topics, mixes, EmConfig(seed=0)), 30)]
            lls = [r.loglik for r in rows]
            # Plain EM steps are monotone up to round-off; rejected tries never show.
            assert all(cur >= prev - 1e-12 * abs(prev) for prev, cur in zip(lls, lls[1:]))
            rejected += sum(r.rejected for r in rows)
        assert rejected > 0

    def test_a_failed_relaxed_e_step_falls_back(self, monkeypatch):
        corpus, topics, mixes = random_instance(np.random.default_rng(8), n_docs=6, n_terms=8)
        config = EmConfig(seed=0)
        with monkeypatch.context() as plain_em:
            plain_em.setattr(plsa, "_ETA_CAP", 1.0)
            plain = list(islice(em_steps(corpus, topics, mixes, config), 4))
        m_step = plsa._m_step

        def unmodelable(*args):
            new_topics, new_mixes = m_step(*args)
            if len(args) > 6 and args[6] != 1.0:
                new_topics = np.zeros_like(new_topics)  # every word has probability 0
            return new_topics, new_mixes

        monkeypatch.setattr(plsa, "_m_step", unmodelable)
        rows = list(islice(em_steps(corpus, topics, mixes, config), 4))
        assert [r.rejected for _, _, r in rows] == [False, False, True, False]
        for (t, m, row), (ref_t, ref_m, ref_row) in zip(rows, plain):
            assert row.loglik == ref_row.loglik
            assert np.array_equal(t, ref_t) and np.array_equal(m, ref_m)

    def test_growth_runs_keep_the_plain_step(self):
        corpus = desk_corpus(1)
        _, _, trace = nplsa.train_nplsa(corpus, 150.0, EmConfig(seed=1))
        _, _, auto_trace = autostop.train_parameter_free(corpus, EmConfig(seed=1))
        grow_rows = trace + [r for r in auto_trace if r.phase == "grow"]
        assert grow_rows and all(r.eta == 1.0 and not r.rejected for r in grow_rows)
        assert any(r.eta > 1.0 for r in auto_trace if r.phase == "refine")

    def test_fewer_e_steps_than_plain_em(self, monkeypatch):
        calls = []
        e_step = plsa._e_step
        monkeypatch.setattr(plsa, "_e_step", lambda *a: calls.append(1) or e_step(*a))
        runs = [(desk_corpus(seed), k, EmConfig(seed=seed)) for seed in (1, 2, 3) for k in (4, 10)]
        for corpus, k, config in runs:
            train_plsa(corpus, k, config)
        monkeypatch.setattr(plsa, "em_refine", parent_em_refine)
        # parent_em_refine runs one E-step before its loop and one per trace row.
        plain = sum(1 + len(train_plsa(corpus, k, config)[2]) for corpus, k, config in runs)
        assert len(calls) < plain


class TestRollback:
    def test_rollback_row_reuses_the_snapshot_row_loglik(self, monkeypatch):
        corpus = desk_corpus(1)
        calls = []
        e_step = plsa._e_step
        monkeypatch.setattr(plsa, "_e_step", lambda *a: calls.append(1) or e_step(*a))
        refine_starts = []
        refine = autostop.em_refine
        monkeypatch.setattr(autostop, "em_refine", lambda corpus, topics, mixes, *a, **kw:
                            refine_starts.append((topics.copy(), mixes.copy()))
                            or refine(corpus, topics, mixes, *a, **kw))
        _, _, trace = autostop.train_parameter_free(corpus, EmConfig(seed=1))
        phases = [r.phase for r in trace]
        n_grow, n_refine = phases.count("grow"), phases.count("refine")
        assert phases.count("rollback") == 1 and n_grow > 0 and n_refine > 0
        # The growth start, E-steps after the spawn and after the M-step per grow
        # row, em_refine's start plus one per refine row and one more per rejected
        # over-relaxed try: none for the rollback.
        n_rejected = sum(r.rejected for r in trace)
        assert len(calls) == 1 + 2 * n_grow + (n_refine + 1) + n_rejected
        monkeypatch.undo()
        rollback = trace[phases.index("rollback")]
        grown = trace[:phases.index("rollback")]
        best = max(grown, key=lambda r: r.diversity)  # the first of equal scores
        assert (rollback.k, rollback.diversity, rollback.loglik) == (
            best.k, best.diversity, best.loglik)
        [start] = refine_starts
        assert start[0].shape[0] == rollback.k
        assert rollback.loglik == log_likelihood(corpus, *start)


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

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_probability_raises(self, bad):
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 1), (1, "b", 2)])
        topics = np.array([[0.5, 0.5], [0.2, 0.8]])
        topics[1, 0] = bad
        with pytest.raises(DataError, match="unmodelable"):
            log_likelihood(corpus, topics, np.full((2, 2), 0.5))


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
        mix, ll = fold_in(doc, topics)
        assert mix[0] == pytest.approx(1.0, abs=1e-9)
        assert ll == pytest.approx(0.0, abs=1e-9)

    def test_single_topic(self):
        topics = np.array([[0.25, 0.75]])
        doc = (np.array([0, 1]), np.array([1, 2]))
        mix, ll = fold_in(doc, topics)
        np.testing.assert_array_equal(mix, [1.0])
        assert ll == pytest.approx(math.log(0.25) + 2 * math.log(0.75), abs=1e-12)

    def test_beats_uniform_mix(self):
        rng = np.random.default_rng(23)
        topics = rng.dirichlet(np.ones(6), size=3)
        doc = (np.array([0, 2, 5]), np.array([4, 1, 2]))
        mix, ll = fold_in(doc, topics)
        uniform_ll = float(
            np.dot(doc[1], np.log(np.full(3, 1.0 / 3.0) @ topics[:, doc[0]]))
        )
        assert ll >= uniform_ll - 1e-12

    def test_inner_loop_monotone(self):
        rng = np.random.default_rng(29)
        topics = rng.dirichlet(np.ones(8), size=4)
        doc = (np.array([1, 3, 4, 6]), np.array([2, 5, 1, 3]))
        history = []
        per_document_fold_in(doc, topics, ll_history=history)
        for prev, cur in zip(history, history[1:]):
            assert cur >= prev - 1e-8 * abs(prev)

    @pytest.mark.parametrize("budget", [1, 50])
    def test_batch_unmodelable_word_raises(self, budget):
        corpus = ingest_sparse([(0, "a", 1), (0, "b", 1), (1, "a", 2)])
        topics = np.array([[1.0, 0.0]])
        with pytest.raises(DataError, match="unmodelable"):
            fold_in_all(corpus, topics, passes=budget)

    def test_batch_matches_per_doc(self):
        corpus, topics = sparse_topic_instance()
        cap, passes = 30, []
        for d in range(corpus.n_docs):
            history = []
            per_document_fold_in(corpus.docs[d], topics, ll_history=history, passes=cap)
            passes.append(len(history))
        assert min(passes) <= 7  # one document plateaus early
        assert max(passes) == cap + 1  # one is stopped by the cap
        warm = np.random.default_rng(5).dirichlet(np.ones(4), size=corpus.n_docs)
        for init in (None, warm):  # None is the uniform start
            mixes, lls = fold_in_all(corpus, topics, init_mixes=init, passes=cap)
            for d in range(corpus.n_docs):
                mix, ll = per_document_fold_in(
                    corpus.docs[d], topics, init_mix=None if init is None else init[d], passes=cap
                )
                np.testing.assert_allclose(mixes[d], mix, rtol=1e-12, atol=1e-12)
                assert lls[d] == pytest.approx(ll, rel=1e-12)

    @pytest.mark.parametrize("warm", [False, True], ids=["uniform", "warm"])
    def test_zero_passes_return_the_start(self, warm):
        corpus, topics = sparse_topic_instance()
        start = np.full((corpus.n_docs, 4), 0.25)
        if warm:
            start = np.random.default_rng(8).dirichlet(np.ones(4), size=corpus.n_docs)
        mixes, lls = fold_in_all(corpus, topics, init_mixes=start if warm else None, passes=0)
        np.testing.assert_array_equal(mixes, start)
        for d, (ids, counts) in enumerate(corpus.docs):
            assert lls[d] == pytest.approx(np.dot(counts, np.log(start[d] @ topics[:, ids])),
                                           rel=1e-12)

    def test_the_default_budget_is_fold_in_passes(self):
        # Two near-identical topics: neither document plateaus within 90 passes.
        corpus = ingest_sparse([(0, "a", 3), (0, "b", 2), (1, "a", 5), (1, "b", 1)])
        topics = np.array([[0.6, 0.4], [0.5, 0.5]])
        assert plsa.FOLD_IN_PASSES == 50
        mixes, lls = fold_in_all(corpus, topics)
        longer_lls = fold_in_all(corpus, topics, passes=2 * plsa.FOLD_IN_PASSES)[1]
        assert np.all(longer_lls > lls)  # the default stopped every document at its cap
        for d in range(corpus.n_docs):
            history = []
            per_document_fold_in(corpus.docs[d], topics, ll_history=history,
                                 passes=2 * plsa.FOLD_IN_PASSES)
            assert len(history) > plsa.FOLD_IN_PASSES + 1
            mix, ll = per_document_fold_in(corpus.docs[d], topics, passes=plsa.FOLD_IN_PASSES)
            np.testing.assert_allclose(mixes[d], mix, rtol=1e-12, atol=1e-12)
            assert lls[d] == pytest.approx(ll, rel=1e-12)
            np.testing.assert_allclose(fold_in(corpus.docs[d], topics)[0], mix, rtol=1e-12,
                                       atol=1e-12)

    @pytest.mark.parametrize("budget", [2**6, plsa._BLOCK_ENTRIES])
    def test_is_the_batch_kernel_on_one_document(self, monkeypatch, budget):
        # At 2^6 entries, fold_in_docs cuts blocks of 16 cells: the 48-word document is longer.
        corpus, topics = mixed_length_instance(k=4)
        assert corpus.segments()[1].max() > 2**6 // 4
        monkeypatch.setattr(plsa, "_BLOCK_ENTRIES", budget)
        warm = np.random.default_rng(3).dirichlet(np.ones(4), size=corpus.n_docs)
        for init in (None, warm):  # None is the uniform start
            starts = np.full((corpus.n_docs, 4), 0.25) if init is None else init
            for d in range(corpus.n_docs):
                mixes, lls = fold_in_docs(corpus, np.array([d]), topics, starts[[d]])
                mix, ll = fold_in(corpus.docs[d], topics,
                                  init_mix=None if init is None else init[d])
                assert np.array_equal(mix, mixes[0])
                assert ll == lls[0]


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


def reference_fold_in_block(words, cnt, table, lens, init_mixes, passes):
    """``plsa._fold_in_block`` with its straightforward bookkeeping: whole-block masks every pass."""
    rows = np.take(table, words, axis=0)
    mix = init_mixes.copy()
    out_mixes = np.empty_like(mix)
    out_lls = np.empty(lens.size)
    active = np.arange(lens.size)  # block positions of the working rows
    done = np.zeros(lens.size, dtype=bool)  # plateaued, result written, not yet dropped
    prev_lls = None
    for it in range(passes + 1):
        probs = (rows @ mix[:, :, None])[:, :, 0]
        if np.any(probs <= 0.0):
            raise DataError("unmodelable word: zero mixture probability in fold-in")
        lls = np.einsum("nl,nl->n", cnt, np.log(probs))
        new = np.full(done.size, it == passes)
        if prev_lls is not None:
            new |= plsa._plateaued(lls, prev_lls, plsa._FOLD_IN_TOL)
        new &= ~done
        out_mixes[active[new]] = mix[new]
        out_lls[active[new]] = lls[new]
        done |= new
        if done.all():
            return out_mixes, out_lls
        mix *= ((cnt / probs)[:, None, :] @ rows)[:, 0, :]
        mix /= mix.sum(axis=1, keepdims=True)
        prev_lls = lls
        if done.sum() >= plsa._DROP_SHARE * done.size:  # converged documents leave the block
            keep = np.flatnonzero(~done)
            width = lens[active[keep]].max()
            rows, cnt = rows[keep, :width], cnt[keep, :width]
            active, mix, prev_lls, done = active[keep], mix[keep], prev_lls[keep], done[keep]


class TestFoldInDocs:
    """The padded-block batch kernel against the per-document reference fold-in."""

    def test_each_document_matches_fold_in(self):
        corpus, topics = sparse_topic_instance()
        cap, passes = 30, []
        for d in range(corpus.n_docs):
            history = []
            per_document_fold_in(corpus.docs[d], topics, ll_history=history, passes=cap)
            passes.append(len(history))
        docs = np.array([6, 1, 4, 0, 7, 3])  # a subset, out of corpus order
        assert len({passes[d] for d in docs}) == docs.size
        assert passes[1] == cap + 1  # doc 1 stops at the cap
        init = np.random.default_rng(3).dirichlet(np.ones(4), size=docs.size)
        mixes, lls = fold_in_docs(corpus, docs, topics, init, passes=cap)
        for i, d in enumerate(docs):
            mix, ll = per_document_fold_in(corpus.docs[d], topics, init_mix=init[i], passes=cap)
            np.testing.assert_allclose(mixes[i], mix, rtol=1e-12, atol=1e-12)
            assert lls[i] == pytest.approx(ll, rel=1e-12)

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_a_budget_below_every_plateau_stops_each_document_at_it(self, cap):
        corpus, topics = sparse_topic_instance()  # every document plateaus after 7+ passes
        docs = np.array([5, 2, 7, 0])
        init = np.random.default_rng(9).dirichlet(np.ones(4), size=docs.size)
        mixes, lls = fold_in_docs(corpus, docs, topics, init, passes=cap)
        for i, d in enumerate(docs):
            history = []
            mix, ll = per_document_fold_in(corpus.docs[d], topics, init_mix=init[i],
                                           ll_history=history, passes=cap)
            assert len(history) == cap + 1
            np.testing.assert_allclose(mixes[i], mix, rtol=1e-12, atol=1e-12)
            assert lls[i] == pytest.approx(ll, rel=1e-12)
        longer = fold_in_docs(corpus, docs, topics, init, passes=cap + 1)[1]
        assert np.all(longer > lls)

    def test_blocks_match_fold_in(self, monkeypatch):
        corpus, topics = mixed_length_instance(k=4)
        docs = np.array([3, 0, 9, 6, 1, 13, 3, 7, 11, 2, 5, 12])  # out of order, 3 twice
        init = np.random.default_rng(4).dirichlet(np.ones(4), size=docs.size)
        expected, passes = [], []
        for i, d in enumerate(docs):
            history = []
            expected.append(per_document_fold_in(corpus.docs[d], topics, init[i], history, 30))
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
            results[budget] = fold_in_docs(corpus, docs, topics, init, passes=30)
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
        mixes, lls = fold_in_docs(corpus, docs, topics, np.ones((5, 1)))
        np.testing.assert_array_equal(mixes, 1.0)
        for i, d in enumerate(docs):
            expected = per_document_fold_in(corpus.docs[d], topics)[1]
            assert lls[i] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("instance", [lambda: mixed_length_instance(k=4), sparse_topic_instance],
                             ids=["mixed_length", "sparse_topic"])
    @pytest.mark.parametrize("budget", [2**6, 2**10, 2**17])
    def test_bit_identical_to_the_reference_kernel(self, monkeypatch, instance, budget):
        # 2^6: many blocks; 2^17: one block. The instances cover the batch drop
        # (test_blocks_match_fold_in) and the cap (test_batch_matches_per_doc).
        corpus, topics = instance()
        docs = np.concatenate([np.arange(corpus.n_docs)[::-1], [3, 0]])
        init = np.random.default_rng(6).dirichlet(np.ones(topics.shape[0]), size=docs.size)
        monkeypatch.setattr(plsa, "_BLOCK_ENTRIES", budget)
        mixes, lls = fold_in_docs(corpus, docs, topics, init, passes=30)
        monkeypatch.setattr(plsa, "_fold_in_block", reference_fold_in_block)
        ref_mixes, ref_lls = fold_in_docs(corpus, docs, topics, init, passes=30)
        assert np.array_equal(mixes, ref_mixes)
        assert np.array_equal(lls, ref_lls)

    def test_zero_probability_word_raises(self):
        # The bad word "z" is the whole of the shortest document, padded in one
        # block with the longer ones.
        corpus = ingest_sparse(
            [(0, "a", 1), (0, "b", 2), (0, "c", 1), (1, "a", 2), (1, "c", 1), (2, "z", 1)]
        )
        topics = np.array([[0.5, 0.3, 0.2, 0.0], [0.2, 0.2, 0.6, 0.0]])
        init = np.full((3, 2), 0.5)
        with pytest.raises(DataError, match="unmodelable"):
            fold_in_docs(corpus, np.array([2, 0, 1]), topics, init)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(DataError, match="seed must be non-negative"):
            EmConfig(seed=-1)

    def test_smoothing_floor_above_its_cap_raises(self):
        with pytest.raises(DataError, match=r"smoothing_floor must lie in \[0, 1e-3\]"):
            EmConfig(seed=0, smoothing_floor=2e-3)

    @pytest.mark.parametrize("field", ["seed", "max_iters"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, np.float64(3.0), None])
    def test_an_integer_field_that_holds_no_integer_raises(self, field, value):
        with pytest.raises(DataError, match=f"^{field} must be an integer, not "):
            EmConfig(**{"seed": 0, field: value})

    def test_numpy_integers_are_accepted(self):
        config = EmConfig(seed=np.uint32(3), max_iters=np.int64(5))
        assert (config.seed, config.max_iters) == (3, 5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-6])
    def test_tolerance_must_be_finite_and_positive(self, value):
        with pytest.raises(DataError, match="^rel_tol must be finite and > 0"):
            EmConfig(seed=0, rel_tol=value)
