import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from topicgrow import corpus as corpus_module
from topicgrow import synthgen
from topicgrow.corpus import Corpus
from topicgrow.errors import AlgorithmError, DataError
from topicgrow.synthgen import (
    PROFILES,
    SynthConfig,
    generate_corpus,
    sample_distinct_topics,
    stream_rng,
)


def desk_config(**overrides):
    params = dict(seed=11, n_docs=30, doc_len=80, n_topics=5, vocab_size=60)
    params.update(overrides)
    return SynthConfig(**params)


def reference_distinct_topics(config):
    """The candidate-by-candidate acceptance loop, kept as the reference."""
    rng = stream_rng(config.seed, 0)
    alpha = np.full(config.vocab_size, config.beta)
    accepted = []
    rejections = 0  # since the last accepted topic
    while len(accepted) < config.n_topics:
        batch = rng.dirichlet(alpha, size=synthgen._CANDIDATE_BATCH)
        for cand in batch:
            if len(accepted) == config.n_topics:
                break
            if accepted:
                dmin = np.sqrt(((np.asarray(accepted) - cand) ** 2).sum(axis=1)).min()
            else:
                dmin = np.inf
            if dmin > config.min_topic_dist:
                accepted.append(cand)
                rejections = 0
            else:
                rejections += 1
                if rejections == synthgen._MAX_REJECTIONS_PER_TOPIC:
                    raise AlgorithmError(f"unsatisfiable after {rejections} rejections")
    return np.asarray(accepted)


def reference_generate(config):
    """The per-document generator with one ``Generator.choice`` per topic, kept as the
    reference: returns (rows, doc_ids, topics, mixes, assignments)."""
    topics = reference_distinct_topics(config)
    k = config.n_topics
    mixes = np.empty((config.n_docs, k))
    rows, doc_ids, assignments = [], [], []
    id_width = len(str(config.n_docs - 1))
    for d in range(config.n_docs):
        rng = stream_rng(config.seed, d + 1)
        mix = rng.dirichlet(np.full(k, config.alpha))
        mixes[d] = mix
        z = rng.choice(k, size=config.doc_len, p=mix)
        w = np.empty(config.doc_len, dtype=np.int64)
        for t in range(k):
            sel = z == t
            n_t = int(sel.sum())
            if n_t:
                w[sel] = rng.choice(config.vocab_size, size=n_t, p=topics[t])
        counts = np.bincount(w, minlength=config.vocab_size)
        ids = np.nonzero(counts)[0]
        rows.append((ids, counts[ids]))
        doc_ids.append(f"d{d:0{id_width}d}")
        assignments.append((z.astype(np.int64), w))
    return rows, doc_ids, topics, mixes, assignments


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStreamRng:
    @pytest.mark.parametrize("seed, stream", [
        (0, 0), (1, 1), (5, 3), (2, 1201), (12345, 0), (2**63 + 7, 2**40), (2**64 - 1, 2**64 - 1),
    ])
    def test_draws_equal_philox_keyed_by_seed_and_stream(self, seed, stream):
        keyed = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
        rng = stream_rng(seed, stream)
        assert same_bytes(rng.dirichlet(np.full(7, 0.1)), keyed.dirichlet(np.full(7, 0.1)))
        assert same_bytes(rng.random(301), keyed.random(301))
        assert same_bytes(rng.integers(0, 2**32, 9, dtype=np.uint32),
                          keyed.integers(0, 2**32, 9, dtype=np.uint32))
        assert same_bytes(rng.standard_normal(5), keyed.standard_normal(5))

    def test_streams_do_not_share_state(self):
        a, b = stream_rng(3, 1), stream_rng(3, 1)
        first = a.random(4)
        assert same_bytes(b.random(4), first)
        assert not same_bytes(a.random(4), first)


class TestConfig:
    def test_rejects_bad_threshold(self):
        with pytest.raises(DataError):
            SynthConfig(seed=0, min_topic_dist=1.5)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DataError):
            SynthConfig(seed=0, alpha=0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_dirichlet_parameters_that_are_not_finite(self, field, value):
        with pytest.raises(DataError, match="Dirichlet parameters must be finite and > 0"):
            SynthConfig(seed=0, **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("seed", -1, "seed must be non-negative"),
        ("seed", 2**64, r"seed must be below 2\*\*64"),
        ("seed", 2**70 + 3, r"seed must be below 2\*\*64"),
        # the token arrays hold topic and term ids as int32
        ("n_topics", 2**31, r"n_topics and vocab_size must be below 2\*\*31"),
        ("vocab_size", 2**31, r"n_topics and vocab_size must be below 2\*\*31"),
        ("vocab_size", 2**40 + 1, r"n_topics and vocab_size must be below 2\*\*31"),
    ])
    def test_rejects_an_integer_its_type_cannot_hold(self, field, value, message):
        with pytest.raises(DataError, match=message):
            SynthConfig(**{"seed": 1, field: value})

    def test_accepts_the_largest_int32_sizes(self):
        config = SynthConfig(seed=1, n_topics=2**31 - 1, vocab_size=2**31 - 1)
        assert config.n_topics == config.vocab_size == 2**31 - 1

    @pytest.mark.parametrize("field", ["seed", "n_docs", "doc_len", "n_topics", "vocab_size"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, np.float64(3.0), "4"])
    def test_rejects_an_integer_field_that_holds_no_integer(self, field, value):
        with pytest.raises(DataError, match=f"^{field} must be an integer, not "):
            SynthConfig(**{"seed": 1, field: value})

    def test_accepts_numpy_integers(self):
        config = desk_config(seed=np.uint64(11), n_docs=np.int32(30), doc_len=np.int64(80))
        assert same_bytes(generate_corpus(config)[1].token_words,
                          generate_corpus(desk_config())[1].token_words)

    def test_accepts_the_largest_key_word(self):
        config = desk_config(seed=2**64 - 1)
        assert sample_distinct_topics(config).shape == (config.n_topics, config.vocab_size)


class TestDistinctTopics:
    def test_zero_threshold_accepts_first_draws(self):
        config = desk_config(min_topic_dist=0.0)
        topics = sample_distinct_topics(config)
        raw = stream_rng(config.seed, 0).dirichlet(
            np.full(config.vocab_size, config.beta), size=256
        )
        np.testing.assert_array_equal(topics, raw[: config.n_topics])

    def test_pairwise_distances_exceed_threshold(self):
        config = desk_config(min_topic_dist=0.5)
        topics = sample_distinct_topics(config)
        k = topics.shape[0]
        for i in range(k):
            for j in range(i + 1, k):
                assert np.linalg.norm(topics[i] - topics[j]) > 0.5

    def test_rows_are_distributions(self):
        config = desk_config(n_topics=10, vocab_size=500)
        topics = sample_distinct_topics(config)
        assert topics.shape == (10, 500)
        np.testing.assert_allclose(topics.sum(axis=1), 1.0, atol=1e-9)

    def test_unsatisfiable_threshold_raises(self):
        config = desk_config(n_topics=20, vocab_size=10, min_topic_dist=1.4)
        with pytest.raises(AlgorithmError, match="unsatisfiable"):
            sample_distinct_topics(config)

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            dict(n_topics=6, vocab_size=10, beta=1.0, min_topic_dist=0.6),  # 23 batches
            dict(n_topics=8, vocab_size=10, beta=0.5, min_topic_dist=0.8),  # 59 batches
            dict(seed=3, n_topics=20, vocab_size=1000, min_topic_dist=0.5),  # 9 batches
        ],
    )
    def test_same_acceptances_as_reference(self, overrides):
        config = desk_config(**overrides)
        assert same_bytes(sample_distinct_topics(config), reference_distinct_topics(config))

    def test_the_batch_size_does_not_change_the_topics(self, monkeypatch):
        # Paper seed 2 accepts its 20th topic at candidate 839: 27 batches of 32, 4 of 256.
        config = SynthConfig(seed=2)
        topics = []
        for batch in (1, 7, 32, 256):
            monkeypatch.setattr(synthgen, "_CANDIDATE_BATCH", batch)
            topics.append(sample_distinct_topics(config))
        assert all(same_bytes(other, topics[0]) for other in topics[1:])

    def test_budget_runs_out_where_the_reference_does(self, monkeypatch):
        monkeypatch.setattr(synthgen, "_MAX_REJECTIONS_PER_TOPIC", 30)
        config = desk_config(n_topics=10, vocab_size=10, beta=0.2, min_topic_dist=1.1)
        with pytest.raises(AlgorithmError) as expected:
            reference_distinct_topics(config)
        rejections = int(str(expected.value).split()[-2])
        assert rejections == 30  # in a row since the last accepted topic, not in total
        with pytest.raises(AlgorithmError, match=f"unsatisfiable: {rejections} rejections "):
            sample_distinct_topics(config)

    @pytest.mark.parametrize("budget", [45, 46])
    def test_budget_counts_rejections_since_the_last_accepted_topic(self, monkeypatch, budget):
        # 113 rejections in all, at most 45 in a row: a budget of 46 suffices, one of 45 does not.
        monkeypatch.setattr(synthgen, "_MAX_REJECTIONS_PER_TOPIC", budget)
        config = desk_config(seed=2, n_topics=8, vocab_size=10, beta=0.2, min_topic_dist=1.0)
        if budget == 45:
            with pytest.raises(AlgorithmError, match="unsatisfiable: 45 rejections for 8 topics"):
                sample_distinct_topics(config)
        else:
            assert same_bytes(sample_distinct_topics(config), reference_distinct_topics(config))


GENERATOR_CASES = [
    *(dict(seed=seed, **PROFILES["desk"]) for seed in (1, 2, 3)),
    *(dict(PROFILES["paper"], seed=seed, n_docs=200) for seed in (1, 1001)),
    dict(seed=4, n_docs=30, doc_len=80, n_topics=1, vocab_size=60),
    dict(seed=5, n_docs=30, doc_len=1, n_topics=5, vocab_size=60),
    dict(seed=6, n_docs=1, doc_len=80, n_topics=5, vocab_size=60),
    dict(seed=7, n_docs=30, doc_len=80, n_topics=5, vocab_size=60, alpha=1000.0),
]


def assert_matches_reference(config):
    corpus, truth = generate_corpus(config)
    rows, doc_ids, topics, mixes, assignments = reference_generate(config)
    assert corpus.doc_ids == doc_ids
    assert corpus.n_docs == len(rows)
    for (ids, counts), (ref_ids, ref_counts) in zip(corpus.docs, rows):
        assert same_bytes(ids, ref_ids) and same_bytes(counts, ref_counts)
    assert same_bytes(truth.topics, topics)
    assert same_bytes(truth.doc_mixes, mixes)
    assert truth.token_topics.shape == truth.token_words.shape == (config.n_docs, config.doc_len)
    assert truth.token_topics.dtype == truth.token_words.dtype == np.int32
    for z, w, (ref_z, ref_w) in zip(truth.token_topics, truth.token_words, assignments):
        assert same_bytes(z, ref_z.astype(np.int32)) and same_bytes(w, ref_w.astype(np.int32))


class TestGenerateCorpus:
    @pytest.mark.parametrize(
        "params", GENERATOR_CASES, ids=lambda p: ",".join(f"{k}={v}" for k, v in p.items())
    )
    def test_bit_identical_to_per_topic_choice(self, params):
        assert_matches_reference(SynthConfig(**params))

    @pytest.mark.parametrize("block_tokens", [1, 250, 1 << 30])
    def test_block_size_does_not_change_the_corpus(self, monkeypatch, block_tokens):
        # one document per block, blocks that split the corpus unevenly, one block
        monkeypatch.setattr(synthgen, "_BLOCK_TOKENS", block_tokens)
        assert_matches_reference(desk_config(seed=8, n_docs=23, doc_len=50))

    @pytest.mark.parametrize("merge_entries", [7, 120])  # one document per block, two
    @pytest.mark.parametrize("block_tokens", [1, 250, 1 << 30])
    def test_block_feed_equals_from_entries(self, monkeypatch, block_tokens, merge_entries):
        monkeypatch.setattr(synthgen, "_BLOCK_TOKENS", block_tokens)
        monkeypatch.setattr(corpus_module, "_MERGE_ENTRIES", merge_entries)
        config = desk_config(seed=8, n_docs=23, doc_len=50)
        corpus, truth = generate_corpus(config)
        doc_idx = np.repeat(np.arange(config.n_docs), config.doc_len)
        expected = Corpus.from_entries(corpus.vocab, doc_idx, truth.token_words.ravel(),
                                       np.broadcast_to(1, doc_idx.shape), corpus.doc_ids)
        assert corpus.doc_ids == expected.doc_ids and corpus.dropped_doc_ids == []
        for got, want in zip((corpus._word_idx, corpus._counts, *corpus.segments()),
                             (expected._word_idx, expected._counts, *expected.segments())):
            assert same_bytes(got, want)

    def test_memory_is_bounded_by_a_block_not_the_tokens(self):
        # 240,000 paper tokens: merging them all after the draws peaked at 7.90 MiB traced.
        # Merged as each block is drawn, the int32 token arrays (1.83 MiB) and the merged
        # corpus dominate.
        config = SynthConfig(seed=1, n_docs=1200)
        tracemalloc.start()
        try:
            generate_corpus(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20

    def test_row_counts_sum_to_doc_len(self):
        config = desk_config()
        corpus, _ = generate_corpus(config)
        for d in range(corpus.n_docs):
            assert corpus.docs[d][1].sum() == config.doc_len

    def test_seeded_determinism(self):
        config = desk_config()
        c1, t1 = generate_corpus(config)
        c2, t2 = generate_corpus(config)
        assert c1.vocab == c2.vocab
        for (i1, n1), (i2, n2) in zip(c1.docs, c2.docs):
            assert np.array_equal(i1, i2) and np.array_equal(n1, n2)
        assert np.array_equal(t1.topics, t2.topics)
        assert np.array_equal(t1.doc_mixes, t2.doc_mixes)

    def test_different_seeds_differ(self):
        c1, _ = generate_corpus(desk_config(seed=1))
        c2, _ = generate_corpus(desk_config(seed=2))
        assert any(
            not (np.array_equal(i1, i2) and np.array_equal(n1, n2))
            for (i1, n1), (i2, n2) in zip(c1.docs, c2.docs)
        )

    def test_assignments_reproduce_counts(self):
        config = desk_config()
        corpus, truth = generate_corpus(config)
        for d, (z, w) in enumerate(zip(truth.token_topics, truth.token_words)):
            counts = np.bincount(w, minlength=config.vocab_size)
            ids, row = corpus.docs[d]
            np.testing.assert_array_equal(counts[ids], row)
            assert counts.sum() == config.doc_len
            assert z.shape == w.shape == (config.doc_len,)

    def test_truth_simplexes(self):
        corpus, truth = generate_corpus(desk_config())
        np.testing.assert_allclose(truth.topics.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(truth.doc_mixes.sum(axis=1), 1.0, atol=1e-9)

    def test_flat_alpha_gives_near_uniform_topic_usage(self):
        # alpha -> infinity approximated by 1000: per-document topic frequencies
        # should pass a chi-square uniformity test on the retained assignments
        config = desk_config(seed=3, alpha=1000.0, doc_len=400, n_docs=20)
        _, truth = generate_corpus(config)
        k = config.n_topics
        crit = chi2.ppf(0.999, k - 1)
        for z in truth.token_topics:
            observed = np.bincount(z, minlength=k)
            expected = config.doc_len / k
            stat = ((observed - expected) ** 2 / expected).sum()
            assert stat < crit

    def test_aggregate_word_frequencies_match_mixture(self):
        # conditioned on the latent topic counts, word totals are sums of
        # multinomials; every word must land within 4 sigma of its expectation
        config = desk_config(seed=7, n_docs=60, doc_len=120)
        corpus, truth = generate_corpus(config)
        topic_use = np.zeros((corpus.n_docs, config.n_topics))
        for d, z in enumerate(truth.token_topics):
            topic_use[d] = np.bincount(z, minlength=config.n_topics)
        expected = topic_use.sum(axis=0) @ truth.topics
        variance = topic_use.sum(axis=0) @ (truth.topics * (1 - truth.topics))
        observed = np.zeros(config.vocab_size)
        for ids, counts in corpus.docs:
            observed[ids] += counts
        sigma = np.sqrt(variance)
        mask = sigma > 0
        np.testing.assert_array_less(
            np.abs(observed[mask] - expected[mask]), 4 * sigma[mask] + 1e-9
        )
