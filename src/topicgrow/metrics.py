"""Evaluation metrics: topic quality/coverage error, PMI coherence, perplexity."""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .corpus import Corpus
from .plsa import _e_step, fold_in_docs

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PmiConfig:
    """Number of top-ranked words per topic entering the PMI average."""

    top_n: int = 20

    def __post_init__(self):
        if self.top_n < 2:
            raise DataError("top_n must be >= 2")


class CooccurrenceStats:
    """Document and co-document frequencies from a reference corpus.

    ``df[i]`` counts documents containing term i; ``co_df[(i, j)]`` (i < j)
    counts documents containing both. Probabilities are estimated as
    frequency / n_docs.
    """

    def __init__(self, terms, df, co_df, n_docs):
        self.terms = list(terms)
        self.index = {t: i for i, t in enumerate(self.terms)}
        self.df = np.asarray(df, dtype=np.int64)
        self.co_df = dict(co_df)
        self.n_docs = int(n_docs)
        if self.df.shape != (len(self.terms),):
            raise DataError("df length does not match terms")

    @classmethod
    def from_corpus(cls, corpus):
        df = np.zeros(corpus.n_terms, dtype=np.int64)
        co = Counter()
        for ids, _ in corpus.docs:
            df[ids] += 1
            co.update(itertools.combinations(ids.tolist(), 2))
        return cls(corpus.vocab.terms, df, co, corpus.n_docs)

    def co(self, i, j):
        if i > j:
            i, j = j, i
        return self.co_df.get((i, j), 0)


def _check_same_vocab(learned, truth):
    learned = np.asarray(learned, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if learned.ndim != 2 or truth.ndim != 2 or learned.shape[1] != truth.shape[1]:
        raise DataError(
            "vocabulary mismatch: learned and truth topics must share one term indexing"
        )
    return learned, truth


def _pairwise_l2(a, b):
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


def topic_quality_error(learned, truth):
    """Mean distance of each learned topic to its nearest ground-truth topic."""
    learned, truth = _check_same_vocab(learned, truth)
    return float(_pairwise_l2(learned, truth).min(axis=1).mean())


def topic_coverage_error(learned, truth):
    """Mean distance of each ground-truth topic to its nearest learned topic."""
    learned, truth = _check_same_vocab(learned, truth)
    return float(_pairwise_l2(truth, learned).min(axis=1).mean())


def top_words(topic_row, n):
    """Ids of the n most probable words, ties broken toward lower ids."""
    return np.argsort(-np.asarray(topic_row), kind="stable")[:n]


def pmi_coherence(topics, vocab, stats, cfg=PmiConfig()):
    """Mean pointwise mutual information over top-word pairs, averaged over topics.

    Word probabilities come from the reference-corpus document frequencies.
    Pairs that never co-occur contribute the additively smoothed ratio
    (co-df of 0.5), and a top word missing from the stats is treated as having
    df 0.5, so the score stays finite.
    """
    topics = np.asarray(topics, dtype=float)
    n = stats.n_docs
    per_topic = []
    for row in topics:
        ranked = top_words(row, cfg.top_n)
        sids = [stats.index.get(vocab.term_of(int(w))) for w in ranked]
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


def perplexity(held_out, topics, config, split_fraction=0.8):
    """Held-out perplexity of the unseen portion of each document.

    Each document's tokens are shuffled with the run seed and split at
    ``split_fraction``; the observed parts are folded in together against the
    frozen topics (``fold_in_docs``, uniform start) and each remainder is scored
    under its document's fitted mixture by the EM kernel's E-step. Documents
    shorter than two tokens are skipped. Returns
    exp(-sum_j log p(unseen_j) / sum_j |unseen_j|).
    """
    topics = np.asarray(topics, dtype=float)
    if held_out.n_terms != topics.shape[1]:
        raise DataError("vocabulary mismatch: held-out corpus does not match the topics")
    if not 0.0 < split_fraction < 1.0:
        raise DataError("split_fraction must lie in (0, 1)")
    rng = np.random.default_rng(config.seed)
    seen_rows, unseen_rows = [], []
    for ids, counts in held_out.docs:
        tokens = np.repeat(ids, counts)
        if tokens.size < 2:
            continue
        tokens = rng.permutation(tokens)
        n1 = min(max(int(split_fraction * tokens.size), 1), tokens.size - 1)
        seen_rows.append(np.unique(tokens[:n1], return_counts=True))
        unseen_rows.append(np.unique(tokens[n1:], return_counts=True))
    skipped = held_out.n_docs - len(seen_rows)
    if skipped:
        logger.warning("perplexity: skipped %d document(s) shorter than 2 tokens", skipped)
    if not seen_rows:
        raise DataError("no evaluable documents for perplexity")
    doc_ids = list(range(len(seen_rows)))
    seen = Corpus(held_out.vocab, seen_rows, doc_ids)
    unseen = Corpus(held_out.vocab, unseen_rows, doc_ids)
    k = topics.shape[0]
    mixes, _ = fold_in_docs(seen, np.arange(seen.n_docs), topics, config,
                            np.full((seen.n_docs, k), 1.0 / k))
    try:
        lls = _e_step(unseen, topics, mixes)[1]
    except DataError:
        raise DataError("unmodelable word: zero predictive probability") from None
    return math.exp(-float(lls.sum()) / unseen.total_tokens)
