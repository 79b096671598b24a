"""Evaluation metrics: topic quality/coverage error, PMI coherence, perplexity.

PMI reads co-document frequencies of a reference corpus only for the pairs
within each topic's top words, named by the reference's own ``Vocabulary``:
``CooccurrenceStats.count_pairs`` counts them from the corpus's flat arrays
into a (topic, word, word) array, never enumerating or storing all pairs, and
``pmi_coherence`` scores that array.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import DataError
from .corpus import Corpus
from .plsa import _e_step, fold_in_docs

logger = logging.getLogger(__name__)

_PAIR_BLOCK_CELLS = 1 << 16  # (document, top word) cells per block of ``count_pairs``
DEFAULT_SPLIT_FRACTION = 0.8  # default share of a held-out document that perplexity folds in
DEFAULT_TOP_N = 20  # default number of a topic's top-ranked words that PMI scores


class CooccurrenceStats:
    """Document and co-document frequencies of a reference corpus.

    ``vocab`` is the reference's ``Vocabulary``, and ``df[i]`` counts the
    documents that contain its term i. Co-document frequencies are counted on
    demand, only for the pairs asked for: ``count_pairs`` returns them as a
    (group, word, word) array and keeps none. Probabilities are estimated as
    frequency / n_docs.
    """

    def __init__(self, vocab, n_docs, doc_idx, word_idx):
        """The reference's vocabulary and document count, and its flat
        (document, term) entries, each pair at most once, sorted by document."""
        self.vocab = vocab
        self.n_docs = int(n_docs)
        self._doc_idx, self._word_idx = doc_idx, word_idx
        self.df = np.bincount(word_idx, minlength=len(vocab))
        self.co_df = {}  # always empty; perfbench's metrics.cooc_pairs reads its size

    @classmethod
    def from_corpus(cls, corpus):
        doc_idx, word_idx, _ = corpus.flat()
        return cls(corpus.vocab, corpus.n_docs, doc_idx, word_idx)

    def count_pairs(self, groups):
        """Count the documents holding both terms of each pair within each group.

        ``groups`` is a (G, W) int array, each row of distinct term ids, -1
        for a word the reference lacks. Returns the (G, W, W) array of counts,
        0 where either word is -1. The 0/1 incidence matrix X of documents by
        the groups' terms is built in blocks of documents, and each group's
        counts are ``X.T @ X`` over its own columns, so memory grows with the
        groups' sizes, not with the corpus. The counts are sums of 0/1
        products, so they are exact.
        """
        union = np.unique(groups[groups >= 0])
        m = union.size
        col = np.full(len(self.vocab), m)  # column m collects the terms outside the groups
        col[union] = np.arange(m)
        pick = np.where(groups >= 0, col[groups], m + 1)  # column m + 1 stays 0
        counts = np.zeros(pick.shape + pick.shape[-1:])
        step = max(1, _PAIR_BLOCK_CELLS // pick.size)
        firsts = np.arange(0, self.n_docs, step)
        bounds = np.append(np.searchsorted(self._doc_idx, firsts), self._doc_idx.size)
        for d0, e0, e1 in zip(firsts, bounds[:-1], bounds[1:]):
            x = np.zeros((step, m + 2))
            x[self._doc_idx[e0:e1] - d0, col[self._word_idx[e0:e1]]] = 1.0
            xg = x[:, pick].transpose(1, 0, 2)  # (group, document, word)
            counts += xg.transpose(0, 2, 1) @ xg
        return counts


def _check_same_vocab(learned, truth):
    learned = np.asarray(learned, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if learned.ndim != 2 or truth.ndim != 2 or learned.shape[1] != truth.shape[1]:
        raise DataError(
            "vocabulary mismatch: learned and truth topics must share one term indexing"
        )
    return learned, truth


def l2_distances(a, b):
    """The (len(a), len(b)) L2 distances between rows, one row of ``a`` at a time."""
    return np.array([np.sqrt(np.square(b - row).sum(axis=1)) for row in a])


def topic_quality_error(learned, truth):
    """Mean distance of each learned topic to its nearest ground-truth topic."""
    learned, truth = _check_same_vocab(learned, truth)
    return float(l2_distances(learned, truth).min(axis=1).mean())


def topic_coverage_error(learned, truth):
    """Mean distance of each ground-truth topic to its nearest learned topic."""
    learned, truth = _check_same_vocab(learned, truth)
    return float(l2_distances(truth, learned).min(axis=1).mean())


def top_words(topic_row, n):
    """Ids of the n most probable words, ties broken toward lower ids."""
    return np.argsort(-np.asarray(topic_row), kind="stable")[:n]


def pmi_coherence(topics, vocab, stats, top_n=DEFAULT_TOP_N):
    """Mean PMI over the pairs of each topic's ``top_n`` top words, averaged over topics.

    Word probabilities come from the reference-corpus document frequencies.
    The top words' co-document counts come from one ``stats.count_pairs``
    call, -1 standing for a word the reference lacks. Pairs that never
    co-occur contribute the additively smoothed ratio (co-df of 0.5), and a
    top word missing from the stats is treated as having df 0.5, so the score
    stays finite. A topic none of whose top words the reference holds, whose
    pairs would all score log(2 n_docs), is left out of the mean. Each topic's
    pair terms are summed one by one, in ``itertools.combinations`` order. A
    model of fewer than two terms has no pairs to score and raises
    ``DataError``, as do a ``top_n`` below 2 and a reference that holds no top
    word of any topic.
    """
    if top_n < 2:
        raise DataError("top_n must be >= 2")
    topics = np.asarray(topics, dtype=float)
    if topics.shape[1] < 2:
        raise DataError(
            f"PMI needs at least 2 ranked words per topic; the model has {topics.shape[1]} term(s)"
        )
    ranked = np.array([[stats.vocab.index.get(vocab.terms[w], -1)
                        for w in top_words(row, top_n)] for row in topics])
    present = (ranked >= 0) & (stats.df[ranked] > 0)
    if not present.any():
        raise DataError("PMI: no document of the reference corpus holds a top word of the model")
    a, b = np.triu_indices(ranked.shape[1], 1)
    co = stats.count_pairs(ranked)[:, a, b]
    df = np.where(present, stats.df[ranked], 0.5)
    ratios = np.where(co > 0, co, 0.5) * stats.n_docs / (df[:, a] * df[:, b])
    logs = np.array([[math.log(r) for r in row] for row in ratios.tolist()])
    # cumsum adds left to right, as the pair loop did; a pairwise sum changes the last bits
    return float(np.mean(logs.cumsum(axis=1)[present.any(axis=1), -1] / logs.shape[1]))


def perplexity(held_out, topics, seed, split_fraction=DEFAULT_SPLIT_FRACTION):
    """Held-out perplexity of the unseen portion of each document.

    Each document's tokens are shuffled with ``seed`` and split at
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
    if seed < 0:
        raise DataError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    halves = []  # each evaluable document's seen and unseen tokens
    for ids, counts in held_out.docs:
        tokens = np.repeat(ids, counts)
        if tokens.size < 2:
            continue
        n1 = min(max(int(split_fraction * tokens.size), 1), tokens.size - 1)
        halves.append(np.split(rng.permutation(tokens), [n1]))
    skipped = held_out.n_docs - len(halves)
    if skipped:
        logger.warning("perplexity: skipped %d document(s) shorter than 2 tokens", skipped)
    if not halves:
        raise DataError("no evaluable documents for perplexity")
    seen, unseen = (_token_corpus(held_out.vocab, rows) for rows in zip(*halves))
    k = topics.shape[0]
    mixes, _ = fold_in_docs(seen, np.arange(seen.n_docs), topics,
                            np.full((seen.n_docs, k), 1.0 / k))
    try:
        lls = _e_step(unseen, topics, mixes)[2]
    except DataError:
        raise DataError("unmodelable word: zero predictive probability") from None
    return math.exp(-float(lls.sum()) / unseen.total_tokens)


def _token_corpus(vocab, rows):
    """The Corpus whose document i holds the tokens (term ids) of ``rows[i]``."""
    words, doc_idx = np.concatenate(rows), np.repeat(np.arange(len(rows)), [r.size for r in rows])
    return Corpus.from_entries(vocab, doc_idx, words, np.broadcast_to(1, words.size),
                               range(len(rows)))
