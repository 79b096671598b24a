"""Parameter-free topic growth: farthest-first spawning with automatic stopping.

Instead of a fixed spawn threshold, each outer iteration promotes the single
worst-fitted document (largest likelihood-ratio deficit) to a new topic, so
the implicit threshold decays on its own. The E-step bounds every deficit, so
finding that document fits only the few whose bound can still win; one fold-in
per spawn then refits the corpus. Growth stops when a chosen score
stops improving: either the mean pairwise distance between topics (which peaks
near the right topic count) or the distance between the topics and a
user-supplied exemplar query model, each iteration being one of
``nplsa.grow``'s. The run then rolls back to the best-scoring snapshot and
finishes with plain EM at that topic count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .corpus import background_model, pooled_counts
from .errors import DataError
from .nplsa import MAX_TOPICS, best_fits, grow, spawn, warm_start
from .plsa import TraceRow, em_refine, fold_in_all, log_likelihood

logger = logging.getLogger(__name__)

DEFAULT_LAM = 0.5  # default weight of the query model against the background in pseudo feedback
_FEEDBACK_ITERS = 50  # EM steps at most when estimating a query model by pseudo feedback


@dataclass
class QueryModel:
    """An exemplar topic estimated from a keyword query by pseudo feedback."""

    terms: list
    theta_q: np.ndarray
    feedback_size: int


def diversity(topics) -> float:
    """Mean pairwise L2 distance between topic rows: 2/(K(K-1)) * sum_{i<j} l2.

    Bounded by sqrt(2), the distance between disjoint distributions. Undefined
    for a single topic; trace writers report 0 at K=1 by convention.
    """
    k = topics.shape[0]
    if k < 2:
        raise DataError("diversity undefined for fewer than 2 topics")
    total = 0.0
    for i in range(k - 1):
        total += float(np.sqrt(((topics[i + 1 :] - topics[i]) ** 2).sum(axis=1)).sum())
    return total * 2.0 / (k * (k - 1))


def query_distance(theta_q, topics):
    """Distance from a query model to its closest topic: (min L2, argmin index)."""
    dists = np.sqrt(((topics - theta_q[None, :]) ** 2).sum(axis=1))
    idx = int(np.argmin(dists))
    return float(dists[idx]), idx


def estimate_query_model(corpus, query_terms, lam=DEFAULT_LAM):
    """Estimate a query language model by model-based pseudo feedback.

    The feedback set is every document containing at least one query term.
    Each feedback document is modeled as lam * theta_q + (1 - lam) * theta_C
    with theta_C the collection background model; theta_q starts from the
    pooled feedback MLE and is re-estimated by EM on the feedback tokens.
    EM steps whose objective gain is negligible are not applied, so as
    lam -> 0 (where the objective is flat in theta_q) the initializer is
    returned unchanged. ``lam`` must lie in [0, 1].
    """
    if not 0.0 <= lam <= 1.0:  # also rejects NaN
        raise DataError(f"lam must lie in [0, 1], got {lam}")
    terms = [raw.strip().lower() for raw in query_terms]
    term_ids = [corpus.vocab.index[t] for t in terms if t in corpus.vocab.index]
    doc_idx, word_idx, _ = corpus.flat()
    feedback = np.zeros(corpus.n_docs, dtype=bool)
    feedback[doc_idx[np.isin(word_idx, term_ids)]] = True
    if not feedback.any():
        raise DataError(f"query not in corpus: no document matches {list(query_terms)!r}")

    pooled = pooled_counts(corpus, feedback)
    support = pooled > 0
    counts = pooled[support]
    theta_c = background_model(corpus)[support]

    theta_q = pooled / pooled.sum()
    cur = theta_q[support]
    obj = float(np.dot(counts, np.log(lam * cur + (1.0 - lam) * theta_c)))
    for _ in range(_FEEDBACK_ITERS):
        mix = lam * cur + (1.0 - lam) * theta_c
        responsibility = lam * cur / mix
        mass = counts * responsibility
        total = mass.sum()
        if total <= 0.0:
            break
        cand = mass / total
        new_obj = float(np.dot(counts, np.log(lam * cand + (1.0 - lam) * theta_c)))
        if new_obj - obj <= 1e-9 * (abs(obj) + 1.0):
            break
        cur, obj = cand, new_obj
    theta_q = np.zeros(corpus.n_terms)
    theta_q[support] = cur
    return QueryModel(terms=terms, theta_q=theta_q, feedback_size=int(feedback.sum()))


class StopDetector:
    """Tracks a per-iteration score and fires after `patience` stalls.

    ``mode`` is "maximize" or "minimize". ``update`` records (k, score), keeps
    a snapshot of the best-scoring state, and returns True once the best score
    has not improved for ``patience`` consecutive updates.
    """

    def __init__(self, mode="maximize", patience=3):
        if mode not in ("maximize", "minimize"):
            raise DataError(f"unknown detector mode: {mode!r}")
        if patience < 1:
            raise DataError("patience must be >= 1")
        self.mode = mode
        self.patience = patience
        self.history = []
        self.best_k = None
        self.best_score = None
        self.best_snapshot = None
        self._stale = 0

    @property
    def fired(self):
        return self._stale >= self.patience

    def _improves(self, score):
        if self.best_score is None:
            return True
        if self.mode == "maximize":
            return score > self.best_score
        return score < self.best_score

    def update(self, k, score, snapshot=None):
        self.history.append((k, score))
        if self._improves(score):
            self.best_k = k
            self.best_score = score
            self.best_snapshot = snapshot
            self._stale = 0
        else:
            self._stale += 1
        return self.fired


def _grow(corpus, config, detector, score_fn, max_topics, max_spawns, advice):
    """Shared engine: ``nplsa.grow`` spawning one topic per iteration until the detector fires.

    The spawn phase promotes the document with the largest deficit, its self
    log-likelihood minus the better of its ``best_fits`` fold-in and its EM
    log-likelihood. The E-step deficit ``self_lls - doc_lls`` bounds it, so
    documents are fitted in decreasing bound order, in doubling batches, until
    no bound left can beat the best deficit: the spawn is the argmax over every
    document, ties to the lowest id. One ``fold_in_all`` from the EM mixes then
    fits every document to the enlarged topic set. A topic cap hit raises
    "topic explosion" ending in ``advice``. After the detector fires (or the
    spawn budget runs out) the best snapshot is restored and refined with
    plain EM. Returns (topics, mixes, trace).
    """
    if max_spawns is not None and max_spawns < 0:
        raise DataError("max_spawns must be >= 0")

    def farthest_first(topics, mixes, doc_lls, self_lls, fitted):
        k = topics.shape[0]
        bounds = self_lls - doc_lls
        order = np.argsort(-bounds, kind="stable")
        deficits = np.full(corpus.n_docs, -np.inf)  # -inf: not fitted, cannot win
        n, step = 0, 1
        while n < order.size and bounds[order[n]] >= deficits.max():
            docs = order[n : n + step]
            deficits[docs] = self_lls[docs] - best_fits(corpus, docs, topics, mixes, doc_lls,
                                                        config)[1]
            n, step = n + step, 2 * step
        d_star = int(np.argmax(deficits))
        topics = spawn(corpus, topics, d_star, max_topics, advice)
        new_mixes, _ = fold_in_all(corpus, topics, config, init_mixes=warm_start(mixes, k + 1)[1])
        new_mixes[d_star] = 0.0
        new_mixes[d_star, k] = 1.0
        return topics, new_mixes, (d_star,), {"epsilon": float(deficits[d_star]), "phase": "grow"}

    trace = []
    rows = grow(corpus, config, max_topics, farthest_first)
    for topics, mixes, row in islice(rows, None if max_spawns is None else max_spawns + 1):
        score, fields = score_fn(topics)
        trace.append(replace(row, **fields))
        if detector.update(row.k, score, snapshot=(topics.copy(), mixes.copy())):
            break
    else:
        logger.info("spawn budget exhausted at K=%d", topics.shape[0])
    spawns = trace[-1].iteration

    if detector.best_snapshot is not None:
        topics, mixes = detector.best_snapshot
        topics, mixes = topics.copy(), mixes.copy()
        logger.info(
            "rolled back to best K=%d (score %.6f)", detector.best_k, detector.best_score
        )
    score, fields = score_fn(topics)
    trace.append(
        TraceRow(
            iteration=spawns + 1,
            k=topics.shape[0],
            loglik=log_likelihood(corpus, topics, mixes),
            phase="rollback",
            **fields,
        )
    )
    topics, mixes, _ = em_refine(
        corpus, topics, mixes, config, trace=trace, start_iter=spawns + 2, phase="refine"
    )
    return topics, mixes, trace


def _diversity_fields(topics):
    value = diversity(topics) if topics.shape[0] >= 2 else 0.0
    return value, {"diversity": value}


def train_parameter_free(corpus, config, detector=None, max_topics=MAX_TOPICS, max_spawns=None):
    """Grow topics until inter-topic diversity stops improving.

    ``detector`` defaults to a maximize-mode StopDetector with its default
    patience; pass a configured one to change patience or to inspect the score
    history and the best snapshot afterwards. ``max_spawns`` optionally caps
    the number of growth iterations (useful for recording full score curves).
    Returns (topics, mixes, trace).
    """
    if detector is None:
        detector = StopDetector(mode="maximize")
    return _grow(corpus, config, detector, _diversity_fields, max_topics, max_spawns,
                 " without a diversity peak")


def train_weakly_supervised(
    corpus,
    query_terms,
    config,
    lam=DEFAULT_LAM,
    detector=None,
    max_topics=MAX_TOPICS,
    max_spawns=None,
):
    """Grow topics until the closest topic to the query model stops improving.

    The query model is estimated once by pseudo feedback; growth then follows
    the same farthest-first loop as train_parameter_free but stops when the
    minimum L2 distance between the query model and the topics reaches its
    minimum. ``detector`` defaults to a minimize-mode StopDetector with its
    default patience. Returns (topics, mixes, trace).
    """
    query = estimate_query_model(corpus, query_terms, lam=lam)
    if detector is None:
        detector = StopDetector(mode="minimize")

    def score_fn(topics):
        dist, idx = query_distance(query.theta_q, topics)
        return dist, {"query_distance": dist, "closest_topic": idx}

    return _grow(corpus, config, detector, score_fn, max_topics, max_spawns,
                 " without a query-distance minimum")
