"""Parameter-free topic growth: farthest-first spawning with automatic stopping.

Instead of a fixed spawn threshold, each outer iteration promotes the single
worst-fitted document (largest likelihood-ratio deficit) to a new topic, so
the implicit threshold decays on its own. Growth stops when a chosen score
stops improving: either the mean pairwise distance between topics (which peaks
near the right topic count) or the distance between the topics and a
user-supplied exemplar query model. The run then rolls back to the best-scoring
snapshot and finishes with plain EM at that topic count.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .corpus import background_model, doc_language_model
from .errors import AlgorithmError, DataError
from .nplsa import _WARM_KEEP, doc_self_loglik
from .plsa import (
    TraceRow,
    _e_step,
    _floor_rows,
    _m_step,
    em_refine,
    fold_in_all,
    log_likelihood,
)

logger = logging.getLogger(__name__)


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


def estimate_query_model(corpus, query_terms, lam=0.5, max_iters=50):
    """Estimate a query language model by model-based pseudo feedback.

    The feedback set is every document containing at least one query term.
    Each feedback document is modeled as lam * theta_q + (1 - lam) * theta_C
    with theta_C the collection background model; theta_q starts from the
    pooled feedback MLE and is re-estimated by EM on the feedback tokens.
    EM steps whose objective gain is negligible are not applied, so as
    lam -> 0 (where the objective is flat in theta_q) the initializer is
    returned unchanged.
    """
    term_ids = set()
    for raw in query_terms:
        term = raw.strip().lower()
        if term in corpus.vocab.index:
            term_ids.add(corpus.vocab.index[term])
    feedback = [
        d
        for d in range(corpus.n_docs)
        if term_ids & set(corpus.docs[d][0].tolist())
    ]
    if not feedback:
        raise DataError(f"query not in corpus: no document matches {list(query_terms)!r}")

    pooled = np.zeros(corpus.n_terms)
    for d in feedback:
        ids, counts = corpus.docs[d]
        pooled[ids] += counts
    support = pooled > 0
    counts = pooled[support]
    theta_c = background_model(corpus)[support]

    theta_q = pooled / pooled.sum()
    cur = theta_q[support]
    obj = float(np.dot(counts, np.log(lam * cur + (1.0 - lam) * theta_c)))
    for _ in range(max_iters):
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
    return QueryModel(
        terms=[t.strip().lower() for t in query_terms],
        theta_q=theta_q,
        feedback_size=len(feedback),
    )


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


def _grow(corpus, config, detector, score_fn, max_topics, max_spawns):
    """Shared engine: spawn one topic per iteration until the detector fires.

    Each iteration folds every document against the current topics, promotes
    the document with the largest likelihood-ratio deficit, folds the rest in
    against the enlarged topic set, and runs one M-step. Both fold-ins are
    ``fold_in_all`` from a warm start: padded blocks of documents sorted
    longest first, each document stopping on its own plateau and converged
    ones leaving their block in batches, so a deficit is the one ``fold_in``
    would give up to round-off. After the detector
    fires (or the spawn budget runs out) the best snapshot is restored and
    refined with plain EM. Returns (topics, mixes, trace).
    """
    d_count = corpus.n_docs
    rng = np.random.default_rng(config.seed)
    topics = _floor_rows(rng.dirichlet(np.ones(corpus.n_terms), size=1), config.smoothing_floor)
    mixes = np.ones((d_count, 1))
    self_lls = np.array([doc_self_loglik(corpus.docs[d]) for d in range(d_count)])

    trace = []
    score, fields = score_fn(topics)
    trace.append(
        TraceRow(
            iteration=0,
            k=1,
            loglik=log_likelihood(corpus, topics, mixes),
            **fields,
        )
    )
    detector.update(1, score, snapshot=(topics.copy(), mixes.copy()))

    spawns = 0
    while not detector.fired:
        if max_spawns is not None and spawns >= max_spawns:
            logger.info("spawn budget exhausted at K=%d", topics.shape[0])
            break
        k = topics.shape[0]
        if k + 1 > max_topics:
            raise AlgorithmError(
                f"topic explosion: more than {max_topics} topics without a diversity peak"
            )
        t0 = time.perf_counter()

        init = _WARM_KEEP * mixes + (1.0 - _WARM_KEEP) / k
        fit_mixes, fit_lls = fold_in_all(corpus, topics, config, init_mixes=init)
        deltas = self_lls - fit_lls
        d_star = int(np.argmax(deltas))

        topics = np.vstack([topics, doc_language_model(corpus, d_star)])
        k += 1
        init = np.hstack([fit_mixes, np.zeros((d_count, 1))])
        init = _WARM_KEEP * init + (1.0 - _WARM_KEEP) / k
        new_mixes, _ = fold_in_all(corpus, topics, config, init_mixes=init)
        new_mixes[d_star] = 0.0
        new_mixes[d_star, k - 1] = 1.0
        topics, mixes = _m_step(
            corpus, _e_step(corpus, topics, new_mixes)[0], config.smoothing_floor
        )

        spawns += 1
        score, fields = score_fn(topics)
        trace.append(
            TraceRow(
                iteration=spawns,
                k=k,
                loglik=float(_e_step(corpus, topics, mixes)[1].sum()),
                epsilon=float(deltas[d_star]),
                wall_ms=(time.perf_counter() - t0) * 1000.0,
                mean_delta=float(deltas.mean()),
                phase="grow",
                **fields,
            )
        )
        detector.update(k, score, snapshot=(topics.copy(), mixes.copy()))

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


def train_parameter_free(corpus, config, detector=None, max_topics=1000, max_spawns=None):
    """Grow topics until inter-topic diversity stops improving.

    ``detector`` defaults to maximize-mode with patience 3; pass a configured
    StopDetector to change patience or to inspect the score history and the
    best snapshot afterwards. ``max_spawns`` optionally caps the number of
    growth iterations (useful for recording full score curves). Returns
    (topics, mixes, trace).
    """
    if detector is None:
        detector = StopDetector(mode="maximize", patience=3)
    return _grow(corpus, config, detector, _diversity_fields, max_topics, max_spawns)


def train_weakly_supervised(
    corpus,
    query_terms,
    config,
    lam=0.5,
    feedback_iters=50,
    detector=None,
    max_topics=1000,
    max_spawns=None,
):
    """Grow topics until the closest topic to the query model stops improving.

    The query model is estimated once by pseudo feedback; growth then follows
    the same farthest-first loop as train_parameter_free but stops when the
    minimum L2 distance between the query model and the topics reaches its
    minimum. Returns (topics, mixes, trace).
    """
    query = estimate_query_model(corpus, query_terms, lam=lam, max_iters=feedback_iters)
    if detector is None:
        detector = StopDetector(mode="minimize", patience=3)

    def score_fn(topics):
        dist, idx = query_distance(query.theta_q, topics)
        return dist, {"query_distance": dist, "closest_topic": idx}

    return _grow(corpus, config, detector, score_fn, max_topics, max_spawns)
