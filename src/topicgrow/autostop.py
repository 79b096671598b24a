"""Parameter-free topic growth: farthest-first spawning with automatic stopping.

Instead of a fixed spawn threshold, each outer iteration promotes the single
worst-fitted document (largest likelihood-ratio deficit) to a new topic, so
the implicit threshold decays on its own. The E-step bounds every deficit, so
finding that document fits only the few whose bound can still win; one fold-in
per spawn then refits the corpus. The refit only sets the start of one EM step,
and a partial E-step serves there (Neal & Hinton, 1998), so it stops most
documents after a few passes; only those taking up the new topic run on to
their plateau, since a new topic they leave half-adopted keeps its spawn
document's peaked profile and inflates the diversity score. Each iteration is
one of the EM loop ``plsa.em_steps`` and is scored by its trainer's stop rule,
which also fixes the direction that counts as better: ``train_parameter_free``
maximizes the mean pairwise distance between topics, which peaks near the
right topic count, and ``train_weakly_supervised`` minimizes the distance
between the topics and a user-supplied exemplar query model. Growth stops once
the best score has not improved for ``patience`` iterations in a row. The run
then rolls back to the best-scoring iteration and finishes with plain EM at
that topic count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .corpus import background_model, pooled_counts
from .errors import DataError
from .metrics import l2_distances
from .nplsa import MAX_TOPICS, best_fits, grow, spawn, warm_start
from .plsa import TraceRow, em_refine, fold_in_all, fold_in_docs

logger = logging.getLogger(__name__)

PATIENCE = 8  # default stalled growth iterations before the stop rule ends growth
DEFAULT_LAM = 0.5  # default weight of the query model against the background in pseudo feedback
_FEEDBACK_ITERS = 50  # EM steps at most when estimating a query model by pseudo feedback
_SPAWN_REFIT_PASSES = 10  # fold-in passes of the post-spawn refit, save for new-topic takers
_SPAWN_UPTAKE = 0.01  # new-topic weight past which a document's refit keeps the full budget


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
    total = sum(float(row[i + 1 :].sum()) for i, row in enumerate(l2_distances(topics, topics)))
    return total * 2.0 / (k * (k - 1))


def query_distance(theta_q, topics):
    """Distance from a query model to its closest topic: (min L2, argmin index)."""
    dists = l2_distances(theta_q[None, :], topics)[0]
    idx = int(np.argmin(dists))
    return float(dists[idx]), idx


def estimate_query_model(corpus, query_terms, lam=DEFAULT_LAM):
    """Estimate a query language model by model-based pseudo feedback.

    The feedback set is every document containing at least one query term; a
    term matches a corpus term as given, else in lowercase.
    Each feedback document is modeled as lam * theta_q + (1 - lam) * theta_C
    with theta_C the collection background model; theta_q starts from the
    pooled feedback MLE and is re-estimated by EM on the feedback tokens.
    EM steps whose objective gain is negligible are not applied, so as
    lam -> 0 (where the objective is flat in theta_q) the initializer is
    returned unchanged. ``lam`` must lie in [0, 1].
    """
    if not 0.0 <= lam <= 1.0:  # also rejects NaN
        raise DataError(f"lam must lie in [0, 1], got {lam}")
    terms = [t if t in corpus.vocab.index else t.lower() for t in map(str.strip, query_terms)]
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


def _grow(corpus, config, score_fn, patience, max_topics, max_spawns, advice):
    """Shared engine: ``nplsa.grow`` spawning one topic per iteration until the score stalls.

    The spawn phase promotes the document with the largest deficit, its self
    log-likelihood minus the better of its ``best_fits`` fold-in and its EM
    log-likelihood. The E-step deficit ``self_lls - doc_lls`` bounds it, so
    documents are fitted in decreasing bound order, in doubling batches, until
    no bound left can beat the best deficit: the spawn is the argmax over every
    document, ties to the lowest id. One ``fold_in_all`` from the EM mixes then
    refits every document to the enlarged topic set for at most the smaller of
    ``config.fold_in_max_iters`` and ``_SPAWN_REFIT_PASSES`` passes; a document
    then holding more than ``_SPAWN_UPTAKE`` of the new topic runs on from there
    with ``fold_in_docs`` for at most the rest of ``config.fold_in_max_iters``.
    The run-on starts a fresh plateau test, so each such document runs at least
    one more pass, even one that had already plateaued inside the capped
    refit; its mix is near, not equal to, that of a full-budget fold-in. The
    bounded search's fits keep the full budget. A topic cap hit raises "topic
    explosion" ending in ``advice``.

    ``score_fn(topics)`` returns (score, trace fields), a larger score being
    better; only a strictly larger one improves on the best. Once ``patience``
    rows in a row have not improved (or the spawn budget runs out) the best
    row's topics and mixes are restored, recorded with its score fields in a "rollback"
    row (``stop`` "patience" or "spawn budget"), and refined with plain EM. Returns
    (topics, mixes, trace).
    """
    if patience < 1:
        raise DataError("patience must be >= 1")
    if max_spawns is not None and max_spawns < 0:
        raise DataError("max_spawns must be >= 0")
    refit = min(config.fold_in_max_iters, _SPAWN_REFIT_PASSES)
    refit_config = replace(config, fold_in_max_iters=refit)
    rest = config.fold_in_max_iters - refit
    rest_config = replace(config, fold_in_max_iters=rest) if rest else None

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
        new_mixes, _ = fold_in_all(corpus, topics, refit_config,
                                   init_mixes=warm_start(mixes, k + 1)[1])
        takers = new_mixes[:, k] > _SPAWN_UPTAKE
        takers[d_star] = False
        if rest_config is not None and takers.any():
            docs = np.flatnonzero(takers)
            new_mixes[docs] = fold_in_docs(corpus, docs, topics, rest_config, new_mixes[docs])[0]
        new_mixes[d_star] = 0.0
        new_mixes[d_star, k] = 1.0
        return topics, new_mixes, (d_star,), {"epsilon": float(deficits[d_star]), "phase": "grow"}

    trace = []
    best, stalls = None, 0  # best: (score, fields, topics, mixes, row loglik)
    rows = grow(corpus, config, max_topics, farthest_first)
    for topics, mixes, row in islice(rows, None if max_spawns is None else max_spawns + 1):
        score, fields = score_fn(topics)
        trace.append(replace(row, **fields))
        if best is None or score > best[0]:
            # the rollback row reuses the score fields and the E-step loglik of these arrays
            best, stalls = (score, fields, topics.copy(), mixes.copy(), row.loglik), 0
        else:
            stalls += 1
            if stalls >= patience:
                stop = "patience"
                break
    else:
        stop = "spawn budget"
        logger.info("spawn budget exhausted at K=%d", topics.shape[0])
    _, fields, topics, mixes, best_ll = best
    logger.info("rolled back to best K=%d %s", topics.shape[0], fields)
    trace.append(TraceRow(iteration=trace[-1].iteration + 1, k=topics.shape[0], loglik=best_ll,
                          phase="rollback", stop=stop, **fields))
    topics, mixes, _ = em_refine(corpus, topics, mixes, config, trace=trace, phase="refine")
    return topics, mixes, trace


def _diversity_fields(topics):
    value = diversity(topics) if topics.shape[0] >= 2 else 0.0
    return value, {"diversity": value}


def train_parameter_free(corpus, config, patience=PATIENCE, max_topics=MAX_TOPICS,
                         max_spawns=None):
    """Grow topics until inter-topic diversity has not risen for ``patience`` iterations.

    The K of the highest diversity is kept; its trace "rollback" row records
    that K and diversity. ``max_spawns`` optionally caps the number of growth
    iterations (useful for recording full score curves). Returns (topics,
    mixes, trace).
    """
    return _grow(corpus, config, _diversity_fields, patience, max_topics, max_spawns,
                 " without a diversity peak")


def train_weakly_supervised(
    corpus,
    query_terms,
    config,
    lam=DEFAULT_LAM,
    patience=PATIENCE,
    max_topics=MAX_TOPICS,
    max_spawns=None,
):
    """Grow topics until the query distance has not fallen for ``patience`` iterations.

    The query model is estimated once by pseudo feedback; growth then follows
    the same farthest-first loop as train_parameter_free, scoring each
    iteration by the minimum L2 distance between the query model and the
    topics. The K of the smallest distance is kept; its trace "rollback" row
    records that K and distance. Returns (topics, mixes, trace).
    """
    query = estimate_query_model(corpus, query_terms, lam=lam)

    def score_fn(topics):
        dist, idx = query_distance(query.theta_q, topics)
        return -dist, {"query_distance": dist, "closest_topic": idx}

    return _grow(corpus, config, score_fn, patience, max_topics, max_spawns,
                 " without a query-distance minimum")
