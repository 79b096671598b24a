"""PLSA extended with a per-document goodness-of-fit test that grows the topic set.

Each document is scored by its deficit: the gap between the log-likelihood
under its own unsmoothed language model (``doc_self_loglik``, the best any
model can do) and the best mixture fit achievable with the current topics.
When the deficit exceeds a threshold ``epsilon``, the document's language model
is promoted to a new topic. A run therefore explores increasing numbers of
topics within a single EM execution while monotonically improving the
penalized objective ``log-likelihood - epsilon * K``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .corpus import doc_language_model
from .errors import AlgorithmError, DataError
from .plsa import (
    EmConfig,
    TraceRow,
    _e_step,
    _floor_rows,
    _m_step,
    fold_in_docs,
)

logger = logging.getLogger(__name__)

# Warm-start blend for fold-in restarts: mostly the previous mix, plus enough
# uniform mass that newly appended topics are reachable (multiplicative EM
# updates never revive an exactly-zero weight).
_WARM_KEEP = 0.9


@dataclass
class NplsaState:
    """Model state of a growth run.

    ``mixes`` is dense ``(D, K)``: document d's mix is zero past its first
    ``fitted_counts[d]`` topics, the number of topics that existed when it was
    last visited. ``epsilon`` is the spawn threshold in nats.
    """

    topics: np.ndarray
    mixes: np.ndarray
    fitted_counts: np.ndarray
    epsilon: float

    @property
    def k(self):
        return self.topics.shape[0]


@dataclass(frozen=True)
class PenalizedObjective:
    loglik: float
    k: int
    epsilon: float
    value: float


def doc_self_loglik(doc):
    """Log-likelihood of a document under its own unsmoothed MLE model."""
    _, counts = doc
    counts = np.asarray(counts, dtype=np.float64)
    return float(np.dot(counts, np.log(counts / counts.sum())))


def _best_fits(corpus, docs, topics, mixes, old_lls, config):
    """Fold documents in, but never fall below their previous fit.

    ``old_lls`` are the documents' log-likelihoods under ``mixes``. The fold-in
    warm start blends in uniform mass so new topics are reachable; when it stops
    short of the optimum it can land below the old (zero-padded) mix, which would
    break the monotonicity of the penalized objective. Taking whichever of the
    two fits is better restores the guarantee while still letting new topics be
    adopted. Returns (mixes (len(docs), K), lls (len(docs),)).
    """
    k = topics.shape[0]
    old = np.zeros((docs.size, k))
    old[:, : mixes.shape[1]] = mixes[docs]
    warm = _WARM_KEEP * old + (1.0 - _WARM_KEEP) / k
    fit_mixes, fit_lls = fold_in_docs(corpus, docs, topics, config, warm)
    use_old = old_lls[docs] > fit_lls
    return np.where(use_old[:, None], old, fit_mixes), np.where(use_old, old_lls[docs], fit_lls)


def train_nplsa(corpus, epsilon, config, max_topics=1000, order_seed=None):
    """Grow topics during EM with spawn threshold ``epsilon``.

    Starts from one random topic. Each sweep visits the documents in corpus
    order (or in a fixed permutation drawn from ``order_seed``); per document
    it computes the deficit ``doc_self_loglik`` minus the fold-in fit and either
    promotes the document's language model to a new topic, keeps its mix (if it
    has already been fitted against all current topics), or takes its fold-in
    fit. A spawn only appends a topic, so unvisited documents are folded in
    batches and those after a spawn are re-folded. One E-step and M-step over
    the final topics then re-estimate all parameters.

    Each sweep starts from the E-step of the current parameters, run once
    before the first sweep and after every M-step. Its per-document
    log-likelihoods are the previous sweep's traced log-likelihood and let a
    document already within epsilon skip its fold-in; unless the sweep spawned
    or refitted a document, its posterior also feeds the M-step. The run stops
    once a full sweep spawns nothing and the log-likelihood has plateaued.
    Returns (NplsaState, trace).
    """
    if not 0 < epsilon < np.inf:  # also rejects NaN
        raise DataError("epsilon must be finite and > 0")
    d_count = corpus.n_docs
    rng = np.random.default_rng(config.seed)
    topics = _floor_rows(rng.dirichlet(np.ones(corpus.n_terms), size=1), config.smoothing_floor)
    mixes = np.ones((d_count, 1))
    fitted = np.ones(d_count, dtype=np.int64)
    self_lls = np.array([doc_self_loglik(corpus.docs[d]) for d in range(d_count)])
    weighted, doc_lls = _e_step(corpus, topics, mixes)

    order = np.arange(d_count)
    if order_seed is not None:
        order = np.random.default_rng(order_seed).permutation(d_count)

    trace = []
    prev_ll = None
    for sweep in range(1, config.max_iters + 1):
        t0 = time.perf_counter()
        spawned = []
        # Row d is the mix whose E-step gives document d's posterior this sweep:
        # its old mix, unless it is refitted or spawns a topic. Without either,
        # ``weighted`` already is that E-step.
        post_mixes = mixes.copy()
        refit = fitted.min() < topics.shape[0]
        pending = order
        step = d_count  # batch size: doubled after a batch without a spawn, else 2x its gap
        while pending.size:
            k = topics.shape[0]
            head = pending[:step]
            # A document already fitted against every topic and within epsilon under its
            # old mix can neither spawn nor change its posterior mix: it needs no fold-in.
            stale = fitted[head] < k
            fold = stale | (self_lls[head] - doc_lls[head] > epsilon)
            deficits = np.zeros(head.size)
            if fold.any():
                docs = head[fold]
                fits, best = _best_fits(corpus, docs, topics, mixes, doc_lls, config)
                deficits[fold] = self_lls[docs] - best
                post_mixes[docs[stale[fold]]] = fits[stale[fold]]
            over = np.flatnonzero(deficits > epsilon)
            n_ok = over[0] if over.size else head.size
            fitted[head[:n_ok]] = k
            if not over.size:
                pending, step = pending[head.size :], 2 * step
                continue
            if k + 1 > max_topics:
                raise AlgorithmError(
                    f"topic explosion: more than {max_topics} topics; "
                    f"raise epsilon (currently {epsilon}) or the topic cap"
                )
            d = pending[n_ok]
            topics = np.vstack([topics, doc_language_model(corpus, d)])
            post_mixes = np.hstack([post_mixes, np.zeros((d_count, 1))])
            post_mixes[d] = np.eye(1, k + 1, k)
            fitted[d] = k + 1
            spawned.append(int(d))
            pending, step = pending[n_ok + 1 :], 2 * (n_ok + 1)

        if spawned or refit:
            del weighted  # free it before the next E-step allocates its own
            weighted, _ = _e_step(corpus, topics, post_mixes)
        alive = weighted.any(axis=1)
        if not alive.all():
            # A topic without mass has zero posterior weight in every document:
            # dropping it leaves every likelihood unchanged and lowers the penalty.
            logger.info("pruning %d dead topic(s)", int((~alive).sum()))
            weighted = weighted[alive]
            fitted = np.cumsum(alive)[fitted - 1]
        topics, mixes = _m_step(corpus, weighted, config.smoothing_floor)
        del weighted
        weighted, doc_lls = _e_step(corpus, topics, mixes)
        ll = float(doc_lls.sum())
        k = topics.shape[0]
        trace.append(
            TraceRow(
                iteration=sweep,
                k=k,
                loglik=ll,
                objective=ll - epsilon * k,
                epsilon=epsilon,
                wall_ms=(time.perf_counter() - t0) * 1000.0,
                spawned=tuple(spawned),
            )
        )
        if (
            not spawned
            and prev_ll is not None
            and abs(ll - prev_ll) <= config.rel_tol * (abs(prev_ll) + 1e-12)
        ):
            break
        prev_ll = ll

    state = NplsaState(topics=topics, mixes=mixes, fitted_counts=fitted, epsilon=epsilon)
    return state, trace


def penalized_objective(state, corpus, config=None):
    """Evaluate log-likelihood minus epsilon times the topic count.

    Documents last fitted against fewer topics than currently exist are
    refreshed by fold-in (without mutating the state) so the likelihood
    reflects the full topic set.
    """
    if config is None:
        config = EmConfig(seed=0)
    lls = _e_step(corpus, state.topics, state.mixes)[1]
    stale = np.flatnonzero(state.fitted_counts < state.k)
    if stale.size:
        lls[stale] = _best_fits(corpus, stale, state.topics, state.mixes, lls, config)[1]
    ll = float(lls.sum())
    return PenalizedObjective(
        loglik=ll, k=state.k, epsilon=state.epsilon, value=ll - state.epsilon * state.k
    )
