"""PLSA extended with a per-document goodness-of-fit test that grows the topic set.

Each document is scored by its deficit: the gap between the log-likelihood
under its own unsmoothed language model (``doc_self_loglik``, the best any
model can do) and the best mixture fit achievable with the current topics.
When the deficit exceeds a threshold ``epsilon``, the document's language model
is promoted to a new topic. A run therefore explores increasing numbers of
topics within a single EM execution while monotonically improving the
penalized objective ``log-likelihood - epsilon * K``, which every trace row
records as ``objective``.

Every growth run, nPLSA's and ``autostop``'s farthest-first one, is
``plsa.em_steps``, the package's one EM loop, started by ``grow`` and given
its own spawn phase; both spawn through ``spawn``.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .corpus import doc_language_model
from .errors import AlgorithmError, DataError
from .plsa import _floor_rows, _plateaued, em_steps, fold_in_docs, init_topics

# Warm-start blend for fold-in restarts: mostly the previous mix, plus enough
# uniform mass that newly appended topics are reachable (multiplicative EM
# updates never revive an exactly-zero weight).
_WARM_KEEP = 0.9
MAX_TOPICS = 1000  # default cap on the number of topics of a growth run


def doc_self_loglik(doc):
    """Log-likelihood of a document under its own unsmoothed MLE model."""
    _, counts = doc
    counts = np.asarray(counts, dtype=np.float64)
    return float(np.dot(counts, np.log(counts / counts.sum())))


def warm_start(mixes, k):
    """Fold-in starts against k topics: (``mixes`` zero-padded to k columns, their blend).

    The blend is ``_WARM_KEEP * padded + (1 - _WARM_KEEP) / k``.
    """
    old = np.zeros((mixes.shape[0], k))
    old[:, : mixes.shape[1]] = mixes
    return old, _WARM_KEEP * old + (1.0 - _WARM_KEEP) / k


def best_fits(corpus, docs, topics, mixes, old_lls, config):
    """Fold documents in, but never fall below their previous fit.

    ``old_lls`` are the documents' log-likelihoods under ``mixes``. The fold-in
    warm start blends in uniform mass so new topics are reachable; when it stops
    short of the optimum it can land below the old (zero-padded) mix, which would
    break the monotonicity of the penalized objective. Taking whichever of the
    two fits is better restores the guarantee while still letting new topics be
    adopted. Both growth algorithms score deficits with it: nPLSA's sweep and
    farthest-first growth's bounded search, which relies on a returned ll never
    falling below ``old_lls``. Returns (mixes (len(docs), K), lls (len(docs),)).
    """
    old, warm = warm_start(mixes[docs], topics.shape[0])
    fit_mixes, fit_lls = fold_in_docs(corpus, docs, topics, config, warm)
    use_old = old_lls[docs] > fit_lls
    return np.where(use_old[:, None], old, fit_mixes), np.where(use_old, old_lls[docs], fit_lls)


def spawn(corpus, topics, d, max_topics, advice):
    """``topics`` with document d's language model appended as a new topic.

    Growing past ``max_topics`` topics raises AlgorithmError "topic explosion",
    the message ending in ``advice``.
    """
    if topics.shape[0] + 1 > max_topics:
        raise AlgorithmError(f"topic explosion: more than {max_topics} topics{advice}")
    return np.vstack([topics, doc_language_model(corpus, d)])


def grow(corpus, config, max_topics, spawn_phase):
    """A growth run: the EM loop ``plsa.em_steps`` from the growth start state.

    The start is one floored Dirichlet(1) topic drawn with ``config.seed``,
    every mix on it. ``em_steps`` calls the spawn phase with each document's
    ``doc_self_loglik`` added: ``spawn_phase(topics, mixes, doc_lls, self_lls,
    fitted)``.
    """
    if max_topics < 1:
        raise DataError("max_topics must be >= 1")
    rng = np.random.default_rng(config.seed)
    topics = _floor_rows(init_topics(1, corpus.n_terms, rng), config.smoothing_floor)
    self_lls = np.array([doc_self_loglik(doc) for doc in corpus.docs])

    def phase(topics, mixes, doc_lls, fitted):
        return spawn_phase(topics, mixes, doc_lls, self_lls, fitted)

    return em_steps(corpus, topics, np.ones((corpus.n_docs, 1)), config, phase)


def train_nplsa(corpus, epsilon, config, max_topics=MAX_TOPICS, order_seed=None):
    """Grow topics during EM with spawn threshold ``epsilon``: ``grow`` with a batched sweep.

    Starts from one random topic. Each sweep visits the documents in corpus
    order (or in a fixed permutation drawn from ``order_seed``); per document
    it computes the deficit ``doc_self_loglik`` minus the fold-in fit and either
    promotes the document's language model to a new topic, keeps its mix (if it
    has already been fitted against all current topics), or takes its fold-in
    fit. A spawn only appends a topic, so unvisited documents are folded in
    batches and those after a spawn are re-folded.

    Each sweep starts from the E-step of the current parameters. Its
    per-document log-likelihoods are the previous sweep's traced
    log-likelihood and let a document already within epsilon skip its
    fold-in; unless the sweep spawned or refitted a document, its expected
    counts also feed the M-step. The run stops once a full sweep spawns
    nothing and the log-likelihood has plateaued, or after
    ``config.max_iters`` sweeps. Returns (topics, mixes, trace); each trace
    row's ``objective`` is the penalized objective ``loglik - epsilon * K``.
    """
    if not 0 < epsilon < np.inf:  # also rejects NaN
        raise DataError("epsilon must be finite and > 0")
    if order_seed is not None and order_seed < 0:
        raise DataError("order_seed must be non-negative")
    d_count = corpus.n_docs
    order = np.arange(d_count)
    if order_seed is not None:
        order = np.random.default_rng(order_seed).permutation(d_count)
    advice = f"; raise epsilon (currently {epsilon}) or the topic cap"

    def sweep(topics, mixes, doc_lls, self_lls, fitted):
        spawned = []
        # Row d is the mix whose E-step gives document d's expected counts this
        # sweep: its old mix, unless it is refitted or spawns a topic. Without
        # either, the E-step in hand already is that E-step.
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
                fits, best = best_fits(corpus, docs, topics, mixes, doc_lls, config)
                deficits[fold] = self_lls[docs] - best
                post_mixes[docs[stale[fold]]] = fits[stale[fold]]
            over = np.flatnonzero(deficits > epsilon)
            n_ok = over[0] if over.size else head.size
            fitted[head[:n_ok]] = k
            if not over.size:
                pending, step = pending[head.size :], 2 * step
                continue
            d = pending[n_ok]
            topics = spawn(corpus, topics, d, max_topics, advice)
            post_mixes = np.hstack([post_mixes, np.zeros((d_count, 1))])
            post_mixes[d] = np.eye(1, k + 1, k)
            fitted[d] = k + 1
            spawned.append(int(d))
            pending, step = pending[n_ok + 1 :], 2 * (n_ok + 1)
        return topics, post_mixes if spawned or refit else None, spawned, {"epsilon": epsilon}

    trace = []
    prev_ll = None
    sweeps = islice(grow(corpus, config, max_topics, sweep), 1, config.max_iters + 1)
    for topics, mixes, row in sweeps:
        ll = row.loglik
        row.objective = ll - epsilon * row.k
        trace.append(row)
        if not row.spawned and prev_ll is not None and _plateaued(ll, prev_ll, config.rel_tol):
            break
        prev_ll = ll
    return topics, mixes, trace
