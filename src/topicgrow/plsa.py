"""Classical PLSA: EM training at fixed K, document fold-in, and likelihood evaluation.

Topics are a row-stochastic ``(K, V)`` array of word probabilities p(w|z);
document mixes are simplex rows p(z|d) of a dense ``(D, K)`` array.

The EM kernel works topic-major on the corpus's flat arrays: ``(K, nnz)``
with one contiguous row per topic, and per-document sums by ``np.add.reduceat``.
Its E-step (``_e_step``) is the one pass that evaluates the mixture probability
of every corpus entry, so it also returns the per-document log-likelihoods that
training traces, nPLSA's spawn test, perplexity and the penalized objective
read. The batched fold-in works on padded ``(n, L, K)`` blocks of documents
sorted longest first (``fold_in_docs``). A log-likelihood returned or traced
with parameters is always theirs.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

_BLOCK_ENTRIES = 1 << 17  # padded (document, word, topic) entries per fold-in block
_DROP_SHARE = 0.3  # converged share of a block's working documents at which they leave it


@dataclass(frozen=True)
class EmConfig:
    """Knobs shared by every EM loop in the package.

    ``rel_tol`` stops the outer loop when |dL/L| falls below it;
    ``smoothing_floor`` is the minimum probability kept in every topic row so
    a freshly spawned topic (a document MLE full of zeros) can still explain
    unseen words. The fold-in fields budget the inner per-document loop.
    """

    seed: int
    max_iters: int = 200
    rel_tol: float = 1e-5
    smoothing_floor: float = 1e-9
    fold_in_max_iters: int = 50
    fold_in_rel_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise DataError("max_iters must be >= 1")
        if self.fold_in_max_iters < 1:
            raise DataError("fold_in_max_iters must be >= 1")
        for name in ("rel_tol", "fold_in_rel_tol"):
            if not 0 < getattr(self, name) < np.inf:  # also rejects NaN
                raise DataError(f"{name} must be finite and > 0")
        if not 0 <= self.smoothing_floor <= 1e-3:
            raise DataError("smoothing_floor must lie in [0, 1e-3]")


@dataclass
class TraceRow:
    """One line of a training trace; unset fields stay None.

    ``mean_delta``, ``phase`` and ``spawned`` (ids of the documents that spawned
    a topic) are in-memory diagnostics and are not part of the CSV serialization.
    """

    iteration: int
    k: int
    loglik: float | None = None
    objective: float | None = None
    diversity: float | None = None
    epsilon: float | None = None
    query_distance: float | None = None
    closest_topic: int | None = None
    wall_ms: float | None = None
    mean_delta: float | None = field(default=None, repr=False)
    phase: str = field(default="", repr=False)
    spawned: tuple = field(default=(), repr=False)


def init_topics(k, n_terms, rng):
    """Draw k topic rows from a symmetric Dirichlet(1) over the vocabulary."""
    return rng.dirichlet(np.ones(n_terms), size=k)


def _floor_rows(mat, floor):
    """Clamp every entry to >= floor and renormalize rows to sum to 1.

    Entries already at the floor are exempt from rescaling so the floor is
    exact; the loop terminates because floored entries only accumulate.
    """
    mat = mat / mat.sum(axis=1, keepdims=True)
    if floor <= 0:
        return mat
    if mat.shape[1] * floor >= 0.5:
        raise DataError("smoothing_floor too large for this vocabulary size")
    for _ in range(50):
        low = mat < floor
        if not low.any():
            break
        budget = 1.0 - low.sum(axis=1, keepdims=True) * floor
        high_sum = np.where(low, 0.0, mat).sum(axis=1, keepdims=True)
        mat = np.where(low, floor, mat * (budget / high_sum))
    return mat


def e_step_doc(corpus, d, topics, mix):
    """Posterior p(z|d,w) over the distinct words of document d, one row per word.

    No trainer calls it (they use ``_e_step``); ``perfbench/tracing.py`` still names it.
    """
    ids, _ = corpus.docs[d]
    if mix.size != topics.shape[0]:
        raise DataError("mix length does not match the number of topics")
    joint = mix[None, :] * topics[:, ids].T
    denom = joint.sum(axis=1)
    if np.any(denom <= 0.0):
        raise DataError("unmodelable word: zero mixture probability in E-step")
    return joint / denom[:, None]


def log_likelihood(corpus, topics, mixes):
    """Total log-likelihood sum_d sum_w n(d,w) log sum_z p(z|d) p(w|z), in nats."""
    return float(_e_step(corpus, topics, mixes)[1].sum())


def _e_step(corpus, topics, mixes):
    """Batched E-step for dense (D, K) ``mixes``. Returns ``(weighted, doc_lls)``.

    ``weighted[z, i]`` is n(d,w) p(z|d,w) for flat entry i = (d, w), and
    ``doc_lls[d]`` is document d's log-likelihood under the given parameters,
    summed from the same per-entry mixture probabilities that normalize the
    posterior; ``doc_lls.sum()`` is the corpus log-likelihood.
    """
    _, word_idx, counts = corpus.flat()
    starts, lengths = corpus.segments()
    weighted = np.take(topics, word_idx, axis=1)
    for z in range(weighted.shape[0]):
        weighted[z] *= np.repeat(mixes[:, z], lengths)
    denom = weighted.sum(axis=0)
    if not np.all(denom > 0.0):  # also rejects NaN
        raise DataError("unmodelable word: zero mixture probability in E-step")
    doc_lls = np.add.reduceat(counts * np.log(denom), starts)
    weighted *= counts / denom
    return weighted, doc_lls


def _m_step(corpus, weighted, smoothing_floor):
    """Batched M-step from the E-step's ``weighted``. Returns (topics, mixes (D, K)).

    Topic rows are floored then renormalized; a topic without mass is reset to uniform.
    """
    _, word_idx, _ = corpus.flat()
    starts, _ = corpus.segments()
    k = weighted.shape[0]
    topic_mass = np.empty((k, corpus.n_terms))
    for z in range(k):
        topic_mass[z] = np.bincount(word_idx, weights=weighted[z], minlength=corpus.n_terms)
    dead = topic_mass.sum(axis=1) == 0.0
    if dead.any():
        logger.warning("m_step: %d topic(s) received zero mass, reset to uniform", dead.sum())
        topic_mass[dead] = 1.0
    topics = _floor_rows(topic_mass, smoothing_floor)
    mix_mass = np.add.reduceat(weighted, starts, axis=1)
    mix_mass /= mix_mass.sum(axis=0)
    return topics, mix_mass.T


def em_refine(corpus, topics, mixes, config, trace=None, start_iter=1, phase=""):
    """Run full EM at fixed K from the given parameters until convergence.

    Each iteration is an M-step followed by the E-step of its result, whose
    log-likelihood is that of the parameters the function would return at that
    point. Appends one TraceRow per iteration when ``trace`` is given and
    returns (topics, mixes, last_loglik).
    """
    weighted, _ = _e_step(corpus, topics, mixes)
    prev_ll = None
    for it in range(config.max_iters):
        t0 = time.perf_counter()
        topics, mixes = _m_step(corpus, weighted, config.smoothing_floor)
        del weighted  # free it before the next E-step allocates its own
        weighted, doc_lls = _e_step(corpus, topics, mixes)
        ll = float(doc_lls.sum())
        wall = (time.perf_counter() - t0) * 1000.0
        if trace is not None:
            trace.append(
                TraceRow(
                    iteration=start_iter + it,
                    k=topics.shape[0],
                    loglik=ll,
                    wall_ms=wall,
                    phase=phase,
                )
            )
        if prev_ll is not None and abs(ll - prev_ll) <= config.rel_tol * (abs(prev_ll) + 1e-12):
            break
        prev_ll = ll
    return topics, mixes, ll


def train_plsa(corpus, k, config):
    """Train PLSA with k topics by EM.

    Topics start as Dirichlet(1) draws seeded by ``config.seed`` and mixes
    start uniform; iteration stops on a relative log-likelihood plateau or
    after ``config.max_iters`` sweeps. Returns (topics, mixes, trace).
    """
    if k < 1:
        raise DataError("k must be >= 1")
    rng = np.random.default_rng(config.seed)
    topics = init_topics(k, corpus.n_terms, rng)
    mixes = np.full((corpus.n_docs, k), 1.0 / k)
    trace = []
    topics, mixes, _ = em_refine(corpus, topics, mixes, config, trace=trace)
    return topics, mixes, trace


def fold_in(doc, topics, config, init_mix=None, ll_history=None):
    """Fit one document's topic proportions against frozen topics.

    ``doc`` is a sparse row (term_ids, counts). Holding p(w|z) fixed, the mix
    p(z|d) is re-estimated by alternating the posterior and mix updates until
    the document log-likelihood plateaus. The problem is concave in the mix,
    so any interior starting point reaches the same optimum; ``init_mix``
    only affects convergence speed. Returns (mix, fitted log-likelihood).
    """
    ids, counts = doc
    k = topics.shape[0]
    rows = topics[:, ids].T
    mix = np.full(k, 1.0 / k) if init_mix is None else np.asarray(init_mix, dtype=float)
    prev_ll = None
    for _ in range(config.fold_in_max_iters):
        probs = rows @ mix
        if np.any(probs <= 0.0):
            raise DataError("unmodelable word: zero mixture probability in fold-in")
        ll = float(np.dot(counts, np.log(probs)))
        if ll_history is not None:
            ll_history.append(ll)
        if prev_ll is not None and abs(ll - prev_ll) <= config.fold_in_rel_tol * (
            abs(prev_ll) + 1e-12
        ):
            return mix, ll
        prev_ll = ll
        post = rows * (mix[None, :] / probs[:, None])
        mix = post.T @ counts
        mix /= mix.sum()
    probs = rows @ mix
    ll = float(np.dot(counts, np.log(probs)))
    if ll_history is not None:
        ll_history.append(ll)
    return mix, ll


def fold_in_docs(corpus, docs, topics, config, init_mixes):
    """Fold in the documents ``docs`` against frozen topics, each to its own plateau.

    The documents are sorted longest first and cut into blocks of at most
    ``_BLOCK_ENTRIES`` padded (document, word, topic) entries. A block's p(w|z)
    is gathered once into ``(n, L, K)``, L being its longest document; padding
    rows are 1 with count 0, so they add log 1 = 0 and nothing to the mixes.
    Each pass is two batched matmuls, ``probs = rows @ mix`` and
    ``mix *= (cnt / probs) @ rows``. A document stops iterating on its own
    plateau or at the ``fold_in_max_iters`` cap, where its result is written;
    converged documents keep iterating unread until they are at least
    ``_DROP_SHARE`` of the block's working rows, then leave it together. Each
    document gets ``fold_in``'s iterates up to round-off. ``init_mixes`` is
    ``(len(docs), K)``. Returns (mixes (len(docs), K), fitted lls (len(docs),))
    in the order of ``docs``.
    """
    _, word_idx, counts = corpus.flat()
    starts, lengths = corpus.segments()
    k = topics.shape[0]
    table = np.vstack([topics.T, np.ones(k)])  # row n_terms is the padding word
    init_mixes = np.asarray(init_mixes, dtype=float)
    out_mixes = np.empty((len(docs), k))
    out_lls = np.empty(len(docs))
    order = np.argsort(-lengths[docs], kind="stable")
    i = 0
    while i < order.size:
        width = lengths[docs[order[i]]]
        block = order[i : i + max(1, _BLOCK_ENTRIES // (width * k))]
        i += block.size
        out_mixes[block], out_lls[block] = _fold_in_block(
            word_idx, counts, starts[docs[block]], lengths[docs[block]], table,
            init_mixes[block], config,
        )
    return out_mixes, out_lls


def _fold_in_block(word_idx, counts, starts, lens, table, init_mixes, config):
    """``fold_in_docs`` on one block of documents sorted longest first."""
    on = np.arange(lens[0]) < lens[:, None]  # (n, L): real entries, row-major
    entries = np.arange(lens.sum()) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    words = np.full(on.shape, table.shape[0] - 1)
    words[on] = word_idx[entries]
    cnt = np.zeros(on.shape)
    cnt[on] = counts[entries]
    rows = np.take(table, words, axis=0)
    mix = init_mixes.copy()
    out_mixes = np.empty_like(mix)
    out_lls = np.empty(lens.size)
    active = np.arange(lens.size)  # block positions of the working rows
    done = np.zeros(lens.size, dtype=bool)  # plateaued, result written, not yet dropped
    prev_lls = None
    for it in range(config.fold_in_max_iters + 1):
        probs = (rows @ mix[:, :, None])[:, :, 0]
        if np.any(probs <= 0.0):
            raise DataError("unmodelable word: zero mixture probability in fold-in")
        lls = np.einsum("nl,nl->n", cnt, np.log(probs))
        new = np.full(done.size, it == config.fold_in_max_iters)
        if prev_lls is not None:
            new |= np.abs(lls - prev_lls) <= config.fold_in_rel_tol * (np.abs(prev_lls) + 1e-12)
        new &= ~done
        out_mixes[active[new]] = mix[new]
        out_lls[active[new]] = lls[new]
        done |= new
        if done.all():
            return out_mixes, out_lls
        mix *= ((cnt / probs)[:, None, :] @ rows)[:, 0, :]
        mix /= mix.sum(axis=1, keepdims=True)
        prev_lls = lls
        if done.sum() >= _DROP_SHARE * done.size:  # converged documents leave the block
            keep = np.flatnonzero(~done)
            width = lens[active[keep]].max()
            rows, cnt = rows[keep, :width], cnt[keep, :width]
            active, mix, prev_lls, done = active[keep], mix[keep], prev_lls[keep], done[keep]


def fold_in_all(corpus, topics, config, init_mixes=None):
    """Fold in every document against frozen topics: ``fold_in_docs`` over the whole corpus.

    The documents run in padded blocks sorted longest first, two batched
    matmuls per pass; each stops on its own plateau or at the
    ``fold_in_max_iters`` cap, and converged documents leave their block in
    batches. ``init_mixes`` (D, K) defaults to uniform mixes. Returns
    (mixes (D, K), fitted lls (D,)), the lls being those of the returned mixes.
    """
    if init_mixes is None:
        init_mixes = np.full((corpus.n_docs, topics.shape[0]), 1.0 / topics.shape[0])
    return fold_in_docs(corpus, np.arange(corpus.n_docs), topics, config, init_mixes)
