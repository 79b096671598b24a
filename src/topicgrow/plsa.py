"""Classical PLSA: EM training at fixed K, document fold-in, and likelihood evaluation.

Topics are a row-stochastic ``(K, V)`` array of word probabilities p(w|z);
document mixes are simplex rows p(z|d) of a dense ``(D, K)`` array.

The EM kernel never forms the posterior p(z|d,w). PLSA's EM update is the
KL-NMF multiplicative update: with R = n(d,w) / p(w|d) at the corpus entries,
the expected counts are n(d,z) = p(z|d) (R p(w|z)^T) and n(z,w) = p(w|z)
(p(z|d)^T R). Both run on the padded blocks of a corpus's ``BlockLayout``, built
once per corpus whatever K and kept by ``_layout`` while the corpus lives: the
E-step (``_e_step``) on documents sorted longest first, gathering p(w|z) into
``(n, L, K)`` blocks, and the M-step (``_m_step``) on words sorted by document
frequency, gathering the mixes of the documents that hold them. The E-step is
the one pass that evaluates the mixture probability of every corpus entry, so
it also returns the per-document log-likelihoods that nPLSA's spawn test,
perplexity and the training traces read, nPLSA's penalized ``objective``
column included. The batched fold-in works on padded ``(n, L, K)`` blocks of
documents sorted longest first (``fold_in_docs``), cut by the same ``pad_runs``;
its kernel ``_fold_in_block`` is the one fold-in loop, and ``fold_in`` is its
one-document call. A padding cell, in either kind of block, holds term
``n_terms``, whose probability is 1 under every topic, with count 0: it adds
log 1 = 0 to the log-likelihoods and nothing to the expected counts.
``_e_step``'s ``ratio`` has one zero cell more, which the word side's padding
reads. ``em_steps`` is the one EM loop, and both growth runs step it through ``nplsa.grow``.
``run_to_plateau`` stops ``em_refine`` and nPLSA at a plateau; farthest-first
growth (``autostop._grow``) stops on its patience or its spawn budget, and only
its refine phase runs to a plateau. At fixed K (``em_refine``:
``train_plsa`` and the refine phase of ``autostop``) its M-step is adaptively
over-relaxed, the multiplicative factors raised to a power eta > 1, with a fall-back
to the plain step that keeps the log-likelihood monotone; growth runs take plain
EM steps. A log-likelihood returned or traced with parameters is always theirs.
"""

from __future__ import annotations

import logging
import math
import time
import weakref
from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np

from .errors import DataError, require_integers

logger = logging.getLogger(__name__)

_BLOCK_CELLS = 1 << 12  # padded (document, word) cells per block of the EM layout
_BLOCK_ENTRIES = 1 << 17  # padded (document, word, topic) entries per fold-in block
_DROP_SHARE = 0.3  # converged share of a block's working documents at which they leave it
_ETA_GROWTH = 1.1  # factor on the over-relaxation exponent after each accepted fixed-K step
_ETA_CAP = 2.5  # largest over-relaxation exponent


@dataclass(frozen=True)
class EmConfig:
    """Knobs shared by the EM loop and the fold-ins of the package.

    ``rel_tol`` stops the outer loop when |dL/L| falls below it;
    ``smoothing_floor`` is the least entry of every topic (``_floor_rows``), so
    a freshly spawned topic (a document MLE full of zeros) can still explain
    unseen words. The fold-in fields budget each document's fit against
    frozen topics; the batched kernel (``fold_in_docs``) applies them to every
    document of a block on its own.
    """

    seed: int
    max_iters: int = 200
    rel_tol: float = 1e-5
    smoothing_floor: float = 1e-9
    fold_in_max_iters: int = 50
    fold_in_rel_tol: float = 1e-6

    def __post_init__(self):
        require_integers(self, "seed", "max_iters", "fold_in_max_iters")
        if self.seed < 0:
            raise DataError("seed must be non-negative")
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

    ``phase``, ``spawned`` (ids of the documents that spawned a topic in an
    iteration of a growth run), ``eta`` (the over-relaxation exponent of the
    iteration's first M-step try), ``rejected`` (whether that try was discarded
    for the plain EM step) and ``stop`` (why the loop ending at the row stopped)
    are in-memory diagnostics and are not part of the CSV serialization.
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
    phase: str = field(default="", repr=False)
    spawned: tuple = field(default=(), repr=False)
    eta: float = field(default=1.0, repr=False)
    rejected: bool = field(default=False, repr=False)
    stop: str = field(default="", repr=False, compare=False)


def _plateaued(ll, prev, tol):
    """Whether a log-likelihood has plateaued: |ll - prev| <= tol * |prev|, elementwise."""
    return np.abs(ll - prev) <= tol * (np.abs(prev) + 1e-12)


def init_topics(k, n_terms, rng):
    """Draw k topic rows from a symmetric Dirichlet(1) over the vocabulary."""
    return rng.dirichlet(np.ones(n_terms), size=k)


def _floor_rows(mat, floor):
    """Normalize rows; floor the fewest smallest entries that keep the rescaled rest >= floor."""
    mat = mat / mat.sum(axis=1, keepdims=True)
    if mat.shape[1] * floor >= 0.5:
        raise DataError("smoothing_floor too large for this vocabulary size")
    ranked = np.sort(mat, axis=1)
    rest = 1.0 - (np.cumsum(ranked, axis=1) - ranked)  # mass of each ranked entry and those above
    # ranked entry i ends below the floor even once the i entries under it are floored
    low = ranked * (1.0 - np.arange(mat.shape[1]) * floor) < floor * rest
    n_low = low.sum(axis=1, keepdims=True)
    return np.maximum(mat * ((1.0 - n_low * floor) / np.take_along_axis(rest, n_low, 1)), floor)


def e_step_doc(corpus, d, topics, mix):
    """Posterior p(z|d,w) over the distinct words of document d, one row per word.

    No trainer calls it (they use ``_e_step``); the tracer and the tests' E-step checks do.
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
    """Total log-likelihood sum_d sum_w n(d,w) log sum_z p(z|d) p(w|z), in nats.

    No trainer calls it (they use ``_e_step``); ``perfbench/tracing.py`` and tests still do.
    """
    return float(_e_step(corpus, topics, mixes)[2].sum())


def pad_runs(starts, lengths, cells, fill):
    """Sort runs longest first and cut them into padded blocks of at most ``cells`` cells.

    Run i is the flat indices ``starts[i]`` to ``starts[i] + lengths[i] - 1``.
    The runs are stably sorted by decreasing length (``order``) and cut into
    consecutive blocks, each a row per run padded to the length of its first
    run; a run longer than ``cells`` sits alone. Returns ``(order, blocks,
    idx)``: ``idx`` is every cell's flat index, ``fill`` in the padding, block
    after block and row-major within one, and a block ``(r0, r1, c0, c1)``
    holds the runs ``order[r0:r1]`` in the cells ``idx[c0:c1]``.
    """
    order = np.argsort(-lengths, kind="stable")
    blocks, parts = [], [np.empty(0, dtype=np.int64)]
    r0 = c0 = 0
    while r0 < order.size:
        width = lengths[order[r0]]
        runs = order[r0 : r0 + max(1, cells // width)]
        idx = starts[runs, None] + np.arange(width)
        idx[np.arange(width) >= lengths[runs, None]] = fill
        blocks.append((r0, r0 + runs.size, c0, c0 + idx.size))
        parts.append(idx.ravel())
        r0, c0 = r0 + runs.size, c0 + idx.size
    return order, tuple(blocks), np.concatenate(parts)


class BlockLayout:
    """A corpus's entries in padded blocks, seen from both sides, for the EM kernel.

    Document side: the documents sorted longest first (``doc_order``) and cut
    by ``pad_runs`` into blocks of at most ``_BLOCK_CELLS`` cells, each
    document a row padded to its block's longest. ``words`` and ``counts`` hold
    every cell's term id and count, padding cells included; ``row_starts`` is
    the first cell of each row. Word side: the terms that occur, sorted by
    decreasing document frequency (``word_order``), each a row of the documents
    that hold it in increasing order, cut the same way. ``word_docs`` holds
    every cell's document, 0 in the padding, and ``word_cells`` the
    document-side cell of the same entry, ``n_cells`` (``ratio``'s zero cell)
    in the padding. A block in ``doc_blocks`` or ``word_blocks`` is ``(r0, r1,
    c0, c1)``: rows ``r0:r1`` of its side's order, cells ``c0:c1``;
    ``max_cells`` is the most cells of any block.
    """

    def __init__(self, corpus):
        doc_idx, word_idx, counts = corpus.flat()
        starts, lengths = corpus.segments()
        nnz = word_idx.size
        self.doc_order, self.doc_blocks, entries = pad_runs(starts, lengths, _BLOCK_CELLS, nnz)
        self.words = np.append(word_idx, corpus.n_terms)[entries]
        self.counts = np.append(counts, 0.0)[entries]
        self.n_cells = entries.size
        self.row_starts = np.concatenate(
            [np.arange(c0, c1, (c1 - c0) // (r1 - r0)) for r0, r1, c0, c1 in self.doc_blocks]
        )
        cell_of = np.empty(nnz + 1, dtype=np.int64)
        cell_of[entries] = np.arange(entries.size)
        cell_of[nnz] = entries.size

        df = np.bincount(word_idx, minlength=corpus.n_terms)
        used = np.flatnonzero(df)
        by_word = np.append(np.argsort(word_idx, kind="stable"), nnz)
        word_runs, self.word_blocks, entries = pad_runs(
            (np.cumsum(df) - df)[used], df[used], _BLOCK_CELLS, nnz
        )
        entries = by_word[entries]
        self.word_order = used[word_runs]
        self.word_docs = np.append(doc_idx, 0)[entries]
        self.word_cells = cell_of[entries]
        self.max_cells = max(c1 - c0 for _, _, c0, c1 in self.doc_blocks + self.word_blocks)


_LAYOUTS = weakref.WeakKeyDictionary()  # corpus -> its BlockLayout, dropped with the corpus


def _layout(corpus):
    """The corpus's ``BlockLayout``, built on first use; it does not depend on K."""
    if corpus not in _LAYOUTS:
        _LAYOUTS[corpus] = BlockLayout(corpus)
    return _LAYOUTS[corpus]


def _e_step(corpus, topics, mixes):
    """E-step for dense (D, K) ``mixes``. Returns ``(ratio, doc_counts, doc_lls)``.

    Runs on the document side of the corpus's ``BlockLayout``: per block,
    p(w|z) is gathered once into ``(n, L, K)``, ``probs = rows @ mix`` is every
    entry's mixture probability p(w|d), ``ratio = n(d,w) / p(w|d)`` and
    ``doc_counts = mix * (ratio @ rows)`` is n(d,z) = sum_w n(d,w) p(z|d,w).
    ``ratio`` stays in the layout's cells for ``_m_step``, with one zero cell
    appended; ``doc_lls[d]`` is document d's log-likelihood under the given
    parameters, so ``doc_lls.sum()`` is the corpus log-likelihood.
    An entry whose mixture probability is zero or not finite is a DataError.
    """
    lay = _layout(corpus)
    k = topics.shape[0]
    table = np.vstack([topics.T, np.ones(k)])  # row n_terms is the padding word
    mix = mixes[lay.doc_order]
    probs = np.empty(lay.n_cells)
    ratio = np.empty(lay.n_cells + 1)
    ratio[-1] = 0.0
    sorted_counts = np.empty((corpus.n_docs, k))  # n(d,z) in the order of doc_order
    work = np.empty(lay.max_cells * k)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r0, r1, c0, c1 in lay.doc_blocks:
            shape = (r1 - r0, (c1 - c0) // (r1 - r0))
            rows = np.take(table, lay.words[c0:c1], axis=0, mode="clip",
                           out=work[: (c1 - c0) * k].reshape(c1 - c0, k)).reshape(*shape, k)
            np.matmul(rows, mix[r0:r1, :, None], out=probs[c0:c1].reshape(*shape, 1))
            np.divide(lay.counts[c0:c1], probs[c0:c1], out=ratio[c0:c1])
            np.matmul(ratio[c0:c1].reshape(shape[0], 1, shape[1]), rows,
                      out=sorted_counts[r0:r1, None, :])
        np.log(probs, out=probs)
        lls = np.add.reduceat(lay.counts * probs, lay.row_starts)
    if not np.isfinite(lls).all():
        raise DataError("unmodelable word: zero or non-finite mixture probability in E-step")
    sorted_counts *= mix
    doc_counts = np.empty_like(sorted_counts)
    doc_counts[lay.doc_order] = sorted_counts
    doc_lls = np.empty_like(lls)
    doc_lls[lay.doc_order] = lls
    return ratio, doc_counts, doc_lls


def _relax(factor, eta, axis):
    """``factor ** eta`` in place, ``factor`` scaled to a maximum of 1 along ``axis`` first.

    The scale, one constant per topic row (axis 0) or mix row (axis 1), keeps
    the power from overflowing; the M-step's normalization removes it.
    """
    top = factor.max(axis=axis, keepdims=True)
    factor /= np.where(top > 0.0, top, 1.0)
    with np.errstate(divide="ignore"):  # a zero factor stays zero: exp(-inf) = 0
        np.log(factor, out=factor)
    factor *= eta
    return np.exp(factor, out=factor)


def _m_step(corpus, topics, mixes, ratio, doc_counts, smoothing_floor, eta=1.0):
    """M-step from the E-step of ``topics`` and ``mixes``. Returns (topics, mixes (D, K)).

    The topic counts n(z,w) = p(w|z) S(z,w), S(z,w) = sum_d p(z|d) ratio(d,w),
    run on the word side of the corpus's ``BlockLayout``: per block, the mixes of the
    documents holding each word are gathered once into ``(n, L, K)`` and one
    batched matmul with the ratio gives the sums. Topic rows are floored by
    ``_floor_rows``; a topic without mass is reset to uniform. The mixes are the
    normalized ``doc_counts``. An ``eta`` other than 1 over-relaxes the
    multiplicative update: topics are proportional to p(w|z) S^eta and mixes
    to p(z|d) F^eta, F = n(d,z) / p(z|d) (0 where p(z|d) = 0); at eta = 1
    both are the plain EM update.
    """
    lay = _layout(corpus)
    k = topics.shape[0]
    cells = ratio[lay.word_cells]
    sums = np.empty((lay.word_order.size, k))
    work = np.empty(lay.max_cells * k)
    for r0, r1, c0, c1 in lay.word_blocks:
        shape = (r1 - r0, (c1 - c0) // (r1 - r0))
        rows = np.take(mixes, lay.word_docs[c0:c1], axis=0, mode="clip",
                       out=work[: (c1 - c0) * k].reshape(c1 - c0, k)).reshape(*shape, k)
        np.matmul(cells[c0:c1].reshape(shape[0], 1, shape[1]), rows, out=sums[r0:r1, None, :])
    if eta != 1.0:
        _relax(sums, eta, axis=0)
        factor = np.divide(doc_counts, mixes, out=np.zeros_like(mixes), where=mixes > 0.0)
        doc_counts = _relax(factor, eta, axis=1)
        doc_counts *= mixes
    topic_mass = np.zeros((k, corpus.n_terms))
    topic_mass[:, lay.word_order] = sums.T
    topic_mass *= topics
    dead = topic_mass.sum(axis=1) == 0.0
    if dead.any():
        logger.warning("m_step: %d topic(s) received zero mass, reset to uniform", dead.sum())
        topic_mass[dead] = 1.0
    topics = _floor_rows(topic_mass, smoothing_floor)
    return topics, doc_counts / doc_counts.sum(axis=1, keepdims=True)


def em_steps(corpus, topics, mixes, config, spawn_phase=None):
    """The package's one EM loop, yielding (topics, mixes, TraceRow) until the caller stops.

    Row 0 is the E-step of the given parameters; each later iteration is an
    M-step from the expected counts in hand and the E-step of its result. With
    a ``spawn_phase``, an iteration first calls ``spawn_phase(topics, mixes,
    doc_lls, fitted)`` (``fitted`` the topic count each document was last
    fitted against, updated in place), which returns (topics, post_mixes,
    spawned ids, trace fields), ``post_mixes`` None if the E-step in hand still
    holds; then topics without expected counts are pruned. Fixed-K EM never prunes.

    Without a spawn phase the M-step is over-relaxed (Salakhutdinov & Roweis,
    ICML 2003): its exponent eta starts at 1 and grows by ``_ETA_GROWTH`` per
    accepted step up to ``_ETA_CAP``. A step whose log-likelihood falls below
    that of the state it started from, or whose E-step fails, is rejected: the
    plain EM step from that state is taken instead and eta is reset to 1. Row
    log-likelihoods therefore never decrease, as under plain EM. Each row
    records the eta of its first try and whether that try was rejected.
    """
    fitted = np.full(corpus.n_docs, topics.shape[0], dtype=np.int64)
    ratio, doc_counts, doc_lls = _e_step(corpus, topics, mixes)
    loglik = float(doc_lls.sum())
    yield topics, mixes, TraceRow(iteration=0, k=topics.shape[0], loglik=loglik)
    eta = 1.0
    for it in count(1):
        t0 = time.perf_counter()
        spawned, fields = (), {}
        if spawn_phase is not None:
            topics, post_mixes, spawned, fields = spawn_phase(topics, mixes, doc_lls, fitted)
            if post_mixes is not None:
                mixes = post_mixes
                ratio, doc_counts, _ = _e_step(corpus, topics, mixes)
            alive = doc_counts.any(axis=0)
            if not alive.all():
                # A topic without expected counts has zero posterior weight in every
                # document: dropping it leaves every likelihood unchanged.
                logger.info("pruning %d dead topic(s)", int((~alive).sum()))
                topics, mixes, doc_counts = topics[alive], mixes[:, alive], doc_counts[:, alive]
                fitted[:] = np.cumsum(alive)[fitted - 1]
        step = _m_step(corpus, topics, mixes, ratio, doc_counts, config.smoothing_floor, eta)
        try:
            state = _e_step(corpus, *step)
        except DataError:
            if eta == 1.0:
                raise
            state = None
        rejected = eta != 1.0 and (state is None or float(state[2].sum()) < loglik)
        if rejected:
            step = _m_step(corpus, topics, mixes, ratio, doc_counts, config.smoothing_floor)
            state = _e_step(corpus, *step)
        (topics, mixes), (ratio, doc_counts, doc_lls) = step, state
        loglik = float(doc_lls.sum())
        row = TraceRow(iteration=it, k=topics.shape[0], loglik=loglik,
                       wall_ms=(time.perf_counter() - t0) * 1000.0, spawned=tuple(spawned),
                       eta=eta, rejected=rejected, **fields)
        if spawn_phase is None:
            eta = 1.0 if rejected else min(eta * _ETA_GROWTH, _ETA_CAP)
        yield topics, mixes, row


def run_to_plateau(rows, config, trace=None, phase=""):
    """The one plateau loop: an EM run's ``rows``, as ``em_steps`` yields them, from iteration 1.

    It stops after a row that spawned nothing has plateaued (``_plateaued`` at
    ``config.rel_tol``) or after ``config.max_iters`` rows; given a ``trace``, it
    appends the rows, tagged ``phase`` and numbered on from its last row. Returns
    the last row's (topics, mixes, TraceRow), its ``stop`` "plateau" or "max_iters".
    """
    start, prev_ll = (trace[-1].iteration if trace else 0), None
    for topics, mixes, row in islice(rows, 1, config.max_iters + 1):
        if trace is not None:
            row.iteration, row.phase = start + row.iteration, phase
            trace.append(row)
        if not (row.spawned or prev_ll is None) and _plateaued(row.loglik, prev_ll, config.rel_tol):
            row.stop = "plateau"
            break
        prev_ll = row.loglik
    else:
        row.stop = "max_iters"
    return topics, mixes, row


def em_refine(corpus, topics, mixes, config, trace=None, phase=""):
    """Fixed-K EM: ``run_to_plateau`` on ``em_steps``. Returns (topics, mixes, last_loglik).

    No over-relaxed step lowers the log-likelihood; one whose first try is
    rejected costs one more M-step and E-step.
    """
    topics, mixes, row = run_to_plateau(em_steps(corpus, topics, mixes, config), config,
                                        trace, phase)
    return topics, mixes, row.loglik


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


def fold_in(doc, topics, config, init_mix=None):
    """Fit one document's mix against frozen topics: the batch kernel on one unpadded row.

    ``doc`` is a sparse row (term_ids, counts); the result is ``fold_in_docs``'s for it
    alone, bit for bit. The fit is concave in the mix, so ``init_mix`` (default uniform)
    only affects convergence speed. Returns (mix, fitted log-likelihood).
    """
    ids, counts = doc
    k = topics.shape[0]
    init = np.full(k, 1.0 / k) if init_mix is None else np.asarray(init_mix, dtype=float)
    mixes, lls = _fold_in_block(np.asarray(ids)[None], np.asarray(counts, dtype=float)[None],
                                topics.T, np.array([len(ids)]), init[None], config)
    return mixes[0], float(lls[0])


def fold_in_docs(corpus, docs, topics, config, init_mixes):
    """Fold in the documents ``docs`` against frozen topics, each to its own plateau.

    The documents are sorted longest first and cut into blocks of at most
    ``_BLOCK_ENTRIES`` padded (document, word, topic) entries. A block's p(w|z)
    is gathered once into ``(n, L, K)``, L being its longest document. Each
    pass runs two batched matmuls, ``probs = rows @ mix`` and ``mix *= (cnt /
    probs) @ rows``, and one log for the documents' lls; the per-document
    plateau test and write-back touch only the working rows. A document stops
    iterating on its own plateau or at the ``fold_in_max_iters`` cap, where its
    result is written; converged documents keep iterating unread until they are
    at least ``_DROP_SHARE`` of the block's rows, then leave it together. Each
    document gets ``fold_in``'s iterates up to round-off. ``init_mixes`` is
    ``(len(docs), K)``; returns the fitted mixes and their lls in the order of ``docs``.
    """
    _, word_idx, counts = corpus.flat()
    starts, lengths = corpus.segments()
    k = topics.shape[0]
    table = np.vstack([topics.T, np.ones(k)])  # row n_terms is the padding word
    words = np.append(word_idx, corpus.n_terms)  # flat index nnz is the padding cell
    counts = np.append(counts, 0.0)
    init_mixes = np.asarray(init_mixes, dtype=float)
    out_mixes = np.empty((len(docs), k))
    out_lls = np.empty(len(docs))
    order, blocks, idx = pad_runs(starts[docs], lengths[docs], _BLOCK_ENTRIES // k, word_idx.size)
    for r0, r1, c0, c1 in blocks:
        block, cells = order[r0:r1], idx[c0:c1].reshape(r1 - r0, -1)
        out_mixes[block], out_lls[block] = _fold_in_block(
            words[cells], counts[cells], table, lengths[docs[block]], init_mixes[block], config
        )
    return out_mixes, out_lls


def _fold_in_block(words, cnt, table, lens, init_mixes, config):
    """``fold_in_docs`` on one block: padded (n, L) words and counts, ``lens`` longest first.

    A pass runs two matmuls and one log; a zero probability shows as a non-finite
    ll, and the plateau test and write-back read only the working rows.
    """
    rows = np.take(table, words, axis=0)
    mix = init_mixes.copy()
    out_mixes = np.empty_like(mix)
    out_lls = np.empty(lens.size)
    active = np.arange(lens.size)  # block positions of the rows
    working = np.ones(lens.size, dtype=bool)  # not yet plateaued
    n_done = 0  # rows plateaued and written, not yet dropped
    prev_lls = np.full(lens.size, np.nan)  # no row plateaus on the first pass
    with np.errstate(divide="ignore", invalid="ignore"):  # zero probabilities are tested below
        for it in range(config.fold_in_max_iters + 1):
            probs = (rows @ mix[:, :, None])[:, :, 0]
            lls = np.einsum("nl,nl->n", cnt, np.log(probs))
            if not math.isfinite(lls.sum()) and np.any(probs[~np.isfinite(lls)] <= 0.0):
                raise DataError("unmodelable word: zero mixture probability in fold-in")
            if it == config.fold_in_max_iters:  # the cap: every working row is written
                new = np.flatnonzero(working)
            else:
                hit = _plateaued(lls, prev_lls, config.fold_in_rel_tol)
                new = np.flatnonzero(hit & working if n_done else hit)
            if new.size:
                pos = active[new]
                out_mixes[pos], out_lls[pos] = mix[new], lls[new]
                n_done += new.size
                if n_done == working.size:
                    return out_mixes, out_lls
                working[new] = False
            mix *= ((cnt / probs)[:, None, :] @ rows)[:, 0, :]
            mix /= mix.sum(axis=1, keepdims=True)
            prev_lls = lls
            if new.size and n_done >= _DROP_SHARE * working.size:  # converged rows leave
                keep = np.flatnonzero(working)
                width = lens[active[keep[0]]]  # the rows stay longest first
                rows, cnt, mix = rows[keep, :width], cnt[keep, :width], mix[keep]
                active, prev_lls, working, n_done = active[keep], prev_lls[keep], working[keep], 0


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
