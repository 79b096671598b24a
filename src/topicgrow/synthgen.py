"""Synthetic corpus generation with known ground-truth topics.

Documents follow the standard Dirichlet-multinomial generative process: topic word
distributions are symmetric-Dirichlet draws kept only if sufficiently far from all previously
accepted topics, each document draws a topic mixture and then a topic and a word for every
token. All randomness flows through named counter-based streams so the same seed reproduces
the corpus bit-for-bit, even if documents are generated in parallel. Documents are drawn a
block at a time, each block merged into corpus rows before the next is drawn, and the tokens'
topics and words are kept as int32.

Stream layout: stream s is numpy's Philox keyed by (seed, s), ``stream_rng``.
Stream 0 draws the candidate topics, ``_CANDIDATE_BATCH`` at a time. Stream
d+1 draws document d: its Dirichlet mixture, then ``doc_len`` uniforms that
pick the tokens' topics in position order, then ``doc_len`` uniforms that pick
their words, spent topic by topic in increasing topic order and in position
order within a topic. A uniform u picks from a distribution p the number of
entries of p's cumulative sums, divided by their last entry, that are <= u;
this is how ``Generator.choice`` samples with ``p=``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Vocabulary
from .errors import AlgorithmError, DataError, require_integers

# One Philox stream per logical unit: stream 0 draws the topics, stream d+1
# draws document d (mixture, then assignments, then words).
RNG_ALGORITHM = "numpy.random.Philox4x64 key=(seed, stream); stream 0 topics, stream d+1 document d"

_CANDIDATE_BATCH = 32  # candidates per Dirichlet draw
_BLOCK_TOKENS = 1 << 13  # tokens per block of documents drawn together; bounds the temporaries
_MAX_REJECTIONS_PER_TOPIC = 10_000


@dataclass(frozen=True)
class SynthConfig:
    """Generator parameters. The sizes default to the paper scale, ``PROFILES["paper"]``."""

    seed: int
    n_docs: int = 1000
    doc_len: int = 200
    n_topics: int = 20
    vocab_size: int = 1000
    alpha: float = 0.1
    beta: float = 0.01
    min_topic_dist: float = 0.5

    def __post_init__(self):
        require_integers(self, "seed", "n_docs", "doc_len", "n_topics", "vocab_size")
        if min(self.n_docs, self.doc_len, self.n_topics, self.vocab_size) < 1:
            raise DataError("synth sizes must be positive")
        if not (0 < self.alpha < np.inf and 0 < self.beta < np.inf):  # also rejects NaN
            raise DataError("Dirichlet parameters must be finite and > 0")
        if not 0 <= self.min_topic_dist < math.sqrt(2):
            raise DataError("min_topic_dist must lie in [0, sqrt(2))")
        if self.seed < 0:
            raise DataError("seed must be non-negative")
        if max(self.n_topics, self.vocab_size) >= 2**31:  # the token arrays are int32
            raise DataError("n_topics and vocab_size must be below 2**31")
        if self.seed >= 2**64:  # stream_rng keys Philox with the seed as one uint64 word
            raise DataError("seed must be below 2**64")


#: Corpus sizes by name: "paper" is ``SynthConfig``'s default; "desk" is a fast
#: profile for tests and experimentation.
PROFILES = {
    "paper": {f: getattr(SynthConfig, f) for f in ("n_docs", "doc_len", "n_topics", "vocab_size")},
    "desk": dict(n_docs=200, doc_len=100, n_topics=10, vocab_size=500),
}


@dataclass
class SyntheticTruth:
    """Ground truth emitted alongside a generated corpus.

    ``token_topics[d, i]`` and ``token_words[d, i]`` are the topic and the word
    drawn for token i of document d, two ``(D, doc_len)`` int32 arrays (ids below
    2**31, by ``SynthConfig``) retained so checks can condition on the latent variables.
    """

    topics: np.ndarray
    doc_mixes: np.ndarray
    token_topics: np.ndarray
    token_words: np.ndarray


def stream_rng(seed, stream):
    """Counter-based generator for one logical stream of a seeded run: Philox keyed by
    (seed, stream), counter 0. The key is a uint64 array, which takes any 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def sample_distinct_topics(config):
    """Draw topic rows from Dirichlet(beta) keeping only well-separated ones.

    A candidate is accepted iff its minimum L2 distance to every previously
    accepted topic exceeds ``min_topic_dist``. Candidates are drawn
    ``_CANDIDATE_BATCH`` at a time: a draw of n rows equals n draws of one, so
    the batch size sets the memory, never the topics. A batch's distances to
    the topics accepted before it are computed over the whole batch at once, and
    each candidate accepted adds the distances from the rest of its batch to it
    the same way.
    """
    rng = stream_rng(config.seed, 0)
    alpha = np.full(config.vocab_size, config.beta)
    accepted = []
    rejections = 0  # since the last accepted topic
    while len(accepted) < config.n_topics:
        batch = rng.dirichlet(alpha, size=_CANDIDATE_BATCH)
        # One (rows, V) operation per topic, in one buffer the size of the batch.
        near = np.zeros(_CANDIDATE_BATCH, dtype=bool)
        diff = np.empty_like(batch)
        for topic in accepted:
            np.square(np.subtract(batch, topic, out=diff), out=diff)
            near |= np.sqrt(diff.sum(axis=1)) <= config.min_topic_dist
        for i in range(_CANDIDATE_BATCH):
            if len(accepted) == config.n_topics:
                break
            if not near[i]:
                accepted.append(batch[i].copy())  # a copy, so that a spent batch is freed
                rejections = 0
                rest = diff[i + 1:]
                np.square(np.subtract(batch[i + 1:], batch[i], out=rest), out=rest)
                near[i + 1:] |= np.sqrt(rest.sum(axis=1)) <= config.min_topic_dist
            else:
                rejections += 1
                if rejections >= _MAX_REJECTIONS_PER_TOPIC:
                    raise AlgorithmError(
                        f"distinctness threshold unsatisfiable: {rejections} rejections "
                        f"for {config.n_topics} topics at min_topic_dist="
                        f"{config.min_topic_dist}; lower the threshold or enlarge the vocabulary"
                    )
    return np.asarray(accepted)


def _cdf_rows(probs):
    """Row-wise cumulative sums, each row divided by its last entry so that it ends at 1."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def generate_corpus(config):
    """Generate (Corpus, SyntheticTruth) for the given configuration.

    Every document has exactly ``doc_len`` tokens: a topic mixture is drawn
    from Dirichlet(alpha), each token draws a topic from the mixture and a
    word from that topic. The tokens' topics and words are kept on the truth
    object.

    Document d's stream (stream d+1) yields its Dirichlet mixture, then
    ``doc_len`` uniforms for the topics, then ``doc_len`` uniforms for the
    words, spent as the module docstring describes. ``Generator.choice``
    consumes the same stream when it draws the topics and then the words of
    each topic in turn, so corpora equal those of that per-topic form. Only the
    draws run per document; the rest runs per block of documents of at most ``_BLOCK_TOKENS``
    tokens (or one document, if longer), and each block's tokens are merged into corpus rows
    as soon as it is drawn, by the block merge of ``Corpus.from_entries``.
    """
    topics = sample_distinct_topics(config)
    topic_cdf = _cdf_rows(topics)
    doc_mixes = np.empty((config.n_docs, config.n_topics))
    token_topics = np.zeros((config.n_docs, config.doc_len), dtype=np.int32)
    words = np.empty_like(token_topics)  # ravel() is then a view
    step = max(1, _BLOCK_TOKENS // config.doc_len)
    blocks = (_draw_block(config, topic_cdf, first, doc_mixes[first : first + step],
                          token_topics[first : first + step], words[first : first + step])
              for first in range(0, config.n_docs, step))  # each merged before the next is drawn
    term_width, id_width = len(str(config.vocab_size - 1)), len(str(config.n_docs - 1))
    vocab = Vocabulary([f"w{i:0{term_width}d}" for i in range(config.vocab_size)])
    doc_ids = [f"d{d:0{id_width}d}" for d in range(config.n_docs)]
    corpus = Corpus.__new__(Corpus)._merge_blocks(vocab, blocks, doc_ids)
    return corpus, SyntheticTruth(topics, doc_mixes, token_topics, token_words=words)


def _draw_block(config, topic_cdf, first, mixes, z, w):
    """Draw documents ``first, first + 1, ...``, one per row of ``mixes``.

    Fills ``mixes``, the token topics ``z`` (zeros on entry) and the token
    words ``w`` in place, the last two ``(len(mixes), doc_len)`` arrays.
    Returns the block's entries for ``Corpus._merge_blocks``: (positions, words, counts).
    """
    shape = (len(mixes), config.doc_len)
    topic_u = np.empty(shape)
    word_u = np.empty(shape)
    alpha = np.full(config.n_topics, config.alpha)
    for i in range(len(mixes)):
        rng = stream_rng(config.seed, first + i + 1)
        mixes[i] = rng.dirichlet(alpha)
        rng.random(out=topic_u[i])
        rng.random(out=word_u[i])
    for column in _cdf_rows(mixes).T:
        z += topic_u >= column[:, None]
    # The topic uniforms are spent: their buffer takes each token's word uniform.
    np.put_along_axis(topic_u, np.argsort(z, axis=1, kind="stable"), word_u, axis=1)
    for t, cdf in enumerate(topic_cdf):
        sel = z == t
        w[sel] = cdf.searchsorted(topic_u[sel], side="right")
    return (np.repeat(np.arange(first, first + len(w)), config.doc_len), w.ravel(),
            np.broadcast_to(np.int64(1), w.size))
