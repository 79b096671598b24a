"""Sparse bag-of-words corpora and the unigram language models derived from them."""

from __future__ import annotations

import logging
import re

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

SPARSE_HEADER_RE = re.compile(r"^docs=(\d+)\s+terms=(\d+)\s+nnz=(\d+)\s*$")

_BLOCK_CELLS = 1 << 12  # padded (document, word) cells per block of the EM layout


def tokenize(text):
    """Lowercase and split on runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Immutable term <-> dense integer id mapping (ids 0..V-1, no gaps)."""

    def __init__(self, terms):
        self.terms = list(terms)
        self.index = {}
        for i, term in enumerate(self.terms):
            if term in self.index:
                raise DataError(f"duplicate vocabulary term: {term!r}")
            self.index[term] = i

    def __len__(self):
        return len(self.terms)

    def __contains__(self, term):
        return term in self.index

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.terms == other.terms

    def __repr__(self):
        return f"Vocabulary({len(self.terms)} terms)"

    def id_of(self, term):
        return self.index[term]

    def term_of(self, term_id):
        return self.terms[term_id]


class Corpus:
    """A vocabulary plus one sparse count row per document.

    Each row is a pair of integer arrays ``(term_ids, counts)`` with term ids
    strictly increasing within the row and every count >= 1. Instances are
    immutable after construction and safe to share read-only across workers.
    """

    def __init__(self, vocab, docs, doc_ids, dropped_doc_ids=()):
        if len(docs) != len(doc_ids):
            raise DataError("docs and doc_ids length mismatch")
        if not docs:
            raise DataError("empty corpus: no documents")
        self.vocab = vocab
        self.doc_ids = list(doc_ids)
        self.dropped_doc_ids = list(dropped_doc_ids)
        self.docs = []
        n_terms = len(vocab)
        for ids, counts in docs:
            ids = np.asarray(ids, dtype=np.int64)
            counts = np.asarray(counts, dtype=np.int64)
            if ids.size == 0:
                raise DataError("empty document row")
            if ids.shape != counts.shape:
                raise DataError("row ids/counts shape mismatch")
            order = np.argsort(ids, kind="stable")
            ids, counts = ids[order], counts[order]
            if np.any(np.diff(ids) == 0):
                raise DataError("duplicate term id within a document row")
            if ids[0] < 0 or ids[-1] >= n_terms:
                raise DataError("term id out of vocabulary range")
            if np.any(counts < 1):
                raise DataError("invalid count: counts must be >= 1")
            self.docs.append((ids, counts))
        self._flat = None
        self._segments = None
        self._layout = None
        self._doc_tokens = np.array([c.sum() for _, c in self.docs], dtype=np.int64)

    @property
    def n_docs(self):
        return len(self.docs)

    @property
    def n_terms(self):
        return len(self.vocab)

    @property
    def total_tokens(self):
        return int(self._doc_tokens.sum())

    def doc_tokens(self, d):
        """Total token count of document d."""
        return int(self._doc_tokens[d])

    def flat(self):
        """Flattened nonzero entries as (doc_idx, word_idx, counts) float/int arrays.

        Cached; used by the vectorized EM kernels.
        """
        if self._flat is None:
            doc_idx = np.concatenate(
                [np.full(ids.size, d, dtype=np.int64) for d, (ids, _) in enumerate(self.docs)]
            )
            word_idx = np.concatenate([ids for ids, _ in self.docs])
            counts = np.concatenate([c for _, c in self.docs]).astype(np.float64)
            self._flat = (doc_idx, word_idx, counts)
        return self._flat

    def segments(self):
        """Each document's run in the flat arrays as (starts, lengths), cached.

        Empty documents are rejected above, so ``np.add.reduceat(x, starts)``
        sums exactly one document per output entry.
        """
        if self._segments is None:
            lengths = np.array([ids.size for ids, _ in self.docs], dtype=np.int64)
            starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
            self._segments = (starts, lengths)
        return self._segments

    def layout(self):
        """The padded block layout of the EM kernel (``BlockLayout``), cached.

        It does not depend on the number of topics.
        """
        if self._layout is None:
            self._layout = BlockLayout(self)
        return self._layout


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
    every cell's term id and count, the padding being term ``n_terms`` with
    count 0; ``row_starts`` is the first cell of each row. Word side: the terms
    that occur, sorted by decreasing document frequency (``word_order``), each
    a row of the documents that hold it in increasing order, cut the same way.
    ``word_docs`` holds every cell's document, 0 in the padding, and
    ``word_cells`` the document-side cell of the same entry, ``n_cells`` (one
    past the last) in the padding. A block in ``doc_blocks`` or
    ``word_blocks`` is ``(r0, r1, c0, c1)``: rows ``r0:r1`` of its side's
    order, cells ``c0:c1``; ``max_cells`` is the most cells of any block.
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


def ingest_text(lines, min_df=1, stopwords=None):
    """Build a Corpus from raw document strings, one document per entry.

    Tokens are lowercased and split on non-alphanumeric runs. Terms that
    appear in fewer than ``min_df`` documents or in ``stopwords`` are removed;
    documents left empty by the filter are dropped and their ids recorded on
    ``Corpus.dropped_doc_ids``. The vocabulary is sorted lexicographically so
    repeated ingestion of the same input is bit-identical.
    """
    lines = list(lines)
    if not lines:
        raise DataError("empty corpus: no input documents")
    if min_df < 1:
        raise DataError("min_df must be >= 1")
    stopwords = set(stopwords) if stopwords else set()

    token_lists = [tokenize(line) for line in lines]
    df = {}
    for tokens in token_lists:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    kept = sorted(t for t, n in df.items() if n >= min_df and t not in stopwords)
    vocab = Vocabulary(kept)

    docs, doc_ids, dropped = [], [], []
    for i, tokens in enumerate(token_lists):
        counts = {}
        for term in tokens:
            tid = vocab.index.get(term)
            if tid is not None:
                counts[tid] = counts.get(tid, 0) + 1
        if counts:
            ids = sorted(counts)
            docs.append((np.array(ids), np.array([counts[t] for t in ids])))
            doc_ids.append(str(i))
        else:
            dropped.append(str(i))
    if not docs:
        raise DataError("empty corpus: all documents empty after filtering")
    if dropped:
        logger.warning("dropped %d empty documents after filtering", len(dropped))
    return Corpus(vocab, docs, doc_ids, dropped)


def ingest_sparse(triples, vocab=None):
    """Build a Corpus from (doc_id, term, count) triples.

    Duplicate (doc, term) pairs are summed. Documents, and terms unless a
    ``vocab`` fixes them, follow first-appearance order. Counts must be positive integers.
    """
    term_ids = {} if vocab is None else vocab.index
    doc_order = []
    doc_counts = {}
    for lineno, (doc_id, term, count) in enumerate(triples, start=1):
        if isinstance(count, float) and not count.is_integer():
            raise DataError(f"invalid count {count!r} at entry {lineno}")
        count = int(count)
        if count < 1:
            raise DataError(f"invalid count {count!r} at entry {lineno}")
        tid = term_ids.get(term)
        if tid is None:
            if vocab is not None:
                raise DataError(f"term {term!r} at entry {lineno} is not in the vocabulary")
            tid = term_ids[term] = len(term_ids)
        if doc_id not in doc_counts:
            doc_counts[doc_id] = {}
            doc_order.append(doc_id)
        row = doc_counts[doc_id]
        row[tid] = row.get(tid, 0) + count
    if not doc_order:
        raise DataError("empty corpus: no triples")
    if vocab is None:
        vocab = Vocabulary(term_ids)
    docs = []
    for doc_id in doc_order:
        row = doc_counts[doc_id]
        ids = sorted(row)
        docs.append((np.array(ids), np.array([row[t] for t in ids])))
    return Corpus(vocab, docs, [str(d) for d in doc_order])


def doc_language_model(corpus, d):
    """Unsmoothed maximum-likelihood unigram model of document d (length-V probs)."""
    ids, counts = corpus.docs[d]
    probs = np.zeros(corpus.n_terms)
    probs[ids] = counts / counts.sum()
    return probs


def background_model(corpus):
    """Pooled unigram model of the whole collection: p(w) = sum_d n(d,w) / total tokens."""
    totals = np.zeros(corpus.n_terms)
    for ids, counts in corpus.docs:
        totals[ids] += counts
    return totals / totals.sum()


def reindex_corpus(corpus, vocab):
    """Re-express a corpus under a different vocabulary, dropping unknown terms.

    Documents left empty are dropped and recorded on ``dropped_doc_ids``.
    """
    docs, doc_ids, dropped = [], [], []
    for d, (ids, counts) in enumerate(corpus.docs):
        new = {}
        for tid, c in zip(ids, counts):
            mapped = vocab.index.get(corpus.vocab.term_of(tid))
            if mapped is not None:
                new[mapped] = new.get(mapped, 0) + int(c)
        if new:
            kept = sorted(new)
            docs.append((np.array(kept), np.array([new[t] for t in kept])))
            doc_ids.append(corpus.doc_ids[d])
        else:
            dropped.append(corpus.doc_ids[d])
    if not docs:
        raise DataError("empty corpus: no documents survive reindexing")
    return Corpus(vocab, docs, doc_ids, dropped)


def read_stopwords(path):
    """Read a stopword file, one term per line."""
    with open(path, encoding="utf-8") as fh:
        return {line.strip() for line in fh if line.strip()}


def read_text_corpus(path, min_df=1, stopwords=None):
    """Read a UTF-8 text corpus, one document per line."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    return ingest_text(lines, min_df=min_df, stopwords=stopwords)


def read_sparse_corpus(path):
    """Read a sparse corpus file: a "docs= terms= nnz=" header, the vocabulary one
    term per line, then doc/term/count triples. Without vocabulary lines the
    terms of the triples are taken in order of first appearance.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        m = SPARSE_HEADER_RE.match(header)
        if not m:
            raise DataError(f"bad sparse corpus header: {header.strip()!r}")
        n_docs, n_terms, nnz = (int(g) for g in m.groups())
        terms, triples = [], []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) == 1 and not triples:
                terms.append(parts[0])
                continue
            if len(parts) != 3:
                raise DataError(f"bad sparse corpus line {lineno}: {line.strip()!r}")
            try:
                count = int(parts[2])
            except ValueError:
                raise DataError(f"invalid count {parts[2]!r} at line {lineno}") from None
            triples.append((parts[0], parts[1], count))
    corpus = ingest_sparse(triples, vocab=Vocabulary(terms) if terms else None)
    if corpus.n_docs != n_docs or corpus.n_terms != n_terms or len(triples) != nnz:
        raise DataError(
            f"sparse corpus header mismatch: header says docs={n_docs} terms={n_terms} "
            f"nnz={nnz}, file has docs={corpus.n_docs} terms={corpus.n_terms} nnz={len(triples)}"
        )
    return corpus


def write_sparse_corpus(corpus, path):
    """Write a corpus in the sparse format read by read_sparse_corpus, vocabulary included."""
    nnz = sum(ids.size for ids, _ in corpus.docs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"docs={corpus.n_docs} terms={corpus.n_terms} nnz={nnz}\n")
        for term in corpus.vocab.terms:
            fh.write(f"{term}\n")
        for d, (ids, counts) in enumerate(corpus.docs):
            doc_id = corpus.doc_ids[d]
            for tid, c in zip(ids, counts):
                fh.write(f"{doc_id} {corpus.vocab.term_of(int(tid))} {int(c)}\n")


def load_corpus(path, min_df=1, stopwords=None):
    """Load a corpus file, sniffing the sparse header to pick the format."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if SPARSE_HEADER_RE.match(first):
        return read_sparse_corpus(path)
    return read_text_corpus(path, min_df=min_df, stopwords=stopwords)
