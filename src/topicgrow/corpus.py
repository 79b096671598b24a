"""Sparse bag-of-words corpora, each built by ``Corpus.from_entries``, and their unigram models.

Every file the package reads opens through ``open_input``, its one UTF-8 reader."""

from __future__ import annotations

import contextlib
import itertools
import logging
import re
from collections import defaultdict

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_ASCII_SEPARATORS = {c: chr(c) if chr(c).isalnum() else " " for c in range(128)}  # for translate

SPARSE_HEADER_RE = re.compile(r"^docs=(\d+)\s+terms=(\d+)\s+nnz=(\d+)\s*$")

MIN_DF = 1  # default document-frequency filter of text ingestion: keep every term
_MERGE_ENTRIES = 1 << 15  # entries per block of documents that Corpus.from_entries merges


def tokenize(text):
    """Lowercase, then split on every character that is not ``str.isalnum``: ASCII text with
    ``str.translate``, in C, and other text with ``_TOKEN_RE``, as translate is slow off ASCII."""
    text = text.lower()
    return text.translate(_ASCII_SEPARATORS).split() if text.isascii() else _TOKEN_RE.findall(text)


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

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.terms == other.terms

    def __repr__(self):
        return f"Vocabulary({len(self.terms)} terms)"


class Corpus:
    """A vocabulary plus one sparse count row per document.

    ``from_entries`` is the one builder from entries, merged per block of documents;
    ``Corpus(vocab, docs, doc_ids)`` takes rows in any term order. Both take
    integers, or floats that are integral, and store the rows flat in two int64
    arrays, term ids strictly increasing within a row and counts >= 1:
    ``docs[d]`` is document d's row as read-only views ``(term_ids, counts)``
    into them, and ``flat()`` and ``segments()`` give the arrays and the rows'
    runs. Instances are immutable and safe to share; ``flat()`` caches its
    float counts on first use.
    """

    def __init__(self, vocab, docs, doc_ids):
        if len(docs) != len(doc_ids):
            raise DataError("docs and doc_ids length mismatch")
        if not docs:
            raise DataError("empty corpus: no documents")
        ids = [np.asarray(row_ids) for row_ids, _ in docs]
        counts = [np.asarray(row_counts) for _, row_counts in docs]
        lengths = np.array([row.size for row in ids], dtype=np.int64)
        if not lengths.all():
            raise DataError("empty document row")
        if any(i.ndim != 1 or i.shape != c.shape for i, c in zip(ids, counts)):
            raise DataError("row ids/counts shape mismatch")
        doc_idx = np.repeat(np.arange(len(docs)), lengths)
        self._store(vocab, doc_idx, np.concatenate(ids), np.concatenate(counts), doc_ids)
        if self._word_idx.size < doc_idx.size:
            raise DataError("duplicate term id within a document row")

    @classmethod
    def from_entries(cls, vocab, doc_idx, word_idx, counts, doc_ids):
        """The corpus in which document ``doc_ids[doc_idx[i]]`` holds ``counts[i]`` of term
        ``word_idx[i]``, the entries in any order. Duplicate (document, term) pairs are
        summed in int64; documents without entries are left out, their ids kept in order
        on ``dropped_doc_ids``. A value neither an integer nor an integral float below
        2**63 in size, a count below 1, or a term id or document position out of range,
        is a DataError raised before any pair is keyed. Memory: entries in non-decreasing
        document order (every token caller's, every ``write_sparse_corpus`` file's) merge with
        temporaries of one block of whole documents, ``_MERGE_ENTRIES`` entries or one document
        (``synthgen`` merges each block as it draws it); the merged pairs then take at most
        three int64 arrays of their size, as the blocks' term ids and sums are joined in turn."""
        return cls.__new__(cls)._store(vocab, doc_idx, word_idx, counts, doc_ids)

    def _store(self, vocab, doc_idx, word_idx, counts, doc_ids):
        """Check the entries, then merge them per block of whole documents; returns self."""
        doc_idx, word_idx, counts = (_int64(doc_idx, "document positions"),
                                     _int64(word_idx, "term ids"), _int64(counts, "counts"))
        if not counts.size:
            raise DataError("empty corpus: no documents")
        if word_idx.min() < 0 or word_idx.max() >= len(vocab):
            raise DataError("term id out of vocabulary range")
        if counts.min() < 1:
            raise DataError("invalid count: counts must be >= 1")
        if doc_idx.min() < 0 or doc_idx.max() >= len(doc_ids):
            raise DataError("document position out of range")
        # Blocks hold whole documents in order, so each block's pairs follow the last block's.
        grouped = (doc_idx[1:] >= doc_idx[:-1]).all()
        cuts = doc_idx.searchsorted(np.arange(doc_idx[-1] + 2)) if grouped else [0, doc_idx.size]

        def blocks(start=0):  # to the last cut within _MERGE_ENTRIES, else the next cut
            while start < doc_idx.size:
                stop = max(cuts[np.searchsorted(cuts, start + _MERGE_ENTRIES, "right") - 1],
                           cuts[np.searchsorted(cuts, start, "right")])
                yield doc_idx[start:stop], word_idx[start:stop], counts[start:stop]
                start = stop

        return self._merge_blocks(vocab, blocks(), doc_ids)

    def _merge_blocks(self, vocab, blocks, doc_ids):
        """Merge checked ``blocks``, (positions, term ids, counts) of whole documents in order,
        positions and counts int64, into read-only rows sorted by term id; returns self."""
        lengths = np.zeros(len(doc_ids), dtype=np.int64)
        terms, sums = [], []
        for doc_idx, word_idx, counts in blocks:
            keys = doc_idx * len(vocab) + word_idx
            order = np.argsort(keys)
            keys = keys[order]
            sorted_counts = counts[order]
            del order, doc_idx, word_idx, counts  # each step frees what it replaces
            first = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))  # a pair's first entry
            sums.append(np.add.reduceat(sorted_counts, first))  # int64: float sums round past 2**53
            keys = keys[first]
            del sorted_counts, first
            docs, block_terms = np.divmod(keys, len(vocab))
            terms.append(block_terms)
            lengths[docs[0] : docs[-1] + 1] = np.bincount(docs - docs[0])  # a run of documents
        del keys, docs  # the last block's, freed before the join
        terms = np.concatenate(terms)  # each join frees its parts: three entry-sized arrays at most
        sums = np.concatenate(sums)
        self.vocab = vocab
        self.doc_ids = [doc_ids[d] for d in np.flatnonzero(lengths).tolist()]
        self.dropped_doc_ids = [doc_ids[d] for d in np.flatnonzero(lengths == 0).tolist()]
        lengths = lengths[lengths > 0]
        starts = np.cumsum(lengths) - lengths
        for array in (terms, sums, starts, lengths):
            array.flags.writeable = False
        self._word_idx, self._counts, self._segments = terms, sums, (starts, lengths)
        self.docs = [(terms[a : a + n], sums[a : a + n])
                     for a, n in zip(starts.tolist(), lengths.tolist())]
        self._flat = None
        return self

    @property
    def n_docs(self):
        return len(self.docs)

    @property
    def n_terms(self):
        return len(self.vocab)

    @property
    def total_tokens(self):
        return int(self._counts.sum())

    def flat(self):
        """The nonzero entries as (doc_idx, word_idx, counts) arrays, counts as float64.

        Built from the stored arrays on first use and cached; used by the
        vectorized EM kernels.
        """
        if self._flat is None:
            doc_idx = np.repeat(np.arange(self.n_docs), self._segments[1])
            counts = self._counts.astype(np.float64)
            doc_idx.flags.writeable = counts.flags.writeable = False
            self._flat = (doc_idx, self._word_idx, counts)
        return self._flat

    def segments(self):
        """Each document's run in the flat arrays as (starts, lengths).

        Empty documents are rejected above, so ``np.add.reduceat(x, starts)``
        sums exactly one document per output entry.
        """
        return self._segments


def _int64(values, what):
    """``values`` as an int64 array: integers, or floats that are integral and below
    2**63 in size (which NaN and infinities are not); anything else is a DataError."""
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind not in "iu" and not (kind == "f" and np.all((abs(values) < 2.0**63)
                                                        & (values == np.trunc(values)))):
        raise DataError(f"{what} must be integers")
    return values.astype(np.int64, copy=False)


def ingest_text(lines, min_df=MIN_DF, stopwords=None):
    """Build a Corpus from raw document strings, one document per item of ``lines``.

    ``lines`` is read once, so a file handle or generator will do. Tokens are
    lowercased and split on every character that is not ``str.isalnum``. Terms
    that appear in fewer than ``min_df`` documents or in ``stopwords`` (compared
    lowercased) are removed; documents left empty by the filter are dropped and
    their ids recorded on ``Corpus.dropped_doc_ids``. The vocabulary is sorted
    lexicographically so repeated ingestion of the same input is bit-identical.
    """
    if min_df < 1:
        raise DataError("min_df must be >= 1")
    term_ids = defaultdict(itertools.count().__next__)  # a new term takes the next id
    words, lengths = [], []  # each token's term id, each document's token count
    for line in lines:
        tokens = tokenize(line)
        lengths.append(len(tokens))
        words += map(term_ids.__getitem__, tokens)
    if not lengths:
        raise DataError("empty corpus: no input documents")
    if not words:
        raise DataError("empty corpus: all documents empty after filtering")
    terms = sorted(term_ids)
    rank = np.argsort(list(map(term_ids.__getitem__, terms)))  # inverts the sort's permutation
    words = rank[np.fromiter(words, dtype=np.int64, count=len(words))]  # ids in ``terms``
    doc_ids = [str(i) for i in range(len(lengths))]
    corpus = Corpus.from_entries(Vocabulary(terms), np.repeat(np.arange(len(lengths)), lengths),
                                 words, np.broadcast_to(1, words.shape), doc_ids)  # 1 per token
    stopwords = {term.lower() for term in stopwords} if stopwords else set()
    df = np.bincount(corpus._word_idx, minlength=len(terms))  # an entry per (document, term)
    keep = (df >= min_df) & np.array([t not in stopwords for t in terms], dtype=bool)
    if not keep.all():  # rebuild from the merged entries of the kept terms, at their lines
        corpus = _remap_terms(corpus, Vocabulary(t for t, k in zip(terms, keep) if k),
                              np.repeat(np.flatnonzero(lengths), corpus.segments()[1]), doc_ids,
                              "all documents empty after filtering")
    if corpus.dropped_doc_ids:
        logger.warning("dropped %d empty documents after filtering", len(corpus.dropped_doc_ids))
    return corpus


def ingest_sparse(triples, vocab=None):
    """Build a Corpus from (doc_id, term, count) triples held in memory.

    This is the library's constructor for counts that are not in a file;
    ``load_corpus`` reads the same triples from one through the same builder,
    and ``ingest_text`` tokenizes raw strings instead. Duplicate
    (doc, term) pairs are summed. Documents, and terms unless a ``vocab``
    fixes them, follow first-appearance order. Counts must be positive integers.
    """
    doc_index, term_index = {}, {} if vocab is None else dict(vocab.index)
    docs, words, counts = [], [], []
    for entry, (doc_id, term, count) in enumerate(triples, start=1):
        if isinstance(count, float) and not count.is_integer():
            raise DataError(f"invalid count {count!r} at entry {entry}")
        docs.append(doc_index.setdefault(doc_id, len(doc_index)))
        words.append(term_index.setdefault(term, len(term_index)))
        counts.append(int(count))
    return _sparse_corpus(vocab, doc_index, term_index, docs, words, counts)


def _sparse_corpus(vocab, doc_index, term_index, docs, words, counts):
    """The Corpus of entries numbered by ``doc_index`` and ``term_index``, on ``vocab`` if given;
    the first entry with a count below 1 or a term outside ``vocab`` is a DataError."""
    if not counts:
        raise DataError("empty corpus: no triples")
    words, counts = np.array(words, dtype=np.int64), np.array(counts, dtype=np.int64)
    vocab = Vocabulary(term_index) if vocab is None else vocab
    bad = np.flatnonzero((counts < 1) | (words >= len(vocab)))
    if bad.size:
        entry = bad[0]
        if counts[entry] < 1:
            raise DataError(f"invalid count {int(counts[entry])!r} at entry {entry + 1}")
        term = list(term_index)[words[entry]]
        raise DataError(f"term {term!r} at entry {entry + 1} is not in the vocabulary")
    return Corpus.from_entries(vocab, docs, words, counts, [str(d) for d in doc_index])


def doc_language_model(corpus, d):
    """Unsmoothed maximum-likelihood unigram model of document d (length-V probs)."""
    ids, counts = corpus.docs[d]
    probs = np.zeros(corpus.n_terms)
    probs[ids] = counts / counts.sum()
    return probs


def pooled_counts(corpus, in_pool=None):
    """Each term's count summed over the documents d with ``in_pool[d]`` true, all by default.

    The counts are integers, so their float sums are exact below 2**53.
    """
    doc_idx, word_idx, counts = corpus.flat()
    keep = slice(None) if in_pool is None else in_pool[doc_idx]
    return np.bincount(word_idx[keep], weights=counts[keep], minlength=corpus.n_terms)


def background_model(corpus):
    """Pooled unigram model of the whole collection: p(w) = sum_d n(d,w) / total tokens."""
    return pooled_counts(corpus) / corpus.total_tokens


def reindex_corpus(corpus, vocab):
    """Re-express a corpus under a different vocabulary, dropping unknown terms.

    Documents left empty are dropped and recorded on ``dropped_doc_ids``.
    """
    return _remap_terms(corpus, vocab, corpus.flat()[0], corpus.doc_ids,
                        "no documents survive reindexing")


def _remap_terms(corpus, vocab, doc_idx, doc_ids, empty):
    """``corpus``'s entries on ``vocab``, entry i in ``doc_ids[doc_idx[i]]``, less unknown terms."""
    word_idx = np.array([vocab.index.get(t, -1) for t in corpus.vocab.terms])[corpus._word_idx]
    kept = word_idx >= 0
    if not kept.any():
        raise DataError(f"empty corpus: {empty}")
    return Corpus.from_entries(vocab, doc_idx[kept], word_idx[kept], corpus._counts[kept], doc_ids)


@contextlib.contextmanager
def open_input(path):
    """Open ``path`` to read as UTF-8 text, a leading byte-order mark skipped. Bytes that do not
    decode are a DataError naming ``path`` and the reason (no offset: lines decode in chunks)."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from exc


def read_stopwords(path):
    """Read a stopword file, one term per line."""
    with open_input(path) as fh:
        return {line.strip() for line in fh if line.strip()}


def _read_sparse_body(fh, header):
    """The corpus of the sparse file open on ``fh`` past the header line, ``header`` its match."""
    n_docs, n_terms, nnz = (int(g) for g in header.groups())
    terms, doc_index, term_index = [], {}, {}
    docs, words, counts = [], [], []
    for lineno, line in enumerate(fh, start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) == 1 and not counts:
            term_index[parts[0]] = len(terms)  # a repeated term is rejected by Vocabulary
            terms.append(parts[0])
            continue
        if len(parts) != 3:
            raise DataError(f"bad sparse corpus line {lineno}: {line.strip()!r}")
        try:
            count = int(parts[2])
        except ValueError:
            raise DataError(f"invalid count {parts[2]!r} at line {lineno}") from None
        docs.append(doc_index.setdefault(parts[0], len(doc_index)))
        words.append(term_index.setdefault(parts[1], len(term_index)))
        counts.append(count)
    vocab = Vocabulary(terms) if terms else None
    corpus = _sparse_corpus(vocab, doc_index, term_index, docs, words, counts)
    if corpus.n_docs != n_docs or corpus.n_terms != n_terms or len(counts) != nnz:
        raise DataError(
            f"sparse corpus header mismatch: header says docs={n_docs} terms={n_terms} "
            f"nnz={nnz}, file has docs={corpus.n_docs} terms={corpus.n_terms} nnz={len(counts)}"
        )
    return corpus


def write_sparse_corpus(corpus, path):
    """Write a corpus in the sparse format read by load_corpus, vocabulary included.

    That format splits lines on whitespace: an empty term or doc id, or one holding
    whitespace, is a DataError raised before the file is opened. Rows are written one
    at a time, so no list of the corpus's entries is held.
    """
    for kind, names in (("term", corpus.vocab.terms), ("doc id", corpus.doc_ids)):
        bad = next((name for name in map(str, names) if name.split() != [name]), None)
        if bad is not None:
            raise DataError(f"{kind} {bad!r} is empty or holds whitespace: "
                            "the sparse format cannot write it")
    terms = corpus.vocab.terms
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"docs={corpus.n_docs} terms={corpus.n_terms} nnz={corpus._word_idx.size}\n")
        fh.writelines(f"{term}\n" for term in terms)
        for doc_id, (ids, counts) in zip(corpus.doc_ids, corpus.docs):  # int64 counts, exact
            fh.writelines(f"{doc_id} {terms[w]} {c}\n" for w, c in zip(ids.tolist(),
                                                                      counts.tolist()))


def load_corpus(path, min_df=MIN_DF, stopwords=None):
    """Load a corpus file, the package's one corpus-file reader. It opens the file once, through
    ``open_input``, and reads either format through the handle that sniffed the first line.

    A sparse file is a "docs= terms= nnz=" header, the vocabulary one term per line (without
    it, the triples' terms in order of first appearance), then doc/term/count triples. A bad
    line or count is reported by line number, a count below 1 or an unknown term by entry
    number, from 1. Any other file is text, one document per line, read by ``ingest_text``,
    and only text is filtered: a sparse file given stopwords or a non-default ``min_df`` is
    rejected rather than read unfiltered.
    """
    with open_input(path) as fh:
        header = SPARSE_HEADER_RE.match(fh.readline())
        if not header:
            fh.seek(0)
            return ingest_text(fh, min_df=min_df, stopwords=stopwords)
        if stopwords or min_df != MIN_DF:
            raise DataError(f"{path}: min_df and stopwords apply to text corpora only")
        return _read_sparse_body(fh, header)
