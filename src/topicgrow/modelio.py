"""Model, trace, and report files.

Model files are JSON: {"meta": {...}, "mixes": [[probs]] or null, "topics":
[[probs]], "vocab": [terms]}, keys in that order. Each key starts a line;
"meta" and "vocab" take one line each, and every topic row and mix row is a
line of its own. Floats are written as their ``repr``, so a file reads back
bit for bit. Trace files are CSV with the header
"iter,K,loglik,objective,diversity,epsilon[,query_distance,closest_topic],wall_ms";
fields that do not apply to an algorithm are written empty.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .corpus import Vocabulary, open_input
from .errors import DataError

BASE_COLUMNS = ["iter", "K", "loglik", "objective", "diversity", "epsilon"]
QUERY_COLUMNS = ["query_distance", "closest_topic"]


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_model(path, vocab, topics, mixes=None, meta=None):
    """Write a model file in the layout of the module docstring.

    Rows go through ``json.dumps`` one at a time: it runs CPython's C encoder,
    which ``json.dump`` never uses, and one row's text is all it holds at once.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "meta": ' + json.dumps(meta or {}, sort_keys=True) + ',\n  "mixes": ')
        _write_rows(fh, mixes)
        fh.write(',\n  "topics": ')
        _write_rows(fh, topics)
        fh.write(',\n  "vocab": ' + json.dumps(list(vocab.terms)) + "\n}\n")


def _write_rows(fh, rows):
    """Write a 2-d array as a JSON list with one row per line, or ``null`` for None."""
    if rows is None:
        fh.write("null")
        return
    fh.write("[")
    for i, row in enumerate(np.asarray(rows, dtype=float)):
        fh.write(("\n    " if i == 0 else ",\n    ") + json.dumps(row.tolist()))
    fh.write("\n  ]")


def check_rows(path, kind, name, rows, width):
    """Raise a DataError naming the ``kind`` file ``path`` unless ``rows`` are simplex rows.

    That is 2-d, ``width`` wide, each ``name`` row finite, non-negative, summing to 1 within 1e-9.
    """
    if rows.ndim != 2 or rows.shape[1] != width:
        raise DataError(f"bad {kind} file {path}: {name} shape {rows.shape} is not (n, {width})")
    if not (np.all(np.isfinite(rows)) and np.all(rows >= 0.0)
            and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9)):
        raise DataError(f"bad {kind} file {path}: a {name} row is not a probability distribution")


def read_model(path):
    """Load a model file into (vocab, topics, mixes or None, meta).

    The file opens through ``open_input``. Topic rows and, when present, mix rows
    must be finite, non-negative and sum to 1 within 1e-9; anything else is a DataError.
    """
    with open_input(path) as fh:
        try:
            payload = json.load(fh)
            vocab = Vocabulary(payload["vocab"])
            topics = np.asarray(payload["topics"], dtype=float)
            mixes = payload.get("mixes")
            if mixes is not None:
                mixes = np.asarray(mixes, dtype=float)
        except (DataError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad model file {path}: {exc}") from exc
    check_rows(path, "model", "topic", topics, len(vocab))
    if mixes is not None:
        check_rows(path, "model", "mix", mixes, topics.shape[0])
    return vocab, topics, mixes, payload.get("meta", {})


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's own repr is "np.float64(...)"
    return str(value)


def write_trace(path, rows):
    """Write trace rows as CSV; the query columns are written when a row has a query distance."""
    query_cols = any(row.query_distance is not None for row in rows)
    columns = BASE_COLUMNS + (QUERY_COLUMNS if query_cols else []) + ["wall_ms"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            record = [row.iteration, row.k, _fmt(row.loglik), _fmt(row.objective),
                      _fmt(row.diversity), _fmt(row.epsilon)]
            if query_cols:
                record += [_fmt(row.query_distance), _fmt(row.closest_topic)]
            record.append(_fmt(row.wall_ms))
            writer.writerow(record)
