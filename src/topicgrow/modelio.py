"""Model, trace, and report files.

Model files are JSON: {"vocab": [terms], "topics": [[probs]], "mixes":
[[probs]] or null, "meta": {...}}. Trace files are CSV with the header
"iter,K,loglik,objective,diversity,epsilon[,query_distance,closest_topic],wall_ms";
fields that do not apply to an algorithm are written empty.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .corpus import Vocabulary
from .errors import DataError

BASE_COLUMNS = ["iter", "K", "loglik", "objective", "diversity", "epsilon"]
QUERY_COLUMNS = ["query_distance", "closest_topic"]


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_model(path, vocab, topics, mixes=None, meta=None):
    payload = {
        "vocab": list(vocab.terms),
        "topics": np.asarray(topics).tolist(),
        "mixes": None if mixes is None else np.asarray(mixes).tolist(),
        "meta": meta or {},
    }
    write_json(path, payload)


def read_model(path):
    """Load a model file into (vocab, topics, mixes or None, meta)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        vocab = Vocabulary(payload["vocab"])
        topics = np.asarray(payload["topics"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad model file {path}: {exc}") from exc
    if topics.ndim != 2 or topics.shape[1] != len(vocab):
        raise DataError(f"bad model file {path}: topic shape does not match vocabulary")
    mixes = payload.get("mixes")
    if mixes is not None:
        mixes = np.asarray(mixes, dtype=float)
    return vocab, topics, mixes, payload.get("meta", {})


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trace(path, rows, query_cols=False):
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
