"""Output checks applied to every `train` and `eval` result of the benchmark.

Each check returns a list of error strings; an empty list means the output
passed. The checks read only the files the CLI writes and recompute what they
can with plain numpy, so they do not trust the package's own numbers.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# A probability row may miss 1 by accumulated round-off, never by more.
SIMPLEX_TOL = 1e-9
# EM and the nPLSA objective are monotone in exact arithmetic; a decrease larger
# than this share of the previous value is a real decrease, not round-off.
MONOTONE_REL_TOL = 1e-9
# The recomputed log-likelihood and truth errors must match the program's own
# numbers this closely (relative); only summation order differs.
RECOMPUTE_REL_TOL = 1e-7


def simplex_errors(label, rows):
    """Errors unless ``rows`` is a non-empty 2-d array of non-negative rows summing to 1."""
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        return [f"{label}: expected a non-empty 2-d array, got shape {arr.shape}"]
    if not np.all(np.isfinite(arr)):
        return [f"{label}: non-finite entry"]
    errors = []
    if arr.min() < 0.0:
        errors.append(f"{label}: negative entry {arr.min():.3g}")
    worst = float(np.abs(arr.sum(axis=1) - 1.0).max())
    if worst > SIMPLEX_TOL:
        errors.append(f"{label}: a row sums to 1 {worst:+.3g}")
    return errors


def non_decreasing_errors(label, values):
    """Errors for every step where ``values`` falls by more than round-off."""
    errors = []
    for i in range(1, len(values)):
        prev, cur = values[i - 1], values[i]
        if cur < prev - MONOTONE_REL_TOL * abs(prev):
            errors.append(f"{label} decreases at row {i}: {prev!r} -> {cur!r}")
    return errors


def read_trace_column(path, column):
    """Non-empty values of one column of a CLI trace.csv, as floats."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [float(rec[column]) for rec in csv.DictReader(fh) if rec.get(column)]


def count_trace_rows(path, column=None):
    """Rows of a trace.csv, or only the rows where ``column`` is set."""
    with open(path, encoding="utf-8", newline="") as fh:
        return sum(1 for rec in csv.DictReader(fh) if column is None or rec.get(column))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_train(out_dir, algo, max_topics):
    """Check one train output directory. Returns (errors, info).

    ``info`` holds the model's K and its final training log-likelihood.
    """
    model = read_json(out_dir / "model.json")
    topics = np.asarray(model["topics"], dtype=float)
    errors = simplex_errors("topics", topics)
    if model.get("mixes") is not None:
        errors += simplex_errors("mixes", model["mixes"])
    k = topics.shape[0] if topics.ndim == 2 else 0
    if not 1 <= k <= max_topics:
        errors.append(f"K={k} outside [1, {max_topics}]")
    lls = read_trace_column(out_dir / "trace.csv", "loglik")
    if not lls or not math.isfinite(lls[-1]):
        errors.append("final loglik missing or not finite")
    if algo == "plsa":
        errors += non_decreasing_errors("loglik", lls)
    if algo == "nplsa":
        errors += non_decreasing_errors(
            "objective", read_trace_column(out_dir / "trace.csv", "objective"))
    return errors, {"K": k, "final_ll": lls[-1] if lls else None}


def check_eval(out_dir, k):
    """Check one eval output directory against a model with ``k`` topics. Returns (errors, report)."""
    report = read_json(out_dir / "metrics.json")
    errors = []
    if report.get("K") != k:
        errors.append(f"eval reports K={report.get('K')}, model has {k}")
    for key in ("tqe", "tce", "pmi", "perplexity"):
        value = report.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{key} missing or not finite: {value!r}")
    if isinstance(report.get("perplexity"), (int, float)) and report["perplexity"] < 1.0:
        errors.append(f"perplexity {report['perplexity']} below 1")
    return errors, report


def model_loglik(model, docs, terms):
    """Training log-likelihood of a saved model, recomputed with numpy.

    ``docs`` is a list of (term_ids, counts) rows indexed into ``terms``, in
    the order the training file lists them.
    """
    col = {t: j for j, t in enumerate(model["vocab"])}
    topics = np.asarray(model["topics"], dtype=float)
    mixes = np.asarray(model["mixes"], dtype=float)
    total = 0.0
    for d, (ids, counts) in enumerate(docs):
        cols = [col[terms[i]] for i in ids]
        total += float(np.dot(counts, np.log(mixes[d] @ topics[:, cols])))
    return total


def truth_errors(model, truth_topics, truth_terms):
    """(tqe, tce) of a saved model against ground-truth topics, recomputed with numpy."""
    index = {t: i for i, t in enumerate(truth_terms)}
    topics = np.asarray(model["topics"], dtype=float)
    aligned = np.zeros((topics.shape[0], len(truth_terms)))
    for j, term in enumerate(model["vocab"]):
        if term in index:
            aligned[:, index[term]] = topics[:, j]
    dist = np.sqrt(((aligned[:, None, :] - truth_topics[None, :, :]) ** 2).sum(axis=2))
    return float(dist.min(axis=1).mean()), float(dist.min(axis=0).mean())


def close(a, b, rel=RECOMPUTE_REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
