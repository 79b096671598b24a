"""Span tracing of the topicgrow package from outside it.

The tracer replaces public functions with timing wrappers in every module
namespace that binds them (``nplsa`` and ``metrics`` import ``fold_in`` by
name, ``autostop`` imports ``fold_in_all``, ``em_refine`` and
``log_likelihood``), so a call is seen whichever module makes it. Each call
records a span (name, start, end, parent) in memory; counts and self times are
computed from the spans after the pass. A target that no longer exists is
reported as missing, and every metric that depends on it is reported as None.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


def _write_model_info(bound, result):
    return {"bytes": os.path.getsize(bound["path"])}


def _cooc_info(bound, result):
    return {"pairs": len(result.co_df)}


# (span name, defining module, attribute path, info hook). The hook reads the
# bound call arguments and the result after the call returns.
SPAN_TARGETS = [
    ("corpus.load_corpus", "topicgrow.corpus", "load_corpus", None),
    ("corpus.reindex_corpus", "topicgrow.corpus", "reindex_corpus", None),
    ("modelio.write_model", "topicgrow.modelio", "write_model", _write_model_info),
    ("modelio.read_model", "topicgrow.modelio", "read_model", None),
    ("plsa.em_refine", "topicgrow.plsa", "em_refine", None),
    ("plsa.log_likelihood", "topicgrow.plsa", "log_likelihood", None),
    ("plsa.fold_in_all", "topicgrow.plsa", "fold_in_all", None),
    ("plsa.fold_in", "topicgrow.plsa", "fold_in", None),
    ("plsa.e_step_doc", "topicgrow.plsa", "e_step_doc", None),
    ("nplsa.train_nplsa", "topicgrow.nplsa", "train_nplsa", None),
    ("autostop.train_parameter_free", "topicgrow.autostop", "train_parameter_free", None),
    ("autostop.diversity", "topicgrow.autostop", "diversity", None),
    ("metrics.perplexity", "topicgrow.metrics", "perplexity", None),
    ("metrics.cooc", "topicgrow.metrics", "CooccurrenceStats.from_corpus", _cooc_info),
    ("metrics.pmi_coherence", "topicgrow.metrics", "pmi_coherence", None),
]

# Calls counted without a span, only when made from the named module:
# nPLSA spawns a topic by promoting a document's language model.
COUNT_TARGETS = [
    ("nplsa.doc_language_model", "topicgrow.nplsa", "doc_language_model"),
]

# Per-layer metric -> the span whose self time it sums. Together with
# cli.self_s these partition the traced train and eval wall time.
SELF_TIME_METRICS = {
    "corpus.load_s": "corpus.load_corpus",
    "corpus.reindex_s": "corpus.reindex_corpus",
    "modelio.write_model_s": "modelio.write_model",
    "modelio.read_model_s": "modelio.read_model",
    "plsa.em_self_s": "plsa.em_refine",
    "plsa.loglik_s": "plsa.log_likelihood",
    "plsa.fold_in_all_s": "plsa.fold_in_all",
    "plsa.fold_in_s": "plsa.fold_in",
    "plsa.e_step_doc_s": "plsa.e_step_doc",
    "nplsa.self_s": "nplsa.train_nplsa",
    "autostop.grow_self_s": "autostop.train_parameter_free",
    "autostop.diversity_s": "autostop.diversity",
    "metrics.perplexity_s": "metrics.perplexity",
    "metrics.cooc_s": "metrics.cooc",
    "metrics.pmi_s": "metrics.pmi_coherence",
}

# Per-layer metric -> the span or counter whose calls it counts.
CALL_COUNT_METRICS = {
    "plsa.loglik_calls": "plsa.log_likelihood",
    "plsa.fold_in_all_calls": "plsa.fold_in_all",
    "plsa.fold_in_calls": "plsa.fold_in",
    "plsa.e_step_doc_calls": "plsa.e_step_doc",
    "autostop.diversity_calls": "autostop.diversity",
    "nplsa.spawns": "nplsa.doc_language_model",
}


def _resolve(module_name, path):
    """(owner object, attribute name, current value) of a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, inspect.getattr_static(owner, attr)


class Tracer:
    """Installs wrappers, records spans and counts, and restores the originals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.missing = []
        self._stack = []
        self._patched = []

    def reset(self):
        self.spans = []
        self.counts = {}

    def _span_wrapper(self, name, fn, info_hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if info_hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.info = info_hook(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, OSError):
                    span.info = None
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in every loaded topicgrow module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "topicgrow" or n.startswith("topicgrow."))]
        for name, module_name, path, info_hook in SPAN_TARGETS:
            try:
                owner, attr, raw = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                # A class attribute is shared by every module that imports the class.
                self._patch(owner, attr, classmethod(self._span_wrapper(name, raw.__func__, info_hook)))
                continue
            wrapper = self._span_wrapper(name, raw, info_hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, wrapper)
        for name, module_name, path in COUNT_TARGETS:
            try:
                owner, attr, raw = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._patch(owner, attr, self._count_wrapper(name, raw))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []

    def summary(self, covered_s):
        """Per-layer metrics of the spans recorded since the last reset.

        ``covered_s`` is the wall time of the traced train and eval calls; the
        part of it outside every root span is reported as ``cli.self_s``.
        """
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.duration
        calls, self_s = {}, {}
        for i, span in enumerate(self.spans):
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - child_s[i]

        refine_s = sum((s.duration for s in self.spans if s.name == "plsa.em_refine"
                        and s.parent is not None
                        and self.spans[s.parent].name == "autostop.train_parameter_free"), 0.0)
        cooc = [s.info["pairs"] if s.info else None for s in self.spans if s.name == "metrics.cooc"]
        model_bytes = [s.info["bytes"] if s.info else None
                       for s in self.spans if s.name == "modelio.write_model"]

        out = {}
        for metric, span_name in SELF_TIME_METRICS.items():
            out[metric] = self_s.get(span_name, 0.0)
        for metric, name in CALL_COUNT_METRICS.items():
            out[metric] = calls.get(name, self.counts.get(name, 0))
        out["autostop.refine_s"] = refine_s
        out["metrics.cooc_pairs"] = None if None in cooc else (sum(cooc) / len(cooc) if cooc else 0)
        out["modelio.model_bytes"] = None if None in model_bytes else sum(model_bytes)
        out["cli.self_s"] = covered_s - sum(s.duration for s in self.spans if s.parent is None)

        # A metric built from a missing target is unknown, not zero.
        depends = {**SELF_TIME_METRICS, **CALL_COUNT_METRICS,
                   "autostop.refine_s": "autostop.train_parameter_free",
                   "metrics.cooc_pairs": "metrics.cooc", "modelio.model_bytes": "modelio.write_model"}
        for metric, name in depends.items():
            if name in self.missing:
                out[metric] = None
        return out
