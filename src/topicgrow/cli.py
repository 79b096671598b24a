"""Command-line entry point: synth, train, and eval subcommands.

Every run requires an explicit, non-negative --seed and echoes its resolved parameters and
library versions (config.json; eval: the "config" key of metrics.json), so any output can be
reproduced exactly. One table, ``_SCOPED``, states which runs take each scoped flag and its
default; for train it also fixes each trainer's keyword arguments and the flags echoed into
model.json's meta, so train makes one trainer call whatever --algo is.
--out is made only once a run's results are computed, so a run that fails before writing
leaves none. Exit codes: 0 success, 1 usage error, 2 data error, 3 algorithmic failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .autostop import (
    DEFAULT_LAM,
    PATIENCE,
    diversity,
    train_parameter_free,
    train_weakly_supervised,
)
from .corpus import (MIN_DF, Vocabulary, load_corpus, open_input, read_stopwords,
                     reindex_corpus, write_sparse_corpus)
from .errors import AlgorithmError, DataError
from .metrics import (
    DEFAULT_SPLIT_FRACTION,
    DEFAULT_TOP_N,
    CooccurrenceStats,
    perplexity,
    pmi_coherence,
    topic_coverage_error,
    topic_quality_error,
)
from .modelio import check_rows, read_model, write_json, write_model, write_trace
from .nplsa import MAX_TOPICS, train_nplsa
from .plsa import EmConfig, train_plsa
from .synthgen import PROFILES, RNG_ALGORITHM, SynthConfig, generate_corpus

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALGORITHM = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(parser):
    parser.add_argument("--seed", type=int, required=True,
                        help="run seed; required so every run is reproducible")
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    parser.add_argument("--verbose", action="store_true", help="log progress at INFO level")


_SWITCHES = {"--verbose"}  # every store-true flag; a config file gives each true or false


def build_parser():
    synth_defaults = SynthConfig(seed=0)
    parser = _Parser(prog="topicgrow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    _add_common(synth)
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--profile", choices=sorted(PROFILES), default="paper")
    synth.add_argument("--docs", type=int, help="override: number of documents")
    synth.add_argument("--doc-len", type=int, help="override: tokens per document")
    synth.add_argument("--topics", type=int, help="override: number of topics")
    synth.add_argument("--vocab", type=int, help="override: vocabulary size")
    synth.add_argument("--alpha", type=float, default=synth_defaults.alpha)
    synth.add_argument("--beta", type=float, default=synth_defaults.beta)
    synth.add_argument("--min-topic-dist", type=float, default=synth_defaults.min_topic_dist)

    train = sub.add_parser("train", help="train a topic model on a corpus file")
    _add_common(train)
    train.add_argument("--algo", choices=["plsa", "nplsa", "auto", "query"], required=True)
    train.add_argument("--corpus", required=True, help="text or sparse corpus file")
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--k", type=int, help="topic count (plsa only)")
    train.add_argument("--epsilon", type=float, help="spawn threshold in nats (nplsa only)")
    train.add_argument("--query", help="whitespace-separated query terms (query only)")
    train.add_argument("--lambda", dest="lam", type=float,
                       help="query/background mixture weight for pseudo feedback "
                       f"(query; default {DEFAULT_LAM})")
    train.add_argument("--patience", type=int, help="stalled iterations before the stop "
                       f"rule ends growth (auto/query; default {PATIENCE})")
    train.add_argument("--max-spawns", type=int,
                       help="cap growth iterations (auto/query; full-curve runs)")
    train.add_argument("--max-topics", type=int,
                       help=f"topic cap (nplsa/auto/query; default {MAX_TOPICS})")
    train.add_argument("--order-seed", type=int,
                       help="shuffle the document sweep order (nplsa only)")
    train.add_argument("--max-iters", type=int, default=EmConfig.max_iters)
    train.add_argument("--rel-tol", type=float, default=EmConfig.rel_tol)
    train.add_argument("--floor", type=float, default=EmConfig.smoothing_floor)
    train.add_argument("--min-df", type=int, default=MIN_DF, help="text ingestion: df filter")
    train.add_argument("--stopwords", help="text ingestion: stopword file")

    ev = sub.add_parser("eval", help="evaluate a trained model")
    _add_common(ev)
    ev.add_argument("--model", required=True, help="model.json from a train run")
    ev.add_argument("--out", required=True, help="output directory for metrics.json")
    ev.add_argument("--corpus", help="held-out corpus for perplexity")
    ev.add_argument("--truth", help="truth.json for quality/coverage error")
    ev.add_argument("--reference", help="reference corpus for PMI coherence")
    ev.add_argument("--split-fraction", type=float, help="perplexity: share of a document seen "
                    f"(with --corpus; default {DEFAULT_SPLIT_FRACTION})")
    ev.add_argument("--top-n", type=int,
                    help=f"words per topic for PMI (with --reference; default {DEFAULT_TOP_N})")
    ev.add_argument("--min-df", type=int,
                    help=f"text ingestion of --reference: df filter (default {MIN_DF})")
    ev.add_argument("--stopwords", help="text ingestion of --reference: stopword file")
    return parser


def _read_config_file(path):
    """Flags from a key=value file; a key in ``_SWITCHES`` takes true (the flag) or false."""
    pairs = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataError(f"bad config line {lineno}: {line!r}")
            key, value = line.split("=", 1)
            flag, value = "--" + key.strip().replace("_", "-"), value.strip()
            if flag not in _SWITCHES:
                pairs.extend([flag, value])
            elif value.lower() == "true":
                pairs.append(flag)
            elif value.lower() != "false":
                raise DataError(f"bad config line {lineno}: {line!r}: {flag} takes true or false")
    return pairs


def _inject_config(argv):
    """Insert config-file pairs after the subcommand so real flags override them.

    The file is named by ``--config PATH`` or ``--config=PATH``. Any other
    spelling argparse accepts (an abbreviation such as ``--conf``) is left in
    ``argv``, and ``main`` rejects it after parsing.
    """
    idx = next((i for i, arg in enumerate(argv) if arg.split("=", 1)[0] == "--config"), None)
    if idx is None:
        return argv
    if "=" in argv[idx]:
        path, end = argv[idx].split("=", 1)[1], idx + 1
    elif idx + 1 < len(argv):
        path, end = argv[idx + 1], idx + 2
    else:
        raise UsageError("--config requires a path")
    pairs = _read_config_file(path)
    rest = argv[:idx] + argv[end:]
    if not rest:
        raise UsageError("missing subcommand")
    return rest[:1] + pairs + rest[1:]


def _echo(args, extra=None):
    payload = {k: v for k, v in vars(args).items() if k not in ("config", "verbose")}
    payload["versions"] = {"topicgrow": __version__, "numpy": np.__version__,
                           "python": ".".join(str(v) for v in sys.version_info[:3])}
    if extra:
        payload.update(extra)
    return payload


def _cmd_synth(args):
    params = dict(PROFILES[args.profile])
    for key, flag in (("n_docs", "docs"), ("doc_len", "doc_len"),
                      ("n_topics", "topics"), ("vocab_size", "vocab")):
        value = getattr(args, flag)
        if value is not None:
            params[key] = value
    config = SynthConfig(
        seed=args.seed,
        alpha=args.alpha,
        beta=args.beta,
        min_topic_dist=args.min_topic_dist,
        **params,
    )
    corpus, truth = generate_corpus(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sparse_corpus(corpus, out_dir / "corpus.sparse")
    write_json(
        out_dir / "truth.json",
        {
            "topics": truth.topics.tolist(),
            "mixes": truth.doc_mixes.tolist(),
            "config": {**asdict(config), "rng": RNG_ALGORITHM, "vocab": corpus.vocab.terms},
        },
    )
    np.save(out_dir / "assignments_topics.npy", truth.token_topics)
    np.save(out_dir / "assignments_words.npy", truth.token_words)
    write_json(out_dir / "config.json", _echo(args))
    print(f"wrote {corpus.n_docs} docs, {config.n_topics} truth topics to {out_dir}")
    return EXIT_OK


_REQUIRED = object()  # a default that makes the flag required on the runs it applies to
#: Each scoped flag's dest -> (the --algo values, or the eval input, it applies to; the
#: library default filled when it is unset, which config.json echoes), checked in this order.
#: A train row is also a keyword argument of each trainer it applies to (--query's as
#: ``query_terms``), and a _REQUIRED flag's value is echoed into model.json's meta.
_SCOPED = {
    "train": {"k": ("plsa", _REQUIRED), "epsilon": ("nplsa", _REQUIRED),
              "query": ("query", _REQUIRED), "order_seed": ("nplsa", None),
              "max_spawns": ("auto/query", None), "patience": ("auto/query", PATIENCE),
              "lam": ("query", DEFAULT_LAM), "max_topics": ("nplsa/auto/query", MAX_TOPICS)},
    "eval": {"split_fraction": ("corpus", DEFAULT_SPLIT_FRACTION),
             "top_n": ("reference", DEFAULT_TOP_N), "min_df": ("reference", MIN_DF),
             "stopwords": ("reference", None)},
}


_TRAINERS = {"plsa": train_plsa, "nplsa": train_nplsa, "auto": train_parameter_free,
             "query": train_weakly_supervised}


def _resolve_scoped_flags(args):
    """Reject a flag the run ignores or a required one it lacks; fill each unset default."""
    for dest, (runs, default) in _SCOPED.get(args.command, {}).items():
        flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
        if args.command == "train":
            applies, scope = args.algo in runs.split("/"), f"to --algo {runs}"
        else:
            applies, scope = getattr(args, runs) is not None, f"with --{runs}"
        if getattr(args, dest) is not None:
            if not applies:
                raise UsageError(f"{flag} only applies {scope}")
        elif default is not _REQUIRED:
            setattr(args, dest, default)
        elif applies:
            raise UsageError(f"--algo {args.algo} requires {flag}")


def _cmd_train(args):
    stopwords = read_stopwords(args.stopwords) if args.stopwords else None
    corpus = load_corpus(args.corpus, min_df=args.min_df, stopwords=stopwords)
    config = EmConfig(seed=args.seed, max_iters=args.max_iters, rel_tol=args.rel_tol,
                      smoothing_floor=args.floor)
    flags = {dest: getattr(args, dest) for dest, (runs, _) in _SCOPED["train"].items()
             if args.algo in runs.split("/")}
    kwargs = {dest: value for dest, value in flags.items() if dest != "query"}
    if "query" in flags:  # the library takes the terms as a list
        kwargs["query_terms"] = flags["query"].split()
    topics, mixes, trace = _TRAINERS[args.algo](corpus, config=config, **kwargs)

    meta = {"algo": args.algo, "seed": args.seed, "smoothing_floor": config.smoothing_floor,
            "K": int(topics.shape[0]), "iters": len(trace)}
    meta.update((dest, value) for dest, value in flags.items()
                if _SCOPED["train"][dest][1] is _REQUIRED)
    rollback = next((row for row in trace if row.phase == "rollback"), None)
    if rollback is not None:  # growth: the K it kept and that K's stop-rule score
        score = "diversity" if rollback.diversity is not None else "query_distance"
        meta["best_k"], meta[f"best_{score}"] = rollback.k, getattr(rollback, score)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_model(out_dir / "model.json", corpus.vocab, topics, mixes=mixes, meta=meta)
    write_trace(out_dir / "trace.csv", trace)
    stop = " then ".join(row.stop for row in trace if row.stop)  # growth's, then EM's
    write_json(out_dir / "config.json", _echo(args, extra={"stop": stop}))
    final_ll = next((r.loglik for r in reversed(trace) if r.loglik is not None), None)
    print(f"trained {args.algo}: K={meta['K']} loglik={final_ll} ({len(trace)} trace rows, "
          f"stop: {stop})")
    return EXIT_OK


def _truth_errors(topics, vocab, truth_path):
    with open_input(truth_path) as fh:
        try:
            truth = json.load(fh)
            truth_vocab = Vocabulary(truth["config"]["vocab"])
            truth_topics = np.asarray(truth["topics"], dtype=float)
        except (DataError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad truth file {truth_path}: {exc}") from exc
    check_rows(truth_path, "truth", "topic", truth_topics, len(truth_vocab))
    shared = [j for j, term in enumerate(vocab.terms) if term in truth_vocab.index]
    if not shared:
        raise DataError(f"the model shares no term with the truth file {truth_path}")
    aligned = np.zeros((topics.shape[0], len(truth_vocab)))
    aligned[:, [truth_vocab.index[vocab.terms[j]] for j in shared]] = topics[:, shared]
    return topic_quality_error(aligned, truth_topics), topic_coverage_error(aligned, truth_topics)


def _cmd_eval(args):
    vocab, topics, _, meta = read_model(args.model)
    report = {
        "K": int(topics.shape[0]),
        "tqe": None,
        "tce": None,
        "pmi": None,
        "perplexity": None,
        "diversity": diversity(topics) if topics.shape[0] >= 2 else None,
    }
    if args.truth:
        report["tqe"], report["tce"] = _truth_errors(topics, vocab, args.truth)
    if args.corpus:  # read unfiltered: reindexing drops every term the model lacks
        held_out = reindex_corpus(load_corpus(args.corpus), vocab)
        report["perplexity"] = perplexity(held_out, topics, args.seed,
                                          split_fraction=args.split_fraction)
    if args.reference:
        stopwords = read_stopwords(args.stopwords) if args.stopwords else None
        reference = load_corpus(args.reference, min_df=args.min_df, stopwords=stopwords)
        stats = CooccurrenceStats.from_corpus(reference)
        report["pmi"] = pmi_coherence(topics, vocab, stats, top_n=args.top_n)
    report["config"] = _echo(args, extra={"model_meta": meta})
    Path(args.out).mkdir(parents=True, exist_ok=True)
    write_json(Path(args.out) / "metrics.json", report)
    summary = {k: report[k] for k in ("K", "tqe", "tce", "pmi", "perplexity", "diversity")}
    print(f"metrics: {summary}")
    return EXIT_OK


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_inject_config(list(argv)))
        if args.seed < 0:  # whatever the run uses the seed for, or if it uses none
            raise DataError("seed must be non-negative")
        if args.config is not None:  # a second --config, or one argparse matched by prefix
            raise UsageError("spell --config out, once: --config PATH or --config=PATH")
        _resolve_scoped_flags(args)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "train":
            return _cmd_train(args)
        return _cmd_eval(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AlgorithmError as exc:
        print(f"algorithm failure: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM


if __name__ == "__main__":
    sys.exit(main())
