"""Run the K-recovery grid of farthest-first growth and record it in BENCH_kgrid.json.

Run from the repository root:

    python3 tools/kgrid.py
    python3 tools/kgrid.py --checkout ../parent --seeds 1 2 3
    python3 tools/kgrid.py --summary --seeds 4 5 6

A cell is a synthetic corpus (profile, K* true topics, seed; the seed also
seeds training) trained by ``auto`` or by ``query`` at one stop-rule
patience, with no spawn budget, or by ``nplsa`` at one spawn threshold per
token: epsilon is ``eps_tok`` times the profile's document length, and the
row's patience is None. The query is the top words of the truth's first
topic. The grid imports ``topicgrow`` from the checkout's ``src/`` (this
repository by default; another clone measures another commit) and appends one
row per run to ``BENCH_kgrid.json`` at the root of this repository: the
checkout's commit, whether its ``src/`` differs from that commit, the
post-spawn refit's pass cap and the new-topic weight past which a document
runs on to the full budget (each None where the checkout has none), the cell, the
chosen K, tce against the truth, the negative log-likelihood per token of the
final fit and the training seconds. ``--summary`` prints, per commit, cap,
uptake and cell, the exact-K count, the median |K - K*| and the median tce
over the chosen seeds instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from itertools import product
from pathlib import Path

from bench_record import append_row, git

ROOT = Path(__file__).resolve().parent.parent
QUERY_WORDS = 5  # top words of the truth's first topic that make the query


def load_topicgrow(checkout):
    """Import ``topicgrow`` from ``checkout/src``. Returns the modules the grid uses."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    from topicgrow import autostop, metrics, nplsa, plsa, synthgen

    return autostop, metrics, plsa, synthgen, nplsa


def run_cell(tg, profile, k_true, algo, patience, eps_tok, seed, n_docs=None):
    """Train one cell. Returns its row fields: K, tce, nll per token and seconds."""
    autostop, metrics, plsa, synthgen, nplsa = tg
    sizes = dict(synthgen.PROFILES[profile], n_topics=k_true)
    if n_docs is not None:
        sizes["n_docs"] = n_docs
    corpus, truth = synthgen.generate_corpus(synthgen.SynthConfig(seed=seed, **sizes))
    config = plsa.EmConfig(seed=seed)
    start = time.perf_counter()
    if algo == "nplsa":
        topics, _, trace = nplsa.train_nplsa(corpus, eps_tok * sizes["doc_len"], config)
    else:
        if hasattr(autostop, "PATIENCE"):
            stop = {"patience": patience}
        else:  # a checkout whose trainers take a stop detector
            mode = "maximize" if algo == "auto" else "minimize"
            stop = {"detector": autostop.StopDetector(mode=mode, patience=patience)}
        if algo == "auto":
            topics, _, trace = autostop.train_parameter_free(corpus, config, **stop)
        else:
            query = [corpus.vocab.terms[w]
                     for w in metrics.top_words(truth.topics[0], QUERY_WORDS)]
            topics, _, trace = autostop.train_weakly_supervised(corpus, query, config, **stop)
    seconds = time.perf_counter() - start
    return {"k": int(topics.shape[0]),
            "tce": metrics.topic_coverage_error(topics, truth.topics),
            "nll_per_token": -trace[-1].loglik / corpus.total_tokens,
            "seconds": round(seconds, 4)}


CELL = ("profile", "k_true", "algo", "patience", "eps_tok")  # rows before nplsa lack eps_tok


def summarize(rows, seeds):
    """Lines of exact-K count, median |K - K*| and median tce per (commit, cap, uptake, cell)
    over ``seeds``."""
    groups = defaultdict(list)
    for row in rows:
        if row["seed"] in seeds:
            groups[(str(row["commit"])[:9], row["refit_passes"], row.get("refit_uptake"))
                   + tuple(row.get(f) for f in CELL)].append(row)
    lines = ["commit    cap uptake profile k*  algo  pat  eps  exact  K            |K-K*|  "
             "median tce"]
    for key in sorted(groups, key=lambda g: tuple(str(f) for f in g)):
        runs = sorted(groups[key], key=lambda r: r["seed"])
        commit, cap, uptake, profile, k_true, algo, patience, eps_tok = key
        exact = sum(r["k"] == k_true for r in runs)
        ks = "/".join(str(r["k"]) for r in runs)
        miss = statistics.median(abs(r["k"] - k_true) for r in runs)
        lines.append(f"{commit} {str(cap):>4} {str(uptake):>6} {profile:>7} {k_true:>3} "
                     f"{algo:>5} {str(patience):>4} {str(eps_tok):>4} "
                     f"{exact:>2}/{len(runs):<2}  {ks:<12} {miss:>6g}  "
                     f"{statistics.median(r['tce'] for r in runs):.4f}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="repository whose sources are run (default: this one)")
    parser.add_argument("--profiles", nargs="+", default=["desk", "paper"])
    parser.add_argument("--k-true", nargs="+", type=int, default=[10, 20, 40])
    parser.add_argument("--algos", nargs="+", choices=["auto", "query", "nplsa"],
                        default=["auto", "query"])
    parser.add_argument("--patience", nargs="+", type=int, default=[3, 8],
                        help="stop-rule patiences of auto and query")
    parser.add_argument("--eps-tok", nargs="+", type=float, default=[1.5],
                        help="nplsa spawn thresholds, in nats per token of a document")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 7)))
    parser.add_argument("--n-docs", type=int, help="override the profile's corpus size")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_kgrid.json")
    parser.add_argument("--summary", action="store_true",
                        help="print the recorded rows' summary instead of running")
    args = parser.parse_args(argv)
    if args.summary:
        rows = json.loads(args.out.read_text(encoding="utf-8"))
        print("\n".join(summarize(rows, set(args.seeds))))
        return 0

    tg = load_topicgrow(args.checkout)
    status = git(args.checkout, "status", "--porcelain", "--untracked-files=no", "--", "src")
    run = {"commit": git(args.checkout, "rev-parse", "HEAD"),
           "dirty": None if status is None else bool(status),
           "refit_passes": getattr(tg[0], "_SPAWN_REFIT_PASSES", None),
           "refit_uptake": getattr(tg[0], "_SPAWN_UPTAKE", None)}
    variants = []  # (algo, patience, eps_tok)
    for algo in args.algos:
        variants += ([(algo, None, eps) for eps in args.eps_tok] if algo == "nplsa"
                     else [(algo, patience, None) for patience in args.patience])
    for profile, k_true, variant, seed in product(args.profiles, args.k_true, variants,
                                                  args.seeds):
        cell = (profile, k_true, *variant, seed)
        row = {**run, **dict(zip((*CELL, "seed"), cell)), "n_docs": args.n_docs,
               **run_cell(tg, *cell, n_docs=args.n_docs)}
        append_row(args.out, row)
        setting = f"eps_tok {row['eps_tok']}" if row["algo"] == "nplsa" else f"p{row['patience']}"
        print(f"{row['profile']} K*={row['k_true']} {row['algo']} {setting} "
              f"seed {row['seed']}: K={row['k']} tce {row['tce']:.4f} {row['seconds']:.2f} s",
              flush=True)
    return 0


if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")  # before main imports numpy: one BLAS thread, as perfbench
    sys.exit(main())
