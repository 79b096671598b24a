"""Benchmark of the topicgrow CLI: train/eval time, memory and fit quality.

Run from the repository root:

    python3 perfbench/run.py --workload plsa-sweep --seed 1 --seconds 5 --trace 0

Set-up generates seeded synthetic corpora with ``synthgen.generate_corpus``
and writes them as one-document-per-line text files. A child process
(worker.py) then calls ``topicgrow.cli.main`` for every ``train`` and ``eval``
of the workload and times each call. Every output is checked (checks.py).
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the worker adds traced passes
(tracing.py) and the JSON object carries the per-layer metrics instead.
``--tiny`` shrinks every corpus so the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import os

# Plain single-threaded baseline: BLAS gets one thread, set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORK_DIR = ".perfbench_work"  # inputs and outputs of a run; removed when it ends
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0
MAX_TOPICS = 1000  # the CLI's default --max-topics; no workload overrides it


@dataclass(frozen=True)
class Workload:
    """A workload: which corpora set-up generates and which models each one trains.

    Corpus i is generated with synth seed ``seed + 1000 * i``; its first
    ``n_docs`` documents are the training file and the ``held_out`` documents
    after them, drawn in the same generator run, are the perplexity file.
    """

    n_docs: int
    doc_len: int
    n_topics: int
    vocab_size: int
    held_out: int
    corpora: int
    models: tuple  # (label, train flags), trained on every corpus


WORKLOADS = {
    # Fixed-K EM kernel across the K range where its cost grows; no fold-in.
    "plsa-sweep": Workload(1000, 200, 20, 1000, 200, 2, tuple(
        (f"plsa-k{k}", ("--algo", "plsa", "--k", str(k))) for k in (10, 20, 40))),
    # Farthest-first growth to a fixed spawn budget (patience above it), then refine.
    "grow-auto": Workload(1000, 200, 20, 1000, 200, 1, (
        ("auto", ("--algo", "auto", "--max-spawns", "24", "--patience", "25")),)),
    # Per-document nPLSA path; the topic set changes in the middle of a sweep.
    # The sweep cap cuts only the slow tail: models took 36 to 106 sweeps.
    "nplsa-desk": Workload(200, 100, 10, 500, 50, 5, (
        ("nplsa", ("--algo", "nplsa", "--epsilon", "150", "--max-iters", "60")),
        ("nplsa-o7", ("--algo", "nplsa", "--epsilon", "150", "--max-iters", "60",
                      "--order-seed", "7")),
    )),
}

TINY = dict(n_docs=40, doc_len=40, n_topics=3, vocab_size=60, held_out=10)

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "peak_rss_mb": "MB",
    "tce": "L2", "k_error": "ratio", "nll_per_token": "nats",
    "perplexity": "words", "pmi": "nats", "pass_share": "ratio",
}

PER_LAYER_UNITS = {
    "synthgen.generate_s": "s",
    "corpus.load_s": "s", "corpus.reindex_s": "s",
    "modelio.write_model_s": "s", "modelio.model_bytes": "B", "modelio.read_model_s": "s",
    "plsa.em_iters": "count", "plsa.em_self_s": "s", "plsa.em_ns_per_entry": "ns",
    "plsa.loglik_calls": "count", "plsa.loglik_s": "s",
    "plsa.fold_in_all_calls": "count", "plsa.fold_in_all_s": "s",
    "plsa.fold_in_calls": "count", "plsa.fold_in_s": "s",
    "plsa.e_step_doc_calls": "count", "plsa.e_step_doc_s": "s",
    "nplsa.sweeps": "count", "nplsa.spawns": "count", "nplsa.self_s": "s",
    "autostop.grow_iters": "count", "autostop.grow_self_s": "s",
    "autostop.diversity_calls": "count", "autostop.diversity_s": "s",
    "autostop.refine_iters": "count", "autostop.refine_s": "s",
    "metrics.perplexity_s": "s", "metrics.cooc_s": "s", "metrics.cooc_pairs": "count",
    "metrics.pmi_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Prepared:
    """One generated corpus, as set-up wrote it and as the checks need it."""

    path: Path
    terms: list
    docs: list  # training rows (term ids into ``terms``, counts)
    truth_topics: np.ndarray

    @property
    def tokens(self):
        return int(sum(c.sum() for _, c in self.docs))

    @property
    def nnz(self):
        return sum(ids.size for ids, _ in self.docs)


def write_docs(path, terms, docs):
    """Write documents as whitespace-separated tokens, one document per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for ids, counts in docs:
            fh.write(" ".join(np.repeat(terms[ids], counts)) + "\n")


def set_up(workload, seed, work):
    """Generate every corpus and write its input files. Returns (corpora, generate seconds)."""
    from topicgrow.synthgen import SynthConfig, generate_corpus

    prepared, generate_s = [], 0.0
    for i in range(workload.corpora):
        config = SynthConfig(seed=seed + 1000 * i, n_docs=workload.n_docs + workload.held_out,
                             doc_len=workload.doc_len, n_topics=workload.n_topics,
                             vocab_size=workload.vocab_size)
        start = time.perf_counter()
        corpus, truth = generate_corpus(config)
        generate_s += time.perf_counter() - start
        path = work / f"corpus{i}"
        path.mkdir(parents=True, exist_ok=True)
        terms = np.array(corpus.vocab.terms)
        train_docs = corpus.docs[: workload.n_docs]
        write_docs(path / "train.txt", terms, train_docs)
        write_docs(path / "heldout.txt", terms, corpus.docs[workload.n_docs:])
        with open(path / "truth.json", "w", encoding="utf-8") as fh:
            json.dump({"topics": truth.topics.tolist(),
                       "config": {"vocab": corpus.vocab.terms}}, fh)
        prepared.append(Prepared(path, corpus.vocab.terms, train_docs, truth.topics))
    return prepared, generate_s


def sparse_probe(prepared, work):
    """Write a training corpus in the sparse format and read it back. Returns an error or None.

    This is the shipped ``synth`` -> ``train`` hand-off; it is counted as an
    operation of its own so that a broken format shows as a failure.
    """
    from topicgrow.corpus import Corpus, Vocabulary, load_corpus, write_sparse_corpus

    corpus = Corpus(Vocabulary(prepared.terms), prepared.docs,
                    [f"d{d}" for d in range(len(prepared.docs))])
    path = work / "probe.sparse"
    try:
        write_sparse_corpus(corpus, path)
        loaded = load_corpus(path)
    except Exception as exc:  # any failure of the round trip is the probe's result
        return f"{type(exc).__name__}: {exc}"

    def rows(c):
        return [{c.vocab.terms[int(t)]: int(n) for t, n in zip(ids, counts)}
                for ids, counts in c.docs]

    if rows(loaded) != rows(corpus):
        return "sparse round trip changed the corpus"
    return None


def plan_ops(workload, prepared, seed):
    """The train and eval operations of one pass, train before eval of each model."""
    ops = []
    for i, corpus in enumerate(prepared):
        for label, flags in workload.models:
            out = f"{{out}}/c{i}-{label}"
            ops.append({"name": f"train c{i}-{label}", "kind": "train", "model": out, "label": label,
                        "argv": ["train", *flags, "--corpus", str(corpus.path / "train.txt"),
                                 "--out", out, "--seed", str(seed)]})
            ops.append({"name": f"eval c{i}-{label}", "kind": "eval", "model": out,
                        "argv": ["eval", "--model", f"{out}/model.json", "--out", out,
                                 "--corpus", str(corpus.path / "heldout.txt"),
                                 "--truth", str(corpus.path / "truth.json"),
                                 "--reference", str(corpus.path / "train.txt"),
                                 "--seed", str(seed)]})
    return ops


def model_index(workload, prepared):
    """op model directory template -> (corpus, algo)."""
    index = {}
    for i, corpus in enumerate(prepared):
        for label, flags in workload.models:
            index[f"{{out}}/c{i}-{label}"] = (corpus, flags[flags.index("--algo") + 1])
    return index


def check_pass(records, ops, models, out_root, reference_root):
    """Check every output of one pass. Returns ({op name: [errors]}, {model: quality})."""
    errors, quality = {}, {}
    for record, op in zip(records, ops):
        out_dir = Path(op["model"].replace("{out}", str(out_root)))
        corpus, algo = models[op["model"]]
        errs = []
        if record["exit"] != 0:
            errs.append(f"exit code {record['exit']}: {record['log'].strip()[-300:]}")
        else:
            try:
                errs += check_op(op, out_dir, corpus, algo, quality)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errs.append(f"unreadable output: {type(exc).__name__}: {exc}")
            if reference_root is not None and not errs:
                ref = Path(op["model"].replace("{out}", str(reference_root)))
                if result_payload(op, out_dir) != result_payload(op, ref):
                    errs.append("output differs from the first pass with the same seed")
        errors[op["name"]] = errs
    return errors, quality


def result_payload(op, out_dir):
    """What must repeat bit for bit across passes: the model, or the eval report
    without its config echo (which names the pass's own paths)."""
    if op["kind"] == "train":
        return (out_dir / "model.json").read_bytes()
    report = checks.read_json(out_dir / "metrics.json")
    report.pop("config", None)
    return report


def check_op(op, out_dir, corpus, algo, quality):
    q = quality.setdefault(op["model"], {})
    if op["kind"] == "train":
        errs, info = checks.check_train(out_dir, algo, MAX_TOPICS)
        model = checks.read_json(out_dir / "model.json")
        q.update(K=info["K"], final_ll=info["final_ll"], algo=algo, corpus=corpus, label=op["label"])
        if info["final_ll"] is not None and not errs:
            ll = checks.model_loglik(model, corpus.docs, corpus.terms)
            if not checks.close(ll, info["final_ll"]):
                errs.append(f"saved model has loglik {ll!r}, trace says {info['final_ll']!r}")
        return errs
    errs, report = checks.check_eval(out_dir, q.get("K"))
    if not errs:
        model = checks.read_json(out_dir / "model.json")
        tqe, tce = checks.truth_errors(model, corpus.truth_topics, corpus.terms)
        if not (checks.close(tqe, report["tqe"]) and checks.close(tce, report["tce"])):
            errs.append(f"tqe/tce {report['tqe']}/{report['tce']} != recomputed {tqe}/{tce}")
        q.update({k: report[k] for k in ("tce", "pmi", "perplexity")})
    return errs


def end_to_end(workload, setup_times, result, quality, attempted, failed):
    passes = result["passes"]
    per_pass = {kind: [sum(r["seconds"] for r in p if r["kind"] == kind) for p in passes]
                for kind in ("train", "eval")}
    models = [q for q in quality.values() if "tce" in q and q.get("final_ll") is not None]

    def over_models(value):
        """Median over corpora of each model variant, then mean over the variants.

        One model that misses a true topic moves its tce several-fold; the
        median over corpora keeps one such model from deciding the run.
        """
        by_label = {}
        for q in models:
            by_label.setdefault(q["label"], []).append(value(q))
        return float(np.mean([statistics.median(v) for v in by_label.values()])) if by_label else None

    return {
        "setup_s": statistics.median(setup_times),
        "train_s": statistics.median(per_pass["train"]),
        "eval_s": statistics.median(per_pass["eval"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "tce": over_models(lambda q: q["tce"]),
        "k_error": over_models(lambda q: max(q["K"], workload.n_topics) / min(q["K"], workload.n_topics)),
        "nll_per_token": over_models(lambda q: -q["final_ll"] / q["corpus"].tokens),
        "perplexity": over_models(lambda q: q["perplexity"]),
        "pmi": over_models(lambda q: q["pmi"]),
        "pass_share": (attempted - failed) / attempted,
    }


def trace_counts(quality, out_root):
    """Iteration counts read from the trace.csv files the CLI wrote, and EM work in entries."""
    counts = {"plsa.em_iters": 0, "autostop.grow_iters": 0, "autostop.refine_iters": 0,
              "nplsa.sweeps": 0}
    em_entries = 0
    for template, q in quality.items():
        if "algo" not in q:  # the train failed; it is counted as a failed operation
            continue
        trace = Path(template.replace("{out}", str(out_root))) / "trace.csv"
        rows = checks.count_trace_rows(trace)
        if q["algo"] == "plsa":
            iters = rows
        elif q["algo"] == "auto":
            # Rows: K=1 start, one per spawn (epsilon set), rollback, then refine.
            grow = checks.count_trace_rows(trace, "epsilon")
            iters = rows - grow - 2
            counts["autostop.grow_iters"] += grow
            counts["autostop.refine_iters"] += iters
        else:
            counts["nplsa.sweeps"] += rows
            continue
        counts["plsa.em_iters"] += iters
        em_entries += iters * q["K"] * q["corpus"].nnz
    return counts, em_entries


def per_layer(result, generate_times, quality, out_root):
    def median(key):
        values = [t["layers"][key] for t in result["traced"]]
        return None if None in values else statistics.median(values)

    layers = {key: median(key) for key in result["traced"][0]["layers"]}
    covered = [sum(r["seconds"] for r in t["records"]) for t in result["traced"]]
    untraced = [sum(r["seconds"] for r in p) for p in result["passes"]]
    layers["trace.overhead_s"] = statistics.median(covered) - statistics.median(untraced)
    layers["synthgen.generate_s"] = statistics.median(generate_times)
    try:
        counts, em_entries = trace_counts(quality, out_root)
    except (OSError, KeyError, ValueError) as exc:
        print(f"warning: CLI trace unreadable, its counts are missing: {exc}", file=sys.stderr)
        counts, em_entries = dict.fromkeys(
            ("plsa.em_iters", "autostop.grow_iters", "autostop.refine_iters", "nplsa.sweeps")), None
    layers.update(counts)
    em_s = layers.get("plsa.em_self_s")
    if em_s is None or em_entries is None:
        layers["plsa.em_ns_per_entry"] = None
    else:
        layers["plsa.em_ns_per_entry"] = em_s / em_entries * 1e9 if em_entries else 0.0
    return layers


def self_time_gap(result):
    """Largest gap between traced wall time and the sum of self times plus cli.self_s."""
    gaps = []
    for t in result["traced"]:
        parts = [t["layers"][m] for m in tracing.SELF_TIME_METRICS] + [t["layers"]["cli.self_s"]]
        covered = sum(r["seconds"] for r in t["records"])
        gaps.append(abs(sum(p for p in parts if p is not None) - covered))
    return max(gaps)


def environment():
    import topicgrow

    return {"host": platform.node(), "machine": platform.machine(), "cpus": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "versions": {"topicgrow": topicgrow.__version__, "numpy": np.__version__,
                         "python": ".".join(str(v) for v in sys.version_info[:3])}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="measure whole passes until this much train+eval time is recorded")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny corpora, for the tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "topicgrow" / "__init__.py").is_file():
        print(f"error: no topicgrow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = Workload(**TINY, corpora=workload.corpora, models=workload.models)

    work = ROOT / WORK_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, generate_times = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            prepared, generate_s = set_up(workload, args.seed, work / "input")
            setup_times.append(time.perf_counter() - start)
            generate_times.append(generate_s)
        probe_error = sparse_probe(prepared[0], work)

        ops = plan_ops(workload, prepared, args.seed)
        plan = {"src": str(SRC), "out": str(work / "out"), "ops": ops,
                "seconds": args.seconds, "trace": bool(args.trace)}
        with open(work / "plan.json", "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        budget = RUN_DEADLINE_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
                 str(work / "result.json")],
                cwd=ROOT, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"error: worker did not finish within {budget:.0f} s", file=sys.stderr)
            return 3
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}",
                  file=sys.stderr)
            return 3
        with open(work / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)

        index = model_index(workload, prepared)
        out = work / "out"
        failures, quality = {}, None
        runs = [(out / f"pass{i}", p) for i, p in enumerate(result["passes"])]
        runs += [(out / f"traced{i}", t["records"]) for i, t in enumerate(result["traced"])]
        for root, records in runs:
            errs, q = check_pass(records, ops, index, root,
                                 None if root == out / "pass0" else out / "pass0")
            quality = quality or q
            for name, e in errs.items():
                failures.setdefault(name, []).extend(e)
        failed_ops = sorted(name for name, e in failures.items() if e)
        attempted = len(ops) + 1
        failed = len(failed_ops) + (probe_error is not None)

        print(json.dumps({"environment": environment()}))
        print(f"sparse round-trip probe: {'FAILED: ' + probe_error if probe_error else 'ok'}")
        for name in failed_ops:
            print(f"FAILED {name}: {'; '.join(failures[name][:3])}")
        correct = not failed_ops
        if args.trace:
            metrics = per_layer(result, generate_times, quality, out / "traced0")
            units = PER_LAYER_UNITS
            if result["missing"]:
                print(f"missing trace targets: {', '.join(result['missing'])}", file=sys.stderr)
            gap = self_time_gap(result)
            if gap > 1e-6:
                print(f"FAILED: self times miss the traced wall time by {gap:.3g} s")
                correct = False
        else:
            metrics = end_to_end(workload, setup_times, result, quality, attempted, failed)
            units = END_TO_END_UNITS
            print(f"eval wall time, not a bounded metric (see README): {metrics['eval_s']!r} s")
        print(f"passes: {len(result['passes'])} untraced, {len(result['traced'])} traced")
        for name, unit in units.items():
            print(f"{name:28s} {metrics[name]!r:>24} {unit}")
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only succeeds once no other run uses it


if __name__ == "__main__":
    sys.exit(main())
