"""End-to-end runs of the command-line pipeline: synth, then train, then eval."""

import csv
import json

import numpy as np
import pytest

from topicgrow.cli import EXIT_DATA, main
from topicgrow.corpus import background_model, load_corpus

SYNTH = ["--profile", "desk", "--docs", "30", "--doc-len", "40", "--topics", "3", "--vocab", "60"]
METRIC_KEYS = {"K", "tqe", "tce", "pmi", "perplexity", "diversity", "config"}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", *SYNTH, "--out", str(out), "--seed", "1"]) == 0
    return out


def algo_flags(algo, corpus_path):
    if algo == "plsa":
        return ["--k", "3"]
    if algo == "nplsa":
        return ["--epsilon", "30"]
    if algo == "query":
        corpus = load_corpus(corpus_path)
        return ["--query", corpus.vocab.term_of(int(np.argmax(background_model(corpus))))]
    return []


@pytest.mark.parametrize("algo", ["plsa", "nplsa", "auto", "query"])
def test_synth_train_eval(synth_dir, tmp_path, algo):
    corpus = synth_dir / "corpus.sparse"
    out = tmp_path / algo
    code = main(["train", "--algo", algo, *algo_flags(algo, corpus), "--corpus", str(corpus),
                 "--out", str(out), "--seed", "1"])
    assert code == 0
    with open(out / "model.json", encoding="utf-8") as fh:
        model = json.load(fh)
    assert set(model) == {"vocab", "topics", "mixes", "meta"}
    k = len(model["topics"])
    assert k == model["meta"]["K"]
    assert np.asarray(model["mixes"]).shape == (30, k)
    assert (out / "trace.csv").is_file() and (out / "config.json").is_file()

    code = main(["eval", "--model", str(out / "model.json"), "--out", str(out),
                 "--corpus", str(corpus), "--truth", str(synth_dir / "truth.json"),
                 "--reference", str(corpus), "--seed", "1"])
    assert code == 0
    with open(out / "metrics.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert set(report) == METRIC_KEYS
    assert report["K"] == k
    for key in ("tqe", "tce", "pmi", "perplexity"):
        assert np.isfinite(report[key]), key


def test_nplsa_order_seed_run_is_reproducible(synth_dir, tmp_path):
    corpus = synth_dir / "corpus.sparse"
    models = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["train", "--algo", "nplsa", "--epsilon", "30", "--order-seed", "7",
                     "--corpus", str(corpus), "--out", str(out), "--seed", "1"])
        assert code == 0
        models.append((out / "model.json").read_bytes())
        with open(out / "trace.csv", encoding="utf-8", newline="") as fh:
            objective = [float(row["objective"]) for row in csv.DictReader(fh)]
        assert len(objective) > 1
        assert all(cur >= prev for prev, cur in zip(objective, objective[1:]))
    assert models[0] == models[1]


def test_auto_run_is_reproducible(synth_dir, tmp_path):
    corpus = synth_dir / "corpus.sparse"
    models = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["train", "--algo", "auto", "--max-spawns", "6", "--corpus", str(corpus),
                     "--out", str(out), "--seed", "1"])
        assert code == 0
        models.append((out / "model.json").read_bytes())
        with open(out / "trace.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # grow and rollback rows carry the diversity score; the EM refine rows do not
        refine = [float(row["loglik"]) for row in rows if not row["diversity"]]
        assert len(refine) > 1
        assert all(cur >= prev for prev, cur in zip(refine, refine[1:]))
    assert models[0] == models[1]


def test_fold_in_iters_below_one_is_a_data_error(synth_dir, tmp_path):
    code = main(["train", "--algo", "auto", "--fold-in-iters", "0", "--corpus",
                 str(synth_dir / "corpus.sparse"), "--out", str(tmp_path), "--seed", "1"])
    assert code == EXIT_DATA


def test_nan_fold_in_tolerance_is_a_data_error(synth_dir, tmp_path):
    code = main(["train", "--algo", "auto", "--fold-in-tol", "nan", "--corpus",
                 str(synth_dir / "corpus.sparse"), "--out", str(tmp_path), "--seed", "1"])
    assert code == EXIT_DATA == 2


def test_nan_epsilon_is_a_data_error(synth_dir, tmp_path):
    code = main(["train", "--algo", "nplsa", "--epsilon", "nan", "--corpus",
                 str(synth_dir / "corpus.sparse"), "--out", str(tmp_path), "--seed", "1"])
    assert code == EXIT_DATA == 2
