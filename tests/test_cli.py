"""End-to-end runs of the command-line pipeline: synth, then train, then eval."""

import csv
import inspect
import json
import logging

import numpy as np
import pytest

from topicgrow import autostop, cli, metrics, nplsa
from topicgrow.cli import EXIT_DATA, EXIT_USAGE, build_parser, main
from topicgrow.corpus import (
    MIN_DF,
    background_model,
    ingest_text,
    load_corpus,
    read_text_corpus,
)
from topicgrow.metrics import DEFAULT_TOP_N
from topicgrow.plsa import EmConfig
from topicgrow.synthgen import SynthConfig

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
        return ["--query", corpus.vocab.terms[np.argmax(background_model(corpus))]]
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


def test_fold_in_iters_below_the_refit_cap_bounds_the_post_spawn_refit(synth_dir, tmp_path,
                                                                        monkeypatch):
    budgets = []
    real = autostop.fold_in_all

    def spy(corpus, topics, config, init_mixes=None):
        budgets.append(config.fold_in_max_iters)
        return real(corpus, topics, config, init_mixes=init_mixes)

    monkeypatch.setattr(autostop, "fold_in_all", spy)
    assert main(train_argv(synth_dir, tmp_path, "--algo", "auto", "--max-spawns", "3",
                           "--fold-in-iters", "3")) == 0
    assert budgets == [3] * 3
    with open(tmp_path / "config.json", encoding="utf-8") as fh:  # the echo keeps the flag
        assert json.load(fh)["fold_in_iters"] == 3


def test_nan_fold_in_tolerance_is_a_data_error(synth_dir, tmp_path):
    code = main(["train", "--algo", "auto", "--fold-in-tol", "nan", "--corpus",
                 str(synth_dir / "corpus.sparse"), "--out", str(tmp_path), "--seed", "1"])
    assert code == EXIT_DATA == 2


def test_nan_epsilon_is_a_data_error(synth_dir, tmp_path):
    code = main(["train", "--algo", "nplsa", "--epsilon", "nan", "--corpus",
                 str(synth_dir / "corpus.sparse"), "--out", str(tmp_path), "--seed", "1"])
    assert code == EXIT_DATA == 2


@pytest.mark.parametrize("value", [float("inf"), -0.5])
def test_eval_of_a_tampered_model_is_a_data_error(synth_dir, tmp_path, value):
    corpus = synth_dir / "corpus.sparse"
    assert main(["train", "--algo", "plsa", "--k", "3", "--corpus", str(corpus),
                 "--out", str(tmp_path), "--seed", "1"]) == 0
    model = tmp_path / "model.json"
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["topics"][1][0] = value
    model.write_text(json.dumps(payload), encoding="utf-8")  # inf is written as Infinity
    code = main(["eval", "--model", str(model), "--out", str(tmp_path),
                 "--corpus", str(corpus), "--seed", "1"])
    assert code == EXIT_DATA == 2


def test_train_stopwords_match_any_case(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("The cat sat on the mat\nA dog and the cat\nTHE dog ran and ran\n"
                      "cats and dogs\nthe mat and the dog\n")
    stopwords = tmp_path / "stop.txt"
    stopwords.write_text("The\nAND\non\n")
    out = tmp_path / "model"
    code = main(["train", "--algo", "plsa", "--k", "2", "--corpus", str(corpus),
                 "--stopwords", str(stopwords), "--out", str(out), "--seed", "1"])
    assert code == 0
    with open(out / "model.json", encoding="utf-8") as fh:
        vocab = json.load(fh)["vocab"]
    assert vocab == ["a", "cat", "cats", "dog", "dogs", "mat", "ran", "sat"]


def test_pmi_of_a_single_term_model_is_a_data_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("cat cat\ncat\n")
    assert main(["train", "--algo", "plsa", "--k", "1", "--corpus", str(corpus),
                 "--out", str(tmp_path), "--seed", "1"]) == 0
    code = main(["eval", "--model", str(tmp_path / "model.json"), "--out", str(tmp_path),
                 "--reference", str(corpus), "--seed", "1"])
    assert code == EXIT_DATA == 2
    assert "at least 2 ranked words per topic" in capsys.readouterr().err


def test_pmi_top_n_below_two_is_a_data_error(synth_dir, tmp_path, capsys):
    assert main(train_argv(synth_dir, tmp_path, "--algo", "plsa", "--k", "3")) == 0
    code = main(["eval", "--model", str(tmp_path / "model.json"), "--out", str(tmp_path),
                 "--reference", str(synth_dir / "corpus.sparse"), "--top-n", "1", "--seed", "1"])
    assert code == EXIT_DATA == 2
    assert "top_n must be >= 2" in capsys.readouterr().err


def test_floor_too_large_for_the_vocabulary_is_a_data_error(tmp_path, capsys):
    # 500 desk-profile terms at a floor of 1e-3 would put half of each topic's mass on the floor
    assert main(["synth", "--profile", "desk", "--docs", "30", "--doc-len", "40", "--topics", "3",
                 "--out", str(tmp_path), "--seed", "1"]) == 0
    code = main(["train", "--algo", "plsa", "--k", "3", "--floor", "1e-3", "--corpus",
                 str(tmp_path / "corpus.sparse"), "--out", str(tmp_path / "model"), "--seed", "1"])
    assert code == EXIT_DATA == 2
    assert "smoothing_floor too large for this vocabulary size" in capsys.readouterr().err


def test_parsed_defaults_are_the_library_defaults():
    parser = build_parser()
    common = ["--out", "o", "--seed", "0"]
    synth = parser.parse_args(["synth", *common])
    library = SynthConfig(seed=0)
    assert (synth.alpha, synth.beta, synth.min_topic_dist) == (
        library.alpha, library.beta, library.min_topic_dist)

    train = parser.parse_args(["train", "--algo", "auto", "--corpus", "c", *common])
    assert (train.patience, train.lam, train.max_topics) == (None, None, None)  # unset
    cli._resolve_defaults(train)
    em = EmConfig(seed=0)
    assert (train.max_iters, train.rel_tol, train.floor, train.fold_in_iters,
            train.fold_in_tol) == (em.max_iters, em.rel_tol, em.smoothing_floor,
                                   em.fold_in_max_iters, em.fold_in_rel_tol)
    assert train.patience == autostop.PATIENCE
    assert train.max_topics == nplsa.MAX_TOPICS
    assert train.lam == autostop.DEFAULT_LAM
    for fn in (nplsa.train_nplsa, autostop.train_parameter_free,
               autostop.train_weakly_supervised):
        assert inspect.signature(fn).parameters["max_topics"].default == train.max_topics
    for fn in (autostop.estimate_query_model, autostop.train_weakly_supervised):
        assert inspect.signature(fn).parameters["lam"].default == train.lam

    ev = parser.parse_args(["eval", "--model", "m", *common])
    assert ev.top_n == DEFAULT_TOP_N
    assert ev.split_fraction == metrics.DEFAULT_SPLIT_FRACTION
    assert inspect.signature(metrics.perplexity).parameters["split_fraction"].default == (
        ev.split_fraction)

    assert train.min_df == ev.min_df == MIN_DF
    for fn in (ingest_text, read_text_corpus, load_corpus):
        assert inspect.signature(fn).parameters["min_df"].default == MIN_DF


def train_argv(synth_dir, tmp_path, *flags):
    return ["train", *flags, "--corpus", str(synth_dir / "corpus.sparse"),
            "--out", str(tmp_path), "--seed", "1"]


@pytest.mark.parametrize("lam", ["nan", "1.5", "-0.5"])
def test_query_weight_outside_the_unit_interval_is_a_data_error(synth_dir, tmp_path, lam):
    query = algo_flags("query", synth_dir / "corpus.sparse")
    code = main(train_argv(synth_dir, tmp_path, "--algo", "query", *query, "--lambda", lam))
    assert code == EXIT_DATA == 2
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("algo", ["auto", "query"])
def test_negative_spawn_budget_is_a_data_error(synth_dir, tmp_path, algo):
    flags = algo_flags(algo, synth_dir / "corpus.sparse")
    code = main(train_argv(synth_dir, tmp_path, "--algo", algo, *flags, "--max-spawns", "-3"))
    assert code == EXIT_DATA == 2


@pytest.mark.parametrize("algo", ["nplsa", "auto", "query"])
def test_topic_cap_below_one_is_a_data_error(synth_dir, tmp_path, algo):
    flags = algo_flags(algo, synth_dir / "corpus.sparse")
    code = main(train_argv(synth_dir, tmp_path, "--algo", algo, *flags, "--max-topics", "0"))
    assert code == EXIT_DATA == 2


def test_zero_spawn_budget_trains_one_topic(synth_dir, tmp_path):
    assert main(train_argv(synth_dir, tmp_path, "--algo", "auto", "--max-spawns", "0")) == 0
    with open(tmp_path / "model.json", encoding="utf-8") as fh:
        assert json.load(fh)["meta"]["K"] == 1


@pytest.mark.parametrize("flags, message", [
    (["--algo", "plsa"], "--algo plsa requires --k"),
    (["--algo", "nplsa"], "--algo nplsa requires --epsilon"),
    (["--algo", "query"], "--algo query requires --query"),
    (["--algo", "auto", "--k", "3"], "--k only applies to --algo plsa"),
    (["--algo", "plsa", "--k", "3", "--epsilon", "30"], "--epsilon only applies to --algo nplsa"),
    (["--algo", "auto", "--query", "w001"], "--query only applies to --algo query"),
    (["--algo", "auto", "--order-seed", "7"], "--order-seed only applies to --algo nplsa"),
    (["--algo", "query", "--query", "w001", "--order-seed", "7"],
     "--order-seed only applies to --algo nplsa"),
    (["--algo", "plsa", "--k", "3", "--max-spawns", "2"],
     "--max-spawns only applies to --algo auto/query"),
    (["--algo", "nplsa", "--epsilon", "30", "--max-spawns", "2"],
     "--max-spawns only applies to --algo auto/query"),
    (["--algo", "plsa", "--k", "3", "--patience", "5"],
     "--patience only applies to --algo auto/query"),
    (["--algo", "nplsa", "--epsilon", "30", "--patience", "5"],
     "--patience only applies to --algo auto/query"),
    (["--algo", "plsa", "--k", "3", "--lambda", "0.9"], "--lambda only applies to --algo query"),
    (["--algo", "auto", "--lambda", "0.9"], "--lambda only applies to --algo query"),
    (["--algo", "plsa", "--k", "3", "--max-topics", "2"],
     "--max-topics only applies to --algo nplsa/auto/query"),
])
def test_flag_missing_or_ignored_by_the_algo_is_a_usage_error(synth_dir, tmp_path, flags,
                                                              message, capsys):
    code = main(train_argv(synth_dir, tmp_path, *flags))
    assert code == EXIT_USAGE == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_config_echo_holds_the_resolved_defaults(synth_dir, tmp_path):
    assert main(train_argv(synth_dir, tmp_path, "--algo", "plsa", "--k", "3")) == 0
    with open(tmp_path / "config.json", encoding="utf-8") as fh:
        echo = json.load(fh)
    assert (echo["patience"], echo["lam"], echo["max_topics"]) == (
        autostop.PATIENCE, autostop.DEFAULT_LAM, nplsa.MAX_TOPICS)


@pytest.mark.parametrize("algo, advice", [
    ("auto", "without a diversity peak"),
    ("query", "without a query-distance minimum"),
])
def test_topic_cap_names_the_stop_rule(synth_dir, tmp_path, algo, advice, capsys):
    flags = algo_flags(algo, synth_dir / "corpus.sparse")
    code = main(train_argv(synth_dir, tmp_path, "--algo", algo, *flags,
                           "--max-topics", "2", "--patience", "30"))
    assert code == cli.EXIT_ALGORITHM == 3
    assert f"topic explosion: more than 2 topics {advice}" in capsys.readouterr().err


def test_patience_below_one_is_a_data_error(synth_dir, tmp_path, capsys):
    code = main(train_argv(synth_dir, tmp_path, "--algo", "auto", "--patience", "0"))
    assert code == EXIT_DATA == 2
    assert "patience must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("flags", [
    ["--algo", "plsa", "--k", "3", "--seed", "-1"],
    ["--algo", "nplsa", "--epsilon", "30", "--order-seed", "-1", "--seed", "1"],
])
def test_negative_train_seed_is_a_data_error(synth_dir, tmp_path, flags, capsys):
    code = main(["train", *flags, "--corpus", str(synth_dir / "corpus.sparse"),
                 "--out", str(tmp_path)])
    assert code == EXIT_DATA == 2
    assert "must be non-negative" in capsys.readouterr().err


def test_negative_eval_seed_is_a_data_error(synth_dir, tmp_path):
    corpus = str(synth_dir / "corpus.sparse")
    assert main(train_argv(synth_dir, tmp_path, "--algo", "plsa", "--k", "3")) == 0
    code = main(["eval", "--model", str(tmp_path / "model.json"), "--out", str(tmp_path),
                 "--corpus", corpus, "--seed", "-1"])
    assert code == EXIT_DATA == 2


@pytest.mark.parametrize("flag", ["--stopwords", "--min-df"])
def test_text_filters_on_a_sparse_corpus_are_a_data_error(synth_dir, tmp_path, flag):
    stopwords = tmp_path / "sw.txt"
    stopwords.write_text("w000\n")
    value = str(stopwords) if flag == "--stopwords" else "50"
    code = main(train_argv(synth_dir, tmp_path, "--algo", "plsa", "--k", "3", flag, value))
    assert code == EXIT_DATA == 2
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("place, extra, k, joined", [
    ("after", [], 3, False),  # a k=3 line supplies --k
    ("after", ["--k", "2"], 2, False),  # an explicit flag overrides the file
    ("before", [], 3, False),  # --config may come before the subcommand
    ("after", [], 3, True),  # --config=PATH, argparse's joined form
    ("before", [], 3, True),
], ids=["after-extra0-3", "after-extra1-2", "before-extra2-3", "after-joined", "before-joined"])
def test_config_file_supplies_flag_defaults(synth_dir, tmp_path, place, extra, k, joined):
    config = tmp_path / "defaults.cfg"
    config.write_text("# flag defaults\nk=3\n")
    train = train_argv(synth_dir, tmp_path, "--algo", "plsa", *extra)
    flag = [f"--config={config}"] if joined else ["--config", str(config)]
    assert main(flag + train if place == "before" else train + flag) == 0
    with open(tmp_path / "model.json", encoding="utf-8") as fh:
        assert json.load(fh)["meta"]["K"] == k


@pytest.mark.parametrize("form", [
    ["--conf", "{}"],  # argparse accepts an unambiguous prefix
    ["--conf={}"],
    ["--config", "{}", "--config", "{}"],
])
def test_config_not_spelled_out_once_is_a_usage_error(synth_dir, tmp_path, capsys, form):
    config = tmp_path / "defaults.cfg"
    config.write_text("k=3\n")
    flags = [f.format(config) for f in form]
    assert main(train_argv(synth_dir, tmp_path, "--algo", "plsa", *flags)) == EXIT_USAGE == 1
    assert "--config PATH or --config=PATH" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_malformed_config_line_is_a_data_error(synth_dir, tmp_path):
    config = tmp_path / "defaults.cfg"
    config.write_text("k 3\n")
    argv = train_argv(synth_dir, tmp_path, "--algo", "plsa", "--config", str(config))
    assert main(argv) == EXIT_DATA == 2


def test_config_without_a_path_is_a_usage_error(synth_dir, tmp_path):
    argv = train_argv(synth_dir, tmp_path, "--algo", "plsa", "--k", "3")
    assert main([*argv, "--config"]) == EXIT_USAGE == 1


@pytest.mark.parametrize("value, code, verbose", [
    ("true", 0, True), ("FALSE", 0, False), ("yes", EXIT_DATA, None),
])
def test_config_file_sets_a_store_true_flag(synth_dir, tmp_path, monkeypatch, capsys, value,
                                            code, verbose):
    levels = []
    monkeypatch.setattr(cli.logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    config = tmp_path / "defaults.cfg"
    config.write_text(f"verbose={value}\n")
    argv = train_argv(synth_dir, tmp_path, "--algo", "plsa", "--k", "3", "--config", str(config))
    assert main(argv) == code
    if verbose is None:
        assert levels == [] and not (tmp_path / "model.json").exists()
        assert "bad config line 1: 'verbose=yes'" in capsys.readouterr().err
    else:
        assert levels == [logging.INFO if verbose else logging.WARNING]


def test_eval_text_filters_apply_to_the_reference_only(synth_dir, tmp_path):
    held_out = synth_dir / "corpus.sparse"
    corpus = load_corpus(held_out)
    stop = {corpus.vocab.terms[t] for t in np.argsort(-background_model(corpus))[:5]}
    (tmp_path / "sw.txt").write_text("\n".join(sorted(stop)) + "\n")

    terms = np.array(corpus.vocab.terms)

    def write_text(path, skip):
        docs = (np.repeat(terms[ids], counts.astype(int)) for ids, counts in corpus.docs)
        path.write_text("".join(" ".join(t for t in doc if t not in skip) + "\n" for doc in docs))

    write_text(tmp_path / "train.txt", set())
    write_text(tmp_path / "filtered.txt", stop)
    assert main(train_argv(synth_dir, tmp_path, "--algo", "plsa", "--k", "3")) == 0
    model = ["eval", "--model", str(tmp_path / "model.json"), "--seed", "1"]

    def evaluate(name, *flags):
        assert main([*model, "--out", str(tmp_path / name), *flags]) == 0
        with open(tmp_path / name / "metrics.json", encoding="utf-8") as fh:
            return json.load(fh)

    scoped = evaluate("scoped", "--corpus", str(held_out), "--reference",
                      str(tmp_path / "train.txt"), "--stopwords", str(tmp_path / "sw.txt"))
    by_hand = evaluate("by_hand", "--reference", str(tmp_path / "filtered.txt"))
    unfiltered = evaluate("unfiltered", "--corpus", str(held_out), "--reference",
                          str(tmp_path / "train.txt"))
    assert scoped["pmi"] == by_hand["pmi"] != unfiltered["pmi"]
    assert scoped["perplexity"] == unfiltered["perplexity"]  # the held-out file is not filtered
