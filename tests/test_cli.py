"""End-to-end runs of the command-line pipeline: synth, then train, then eval."""

import argparse
import codecs
import csv
import inspect
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from topicgrow import autostop, cli, metrics, nplsa
from topicgrow.cli import EXIT_DATA, EXIT_USAGE, build_parser, main
from topicgrow.corpus import MIN_DF, background_model, ingest_text, load_corpus
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


@pytest.mark.parametrize("algo, keys", [
    ("plsa", {"k"}),
    ("nplsa", {"epsilon"}),
    ("auto", {"best_k", "best_diversity"}),
    ("query", {"query", "best_k", "best_query_distance"}),
])
def test_model_meta_holds_the_run_and_its_required_flag_as_given(synth_dir, tmp_path, algo,
                                                                 keys):
    flags = algo_flags(algo, synth_dir / "corpus.sparse")
    assert main(train_argv(synth_dir, tmp_path, "--algo", algo, *flags)) == 0
    with open(tmp_path / "model.json", encoding="utf-8") as fh:
        meta = json.load(fh)["meta"]
    assert set(meta) == {"algo", "seed", "smoothing_floor", "K", "iters"} | keys
    assert (meta["algo"], meta["seed"], meta["smoothing_floor"]) == (
        algo, 1, EmConfig.smoothing_floor)
    given = {"plsa": {"k": 3}, "nplsa": {"epsilon": 30.0}, "auto": {},
             "query": {"query": " ".join(flags[1:])}}[algo]
    assert {dest: meta[dest] for dest in given} == given


@pytest.mark.parametrize("algo, flags, stop", [
    ("plsa", [], "plateau"),
    ("plsa", ["--max-iters", "2"], "max_iters"),
    ("nplsa", [], "plateau"),
    ("nplsa", ["--max-iters", "2"], "max_iters"),
    ("auto", [], "patience then plateau"),
    ("auto", ["--max-spawns", "2", "--max-iters", "1"], "spawn budget then max_iters"),
    ("query", [], "patience then plateau"),
    ("query", ["--max-spawns", "1", "--patience", "3"], "spawn budget then plateau"),
])
def test_train_reports_why_it_stopped(synth_dir, tmp_path, capsys, algo, flags, stop):
    corpus = synth_dir / "corpus.sparse"
    assert main(train_argv(synth_dir, tmp_path, "--algo", algo, *algo_flags(algo, corpus),
                           *flags)) == 0
    assert capsys.readouterr().out.endswith(f" trace rows, stop: {stop})\n")
    with open(tmp_path / "config.json", encoding="utf-8") as fh:
        assert json.load(fh)["stop"] == stop
    with open(tmp_path / "trace.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert "stop" not in rows[0]  # trace.csv keeps its columns
    score = {"auto": "diversity", "query": "query_distance"}.get(algo)
    em_rows = [row for row in rows if not (score and row[score])]  # auto/query: the refine
    cap = int(flags[flags.index("--max-iters") + 1]) if "--max-iters" in flags else 200
    assert (len(em_rows) == cap) == stop.endswith("max_iters")


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


@pytest.mark.parametrize("flag, value", [("--fold-in-iters", "5"), ("--fold-in-tol", "1e-3")])
def test_a_fold_in_budget_flag_is_unrecognized(synth_dir, tmp_path, flag, value, capsys):
    out = tmp_path / "out"
    assert main(train_argv(synth_dir, out, "--algo", "auto", flag, value)) == EXIT_USAGE == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("tamper, message", [
    (lambda truth: truth["topics"][1].__setitem__(0, float("nan")),
     "a topic row is not a probability distribution"),
    (lambda truth: truth["config"]["vocab"].__setitem__(1, truth["config"]["vocab"][0]),
     "duplicate vocabulary term"),
])
def test_eval_of_a_tampered_truth_is_a_data_error(synth_dir, tmp_path, tamper, message, capsys):
    assert main(train_argv(synth_dir, tmp_path, "--algo", "plsa", "--k", "3")) == 0
    truth = json.loads((synth_dir / "truth.json").read_text(encoding="utf-8"))
    tamper(truth)
    path = tmp_path / "truth.json"
    path.write_text(json.dumps(truth), encoding="utf-8")  # NaN is written as NaN
    code = main(["eval", "--model", str(tmp_path / "model.json"), "--truth", str(path),
                 "--out", str(tmp_path / "ev"), "--seed", "1"])
    assert code == EXIT_DATA == 2
    assert f"bad truth file {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "metrics.json").exists()


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


@pytest.mark.parametrize("flag, name, message", [
    ("--truth", "truth.json", "the model shares no term with the truth file"),
    ("--reference", "corpus.sparse", "no document of the reference corpus holds a top word"),
])
def test_eval_against_an_input_without_the_model_terms_is_a_data_error(
        synth_dir, tmp_path, flag, name, message, capsys):
    # The text model's words are none of the synth vocabulary's w0, w1, ...
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat\nthe dog ran\na cat and a dog\nthe mat\n")
    assert main(["train", "--algo", "plsa", "--k", "2", "--corpus", str(corpus),
                 "--out", str(tmp_path / "text"), "--seed", "1"]) == 0
    code = main(["eval", "--model", str(tmp_path / "text" / "model.json"), flag,
                 str(synth_dir / name), "--out", str(tmp_path / "ev"), "--seed", "1"])
    assert code == EXIT_DATA == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


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


@pytest.fixture(scope="module")
def wide_synth_dir(tmp_path_factory):
    """A desk corpus over the profile's 500 terms, where a floor of 1e-3 is too large."""
    out = tmp_path_factory.mktemp("wide")
    assert main(["synth", "--profile", "desk", "--docs", "30", "--doc-len", "40", "--topics", "3",
                 "--out", str(out), "--seed", "1"]) == 0
    return out


@pytest.mark.parametrize("flags, code, corpus", [
    (["--algo", "plsa", "--k", "0"], EXIT_DATA, "synth_dir"),
    (["--algo", "nplsa", "--epsilon", "-1"], EXIT_DATA, "synth_dir"),
    (["--algo", "auto", "--patience", "0"], EXIT_DATA, "synth_dir"),
    (["--algo", "auto", "--max-topics", "0"], EXIT_DATA, "synth_dir"),
    (["--algo", "nplsa", "--epsilon", "30", "--order-seed", "-1"], EXIT_DATA, "synth_dir"),
    (["--algo", "query", "--query", "absent"], EXIT_DATA, "synth_dir"),
    (["--algo", "query", "--query", "w00", "--lambda", "2"], EXIT_DATA, "synth_dir"),
    (["--algo", "plsa", "--k", "3", "--floor", "0.001"], EXIT_DATA, "wide_synth_dir"),
    (["--algo", "auto", "--max-topics", "2"], cli.EXIT_ALGORITHM, "synth_dir"),
], ids=["k", "epsilon", "patience", "max-topics", "order-seed", "query", "lambda", "floor",
        "topic-explosion"])
def test_a_failed_train_leaves_no_out_directory(request, tmp_path, flags, code, corpus):
    out = tmp_path / "out"
    assert main(train_argv(request.getfixturevalue(corpus), out, *flags)) == code
    assert not out.exists()


def test_parsed_defaults_are_the_library_defaults():
    parser = build_parser()
    common = ["--out", "o", "--seed", "0"]
    synth = parser.parse_args(["synth", *common])
    library = SynthConfig(seed=0)
    assert (synth.alpha, synth.beta, synth.min_topic_dist) == (
        library.alpha, library.beta, library.min_topic_dist)

    train = parser.parse_args(["train", "--algo", "auto", "--corpus", "c", *common])
    assert (train.patience, train.lam, train.max_topics) == (None, None, None)  # unset
    cli._resolve_scoped_flags(train)
    em = EmConfig(seed=0)
    assert (train.max_iters, train.rel_tol, train.floor) == (em.max_iters, em.rel_tol,
                                                              em.smoothing_floor)
    assert train.patience == autostop.PATIENCE
    assert train.max_topics == nplsa.MAX_TOPICS
    assert train.lam == autostop.DEFAULT_LAM
    for fn in (nplsa.train_nplsa, autostop.train_parameter_free,
               autostop.train_weakly_supervised):
        assert inspect.signature(fn).parameters["max_topics"].default == train.max_topics
    for fn in (autostop.estimate_query_model, autostop.train_weakly_supervised):
        assert inspect.signature(fn).parameters["lam"].default == train.lam

    ev = parser.parse_args(["eval", "--model", "m", *common])
    assert (ev.top_n, ev.split_fraction, ev.min_df) == (None, None, None)  # unset
    cli._resolve_scoped_flags(ev)
    assert ev.top_n == DEFAULT_TOP_N
    assert ev.split_fraction == metrics.DEFAULT_SPLIT_FRACTION
    assert inspect.signature(metrics.perplexity).parameters["split_fraction"].default == (
        ev.split_fraction)
    assert inspect.signature(metrics.pmi_coherence).parameters["top_n"].default == ev.top_n

    assert train.min_df == ev.min_df == MIN_DF
    for fn in (ingest_text, load_corpus):
        assert inspect.signature(fn).parameters["min_df"].default == MIN_DF


def subcommands(parser):
    """The subparsers of ``build_parser()``, by name."""
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def store_true_flags(parser):
    """The option strings of every store-true flag of ``parser`` and its subcommands."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._StoreTrueAction):
            flags.update(action.option_strings)
        elif isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= store_true_flags(sub)
    return flags


def test_config_switches_are_the_store_true_flags():
    assert cli._SWITCHES == store_true_flags(build_parser())


MINIMAL = {"train": ["--algo", "auto", "--corpus", "c"], "eval": ["--model", "m"]}


@pytest.mark.parametrize("command", sorted(cli._SCOPED))
def test_every_scoped_flag_parses_to_none_when_absent(command):
    # the table takes any value but None as given, so a default would reject every run
    args = build_parser().parse_args([command, *MINIMAL[command], "--out", "o", "--seed", "0"])
    assert {dest: getattr(args, dest) for dest in cli._SCOPED[command]} == dict.fromkeys(
        cli._SCOPED[command])


@pytest.mark.parametrize("command, dest", [
    (command, dest) for command, table in sorted(cli._SCOPED.items()) for dest in table])
def test_help_of_a_scoped_flag_names_its_runs_and_default(command, dest):
    runs, default = cli._SCOPED[command][dest]
    action = next(a for a in subcommands(build_parser())[command]._actions if a.dest == dest)
    if command == "train":  # "(auto/query; default 8)" or "(plsa only)"
        assert re.search(r"\(([^;)]*)", action.help).group(1).removesuffix(" only") == runs
    else:
        assert f"--{runs}" in action.help
    stated = re.search(r"default ([^;)]*)", action.help)
    if default is None or default is cli._REQUIRED:
        assert stated is None
    else:
        assert stated is not None and stated.group(1) == str(default)


ALGOS = next(a for a in subcommands(build_parser())["train"]._actions if a.dest == "algo").choices


@pytest.mark.parametrize("algo", ALGOS)
def test_the_scoped_train_rows_are_the_trainer_parameters(algo):
    # every row the run takes reaches its trainer, and every trainer parameter has a row
    rows = {"query_terms" if dest == "query" else dest
            for dest, (runs, _) in cli._SCOPED["train"].items() if algo in runs.split("/")}
    params = set(inspect.signature(cli._TRAINERS[algo]).parameters) - {"corpus", "config"}
    assert rows == params


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
    assert main(["eval", "--model", str(tmp_path / "model.json"), "--out", str(tmp_path),
                 "--truth", str(synth_dir / "truth.json"), "--seed", "1"]) == 0
    with open(tmp_path / "metrics.json", encoding="utf-8") as fh:
        echo = json.load(fh)["config"]
    assert (echo["top_n"], echo["split_fraction"], echo["min_df"], echo["stopwords"]) == (
        DEFAULT_TOP_N, metrics.DEFAULT_SPLIT_FRACTION, MIN_DF, None)


@pytest.mark.parametrize("flags, message", [
    (["--top-n", "5"], "--top-n only applies with --reference"),
    (["--min-df", "3"], "--min-df only applies with --reference"),
    (["--stopwords", "sw.txt"], "--stopwords only applies with --reference"),
    (["--split-fraction", "0.5"], "--split-fraction only applies with --corpus"),
    (["--split-fraction", "2", "--reference", "CORPUS"],
     "--split-fraction only applies with --corpus"),
    (["--top-n", "1", "--corpus", "CORPUS"], "--top-n only applies with --reference"),
])
def test_eval_flag_without_its_input_is_a_usage_error(synth_dir, tmp_path, flags, message,
                                                      capsys):
    assert main(train_argv(synth_dir, tmp_path, "--algo", "plsa", "--k", "3")) == 0
    flags = [str(synth_dir / "corpus.sparse") if f == "CORPUS" else f for f in flags]
    code = main(["eval", "--model", str(tmp_path / "model.json"), "--out", str(tmp_path / "ev"),
                 "--truth", str(synth_dir / "truth.json"), *flags, "--seed", "1"])
    assert code == EXIT_USAGE == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ev" / "metrics.json").exists()


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_dirichlet_parameter_not_finite_is_a_data_error(tmp_path, field, value, capsys):
    out = tmp_path / "out"
    code = main(["synth", *SYNTH, f"--{field}", value, "--out", str(out), "--seed", "1"])
    assert code == EXIT_DATA == 2
    assert "Dirichlet parameters must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed, message", [
    ("18446744073709551616", "seed must be below 2**64"),
    ("-1", "seed must be non-negative"),
])
def test_synth_seed_outside_a_philox_key_word_is_a_data_error(tmp_path, seed, message, capsys):
    out = tmp_path / "out"
    code = main(["synth", *SYNTH, "--out", str(out), "--seed", seed])
    assert code == EXIT_DATA == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_unsatisfiable_synth_threshold_exits_3_without_a_directory(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["synth", "--profile", "desk", "--topics", "20", "--vocab", "10",
                 "--min-topic-dist", "1.4", "--out", str(out), "--seed", "1"])
    assert code == cli.EXIT_ALGORITHM == 3
    assert "distinctness threshold unsatisfiable: 10000 rejections" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, text, query, terms", [
    ("corpus.sparse", "docs=4 terms=3 nnz=6\nApple\nbanana\nCherry\nd0 Apple 2\n"
     "d0 banana 1\nd1 banana 3\nd2 Cherry 2\nd2 Apple 1\nd3 Cherry 1\n", "Apple",
     ["Apple", "banana", "Cherry"]),
    ("corpus.txt", "Apple banana apple\nbanana banana\ncherry Apple\ncherry\n", "APPLE",
     ["apple", "banana", "cherry"]),
])
def test_query_names_a_term_as_given_or_in_lowercase(tmp_path, name, text, query, terms):
    (tmp_path / name).write_text(text)
    code = main(["train", "--algo", "query", "--query", query, "--corpus", str(tmp_path / name),
                 "--out", str(tmp_path / "model"), "--seed", "1"])
    assert code == 0
    with open(tmp_path / "model" / "model.json", encoding="utf-8") as fh:
        model = json.load(fh)
    assert model["vocab"] == terms and model["meta"]["query"] == query
    code = main(["train", "--algo", "query", "--query", "durian", "--corpus",
                 str(tmp_path / name), "--out", str(tmp_path / "unknown"), "--seed", "1"])
    assert code == EXIT_DATA == 2


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


@pytest.mark.parametrize("command", ["synth", "train", "eval"])
def test_a_negative_seed_is_a_data_error_whatever_the_run(synth_dir, tmp_path, capsys, command):
    assert main(train_argv(synth_dir, tmp_path / "model", "--algo", "plsa", "--k", "3")) == 0
    inputs = {"synth": SYNTH,
              "train": ["--algo", "plsa", "--k", "3", "--corpus", str(synth_dir / "corpus.sparse")],
              "eval": ["--model", str(tmp_path / "model" / "model.json"),
                       "--truth", str(synth_dir / "truth.json")]}
    out = tmp_path / "out"
    code = main([command, *inputs[command], "--out", str(out), "--seed", "-1"])
    assert code == EXIT_DATA == 2
    assert "data error: seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


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


def input_runs(synth_dir, tmp_path):
    """Each input flag's plain file, and the argv that reads the file in place of ``{}``.

    The two train flags, --config and the four eval flags cover every file the CLI reads.
    """
    sparse, truth = str(synth_dir / "corpus.sparse"), str(synth_dir / "truth.json")
    assert main(train_argv(synth_dir, tmp_path / "model", "--algo", "plsa", "--k", "3")) == 0
    model = str(tmp_path / "model" / "model.json")
    corpus = load_corpus(sparse)
    text = tmp_path / "corpus.txt"
    text.write_text("".join(" ".join(np.repeat(np.array(corpus.vocab.terms)[ids], counts)) + "\n"
                            for ids, counts in corpus.docs))
    top = np.argsort(-background_model(corpus))[:3]  # the first stopword is a frequent term
    (tmp_path / "sw.txt").write_text("".join(corpus.vocab.terms[w] + "\n" for w in top))
    (tmp_path / "k.cfg").write_text("k=3\n")
    train, evaluate = ["train", "--algo", "plsa", "--seed", "1"], ["eval", "--seed", "1"]
    return {
        "train --corpus": (sparse, [*train, "--k", "3", "--corpus", "{}"]),
        "train --stopwords": (tmp_path / "sw.txt",
                              [*train, "--k", "3", "--corpus", str(text), "--stopwords", "{}"]),
        "--config": (tmp_path / "k.cfg", [*train, "--corpus", sparse, "--config", "{}"]),
        "eval --corpus": (sparse, [*evaluate, "--model", model, "--corpus", "{}"]),
        "eval --reference": (sparse, [*evaluate, "--model", model, "--reference", "{}"]),
        "eval --model": (model, [*evaluate, "--model", "{}", "--truth", truth]),
        "eval --truth": (truth, [*evaluate, "--model", model, "--truth", "{}"]),
    }


def reading(argv, path):
    """``argv`` with ``path`` in place of ``{}``."""
    return [str(path) if arg == "{}" else arg for arg in argv]


def run_output(argv, path, out):
    """Run ``argv`` on ``path`` into ``out``: its model.json's bytes, or its metrics less the
    config echo, which names the input paths and --out."""
    assert main([*reading(argv, path), "--out", str(out)]) == 0
    if argv[0] == "train":
        return (out / "model.json").read_bytes()
    report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    del report["config"]
    return report


FLAGS = ["train --corpus", "train --stopwords", "--config", "eval --corpus", "eval --reference",
         "eval --model", "eval --truth"]


@pytest.mark.parametrize("flag", FLAGS)
def test_a_byte_order_mark_changes_no_output(synth_dir, tmp_path, flag):
    plain, argv = input_runs(synth_dir, tmp_path)[flag]
    marked = tmp_path / "marked.input"
    marked.write_bytes(codecs.BOM_UTF8 + Path(plain).read_bytes())
    expected = run_output(argv, plain, tmp_path / "plain")
    assert run_output(argv, marked, tmp_path / "marked") == expected


@pytest.mark.parametrize("flag, content", [
    *(pytest.param(flag, "café\n".encode("latin-1"), id=f"{flag}-latin1") for flag in FLAGS),
    pytest.param("eval --model", b"not json\n", id="eval --model-not-json"),
    pytest.param("eval --truth", b"not json\n", id="eval --truth-not-json"),
])
def test_an_unreadable_input_is_a_data_error_naming_the_file(synth_dir, tmp_path, capsys, flag,
                                                             content):
    _, argv = input_runs(synth_dir, tmp_path)[flag]
    bad, out = tmp_path / "bad.input", tmp_path / "out"
    bad.write_bytes(content)
    capsys.readouterr()
    assert main([*reading(argv, bad), "--out", str(out)]) == EXIT_DATA == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bad) in err
    assert not out.exists()
