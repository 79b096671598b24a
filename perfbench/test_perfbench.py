"""Tests of the benchmark itself: the runner at tiny sizes, the checks and the tracer."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("plsa-sweep", "grow-auto", "nplsa-desk")


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def declared(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_emits_every_metric_with_its_unit(workload, trace, kind):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    # Every train and eval passes; only the sparse round-trip probe may fail
    # (it does while the sparse format cannot read back its own header).
    assert result["failed"] == int("sparse round-trip probe: FAILED" in proc.stdout)
    assert result["attempted"] > result["failed"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared(kind)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("plsa-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def write_train_output(out_dir, topics, mixes, lls, objectives=None):
    out_dir.mkdir()
    model = {"vocab": [f"w{i}" for i in range(len(topics[0]))], "topics": topics,
             "mixes": mixes, "meta": {}}
    (out_dir / "model.json").write_text(json.dumps(model))
    lines = ["iter,K,loglik,objective,diversity,epsilon,wall_ms"]
    for i, ll in enumerate(lls):
        obj = "" if objectives is None else repr(objectives[i])
        lines.append(f"{i + 1},{len(topics)},{ll!r},{obj},,,1.0")
    (out_dir / "trace.csv").write_text("\n".join(lines) + "\n")


def test_check_train_accepts_a_valid_model(tmp_path):
    write_train_output(tmp_path / "ok", [[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0]], [-9.0, -8.0])
    errors, info = checks.check_train(tmp_path / "ok", "plsa", 1000)
    assert errors == []
    assert info == {"K": 2, "final_ll": -8.0}


@pytest.mark.parametrize("topics, mixes", [
    ([[0.5, 0.4], [0.25, 0.75]], [[1.0, 0.0]]),    # a topic row sums to 0.9
    ([[1.2, -0.2], [0.25, 0.75]], [[1.0, 0.0]]),   # a negative entry
    ([[0.5, 0.5], [0.25, 0.75]], [[0.7, 0.7]]),    # a mix row sums to 1.4
])
def test_check_train_rejects_non_simplex_rows(tmp_path, topics, mixes):
    write_train_output(tmp_path / "bad", topics, mixes, [-9.0, -8.0])
    errors, _ = checks.check_train(tmp_path / "bad", "plsa", 1000)
    assert errors


def test_check_train_rejects_decreasing_loglik(tmp_path):
    write_train_output(tmp_path / "bad", [[0.5, 0.5]], [[1.0]], [-9.0, -8.0, -8.5])
    errors, _ = checks.check_train(tmp_path / "bad", "plsa", 1000)
    assert any("loglik decreases" in e for e in errors)


def test_check_train_rejects_decreasing_objective(tmp_path):
    write_train_output(tmp_path / "bad", [[0.5, 0.5]], [[1.0]], [-9.0, -8.0], [-20.0, -20.5])
    errors, _ = checks.check_train(tmp_path / "bad", "nplsa", 1000)
    assert any("objective decreases" in e for e in errors)


def test_check_train_rejects_too_many_topics(tmp_path):
    write_train_output(tmp_path / "bad", [[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0]], [-9.0])
    errors, _ = checks.check_train(tmp_path / "bad", "auto", 1)
    assert any("outside" in e for e in errors)


def test_tracer_reports_a_missing_target_as_none(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from topicgrow import nplsa  # noqa: F401  (loads the modules the tracer wraps)
    finally:
        sys.path.remove(str(ROOT / "src"))
    # As if a later version deleted fold_in.
    monkeypatch.setattr(tracing, "SPAN_TARGETS", [
        (name, module, "no_such_function" if name == "plsa.fold_in" else path, hook)
        for name, module, path, hook in tracing.SPAN_TARGETS])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["plsa.fold_in"]
    layers = tracer.summary(0.0)
    assert layers["plsa.fold_in_s"] is None
    assert layers["plsa.fold_in_calls"] is None
    assert layers["plsa.loglik_s"] == 0.0


def test_tracer_self_times_partition_the_covered_time():
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.0, 6.0]).__next__
    tracer = tracing.Tracer(clock=clock)
    outer = tracer._span_wrapper("nplsa.train_nplsa", lambda: inner(), None)
    inner = tracer._span_wrapper("plsa.fold_in", lambda: None, None)
    outer()  # nplsa 0..4 with fold_in 1..3 inside
    tracer._span_wrapper("corpus.load_corpus", lambda: None, None)()  # 4..6
    layers = tracer.summary(7.0)
    assert layers["nplsa.self_s"] == 2.0
    assert layers["plsa.fold_in_s"] == 2.0
    assert layers["corpus.load_s"] == 2.0
    assert layers["cli.self_s"] == 1.0
