import importlib.util
import json
import sys
from pathlib import Path

import pytest

from topicgrow import autostop

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def kgrid(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools"), *sys.path])
    spec = importlib.util.spec_from_file_location("kgrid", ROOT / "tools" / "kgrid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tiny_grid_records_one_row_per_run(kgrid, tmp_path, capsys):
    out = tmp_path / "BENCH_kgrid.json"
    argv = ["--profiles", "desk", "--k-true", "3", "--patience", "2", "3", "--seeds", "1",
            "--n-docs", "30", "--out", str(out)]
    assert kgrid.main(argv) == 0
    rows = json.loads(out.read_text())
    assert [(r["algo"], r["patience"]) for r in rows] == [
        ("auto", 2), ("auto", 3), ("query", 2), ("query", 3)]
    for row in rows:
        assert (row["profile"], row["k_true"], row["seed"], row["n_docs"]) == ("desk", 3, 1, 30)
        assert row["refit_passes"] == autostop._SPAWN_REFIT_PASSES
        assert row["refit_uptake"] == autostop._SPAWN_UPTAKE
        assert row["k"] >= 1 and 0.0 <= row["tce"] and row["nll_per_token"] > 0.0
        assert row["seconds"] > 0.0

    capsys.readouterr()
    assert kgrid.main(["--summary", "--seeds", "1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(rows)  # a header and a line per cell
    assert all(f" {row['k']} " in line for row, line in zip(rows, lines[1:]))


def test_an_nplsa_cell_records_its_threshold_and_the_miss(kgrid, tmp_path, capsys):
    out = tmp_path / "BENCH_kgrid.json"
    argv = ["--profiles", "desk", "--k-true", "3", "--algos", "nplsa", "--seeds", "1",
            "--n-docs", "30", "--out", str(out)]
    assert kgrid.main(argv) == 0
    [row] = json.loads(out.read_text())
    assert (row["algo"], row["patience"], row["eps_tok"]) == ("nplsa", None, 1.5)
    assert row["k"] >= 1 and 0.0 <= row["tce"] and row["nll_per_token"] > 0.0

    capsys.readouterr()
    assert kgrid.main(["--summary", "--seeds", "1", "--out", str(out)]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert "|K-K*|" in header and " 1.5 " in line


def test_the_summary_gives_the_median_miss(kgrid):
    row = {"commit": "abc", "refit_passes": 10, "profile": "desk", "k_true": 10, "algo": "nplsa",
           "patience": None, "eps_tok": 1.5, "seed": 1, "k": 12, "tce": 0.01}
    rows = [row, dict(row, seed=2, k=9), dict(row, seed=3, k=10)]
    [_, line] = kgrid.summarize(rows, {1, 2, 3})
    assert " 3/3 " not in line and " 1/3 " in line and " 12/9/10 " in line
    assert line.split(" 12/9/10 ")[1].split() == ["1", "0.0100"]


def test_a_seed_outside_the_summary_is_left_out(kgrid):
    row = {"commit": "abc", "refit_passes": 10, "profile": "desk", "k_true": 3, "algo": "auto",
           "patience": 3, "seed": 1, "k": 3, "tce": 0.01}
    lines = kgrid.summarize([row, dict(row, seed=4, k=5, tce=0.5)], {1})
    assert len(lines) == 2
    assert " 1/1 " in lines[1] and lines[1].endswith("0.0100")
