import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

FAKE_RUN = '''import json, sys
print(json.dumps({"environment": {"host": "h", "argv": sys.argv[1:]}}))
print("train_s 1.5 s")
print(json.dumps({"correct": True, "attempted": 2, "failed": 0,
                  "metrics": {"train_s": {"value": 1.5, "unit": "s"}}}))
'''


def test_records_the_environment_and_final_lines(tmp_path, monkeypatch):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(FAKE_RUN)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    for seed in (1, 2):
        assert bench_record.main(["--workload", "w", "--seed", str(seed),
                                  "--checkout", str(checkout)]) == 0
    path = tmp_path / "BENCH_w.json"
    rows = json.loads(path.read_text())
    assert len(path.read_text().splitlines()) == 4  # brackets and a line per row
    assert [(r["workload"], r["seed"]) for r in rows] == [("w", 1), ("w", 2)]
    assert rows[1]["environment"] == {
        "host": "h", "argv": ["--workload", "w", "--seed", "2", "--trace", "0"]}
    assert rows[1]["result"]["metrics"]["train_s"]["value"] == 1.5
    assert rows[1]["commit"] is None or isinstance(rows[1]["commit"], str)


def test_a_failed_benchmark_records_nothing(tmp_path, monkeypatch):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text("import sys\nsys.exit(3)\n")
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    with pytest.raises(SystemExit, match="exited with 3"):
        bench_record.main(["--workload", "w", "--seed", "1", "--checkout", str(checkout)])
    assert not (tmp_path / "BENCH_w.json").exists()
