import csv
import json

import numpy as np
import pytest

from topicgrow.corpus import Vocabulary
from topicgrow.errors import DataError
from topicgrow.modelio import BASE_COLUMNS, QUERY_COLUMNS, read_model, write_model, write_trace
from topicgrow.plsa import TraceRow

TOPICS = [[0.25, 0.75], [0.5, 0.5]]
MIXES = [[1.0, 0.0], [0.3, 0.7], [0.5, 0.5]]


def model_file(tmp_path, topics=TOPICS, mixes=MIXES):
    path = tmp_path / "model.json"
    write_model(path, Vocabulary(["a", "b"]), np.array(topics), mixes, meta={"K": 2})
    return path


def test_round_trip(tmp_path):
    vocab, topics, mixes, meta = read_model(model_file(tmp_path))
    assert vocab.terms == ["a", "b"] and meta == {"K": 2}
    np.testing.assert_array_equal(topics, TOPICS)
    np.testing.assert_array_equal(mixes, MIXES)
    assert read_model(model_file(tmp_path, mixes=None))[2] is None


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    topics = rng.dirichlet(np.ones(6), size=3)
    topics[0, :4] = [1e-9, 5e-324, 2.2250738585072014e-308, 1e-300]  # floor and subnormals
    topics[0, 4:] = [0.1, 0.9 - 1e-9]
    mixes = rng.dirichlet(np.ones(3), size=4)
    mixes[1] = [1.0, 0.0, 0.0]
    path = tmp_path / "model.json"
    meta = {"K": 3, "best_diversity": np.float64(0.1) + 0.2}
    write_model(path, Vocabulary([f"t{i}" for i in range(6)]), topics, mixes, meta=meta)
    _, got_topics, got_mixes, got_meta = read_model(path)
    assert got_topics.tobytes() == topics.tobytes() and got_mixes.tobytes() == mixes.tobytes()
    assert got_meta == {"K": 3, "best_diversity": 0.30000000000000004}
    # The documented layout: a line per key and per topic and mix row.
    lines = path.read_text().splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith('  "')] == [
        '  "meta"', '  "mixes"', '  "topics"', '  "vocab"']
    assert [json.loads(line.strip().rstrip(",")) for line in lines if line.startswith("    [")] \
        == mixes.tolist() + topics.tolist()


@pytest.mark.parametrize("row", ["topics", "mixes"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), -0.25, 0.55])
def test_rejects_rows_that_are_not_distributions(tmp_path, row, value):
    # -0.25 keeps the row sum at 1; 0.55 moves it off 1
    topics, mixes = [list(r) for r in TOPICS], [list(r) for r in MIXES]
    (topics if row == "topics" else mixes)[1][0] = value
    if value == -0.25:
        (topics if row == "topics" else mixes)[1][1] = 1.25
    with pytest.raises(DataError, match="not a probability distribution"):
        read_model(model_file(tmp_path, topics, mixes))


def test_accepts_rounding_within_tolerance(tmp_path):
    topics = [[0.25, 0.75 + 5e-10], [0.5, 0.5]]
    read_model(model_file(tmp_path, topics))


def test_rejects_mixes_of_the_wrong_shape(tmp_path):
    with pytest.raises(DataError, match="mix shape"):
        read_model(model_file(tmp_path, mixes=[[1.0], [1.0]]))


def test_rejects_ragged_rows(tmp_path):
    path = model_file(tmp_path)
    payload = json.loads(path.read_text())
    payload["mixes"][0] = [1.0]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="bad model file"):
        read_model(path)


def test_a_repeated_term_names_the_model_file(tmp_path):
    path = model_file(tmp_path)
    payload = json.loads(path.read_text())
    payload["vocab"] = ["a", "a"]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataError) as raised:
        read_model(path)
    assert str(raised.value) == f"bad model file {path}: duplicate vocabulary term: 'a'"


@pytest.mark.parametrize("query_rows", [(), (1,), (0, 2)])
def test_trace_has_query_columns_exactly_when_a_row_has_a_query_distance(tmp_path, query_rows):
    rows = [TraceRow(iteration=i, k=i + 1, loglik=-1.0 - i, wall_ms=0.5) for i in range(3)]
    for i in query_rows:
        rows[i].query_distance, rows[i].closest_topic = 0.25, 0
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    with open(path, encoding="utf-8", newline="") as fh:
        header, *records = list(csv.reader(fh))
    assert header == BASE_COLUMNS + (QUERY_COLUMNS if query_rows else []) + ["wall_ms"]
    assert [len(r) for r in records] == [len(header)] * 3
    if query_rows:
        column = header.index("query_distance")
        assert [r[column] for r in records] == [
            "0.25" if i in query_rows else "" for i in range(3)]


def test_trace_writes_numpy_floats_as_plain_numbers(tmp_path):
    rows = [TraceRow(iteration=1, k=2, loglik=np.float64(-6.25), objective=np.float64(-7.25),
                     epsilon=np.float64(0.5), wall_ms=np.float64(1.5))]
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    with open(path, encoding="utf-8", newline="") as fh:
        (record,) = csv.DictReader(fh)
    assert [record[c] for c in ("loglik", "objective", "epsilon", "wall_ms")] == [
        "-6.25", "-7.25", "0.5", "1.5"]
