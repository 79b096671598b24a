import json

import numpy as np
import pytest

from topicgrow.corpus import Vocabulary
from topicgrow.errors import DataError
from topicgrow.modelio import read_model, write_model

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
