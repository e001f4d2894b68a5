import json

import numpy as np
import pytest

from patternq.errors import BadBundle, DuplicateEdge
from patternq.graphs import torus_mesh
from patternq.partitions import make_partition
from patternq.serialize import (
    Canonical,
    dumps_canonical,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_partition,
    partition_from_dict,
    partition_to_dict,
    save_graph,
    save_partition,
    sha256_of,
)


def test_canonical_json_sorts_keys_and_formats_floats():
    text = dumps_canonical({"b": 1.0 / 3.0, "a": [1, True, None, "x"]})
    assert text == '{"a":[1,true,null,"x"],"b":0.33333333333333331}'


def test_canonical_json_seventeen_digits_round_trip():
    for x in (1 / 3, 0.1, 2.0, 1e-12, 123456.789):
        emitted = dumps_canonical({"v": x})
        assert json.loads(emitted)["v"] == x


def test_canonical_json_handles_numpy_types():
    obj = {"m": np.array([[0.25, 0.75]]), "n": np.int64(3), "f": np.float64(0.5),
           "b": np.bool_(True)}
    assert dumps_canonical(obj) == '{"b":true,"f":0.5,"m":[[0.25,0.75]],"n":3}'


def test_canonical_json_rejects_non_finite():
    with pytest.raises(BadBundle):
        dumps_canonical({"v": float("nan")})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_canonical_json_rejects_non_finite_in_bulk_rows(bad):
    # rows of plain ints and floats are formatted in one join
    for obj in ([1.0, bad, 2.0], (3, bad), np.array([0.5, bad]),
                np.array([[0.0, 1.0], [bad, 1.0]]), {"edges": [[0, 1, 1.0], [1, 2, bad]]}):
        with pytest.raises(BadBundle):
            dumps_canonical(obj)


def test_canonical_text_is_copied_verbatim():
    inner = Canonical(dumps_canonical({"b": [1, 2.5], "a": "x"}))
    assert dumps_canonical({"s": inner, "t": "plain"}) == (
        '{"s":{"a":"x","b":[1,2.5]},"t":"plain"}')


def test_sha256_is_stable():
    a = sha256_of({"x": [1.0, 2.0], "y": "s"})
    b = sha256_of({"y": "s", "x": [1.0, 2.0]})
    assert a == b and len(a) == 64


def test_graph_file_round_trip(tmp_path):
    g = torus_mesh(4, 4)
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert load_graph(path) == g
    assert graph_from_dict(graph_to_dict(g)) == g


def test_graph_from_dict_validates():
    with pytest.raises(DuplicateEdge):
        graph_from_dict({"n": 3, "edges": [[0, 1, 1.0], [1, 0, 2.0]]})


def test_partition_file_round_trip(tmp_path):
    pi = make_partition([[2, 5], [0, 1, 3, 4, 6, 7]], 8)
    path = tmp_path / "p.json"
    save_partition(pi, path)
    assert load_partition(path, 8).classes == pi.classes
    assert partition_from_dict(partition_to_dict(pi), 8).classes == pi.classes
