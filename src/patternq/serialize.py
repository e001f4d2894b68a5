"""File formats and reproducible JSON serialization.

Graph files:     {"n": <int>, "edges": [[i, j, w], ...]}   (0-based, i < j)
Partition files: {"classes": [[v, ...], ...]}
Permutations:    {"perms": [[image of 0, image of 1, ...], ...]}
Model files:     {"A": 2.0, "K": 1.0, "h": 6.0, "tau": 1.0}

Canonical dumps sort object keys and print floats with 17 significant
digits, so identical inputs always produce byte-identical reports.  Text
wrapped in Canonical is copied as it stands: a sealed bundle section is
emitted once, hashed over that canonical text and written from the same
text.
"""
from __future__ import annotations

import hashlib
import json
import numbers
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import BadBundle, BadOptions
from .graphs import WeightedGraph, build_graph
from .partitions import Partition, make_partition

__all__ = [
    "Canonical",
    "dumps_canonical",
    "sha256_of",
    "graph_to_dict",
    "graph_from_dict",
    "load_graph",
    "save_graph",
    "partition_to_dict",
    "partition_from_dict",
    "load_partition",
    "save_partition",
    "load_perms",
]


class Canonical(str):
    """Text that already is canonical JSON; the emitter copies it verbatim."""

    __slots__ = ()


_NUMBER_TYPES = frozenset((int, float))


def _finite(text: str) -> str:
    """text, which holds formatted ints and floats, unless one was nan or
    inf: a finite float at 17 digits or an int never contains "n", while
    nan and inf always do."""
    if "n" in text:
        raise BadBundle("cannot serialize non-finite numbers")
    return text


def _emit(obj, parts: list[str]) -> None:
    """Append the canonical JSON of obj; numpy arrays and scalars become
    their plain Python values and dict keys are written as str(key).  A
    list or tuple whose items are all exactly int or float is written in
    one join, and Canonical text is copied as it stands.
    """
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if type(obj) is Canonical:
        parts.append(obj)
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(_finite(format(obj, ".17g")))
    elif isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj, key=str)):
            if i:
                parts.append(",")
            parts.append(encode_basestring_ascii(str(key)))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= _NUMBER_TYPES:
            parts.append("[" + _finite(",".join(
                [str(x) if type(x) is int else format(x, ".17g") for x in obj])) + "]")
        else:
            parts.append("[")
            for i, item in enumerate(obj):
                if i:
                    parts.append(",")
                _emit(item, parts)
            parts.append("]")
    else:
        raise BadBundle(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def sha256_of(obj) -> str:
    return hashlib.sha256(dumps_canonical(obj).encode("ascii")).hexdigest()


def _load_json(path, kind: type, what: str):
    """The JSON value in path; BadOptions unless it is of the given kind."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, kind):
        raise BadOptions(f"{path} must hold {what}")
    return data


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _list_of(ok):
    """A check accepting a list whose items all pass ok."""
    return lambda x: isinstance(x, (list, tuple)) and all(map(ok, x))


def _is_edge(e) -> bool:
    return (isinstance(e, (list, tuple)) and len(e) == 3
            and _is_int(e[0]) and _is_int(e[1]) and _is_real(e[2]))


def _field(data: dict, key: str, ok, what: str):
    """data[key]; BadOptions unless ok accepts it, so a wrong field type is
    a tagged input error rather than a TypeError deep in a constructor."""
    value = data[key]
    if not ok(value):
        raise BadOptions(f"field {key!r} must be {what}")
    return value


# ---- graphs ----

def graph_to_dict(g: WeightedGraph) -> dict:
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


def graph_from_dict(data: dict) -> WeightedGraph:
    return build_graph(int(_field(data, "n", _is_int, "an integer")),
                       _field(data, "edges", _list_of(_is_edge), "a list of [i, j, w] triples"))


def load_graph(path) -> WeightedGraph:
    return graph_from_dict(_load_json(path, dict, "a JSON object with 'n' and 'edges'"))


def save_graph(g: WeightedGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(graph_to_dict(g)))
        fh.write("\n")


# ---- partitions / permutations ----

def partition_to_dict(pi: Partition) -> dict:
    return {"classes": [list(cls) for cls in pi.classes]}


def partition_from_dict(data: dict, n: int) -> Partition:
    return make_partition(_field(data, "classes", _list_of(_list_of(_is_int)),
                                 "a list of vertex lists"), n)


def load_partition(path, n: int) -> Partition:
    return partition_from_dict(_load_json(path, dict, "a JSON object with 'classes'"), n)


def save_partition(pi: Partition, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(partition_to_dict(pi)))
        fh.write("\n")


def load_perms(path) -> list[list[int]]:
    data = _load_json(path, dict, "a JSON object with 'perms'")
    perms = _field(data, "perms", _list_of(_list_of(_is_int)), "a list of vertex lists")
    return [[int(x) for x in perm] for perm in perms]
