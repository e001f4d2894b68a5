"""File formats and reproducible JSON serialization.

Graph files:     {"n": <int>, "edges": [[i, j, w], ...]}   (0-based, i < j)
Partition files: {"classes": [[v, ...], ...]}
Permutations:    {"perms": [[image of 0, image of 1, ...], ...]}
Model files:     {"A": 2.0, "K": 1.0, "h": 6.0, "tau": 1.0}
Pattern files:   {"z": [class value, ...], ...}
Initial states:  [x_0, x_1, ...]

Canonical dumps sort object keys and print floats with 17 significant
digits, so identical inputs always produce byte-identical reports.  Text
wrapped in Canonical is copied as it stands: a sealed bundle section is
emitted once, hashed over that canonical text and written from the same
text.  A 1-D or 2-D float64 array of _BULK_ITEMS items or more, such as a
quotient matrix of many classes, formats each distinct value (by bit
pattern, so -0.0 stays apart from 0.0) once and joins the texts row by
row; a shorter array goes item by item, which costs less than finding the
distinct values would save.  Both give the same bytes.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import numbers
from json.encoder import encode_basestring_ascii

import numpy as np

from .cells import HillMap
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
    "partition_to_dict",
    "partition_from_dict",
    "load_partition",
    "load_perms",
    "model_from_dict",
    "model_to_dict",
    "load_model",
    "load_pattern_values",
    "load_initial_state",
    "load_bundle",
]


class Canonical(str):
    """Text that already is canonical JSON; the emitter copies it verbatim."""

    __slots__ = ()


_NUMBER_TYPES = frozenset((int, float))
_ROW_TYPES = frozenset((list, tuple))


def _finite(text: str) -> str:
    """text, which holds formatted ints and floats, unless one was nan or
    inf: a finite float at 17 digits or an int never contains "n", while
    nan and inf always do."""
    if "n" in text:
        raise BadBundle("cannot serialize non-finite numbers")
    return text


def _numbers(row) -> str:
    """The canonical JSON of a list whose items are all exactly int or float."""
    return "[" + _finite(",".join(
        [str(x) if type(x) is int else format(x, ".17g") for x in row])) + "]"


# np.unique costs about 20 us, which formatting the repeats of a shorter
# array does not pay back
_BULK_ITEMS = 64


def _float_array(a: np.ndarray) -> str:
    """The canonical JSON of a 1-D or 2-D float64 array, each distinct bit
    pattern formatted once."""
    values, at = np.unique(a.view(np.uint64).ravel(), return_inverse=True)
    texts = [format(x, ".17g") for x in values.view(np.float64).tolist()]
    _finite("".join(texts))
    items = list(map(texts.__getitem__, at.tolist()))
    if a.ndim == 1:
        return "[" + ",".join(items) + "]"
    q = a.shape[1]
    return "[" + ",".join(["[" + ",".join(items[k:k + q]) + "]"
                           for k in range(0, len(items), q)]) + "]"


def _emit(obj, parts: list[str]) -> None:
    """Append the canonical JSON of obj; numpy arrays and scalars become
    their plain Python values and dict keys are written as str(key).  A
    list or tuple whose items are all exactly int or float, or all such
    lists (a graph's [i, j, w] rows), is written in one join, and Canonical
    text is copied as it stands.  A large float64 array goes through
    _float_array.
    """
    if isinstance(obj, np.ndarray):
        if obj.size >= _BULK_ITEMS and obj.dtype == np.float64 and obj.ndim <= 2:
            obj = Canonical(_float_array(obj))
        else:
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
        kinds = set(map(type, obj))
        if kinds <= _NUMBER_TYPES:
            parts.append(_numbers(obj))
        elif (kinds <= _ROW_TYPES
              and set(map(type, itertools.chain.from_iterable(obj))) <= _NUMBER_TYPES):
            parts.append("[" + ",".join(map(_numbers, obj)) + "]")
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


# the exact types JSON loads give take the fast path; the ABC check still
# accepts numpy and other registered numbers, and bool (an int) is refused
def _is_int(x) -> bool:
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _is_real(x) -> bool:
    return (type(x) is float or type(x) is int
            or (isinstance(x, numbers.Real) and not isinstance(x, bool)))


def _list_of(ok):
    """A check accepting a list whose items all pass ok."""
    return lambda x: isinstance(x, (list, tuple)) and all(map(ok, x))


def _is_edge(e) -> bool:
    return (isinstance(e, (list, tuple)) and len(e) == 3
            and _is_int(e[0]) and _is_int(e[1]) and _is_real(e[2]))


def _field(data: dict, key: str, ok, what: str):
    """data[key]; BadOptions unless it is there and ok accepts it, so a missing or
    mistyped field is a tagged input error, not a KeyError or a TypeError."""
    if key not in data:
        raise BadOptions(f"missing field {key!r}, which must be {what}")
    if not ok(data[key]):
        raise BadOptions(f"field {key!r} must be {what}")
    return data[key]


# ---- graphs ----

def graph_to_dict(g: WeightedGraph) -> dict:
    return {"n": g.n, "edges": list(map(list, zip(g.i.tolist(), g.j.tolist(), g.w.tolist())))}


def graph_from_dict(data: dict) -> WeightedGraph:
    return build_graph(int(_field(data, "n", _is_int, "an integer")),
                       _field(data, "edges", _list_of(_is_edge), "a list of [i, j, w] triples"))


def load_graph(path) -> WeightedGraph:
    return graph_from_dict(_load_json(path, dict, "a JSON object with 'n' and 'edges'"))


# ---- partitions / permutations ----

def partition_to_dict(pi: Partition) -> dict:
    return {"classes": [list(cls) for cls in pi.classes]}


def partition_from_dict(data: dict, n: int) -> Partition:
    return make_partition(_field(data, "classes", _list_of(_list_of(_is_int)),
                                 "a list of vertex lists"), n)


def load_partition(path, n: int) -> Partition:
    return partition_from_dict(_load_json(path, dict, "a JSON object with 'classes'"), n)


def load_perms(path) -> list[list[int]]:
    data = _load_json(path, dict, "a JSON object with 'perms'")
    perms = _field(data, "perms", _list_of(_list_of(_is_int)), "a list of vertex lists")
    return [[int(x) for x in perm] for perm in perms]


# ---- models ----

def model_from_dict(data: dict) -> HillMap:
    """The HillMap of the fields A, K, h and tau, each defaulting to 2, 1,
    6 and 1; BadOptions names any other field, so a misspelled one is not
    silently replaced by its default."""
    unknown = [key for key in data if key not in ("A", "K", "h", "tau")]
    if unknown:
        raise BadOptions(f"unknown model fields {unknown}; expected A, K, h, tau")

    def number(key: str, default: float) -> float:
        value = data.get(key, default)
        if not _is_real(value):
            raise BadOptions(f"model field {key!r} must be a number")
        return float(value)

    return HillMap(amplitude=number("A", 2.0), threshold=number("K", 1.0),
                   exponent=number("h", 6.0), tau=number("tau", 1.0))


def model_to_dict(m: HillMap) -> dict:
    return {"A": m.amplitude, "K": m.threshold, "h": m.exponent, "tau": m.tau}


def load_model(path) -> HillMap:
    return model_from_dict(_load_json(path, dict, "a JSON object of model parameters"))


# ---- patterns, initial states and bundles ----

def load_pattern_values(path) -> np.ndarray:
    """The finite class values in the field 'z' of the JSON object in path."""
    data = _load_json(path, dict, "a JSON object with a 'z' field")
    z = np.asarray(_field(data, "z", _list_of(_is_real), "a list of numbers"), dtype=float)
    if not np.isfinite(z).all():
        raise BadOptions("field 'z' must be a list of finite numbers")
    return z


def load_initial_state(path) -> np.ndarray:
    x0 = _load_json(path, list, "a JSON list with the initial state")
    if not _list_of(_is_real)(x0):
        raise BadOptions(f"{path} must hold a JSON list of numbers")
    return np.asarray(x0, dtype=float)


def load_bundle(path) -> dict:
    return _load_json(path, dict, "a JSON object")
