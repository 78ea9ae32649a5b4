"""JSON ingestion and emission of algebra bundles.

A bundle carries two algebras and the action tensors in sparse triplet
form; omitted entries are zero, duplicate index triples are rejected,
and every index is bounds-checked with a field path in the diagnostic.

    {
      "name": "lau-pair",
      "algebra_a": {"dim": 1, "labels": ["e"], "mult": [[0, 0, 0, 1.0, 0.0]]},
      "algebra_f": {"dim": 1, "labels": ["f"], "mult": [[0, 0, 0, 1.0, 0.0]]},
      "action": {"left":  [[0, 0, 0, 1.0, 0.0]],
                 "right": [[0, 0, 0, 1.0, 0.0]]}
    }

A single-algebra document is just the ``algebra_a`` sub-object on its
own (this is what the ``duplicate`` subcommand emits).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import BimoduleAction, FinDimAlgebra
from .errors import DuplicateEntry, ParseError


@dataclass(frozen=True)
class AlgebraBundle:
    name: str
    algebra_a: FinDimAlgebra
    algebra_f: FinDimAlgebra
    action: BimoduleAction
    metadata: dict = field(default_factory=dict)


def parse_bundle(text) -> AlgebraBundle:
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise ParseError("bundle must be a JSON object")
    for key in ("algebra_a", "algebra_f", "action"):
        if key not in obj:
            raise ParseError(f"missing required field {key!r}")
    a = parse_algebra(obj["algebra_a"], "algebra_a")
    f = parse_algebra(obj["algebra_f"], "algebra_f")
    action_obj = obj["action"]
    if not isinstance(action_obj, dict):
        raise ParseError("field 'action' must be an object")
    left = _dense_tensor(action_obj.get("left", []), (f.dim, a.dim, a.dim),
                         "action.left")
    right = _dense_tensor(action_obj.get("right", []), (a.dim, f.dim, a.dim),
                          "action.right")
    metadata = {k: v for k, v in obj.items()
                if k not in ("name", "algebra_a", "algebra_f", "action")}
    return AlgebraBundle(str(obj.get("name", "unnamed")), a, f,
                         BimoduleAction(left, right), metadata)


def parse_algebra(obj, path: str = "algebra") -> FinDimAlgebra:
    if isinstance(obj, (str, bytes)):
        obj = _load_json(obj)
    if not isinstance(obj, dict):
        raise ParseError(f"field {path!r} must be an object")
    if "dim" not in obj:
        raise ParseError(f"missing required field '{path}.dim'")
    dim = json_integer(obj["dim"], f"{path}.dim")
    if dim < 1:
        raise ParseError(f"field '{path}.dim' must be positive")
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim:
            raise ParseError(f"field '{path}.labels' must list {dim} names")
        labels = tuple(str(s) for s in labels)
    mult = _dense_tensor(obj.get("mult", []), (dim, dim, dim), f"{path}.mult")
    return FinDimAlgebra.from_mult(mult, labels)


def json_integer(value, path: str) -> int:
    """A JSON integer; a float, string or bool there is a ParseError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {path!r} must be an integer, got {value!r}")
    return value


def json_number(value, path: str) -> float:
    """A JSON number as a float; a string or bool there is a ParseError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field {path!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"field {path!r} is too large") from None


def _load_json(text):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None


def _dense_tensor(triplets, shape, path: str) -> np.ndarray:
    if not isinstance(triplets, list):
        raise ParseError(f"field {path!r} must be a list of entries")
    out = np.zeros(shape, dtype=complex)
    seen = set()
    for pos, entry in enumerate(triplets):
        where = f"{path}[{pos}]"
        if not isinstance(entry, list) or len(entry) != 5:
            raise ParseError(f"{where} must be [i, j, k, re, im]")
        idx = tuple(json_integer(i, f"{where}[{axis}]")
                    for axis, i in enumerate(entry[:3]))
        value = complex(json_number(entry[3], f"{where}[3]"),
                        json_number(entry[4], f"{where}[4]"))
        for axis, (i, bound) in enumerate(zip(idx, shape)):
            if not 0 <= i < bound:
                raise IndexError(
                    f"{where} index {i} out of range for axis {axis} "
                    f"(size {bound})")
        if idx in seen:
            raise DuplicateEntry(f"{where} repeats index triple {idx}")
        seen.add(idx)
        out[idx] = value
    return out


def _triplets(tensor: np.ndarray) -> list:
    out = []
    for idx in np.argwhere(tensor != 0):
        v = tensor[tuple(idx)]
        out.append([int(idx[0]), int(idx[1]), int(idx[2]),
                    float(v.real), float(v.imag)])
    return out


def algebra_to_obj(alg: FinDimAlgebra) -> dict:
    return {"dim": alg.dim, "labels": list(alg.labels),
            "mult": _triplets(alg.mult)}


def bundle_to_obj(bundle: AlgebraBundle) -> dict:
    obj = {
        "name": bundle.name,
        "algebra_a": algebra_to_obj(bundle.algebra_a),
        "algebra_f": algebra_to_obj(bundle.algebra_f),
        "action": {"left": _triplets(bundle.action.left),
                   "right": _triplets(bundle.action.right)},
    }
    obj.update(bundle.metadata)
    return obj


def serialize_bundle(bundle: AlgebraBundle) -> str:
    return json.dumps(bundle_to_obj(bundle), indent=2)


def bundle_from_triple(a: FinDimAlgebra, f: FinDimAlgebra, act: BimoduleAction,
                       name: str = "generated", **metadata) -> AlgebraBundle:
    return AlgebraBundle(name, a, f, act, dict(metadata))
