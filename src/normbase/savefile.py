"""One JSON codec for fitted model dataclasses.

``to_json`` writes a dataclass's fields as a dict: arrays become nested lists
of plain numbers and nested dataclasses (tree nodes, feature bundles, target
scalers) become nested objects. ``json`` writes each float as its shortest
repr, so float64 values reload bit-identically. ``from_json`` rebuilds the
dataclass from its field annotations and raises ValueError on any value that
does not match them. An array must hold bool, integer or float values; an
empty one has no element to tell its dtype and reloads as float64.
"""

from __future__ import annotations

import dataclasses
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np


def to_json(obj):
    """JSON-ready form of a fitted dataclass and everything it holds."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, list):
        return [to_json(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def from_json(kind, doc):
    """Rebuild a value of annotation ``kind`` from ``doc``; ValueError if it does not fit."""
    return _decoder(kind)(doc)


_DECODERS = {}  # annotation -> decoder, built once and reused for every value


def _decoder(kind):
    if kind not in _DECODERS:
        _DECODERS[kind] = _build(kind)
    return _DECODERS[kind]


def _build(kind):
    if dataclasses.is_dataclass(kind):
        return _dataclass_decoder(kind)
    if kind is np.ndarray:
        return _array
    origin, args = get_origin(kind), get_args(kind)
    if origin is list:
        item = _decoder(args[0])
        return lambda v: [item(x) for x in _checked(v, list)]
    if origin is Union:  # Optional[T]
        inner = _decoder(args[0])
        return lambda v: None if v is None else inner(v)
    # int, float, bool or str; a JSON boolean is not a number here
    accepted = (float, int) if kind is float else (kind,)
    return lambda v: kind(_checked(v, *accepted))


def _checked(v, *types):
    if type(v) not in types:
        raise ValueError(f"expected {types[0].__name__}, got {v!r}")
    return v


def _array(v) -> np.ndarray:
    a = np.array(v)
    if a.dtype.kind not in "biuf":
        raise ValueError(f"expected an array of numbers, got dtype {a.dtype}")
    return a


def _dataclass_decoder(cls):
    # Field decoders are resolved on first use: a field may name cls itself
    # (TreeNode.left), so cls's own decoder must be registered first.
    fields, keys = [], set()

    def decode(doc):
        if not fields:
            hints = get_type_hints(cls)
            for f in dataclasses.fields(cls):
                kind = hints[f.name]
                # a JSON value already of the field's type (null for an
                # Optional) is taken as is, without a decoder call
                same = type(None) if get_origin(kind) is Union else kind
                fields.append((f.name, same, _decoder(kind)))
                keys.add(f.name)
        if type(doc) is not dict or doc.keys() != keys:
            raise ValueError(f"expected an object with keys {sorted(keys)} for {cls.__name__}")
        values = []
        for name, same, dec in fields:
            v = doc[name]
            values.append(v if type(v) is same else dec(v))
        return cls(*values)  # fields() lists the __init__ parameters in order

    return decode
