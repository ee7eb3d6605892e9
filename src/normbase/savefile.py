"""One JSON codec for dataclasses: saved models, config files and report.json.

``to_json`` writes a dataclass's fields as a dict: arrays become nested lists
of plain numbers and nested dataclasses (trees, feature bundles, target
scalers, the report's sections) become nested objects. ``json`` writes each
float as its shortest repr, so float64 values reload bit-identically.

``from_json`` is the only place that maps JSON onto annotations: the CLI
reads its config files and model file envelopes through it, every model's
``from_dict`` its payload, and from_json(normalize.Report, doc) a report.
An array must hold bool, integer or float values; an empty one has no
element to tell its dtype and reloads as float64. A saved tree keeps
``default_left``, the side NaN takes when the loaded tree routes a row; the
side NaN took while the tree grew is not saved (see gbmodels). json_schema
reads the same annotations and writes the JSON Schema of what to_json
writes, from which normalize.report_schema builds report.schema.json.

A field's allowed values are declared on it: a Literal annotation, or JSON
Schema bounds (``minimum``, ``exclusiveMinimum``, ``maximum``,
``exclusiveMaximum``) in its metadata. check_fields enforces both when a
dataclass that calls it from ``__post_init__`` is built, from_json names a
field that fails by its dotted key, and json_schema emits both.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import sys
from datetime import date
from pathlib import Path
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError

# each name's last word is the type's name in JSON Schema
_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string"}
_JSON_SCALARS = (float, int, bool, str, type(None))
# JSON Schema's bound keywords, each as the comparison a value must pass; a NaN fails all four
_BOUNDS = {"minimum": (">=", operator.ge), "exclusiveMinimum": (">", operator.gt),
           "maximum": ("<=", operator.le), "exclusiveMaximum": ("<", operator.lt)}


class FieldError(ConfigError):
    """A field outside its declared values; from_json names it by its dotted key."""

    def __init__(self, name: str, what: str):
        super().__init__(f"{name} {what}")
        self.name, self.what = name, what


def _literal_fault(values: tuple, value):
    """What ``value`` must be, if it is none of a Literal's ``values`` (by type and value: True is not 1)."""
    if not any(type(value) is type(v) and value == v for v in values):
        return f"must be {' or '.join(map(repr, values))}, not {value!r}"


def check_fields(obj) -> None:
    """Raise FieldError for the first field of dataclass ``obj`` that is not
    one of its Literal annotation's values or fails a bound in its metadata.
    A checked dataclass calls it from ``__post_init__``."""
    for f, (kind, _) in zip(dataclasses.fields(obj), _fields(type(obj)).values()):
        value = getattr(obj, f.name)
        fault = get_origin(kind) is Literal and _literal_fault(get_args(kind), value)
        if fault:
            raise FieldError(f.name, fault)
        if not all(_BOUNDS[k][1](value, limit) for k, limit in f.metadata.items()):
            ranges = " and ".join(f"{_BOUNDS[k][0]} {limit}" for k, limit in f.metadata.items())
            raise FieldError(f.name, f"must be {ranges}, not {value!r}")


def to_json(obj):
    """JSON-ready form of a dataclass and everything it holds: tuples become
    lists, dates ISO strings, and a float that is not finite, alone or in an
    array, becomes None (JSON null)."""
    if type(obj) in _JSON_SCALARS:  # first: a saved model is mostly lists of numbers
        return None if type(obj) is float and not math.isfinite(obj) else obj
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist() if obj.dtype.kind != "f" or np.isfinite(obj).all() else to_json(obj.tolist())
    if isinstance(obj, np.generic):
        return to_json(obj.item())
    return obj.isoformat() if isinstance(obj, date) else obj


@functools.cache  # resolving the annotations costs more than decoding a small object
def _fields(cls) -> dict:
    """{name: (annotation, required)} of a dataclass's fields, in order."""
    hints = get_type_hints(cls)
    missing = dataclasses.MISSING
    return {
        f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
    }


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _unfit(noun: str, path: str, what: str) -> ValueError:
    return ValueError(f"{noun} '{path}' {what}" if path else f"the document {what}")


def from_json(kind, doc, path: str = "", noun: str = "key"):
    """Rebuild a value of annotation ``kind`` from the decoded JSON ``doc``.

    ``kind`` is a dataclass (a JSON object of its fields: an unknown key is
    rejected, a field without a default is required), Optional[T] (T or
    null), a Union (its first alternative that fits), a Literal (one of its
    values, of the same type), list[T] or tuple[T, ...] (a JSON list), a
    fixed tuple such as tuple[date, date] (a list of that length, items
    named by index as in ``periods.train[1]``), np.ndarray (a nested list of
    numbers), dict[str, T] (an object of T values), dict (any JSON object,
    left to the caller), date (an ISO string), Path (a string), int, float (a
    finite JSON number), bool or str. ``path`` is the dotted key of ``doc``;
    ``noun`` says what a key is in error messages.

    Raises:
        ValueError: a value fails its annotation, its field's bounds or a
            nested dataclass's checks, naming its key.
        TypeError: ``kind`` is none of the annotations above.
    """
    if kind is np.ndarray:  # first: a saved tree ensemble is mostly arrays
        try:
            a = np.array(doc)
        except ValueError:  # a ragged nested list
            raise _unfit(noun, path, "must be an array of one shape") from None
        if a.dtype.kind not in "biuf":
            raise _unfit(noun, path, f"must be an array of numbers, not of dtype {a.dtype}")
        return a
    if dataclasses.is_dataclass(kind):
        if type(doc) is not dict:
            raise _unfit(noun, path, "must be an object")
        fields = _fields(kind)
        for key in doc:
            if key not in fields:
                raise ValueError(f"unknown {noun} '{_key(path, key)}'")
        values = {}
        for name, (annotation, required) in fields.items():
            if name in doc:
                values[name] = from_json(annotation, doc[name], _key(path, name), noun)
            elif required:
                raise ValueError(f"missing required {noun} '{_key(path, name)}'")
        try:
            return kind(**values)
        except FieldError as e:
            raise _unfit(noun, _key(path, e.name), e.what) from None
        except ConfigError as e:  # a rule across fields, which knows no one key
            if not path:
                raise
            raise ValueError(f"{noun} '{path}': {e}") from None
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:
        if doc is None and type(None) in args:  # first: Optional's null needs no try
            return None
        kinds, errors = [a for a in args if a is not type(None)], []
        for alternative in kinds:  # the first that fits
            try:
                return from_json(alternative, doc, path, noun)
            except ValueError as e:
                if len(kinds) == 1:  # Optional[T]: T's own message
                    raise
                errors.append(str(e))
        raise _unfit(noun, path, f"fits none of its forms: {'; '.join(errors)}")
    if origin is Literal:
        fault = _literal_fault(args, doc)
        if fault:
            raise _unfit(noun, path, fault)
        return doc
    if origin in (list, tuple):
        if type(doc) is not list:
            raise _unfit(noun, path, "must be a list")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(doc) != len(args):
                raise _unfit(noun, path, f"must be a list of {len(args)} items")
            return tuple(from_json(a, v, f"{path}[{i}]", noun) for i, (a, v) in enumerate(zip(args, doc)))
        items = [from_json(args[0], v, path, noun) for v in doc]
        return items if origin is list else tuple(items)
    if kind is dict or origin is dict:
        if type(doc) is not dict:
            raise _unfit(noun, path, "must be an object")
        return {k: from_json(args[1], v, _key(path, k), noun) for k, v in doc.items()} if args else doc
    if kind is date:
        text = from_json(str, doc, path, noun)
        try:
            return date.fromisoformat(text)
        except ValueError:
            raise _unfit(noun, path, f"is not an ISO date: {text!r}") from None
    if kind is Path:
        return Path(from_json(str, doc, path, noun))
    if kind in _TYPE_NAMES:
        # a JSON boolean is not a number here, although Python counts it as one
        if type(doc) not in ((int, float) if kind is float else (kind,)):
            raise _unfit(noun, path, f"must be {_TYPE_NAMES[kind]}")
        # json reads NaN, Infinity and 1e999 as floats, and an integer past
        # the float range has no float; a NaN fails every comparison
        if kind is float and not abs(doc) <= sys.float_info.max:
            raise _unfit(noun, path, "must be a finite number")
        return kind(doc)
    raise TypeError(f"no JSON decoding for annotation {kind!r}")


def json_schema(kind) -> dict:
    """The draft-07 JSON Schema of what to_json writes for dataclass ``kind``,
    from the annotations from_json reads. Each dataclass is a closed object
    that requires every field (to_json writes them all), ``kind`` at the root
    and the others under ``definitions``. A field's metadata adds keywords."""
    definitions = {}

    def walk(kind) -> dict:
        if dataclasses.is_dataclass(kind):
            if kind.__name__ not in definitions:
                definitions[kind.__name__] = {}  # first: the definitions read top-down
                fields, hints = dataclasses.fields(kind), get_type_hints(kind)
                properties = {f.name: {**walk(hints[f.name]), **f.metadata} for f in fields}
                definitions[kind.__name__] = {"type": "object", "additionalProperties": False,
                                              "required": list(properties), "properties": properties}
            return {"$ref": f"#/definitions/{kind.__name__}"}
        origin, args = get_origin(kind), get_args(kind)
        if origin is Union:
            return {"anyOf": [{"type": "null"} if a is type(None) else walk(a) for a in args]}
        if origin is Literal:
            return {"const": args[0]} if len(args) == 1 else {"enum": list(args)}
        if origin is tuple and args[-1] is not Ellipsis:
            return {"type": "array", "items": [walk(a) for a in args],
                    "minItems": len(args), "maxItems": len(args)}
        if origin in (list, tuple):
            return {"type": "array", "items": walk(args[0])}
        if origin is dict:
            return {"type": "object", "additionalProperties": walk(args[1])}
        if kind is date:
            return {"type": "string", "pattern": "^[0-9]{4}-[0-9]{2}-[0-9]{2}$"}
        if kind in _TYPE_NAMES:
            return {"type": _TYPE_NAMES[kind].split()[-1]}
        raise TypeError(f"no JSON Schema for annotation {kind!r}")

    walk(kind)
    return {"$schema": "http://json-schema.org/draft-07/schema#",
            **definitions.pop(kind.__name__), "definitions": definitions}
