"""Input text and JSON in, JSON text out.

:func:`_as_text` reads every input, and :func:`load_json` every JSON one.
:func:`dumps` is the one writer of JSON text: it walks result objects
straight to the text ``json.dumps(to_jsonable(obj), indent=2)`` spells. A
:class:`FieldDict` result's JSON object is its dataclass fields in
declaration order, each under its ``json`` field metadata or else its name.
Two results write their own ``to_dict`` because their JSON is not their
fields: ``Partition`` adds the computed ``sizes`` and ``FamilyReport`` nests
its ``closest_other`` pair as an object. Whatever the walk does not know
(those ``to_dict`` objects, other mappings, subclasses of the JSON types) it
converts with :func:`to_jsonable` first, which raises a KstError for a type
no report holds.
"""

from __future__ import annotations

import json
from dataclasses import fields
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import IO, Any, Callable, Iterable, Mapping

import numpy as np

from .errors import KstError, ParseError


def _as_text(source: str | bytes | IO[bytes] | IO[str]) -> str:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 ({exc.reason})",
                             exc.object.count(b"\n", 0, exc.start) + 1) from None
    if isinstance(source, str):
        return source
    raise KstError(f"unsupported input source type {type(source).__name__}")


def load_json(source: str | bytes | IO[bytes] | IO[str], what: str,
              object_pairs_hook: Callable[[list], Any] | None = None) -> Any:
    """``source``'s document; any ValueError is a ParseError ``invalid <what>: ...``."""
    try:
        return json.loads(_as_text(source), object_pairs_hook=object_pairs_hook)
    except ValueError as exc:
        raise ParseError(f"invalid {what}: {exc}") from None


class FieldDict:
    """Mixin for dataclasses whose JSON object is their fields, in order."""

    def to_dict(self) -> dict:
        return {f.metadata.get("json", f.name): to_jsonable(getattr(self, f.name))
                for f in fields(self)}


def to_jsonable(obj: Any) -> Any:
    """Recursively convert report objects to JSON-serializable values."""
    if isinstance(obj, FieldDict):
        return obj.to_dict()  # already converted
    if hasattr(obj, "to_dict"):
        return to_jsonable(obj.to_dict())
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())  # a 0-d array's is a scalar
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise KstError(f"cannot serialize {type(obj).__name__} into a report")


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@cache
def _field_keys(cls: type) -> tuple[tuple[str, str], ...]:
    """A FieldDict class's (encoded JSON key, attribute) pairs, as its
    ``to_dict`` builds them: a key given twice keeps its first place and its
    last field."""
    named = {f.metadata.get("json", f.name): f.name for f in fields(cls)}
    return tuple((encode_basestring_ascii(k), a) for k, a in named.items())


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


def dumps(obj: Any) -> str:
    """``json.dumps(to_jsonable(obj), indent=2)``, written in one walk."""
    out: list[str] = []
    _walk(obj, "\n", out.append)
    return "".join(out)


def _pairs(items: Iterable[tuple[str, Any]], nl: str, put: Callable[[str], Any]) -> None:
    """An object of (encoded key, value) pairs, its closing brace after ``nl``."""
    inner = nl + "  "
    sep = "{" + inner
    for key, value in items:
        put(sep)
        put(key)
        put(": ")
        _walk(value, inner, put)
        sep = "," + inner
    put("{}" if sep[0] == "{" else nl + "}")


def _walk(o: Any, nl: str, put: Callable[[str], Any]) -> None:
    """``o``'s JSON text, nested one level below the line break ``nl``."""
    t = type(o)
    if t is str:
        put(encode_basestring_ascii(o))
    elif t is float:
        put(_float(o))
    elif t is int:
        put(int.__repr__(o))
    elif t is dict:
        if not all(type(k) is str for k in o):
            o = {str(k): v for k, v in o.items()}
        _pairs(((encode_basestring_ascii(k), v) for k, v in o.items()), nl, put)
    elif t is list or t is tuple:
        if not o:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            put(sep)
            _walk(v, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif o is None:
        put("null")
    elif t is bool:
        put("true" if o else "false")
    elif isinstance(o, FieldDict):
        _pairs(((k, getattr(o, a)) for k, a in _field_keys(t)), nl, put)
    elif isinstance(o, np.ndarray):
        _walk(o.tolist(), nl, put)
    elif isinstance(o, np.floating):
        put(_float(float(o)))
    elif isinstance(o, np.integer):
        put(int.__repr__(int(o)))
    else:  # raises KstError for a type no report holds
        o = to_jsonable(o)
        if isinstance(o, str):
            put(encode_basestring_ascii(o))
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, float):
            put(_float(o))
        else:
            _walk(o, nl, put)
