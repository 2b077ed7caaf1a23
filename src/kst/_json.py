"""Input text and JSON in, JSON-ready result objects out.

:func:`_as_text` reads every input, and :func:`load_json` every JSON one. A
:class:`FieldDict` result's JSON object is its dataclass fields in
declaration order, each under its ``json`` field metadata or else its name.
Two results write their own ``to_dict`` because their JSON is not their
fields: ``Partition`` adds the computed ``sizes`` and ``FamilyReport`` nests
its ``closest_other`` pair as an object.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import IO, Any, Mapping

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


def load_json(source: str | bytes | IO[bytes] | IO[str], what: str) -> Any:
    """``source``'s document; any ValueError is a ParseError ``invalid <what>: ...``."""
    try:
        return json.loads(_as_text(source))
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
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise KstError(f"cannot serialize {type(obj).__name__} into a report")
