"""Exception types shared across the package, and the one typed reader of
the JSON artifacts (bundles and ``sweep_config.json``)."""
from itertools import chain
from operator import itemgetter
from types import UnionType
from typing import get_args, get_origin


class TextRkmError(Exception):
    """Base class for all package-specific errors."""


class DataError(TextRkmError):
    """Bad input data: missing paths, malformed files, impossible splits."""


class InvariantError(TextRkmError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def _all_of(values, kind) -> bool:
    """Whether every value is a JSON value of ``kind``: one ``set(map(type, ...))`` per level."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is list or origin is dict:  # JSON object keys are always str
        values = list(values)
        items = values if origin is list else map(dict.values, values)
        return set(map(type, values)) <= {origin} and _all_of(chain.from_iterable(items), args[-1])
    kinds = set(args if origin is UnionType else (kind,))
    return set(map(type, values)) <= (kinds | {int} if float in kinds else kinds)


def json_fields(rows: list[dict], key: str, kind) -> list:
    """``[row[key] for row in rows]``, as parsed, if each is a JSON value of
    ``kind``, else DataError naming the field. ``kind`` is int (never a bool),
    float (an int or a float), str, bool, list, dict, ``kind | None``,
    ``list[kind]`` or ``dict[str, kind]``."""
    try:
        values = list(map(itemgetter(key), rows))
    except KeyError:
        raise DataError(f"field {key!r} is missing") from None
    if not _all_of(values, kind):
        raise DataError(f"field {key!r} must be {kind if get_origin(kind) else kind.__name__}")
    return values


def json_field(d: dict, key: str, kind):
    """``d[key]`` if it is a JSON value of ``kind`` (see ``json_fields``)."""
    return json_fields([d], key, kind)[0]
