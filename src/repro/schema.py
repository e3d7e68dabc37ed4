"""Request bodies, checked one way: a table of rows read by one decoder.

A REST route's body, a fabric verb's, a campaign spec, a scheduler's
engine params: each is a :class:`Schema` of rows (:class:`Field`) that
names the exception it raises; every message names the key by its
``repr``.  A value that *is* its row's default skips the shape check, so
a default is ``None`` or has the row's shape.  A leaf module: the CLI
parser and the scheduler registry import it without the REST stack.
"""

from __future__ import annotations

import math
import reprlib
from typing import Any, Callable, Iterator, Mapping, NamedTuple

Shape = Callable[[Any], bool]

_REQUIRED = object()
#: As a field's ``key``: the value is the body itself, not one key of it.
WHOLE = ""


class Field(NamedTuple):
    """One row: a body key, the shape its value must have, and its default."""

    name: str  #: the decoded name (a parameter), and the body key unless ``key``
    shape: Shape
    expects: str
    default: Any = _REQUIRED
    key: str | None = None

    @property
    def wire(self) -> str:
        return self.name if self.key is None else self.key


class Schema:
    """A body's rows, its name in errors and the exception it raises."""

    def __init__(self, what: str, fields: tuple[Field, ...],
                 error: type[Exception], *, closed: bool = True) -> None:
        self.what, self.fields, self.error, self.closed = what, fields, error, closed
        self._keys = frozenset(field.wire for field in fields)
        # unpacked once: a route decodes its body on every request
        self._rows = [(row, row.wire, row.shape, row.default) for row in fields]

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def decode(self, body: Any) -> dict[str, Any]:
        """Each row's value by name, in row order, shape-checked."""
        if not isinstance(body, Mapping):
            raise self.error(f"{self.what} must be a JSON object, "
                             f"got {type(body).__name__}")
        unknown = self.closed and body.keys() - self._keys
        if unknown:
            raise self.error(
                f"{self.what} takes no {', '.join(sorted(map(repr, unknown)))}")
        values = {}
        for field, wire, shape, default in self._rows:
            value = body if wire == WHOLE else body.get(wire, default)
            if value is _REQUIRED:
                raise self.error(f"{self.what} needs {wire!r}: {field.expects}")
            if value is not default and not shape(value):
                where = self.what if wire == WHOLE else f"{self.what}: {wire!r}"
                raise self.error(f"{where} must be {field.expects}, "
                                 f"got {reprlib.repr(value)}")
            values[field.name] = value
        return values


def integer(least: float = -math.inf, most: float = math.inf) -> Shape:
    """An int in ``least..most`` (a bool is not an int here)."""
    return lambda value: type(value) is int and least <= value <= most


def number(least: float = -math.inf, most: float = math.inf, *,
           above: bool = False) -> Shape:
    """A finite int or float in ``least..most`` (bools excluded); with
    ``above``, greater than ``least``."""
    return lambda value: (
        type(value) is int or type(value) is float and math.isfinite(value)
    ) and (least < value if above else least <= value) and value <= most


def datapath_id(value: Any) -> bool:
    """A 64-bit datapath id: an int, or a string of ASCII digits."""
    if type(value) is not int:
        if not (isinstance(value, str) and value.isascii() and value.isdigit()):
            return False
        value = int(value) if len(value) <= 20 else -1
    return 0 <= value < 1 << 64


def list_of(item: Shape, least: int = 0, *, distinct: Callable | None = None) -> Shape:
    """A list of at least ``least`` items of shape ``item``; with
    ``distinct``, no two items share a key under it."""
    return lambda value: (
        isinstance(value, (list, tuple)) and len(value) >= least
        and all(map(item, value))
        and (distinct is None or len(set(map(distinct, value))) == len(value))
    )


def boolean(value: Any) -> bool:
    return type(value) is bool


def string(value: Any) -> bool:
    return isinstance(value, str)


def non_empty_string(value: Any) -> bool:
    return isinstance(value, str) and value != ""


def is_object(value: Any) -> bool:
    return isinstance(value, Mapping)
