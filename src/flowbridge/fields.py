"""Document sections declared as tables of fields, and the one reader of them.

Each section of the input documents is declared once, as a dict from
key to `Field`: its kind, default and bounds. `read` walks a table over
a decoded JSON object and rejects a value of the wrong kind, a number
not finite or out of range, an unknown key and a missing one, naming the
key by its dotted path (``services[0].advertises[0].rate_hz``). Rules
that relate fields to each other stay beside their tables, as code.
"""

from __future__ import annotations

import sys
from types import GenericAlias
from typing import Any, NamedTuple

# the default of a key that must be given
REQUIRED: Any = ...
BIG = sys.float_info.max


class Field(NamedTuple):
    """One key of a section. ``kind`` is ``str`` (a non-empty string),
    ``bool``, ``int``, ``float`` (an int reads as one), a tuple of the
    strings allowed, a section (a `Record` class or a table),
    ``list[str]`` or ``list[section]`` (read as a tuple), or a bare
    ``dict`` or ``list``, kept as given for the code beside the table. A
    number is from ``lo`` to ``hi``, so never NaN or infinite, and above
    ``above`` when set; ``or_zero`` admits 0 too. A list's length is from
    ``lo`` to ``hi``. A default of None admits null; a default ``{}``
    reads as an empty object."""

    kind: Any
    default: Any = REQUIRED
    lo: float = -BIG
    hi: float = BIG
    above: float | None = None
    or_zero: bool = False


class Record:
    """A plain record of a section's fields. Positional arguments fill
    the fields in table order, and a field not given takes its
    default. Two records are equal when they are of one class and their
    ``FIELDS`` are equal; any other slot of a record is derived from
    its fields."""

    __slots__ = ()
    TABLE: dict[str, Field] = {}
    FIELDS: tuple[str, ...] = ()

    def __init__(self, *args: Any, **values: Any) -> None:
        values.update(zip(self.FIELDS, args))
        for key, field in self.TABLE.items():
            value = values.pop(key, field.default)
            if value is REQUIRED:
                raise TypeError(f"{type(self).__name__} needs {key!r}")
            # a dict is copied, so no two records share a default one
            object.__setattr__(self, key, dict(value) if type(value) is dict else value)
        if values:
            raise TypeError(f"{type(self).__name__} has no fields {sorted(values)}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self.FIELDS]
                == [getattr(other, f) for f in self.FIELDS])


def read(section: Any, obj: object, path: str, error: type[Exception],
         base: Any = None) -> Any:
    """``obj`` read as ``section``: a record of a `Record` class, or a
    dict for a table. A key not given takes its field's default, or the
    value ``base`` holds for it. Raises ``error`` naming the key's path
    below ``path``."""
    table = section if type(section) is dict else section.TABLE
    if type(obj) is not dict:
        raise error(f"{path or 'the document'} must be an object, got {obj!r}")
    prefix = f"{path}." if path else ""
    out = {}
    given = 0
    for key, f in table.items():
        v = obj.get(key, REQUIRED)
        if v is not REQUIRED:
            given += 1
        elif f.default is REQUIRED:
            raise error(f"{prefix}{key} is required")
        elif type(f.default) is dict:
            v = {}
        else:
            out[key] = f.default if base is None else getattr(base, key)
            continue
        kind = f.kind
        if kind is str:
            ok = type(v) is str and v != ""
        elif kind is float or kind is int:
            ok = ((type(v) is kind or type(v) is int) and (
                f.lo <= v <= f.hi and (f.above is None or v > f.above) or f.or_zero and v == 0))
            if ok and kind is float:
                v = float(v)
        elif type(kind) is GenericAlias or kind is list:
            ok = type(v) is list and f.lo <= len(v) <= f.hi
            if ok and kind is not list:
                item = kind.__args__[0]
                if item is str:
                    for i, name in enumerate(v):
                        if type(name) is not str or name == "":
                            raise error(f"{prefix}{key}[{i}] must be a non-empty string, "
                                        f"got {name!r}")
                else:
                    v = [read(item, x, f"{prefix}{key}[{i}]", error) for i, x in enumerate(v)]
            v = tuple(v) if ok else v
        elif kind is bool:
            ok = type(v) is bool
        elif type(kind) is tuple:
            ok = v in kind
        else:  # an object: kept as given, or read as a section
            ok = type(v) is dict
            if ok and kind is not dict:
                v = read(kind, v, prefix + key, error,
                         f.default if isinstance(f.default, Record) else None)
        if ok or v is None and f.default is None:
            out[key] = v
            continue
        want = "a non-empty string" if kind is str else "true or false" if kind is bool else (
            "an object")
        if kind is float or kind is int:
            bounds = [f"{w} {b:.4g}" for w, b in (("above", f.above), ("at least", f.lo),
                                                   ("at most", f.hi)) if b not in (None, -BIG, BIG)]
            want = (f"a finite number{' (integral)' if kind is int else ''}"
                    f"{', 0 or' if f.or_zero else ''} {' and '.join(bounds)}").rstrip()
        elif type(kind) is tuple:
            want = f"one of {', '.join(kind)}"
        elif type(kind) is GenericAlias or kind is list:
            want = "a list" + (f" of length {f.lo:g} to {f.hi:g}" if f.hi < BIG else
                               f" of length at least {f.lo:g}" if f.lo > 0 else "")
        raise error(f"{prefix}{key} must be {want}, got {v!r}")
    if given != len(obj):
        raise error(f"{path or 'the document'}: unknown keys {sorted(set(obj) - table.keys())}")
    return out if section is table else section(**out)
