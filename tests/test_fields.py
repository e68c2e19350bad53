"""Tests generated from the field tables: every section of the input
documents, found by walking the package's modules, so a new field or
section is covered with no edit here."""

import importlib
import json
import math
import pkgutil
import re
from pathlib import Path
from types import GenericAlias

import pytest

import flowbridge
from flowbridge.fields import BIG, REQUIRED, Field, Record, read

README = Path(__file__).resolve().parent.parent / "README.md"


class Rejected(ValueError):
    pass


def is_table(value):
    return (isinstance(value, dict) and value
            and all(isinstance(f, Field) for f in value.values()))


def sections():
    """Every table by name: a record class's name, a module-level
    table's name, or ``PARENT.key`` for a table written inside a field."""
    found = {}

    def add(name, table, section):
        if id(table) in {id(t) for t, _ in found.values()}:
            return
        found[name] = (table, section)
        for key, f in table.items():
            kind = f.kind.__args__[0] if type(f.kind) is GenericAlias else f.kind
            if is_table(kind):
                add(f"{name}.{key}", kind, kind)

    for info in pkgutil.iter_modules(flowbridge.__path__):
        mod = importlib.import_module(f"flowbridge.{info.name}")
        for name, value in vars(mod).items():
            if isinstance(value, type) and issubclass(value, Record) and value.TABLE:
                add(value.__name__, value.TABLE, value)
    for info in pkgutil.iter_modules(flowbridge.__path__):
        mod = importlib.import_module(f"flowbridge.{info.name}")
        for name, value in vars(mod).items():
            if is_table(value):
                add(name, value, value)
    return found


SECTIONS = sections()
NAMES = {id(table): name for name, (table, _) in SECTIONS.items()}
FIELDS = [(name, key) for name, (table, _) in SECTIONS.items() for key in table]


def test_every_document_section_is_found():
    assert {"TOPOLOGY", "LAYER", "LINKS", "LINKS.defaults", "CROSSING", "LinkSpec",
            "Scenario", "ServiceSpec", "StreamSpec", "ProbesSpec", "SweepSpec",
            "LAYER_CONFIG", "RateLimitConfig", "LAYER_CONFIG.flow",
            "LAYER_CONFIG.config"} <= set(SECTIONS)


def sample(f):
    """A value of ``f`` the reader accepts."""
    kind = f.kind
    if kind is float or kind is int:
        return kind(f.hi if f.hi < BIG else max(f.lo, 1))
    if type(kind) is GenericAlias:
        item = kind.__args__[0]
        n = max(int(f.lo), 0)
        return [f"x{i}" for i in range(n)] if item is str else [minimal(item)] * n
    if type(kind) is tuple:
        return kind[0]
    if kind is str:
        return "x"
    if kind is bool:
        return False
    if kind is dict:
        return {}
    if kind is list:
        return []
    return minimal(kind)  # a section


def minimal(section):
    table = section if isinstance(section, dict) else section.TABLE
    return {key: sample(f) for key, f in table.items() if f.default is REQUIRED}


def read_one(name, key, value):
    """Read the section ``name`` with ``key`` set to ``value``; the value read."""
    table, section = SECTIONS[name]
    out = read(section, {**minimal(section), key: value}, "doc", Rejected)
    return out[key] if isinstance(out, dict) else getattr(out, key)


def edges(f):
    """(value, accepted) pairs at each bound of a number field: the bound
    itself, and the next value beyond it (the next float, or integer)."""
    cast = int if f.kind is int else float

    def step(x, direction):
        return x + direction if f.kind is int else math.nextafter(x, direction * math.inf)

    pairs = [(cast(f.lo), True), (step(cast(f.lo), -1), False),
             (cast(f.hi), True), (step(cast(f.hi), 1), False)]
    if f.above is not None:
        pairs += [(cast(f.above), False), (step(cast(f.above), 1), True)]
    if f.or_zero:
        pairs.append((cast(0), True))
    # a bound is checked where the other bounds let it be
    return [(v, ok) for v, ok in pairs
            if (f.lo <= v <= f.hi and (f.above is None or v > f.above) or f.or_zero and v == 0)
            or not ok and not (f.or_zero and v == 0)]


NUMBERS = [(name, key) for name, key in FIELDS if SECTIONS[name][0][key].kind in (int, float)]


@pytest.mark.parametrize("name,key", NUMBERS, ids=[f"{n}.{k}" for n, k in NUMBERS])
def test_each_bound_is_accepted_and_the_next_value_beyond_it_is_not(name, key):
    f = SECTIONS[name][0][key]
    for value, accepted in edges(f):
        if accepted:
            assert read_one(name, key, value) == value, value
        else:
            with pytest.raises(Rejected, match=rf"doc\.{key} must be a finite number"):
                read_one(name, key, value)


def wrong_type(f):
    kind = f.kind
    if kind is float or kind is int:
        return "1"
    if kind is str or type(kind) is tuple:
        return 1
    if kind is bool:
        return "false"
    if kind is list or type(kind) is GenericAlias:
        return "x"
    return ["x"]


@pytest.mark.parametrize("name,key", FIELDS, ids=[f"{n}.{k}" for n, k in FIELDS])
def test_each_field_rejects_a_wrong_type_and_a_non_finite_value(name, key):
    f = SECTIONS[name][0][key]
    for value in (wrong_type(f), float("nan"), float("-inf")):
        with pytest.raises(Rejected, match=rf"^doc\.{key} must be "):
            read_one(name, key, value)
    if f.kind is int:
        with pytest.raises(Rejected):
            read_one(name, key, 1.0)


@pytest.mark.parametrize("name", SECTIONS)
def test_each_section_rejects_unknown_and_missing_keys(name):
    table, section = SECTIONS[name]
    with pytest.raises(Rejected, match=r"doc: unknown keys \['zz'\]"):
        read(section, {**minimal(section), "zz": 1}, "doc", Rejected)
    with pytest.raises(Rejected, match="doc must be an object"):
        read(section, [], "doc", Rejected)
    for key, f in table.items():
        if f.default is REQUIRED:
            doc = minimal(section)
            del doc[key]
            with pytest.raises(Rejected, match=rf"doc\.{key} is required"):
                read(section, doc, "doc", Rejected)


# -- the reference in README.md --------------------------------------------------


def kind_text(kind):
    if type(kind) is GenericAlias:
        item = kind.__args__[0]
        return "list of strings" if item is str else f"list of {kind_text(item)}"
    if type(kind) is tuple:
        return " or ".join(f'`"{k}"`' for k in kind)
    names = {str: "string", float: "number", int: "integer", bool: "boolean",
             dict: "object", list: "list"}
    if isinstance(kind, type) and kind in names:
        return names[kind]
    return f"`{NAMES[id(kind if isinstance(kind, dict) else kind.TABLE)]}`"


def default_text(f):
    d = f.default
    if d is REQUIRED:
        return "required"
    if isinstance(d, Record):
        d = {k: getattr(d, k) for k, g in d.TABLE.items() if getattr(d, k) != g.default}
    return f"`{json.dumps(d)}`"


def bounds_text(f):
    if f.kind is float or f.kind is int:
        parts = [f"> {f.above:.4g}"] if f.above is not None else []
        parts += [f"≥ {f.lo:.4g}"] if f.lo > -BIG else []
        parts += [f"≤ {f.hi:.4g}"] if f.hi < BIG else []
        return ("0, or " if f.or_zero else "") + ", ".join(parts)
    if f.lo > 0:
        return f"length {f.lo:g}" if f.lo == f.hi else f"length ≥ {f.lo:g}"
    return ""


def reference_rows(name):
    """The rows of the README table of section ``name``."""
    table, _ = SECTIONS[name]
    return [f"| `{key}` | {kind_text(f.kind)} | {default_text(f)} | {bounds_text(f)} |"
            for key, f in table.items()]


def readme_tables():
    """Each ``#### `NAME` ...`` heading of README.md: its table's rows."""
    tables, rows = {}, None
    for line in README.read_text().splitlines():
        heading = re.match(r"#### `([^`]+)`", line)
        if heading:
            rows = tables[heading.group(1)] = []
        elif line.startswith("#"):
            rows = None
        elif rows is not None and line.startswith("| `"):
            rows.append(line)
    return tables


def test_readme_has_one_reference_table_per_section():
    tables = readme_tables()
    assert set(tables) == set(SECTIONS)
    for name in SECTIONS:
        assert tables[name] == reference_rows(name), "\n".join(reference_rows(name))
