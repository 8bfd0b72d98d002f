"""The config schema: what a config field may hold, and one walker.

`read(rule, value)` converts a JSON value by its rule: float, int, bool or
str; an Obj table, whose object it builds; [rule] for an array of any length,
or (rule, rule, ...) for one of exactly those items, read as a tuple; or
Opt(rule, default) for a field that may be left out. Each config kind's table
sits beside the dataclasses it builds (`stress.STRESS_CONFIG`,
`attack.ATTACK_PLAN`, `contagion.CONTAGION_MODEL`); keys it does not list are
ignored. An error names the JSON path of the value that breaks its rule, such
as `liquidity_regimes[1].l0` or `books[0].levels[2][1]`, or of the object
whose own checks fail; at the top level, the message names the fields.
"""

from __future__ import annotations

import math
import reprlib
from collections import namedtuple
from contextlib import suppress

from .errors import InputError, SchemaError

TEXT = {float: "number", int: "integer", bool: "true or false", str: "string"}
# A field that may be left out, read as default.
Opt = namedtuple("Opt", "rule default", defaults=(None,))
# A JSON object, read as build(**fields by their rules); of kind, if given.
Obj = namedtuple("Obj", "build fields kind", defaults=(None,))


def _leaf(kind: type, value):
    """value as a kind: a float is a finite number and an int one with no
    fraction (1e4), either given as a JSON number or as a numeric string; a
    bool or a str is a JSON value of that type. A bool is not a number,
    though float() would read it as 1.0 or 0.0."""
    if isinstance(value, bool) != (kind is bool) or (
        kind is str and not isinstance(value, str)
    ):
        raise TypeError
    if kind is int and not isinstance(value, float):
        with suppress(ValueError):
            return int(value)
    if kind in (float, int):
        number = float(value)
        if not math.isfinite(number) or kind is int and not number.is_integer():
            raise ValueError
        return kind(number)
    return value


def _wrong(path: str, what: str, value) -> SchemaError:
    got = reprlib.repr(value)
    return SchemaError(f"{path or 'config'}: expected {what}, got {got}")


def build_at(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), an InputError it raises prefixed with path."""
    try:
        return build(*args, **kwargs)
    except InputError as exc:
        if path:
            exc.args = (f"{path}: {exc}",)
        raise


def read(rule, value, path: str = ""):
    """value, found at JSON path path, converted by rule."""
    if isinstance(rule, Opt):
        return read(rule.rule, value, path)
    if isinstance(rule, type):
        try:
            return _leaf(rule, value)
        except (TypeError, ValueError, OverflowError):
            raise _wrong(path, TEXT[rule], value) from None
    if not isinstance(rule, Obj):
        fixed = isinstance(rule, tuple)
        if not isinstance(value, list) or fixed and len(value) != len(rule):
            raise _wrong(path, f"a list of {len(rule)}" if fixed else "a list", value)
        rules = rule if fixed else rule * len(value)
        items = enumerate(zip(rules, value))
        return tuple(read(r, v, f"{path}[{i}]") for i, (r, v) in items)
    if not isinstance(value, dict):
        raise _wrong(path, "an object", value)
    if rule.kind is not None and value.get("schema") != rule.kind:
        raise SchemaError(f"expected schema {rule.kind!r}, got {value.get('schema')!r}")
    fields = {}
    for key, field in rule.fields.items():
        at = f"{path}.{key}" if path else key
        if key in value:
            fields[key] = read(field, value[key], at)
        elif isinstance(field, Opt):
            fields[key] = field.default
        else:
            raise SchemaError(f"{at}: missing")
    return build_at(path, rule.build, **fields)
