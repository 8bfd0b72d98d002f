"""The config schema: the walker's rules, and the README's list of config
fields against the tables."""

import json
import re
from pathlib import Path

import pytest

from defi_stress import attack, contagion, schema, stress
from defi_stress.errors import InvalidParams, SchemaError
from defi_stress.schema import Obj, Opt, read

README = Path(__file__).parents[1] / "README.md"
KINDS = [stress.STRESS_CONFIG, attack.ATTACK_PLAN, contagion.CONTAGION_MODEL]


def rule_text(rule) -> str:
    """A rule as the README names it."""
    if isinstance(rule, Opt):
        default = json.dumps(rule.default)
        given = "optional" if rule.default is None else f"default {default}"
        return f"{rule_text(rule.rule)}, {given}"
    if isinstance(rule, type):
        return schema.TEXT[rule]
    if isinstance(rule, Obj):
        return "object"
    items = [rule_text(r) for r in rule] + (["..."] if isinstance(rule, list) else [])
    return f"[{', '.join(items)}]"


def field_rows(rule, path):
    """(JSON path, rule text) of a field and of every field inside it; the
    items of an array of objects are at path[]."""
    yield path, rule_text(rule)
    inner = rule.rule if isinstance(rule, Opt) else rule
    if isinstance(inner, list) and isinstance(inner[0], Obj):
        inner, path = inner[0], f"{path}[]"
    if isinstance(inner, Obj):
        for key, field in inner.fields.items():
            yield from field_rows(field, f"{path}.{key}")


def table_rows(table):
    yield "schema", f'"{table.kind}"'
    for key, field in table.fields.items():
        yield from field_rows(field, key)


def readme_rows() -> dict[str, list[tuple[str, str]]]:
    """{kind: [(field, rule)]} of the README's config field tables."""
    tables, rows = {}, None
    for line in README.read_text().splitlines():
        if heading := re.fullmatch(r"`([a-z-]+/\d+)` \(.*\):", line):
            rows = tables.setdefault(heading.group(1), [])
        elif line.startswith("#"):
            rows = None
        elif rows is not None and (row := re.fullmatch(r"\| `(.+?)` \| (.+) \|", line)):
            rows.append((row.group(1), row.group(2).replace("`", "")))
    return tables


def test_readme_lists_every_field_with_its_rule():
    listed = readme_rows()
    assert list(listed) == [table.kind for table in KINDS]
    for table in KINDS:
        assert listed[table.kind] == list(table_rows(table)), table.kind


def test_sweep_cost_reads_two_attack_plan_fields_by_the_same_rules():
    assert attack.SWEEP.kind == attack.ATTACK_PLAN.kind
    for key, rule in attack.SWEEP.fields.items():
        assert attack.ATTACK_PLAN.fields[key] is rule


@pytest.mark.parametrize(
    "rule, value, expected",
    [
        (float, 2, 2.0),
        (float, " -1.5e3 ", -1500.0),
        (int, 1e4, 10_000),
        (int, "42", 42),
        (int, "1e4", 10_000),
        (int, 2**70, 2**70),
        (bool, False, False),
        (str, "kyber", "kyber"),
        ([float], [], ()),
        ([(float, float)], [[1, "2"]], ((1.0, 2.0),)),
    ],
)
def test_rule_reads_value(rule, value, expected):
    result = read(rule, value, "x")
    assert result == expected and type(result) is type(expected)


@pytest.mark.parametrize(
    "rule, value, path",
    [
        (float, True, "x"),
        (float, "nan", "x"),
        (float, "-inf", "x"),
        (float, 1e400, "x"),
        (float, 10**400, "x"),
        (float, None, "x"),
        (float, [1.0], "x"),
        (int, 2.5, "x"),
        (int, "2.5", "x"),
        (int, False, "x"),
        (int, "1e999", "x"),
        (bool, "false", "x"),
        (bool, 0, "x"),
        (str, 5, "x"),
        ([float], "12", "x"),
        ([float], [1.0, "a"], "x[1]"),
        ((float, float), [1.0], "x"),
        ([(float, float)], [[1.0, 2.0], [3.0, None]], "x[1][1]"),
    ],
)
def test_rule_names_the_path_of_a_value_it_rejects(rule, value, path):
    with pytest.raises(SchemaError, match=rf"^{re.escape(path)}: expected "):
        read(rule, value, "x")


def test_object_fields_are_read_at_their_paths():
    table = Obj(dict, {"a": [Obj(dict, {"b": int, "c": Opt(float, 0.5)})]}, "k/1")
    raw = {"schema": "k/1", "a": [{"b": 1}, {"b": "2", "c": "1e-1", "d": []}]}
    assert read(table, raw) == {"a": ({"b": 1, "c": 0.5}, {"b": 2, "c": 0.1})}
    with pytest.raises(SchemaError, match=r"^a\[1\]\.b: missing$"):
        read(table, {"schema": "k/1", "a": [{"b": 1}, {}]})
    with pytest.raises(SchemaError, match=r"^a\[0\]\.c: expected number, got None$"):
        read(table, {"schema": "k/1", "a": [{"b": 1, "c": None}]})
    with pytest.raises(SchemaError, match="expected schema 'k/1', got None"):
        read(table, {"a": []})
    with pytest.raises(SchemaError, match=r"^config: expected an object, got \[\]$"):
        read(table, [])


def test_an_object_s_own_check_is_prefixed_with_its_path():
    table = Obj(dict, {"regimes": [stress._REGIME]})
    with pytest.raises(InvalidParams, match=r"^regimes\[1\]: liquidity parameters"):
        read(table, {"regimes": [{"l0": 1}, {"l0": -1}]})
