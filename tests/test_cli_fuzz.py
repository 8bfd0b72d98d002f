"""A fuzz of the config commands, run in-process through cli.main.

Each example takes a shrunk bundled config, applies one to three mutations
(delete a key, or replace a value at any depth with an extreme float, a
numeric or non-numeric string, a bool, null, [], {} or a nested list), and
runs the command on it. Whatever the input, the command either writes
strictly valid, finite outputs and prints nothing, or exits 2 or 3 with one
line on stderr; on exit 2 it has written nothing.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from defi_stress.cli import main

DATA = Path(__file__).parents[1] / "src" / "defi_stress" / "data"


def _shrunk(fixture: str, **edit) -> dict:
    return dict(json.loads((DATA / fixture).read_text()), **edit)


_STRESS = _shrunk(
    "baseline_scenario.json",
    n_paths=8,
    horizon_days=10,
    debt_levels=[1e8, 4e8],
    heatmap={"debt_grid": [1e8, 4e8], "l0_grid": [1e4, 3e4], "decay_rho": 0.01},
)
# 40k of the books' 50k tokens, so that a mutated level can still fill it.
_PLAN = _shrunk("maker_feb2020.json", tokens_needed=40_000)
FIXTURES = {
    "stress": _STRESS,
    "heatmap": _STRESS,
    "sweep-cost": _PLAN,
    "attack": _PLAN,
    "contagion": _shrunk(
        "contagion_feb2020.json",
        n_samples=50,
        n_protocols=5,
        snapshot_csv=str(DATA / "dai_markets.csv"),
    ),
}

# Size fields take only small values and are never deleted (a missing
# n_samples means 100 000), so that one example runs in milliseconds and
# little memory. This bounds runtime and memory only: sizes are not treated
# differently by the parse step.
SIZE_FIELDS = {"n_paths", "horizon_days", "n_samples", "n_protocols"}
SMALL = st.integers(-2, 12) | st.floats(-2, 12)

# NaN and the infinities are written as bare NaN and Infinity, which the
# parse step rejects outright; they come only from the list.
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-308, 1e308, -1e308]
)
NUMERIC_STRINGS = st.sampled_from(
    ["0", "-1", "1e4", "0.01", "1e308", "-1e308", "inf", "-inf", "nan", "1e999"]
)
SCALARS = (
    FLOATS
    | st.integers(-(2**70), 2**70)
    | NUMERIC_STRINGS
    | st.text(max_size=6)
    | st.booleans()
    | st.none()
)
VALUES = st.recursive(
    SCALARS | st.just([]) | st.just({}),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)
SIZE_VALUES = SMALL | st.text(max_size=3) | st.booleans() | st.none() | st.just([])


def _slots(node):
    """Every (container, key) of a JSON tree, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def mutated(draw, command):
    cfg = json.loads(json.dumps(FIXTURES[command]))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(cfg))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and key not in SIZE_FIELDS and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(SIZE_VALUES if key in SIZE_FIELDS else VALUES)
    return cfg


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _check_outputs(out: Path) -> None:
    for path in out.iterdir():
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_reject_constant)
        elif path.suffix == ".csv":
            rows = list(csv.reader(path.read_text().splitlines()))
            # A damage table's first column is a label, copied from the config.
            skip = 1 if path.name == "damage_table.csv" else 0
            for row in rows:
                for cell in row[skip:]:
                    # float() reads inf, nan and their spellings; text cells
                    # such as a header raise ValueError.
                    with contextlib.suppress(ValueError):
                        assert math.isfinite(float(cell)), (path.name, row)


@pytest.mark.parametrize("command", sorted(FIXTURES))
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_valid_outputs_or_exit_2_or_3_with_one_line(command, data):
    cfg = data.draw(mutated(command))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        err = io.StringIO()
        # Any warning is an error, so exit 0 means no warning was raised.
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(config), "--out", str(out)])
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3), (code, lines)
        if code == 0:
            assert lines == []
            _check_outputs(out)
        else:
            assert len(lines) == 1, lines
            prefix = "error: " if code == 2 else "numeric error: "
            assert lines[0].startswith(prefix), lines
            # An input error is found before any output is written.
            assert code == 3 or not out.exists()
