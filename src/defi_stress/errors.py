"""Exception hierarchy shared across the package, the config schema check and
the type rules of config fields that every parse step shares.

Two broad families matter for the CLI exit-code mapping: input/validation
problems (exit 2) and numeric runtime failures (exit 3).
"""


class StressError(Exception):
    """Base class for all package errors."""


class InputError(StressError):
    """Invalid input data or configuration (CLI exit code 2)."""


class NumericError(StressError):
    """Numeric failure during computation (CLI exit code 3)."""


class ParseError(InputError):
    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class EmptySeries(InputError):
    pass


class NonMonotonicTime(InputError):
    pass


class InsufficientData(InputError):
    pass


class DegenerateSample(InputError):
    pass


class InvalidParams(InputError):
    pass


class HorizonMismatch(InputError):
    pass


class InsufficientDepth(InputError):
    def __init__(self, target: float, max_fillable: float):
        self.target = target
        self.max_fillable = max_fillable
        super().__init__(
            f"order books hold {max_fillable:g} units, {target:g} requested"
        )


class InsufficientPoolLiquidity(InputError):
    def __init__(self, amount: float, available: float):
        self.amount = amount
        self.available = available
        super().__init__(
            f"flash pools hold {available:g} units, {amount:g} requested"
        )


class InvalidRange(InputError):
    pass


class SchemaError(InputError):
    pass


def check_schema(raw: dict, expected: str) -> None:
    """Raise SchemaError unless the config's "schema" field is expected."""
    if raw.get("schema") != expected:
        raise SchemaError(f"expected schema {expected!r}, got {raw.get('schema')!r}")


def as_list(value, name: str) -> list:
    """A config field that must be a JSON array: a string or an object,
    which Python would iterate, is a SchemaError."""
    if not isinstance(value, list):
        raise SchemaError(f"{name} must be a list, got {type(value).__name__}")
    return value


def as_pair(value, name: str) -> tuple[float, float]:
    """A two-number config field, such as a range or an order book level."""
    pair = as_list(value, name)
    if len(pair) != 2:
        raise SchemaError(f"{name} must hold 2 numbers, got {len(pair)}")
    return as_float(pair[0], name), as_float(pair[1], name)


def as_float(value, name: str) -> float:
    """A number config field: a number or a numeric string. A bool, which
    float() would read as 1.0 or 0.0, is a SchemaError."""
    if isinstance(value, bool):
        raise SchemaError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_int(value, name: str) -> int:
    """An integer config field: an int, an integral float such as 1e4 or a
    numeric string. A bool or a number with a fraction is a SchemaError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_bool(value, name: str) -> bool:
    """A config field that must be JSON true or false: a string such as
    "false", or a number, is a SchemaError."""
    if not isinstance(value, bool):
        raise SchemaError(f"{name} must be true or false, got {value!r}")
    return value


def as_str(value, name: str) -> str:
    """A config field that must be a JSON string, such as a name."""
    if not isinstance(value, str):
        raise SchemaError(f"{name} must be a string, got {type(value).__name__}")
    return value
