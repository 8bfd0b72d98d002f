"""Exception hierarchy shared across the package.

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
