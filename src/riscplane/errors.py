"""The package's one exception type and the shared checks that raise it."""

import math
import numbers


class InvalidParameterError(ValueError):
    """A parameter is out of contract; field_name names it, as its RunConfig field if it is one."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name
        self.message = message

    def __reduce__(self):
        # the default rebuilds from args, the one joined string, which __init__ cannot take
        return type(self), (self.field_name, self.message)


def check_int(field_name: str, value, low: int) -> None:
    """Reject a bool, a non-integer (integral numpy scalars are integers) or a value below low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(field_name, f"must be an integer, not {value!r}")
    if value < low:
        raise InvalidParameterError(field_name, f"must be >= {low}")


def check_positive(field_name: str, value: float) -> None:
    """Reject a value that is not a finite number > 0 (nan included)."""
    if not 0 < value < math.inf:
        raise InvalidParameterError(field_name, "must be finite and > 0")
