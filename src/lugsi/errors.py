"""Exception types shared across the package, and the one array-size budget.

DataError covers everything wrong with inputs (malformed files, dimension
mismatches, contract violations, a build above the budget); NumericError
covers failures of the numerical core (non-finite arithmetic, factorization
breakdown). The CLI maps them to distinct exit codes.
"""

# the most entries any one array of a build may hold: l x l float64 at l = 15 000, 1.8 GB
MAX_ARRAY_ENTRIES = 15_000 ** 2


class LugsiError(Exception):
    """Base class for all package-specific errors."""


class DataError(LugsiError, ValueError):
    """Invalid or inconsistent input data."""


class NumericError(LugsiError, ArithmeticError):
    """Numerical failure: non-finite values or a broken factorization."""


def check_array_entries(name: str, rows: int, cols: int) -> None:
    """Refuse a build whose largest array, `name`, is rows x cols above the budget."""
    if rows * cols > MAX_ARRAY_ENTRIES:
        raise DataError(
            f"refusing to build the {rows}x{cols} {name}: "
            f"{rows * cols} entries are above the cap of {MAX_ARRAY_ENTRIES}"
        )
