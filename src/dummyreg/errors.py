"""Exception types shared across the package.

Every error raised by dummyreg derives from :class:`DummyregError`, so
callers can catch one base class. Formula errors carry character
positions; data and model errors carry the offending names.
"""

from __future__ import annotations


class DummyregError(Exception):
    """Base class for all dummyreg errors."""


# --- formula ----------------------------------------------------------

class IllegalCharacter(DummyregError):
    def __init__(self, position: int, character: str):
        self.position = position
        self.character = character
        super().__init__(f"illegal character {character!r} at offset {position}")


class FormulaSyntaxError(DummyregError):
    def __init__(self, position: int, expected: tuple[str, ...] = (), message: str | None = None):
        self.position = position
        self.expected = tuple(expected)
        if message is None:
            message = f"syntax error at offset {position}"
            if expected:
                message += ": expected " + " or ".join(expected)
        super().__init__(message)


class UnknownFunction(DummyregError):
    def __init__(self, name: str, position: int = 0):
        self.name = name
        self.position = position
        super().__init__(f"unknown function {name!r} at offset {position}")


# --- dataset ----------------------------------------------------------

class MalformedCsv(DummyregError):
    def __init__(self, row: int, detail: str = ""):
        self.row = row
        msg = f"malformed CSV at line {row}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class RaggedRow(DummyregError):
    def __init__(self, row: int, got: int, expected: int):
        self.row = row
        self.got = got
        self.expected = expected
        super().__init__(f"line {row} has {got} cells, header has {expected}")


class EmptyInput(DummyregError):
    def __init__(self):
        super().__init__("input contains no header row")


class UnknownVariable(DummyregError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown variable {name!r}")


class NotCategorical(DummyregError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} is not categorical")


class EmptyAfterDeletion(DummyregError):
    def __init__(self):
        super().__init__("no rows left after dropping incomplete rows")


# --- encoding ---------------------------------------------------------

class SingleLevel(DummyregError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} has a single level; nothing to encode")


class ZeroCountLevel(DummyregError):
    def __init__(self, level: str, scheme: str):
        self.level = level
        self.scheme = scheme
        super().__init__(f"level {level!r} has no observations; {scheme} coding is undefined")


def _data_row(row: int, line: int | None) -> str:
    """Where a data row is: its CSV line if known, else its row index."""
    return f"row {row}" if line is None else f"line {line}"


class NonPositiveLog(DummyregError):
    """``row`` counts from 0 among the rows kept; ``line``, when given,
    is the CSV line that row starts on, and the message names it."""

    def __init__(self, row: int | None, *, line: int | None = None):
        self.row = row
        self.line = line
        where = "profile value" if row is None else _data_row(row, line)
        super().__init__(f"log transform requires positive values ({where})")


class ResponseNotNumeric(DummyregError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"response {name!r} is not numeric")


class MissingValuesPresent(DummyregError):
    def __init__(self, variables: tuple[str, ...]):
        self.variables = tuple(variables)
        names = ", ".join(self.variables)
        super().__init__(f"missing values present in: {names} (drop incomplete rows first)")


class NonFiniteValue(DummyregError):
    """``row`` and ``line`` as for NonPositiveLog."""

    def __init__(self, name: str, row: int, *, line: int | None = None):
        self.name = name
        self.row = row
        self.line = line
        super().__init__(
            f"variable {name!r} has a non-finite value ({_data_row(row, line)})")


class ResponseOverflow(DummyregError):
    """The response's values are finite, but their sum is not."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"the sum of response {name!r} overflows; rescale it")


class UnknownLevel(DummyregError):
    def __init__(self, variable: str, level: str):
        self.variable = variable
        self.level = level
        super().__init__(f"{level!r} is not a level of {variable!r}")


class InterceptRequired(DummyregError):
    def __init__(self):
        super().__init__("models without an intercept are not supported ('0 +' formulas are rejected)")


class EncodingConflict(DummyregError):
    def __init__(self, name: str, detail: str):
        self.name = name
        super().__init__(f"conflicting encodings for {name!r}: {detail}")


# --- solving ----------------------------------------------------------

class RankDeficient(DummyregError):
    def __init__(self, labels: tuple[str, ...]):
        self.labels = tuple(labels)
        names = ", ".join(self.labels)
        super().__init__(
            f"design matrix is rank deficient; dependent columns: {names}. "
            "Including an intercept plus every level of a factor causes this."
        )


class TooFewRows(DummyregError):
    def __init__(self, n_rows: int, n_cols: int):
        self.n_rows = n_rows
        self.n_cols = n_cols
        super().__init__(f"need more than {n_cols} rows to fit {n_cols} coefficients, got {n_rows}")


class DimensionMismatch(DummyregError):
    def __init__(self, got: int, expected: int):
        self.got = got
        self.expected = expected
        super().__init__(f"weight vector has length {got}, fit has {expected} coefficients")


class UnknownLabel(DummyregError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"no coefficient labelled {label!r}")


class InvalidProfileValue(DummyregError):
    def __init__(self, variable: str, value: object):
        self.variable = variable
        self.value = value
        super().__init__(
            f"profile value {value!r} for {variable!r} is not a finite number"
        )


class IncompleteProfile(DummyregError):
    def __init__(self, missing: tuple[str, ...]):
        self.missing = tuple(missing)
        names = ", ".join(self.missing)
        super().__init__(f"profile is missing model variables: {names}")
