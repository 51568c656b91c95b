"""Delimited-table and key=value config I/O shared by the CLI and tests.

Measured-statistics tables are whitespace-delimited text with a header
row naming the columns length_km, s_mu, e_mu, s_nu, e_nu; scientific
notation is accepted and '#' lines are comments. Bounds tables carry
one output row per input row in input order; rows whose analysis
aborts carry the cause in the diagnostics column instead of values.
"""

from __future__ import annotations

import math
from array import array
from importlib import resources
from typing import IO, Iterable, Sequence

import numpy as np

from .estimator import BoundColumns, MeasuredStats

__all__ = [
    "TableParseError",
    "STATS_COLUMNS",
    "read_stats_columns",
    "read_measured_stats",
    "write_measured_stats",
    "write_bounds_table",
    "read_config",
    "bundled_reference_table",
    "bundled_reference_text",
]

STATS_COLUMNS = ("length_km", "s_mu", "e_mu", "s_nu", "e_nu")
BOUNDS_COLUMNS = ("length_km", "s_nu_lower", "s1_lower", "e1_upper", "r_lower",
                  "secure", "diagnostics")

_REFERENCE_RESOURCE = "reference_run.tsv"


class TableParseError(ValueError):
    """Malformed table or config input; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def read_stats_columns(stream: Iterable[str]) -> np.ndarray:
    """Parse a measured-statistics table into an (n, 5) float64 array whose
    columns are STATS_COLUMNS.

    One pass splits the lines and converts the numbers; the values are
    then checked against MeasuredStats' domain as whole columns. Raises
    TableParseError for the first malformed line, with its line number: a
    wrong header, a wrong column count, a field that is not a number or a
    value outside the domain.
    """
    width = len(STATS_COLUMNS)
    numbers = array("d")
    linenos: list[int] = []
    failure = None  # ends the pass; a domain error on an earlier line still comes first
    header_seen = False
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not header_seen:
            if tuple(parts) != STATS_COLUMNS:
                raise TableParseError(
                    lineno, f"expected header {' '.join(STATS_COLUMNS)}, got {line!r}"
                )
            header_seen = True
            continue
        if len(parts) != width:
            failure = TableParseError(lineno, f"expected {width} columns, got {len(parts)}")
            break
        try:
            row = list(map(float, parts))
        except ValueError as exc:
            failure = TableParseError(lineno, str(exc))
            break
        numbers.extend(row)
        linenos.append(lineno)
    if not header_seen:
        raise TableParseError(0, "empty input: header row is required")
    table = np.array(numbers, dtype=float).reshape(-1, width)
    length, rates = table[:, 0], table[:, 1:]
    outside = ~((0.0 <= length) & (length < math.inf)
                & np.all((0.0 <= rates) & (rates <= 1.0), axis=1))
    if outside.any():
        # MeasuredStats words the first offending value of the row.
        row = int(np.argmax(outside))
        try:
            MeasuredStats(*table[row].tolist())
        except ValueError as exc:
            raise TableParseError(linenos[row], str(exc)) from None
    if failure is not None:
        raise failure
    return table


def read_measured_stats(stream: Iterable[str]) -> list[MeasuredStats]:
    """Parse a measured-statistics table; raises TableParseError with line numbers."""
    return [MeasuredStats(*row) for row in read_stats_columns(stream).tolist()]


def write_measured_stats(rows: Sequence[MeasuredStats], stream: IO[str],
                         header_comments: Sequence[str] = ()) -> None:
    for comment in header_comments:
        stream.write(f"# {comment}\n")
    stream.write("\t".join(STATS_COLUMNS) + "\n")
    for row in rows:
        stream.write("\t".join(repr(getattr(row, c)) for c in STATS_COLUMNS) + "\n")


def write_bounds_table(length_km: np.ndarray, bounds: BoundColumns, stream: IO[str],
                       header_comments: Sequence[str] = ()) -> None:
    """Write analyzed rows; floats use repr so re-parsing is lossless."""
    for comment in header_comments:
        stream.write(f"# {comment}\n")
    stream.write("\t".join(BOUNDS_COLUMNS) + "\n")
    columns = (c.tolist() for c in (length_km, bounds.s_nu_lower, bounds.s1_lower,
                                    bounds.e1_upper, bounds.r_lower, bounds.secure))
    for length, s_nu_l, s1, e1, r, secure, cause in zip(*columns, bounds.causes):
        if cause is None:
            secure_text = "true" if secure else "false"
            stream.write(f"{length!r}\t{s_nu_l!r}\t{s1!r}\t{e1!r}\t{r!r}\t{secure_text}\t-\n")
        else:
            cause_text = str(cause).replace("\t", " ")
            stream.write(f"{length!r}\t-\t-\t-\t-\tfalse\t{cause_text}\n")


def read_config(stream: Iterable[str], allowed_keys: Sequence[str]) -> dict[str, float]:
    """Parse a flat key=value config file; unknown keys are rejected."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TableParseError(lineno, f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in allowed_keys:
            raise TableParseError(
                lineno, f"unknown key {key!r}; allowed: {', '.join(allowed_keys)}"
            )
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise TableParseError(lineno, f"value for {key!r} is not a number") from None
    return values


def bundled_reference_text() -> str:
    """Raw text of the bundled reference dataset (six measured fiber lengths)."""
    return resources.files("decoyqkd.data").joinpath(_REFERENCE_RESOURCE).read_text()


def bundled_reference_table() -> list[MeasuredStats]:
    return read_measured_stats(bundled_reference_text().splitlines())
