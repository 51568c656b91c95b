"""Delimited-table and key=value config I/O shared by the CLI and tests.

Measured-statistics tables are whitespace-delimited text with a header
row naming the columns length_km, s_mu, e_mu, s_nu, e_nu; scientific
notation is accepted and '#' lines are comments. read_stats_columns
reads one into the (n, 5) array that analyze and the link fit take; a
MeasuredStats is the tuple of one of its rows. numpy's text reader
parses the common table in one call; a malformed table, or one only
float() reads, is parsed again line by line, so an error names the first
bad line. Bounds tables carry one output row per input row
in input order; rows whose analysis aborts carry the cause in the
diagnostics column instead of values. Every command writes its
key=value output values through format_value.
"""

from __future__ import annotations

from importlib import resources
from typing import IO, Iterable, Sequence

import numpy as np

from .estimator import BoundColumns, MeasuredStats, ProtocolParams, _first_outside_domain

__all__ = [
    "TableParseError",
    "STATS_COLUMNS",
    "read_stats_columns",
    "read_measured_stats",
    "write_bounds_table",
    "format_value",
    "key_value_lines",
    "read_config",
    "bundled_reference_table",
    "bundled_reference_text",
    "BUNDLED_REFERENCE_PARAMS",
]

STATS_COLUMNS = MeasuredStats._fields
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

    numpy's text reader parses the data lines in one call and the values
    are checked against MeasuredStats' domain as whole columns. A table it
    does not take as five columns of numbers, or with a value outside the
    domain, is parsed again line by line by _parse_lines, which accepts
    what float() accepts and '#' lines between rows. Raises
    TableParseError for the first malformed line, with its line number: a
    wrong header, a wrong column count, a field that is not a number or a
    value outside the domain.
    """
    lines = list(stream)
    data_start = _header_end(lines)
    data = lines[data_start:]
    if not any(map(str.strip, data)):  # numpy's reader warns on a table without rows
        return np.empty((0, len(STATS_COLUMNS)))
    try:
        # Both readers split on str.isspace whitespace and convert through
        # the correctly rounded string-to-double of float(), so the values
        # of a table both accept are the same bits.
        table = np.loadtxt(data, comments=None, ndmin=2)
    except ValueError:
        return _parse_lines(data, data_start)
    if table.shape[1] != len(STATS_COLUMNS) or _first_outside_domain(table) is not None:
        return _parse_lines(data, data_start)
    return table


def _header_end(lines: Sequence[str]) -> int:
    """Index of the line after the header; raises TableParseError unless the
    first line that is neither blank nor a '#' comment is the header."""
    for index, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if tuple(line.split()) != STATS_COLUMNS:
            raise TableParseError(
                index + 1, f"expected header {' '.join(STATS_COLUMNS)}, got {line!r}"
            )
        return index + 1
    raise TableParseError(0, "empty input: header row is required")


def _parse_lines(data: Sequence[str], lines_before: int) -> np.ndarray:
    """read_stats_columns one data line at a time, each line validated as it
    is read; line numbers count the lines_before lines that precede data.
    Raises TableParseError for the first malformed line."""
    width = len(STATS_COLUMNS)
    rows = []
    for lineno, raw in enumerate(data, start=lines_before + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != width:
            raise TableParseError(lineno, f"expected {width} columns, got {len(parts)}")
        try:
            rows.append(MeasuredStats(*map(float, parts)))
        except ValueError as exc:  # not a number, or outside MeasuredStats' domain
            raise TableParseError(lineno, str(exc)) from None
    return np.array(rows, dtype=float).reshape(-1, width)


def read_measured_stats(stream: Iterable[str]) -> list[MeasuredStats]:
    """read_stats_columns' rows as MeasuredStats; kept as a trace target of bench/run.py."""
    return [MeasuredStats(*row) for row in read_stats_columns(stream).tolist()]


def write_bounds_table(length_km: np.ndarray, bounds: BoundColumns, stream: IO[str]) -> None:
    """Write analyzed rows; floats use repr so re-parsing is lossless."""
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


def format_value(value: object) -> str:
    """An output value: none for None, true or false for a bool, else its repr."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def key_value_lines(prefix: str, record: object, names: Iterable[str]) -> list[str]:
    """The '<prefix><name>=<value>' lines of the named attributes of a record, in order."""
    return [f"{prefix}{name}={format_value(getattr(record, name))}" for name in names]


def read_config(stream: Iterable[str], allowed_keys: Sequence[str]) -> dict[str, float]:
    """Parse a flat key=value config file; unknown and repeated keys are rejected."""
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
        if key in values:
            raise TableParseError(lineno, f"key {key!r} is given more than once")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise TableParseError(lineno, f"value for {key!r} is not a number") from None
    return values


def bundled_reference_text() -> str:
    """Raw text of the bundled reference dataset (six measured fiber lengths)."""
    return resources.files("decoyqkd.data").joinpath(_REFERENCE_RESOURCE).read_text()


# The intensities the bundled dataset was measured at. A link fit reads only mu
# and nu, so a fit of the bundled table takes these, whatever protocol it serves.
BUNDLED_REFERENCE_PARAMS = ProtocolParams(mu=0.6, nu=0.2)


def bundled_reference_table() -> np.ndarray:
    """The bundled reference dataset as read_stats_columns reads it."""
    return read_stats_columns(bundled_reference_text().splitlines())
