"""Line-by-line reference parser of a measured-statistics table.

tables.read_stats_columns parses the data lines with numpy's text reader
and falls back to a line loop; this module keeps the loop alone, as the
reader was before numpy's reader took the common case, so the tests can
check that both give the same array or the same error.
"""
import math
from array import array

import numpy as np

from decoyqkd.estimator import MeasuredStats
from decoyqkd.tables import STATS_COLUMNS, TableParseError


def read_stats_columns(stream):
    """Parse a measured-statistics table into an (n, 5) float64 array, or raise
    TableParseError for its first malformed line."""
    width = len(STATS_COLUMNS)
    numbers = array("d")
    linenos = []
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
