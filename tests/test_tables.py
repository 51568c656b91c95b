"""read_stats_columns against the line-by-line reference parser."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyqkd.tables import STATS_COLUMNS, TableParseError, read_stats_columns

import reference_reader

HEADER = "\t".join(STATS_COLUMNS)
ROW = "50\t1e-4\t0.01\t1e-5\t0.02"

# Characters str.split splits on: ASCII, Latin-1 and other Unicode spaces.
SPACES = " \t\x0b\x0c\x1c\x85\xa0\u2003\u3000"
# Fields only float() takes, numbers numpy's reader takes too, and fields
# neither takes; the numbers include values outside every column's domain.
ODD_FIELDS = ["1_0", "0_5", "١", "٠.٥", "１", "inf", "-inf", "nan",
              "Infinity", "1e400", "-1e-300", "-0", "+.5", "5.", "1E-3", "1.5", "2",
              "nope", "0x1p-3", "1,5", "1d-3", "", "#", "1e", "--1"]


def outcome(read, lines):
    """What a reader gives for the lines: the array's dtype, shape and bytes,
    or the TableParseError's text and line number; warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = read(lines)
        except TableParseError as exc:
            return "error", str(exc), exc.lineno
    return "table", table.dtype, table.shape, table.tobytes()


def assert_same_as_reference(lines):
    assert outcome(read_stats_columns, lines) == outcome(reference_reader.read_stats_columns,
                                                         lines)


spaces = st.text(st.sampled_from(SPACES), min_size=1, max_size=3)
padding = st.text(st.sampled_from(SPACES), max_size=2)
endings = st.sampled_from(["", "\n", "\r\n"])
lengths = st.floats(0.0, 1e300).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.17g}", f"{x:.3E}"]))
rates = st.floats(0.0, 1.0).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:.17g}", f"{x:.3e}"]))
odd_fields = st.sampled_from(ODD_FIELDS)
# In-domain numbers float() takes and numpy's reader does not.
float_only_rates = st.sampled_from(["0.0_1", "\u0660.\u0665", "\uff11", "1_0e-1"])


@st.composite
def lines_of(draw, fields):
    """One line of the fields, joined by whitespace and padded."""
    text = draw(padding)
    for i, field in enumerate(fields):
        text += (draw(spaces) if i else "") + field
    return text + draw(padding) + draw(endings)


def blank_lines():
    return st.tuples(padding, endings).map("".join)


def comment_lines():
    return st.tuples(padding, st.just("#"), st.text(max_size=8), endings).map("".join)


def valid_rows():
    return st.tuples(lengths, rates, rates, rates, rates).flatmap(lines_of)


def float_only_rows():
    """Rows numpy's reader rejects and float() reads into the domain."""
    return st.tuples(lengths, *[st.one_of(rates, float_only_rates)] * 4).flatmap(lines_of)


def odd_rows():
    """Rows of five fields some of which are odd, rows of the wrong width,
    and two rows in one line."""
    mixed = st.lists(st.one_of(rates, odd_fields), min_size=5, max_size=5)
    wrong_width = st.lists(rates, min_size=0, max_size=8).filter(lambda f: len(f) != 5)
    two_in_one = st.tuples(valid_rows(), st.sampled_from(["\n", "\r"]), valid_rows()).map(
        lambda parts: parts[0].rstrip("\r\n") + parts[1] + parts[2])
    return st.one_of(mixed.flatmap(lines_of), wrong_width.flatmap(lines_of), two_in_one)


@st.composite
def tables(draw):
    """A table's lines: comments and blanks, a header (or a wrong one, or none)
    and rows, mostly well formed and sometimes not."""
    lines = draw(st.lists(st.one_of(blank_lines(), comment_lines()), max_size=3))
    header = draw(st.sampled_from(["header"] * 6 + ["wrong", "none"]))
    if header == "header":
        lines.append(draw(lines_of(STATS_COLUMNS)))
    elif header == "wrong":
        lines.append(draw(lines_of(STATS_COLUMNS[:4])))
    kinds = {
        "clean": [valid_rows(), blank_lines()],
        "float only": [valid_rows(), blank_lines(), comment_lines(), float_only_rows()],
        "messy": [valid_rows(), blank_lines(), comment_lines(), odd_rows()],
    }[draw(st.sampled_from(["clean", "float only", "messy"]))]
    lines += draw(st.lists(st.one_of(*kinds), max_size=12))
    return lines


@settings(max_examples=300, deadline=None)
@given(tables())
def test_reader_matches_the_line_by_line_reference(lines):
    assert_same_as_reference(lines)


@pytest.mark.parametrize("lines", [
    [HEADER],
    [HEADER, "", "  \t"],
    ["# c", "", HEADER, "# only comments follow", " "],
    [HEADER, ROW, "# a comment between rows", ROW],
    [HEADER, ROW.replace("50", "1_0")],
    [HEADER, ROW.replace("50", "٥٠")],
    [HEADER, ROW.replace("50", "1e400")],
    [HEADER, ROW.replace("50", "inf")],
    [HEADER, ROW.replace("0.02", "nan")],
    [HEADER, ROW, "60\t1e-4\t0.01"],
    [HEADER, "60\t1e-4\t0.01\t1e-5\t0.02\t0.03"],
    [HEADER, ROW, ROW.replace("0.01", "nope")],
    [HEADER, ROW, ROW.replace("0.01", "1.5"), "60\tnope\t0.01\t1e-5\t0.02"],
    [HEADER, ROW, "60\tnope\t0.01\t1e-5\t0.02", ROW.replace("0.01", "1.5")],
    [HEADER, ROW + "\r" + ROW],
    [ROW],
    [],
    ["", "# c"],
], ids=["header only", "header and blanks", "comments only", "comment between rows",
        "underscore", "non-ASCII digits", "overflow", "inf length", "nan rate",
        "short row", "long single row", "non-number", "domain error first",
        "non-number first", "two rows in one line", "no header", "empty",
        "comments without header"])
def test_reader_matches_the_reference_on_each_case(lines):
    assert_same_as_reference(lines)


def test_header_only_table_is_empty_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = read_stats_columns([HEADER + "\n", "\n"])
    assert table.shape == (0, 5) and table.dtype == np.float64


def test_file_with_comment_between_rows_keeps_line_numbers(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("\n".join([HEADER, ROW, "# c", ROW, ROW.replace("1e-5", "-1e-5")]) + "\n")
    with open(path, encoding="utf-8") as handle, pytest.raises(TableParseError) as info:
        read_stats_columns(handle)
    assert (info.value.lineno, str(info.value)) == (5, "line 5: s_nu=-1e-05 must be in [0, 1]")
