"""Table I/O, bundled dataset and CLI subcommands."""
import filecmp
import hashlib
import importlib
import itertools
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

import decoyqkd
from decoyqkd import MeasuredStats, ProtocolParams, calibration, cli, link
from decoyqkd.cli import EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_VALIDATION, main
from decoyqkd.tables import (
    TableParseError,
    bundled_reference_text,
    format_value,
    key_value_lines,
    read_config,
    read_measured_stats,
)

from conftest import REFERENCE_BOUNDS, not_converged

REFERENCE_SHA256 = "42dd2ad257a0f2fddab4c954dd0dd1114b924517e93c1fb0970d86cf61d30520"
# The stdout of analyze, fit, sweep, `simulate --seed 5`, two more simulate
# sessions and `calibrate --seed 3` is pinned once, by the package-smoke check
# lines of .github/workflows/tests.yml, which test_workflow_pins_match_the_commands
# runs in process. The pins below are the ones the workflow lacks.
# `decoyqkd fit` stderr, re-recorded when the refinement began to stop at the
# cost's rounding floor.
FIT_STDERR = "fit: converged in 4 iterations, objective=0.3943113292565068\n"
# `decoyqkd simulate --length-km 123.6 --u-alpha 0` stdout on each branch of
# the soundness verdict, each at the smallest seed that reaches it, pinned when
# a class became one 16-cell multinomial; their `# link.*` header lines were
# re-recorded with FIT_STDERR.
SIMULATE_SOUNDNESS_STDOUT_SHA256 = {
    # s1 violated, e1 ok
    ("--pulses", "3e5", "--seed", "0"):
        "389a21843da8f16d329ea183d5588344f065d34b017cf79b3a60ea7f544128a7",
    # true_e1 none, sound
    ("--pulses", "3e5", "--seed", "25"):
        "c5f357b52dd980495b7812d9706d0e2d59056e788f541e49738dfe66ab7c5f18",
    # true_s1 0, e1 unavailable
    ("--pulses", "3e5", "--seed", "87"):
        "282b8a3d7f736cf0ff691c4a9ea1daf556602485a68c39e5be71e4ac51d0da2e",
    # s1 and e1 violated
    ("--pulses", "1e6", "--seed", "760"):
        "783ec390681cbedab6502619afba05349387b8b0d606ec0093074afd064b9c9e",
}
# `decoyqkd calibrate --noiseless --peak 0.9 --visibility 0.5` stdout.
CALIBRATE_NOISELESS_STDOUT_SHA256 = (
    "cb694caacb37b0bbb9852fd5d5b9aae829923f90e09beed8d646cdf600c2d774")


# A malformed data line of each kind and the message it is reported with.
MALFORMED_LINES = {
    "domain": ("60\t1.5\t0.01\t1e-5\t0.02", "s_mu=1.5 must be in [0, 1]"),
    "number": ("60\t1e-4\tnope\t1e-5\t0.02", "could not convert string to float: 'nope'"),
    "columns": ("60\t1e-4\t0.01", "expected 5 columns, got 3"),
}


def parse_bounds_output(text):
    """Read the analyze output back into {length: (s1, e1, r, secure, diagnostics)}."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("length_km") or not line.strip():
            continue
        parts = line.split("\t")
        length = float(parts[0])
        if parts[1] == "-":
            rows[length] = (None, None, None, parts[5] == "true", parts[6])
        else:
            rows[length] = (float(parts[2]), float(parts[3]), float(parts[4]),
                            parts[5] == "true", parts[6])
    return rows


def parse_keyvalues(text):
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        values[key] = value
    return values


class TestBundledDataset:
    def test_checksum_pinned(self):
        digest = hashlib.sha256(bundled_reference_text().encode()).hexdigest()
        assert digest == REFERENCE_SHA256

    def test_exact_reference_values(self):
        rows = read_measured_stats(bundled_reference_text().splitlines())
        assert [r.length_km for r in rows] == [123.6, 108.0, 97.0, 83.7, 62.1, 49.2]
        first = rows[0]
        assert (first.s_mu, first.e_mu, first.s_nu, first.e_nu) == (
            3.8e-5, 0.0199, 1.36e-5, 0.041)
        last = rows[-1]
        assert (last.s_mu, last.e_mu, last.s_nu, last.e_nu) == (
            8.6e-4, 0.0103, 2.9e-4, 0.020)


class TestTableParsing:
    HEADER = "length_km\ts_mu\te_mu\ts_nu\te_nu\n"

    def table_text(self, rows):
        """A measured table of the rows, each float written by repr."""
        return self.HEADER + "".join(
            f"{r.length_km!r}\t{r.s_mu!r}\t{r.e_mu!r}\t{r.s_nu!r}\t{r.e_nu!r}\n" for r in rows)

    def test_round_trip_is_lossless(self):
        rows = read_measured_stats(bundled_reference_text().splitlines())
        assert read_measured_stats(self.table_text(rows).splitlines()) == rows

    @given(st.lists(st.builds(MeasuredStats, st.floats(0.0, 1e300),
                              *[st.floats(0.0, 1.0)] * 4), max_size=20))
    def test_round_trip_is_exact_on_generated_tables(self, rows):
        loaded = read_measured_stats(self.table_text(rows).splitlines())
        assert [repr(row) for row in loaded] == [repr(row) for row in rows]

    def test_scientific_notation_and_comments(self):
        text = "# comment\n" + self.HEADER + "50\t1.5E-4\t1e-2\t5.1e-5\t0.02\n"
        rows = read_measured_stats(text.splitlines())
        assert rows == [MeasuredStats(50.0, 1.5e-4, 0.01, 5.1e-5, 0.02)]

    def test_missing_header_rejected(self):
        with pytest.raises(TableParseError):
            read_measured_stats(["50 1e-4 0.01 1e-5 0.02"])

    def test_empty_input_rejected(self):
        with pytest.raises(TableParseError):
            read_measured_stats([])

    def test_header_only_gives_empty_table(self):
        assert read_measured_stats([self.HEADER.strip()]) == []

    def test_malformed_number_carries_line_number(self):
        text = self.HEADER + "50\t1e-4\t0.01\t1e-5\t0.02\n60\tnope\t0.01\t1e-5\t0.02\n"
        with pytest.raises(TableParseError) as info:
            read_measured_stats(text.splitlines())
        assert info.value.lineno == 3

    def test_out_of_range_rate_carries_line_number(self):
        text = self.HEADER + "50\t1.5\t0.01\t1e-5\t0.02\n"
        with pytest.raises(TableParseError) as info:
            read_measured_stats(text.splitlines())
        assert info.value.lineno == 2
        assert "s_mu" in str(info.value)

    def test_wrong_column_count(self):
        with pytest.raises(TableParseError):
            read_measured_stats((self.HEADER + "50\t1e-4\t0.01\n").splitlines())

    @pytest.mark.parametrize("first, later", itertools.permutations(MALFORMED_LINES, 2))
    def test_first_malformed_line_is_reported(self, first, later):
        # Line 4 is a comment: line numbers count every line of the input.
        lines = [self.HEADER.strip(), "50\t1e-4\t0.01\t1e-5\t0.02", MALFORMED_LINES[first][0],
                 "# comment", MALFORMED_LINES[later][0], "70\t1e-4\t0.01\t1e-5\t0.02"]
        with pytest.raises(TableParseError) as info:
            read_measured_stats(lines)
        assert info.value.lineno == 3
        assert str(info.value) == f"line 3: {MALFORMED_LINES[first][1]}"

    def test_config_unknown_key_rejected(self):
        with pytest.raises(TableParseError) as info:
            read_config(["mu=0.5", "bogus=1"], allowed_keys=("mu", "nu"))
        assert "bogus" in str(info.value)

    def test_config_parses_floats(self):
        values = read_config(["# c\n", "mu = 0.5", "nu=2e-1"], allowed_keys=("mu", "nu"))
        assert values == {"mu": 0.5, "nu": 0.2}

    def test_output_values_are_none_booleans_or_repr(self):
        assert ([format_value(v) for v in (None, True, False, 0.1, 1e-7, 5)]
                == ["none", "true", "false", "0.1", "1e-07", "5"])
        assert (key_value_lines("params.", ProtocolParams(mu=0.5), ("mu", "nu"))
                == ["params.mu=0.5", "params.nu=0.2"])
        assert key_value_lines("", ProtocolParams(), ()) == []


class TestAnalyzeCommand:
    def test_reproduces_reference_bounds(self, tmp_path, capsys):
        out = tmp_path / "bounds.tsv"
        assert main(["analyze", "--out", str(out)]) == EXIT_OK
        rows = parse_bounds_output(out.read_text())
        assert len(rows) == 6
        for length, s1_ref, e1_ref, r_ref in REFERENCE_BOUNDS:
            s1, e1, r, secure, diag = rows[length]
            assert s1 == pytest.approx(s1_ref, rel=0.02)
            assert e1 == pytest.approx(e1_ref, rel=0.02)
            assert r == pytest.approx(r_ref, rel=0.03)
            assert secure and diag == "-"
        assert "6 secure" in capsys.readouterr().err

    def test_warning_header_text_and_order(self, tmp_path):
        table = tmp_path / "odd.tsv"
        table.write_text("length_km\ts_mu\te_mu\ts_nu\te_nu\n"
                         "50\t1e-5\t0.01\t3e-4\t0.02\n60\t3e-4\t0.01\t1e-4\t0.02\n"
                         "70\t2e-4\t0.01\t2e-4\t0.02\n80\t1.5e-6\t0.3\t1e-5\t0.2\n")
        out = tmp_path / "bounds.tsv"
        assert main(["analyze", "--input", str(table), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        flag = "signal pulses should click more often than weaker decoy pulses"
        assert lines[8:12] == [
            f"# warning: 50.0 km: s_mu=1e-05 <= s_nu=0.0003: {flag}",
            f"# warning: 70.0 km: s_mu=0.0002 <= s_nu=0.0002: {flag}",
            f"# warning: 80.0 km: s_mu=1.5e-06 <= s_nu=1e-05: {flag}",
            "length_km\ts_nu_lower\ts1_lower\te1_upper\tr_lower\tsecure\tdiagnostics",
        ]

    def test_effective_params_echoed(self, tmp_path):
        out = tmp_path / "bounds.tsv"
        main(["analyze", "--out", str(out), "--u-alpha", "5"])
        header = out.read_text()
        assert "# params.u_alpha=5.0" in header
        assert "# params.mu=0.6" in header

    def test_output_reparses_losslessly(self, tmp_path):
        out = tmp_path / "bounds.tsv"
        main(["analyze", "--out", str(out)])
        reparsed = parse_bounds_output(out.read_text())
        from decoyqkd import ProtocolParams, analyze_row
        rows = read_measured_stats(bundled_reference_text().splitlines())
        expected = analyze_row(ProtocolParams(), rows[0])
        assert reparsed[123.6][0] == expected.s1_lower  # repr round-trip, exact

    def test_empty_table_gives_empty_output(self, tmp_path):
        table = tmp_path / "empty.tsv"
        table.write_text("length_km\ts_mu\te_mu\ts_nu\te_nu\n")
        out = tmp_path / "bounds.tsv"
        assert main(["analyze", "--input", str(table), "--out", str(out)]) == EXIT_OK
        assert parse_bounds_output(out.read_text()) == {}

    def test_malformed_rate_rejected_with_line_number(self, tmp_path, capsys):
        table = tmp_path / "bad.tsv"
        table.write_text("length_km\ts_mu\te_mu\ts_nu\te_nu\n50\t1.5\t0.01\t1e-5\t0.02\n")
        assert main(["analyze", "--input", str(table)]) == EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    def test_nan_length_rejected_with_line_number(self, tmp_path, capsys):
        table = tmp_path / "nan.tsv"
        table.write_text("length_km\ts_mu\te_mu\ts_nu\te_nu\n"
                         "nan\t8.6e-4\t0.0103\t2.9e-4\t0.020\n")
        assert main(["analyze", "--input", str(table)]) == EXIT_PARSE
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [("--n-nu", "inf", "n_nu"),
                                                   ("--u-alpha", "nan", "u_alpha")])
    def test_non_finite_param_rejected(self, capsys, flag, value, name):
        assert main(["analyze", flag, value]) == EXIT_VALIDATION
        assert f"{name}={value} must be finite" in capsys.readouterr().err

    def test_underflowing_intensities_reported_on_every_row(self, capsys):
        # mu**2 underflows to zero, so the yield bound divides by zero.
        assert main(["analyze", "--mu", "1e-200", "--nu", "1e-201"]) == EXIT_OK
        rows = parse_bounds_output(capsys.readouterr().out)
        assert len(rows) == 6
        for s1, _, _, secure, diagnostics in rows.values():
            assert s1 is None and not secure
            assert diagnostics.startswith("yield bound is not representable")

    def test_unanalyzable_row_reported_inline(self, tmp_path):
        table = tmp_path / "mixed.tsv"
        table.write_text(
            "length_km\ts_mu\te_mu\ts_nu\te_nu\n"
            "49.2\t8.6e-4\t0.0103\t2.9e-4\t0.020\n"
            "300\t1e-7\t0.3\t1e-8\t0.3\n"
        )
        out = tmp_path / "bounds.tsv"
        assert main(["analyze", "--input", str(table), "--out", str(out)]) == EXIT_OK
        rows = parse_bounds_output(out.read_text())
        assert rows[49.2][3] is True
        assert rows[300.0][0] is None
        assert "insufficient" in rows[300.0][4]

    def test_inverted_rates_warned_not_rejected(self, tmp_path):
        table = tmp_path / "odd.tsv"
        table.write_text(
            "length_km\ts_mu\te_mu\ts_nu\te_nu\n50\t1e-5\t0.01\t3e-4\t0.02\n")
        out = tmp_path / "bounds.tsv"
        assert main(["analyze", "--input", str(table), "--out", str(out)]) == EXIT_OK
        assert "warning" in out.read_text()

    def test_params_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "params.cfg"
        config.write_text("u_alpha=5\nf_ec=1.1\n")
        out = tmp_path / "bounds.tsv"
        main(["analyze", "--params", str(config), "--u-alpha", "0", "--out", str(out)])
        text = out.read_text()
        assert "# params.u_alpha=0.0" in text   # flag beats file
        assert "# params.f_ec=1.1" in text      # file beats default

    def test_unknown_config_key_is_parse_error(self, tmp_path):
        config = tmp_path / "params.cfg"
        config.write_text("mu=0.6\nwavelength=1550\n")
        assert main(["analyze", "--params", str(config)]) == EXIT_PARSE


class TestFitCommand:
    def test_stderr_pinned(self, capsys):
        assert main(["fit"]) == EXIT_OK
        assert capsys.readouterr().err == FIT_STDERR

    def test_bundled_fit_values(self, tmp_path):
        out = tmp_path / "model.cfg"
        assert main(["fit", "--out", str(out)]) == EXIT_OK
        values = parse_keyvalues(out.read_text())
        assert 0.15 <= float(values["alpha_db_per_km"]) <= 0.23
        assert 0.9 <= float(values["visibility"]) < 1.0
        assert float(values["eta_det"]) == 1.0

    def test_fit_output_is_valid_link_config(self, tmp_path):
        out = tmp_path / "model.cfg"
        main(["fit", "--out", str(out)])
        with open(out) as handle:
            values = read_config(
                handle, ("alpha_db_per_km", "excess_loss_db", "eta_det", "y0",
                         "visibility"))
        assert set(values) == {"alpha_db_per_km", "excess_loss_db", "eta_det", "y0",
                               "visibility"}

    def test_convergence_reported_on_stderr_outputs_byte_identical(self, tmp_path, capsys):
        first, second = tmp_path / "first.cfg", tmp_path / "second.cfg"
        assert main(["fit", "--out", str(first)]) == EXIT_OK
        assert main(["fit", "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
        err = capsys.readouterr().err.splitlines()
        objective = next(line.split("=", 1)[1] for line in first.read_text().splitlines()
                         if line.startswith("# objective="))
        line = rf"fit: converged in [1-9]\d* iterations, objective={re.escape(objective)}"
        assert len(err) == 2 and all(re.fullmatch(line, e) for e in err)
        stdout = []
        for _ in range(2):
            assert main(["fit"]) == EXIT_OK
            stdout.append(capsys.readouterr().out)
        assert stdout[0] == stdout[1] == first.read_text()

    def test_non_convergence_is_a_runtime_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(link, "_least_squares", not_converged)
        assert main(["fit"]) == EXIT_RUNTIME
        assert "link fit did not converge in 100 iterations" in capsys.readouterr().err

    def test_single_length_table_fails(self, tmp_path, capsys):
        table = tmp_path / "one.tsv"
        table.write_text(
            "length_km\ts_mu\te_mu\ts_nu\te_nu\n"
            "50\t3e-4\t0.01\t1e-4\t0.02\n50\t3.1e-4\t0.01\t1.1e-4\t0.02\n")
        assert main(["fit", "--input", str(table)]) == EXIT_VALIDATION
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "2", "-1e-9"])
    def test_y0_outside_unit_interval_rejected_before_fitting(self, monkeypatch, capsys,
                                                              value):
        monkeypatch.setattr(link, "_least_squares", refuse_fit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit", f"--fit-y0={value}"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"y0={float(value)} must be in [0, 1]" in err and "Warning" not in err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("value", ["1", "1e-3", "1e-4"])
    def test_y0_at_or_above_a_measured_rate_rejected_before_fitting(self, monkeypatch,
                                                                    capsys, value):
        # The bundled table's smallest rate is s_nu = 1.36e-5 at 123.6 km.
        monkeypatch.setattr(link, "_least_squares", refuse_fit)
        assert main(["fit", f"--fit-y0={value}"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "counting rate at 123.6 km" in err and f"y0={float(value)!r}" in err

    @pytest.mark.parametrize("flags, name", [(["--nu", "0"], "nu"),
                                             (["--mu", "0", "--nu", "0"], "mu")])
    def test_zero_intensity_rejected_before_fitting(self, monkeypatch, capsys, flags, name):
        # A pulse of mean 0 clicks at y0 on every link, so no model reproduces the table.
        monkeypatch.setattr(link, "_least_squares", refuse_fit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit", *flags]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"decoyqkd fit: {name}=0.0: ")
        assert len(captured.err.splitlines()) == 1
        assert [str(w.message) for w in caught] == []

    def test_equal_intensities_rejected_before_fitting(self, monkeypatch, capsys):
        # A model gives pulses of equal mean equal rates, so it cannot fit two classes.
        monkeypatch.setattr(link, "_least_squares", refuse_fit)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit", "--mu", "0.5", "--nu", "0.5"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("decoyqkd fit: nu=0.5 must be below mu=0.5: ")
        assert len(captured.err.splitlines()) == 1
        assert [str(w.message) for w in caught] == []


def refuse_fit(*args, **kwargs):
    """Stand-in for a fit that should not start."""
    raise AssertionError("the fit ran before its inputs were checked")


@pytest.fixture(scope="module")
def link_file(tmp_path_factory):
    """Fitted link model written once and reused by sweep/simulate tests."""
    path = tmp_path_factory.mktemp("model") / "link.cfg"
    assert main(["fit", "--out", str(path)]) == EXIT_OK
    return str(path)


def refuse_allocation(*args, **kwargs):
    """Stand-in for a call that would start building an oversized grid."""
    raise AssertionError("the grid size was not checked before building the grid")


class TestSweepCommand:
    def test_overflowing_loss_leaks_no_warning(self, capsys):
        # alpha*L overflows to inf from 2 km on: transmittance 0, no bounds there.
        assert main(["sweep", "--alpha-db-per-km", "1e308", "--excess-loss-db", "0",
                     "--y0", "0", "--visibility", "1", "--grid", "0:3:1"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "sweep: cutoff_km=0.0\n"
        assert captured.out.endswith("1.0\tnan\n2.0\tnan\n3.0\tnan\n")

    def test_implicit_link_is_fitted_at_the_bundled_intensities(self, capsys, link_file):
        # --mu describes the swept protocol, not the table the link is fitted to.
        assert main(["sweep", "--mu", "0.5"]) == EXIT_OK
        implicit = capsys.readouterr().out
        assert main(["sweep", "--mu", "0.5", "--link", link_file]) == EXIT_OK
        assert implicit == capsys.readouterr().out

    def test_cutoff_in_reference_band(self, tmp_path, link_file):
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--link", link_file, "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        cutoff = float(next(line.split("=")[1] for line in text.splitlines()
                            if line.startswith("# cutoff_km=")))
        assert 123.6 <= cutoff <= 140.0
        data_rows = [l for l in text.splitlines()
                     if l and not l.startswith("#") and not l.startswith("length_km")]
        assert len(data_rows) == 151

    def test_zero_confidence_extends_reach(self, tmp_path, link_file):
        def cutoff_of(extra):
            out = tmp_path / f"sweep{len(extra)}.tsv"
            assert main(["sweep", "--link", link_file, "--grid", "0:200:2",
                         "--out", str(out), *extra]) == EXIT_OK
            line = next(l for l in out.read_text().splitlines()
                        if l.startswith("# cutoff_km="))
            return float(line.split("=")[1])

        assert cutoff_of(["--u-alpha", "0"]) > cutoff_of([])

    def test_single_point_grid(self, tmp_path, link_file):
        out = tmp_path / "one.tsv"
        assert main(["sweep", "--link", link_file, "--grid", "150:150:1",
                     "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "# cutoff_km=none" in text
        data_rows = [l for l in text.splitlines()
                     if l and not l.startswith("#") and not l.startswith("length_km")]
        assert len(data_rows) == 1

    def test_bad_grid_spec(self, link_file):
        assert main(["sweep", "--link", link_file, "--grid", "abc"]) == EXIT_VALIDATION
        assert main(["sweep", "--link", link_file, "--grid", "0:1:nan"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("grid", ["5:1:1", "0:10:0"])
    def test_reversed_or_stepless_grid_rejected(self, link_file, capsys, grid):
        assert main(["sweep", "--link", link_file, "--grid", grid]) == EXIT_VALIDATION
        assert (f"grid '{grid}' must have positive step and stop >= start"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("grid", ["0:1e-5:1e-11", "0:1e-10:1e-10"])
    def test_grid_finer_than_its_rounding_rejected(self, link_file, capsys, grid):
        # Grid points are rounded to 1e-9 km, so a finer step merges neighbours.
        assert main(["sweep", "--link", link_file, "--grid", grid]) == EXIT_VALIDATION
        step = repr(float(grid.split(":")[2]))
        assert capsys.readouterr().err == (
            f"decoyqkd sweep: grid {grid!r}: step {step} km merges points rounded to 1e-9 km\n")

    @pytest.mark.parametrize("grid", ["0:150:1e-10", "0:1e308:5e-324", "-1e308:1e308:1"])
    def test_oversized_grid_rejected_before_allocation(self, link_file, capsys, monkeypatch,
                                                       grid):
        # 1.5e12 points, and two grids whose point count overflows to inf. Building
        # the first grid point would fail the command instead of allocating.
        monkeypatch.setattr(cli, "round", refuse_allocation, raising=False)
        assert main(["sweep", "--link", link_file, f"--grid={grid}"]) == EXIT_VALIDATION
        assert "has more than 10000000 points" in capsys.readouterr().err

    def test_grid_size_limit_is_inclusive(self, tmp_path, link_file, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
        out = tmp_path / "three.tsv"
        assert main(["sweep", "--link", link_file, "--grid", "0:2:1",
                     "--out", str(out)]) == EXIT_OK
        assert main(["sweep", "--link", link_file, "--grid", "0:3:1"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("key, value", [("alpha_db_per_km", "nan"),
                                            ("excess_loss_db", "-inf")])
    def test_non_finite_link_value_rejected(self, tmp_path, capsys, key, value):
        config = tmp_path / "link.cfg"
        config.write_text(f"{key}={value}\n")
        assert main(["sweep", "--link", str(config)]) == EXIT_VALIDATION
        assert f"{key}={value} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("option, text, key", [
        ("--params", "mu=0.6\nmu=0.5\n", "mu"),
        ("--link", "y0=5e-7\nvisibility=0.98\n# visibility=0.9\ny0=1e-6\n", "y0"),
    ], ids=["params", "link"])
    def test_repeated_config_key_is_parse_error(self, tmp_path, capsys, option, text, key):
        config = tmp_path / "repeat.cfg"
        config.write_text(text)
        assert main(["sweep", option, str(config)]) == EXIT_PARSE
        line = len(text.splitlines())
        assert (f"parse error: line {line}: key {key!r} is given more than once"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text, message", [
        ("mu 0.6\n", "line 1: expected key=value, got 'mu 0.6'"),
        ("nu=0.2\nmu=abc\n", "line 2: value for 'mu' is not a number"),
    ])
    def test_malformed_config_line_is_parse_error(self, tmp_path, capsys, text, message):
        config = tmp_path / "bad.cfg"
        config.write_text(text)
        assert main(["sweep", "--params", str(config)]) == EXIT_PARSE
        assert f"parse error: {message}" in capsys.readouterr().err

    def test_link_file_and_flag_precedence(self, tmp_path):
        config = tmp_path / "link.cfg"
        config.write_text("alpha_db_per_km=0.21\nvisibility=0.95\n")
        out = tmp_path / "sweep.tsv"
        assert main(["sweep", "--link", str(config), "--visibility", "0.9",
                     "--grid", "10:10:1", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert "# link.visibility=0.9\n" in text        # flag beats file
        assert "# link.alpha_db_per_km=0.21\n" in text  # file beats default
        assert "# link.eta_det=1.0\n" in text           # LinkModel default


class TestSimulateCommand:
    @pytest.mark.parametrize("flags", SIMULATE_SOUNDNESS_STDOUT_SHA256)
    def test_stdout_pinned_on_each_soundness_branch(self, capsys, flags):
        assert main(["simulate", "--length-km", "123.6", "--u-alpha", "0", *flags]) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == SIMULATE_SOUNDNESS_STDOUT_SHA256[flags]

    def test_class_mean_above_limit_rejected(self, capsys):
        assert main(["simulate", "--mu", "1e4", "--nu", "0.2"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mu=10000.0 must be at most 200:" in captured.err

    def test_fixed_seed_is_byte_identical(self, tmp_path, link_file):
        args = ["simulate", "--link", link_file, "--pulses", "200000",
                "--length-km", "49.2", "--seed", "5"]
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main([*args, "--out", str(out_a)]) == EXIT_OK
        # --workers is still accepted, and ignored
        assert main([*args, "--workers", "1", "--out", str(out_b)]) == EXIT_OK
        assert filecmp.cmp(out_a, out_b, shallow=False)

    def test_soundness_reported_at_scale(self, tmp_path, link_file):
        out = tmp_path / "session.txt"
        assert main(["simulate", "--link", link_file, "--pulses", "10000000",
                     "--length-km", "49.2", "--seed", "1", "--out", str(out)]) == EXIT_OK
        values = parse_keyvalues(out.read_text())
        assert values["soundness.sound"] == "true"
        assert float(values["stats.s_mu"]) > 0

    def test_small_session_aborts_cleanly(self, tmp_path, link_file):
        out = tmp_path / "tiny.txt"
        assert main(["simulate", "--link", link_file, "--pulses", "10000",
                     "--length-km", "120", "--seed", "2", "--out", str(out)]) == EXIT_OK
        assert "analysis.error=" in out.read_text()

    def test_zero_pulses_rejected(self, link_file):
        assert main(["simulate", "--link", link_file, "--pulses", "0"]) == EXIT_VALIDATION

    def test_negative_length_rejected(self, link_file, capsys):
        assert main(["simulate", "--link", link_file, "--length-km", "-1"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "decoyqkd simulate: length_km=-1.0 must be finite and >= 0\n"

    def test_negative_seed_rejected(self, link_file, capsys):
        assert main(["simulate", "--link", link_file, "--seed", "-1"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "decoyqkd simulate: seed=-1 must be >= 0\n"

    def test_session_without_signal_pulses_reports_an_analysis_error(self, capsys):
        # The one pulse is a decoy, and at y0 = 1 it clicks: the decoy rate
        # yields bounds, but there is no signal pulse to hold them against.
        assert main(["simulate", "--pulses", "1", "--u-alpha", "0", "--y0", "1",
                     "--length-km", "0", "--seed", "0"]) == EXIT_OK
        values = parse_keyvalues(capsys.readouterr().out)
        assert values["signal.emitted"] == "0" and values["decoy.clicked"] == "1"
        assert values["stats.s_nu"] == "1.0"
        assert (values["analysis.error"]
                == "soundness report needs at least one emitted signal pulse")
        assert not any(key.startswith(("bounds.", "soundness.")) for key in values)

    def test_vacuum_only_session_runs_on_the_implicit_link(self, capsys, link_file):
        argv = ["simulate", "--mu", "0", "--nu", "0", "--seed", "4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_OK
        implicit = capsys.readouterr().out
        assert "analysis.error=" in implicit
        assert main([*argv, "--link", link_file]) == EXIT_OK
        assert implicit == capsys.readouterr().out

    def test_non_integral_pulses_rejected(self, link_file, capsys):
        assert main(["simulate", "--link", link_file, "--pulses", "2.7",
                     "--seed", "1"]) == EXIT_VALIDATION
        assert "pulses=2.7 must be a whole number" in capsys.readouterr().err

    def test_pulses_in_scientific_notation_accepted(self, tmp_path, link_file):
        out = tmp_path / "session.txt"
        assert main(["simulate", "--link", link_file, "--pulses", "1e7", "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        assert " n_pulses=10000000 " in out.read_text()

    def test_infinite_pulses_rejected(self, link_file, capsys):
        assert main(["simulate", "--link", link_file, "--pulses", "inf"]) == EXIT_VALIDATION
        assert "pulses=inf must be finite" in capsys.readouterr().err

    def test_negative_excess_loss_rejected(self, capsys):
        # A gain: at -1e308 dB the transmittance overflowed into a runtime failure.
        assert main(["simulate", "--excess-loss-db=-1e308", "--pulses", "1e5"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "decoyqkd simulate: excess_loss_db=-1e+308 must be >= 0\n")

    def test_pulse_count_above_int64_rejected(self, link_file, capsys):
        # numpy's samplers raise OverflowError, a runtime failure, on it
        assert main(["simulate", "--link", link_file, "--pulses", "1e19"]) == EXIT_VALIDATION
        assert ("n_pulses=10000000000000000000 must be in [1, 2**63 - 1]"
                in capsys.readouterr().err)


@pytest.mark.parametrize("module", ["decoyqkd", *(
    f"decoyqkd.{info.name}" for info in pkgutil.iter_modules(decoyqkd.__path__)
    if info.name != "__main__")])
def test_every_exported_name_resolves(module):
    imported = importlib.import_module(module)
    assert [name for name in getattr(imported, "__all__", ())
            if not hasattr(imported, name)] == []


@pytest.mark.parametrize("command", ["analyze", "fit", "sweep"])
def test_seed_is_an_option_only_of_the_sampling_commands(command, capsys):
    # Only simulate and calibrate draw random numbers.
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seed", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--params", "--mu", "--nu", "--q", "--f-ec", "--u-alpha",
                                  "--n-mu", "--n-nu"])
def test_protocol_inputs_are_not_options_of_calibrate(flag, capsys):
    # The fringe scan reads the link alone: no intensity or finite-size budget.
    with pytest.raises(SystemExit) as exit_info:
        main(["calibrate", flag, "1"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; its import would dominate a command's time
    import decoyqkd
    src = os.path.dirname(os.path.dirname(os.path.abspath(decoyqkd.__file__)))
    code = ("import sys, decoyqkd.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_fits_leave_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma, a tenth of a fresh fit's import time; sweep
    # fits the bundled table too.
    import decoyqkd
    src = os.path.dirname(os.path.dirname(os.path.abspath(decoyqkd.__file__)))
    code = ("import sys; from decoyqkd.cli import main; "
            "codes = [main([command, '--out', sys.argv[1] + command]) for command in ('fit', 'sweep')]; "
            "print(codes, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out_")], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == f"{[EXIT_OK, EXIT_OK]} False"


@pytest.mark.parametrize("argv", [["fit"], ["calibrate", "--seed", "3"], ["sweep"],
                                  ["simulate", "--pulses", "1e5"]],
                         ids=["fit", "calibrate", "sweep", "simulate"])
def test_commands_run_with_scipy_blocked(argv, tmp_path):
    # Without --link, calibrate, sweep and simulate fit the bundled table too.
    import decoyqkd
    src = os.path.dirname(os.path.dirname(os.path.abspath(decoyqkd.__file__)))
    code = ("import sys; sys.modules['scipy'] = None; from decoyqkd.cli import main; "
            "raise SystemExit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == EXIT_OK, out.stderr


class TestCalibrateCommand:
    def test_noiseless_stdout_pinned(self, capsys):
        assert main(["calibrate", "--noiseless", "--peak", "0.9",
                     "--visibility", "0.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == CALIBRATE_NOISELESS_STDOUT_SHA256

    def test_dark_counts_at_one_rejected(self, capsys):
        # y0 = 1 must not reach the division by 1 - y0, a runtime failure.
        assert main(["calibrate", "--y0", "1"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "decoyqkd calibrate: dark counts alone exceed the requested click "
            "probability 0.5\n")

    def test_visibility_round_trip(self, tmp_path):
        out = tmp_path / "cal.txt"
        assert main(["calibrate", "--visibility", "0.99", "--alpha-db-per-km", "0",
                     "--excess-loss-db", "0", "--eta-det", "1", "--y0", "5e-7",
                     "--seed", "12", "--out", str(out)]) == EXIT_OK
        values = parse_keyvalues(out.read_text())
        assert abs(float(values["visibility_est"]) - 0.99) <= 0.005
        assert float(values["overhead_fraction"]) <= 0.05
        points = [float(values[f"working_point_{i}"]) for i in range(4)]
        spacing = {round((b - a) % (2 * math.pi), 6) for a, b in zip(points, points[1:])}
        assert spacing == {round(math.pi / 2, 6)}

    def test_noiseless_perfect_visibility_recovered_exactly(self, tmp_path):
        out = tmp_path / "cal.txt"
        assert main(["calibrate", "--visibility", "1.0", "--alpha-db-per-km", "0",
                     "--excess-loss-db", "0", "--eta-det", "1", "--y0", "0",
                     "--noiseless", "--out", str(out)]) == EXIT_OK
        values = parse_keyvalues(out.read_text())
        assert float(values["visibility_est"]) == pytest.approx(1.0, abs=1e-9)

    def test_fitted_link_default_recovers_its_own_visibility(self, tmp_path,
                                                             fitted_model):
        out = tmp_path / "cal.txt"
        assert main(["calibrate", "--seed", "3", "--out", str(out)]) == EXIT_OK
        values = parse_keyvalues(out.read_text())
        assert abs(float(values["visibility_est"]) - fitted_model.visibility) <= 0.005

    def test_non_convergence_is_a_runtime_failure(self, monkeypatch, capsys, link_file):
        monkeypatch.setattr(calibration, "_least_squares", not_converged)
        assert main(["calibrate", "--link", link_file]) == EXIT_RUNTIME
        assert "fringe fit did not converge in 100 iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--peak", "1.5", "peak=1.5 must be in (0, 1)"),
        ("--session-pulses", "0", "session_pulses=0.0 must be > 0"),
        ("--seed", "-1", "seed=-1 must be >= 0"),
    ])
    def test_out_of_range_value_rejected(self, link_file, capsys, flag, value, message):
        assert main(["calibrate", "--link", link_file, flag, value]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_four_point_grid_rejected(self, link_file, capsys):
        assert main(["calibrate", "--link", link_file, "--points", "4"]) == EXIT_VALIDATION
        assert "--points=4 must be in [8, 10000000]" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [5, 7])
    def test_point_count_below_the_fit_rejected_before_the_scan(self, link_file, capsys,
                                                                monkeypatch, points):
        # The fit needs 8 points, so a smaller scan is refused before it is drawn.
        monkeypatch.setattr(calibration, "simulate_scan", refuse_allocation)
        assert main(["calibrate", "--link", link_file,
                     "--points", str(points)]) == EXIT_VALIDATION
        assert (capsys.readouterr().err
                == f"decoyqkd calibrate: --points={points} must be in [8, 10000000]\n")

    def test_eight_point_grid_fits(self, link_file):
        assert main(["calibrate", "--link", link_file, "--points", "8", "--noiseless"]) == EXIT_OK

    def test_degenerate_point_count_rejected(self, link_file):
        assert main(["calibrate", "--link", link_file, "--points", "1"]) == EXIT_VALIDATION

    def test_oversized_point_count_rejected_before_allocation(self, link_file, capsys,
                                                              monkeypatch):
        # The scan intensity is computed just before the offsets are built.
        monkeypatch.setattr(calibration, "scan_intensity_for_peak", refuse_allocation)
        assert main(["calibrate", "--link", link_file,
                     "--points", str(10**12)]) == EXIT_VALIDATION
        assert "must be in [8, 10000000]" in capsys.readouterr().err

    def test_saturated_scan_is_a_validation_error(self, tmp_path, capsys):
        config = tmp_path / "flat.cfg"
        config.write_text("visibility=0\nalpha_db_per_km=0\nexcess_loss_db=0\neta_det=1\n")
        assert main(["calibrate", "--link", str(config), "--peak", "0.999999",
                     "--pulses-per-point", "1000", "--seed", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "every scan point is saturated" in err and "Singular" not in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_session_pulses_rejected(self, link_file, capsys, value):
        assert main(["calibrate", "--link", link_file,
                     "--session-pulses", value]) == EXIT_VALIDATION
        assert f"session_pulses={value} must be finite" in capsys.readouterr().err

    def test_pulses_per_point_above_int64_rejected(self, link_file, capsys):
        assert main(["calibrate", "--link", link_file,
                     "--pulses-per-point", str(10**19)]) == EXIT_VALIDATION
        assert ("pulses_per_point=10000000000000000000 must be in [1, 2**63 - 1]"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_true_zero_rejected_without_warnings(self, link_file, capsys, value):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["calibrate", "--link", link_file,
                         "--true-zero", value]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"true_phase_zero={value} must be finite" in err and "Warning" not in err
        assert [str(w.message) for w in caught] == []


WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".github", "workflows", "tests.yml")


def test_workflow_pins_match_the_commands(capsys):
    # The package-smoke job pins each command's stdout as `check <sha256> <args...>`.
    with open(WORKFLOW, encoding="utf-8") as handle:
        checks = re.findall(r"^\s*check ([0-9a-f]{64}) (.+)$", handle.read(), re.MULTILINE)
    assert checks, f"no pinned check line in {WORKFLOW}"
    digests = {}
    for expected, args in checks:
        assert main(args.split()) == EXIT_OK, args
        digests[args] = (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
                         expected)
    assert {args: pair for args, pair in digests.items() if pair[0] != pair[1]} == {}
