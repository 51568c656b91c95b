"""Table I/O, bundled dataset and CLI subcommands."""
import filecmp
import hashlib
import io
import itertools
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decoyqkd import MeasuredStats, calibration, link
from decoyqkd.cli import EXIT_OK, EXIT_PARSE, EXIT_RUNTIME, EXIT_VALIDATION, main
from decoyqkd.tables import (
    TableParseError,
    bundled_reference_table,
    bundled_reference_text,
    read_config,
    read_measured_stats,
    write_measured_stats,
)

from conftest import REFERENCE_BOUNDS, not_converged

REFERENCE_SHA256 = "42dd2ad257a0f2fddab4c954dd0dd1114b924517e93c1fb0970d86cf61d30520"
# `decoyqkd analyze` stdout on the bundled table, pinned while the bounds were
# still computed one MeasuredStats row at a time.
ANALYZE_STDOUT_SHA256 = "5d3c7471cd2446bc6eac75280294f787ae36345dd97d105ad15d8fcfea9bef7f"


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
        rows = bundled_reference_table()
        assert [r.length_km for r in rows] == [123.6, 108.0, 97.0, 83.7, 62.1, 49.2]
        first = rows[0]
        assert (first.s_mu, first.e_mu, first.s_nu, first.e_nu) == (
            3.8e-5, 0.0199, 1.36e-5, 0.041)
        last = rows[-1]
        assert (last.s_mu, last.e_mu, last.s_nu, last.e_nu) == (
            8.6e-4, 0.0103, 2.9e-4, 0.020)


class TestTableParsing:
    HEADER = "length_km\ts_mu\te_mu\ts_nu\te_nu\n"

    def test_round_trip_is_lossless(self):
        rows = bundled_reference_table()
        buffer = io.StringIO()
        write_measured_stats(rows, buffer)
        assert read_measured_stats(buffer.getvalue().splitlines()) == rows

    @given(st.lists(st.builds(MeasuredStats, st.floats(0.0, 1e300),
                              *[st.floats(0.0, 1.0)] * 4), max_size=20))
    def test_round_trip_is_exact_on_generated_tables(self, rows):
        buffer = io.StringIO()
        write_measured_stats(rows, buffer)
        loaded = read_measured_stats(buffer.getvalue().splitlines())
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

    def test_stdout_pinned(self, capsys):
        assert main(["analyze"]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_STDOUT_SHA256

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
        expected = analyze_row(ProtocolParams(), bundled_reference_table()[0])
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


@pytest.fixture(scope="module")
def link_file(tmp_path_factory):
    """Fitted link model written once and reused by sweep/simulate tests."""
    path = tmp_path_factory.mktemp("model") / "link.cfg"
    assert main(["fit", "--out", str(path)]) == EXIT_OK
    return str(path)


class TestSweepCommand:
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

    @pytest.mark.parametrize("key, value", [("alpha_db_per_km", "nan"),
                                            ("excess_loss_db", "-inf")])
    def test_non_finite_link_value_rejected(self, tmp_path, capsys, key, value):
        config = tmp_path / "link.cfg"
        config.write_text(f"{key}={value}\n")
        assert main(["sweep", "--link", str(config)]) == EXIT_VALIDATION
        assert f"{key}={value} must be finite" in capsys.readouterr().err


class TestSimulateCommand:
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

    def test_infinite_pulses_rejected(self, link_file, capsys):
        assert main(["simulate", "--link", link_file, "--pulses", "inf"]) == EXIT_VALIDATION
        assert "pulses=inf must be finite" in capsys.readouterr().err


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

    def test_four_point_grid_rejected(self, link_file):
        assert main(["calibrate", "--link", link_file, "--points", "4"]) == EXIT_VALIDATION

    def test_degenerate_point_count_rejected(self, link_file):
        assert main(["calibrate", "--link", link_file, "--points", "1"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_session_pulses_rejected(self, link_file, capsys, value):
        assert main(["calibrate", "--link", link_file,
                     "--session-pulses", value]) == EXIT_VALIDATION
        assert f"session_pulses={value} must be finite" in capsys.readouterr().err
