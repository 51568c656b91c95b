"""The package names the benchmark in bench/ calls, checked without running it."""
import importlib
from pathlib import Path

import numpy as np

from decoyqkd import MeasuredStats, ProtocolParams, calibration, estimator, link, sim
from decoyqkd.tables import (STATS_COLUMNS, bundled_reference_text, read_measured_stats,
                             read_stats_columns)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(monkeypatch, name):
    # bench/run.py imports its sibling modules by bare name.
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module(name)


def test_benchmark_calls_only_names_the_package_has(monkeypatch):
    run = bench_module(monkeypatch, "run")
    targets = run.trace_targets()
    assert targets
    assert all(callable(target) for target, *_ in targets.values())
    for module, name in [(sim, "SimConfig"), (sim, "session_params"),
                         (estimator, "AnalysisError"),
                         (calibration, "scan_intensity_for_peak"), (link, "LinkModel")]:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_fit_link_on_a_row_list_equals_the_fit_on_the_array(monkeypatch):
    # bench/selftest.py fits a held-out table built as a list of MeasuredStats rows.
    ref = bench_module(monkeypatch, "reference")
    truth, rows = ref.heldout_tables(7)[0]
    table = [MeasuredStats(*(float(rows[c][i]) for c in STATS_COLUMNS))
             for i in range(rows["s_mu"].size)]
    array = np.column_stack([rows[c] for c in STATS_COLUMNS])
    assert (link.fit_link(table, ProtocolParams(), y0=truth.y0)
            == link.fit_link(array, ProtocolParams(), y0=truth.y0))


def test_row_list_reads_as_the_column_array_bit_for_bit(monkeypatch, tmp_path):
    # bench/run.py traces read_measured_stats on the tables the benchmark writes.
    ref = bench_module(monkeypatch, "reference")
    ref.write_table(tmp_path / "heldout.tsv", ref.heldout_tables(7)[1][1])
    for text in (bundled_reference_text(), (tmp_path / "heldout.tsv").read_text()):
        lines = text.splitlines()
        rows = np.asarray(read_measured_stats(lines), dtype=float)
        columns = read_stats_columns(lines)
        assert rows.shape == columns.shape and rows.tobytes() == columns.tobytes()
