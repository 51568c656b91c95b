"""The package names the benchmark in bench/ calls, checked without running it."""
import importlib
from pathlib import Path

from decoyqkd import calibration, estimator, link, sim

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_calls_only_names_the_package_has(monkeypatch):
    # bench/run.py imports its sibling modules by bare name.
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    targets = run.trace_targets()
    assert targets
    assert all(callable(target) for target, *_ in targets.values())
    for module, name in [(sim, "SimConfig"), (sim, "session_params"),
                         (estimator, "AnalysisError"),
                         (calibration, "scan_intensity_for_peak"), (link, "LinkModel")]:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
