"""Self-tests of the benchmark: tiny smoke runs and checks that catch known-wrong values.

    python3 -m pytest bench/selftest.py -q

The file name keeps it out of the repository's test suite. Every
correctness check is first shown to pass on a real decoyqkd output and
then to fail once one value of that output is made wrong.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

TINY = run.Sizes(bulk_rows=3_000, sweep_grid="0:200:0.5", cal_batches=2, cal_batch=2, pulses=200_000,
                 setup_repeats=1)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SCRATCH = run.WORK / "selftest"


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


# ------------------------------------------------------------------- smoke

@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_smoke(workload, capsys):
    assert run.bench(workload, 5, 0.0, False, TINY) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_smoke(workload, capsys):
    assert run.bench(workload, 5, 0.0, True, TINY) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.spans"]["value"] > 0


def test_refuses_a_checkout_without_source():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "analyze-bulk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_repeat_for_a_seed():
    a, b = ref.bulk_table(3, 500), ref.bulk_table(3, 500)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["s_mu"], ref.bulk_table(4, 500)["s_mu"])


# ------------------------------------------------------- known-wrong values

@pytest.fixture(scope="module")
def analyzed():
    """A real `analyze` output on a generated table, parsed."""
    from decoyqkd import cli
    out = SCRATCH / "inputs"
    inputs = ref.write_inputs(2, out, 4_000)
    bounds = out / "bounds.tsv"
    assert cli.main(["analyze", "--input", str(inputs.bulk_path), "--out", str(bounds)]) == 0
    return inputs.bulk, checks.parse_bounds_table(bounds.read_text())


def _copy(parsed: dict) -> dict:
    return {k: v.copy() for k, v in parsed.items()}


def test_bounds_check_catches_wrong_values(analyzed):
    bulk, got = analyzed
    params = ref.Params()
    assert checks.check_bounds(got, bulk, params, "t") == []
    assert checks.check_truth(got, bulk["y1"], bulk["e1"], ~bulk["noisy"], "t") == []
    statuses = ref.bounds(params, bulk["s_mu"], bulk["e_mu"], bulk["s_nu"])["status"]
    assert {ref.INSUFFICIENT, ref.NO_BOUND} <= set(statuses.tolist())

    scaled = _copy(got)
    scaled["s1_lower"] *= 1.01
    assert checks.check_bounds(scaled, bulk, params, "t")

    one_row = _copy(got)
    i = int(np.flatnonzero(~got["diagnostics"])[0])
    one_row["r_lower"][i] *= 1.0 + 1e-9
    assert checks.check_bounds(one_row, bulk, params, "t")

    flipped = _copy(got)
    flipped["diagnostics"][i] = True
    assert checks.check_bounds(flipped, bulk, params, "t")

    swapped = _copy(got)
    swapped["length_km"][[0, 1]] = swapped["length_km"][[1, 0]]
    assert checks.check_bounds(swapped, bulk, params, "t")

    dropped = {k: v[1:] for k, v in got.items()}
    assert checks.check_bounds(dropped, bulk, params, "t")

    overclaim = _copy(got)
    j = int(np.flatnonzero(~got["diagnostics"] & ~bulk["noisy"])[0])
    overclaim["s1_lower"][j] = bulk["y1"][j] * 1.01
    assert checks.check_truth(overclaim, bulk["y1"], bulk["e1"], ~bulk["noisy"], "t")


def test_fit_check_catches_wrong_visibility():
    from decoyqkd import ProtocolParams, link
    from decoyqkd.estimator import MeasuredStats
    truth, rows = ref.heldout_tables(7)[0]
    columns = ("length_km", "s_mu", "e_mu", "s_nu", "e_nu")
    table = [MeasuredStats(*(float(rows[c][i]) for c in columns))
             for i in range(rows["s_mu"].size)]
    model = link.fit_link(table, ProtocolParams(), y0=truth.y0)
    fitted = ref.Link(**{k: getattr(model, k) for k in vars(truth)})
    assert checks.check_fit(fitted, truth, "t") == []
    assert checks.check_fit(replace(fitted, visibility=fitted.visibility - 0.01), truth, "t")
    assert checks.check_fit(replace(fitted, alpha_db_per_km=fitted.alpha_db_per_km * 1.001),
                            truth, "t")


def test_sweep_check_catches_wrong_cutoff_and_curve():
    from decoyqkd import ProtocolParams, link
    fitted = ref.Link(0.16656164290667794, 18.308566835761066, 1.0, 5e-07, 0.9759184595740782)
    grid = [0.5 * i for i in range(401)]
    sweep = link.sweep_key_rate(link.LinkModel(**vars(fitted)), ProtocolParams(), grid)
    lengths, rates, cutoff = np.asarray(sweep.lengths), np.asarray(sweep.rates), sweep.cutoff_km
    params = ref.Params()
    assert checks.check_sweep(lengths, rates, cutoff, fitted, params, "t") == []
    assert checks.check_sweep(lengths, rates, cutoff + 0.2, fitted, params, "t")
    assert checks.check_sweep(lengths, rates, cutoff - 0.5, fitted, params, "t")
    assert checks.check_sweep(lengths, rates * 1.001, cutoff, fitted, params, "t")
    assert checks.check_sweep(lengths, rates, 141.0, fitted, params, "t")


def test_fringe_check_catches_wrong_fit():
    setup = ref.scan_setups(11, 1)[0]
    vis, zero, points = run._calibration_cycle(*setup)
    truth_v, truth_zero = setup[0].visibility, setup[1]
    assert checks.check_fringe(vis, zero, points, truth_v, truth_zero, "t") == []
    assert checks.check_fringe(vis + 0.01, zero, points, truth_v, truth_zero, "t")
    assert checks.check_fringe(vis, zero + 0.05, points, truth_v, truth_zero, "t")
    skewed = (points[0], points[1] + 0.01, points[2], points[3])
    assert checks.check_fringe(vis, zero, skewed, truth_v, truth_zero, "t")


@pytest.fixture(scope="module")
def session():
    """A real 1e6-pulse session at 10 km with its bounds and soundness report."""
    from decoyqkd import ProtocolParams, sim
    from decoyqkd.link import LinkModel
    config = sim.SimConfig(n_pulses=1_000_000, link=LinkModel(**vars(ref.PAPER_LINK)),
                           params=ProtocolParams(), seed=21, length_km=10.0)
    _, tally, bounds, report = run._session(config)
    assert bounds is not None
    produced = {n: getattr(bounds, n) for n in checks.BOUND_FIELDS}
    return (run._plain_tally(tally), produced,
            {"true_s1": report.true_s1, "sound": report.sound})


def test_session_check_catches_wrong_tally_and_bounds(session):
    tally, produced, report = session
    args = (1_000_000, ref.PAPER_LINK, ref.Params(), 10.0)
    assert checks.check_session(tally, *args, produced, "t", report) == []

    def with_signal(emitted=0, clicked=0, sifted=0, errors=0):
        t = dict(tally)
        e, c, s, r = t["signal"]
        t["signal"] = (e + emitted, c + clicked, s + sifted, r + errors)
        return t

    assert checks.check_tally(with_signal(clicked=-1), 1_000_000, "t")
    assert checks.check_tally(with_signal(emitted=-1), 1_000_000, "t")
    assert with_signal(clicked=-1) != tally  # what the CLI-repeat comparison relies on

    e, c = tally["signal"][0], tally["signal"][1]
    shift = int(10 * math.sqrt(c)) + 1
    far = dict(tally)
    far["signal"] = (e, c + shift) + tally["signal"][2:]
    far["photons3plus"] = (tally["photons3plus"][0], tally["photons3plus"][1] + shift,
                           *tally["photons3plus"][2:])
    assert any("s_mu z=" in f for f in checks.check_session(far, *args, None, "t"))

    assert checks.check_session(tally, *args, {**produced, "s1_lower": produced["s1_lower"] * 1.01},
                                "t", report)
    assert checks.check_session(tally, *args, None, "t")
    assert checks.check_session(tally, *args, produced, "t", {**report, "sound": False})


def test_binomial_z_is_exact_in_the_tail():
    assert abs(checks.binomial_z(50, 100, 0.5)) < 0.2
    assert checks.binomial_z(10, 95, 0.02) > 4.0  # far in the tail of a mean of 1.9
    assert checks.binomial_z(0, 10_000, 0.01) < -6.0
