"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with `pytest -s` or in the
captured-output section of `pytest -rA`) after its assertions hold.
The Monte Carlo criterion runs 100 seeded 1e7-pulse sessions at each
bundled fiber length; each session is one count-level draw, so the 600
sessions take well under a second. Beside it, and not part of it, the
s1 soundness test draws 300 sessions of 2e9 pulses at each length.
"""
import filecmp
import math
import time
from dataclasses import replace

import pytest
from scipy.stats import beta

from decoyqkd import (
    AnalysisError,
    LinkModel,
    MeasuredStats,
    ProtocolParams,
    analyze_row,
    expected_stats,
    fit_fringe,
    run_session,
    simulate_scan,
    soundness_report,
)
from decoyqkd.calibration import scan_intensity_for_peak
from decoyqkd.cli import EXIT_OK, main
from decoyqkd.sim import SimConfig, session_params
from decoyqkd.tables import bundled_reference_text, read_measured_stats

from conftest import REFERENCE_BOUNDS
from test_cli import parse_bounds_output

S1_E1_RTOL = 0.02
RATE_RTOL = 0.03


def reference_rows():
    return {row.length_km: row
            for row in read_measured_stats(bundled_reference_text().splitlines())}


def test_reference_table_reproduction(tmp_path):
    """All six bundled rows reproduce the reference bounds at tolerance."""
    started = time.perf_counter()
    out = tmp_path / "bounds.tsv"
    assert main(["analyze", "--out", str(out)]) == EXIT_OK
    rows = parse_bounds_output(out.read_text())
    for length, s1_ref, e1_ref, r_ref in REFERENCE_BOUNDS:
        s1, e1, r, secure, _ = rows[length]
        assert s1 == pytest.approx(s1_ref, rel=S1_E1_RTOL), f"s1 at {length} km"
        assert e1 == pytest.approx(e1_ref, rel=S1_E1_RTOL), f"e1 at {length} km"
        assert r == pytest.approx(r_ref, rel=RATE_RTOL), f"rate at {length} km"
        assert secure, f"row at {length} km must be secure"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE PASS: reference-table reproduction ({elapsed:.2f}s)")


def test_spot_values_longest_row():
    """The 123.6 km row yields the reference bound triple."""
    bounds = analyze_row(ProtocolParams(), reference_rows()[123.6])
    assert bounds.s1_lower == pytest.approx(3.78e-5, rel=S1_E1_RTOL)
    assert bounds.e1_upper == pytest.approx(0.0607, rel=S1_E1_RTOL)
    assert bounds.r_lower == pytest.approx(9.59e-7, rel=RATE_RTOL)
    print("\nACCEPTANCE PASS: 123.6 km spot values")


def test_confidence_multiplier_recovery():
    """Brute-force scan over u_alpha recovers the default of 10."""
    started = time.perf_counter()
    table = reference_rows().values()
    reference = {length: (s1, e1, r) for length, s1, e1, r in REFERENCE_BOUNDS}

    def total_relative_error(u_alpha: float) -> float:
        params = ProtocolParams(u_alpha=u_alpha)
        total = 0.0
        for row in table:
            s1_ref, e1_ref, r_ref = reference[row.length_km]
            try:
                bounds = analyze_row(params, row)
            except AnalysisError:
                return math.inf
            total += abs(bounds.s1_lower - s1_ref) / s1_ref
            total += abs(bounds.e1_upper - e1_ref) / e1_ref
            total += abs(bounds.r_lower - r_ref) / r_ref
        return total

    grid = [round(0.1 * i, 1) for i in range(201)]
    errors = [total_relative_error(u) for u in grid]
    best = grid[errors.index(min(errors))]
    elapsed = time.perf_counter() - started
    assert abs(best - 10.0) <= 0.5, f"scan minimum at u_alpha={best}"
    assert elapsed < 10.0
    print(f"\nACCEPTANCE PASS: u_alpha recovery (minimum at {best}, {elapsed:.2f}s)")


def test_estimator_oracle_equivalence():
    """analyze_row equals a straight-line transcription on random inputs."""
    import random

    def straight_line(mu, nu, q, f, u, n_nu, s_mu, e_mu, s_nu):
        s_nu_l = s_nu * (1.0 - u / math.sqrt(n_nu * s_nu))
        s1 = (mu / (mu * nu - nu**2)) * (
            s_nu_l * math.exp(nu)
            - s_mu * math.exp(mu) * nu**2 / mu**2
            - e_mu * s_mu * math.exp(mu) * (mu**2 - nu**2) / (0.5 * mu**2)
        )
        if s_nu_l <= 0 or s1 <= 0:
            return None
        e1 = e_mu * s_mu / (s1 * mu * math.exp(-mu))
        if not 0.0 <= e1 <= 1.0:
            return None

        def h2(p):
            if p == 0.0 or p == 1.0:
                return 0.0
            return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)

        r = q * (-s_mu * f * h2(e_mu) + s1 * mu * math.exp(-mu) * (1.0 - h2(e1)))
        return s_nu_l, s1, e1, r

    started = time.perf_counter()
    rng = random.Random(1550)
    checked = 0
    while checked < 10_000:
        mu = rng.uniform(0.1, 1.0)
        nu = rng.uniform(0.01, 0.9 * mu)
        q = rng.uniform(0.1, 1.0)
        f = rng.uniform(1.0, 2.0)
        u = rng.uniform(0.0, 15.0)
        n_nu = 10 ** rng.uniform(6, 12)
        s_mu = 10 ** rng.uniform(-6, -2)
        e_mu = rng.uniform(0.0, 0.1)
        s_nu = 10 ** rng.uniform(-6, -2)
        expected = straight_line(mu, nu, q, f, u, n_nu, s_mu, e_mu, s_nu)
        if expected is None:
            continue
        params = ProtocolParams(mu=mu, nu=nu, q=q, f_ec=f, u_alpha=u,
                                n_mu=n_nu, n_nu=n_nu)
        bounds = analyze_row(params, MeasuredStats(0.0, s_mu, e_mu, s_nu, 0.0))
        produced = (bounds.s_nu_lower, bounds.s1_lower, bounds.e1_upper, bounds.r_lower)
        for got, ref in zip(produced, expected):
            assert got == pytest.approx(ref, rel=1e-12)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE PASS: oracle equivalence on {checked} inputs ({elapsed:.2f}s)")


def test_monte_carlo_consistency_and_soundness(fitted_model, default_params):
    """1e7-pulse sessions agree with the analytic link model and never
    overclaim: per length, z-scores of s_mu, s_nu, e_mu against the
    model are unbiased (|mean z| <= 0.5 over 100 seeds) with >= 97/100
    inside 3 sigma, and the bounds computed from each session's own
    statistics are violated by ground truth in at most 1 of 100 seeds.
    Sessions whose finite statistics cannot support the confidence
    multiplier abort conservatively and therefore never overclaim."""
    started = time.perf_counter()
    lengths = list(reference_rows())
    n_seeds = 100
    summary = []
    for length in lengths:
        model_row = expected_stats(fitted_model, default_params, length)
        expect = {name: getattr(model_row, name) for name in ("s_mu", "s_nu", "e_mu")}
        z_scores = {name: [] for name in expect}
        produced = violations = 0
        s1_slacks, e1_slacks = [], []
        for seed in range(n_seeds):
            config = SimConfig(n_pulses=10_000_000, link=fitted_model,
                               params=default_params, seed=seed, length_km=length)
            tally, stats = run_session(config)
            denominators = {
                "s_mu": tally.signal.emitted,
                "s_nu": tally.decoy.emitted,
                "e_mu": tally.signal.sifted,
            }
            for name, expected in expect.items():
                sigma = math.sqrt(expected * (1 - expected) / denominators[name])
                z_scores[name].append((getattr(stats, name) - expected) / sigma)
            try:
                bounds = analyze_row(session_params(default_params, tally), stats)
            except AnalysisError:
                continue
            produced += 1
            report = soundness_report(tally, bounds, default_params)
            s1_slacks.append(report.s1_slack)
            if report.e1_slack is not None:
                e1_slacks.append(report.e1_slack)
            if not report.sound:
                violations += 1
        for name, zs in z_scores.items():
            mean_z = sum(zs) / len(zs)
            inside = sum(1 for z in zs if abs(z) <= 3.0)
            assert abs(mean_z) <= 0.5, f"{name} biased at {length} km: mean z={mean_z:.2f}"
            assert inside >= 97, f"{name} at {length} km: only {inside}/100 within 3 sigma"
        assert violations <= 1, f"{violations} bound violations at {length} km"
        s1_min, e1_min = (f"{min(slacks):.3g}" if slacks else "none"
                          for slacks in (s1_slacks, e1_slacks))
        summary.append(f"{length}km: bounds in {produced}/100 seeds, "
                       f"{violations} violations, min s1 slack {s1_min}, "
                       f"min e1 slack {e1_min}")
    elapsed = time.perf_counter() - started
    print("\nACCEPTANCE PASS: Monte Carlo consistency and soundness "
          f"({elapsed:.1f}s)")
    for line in summary:
        print("  " + line)


def test_soundness_at_paper_session_size(fitted_model, default_params):
    """At the paper's session size (2e9 pulses, the default pulse budgets)
    the s1 bound is violated no more often than its nominal level: per
    bundled length and u_alpha in {1, 2}, over 300 seeds, the one-sided
    95% Clopper-Pearson upper limit of the s1 violation rate among
    sessions with bounds is below Phi(-u_alpha), the one-sided tail of
    the decoy-rate floor. Each tally is bounded with its own budgets."""
    started = time.perf_counter()
    n_seeds, u_alphas, lengths = 300, (1.0, 2.0), list(reference_rows())
    cells = {(length, u): [] for length in lengths for u in u_alphas}
    for length in lengths:
        for seed in range(n_seeds):
            config = SimConfig(n_pulses=2_000_000_000, link=fitted_model,
                               params=default_params, seed=seed, length_km=length)
            tally, stats = run_session(config)
            for u in u_alphas:
                params = session_params(replace(default_params, u_alpha=u), tally)
                try:
                    bounds = analyze_row(params, stats)
                except AnalysisError:
                    continue
                cells[length, u].append(soundness_report(tally, bounds, params))
    summary = []
    for (length, u), reports in cells.items():
        produced = len(reports)
        violations = sum(not report.s1_ok for report in reports)
        upper = (1.0 if violations == produced
                 else float(beta.ppf(0.95, violations + 1, produced - violations)))
        nominal = 0.5 * math.erfc(u / math.sqrt(2.0))
        assert upper < nominal, (f"{length} km, u_alpha={u}: {violations}/{produced} "
                                 f"s1 violations, upper limit {upper:.4f} >= {nominal:.4f}")
        summary.append(f"{length}km u_alpha={u:g}: bounds in {produced}/{n_seeds} seeds, "
                       f"{violations} s1 violations, upper limit {upper:.4f} < "
                       f"{nominal:.4f}, min s1 slack "
                       f"{min(report.s1_slack for report in reports):.3g}")
    elapsed = time.perf_counter() - started
    print(f"\nPASS: s1 soundness at 2e9 pulses per session ({elapsed:.1f}s)")
    for line in summary:
        print("  " + line)


def test_secure_distance_cutoff(tmp_path):
    """Sweep on the fitted model locates the cutoff in [123.6, 140] km."""
    started = time.perf_counter()
    out = tmp_path / "sweep.tsv"
    assert main(["sweep", "--out", str(out)]) == EXIT_OK
    cutoff_line = next(line for line in out.read_text().splitlines()
                       if line.startswith("# cutoff_km="))
    cutoff = float(cutoff_line.split("=")[1])
    elapsed = time.perf_counter() - started
    assert 123.6 <= cutoff <= 140.0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE PASS: secure-distance cutoff {cutoff} km ({elapsed:.1f}s)")


def test_calibration_visibility_recovery():
    """Fringe fits on 100 seeded scans recover the 0.99 input visibility."""
    started = time.perf_counter()
    model = LinkModel(alpha_db_per_km=0.0, excess_loss_db=0.0, eta_det=1.0,
                      y0=5e-7, visibility=0.99)
    strong = scan_intensity_for_peak(model, peak=0.5)
    offsets = [i * 2.0 * math.pi / 63 for i in range(64)]
    worst = 0.0
    for seed in range(100):
        curve = simulate_scan(model, strong, offsets, 100_000, seed=seed,
                              true_phase_zero=0.8)
        estimate = fit_fringe(curve).visibility_est
        worst = max(worst, abs(estimate - 0.99))
        assert abs(estimate - 0.99) <= 0.005, f"seed {seed}: visibility {estimate}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE PASS: visibility recovery, worst |error|={worst:.4f} "
          f"({elapsed:.1f}s)")


def test_deterministic_outputs(tmp_path):
    """Fixed seeds give byte-identical outputs."""
    link_path = tmp_path / "link.cfg"
    assert main(["fit", "--out", str(link_path)]) == EXIT_OK

    sim_args = ["simulate", "--link", str(link_path), "--pulses", "300000",
                "--length-km", "62.1", "--seed", "9"]
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main([*sim_args, "--out", str(first)]) == EXIT_OK
    assert main([*sim_args, "--out", str(second)]) == EXIT_OK
    assert filecmp.cmp(first, second, shallow=False)

    sweep_a, sweep_b = tmp_path / "s1.tsv", tmp_path / "s2.tsv"
    assert main(["sweep", "--link", str(link_path), "--out", str(sweep_a)]) == EXIT_OK
    assert main(["sweep", "--link", str(link_path), "--out", str(sweep_b)]) == EXIT_OK
    assert filecmp.cmp(sweep_a, sweep_b, shallow=False)

    cal_args = ["calibrate", "--link", str(link_path), "--seed", "4"]
    cal_a, cal_b = tmp_path / "c1.txt", tmp_path / "c2.txt"
    assert main([*cal_args, "--out", str(cal_a)]) == EXIT_OK
    assert main([*cal_args, "--out", str(cal_b)]) == EXIT_OK
    assert filecmp.cmp(cal_a, cal_b, shallow=False)
    print("\nACCEPTANCE PASS: byte-identical deterministic outputs")
