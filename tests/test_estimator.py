"""Security-bound math against frozen values and algebraic properties."""
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from decoyqkd import (
    AnalysisError,
    InsufficientStatisticsError,
    LinkModel,
    MeasuredStats,
    NoSinglePhotonBoundError,
    ProtocolParams,
    SecurityBounds,
    analyze_columns,
    analyze_row,
    binary_entropy,
    expected_stats,
)
from decoyqkd.cli import EXIT_OK, main
from decoyqkd.estimator import _entropy

from conftest import REFERENCE_BOUNDS


def row_123(reference_table):
    return next(r for r in reference_table if r.length_km == 123.6)


def decoy_floor(s_nu, n_nu, u_alpha):
    """analyze_row's s_nu_lower on a row whose chain runs to the end unless the
    floor aborts: signal rate mu/nu times the decoy rate, no observed error."""
    params = ProtocolParams(u_alpha=u_alpha, n_nu=n_nu)
    return analyze_row(params, MeasuredStats(0.0, 3.0 * s_nu, 0.0, s_nu, 0.0)).s_nu_lower


class TestBinaryEntropy:
    def test_limit_convention_at_zero_and_one(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_direct_evaluation(self):
        # -p*log2(p) - (1-p)*log2(1-p) at p=0.0199, frozen by hand evaluation
        assert binary_entropy(0.0199) == pytest.approx(0.14087870292058005, rel=1e-12)
        assert binary_entropy(0.0199) == pytest.approx(0.14088, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_symmetric_about_half(self):
        for i in range(1, 1000):
            p = i / 1000.0
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), rel=1e-12)

    def test_strictly_increasing_below_half(self):
        grid = [i / 2000.0 for i in range(1001)]
        values = [binary_entropy(p) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    @staticmethod
    def expected_bits(p):
        return binary_entropy(p).hex() if 0.0 <= p <= 1.0 else "nan"

    entropy_arguments = st.one_of(
        st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2e-308, 0.5, 1.0 - 2.0**-53, 1.0 + 2.0**-52,
                         -5e-324]))

    @given(st.lists(entropy_arguments, max_size=40))
    def test_column_entropy_is_binary_entropy_bit_for_bit(self, values):
        got = _entropy(np.array(values, dtype=float))
        assert got.shape == (len(values),) and got.dtype == np.float64
        assert ([h.hex() if not math.isnan(h) else "nan" for h in got.tolist()]
                == [self.expected_bits(p) for p in values])

    def test_column_entropy_is_bit_for_bit_on_many_values(self):
        # np.log2 rounds differently from math.log2 on about one value in a thousand.
        values = np.random.default_rng(0).random(20_000) ** 4
        assert _entropy(values).tolist() == [binary_entropy(p) for p in values.tolist()]


class TestDecoyRateFloor:
    def test_reference_row_correction(self, reference_table, default_params):
        # the 123.6 km row: 1.36e-5 * (1 - 10/sqrt(1e9 * 1.36e-5)), frozen
        floor = analyze_row(default_params, row_123(reference_table)).s_nu_lower
        assert floor == pytest.approx(1.2434e-5, abs=1e-9)
        assert floor == pytest.approx(1.243380962103094e-05, rel=1e-12)

    def test_zero_confidence_is_identity(self):
        assert decoy_floor(3.3e-4, 1e6, 0.0) == 3.3e-4

    def test_insufficient_statistics(self):
        # one expected decoy click cannot support u_alpha = 10
        with pytest.raises(InsufficientStatisticsError):
            decoy_floor(1e-6, 1e6, 10.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(InsufficientStatisticsError):
            decoy_floor(0.0, 1e9, 10.0)

    def test_never_exceeds_input_rate(self):
        rng = random.Random(1)
        for _ in range(200):
            s = 10 ** rng.uniform(-6, -2)
            u = rng.uniform(0, 5)
            try:
                assert decoy_floor(s, 1e9, u) <= s
            except InsufficientStatisticsError:
                pass


class TestYieldBound:
    @pytest.mark.parametrize("length,expected", [(123.6, 3.78e-5), (108.0, 8.09e-5)])
    def test_reference_rows(self, reference_table, default_params, length, expected):
        stats = next(r for r in reference_table if r.length_km == length)
        assert analyze_row(default_params, stats).s1_lower == pytest.approx(expected, rel=0.02)

    def test_corrected_cell(self, reference_table, default_params):
        # the reference table's printed 1.69e-5 is inconsistent with the row's own QBER
        # bound; direct recomputation gives 1.69e-4
        stats = next(r for r in reference_table if r.length_km == 83.7)
        assert analyze_row(default_params, stats).s1_lower == pytest.approx(1.69e-4, rel=0.02)

    def test_degenerate_intensities_rejected(self, reference_table):
        params = ProtocolParams(mu=0.6, nu=0.6)
        with pytest.raises(ValueError):
            analyze_row(params, row_123(reference_table))


class TestQberBound:
    def test_longest_row(self, reference_table, default_params):
        bounds = analyze_row(default_params, row_123(reference_table))
        assert bounds.e1_upper == pytest.approx(0.0607, rel=0.02)

    def test_shortest_row(self, reference_table, default_params):
        stats = next(r for r in reference_table if r.length_km == 49.2)
        bounds = analyze_row(default_params, stats)
        assert bounds.s1_lower == pytest.approx(1.09e-3, rel=0.02)
        assert bounds.e1_upper == pytest.approx(0.0247, rel=0.02)

    def test_zero_observed_error(self, default_params):
        stats = MeasuredStats(10.0, 1e-3, 0.0, 3.4e-4, 0.0)
        assert analyze_row(default_params, stats).e1_upper == 0.0


class TestKeyRate:
    @pytest.mark.parametrize("length,expected", [(123.6, 9.59e-7), (49.2, 1.06e-4)])
    def test_reference_rows(self, reference_table, default_params, length, expected):
        stats = next(r for r in reference_table if r.length_km == length)
        assert analyze_row(default_params, stats).r_lower == pytest.approx(expected, rel=0.03)


class TestAnalyzeRow:
    def test_full_reference_table(self, reference_table, default_params):
        by_length = {r.length_km: r for r in reference_table}
        for length, s1_ref, e1_ref, r_ref in REFERENCE_BOUNDS:
            bounds = analyze_row(default_params, by_length[length])
            assert bounds.s1_lower == pytest.approx(s1_ref, rel=0.02)
            assert bounds.e1_upper == pytest.approx(e1_ref, rel=0.02)
            assert bounds.r_lower == pytest.approx(r_ref, rel=0.03)
            assert bounds.secure

    def test_mid_table_spot(self, reference_table, default_params):
        stats = next(r for r in reference_table if r.length_km == 62.1)
        bounds = analyze_row(default_params, stats)
        assert bounds.s1_lower == pytest.approx(4.46e-4, rel=0.03)
        assert bounds.e1_upper == pytest.approx(0.0211, rel=0.03)
        assert bounds.r_lower == pytest.approx(4.77e-5, rel=0.03)

    def test_zero_decoy_rate(self, default_params):
        stats = MeasuredStats(50.0, 3e-4, 0.01, 0.0, 0.0)
        with pytest.raises(InsufficientStatisticsError):
            analyze_row(default_params, stats)

    def test_decoy_floor_never_above_observed(self, reference_table, default_params):
        for stats in reference_table:
            assert analyze_row(default_params, stats).s_nu_lower <= stats.s_nu

    def test_confidence_monotonicity(self, reference_table):
        # larger u_alpha never increases the yield or rate bounds
        stats = next(r for r in reference_table if r.length_km == 62.1)
        previous = None
        for u in [0.0, 1.0, 2.0, 5.0, 8.0, 10.0, 12.0, 15.0]:
            bounds = analyze_row(ProtocolParams(u_alpha=u), stats)
            if previous is not None:
                assert bounds.s1_lower <= previous.s1_lower + 1e-18
                assert bounds.r_lower <= previous.r_lower + 1e-18
            previous = bounds

    def test_consistency_identity(self, reference_table, default_params):
        # e1_upper * s1_lower * mu * e^-mu recovers e_mu * s_mu exactly
        mu = default_params.mu
        for stats in reference_table:
            bounds = analyze_row(default_params, stats)
            lhs = bounds.e1_upper * bounds.s1_lower * mu * math.exp(-mu)
            assert lhs == pytest.approx(stats.e_mu * stats.s_mu, rel=1e-12)

    def test_infinite_budget_matches_zero_confidence(self, reference_table):
        # n_nu -> infinity with u_alpha fixed converges to the u_alpha = 0 bounds
        stats = next(r for r in reference_table if r.length_km == 97.0)
        asymptotic = analyze_row(ProtocolParams(u_alpha=0.0), stats)
        huge_budget = analyze_row(ProtocolParams(n_nu=1e15), stats)
        assert huge_budget.s1_lower == pytest.approx(asymptotic.s1_lower, rel=1e-3)
        assert huge_budget.e1_upper == pytest.approx(asymptotic.e1_upper, rel=1e-3)
        assert huge_budget.r_lower == pytest.approx(asymptotic.r_lower, rel=1e-3)


class TestValidation:
    def test_intensity_ordering(self):
        with pytest.raises(ValueError):
            ProtocolParams(mu=0.2, nu=0.6)
        with pytest.raises(ValueError):
            ProtocolParams(mu=-0.1)

    def test_sifting_factor_domain(self):
        with pytest.raises(ValueError):
            ProtocolParams(q=0.0)
        with pytest.raises(ValueError):
            ProtocolParams(q=1.5)

    def test_error_correction_inefficiency(self):
        with pytest.raises(ValueError):
            ProtocolParams(f_ec=0.9)

    def test_negative_confidence(self):
        with pytest.raises(ValueError):
            ProtocolParams(u_alpha=-1.0)

    def test_budgets(self):
        with pytest.raises(ValueError):
            ProtocolParams(n_nu=0)

    def test_degenerate_intensities_allowed_at_type_level(self):
        # simulation configs may describe vacuum-only or single-intensity runs
        assert ProtocolParams(mu=0.0, nu=0.0).mu == 0.0

    def test_stats_ranges(self):
        with pytest.raises(ValueError):
            MeasuredStats(-1.0, 1e-4, 0.01, 1e-5, 0.01)
        with pytest.raises(ValueError):
            MeasuredStats(10.0, 1.5, 0.01, 1e-5, 0.01)
        with pytest.raises(ValueError):
            MeasuredStats(10.0, 1e-4, -0.01, 1e-5, 0.01)

    def test_inverted_rates_flagged_not_rejected(self, tmp_path):
        table, out = tmp_path / "rows.tsv", tmp_path / "bounds.tsv"
        table.write_text("length_km\ts_mu\te_mu\ts_nu\te_nu\n"
                         "10.0\t1e-5\t0.01\t3e-5\t0.01\n10.0\t3e-5\t0.01\t1e-5\t0.01\n")
        assert main(["analyze", "--input", str(table), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert [line for line in lines if line.startswith("# warning:")] == [
            "# warning: 10.0 km: s_mu=1e-05 <= s_nu=3e-05: signal pulses should click "
            "more often than weaker decoy pulses"]
        assert [line.split("\t")[0] for line in lines if not line.startswith("#")] == [
            "length_km", "10.0", "10.0"]

    def test_security_flag_invariants(self):
        bounds = SecurityBounds(1e-5, -1e-6, 0.0, -1e-7, secure=False)
        assert not bounds.secure


class TestOracleEquivalence:
    """analyze_row against an independent straight-line transcription."""

    @staticmethod
    def straight_line_bounds(mu, nu, q, f, u, n_nu, s_mu, e_mu, s_nu):
        s_nu_l = s_nu * (1.0 - u / math.sqrt(n_nu * s_nu))
        s1 = (mu / (mu * nu - nu**2)) * (
            s_nu_l * math.exp(nu)
            - s_mu * math.exp(mu) * nu**2 / mu**2
            - e_mu * s_mu * math.exp(mu) * (mu**2 - nu**2) / (0.5 * mu**2)
        )
        if s_nu_l <= 0 or s1 <= 0:
            return s_nu_l, s1, None, None
        e1 = e_mu * s_mu / (s1 * mu * math.exp(-mu))
        if not 0.0 <= e1 <= 1.0:
            return s_nu_l, s1, e1, None

        def h2(p):
            if p == 0.0 or p == 1.0:
                return 0.0
            return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)

        r = q * (-s_mu * f * h2(e_mu) + s1 * mu * math.exp(-mu) * (1.0 - h2(e1)))
        return s_nu_l, s1, e1, r

    def test_random_valid_inputs(self):
        rng = random.Random(20260808)
        checked = 0
        while checked < 10_000:
            mu = rng.uniform(0.1, 1.0)
            nu = rng.uniform(0.01, mu * 0.9)
            q = rng.uniform(0.1, 1.0)
            f = rng.uniform(1.0, 2.0)
            u = rng.uniform(0.0, 15.0)
            n_nu = 10 ** rng.uniform(6, 12)
            s_mu = 10 ** rng.uniform(-6, -2)
            e_mu = rng.uniform(0.0, 0.1)
            s_nu = 10 ** rng.uniform(-6, -2)
            ref = self.straight_line_bounds(mu, nu, q, f, u, n_nu, s_mu, e_mu, s_nu)
            if ref[3] is None:
                continue
            params = ProtocolParams(mu=mu, nu=nu, q=q, f_ec=f, u_alpha=u,
                                    n_mu=n_nu, n_nu=n_nu)
            stats = MeasuredStats(0.0, s_mu, e_mu, s_nu, 0.0)
            bounds = analyze_row(params, stats)
            assert bounds.s_nu_lower == pytest.approx(ref[0], rel=1e-12)
            assert bounds.s1_lower == pytest.approx(ref[1], rel=1e-12)
            assert bounds.e1_upper == pytest.approx(ref[2], rel=1e-12)
            assert bounds.r_lower == pytest.approx(ref[3], rel=1e-12)
            checked += 1


@st.composite
def protocol_params(draw):
    """Any ProtocolParams the constructor accepts, up to 1e300 in each value."""
    mu = draw(st.floats(0.0, 1e300))
    return ProtocolParams(mu=mu, nu=draw(st.floats(0.0, mu)),
                          q=draw(st.floats(0.0, 1.0, exclude_min=True)),
                          f_ec=draw(st.floats(1.0, 1e300)),
                          u_alpha=draw(st.floats(0.0, 1e300)),
                          n_mu=draw(st.floats(1.0, 1e300)), n_nu=draw(st.floats(1.0, 1e300)))


RATES = st.floats(0.0, 1.0)
MEASURED_STATS = st.builds(MeasuredStats, st.floats(0.0, 1e300), RATES, RATES, RATES, RATES)


def s1_or_none(params, stats):
    try:
        return analyze_row(params, stats).s1_lower
    except AnalysisError:
        return None


class TestBoundProperties:
    @given(protocol_params(), MEASURED_STATS)
    def test_analyze_row_returns_bounds_or_raises_analysis_error(self, params, stats):
        try:
            bounds = analyze_row(params, stats)
        except AnalysisError:
            return
        assert isinstance(bounds, SecurityBounds)

    @given(protocol_params(), MEASURED_STATS, st.floats(0.0, 1e300), st.floats(0.0, 1e300))
    def test_s1_lower_non_increasing_in_u_alpha(self, params, stats, u1, u2):
        low = s1_or_none(replace(params, u_alpha=min(u1, u2)), stats)
        high = s1_or_none(replace(params, u_alpha=max(u1, u2)), stats)
        assert high is None or (low is not None and low >= high)

    @given(protocol_params(), MEASURED_STATS, st.floats(1.0, 1e300), st.floats(1.0, 1e300))
    def test_s1_lower_non_decreasing_in_n_nu(self, params, stats, n1, n2):
        small = s1_or_none(replace(params, n_nu=min(n1, n2)), stats)
        large = s1_or_none(replace(params, n_nu=max(n1, n2)), stats)
        assert small is None or (large is not None and large >= small)

    @pytest.mark.parametrize("mu, nu", [(710.0, 0.2), (9.05e-223, 5.29e-223)])
    def test_unrepresentable_bound_is_an_analysis_error(self, mu, nu):
        # e^mu overflows; mu*nu - nu^2 underflows to zero
        params = ProtocolParams(mu=mu, nu=nu, u_alpha=0.0)
        with pytest.raises(AnalysisError, match="not representable"):
            analyze_row(params, MeasuredStats(0.0, 0.0, 0.0, 1.0, 0.0))


def lp_min_single_photon_yield(mu, nu, s_mu, e_mu, s_nu, photons=41):
    """Least Y1 over yields 0 <= Y_n <= 1 (n < photons) that reproduce both gains,
    with vacuum clicks at QBER 1/2 inside the signal errors: the linear
    programme the two-intensity yield bound solves. Each row is scaled by
    its right-hand side, so that the solver's absolute tolerances are relative."""
    n = np.arange(photons)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in n])
    poisson = [np.exp(n * math.log(m) - m - log_factorial) for m in (mu, nu)]
    vacuum_errors = np.where(n == 0, math.exp(-mu) / 2.0, 0.0)
    result = linprog((n == 1).astype(float), A_ub=[vacuum_errors / (e_mu * s_mu)], b_ub=[1.0],
                     A_eq=[poisson[0] / s_mu, poisson[1] / s_nu], b_eq=[1.0, 1.0],
                     bounds=(0.0, 1.0), method="highs")
    assert result.status == 0, result.message
    return result.fun


class TestLinearProgrammeOracle:
    @given(mu=st.floats(0.1, 1.0), nu_share=st.floats(0.05, 0.8),
           alpha=st.floats(0.15, 0.25), excess_loss_db=st.floats(0.0, 20.0),
           eta_det=st.floats(0.05, 1.0), log_y0=st.floats(-7.0, -5.0),
           visibility=st.floats(0.95, 1.0), length=st.floats(0.0, 150.0))
    def test_yield_bound_is_at_most_the_lp_minimum(self, mu, nu_share, alpha, excess_loss_db,
                                                   eta_det, log_y0, visibility, length):
        # No photon-number channel that reproduces an honest row has a smaller Y1.
        link = LinkModel(alpha_db_per_km=alpha, excess_loss_db=excess_loss_db,
                         eta_det=eta_det, y0=10.0**log_y0, visibility=visibility)
        params = ProtocolParams(mu=mu, nu=nu_share * mu, u_alpha=0.0)
        row = expected_stats(link, params, length)
        try:
            s1_lower = analyze_row(params, row).s1_lower
        except AnalysisError:
            assume(False)
        lp_min = lp_min_single_photon_yield(mu, params.nu, row.s_mu, row.e_mu, row.s_nu)
        assert s1_lower <= lp_min * (1.0 + 1e-9)


# One row per abort cause, in the chain's check order, then rows that yield
# bounds; each entry is (params, [(s_mu, e_mu, s_nu), ...]).
ABORT_CASES = [
    (ProtocolParams(), [(1e-3, 0.01, 0.0),                # s_nu <= 0
                        (1e-3, 0.01, 1e-8),               # corrected floor <= 0
                        (1e-3, 0.3, 3e-4),                # yield bound <= 0
                        (8.6e-4, 0.06, 2.9e-4),           # QBER bound > 1
                        (8.6e-4, 0.04, 2.9e-4),           # bounds, not secure
                        (8.6e-4, 0.0103, 2.9e-4)]),       # bounds, secure
    (ProtocolParams(mu=0.3, nu=0.3), [(1e-3, 0.01, 3e-4)]),          # not 0 < nu < mu
    (ProtocolParams(mu=710.0, nu=0.2), [(1e-3, 0.01, 3e-4)]),        # e^mu overflows
    (ProtocolParams(mu=1e-3, nu=5e-310, u_alpha=0.0),                # subnormal nu:
     [(1e-3, 0.01, 3e-4)]),                                          # mu*nu - nu^2 is 0
    (ProtocolParams(mu=700.0, nu=0.2, u_alpha=0.0),                  # s1*mu*e^-mu
     [(0.0, 0.0, 1e-300)]),                                          # underflows
]

ABORT_MESSAGES = [
    (InsufficientStatisticsError, "decoy counting rate s_nu="),
    (InsufficientStatisticsError, "statistics insufficient: "),
    (AnalysisError, "two-intensity bounds require 0 < nu < mu"),
    (AnalysisError, "yield bound is not representable"),
    (NoSinglePhotonBoundError, "no single-photon bound: yield lower bound"),
    (NoSinglePhotonBoundError, "no single-photon bound: single-photon rate"),
    (NoSinglePhotonBoundError, "single-photon QBER bound"),
]


# Rows that fail several checks, with the cause of the first one.
FIRST_CAUSE_CASES = [
    (ProtocolParams(mu=0.3, nu=0.3), (1e-3, 0.01, 0.0), InsufficientStatisticsError,
     "decoy counting rate s_nu=0.0 must be > 0"),
    (ProtocolParams(mu=0.3, nu=0.3), (1e-3, 0.01, 1e-8), InsufficientStatisticsError,
     "statistics insufficient: 10.0 expected decoy clicks cannot support confidence "
     "multiplier u_alpha=10.0"),
    (ProtocolParams(mu=710.0, nu=0.2), (1e-3, 0.01, 1e-8), InsufficientStatisticsError,
     "statistics insufficient: 10.0 expected decoy clicks cannot support confidence "
     "multiplier u_alpha=10.0"),
    (ProtocolParams(mu=0.3, nu=0.0), (1e-3, 0.01, 3e-4), AnalysisError,
     "two-intensity bounds require 0 < nu < mu, got mu=0.3, nu=0.0"),
    # s1*mu*e^-mu also underflows, to -0.0
    (ProtocolParams(mu=700.0, nu=0.2, u_alpha=0.0), (1e-321, 0.0, 1e-300),
     NoSinglePhotonBoundError,
     "no single-photon bound: yield lower bound -4.13268e-24 is not positive"),
]


@st.composite
def chain_params(draw):
    """ProtocolParams across the chain's domain: mu above 709, subnormal and equal nu."""
    mu = draw(st.one_of(st.floats(0.0, 2.0), st.floats(700.0, 720.0), st.floats(0.0, 1e300)))
    nu = draw(st.one_of(st.floats(0.0, mu), st.floats(0.0, min(mu, 2.2e-308)), st.just(mu)))
    return ProtocolParams(mu=mu, nu=nu, q=draw(st.floats(0.0, 1.0, exclude_min=True)),
                          f_ec=draw(st.floats(1.0, 3.0)), u_alpha=draw(st.floats(0.0, 20.0)),
                          n_nu=draw(st.floats(1.0, 1e15)))


# Rates spread over decades, with the exact zero and subnormals.
CHAIN_RATE = st.one_of(st.floats(0.0, 1.0), st.floats(-12.0, 0.0).map(lambda x: 10.0**x),
                       st.just(0.0), st.floats(0.0, 1e-300))


def random_table(n=20_000):
    """(s_mu, e_mu, s_nu) rows over the decades the bundled table spans."""
    rng = np.random.default_rng(7)
    return np.column_stack([10.0 ** rng.uniform(-6, -2, n), rng.uniform(0.0, 0.1, n),
                            10.0 ** rng.uniform(-7, -2, n)])


class TestColumnChain:
    """analyze_columns on a table against analyze_row, its one-row call, on
    each of its rows: a batch gives each row the bits and the cause of that
    row's one-row call, so rounding that depends on a row's position in the
    batch (numpy's SIMD loops and their tails) shows."""

    @staticmethod
    def assert_rows_match(params, rows):
        s_mu, e_mu, s_nu = np.array(rows, dtype=float).reshape(-1, 3).T
        columns = analyze_columns(params, s_mu, e_mu, s_nu)
        assert len(columns.causes) == len(rows)
        for i, row in enumerate(rows):
            got = [getattr(columns, f)[i].item()
                   for f in ("s_nu_lower", "s1_lower", "e1_upper", "r_lower", "secure")]
            try:
                expected = analyze_row(params, MeasuredStats(0.0, *row, 0.0))
            except AnalysisError as exc:
                cause = columns.causes[i]
                assert (type(cause), str(cause)) == (type(exc), str(exc))
                assert all(math.isnan(v) for v in got[:4]) and got[4] is False
            else:
                assert columns.causes[i] is None
                # repr tells -0.0 from 0.0 and prints every bit of a float
                assert repr(got) == repr([expected.s_nu_lower, expected.s1_lower,
                                          expected.e1_upper, expected.r_lower,
                                          expected.secure])
                assert all(type(v) is float for v in vars(expected).values()
                           if not isinstance(v, bool))

    def test_cases_hit_every_abort_cause(self):
        raised = []
        for params, rows in ABORT_CASES:
            self.assert_rows_match(params, rows)
            for row in rows:
                try:
                    analyze_row(params, MeasuredStats(0.0, *row, 0.0))
                except AnalysisError as exc:
                    raised.append(exc)
        assert all(any(type(exc) is cls and str(exc).startswith(text) for exc in raised)
                   for cls, text in ABORT_MESSAGES)

    @pytest.mark.parametrize("params, row, error, message", FIRST_CAUSE_CASES)
    def test_row_failing_several_checks_reports_the_first(self, params, row, error, message):
        with pytest.raises(AnalysisError) as info:
            analyze_row(params, MeasuredStats(0.0, *row, 0.0))
        assert (type(info.value), str(info.value)) == (error, message)
        self.assert_rows_match(params, [row])

    def test_bit_identical_on_a_large_random_table(self, default_params):
        # numpy's SIMD log2 rounds differently from math.log2 on about one
        # row in a thousand, so a table this size shows an entropy that uses it.
        self.assert_rows_match(default_params, random_table().tolist())

    def test_bit_identical_to_a_straight_line_transcription(self, default_params):
        # The oracle rounds every operation as the chain does, in Python floats
        # and math.log2, so a change that moves a bound by an ulp (np.log2 for
        # the entropy, a reordered product) shows on some row of the table.
        p = default_params
        rows = random_table()
        columns = analyze_columns(p, *rows.T)
        checked = 0
        for i, row in enumerate(rows.tolist()):
            expected = TestOracleEquivalence.straight_line_bounds(
                p.mu, p.nu, p.q, p.f_ec, p.u_alpha, p.n_nu, *row)
            if expected[3] is None:
                continue
            got = [getattr(columns, f)[i].item()
                   for f in ("s_nu_lower", "s1_lower", "e1_upper", "r_lower")]
            assert repr(got) == repr(list(expected))
            checked += 1
        assert checked > 9_000

    @given(chain_params(), st.lists(st.tuples(CHAIN_RATE, CHAIN_RATE, CHAIN_RATE),
                                    max_size=40))
    def test_columns_equal_analyze_row(self, params, rows):
        self.assert_rows_match(params, rows)

    @given(st.sampled_from(ABORT_CASES),
           st.lists(st.tuples(CHAIN_RATE, CHAIN_RATE, CHAIN_RATE), max_size=20))
    def test_abort_rows_mixed_with_generated_rows(self, case, rows):
        params, abort_rows = case
        self.assert_rows_match(params, abort_rows + rows)

    def test_empty_columns(self, default_params):
        columns = analyze_columns(default_params, [], [], [])
        assert columns.causes == [] and columns.r_lower.shape == (0,)


# Values outside MeasuredStats' rate domain [0, 1]: negative, above 1, NaN, infinite.
OUTSIDE_RATE = st.one_of(st.floats(max_value=-5e-324), st.floats(min_value=1.0, exclude_min=True),
                         st.sampled_from([math.nan, math.inf, -math.inf]))


class TestColumnDomain:
    """analyze_columns takes three 1-d columns of one length with values in [0, 1]."""

    @given(chain_params(), st.lists(st.tuples(CHAIN_RATE, CHAIN_RATE, CHAIN_RATE), min_size=1,
                                    max_size=40),
           st.data(), OUTSIDE_RATE)
    def test_value_outside_the_domain_names_its_row(self, params, rows, data, value):
        row = data.draw(st.integers(0, len(rows) - 1))
        column = data.draw(st.integers(0, 2))
        table = np.array(rows, dtype=float).reshape(-1, 3)
        table[row, column] = value
        name = ("s_mu", "e_mu", "s_nu")[column]
        with pytest.raises(ValueError) as info:
            analyze_columns(params, *table.T)
        assert str(info.value) == f"row {row}: {name}={value} must be in [0, 1]"

    @pytest.mark.parametrize("s_mu, e_mu, s_nu", [
        ([1e-3, 1e-3], [0.01], [5e-4, 5e-4]),
        ([1e-3], [0.01], []),
        ([[1e-3]], [[0.01]], [[5e-4]]),
        (1e-3, 0.01, 5e-4),
    ], ids=["unequal-lengths", "one-empty", "2-d", "0-d"])
    def test_columns_must_be_1d_and_of_one_length(self, default_params, s_mu, e_mu, s_nu):
        with pytest.raises(ValueError, match="1-d columns of one length"):
            analyze_columns(default_params, s_mu, e_mu, s_nu)
