"""Security-bound math against frozen values and algebraic properties."""
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decoyqkd import (
    AnalysisError,
    InsufficientStatisticsError,
    MeasuredStats,
    NoSinglePhotonBoundError,
    ProtocolParams,
    SecurityBounds,
    analyze_row,
    binary_entropy,
    e1_upper_bound,
    key_rate,
    s1_lower_bound,
    s_nu_lower,
)

from conftest import REFERENCE_BOUNDS


def row_123(reference_table):
    return next(r for r in reference_table if r.length_km == 123.6)


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


class TestDecoyRateFloor:
    def test_reference_row_correction(self):
        # 1.36e-5 * (1 - 10/sqrt(1e9 * 1.36e-5)), frozen
        assert s_nu_lower(1.36e-5, 1e9, 10.0) == pytest.approx(1.2434e-5, abs=1e-9)
        assert s_nu_lower(1.36e-5, 1e9, 10.0) == pytest.approx(1.243380962103094e-05, rel=1e-12)

    def test_zero_confidence_is_identity(self):
        assert s_nu_lower(3.3e-4, 1e6, 0.0) == 3.3e-4

    def test_insufficient_statistics(self):
        # one expected decoy click cannot support u_alpha = 10
        with pytest.raises(InsufficientStatisticsError):
            s_nu_lower(1e-6, 1e6, 10.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(InsufficientStatisticsError):
            s_nu_lower(0.0, 1e9, 10.0)

    def test_never_exceeds_input_rate(self):
        rng = random.Random(1)
        for _ in range(200):
            s = 10 ** rng.uniform(-6, -2)
            u = rng.uniform(0, 5)
            try:
                assert s_nu_lower(s, 1e9, u) <= s
            except InsufficientStatisticsError:
                pass


class TestYieldBound:
    @pytest.mark.parametrize("length,expected", [(123.6, 3.78e-5), (108.0, 8.09e-5)])
    def test_reference_rows(self, reference_table, default_params, length, expected):
        stats = next(r for r in reference_table if r.length_km == length)
        assert s1_lower_bound(default_params, stats) == pytest.approx(expected, rel=0.02)

    def test_corrected_cell(self, reference_table, default_params):
        # the reference table's printed 1.69e-5 is inconsistent with the row's own QBER
        # bound; direct recomputation gives 1.69e-4
        stats = next(r for r in reference_table if r.length_km == 83.7)
        assert s1_lower_bound(default_params, stats) == pytest.approx(1.69e-4, rel=0.02)

    def test_degenerate_intensities_rejected(self, reference_table):
        params = ProtocolParams(mu=0.6, nu=0.6)
        with pytest.raises(ValueError):
            s1_lower_bound(params, row_123(reference_table))


class TestQberBound:
    def test_longest_row(self, reference_table, default_params):
        stats = row_123(reference_table)
        s1 = s1_lower_bound(default_params, stats)
        assert e1_upper_bound(default_params, stats, s1) == pytest.approx(0.0607, rel=0.02)

    def test_shortest_row(self, reference_table, default_params):
        stats = next(r for r in reference_table if r.length_km == 49.2)
        s1 = s1_lower_bound(default_params, stats)
        assert s1 == pytest.approx(1.09e-3, rel=0.02)
        assert e1_upper_bound(default_params, stats, s1) == pytest.approx(0.0247, rel=0.02)

    def test_zero_observed_error(self, default_params):
        stats = MeasuredStats(10.0, 1e-3, 0.0, 3.4e-4, 0.0)
        s1 = s1_lower_bound(default_params, stats)
        assert e1_upper_bound(default_params, stats, s1) == 0.0

    def test_nonpositive_yield_rejected(self, reference_table, default_params):
        with pytest.raises(NoSinglePhotonBoundError):
            e1_upper_bound(default_params, row_123(reference_table), 0.0)
        with pytest.raises(NoSinglePhotonBoundError):
            e1_upper_bound(default_params, row_123(reference_table), -1e-6)


class TestKeyRate:
    @pytest.mark.parametrize("length,expected", [(123.6, 9.59e-7), (49.2, 1.06e-4)])
    def test_reference_rows(self, reference_table, default_params, length, expected):
        stats = next(r for r in reference_table if r.length_km == length)
        s1 = s1_lower_bound(default_params, stats)
        e1 = e1_upper_bound(default_params, stats, s1)
        assert key_rate(default_params, stats, s1, e1) == pytest.approx(expected, rel=0.03)

    def test_error_correction_cost_only(self, reference_table, default_params):
        # zero yield leaves only the negative error-correction term
        stats = row_123(reference_table)
        assert key_rate(default_params, stats, 0.0, 0.0) < 0

    def test_qber_bound_domain(self, reference_table, default_params):
        with pytest.raises(ValueError):
            key_rate(default_params, row_123(reference_table), 1e-4, 1.2)


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

    def test_inverted_rates_flagged_not_rejected(self):
        stats = MeasuredStats(10.0, 1e-5, 0.01, 3e-5, 0.01)
        assert stats.warnings()
        assert not MeasuredStats(10.0, 3e-5, 0.01, 1e-5, 0.01).warnings()

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
        return s1_lower_bound(params, stats)
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
