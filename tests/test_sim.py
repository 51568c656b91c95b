"""Monte Carlo session: statistics, determinism, serialization, soundness."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2, chi2_contingency

from decoyqkd import (
    LinkModel,
    ProtocolParams,
    SecurityBounds,
    SimConfig,
    SimTally,
    analyze_row,
    click_probability,
    expected_gain,
    expected_qber,
    run_session,
    soundness_report,
    transmittance,
)
from decoyqkd import sim
from decoyqkd.estimator import InsufficientStatisticsError
from decoyqkd.link import photon_click_probability
from decoyqkd.sim import (
    ClassTally,
    measured_stats,
    session_params,
    tally_from_text,
    tally_to_text,
)

from reference_sampler import pulse_records, simulate_arrays

LUMPED_L0 = LinkModel(alpha_db_per_km=0.0, excess_loss_db=0.0, eta_det=1.0,
                      y0=5e-7, visibility=0.99)


def binomial_sigma(p, n):
    return math.sqrt(p * (1.0 - p) / n)


def reference_tally(config, n_pulses):
    """Tally of the pulse-by-pulse reference sampler."""
    arrays = simulate_arrays(config, n_pulses)
    flags = (arrays["clicked"], arrays["sifted"], arrays["error"])

    def counts(mask):
        return ClassTally(int(np.count_nonzero(mask)),
                          *(int(np.count_nonzero(flag & mask)) for flag in flags))

    signal, photons = ~arrays["is_decoy"], arrays["photons"]
    bins = [photons == 0, photons == 1, photons == 2, photons >= 3]
    return SimTally(signal=counts(signal), decoy=counts(arrays["is_decoy"]),
                    signal_photons=tuple(counts(signal & b) for b in bins))


@pytest.fixture(scope="module")
def fitted_session(fitted_model, default_params):
    config = SimConfig(n_pulses=10_000_000, link=fitted_model, params=default_params,
                       seed=11, length_km=49.2)
    return config, *run_session(config)


class TestSessionStatistics:
    def test_no_light_no_darks_no_clicks(self):
        model = LinkModel(excess_loss_db=0.0, y0=0.0)
        params = ProtocolParams(mu=0.0, nu=0.0)
        config = SimConfig(n_pulses=20_000, link=model, params=params, seed=1)
        tally, stats = run_session(config)
        assert tally.signal.clicked == 0
        assert tally.decoy.clicked == 0
        assert stats.s_mu == 0.0 and stats.s_nu == 0.0

    def test_gain_matches_model_at_strong_signal(self, default_params):
        config = SimConfig(n_pulses=1_000_000, link=LUMPED_L0, params=default_params,
                           seed=2)
        tally, stats = run_session(config)
        expected = expected_gain(LUMPED_L0, 0.6)
        sigma = binomial_sigma(expected, tally.signal.emitted)
        assert abs(stats.s_mu - expected) < 3 * sigma

    def test_qber_matches_model_on_fitted_link(self, fitted_session, fitted_model):
        config, tally, stats = fitted_session
        expected = expected_qber(fitted_model, 0.6, 49.2)
        sigma = binomial_sigma(expected, tally.signal.sifted)
        assert abs(stats.e_mu - expected) < 3 * sigma

    def test_decoy_rates_match_model(self, fitted_session, fitted_model):
        config, tally, stats = fitted_session
        expected = expected_gain(fitted_model, 0.2, 49.2)
        sigma = binomial_sigma(expected, tally.decoy.emitted)
        assert abs(stats.s_nu - expected) < 3 * sigma

    def test_sifting_keeps_half_the_clicks(self, fitted_session):
        _, tally, _ = fitted_session
        clicked = tally.signal.clicked + tally.decoy.clicked
        sifted = tally.signal.sifted + tally.decoy.sifted
        assert abs(sifted / clicked - 0.5) < 3 * binomial_sigma(0.5, clicked)

    def test_photon_number_attribution_is_poissonian(self, default_params):
        # ~1e6 signal samples
        config = SimConfig(n_pulses=2_000_000, link=LUMPED_L0, params=default_params,
                           seed=3)
        tally, _ = run_session(config)
        n_signal = tally.signal.emitted
        mu = default_params.mu
        pmf = [math.exp(-mu) * mu**n / math.factorial(n) for n in range(3)]
        pmf.append(1.0 - sum(pmf))
        for bin_tally, p in zip(tally.signal_photons, pmf):
            sigma = binomial_sigma(p, n_signal)
            assert abs(bin_tally.emitted / n_signal - p) < 3 * sigma

    def test_dark_count_floor_gives_random_bits(self):
        model = LinkModel(excess_loss_db=0.0, y0=1e-3)
        params = ProtocolParams(mu=0.0, nu=0.0)
        config = SimConfig(n_pulses=1_000_000, link=model, params=params, seed=4)
        tally, stats = run_session(config)
        for cls, qber in ((tally.signal, stats.e_mu), (tally.decoy, stats.e_nu)):
            assert cls.sifted > 100
            assert abs(qber - 0.5) < 3 * binomial_sigma(0.5, cls.sifted)

    def test_vacuum_pulses_click_at_dark_rate_only(self, default_params):
        config = SimConfig(n_pulses=1_000_000, link=LUMPED_L0, params=default_params,
                           seed=5)
        tally, _ = run_session(config)
        vacuum = tally.signal_photons[0]
        sigma = binomial_sigma(LUMPED_L0.y0, vacuum.emitted)
        assert abs(vacuum.clicked / vacuum.emitted - LUMPED_L0.y0) < 4 * sigma

    def test_poisson_mixture_equals_aggregate_click_law(self):
        # the per-photon-number click law the simulator draws with must
        # average back to the coherent-state click probability under the
        # Poisson mixture; the identity is exact
        model = LinkModel(alpha_db_per_km=0.2, excess_loss_db=10.0, eta_det=0.6,
                          y0=5e-7, visibility=0.99)
        photons = np.arange(80)
        for length in (0.0, 25.0):
            eta = transmittance(model, length)
            for mu in (0.05, 0.2, 0.6, 5.0):
                weights = np.array([math.exp(-mu) * mu**n / math.factorial(n)
                                    for n in range(photons.size)])
                for phase in (0.0, math.pi / 2, math.pi):
                    per_n = photon_click_probability(eta, model.visibility, model.y0,
                                                     photons, phase)
                    mixture = float(np.sum(weights * per_n))
                    direct = click_probability(model, mu, phase, length)
                    assert mixture == pytest.approx(direct, rel=1e-9)


class TestDeterminismAndMerging:
    def test_identical_seeds_identical_tallies(self, fitted_model, default_params):
        config = SimConfig(n_pulses=200_000, link=fitted_model, params=default_params,
                           seed=42, length_km=49.2)
        tally_a, stats_a = run_session(config)
        tally_b, stats_b = run_session(config)
        assert tally_a == tally_b
        assert stats_a == stats_b
        assert tally_to_text(tally_a) == tally_to_text(tally_b)

    def test_serialization_round_trip(self, fitted_model, default_params):
        config = SimConfig(n_pulses=50_000, link=fitted_model, params=default_params,
                           seed=47, length_km=49.2)
        tally, _ = run_session(config)
        assert tally_from_text(tally_to_text(tally)) == tally

    def test_serialization_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            tally_from_text("signal.emitted 5\n")


class TestPulseRecords:
    def test_records_respect_basis_and_bit_rules(self, default_params):
        config = SimConfig(n_pulses=4000, link=LUMPED_L0, params=default_params, seed=6)
        for record in pulse_records(config):
            diff = (record.alice_phase - record.bob_phase) % math.pi
            assert record.basis_matched == (min(diff, math.pi - diff) < 1e-12)
            if record.bit_error:
                assert record.clicked and record.basis_matched
                alice_bit = 0 if record.alice_phase in (0.0, math.pi / 2) else 1
                bob_bit = 0 if record.bob_phase in (0.0, math.pi / 2) else 1
                assert alice_bit != bob_bit

    def test_records_agree_with_tally(self, default_params):
        config = SimConfig(n_pulses=4000, link=LUMPED_L0, params=default_params, seed=7)
        records = pulse_records(config)
        tally = reference_tally(config, 4000)
        signal = [r for r in records if r.intensity_class == "signal"]
        assert len(signal) == tally.signal.emitted
        assert sum(r.clicked for r in signal) == tally.signal.clicked
        assert sum(r.bit_error for r in signal) == tally.signal.errors
        singles = [r for r in signal if r.photon_count == 1]
        assert sum(r.clicked for r in singles) == tally.signal_photons[1].clicked


class TestSoundness:
    def test_bounds_hold_across_seeds(self, fitted_model, default_params):
        violations = 0
        produced = 0
        for seed in range(10):
            config = SimConfig(n_pulses=10_000_000, link=fitted_model,
                               params=default_params, seed=seed, length_km=49.2)
            tally, stats = run_session(config)
            bounds = analyze_row(session_params(default_params, tally), stats)
            produced += 1
            report = soundness_report(tally, bounds, default_params)
            assert report.true_e1 is not None
            if not report.sound:
                violations += 1
        assert produced == 10
        assert violations == 0

    def test_asymptotic_bound_is_not_tight(self, fitted_model):
        # with no statistical penalty the yield bound still undershoots truth
        params = ProtocolParams(u_alpha=0.0)
        config = SimConfig(n_pulses=100_000_000, link=fitted_model, params=params,
                           seed=99, length_km=49.2)
        tally, stats = run_session(config)
        bounds = analyze_row(session_params(params, tally), stats)
        report = soundness_report(tally, bounds, params)
        assert report.s1_ok
        assert report.true_s1 > bounds.s1_lower * 1.2

    def test_zero_click_session_propagates_insufficiency(self, default_params):
        model = LinkModel(excess_loss_db=0.0, y0=0.0)
        params = ProtocolParams(mu=0.0, nu=0.0)
        config = SimConfig(n_pulses=10_000, link=model, params=params, seed=8)
        tally, stats = run_session(config)
        assert tally.signal.clicked + tally.decoy.clicked == 0
        with pytest.raises(InsufficientStatisticsError):
            analyze_row(session_params(default_params, tally), stats)

    def test_missing_single_photon_clicks_marked_unavailable(self):
        tally = SimTally(
            signal=ClassTally(emitted=100, clicked=4, sifted=2, errors=0),
            decoy=ClassTally(emitted=100, clicked=3, sifted=1, errors=0),
            signal_photons=(ClassTally(emitted=55, clicked=2, sifted=2, errors=0),
                            ClassTally(emitted=33, clicked=2, sifted=0, errors=0),
                            ClassTally(emitted=10, clicked=0, sifted=0, errors=0),
                            ClassTally(emitted=2, clicked=0, sifted=0, errors=0)),
        )
        bounds = SecurityBounds(1e-3, 1e-3, 0.1, 1e-5, True)
        report = soundness_report(tally, bounds, ProtocolParams())
        assert report.true_e1 is None
        assert report.e1_ok is None
        assert report.sound == report.s1_ok

    def test_report_scaling_convention(self, fitted_session, default_params):
        # true_s1 is per single-photon pulse: per-emitted rate divided by
        # the Poisson weight mu * e^-mu
        _, tally, stats = fitted_session
        bounds = analyze_row(session_params(default_params, tally), stats)
        report = soundness_report(tally, bounds, default_params)
        weight = default_params.mu * math.exp(-default_params.mu)
        per_emitted = tally.signal_photons[1].clicked / tally.signal.emitted
        assert report.true_s1 == pytest.approx(per_emitted / weight, rel=1e-12)


class TestConfigValidation:
    def test_pulse_count(self, default_params):
        with pytest.raises(ValueError):
            SimConfig(n_pulses=0, link=LUMPED_L0, params=default_params)

    def test_decoy_fraction_domain(self, default_params):
        with pytest.raises(ValueError):
            SimConfig(n_pulses=10, link=LUMPED_L0, params=default_params,
                      decoy_fraction=0.0)
        with pytest.raises(ValueError):
            SimConfig(n_pulses=10, link=LUMPED_L0, params=default_params,
                      decoy_fraction=1.0)

    def test_session_params_uses_emitted_budgets(self, fitted_session, default_params):
        _, tally, _ = fitted_session
        adjusted = session_params(default_params, tally)
        assert adjusted.n_mu == tally.signal.emitted
        assert adjusted.n_nu == tally.decoy.emitted

    def test_tally_invariants_enforced(self):
        with pytest.raises(ValueError):
            ClassTally(emitted=10, clicked=11, sifted=0, errors=0)
        with pytest.raises(ValueError):
            ClassTally(emitted=10, clicked=5, sifted=6, errors=0)
        with pytest.raises(ValueError):
            SimTally(signal=ClassTally(emitted=5), decoy=ClassTally(),
                     signal_photons=(ClassTally(),) * 4)


# Bright enough that every pulse outcome below is seen many times per session.
AGREEMENT_LINK = LinkModel(alpha_db_per_km=0.0, excess_loss_db=3.0, eta_det=0.5,
                           y0=0.02, visibility=0.9)


def outcome_counts(tally):
    """The 20 mutually exclusive pulse outcomes the 24 tally counts resolve.

    Per signal photon bin and for the decoy class: no click, unsifted
    click, sifted correct click, sifted error. Pulses are i.i.d., so a
    session's outcome counts are multinomial over these cells.
    """
    counts = []
    for c in (*tally.signal_photons, tally.decoy):
        counts += [c.emitted - c.clicked, c.clicked - c.sifted, c.sifted - c.errors, c.errors]
    return counts


class TestSamplerAgreement:
    """The count-level run_session against the pulse-by-pulse reference sampler."""

    @pytest.mark.parametrize("mu, nu, phase_error, cutoff", [
        (0.6, 0.2, 0.0, None),
        (5.0, 1.0, 0.1, None),
        # A cutoff of 4 sends most signal pulses (mean 5) through the tail cell.
        (5.0, 1.0, 0.1, 4),
    ])
    def test_outcome_counts_agree(self, monkeypatch, mu, nu, phase_error, cutoff):
        if cutoff is not None:
            monkeypatch.setattr(sim, "_photon_cutoff", lambda mean: cutoff)
        n_pulses, seeds = 100_000, range(40)
        configs = [SimConfig(n_pulses=n_pulses, link=AGREEMENT_LINK,
                             params=ProtocolParams(mu=mu, nu=nu), seed=seed,
                             bob_phase_error=phase_error) for seed in seeds]
        counts = np.array([
            [outcome_counts(run_session(config)[0]) for config in configs],
            [outcome_counts(reference_tally(config, n_pulses)) for config in configs],
        ])
        # Same outcome law: 2 x 20 homogeneity test on the pooled counts.
        totals = counts.sum(axis=1)
        assert chi2_contingency(totals).pvalue > 1e-4
        # Same spread: each session against the pooled outcome law.
        expected = n_pulses * totals.sum(axis=0) / totals.sum()
        dof = len(seeds) * (expected.size - 1)
        for sampler in counts:
            dispersion = float(((sampler - expected) ** 2 / expected).sum())
            assert 1e-4 < chi2.cdf(dispersion, dof) < 1 - 1e-4


@st.composite
def sim_configs(draw):
    """Any valid session: mu up to 200, any visibility, darks, phase error and split."""
    unit = st.floats(0.0, 1.0)
    mu = draw(st.floats(0.0, 200.0))
    link = LinkModel(alpha_db_per_km=draw(st.floats(0.0, 1.0)),
                     excess_loss_db=draw(st.floats(-10.0, 60.0)),
                     eta_det=draw(unit), y0=draw(unit), visibility=draw(unit))
    return SimConfig(n_pulses=draw(st.integers(1, 10**12)), link=link,
                     params=ProtocolParams(mu=mu, nu=draw(st.floats(0.0, mu))),
                     decoy_fraction=draw(st.floats(0.0, 1.0, exclude_min=True,
                                                   exclude_max=True)),
                     seed=draw(st.integers(0, 2**32)),
                     length_km=draw(st.floats(0.0, 300.0)),
                     bob_phase_error=draw(st.floats(-10.0, 10.0)))


class TestSessionProperties:
    @given(sim_configs())
    def test_tally_invariants(self, config):
        tally, _ = run_session(config)
        assert tally.signal.emitted + tally.decoy.emitted == config.n_pulses
        for field in ("emitted", "clicked", "sifted", "errors"):
            assert (sum(getattr(b, field) for b in tally.signal_photons)
                    == getattr(tally.signal, field))
        for c in (tally.signal, tally.decoy, *tally.signal_photons):
            assert 0 <= c.errors <= c.sifted <= c.clicked <= c.emitted

    @given(sim_configs())
    def test_text_round_trip_is_exact(self, config):
        tally, _ = run_session(config)
        assert tally_from_text(tally_to_text(tally)) == tally
