"""Monte Carlo session: statistics, determinism, serialization, soundness."""
import math
from dataclasses import replace

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
    expected_stats,
    run_session,
    soundness_report,
    transmittance,
)
from decoyqkd import sim
from decoyqkd.cli import COUNT_KEYS, TALLY_SECTIONS
from decoyqkd.estimator import InsufficientStatisticsError
from decoyqkd.link import PHASE_GRID, photon_click_probability
from decoyqkd.sim import (
    ClassTally,
    measured_stats,
    session_params,
)
from decoyqkd.tables import key_value_lines

from conftest import model_click
from reference_sampler import pulse_records, simulate_arrays

LUMPED_L0 = LinkModel(alpha_db_per_km=0.0, excess_loss_db=0.0, eta_det=1.0,
                      y0=5e-7, visibility=0.99)


def tally_lines(tally):
    """A tally's <section>.<count> lines as simulate writes them."""
    counts = (tally.signal, tally.decoy, *tally.signal_photons)
    return [line for section, tallied in zip(TALLY_SECTIONS, counts)
            for line in key_value_lines(f"{section}.", tallied, COUNT_KEYS)]


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
        expected = expected_stats(LUMPED_L0, default_params, 0.0).s_mu
        sigma = binomial_sigma(expected, tally.signal.emitted)
        assert abs(stats.s_mu - expected) < 3 * sigma

    def test_qber_matches_model_on_fitted_link(self, fitted_session, fitted_model):
        config, tally, stats = fitted_session
        expected = expected_stats(fitted_model, config.params, 49.2).e_mu
        sigma = binomial_sigma(expected, tally.signal.sifted)
        assert abs(stats.e_mu - expected) < 3 * sigma

    def test_decoy_rates_match_model(self, fitted_session, fitted_model):
        config, tally, stats = fitted_session
        expected = expected_stats(fitted_model, config.params, 49.2).s_nu
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
                    direct = model_click(model, mu, phase, length)
                    assert mixture == pytest.approx(direct, rel=1e-9)


class TestDeterminismAndMerging:
    def test_identical_seeds_identical_tallies(self, fitted_model, default_params):
        config = SimConfig(n_pulses=200_000, link=fitted_model, params=default_params,
                           seed=42, length_km=49.2)
        tally_a, stats_a = run_session(config)
        tally_b, stats_b = run_session(config)
        assert tally_a == tally_b
        assert stats_a == stats_b
        assert tally_lines(tally_a) == tally_lines(tally_b)

    def test_serialization_round_trip(self, fitted_model, default_params):
        config = SimConfig(n_pulses=50_000, link=fitted_model, params=default_params,
                           seed=47, length_km=49.2)
        tally, _ = run_session(config)
        values = dict(line.split("=") for line in tally_lines(tally))
        sections = {"signal": tally.signal, "decoy": tally.decoy,
                    **dict(zip(("photons0", "photons1", "photons2", "photons3plus"),
                               tally.signal_photons))}
        assert values == {f"{name}.{field}": str(getattr(counts, field))
                          for name, counts in sections.items()
                          for field in ("emitted", "clicked", "sifted", "errors")}


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
        assert report.e1_slack is None
        assert report.sound == report.s1_ok

    def test_slack_without_single_photon_clicks(self):
        tally = SimTally(
            signal=ClassTally(emitted=100, clicked=2, sifted=1, errors=0),
            decoy=ClassTally(emitted=100, clicked=3, sifted=1, errors=0),
            signal_photons=(ClassTally(emitted=55, clicked=2, sifted=1, errors=0),
                            ClassTally(emitted=33),
                            ClassTally(emitted=10), ClassTally(emitted=2)),
        )
        bounds = SecurityBounds(1e-3, 1e-3, 0.1, 1e-5, True)
        report = soundness_report(tally, bounds, ProtocolParams())
        assert report.true_s1 == 0.0 and not report.s1_ok
        assert report.s1_slack == -math.inf

    def test_report_scaling_convention(self, fitted_session, default_params):
        # true_s1 is per single-photon pulse: per-emitted rate divided by
        # the Poisson weight mu * e^-mu
        _, tally, stats = fitted_session
        bounds = analyze_row(session_params(default_params, tally), stats)
        report = soundness_report(tally, bounds, default_params)
        weight = default_params.mu * math.exp(-default_params.mu)
        per_emitted = tally.signal_photons[1].clicked / tally.signal.emitted
        assert report.true_s1 == pytest.approx(per_emitted / weight, rel=1e-12)
        # the slacks are the margins of the bounds to that truth
        assert report.s1_slack == (report.true_s1 - bounds.s1_lower) / report.true_s1
        assert report.e1_slack == bounds.e1_upper - report.true_e1
        assert report.s1_slack > 0 and report.e1_slack > 0


class TestConfigValidation:
    def test_pulse_count(self, default_params):
        with pytest.raises(ValueError):
            SimConfig(n_pulses=0, link=LUMPED_L0, params=default_params)

    def test_pulse_count_above_int64(self, default_params):
        assert SimConfig(n_pulses=2**63 - 1, link=LUMPED_L0,
                         params=default_params).n_pulses == 2**63 - 1
        with pytest.raises(ValueError, match=r"n_pulses=9223372036854775808 must be in"):
            SimConfig(n_pulses=2**63, link=LUMPED_L0, params=default_params)

    def test_non_integral_pulse_count_rejected(self, default_params):
        # A fractional count would be truncated by the samplers.
        message = r"n_pulses=10.5 must be in \[1, 2\*\*63 - 1\] and whole"
        with pytest.raises(ValueError, match=message):
            SimConfig(n_pulses=10.5, link=LUMPED_L0, params=default_params)

    @pytest.mark.parametrize("seed", [1.5, 2.0, math.nan, -math.inf])
    def test_non_integer_seed_rejected_by_name(self, default_params, seed):
        with pytest.raises(ValueError, match=rf"^seed={seed!r} must be an integer$"):
            SimConfig(n_pulses=10, link=LUMPED_L0, params=default_params, seed=seed)

    def test_negative_and_numpy_integer_seeds(self, default_params):
        with pytest.raises(ValueError, match=r"^seed=-1 must be >= 0$"):
            SimConfig(n_pulses=10, link=LUMPED_L0, params=default_params, seed=np.int64(-1))
        config = SimConfig(n_pulses=1000, link=LUMPED_L0, params=default_params,
                           seed=np.int64(7))
        assert run_session(config) == run_session(replace(config, seed=7))

    def test_class_mean_limit(self, default_params):
        with pytest.raises(ValueError, match=r"mu=200.5 must be at most 200:"):
            SimConfig(n_pulses=10, link=LUMPED_L0, params=ProtocolParams(mu=200.5, nu=0.2))
        config = SimConfig(n_pulses=1_000_000, link=LUMPED_L0,
                           params=ProtocolParams(mu=200.0, nu=200.0), seed=1)
        tally, _ = run_session(config)
        assert tally.signal_photons[3].emitted == tally.signal.emitted

    def test_negative_length_rejected_at_construction(self, default_params):
        with pytest.raises(ValueError, match=r"^length_km=-1.0 must be finite and >= 0$"):
            SimConfig(n_pulses=10, link=LUMPED_L0, params=default_params, length_km=-1.0)
        assert SimConfig(n_pulses=10, link=LUMPED_L0, params=default_params,
                         length_km=-0.0).length_km == 0.0

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

    @pytest.mark.parametrize("mu, nu, phase_error, tail_cells", [
        (0.6, 0.2, 0.0, None),
        (5.0, 1.0, 0.1, None),
        # The last 4 cells of the signal law, n >= 3, carry most signal pulses (mean 5).
        (5.0, 1.0, 0.1, 4),
    ])
    def test_outcome_counts_agree(self, mu, nu, phase_error, tail_cells):
        if tail_cells is not None:
            cells, _ = sim._class_law(mu, transmittance(AGREEMENT_LINK, 0.0),
                                      AGREEMENT_LINK.visibility, AGREEMENT_LINK.y0,
                                      phase_error)
            below = math.fsum(math.exp(-mu) * mu**n / math.factorial(n) for n in range(3))
            assert cells[-tail_cells:].sum() == pytest.approx(1.0 - below, rel=1e-12)

        n_pulses, seeds = 100_000, range(40)
        configs = [SimConfig(n_pulses=n_pulses, link=AGREEMENT_LINK,
                             params=ProtocolParams(mu=mu, nu=nu), seed=seed,
                             bob_phase_error=phase_error) for seed in seeds]
        counts = np.array([
            [outcome_counts(run_session(config)[0]) for config in configs],
            [outcome_counts(reference_tally(config, n_pulses)) for config in configs],
        ])
        if tail_cells is not None:
            # The drawn sessions send most of their signal pulses through those
            # cells: outcomes 12 to 15 are the signal's n >= 3 bin.
            assert counts[0, :, 12:16].sum() > 0.5 * counts[0, :, :16].sum()
        # Same outcome law: 2 x 20 homogeneity test on the pooled counts.
        totals = counts.sum(axis=1)
        assert chi2_contingency(totals).pvalue > 1e-4
        # Same spread: each session against the pooled outcome law.
        expected = n_pulses * totals.sum(axis=0) / totals.sum()
        dof = len(seeds) * (expected.size - 1)
        for sampler in counts:
            dispersion = float(((sampler - expected) ** 2 / expected).sum())
            assert 1e-4 < chi2.cdf(dispersion, dof) < 1 - 1e-4


def tally_counts(tally):
    """The 24 counts of a tally in simulate's output order."""
    return [getattr(c, field) for c in (tally.signal, tally.decoy, *tally.signal_photons)
            for field in ("emitted", "clicked", "sifted", "errors")]


# The bundled table's fitted link when the counts below were recorded, written
# out so that a change to the fit cannot move them.
GOLDEN_LINK = LinkModel(alpha_db_per_km=0.16656173496628343,
                        excess_loss_db=18.308558025295838, eta_det=1.0, y0=5e-07,
                        visibility=0.9759208411378878)

# 1e7-pulse sessions at the bundled lengths, seeds 100 to 105.
GOLDEN_LENGTH_COUNTS = {
    123.6: [5000744, 181, 94, 1, 4999256, 90, 47, 2, 2747491, 2, 0, 0,
            1645461, 105, 50, 1, 492583, 51, 30, 0, 115209, 23, 14, 0],
    108.0: [5001849, 323, 174, 4, 4998151, 128, 65, 1, 2746527, 0, 0, 0,
            1646679, 177, 95, 4, 493131, 94, 52, 0, 115512, 52, 27, 0],
    97.0: [5001298, 551, 268, 4, 4998702, 192, 94, 1, 2745056, 1, 0, 0,
           1647425, 304, 147, 3, 493515, 173, 86, 0, 115302, 73, 35, 1],
    83.7: [4999342, 876, 412, 7, 5000658, 301, 161, 0, 2743313, 1, 0, 0,
           1646936, 507, 237, 1, 493585, 276, 127, 3, 115508, 92, 48, 3],
    62.1: [5000621, 2113, 1076, 11, 4999379, 669, 344, 6, 2745023, 1, 0, 0,
           1646567, 1125, 575, 7, 493568, 727, 379, 1, 115463, 260, 122, 3],
    49.2: [5000509, 3356, 1678, 25, 4999491, 1124, 599, 9, 2745499, 0, 0, 0,
           1645814, 1884, 924, 12, 493522, 1074, 540, 9, 115674, 398, 214, 4],
}

# (config, tally counts), recorded when a class became one 16-cell multinomial.
GOLDEN_SESSIONS = [
    *(pytest.param(SimConfig(n_pulses=10_000_000, link=GOLDEN_LINK, params=ProtocolParams(),
                             seed=100 + i, length_km=length), counts, id=f"{length}km")
      for i, (length, counts) in enumerate(GOLDEN_LENGTH_COUNTS.items())),
    pytest.param(SimConfig(n_pulses=2_000_000_000, link=GOLDEN_LINK, params=ProtocolParams(),
                           seed=7, length_km=123.6),
                 [1000003427, 39651, 19632, 366, 999996573, 13280, 6539, 220,
                  548795385, 276, 142, 63, 329313837, 21555, 10638, 177,
                  98776549, 12967, 6431, 99, 23117656, 4853, 2421, 27],
                 id="2e9 pulses at 123.6km"),
    # Most signal pulses (mean 5) go through the n >= 3 cells.
    pytest.param(SimConfig(n_pulses=100_000, link=AGREEMENT_LINK,
                           params=ProtocolParams(mu=5.0, nu=1.0), seed=3,
                           bob_phase_error=0.1),
                 [50042, 21529, 9644, 986, 49958, 6650, 3224, 414, 356, 6, 2, 1,
                  1640, 241, 120, 13, 4185, 990, 464, 52, 43861, 20292, 9058, 920],
                 id="tail cell"),
    pytest.param(SimConfig(n_pulses=10_000_000, link=GOLDEN_LINK,
                           params=ProtocolParams(mu=0.6, nu=0.0), seed=9, length_km=49.2),
                 [4999535, 3321, 1646, 24, 5000465, 4, 1, 1, 2744266, 2, 0, 0,
                  1645574, 1810, 917, 16, 493990, 1106, 533, 4, 115705, 403, 196, 4],
                 id="nu=0"),
]


class TestGoldenTallies:
    """Seeded sessions keep their exact counts: the determinism contract of sim."""

    @pytest.mark.parametrize("config, counts", GOLDEN_SESSIONS)
    def test_counts_are_pinned(self, config, counts):
        assert tally_counts(run_session(config)[0]) == counts


link_states = {"eta": st.floats(0.0, 1.0), "visibility": st.floats(0.0, 1.0),
               "y0": st.floats(0.0, 1.0), "bob_phase_error": st.floats(-10.0, 10.0)}


class TestSharedTables:
    """The per-class law every session of that mean and link state shares."""

    @given(**link_states, mean=st.floats(0.0, 200.0))
    def test_cached_arrays_are_read_only(self, eta, visibility, y0, bob_phase_error, mean):
        for array in sim._class_law(mean, eta, visibility, y0, bob_phase_error):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    # P(n >= 3) is 0.875 of a mean-5 class, 0.023 of a mean-0.6 one.
    @pytest.mark.parametrize("mean", [5.0, 0.6, 20.0])
    def test_tail_row_is_the_poisson_weighted_click_mean(self, mean):
        eta, visibility, y0, phase_error = 0.05, 0.9, 0.02, 0.1
        cells, clicks = sim._class_law(mean, eta, visibility, y0, phase_error)
        assert cells.shape == (16,) and clicks.shape == (4, 4)
        tail = range(3, math.ceil(mean + 24.0 * math.sqrt(mean)) + 48)
        weights = [math.exp(n * math.log(mean) - mean - math.lgamma(n + 1.0)) for n in tail]
        assert cells[12:].tolist() == pytest.approx([math.fsum(weights) / 4.0] * 4, rel=1e-14)
        for d, phase in enumerate(PHASE_GRID):
            for n in range(3):
                assert clicks[n, d] == pytest.approx(photon_click_probability(
                    eta, visibility, y0, n, phase + phase_error), rel=1e-14)
            expected = math.fsum(
                w * photon_click_probability(eta, visibility, y0, n, phase + phase_error)
                for w, n in zip(weights, tail)) / math.fsum(weights)
            assert clicks[3, d] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("mean", [0.2, 0.6, 5.0, 20.0, 200.0])
    def test_last_cell_is_what_the_multinomial_draws_with(self, mean):
        # numpy's multinomial gives the last cell one minus the running sum of
        # the others, so any rounding deficit of the cells lands on it.
        cells, _ = sim._class_law(mean, 0.05, 0.9, 0.02, 0.0)
        remaining = 1.0
        for p in cells[:-1].tolist():
            remaining -= p
        assert remaining == pytest.approx(cells[-1], rel=1e-12)

    def test_tail_clicks_are_certain_at_full_dark_rate(self, default_params):
        # Every photon number clicks with probability 1 at y0 = 1; the n >= 3
        # weighted mean of those ones rounds above 1 at mean 0.6 unless clipped.
        model = LinkModel(y0=1.0)
        eta = transmittance(model, 49.2)
        _, clicks = sim._class_law(default_params.mu, eta, model.visibility, 1.0, 0.0)
        assert clicks[-1].tolist() == [1.0] * 4
        config = SimConfig(n_pulses=10_000, link=model, params=default_params, seed=1,
                           length_km=49.2)
        tally, _ = run_session(config)
        assert tally.signal.clicked == tally.signal.emitted
        assert tally.decoy.clicked == tally.decoy.emitted


@st.composite
def sim_configs(draw):
    """Any valid session: mu up to 200, any visibility, darks, phase error and split."""
    unit = st.floats(0.0, 1.0)
    mu = draw(st.floats(0.0, 200.0))
    link = LinkModel(alpha_db_per_km=draw(st.floats(0.0, 1.0)),
                     excess_loss_db=draw(st.floats(0.0, 60.0)),
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
        sections = {"signal": tally.signal, "decoy": tally.decoy,
                    **dict(zip(("photons0", "photons1", "photons2", "photons3plus"),
                               tally.signal_photons))}
        expected = [f"{name}.{field}={getattr(counts, field)}"
                    for name, counts in sections.items()
                    for field in ("emitted", "clicked", "sifted", "errors")]
        assert len(expected) == 24
        assert tally_lines(tally) == expected
