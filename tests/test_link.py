"""Link model, fit and key-rate sweep."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from decoyqkd import (
    AnalysisError,
    FitConvergenceError,
    LinkModel,
    ProtocolParams,
    UnidentifiableDataError,
    analyze_row,
    expected_stats,
    fit_link,
    sweep_key_rate,
    transmittance,
)
from decoyqkd import link
from decoyqkd.link import (coherent_click_probability, fit_objective,
                           photon_click_probability)

import reference_law
from conftest import assert_same_bits, model_click, not_converged, scipy_refinement


class TestTransmittance:
    def test_lossless_zero_length(self):
        model = LinkModel(alpha_db_per_km=0.2, excess_loss_db=0.0, eta_det=1.0)
        assert transmittance(model, 0.0) == 1.0

    def test_ten_db_is_factor_ten(self):
        model = LinkModel(alpha_db_per_km=0.2, excess_loss_db=0.0, eta_det=1.0)
        assert transmittance(model, 50.0) == pytest.approx(0.1, rel=1e-12)

    def test_direct_evaluation(self):
        model = LinkModel(alpha_db_per_km=0.2, excess_loss_db=3.0, eta_det=0.1)
        assert transmittance(model, 100.0) == pytest.approx(5.01e-4, abs=1e-6)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            transmittance(LinkModel(), -1.0)

    @pytest.mark.parametrize("length", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_length_rejected(self, length):
        with pytest.raises(ValueError, match=r"must be finite and >= 0"):
            transmittance(LinkModel(), length)


class TestClickProbability:
    def test_no_light_no_darks(self):
        model = LinkModel(excess_loss_db=0.0, y0=0.0)
        assert model_click(model, 0.0, 0.0) == 0.0

    def test_perfect_destructive_interference(self):
        model = LinkModel(excess_loss_db=0.0, y0=0.0, visibility=1.0)
        for mean in (0.1, 1.0, 100.0):
            assert model_click(model, mean, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        model = LinkModel(alpha_db_per_km=0.0, excess_loss_db=0.0, eta_det=1.0,
                          y0=5e-7, visibility=0.99)
        # 1 - (1 - 5e-7) * exp(-0.01 * 1.99 / 2), frozen
        assert model_click(model, 0.01, 0.0) == pytest.approx(9.901e-3, abs=1e-5)

    def test_monotone_in_intensity(self):
        model = LinkModel(excess_loss_db=10.0, y0=5e-7)
        for phase in (0.0, math.pi / 2, math.pi):
            probs = [model_click(model, m, phase) for m in np.linspace(0, 5, 40)]
            assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_monotone_in_dark_rate(self):
        for y0 in (0.0, 1e-7, 1e-5, 1e-3):
            lower = model_click(LinkModel(y0=y0), 0.1, math.pi)
            higher = model_click(LinkModel(y0=y0 * 10 + 1e-7), 0.1, math.pi)
            assert higher >= lower

    @pytest.mark.parametrize("y0", [0.0, 5e-7])
    def test_few_arriving_photons_keep_full_precision(self, y0):
        # V = 1 at phase 0 makes the fringe exactly the arriving photon number x,
        # so the law is y0 + (1 - y0)*(1 - e^-x); its Taylor series through x^5
        # is exact to far below 1e-14 here.
        arriving = np.logspace(-12, -4, 33)
        got = coherent_click_probability(arriving, 1.0, y0, 0.0)
        for x, value in zip(arriving.tolist(), got.tolist()):
            terms = [(-1) ** (k + 1) * x**k / math.factorial(k) for k in range(1, 6)]
            exact = math.fsum([y0, *terms, *(-y0 * t for t in terms)])
            assert value == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_no_photons_at_certain_detection_give_dark_rate(self):
        # n*log1p(-p) is 0*(-inf) at n = 0, p = 1; the law must give y0 there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clicks = photon_click_probability(1.0, 1.0, 5e-7, np.arange(3), 0.0)
        assert clicks[0] == 5e-7
        assert clicks[1] == clicks[2] == pytest.approx(1.0, rel=1e-15)
        assert photon_click_probability(1.0, 1.0, 5e-7, 0, 0.0) == 5e-7

    def test_maximal_at_zero_phase(self):
        model = LinkModel(excess_loss_db=5.0)
        peak = model_click(model, 0.5, 0.0)
        for phase in np.linspace(0.1, math.pi, 20):
            assert model_click(model, 0.5, phase) <= peak


UNIT = st.floats(0.0, 1.0)
ARRIVING = st.floats(min_value=0.0)  # up to inf
PHASES = st.floats(allow_infinity=False)  # NaN too


def assert_reference_law(arriving, visibility, y0, phase):
    with np.errstate(invalid="ignore", over="ignore"):
        assert_same_bits(
            coherent_click_probability(arriving, visibility, y0, phase),
            reference_law.coherent_click_probability(arriving, visibility, y0, phase))


class TestCoherentLawBits:
    """coherent_click_probability gives the bits of the law written as one
    expression, at the shapes its callers use; a NaN matches any NaN."""

    @given(ARRIVING, UNIT, UNIT, PHASES)
    def test_scalars(self, arriving, visibility, y0, phase):
        assert_reference_law(arriving, visibility, y0, phase)

    @given(st.data(), st.integers(1, 6), st.integers(1, 8), UNIT,
           st.sampled_from(link.PHASE_GRID))
    def test_fit_shapes(self, data, points, rows, y0, phase):
        # The link fit's (k, 1) visibilities meet its (k, rows) arriving photons.
        visibility = np.array(data.draw(st.lists(UNIT, min_size=points, max_size=points)))
        arriving = data.draw(st.lists(ARRIVING, min_size=points * rows,
                                      max_size=points * rows))
        assert_reference_law(np.reshape(arriving, (points, rows)), visibility[:, None], y0,
                             phase)

    @given(ARRIVING, UNIT, UNIT, st.lists(PHASES, min_size=1, max_size=70))
    def test_scan_shapes(self, arriving, visibility, y0, phases):
        assert_reference_law(arriving, visibility, y0, np.array(phases))

    @pytest.mark.parametrize("arriving", [0.0, 5e-324, 2.0**1023, math.inf])
    @pytest.mark.parametrize("visibility", [0.0, 1.0])
    @pytest.mark.parametrize("y0", [0.0, 1.0])
    def test_edge_values(self, arriving, visibility, y0):
        assert_reference_law(arriving, visibility, y0, math.pi)
        assert_reference_law(np.array([[arriving]]), np.array([[visibility]]), y0, math.pi)
        assert_reference_law(arriving, visibility, y0, np.array([0.0, math.pi]))


def one_intensity(mean_photons):
    return ProtocolParams(mu=mean_photons, nu=mean_photons)


class TestExpectedGain:
    def test_zero_intensity_zero_darks(self):
        assert expected_stats(LinkModel(y0=0.0), one_intensity(0.0), 0.0).s_mu == 0.0

    def test_no_interference_term_at_zero_visibility(self):
        model = LinkModel(excess_loss_db=7.0, y0=1e-6, visibility=0.0)
        eta = transmittance(model, 0.0)
        expected = 1.0 - (1.0 - model.y0) * math.exp(-eta * 0.6 / 2.0)
        assert expected_stats(model, one_intensity(0.6), 0.0).s_mu == pytest.approx(
            expected, rel=1e-12)

    def test_signal_exceeds_decoy(self, fitted_model, default_params):
        for length in (0.0, 50.0, 120.0):
            row = expected_stats(fitted_model, default_params, length)
            assert row.s_mu > row.s_nu

    def test_fitted_model_matches_longest_row(self, fitted_model, default_params):
        assert expected_stats(fitted_model, default_params, 123.6).s_mu == pytest.approx(
            3.8e-5, rel=0.15)


class TestExpectedQber:
    def test_perfect_visibility_no_darks(self):
        model = LinkModel(excess_loss_db=0.0, y0=0.0, visibility=1.0)
        assert expected_stats(model, one_intensity(0.5), 0.0).e_mu == 0.0

    def test_dark_counts_are_random(self):
        model = LinkModel(y0=1e-5)
        assert expected_stats(model, one_intensity(0.0), 0.0).e_mu == 0.5

    def test_small_signal_visibility_floor(self):
        model = LinkModel(alpha_db_per_km=0.0, excess_loss_db=20.0, eta_det=1.0,
                          y0=5e-7, visibility=0.99)
        assert expected_stats(model, one_intensity(1.0), 0.0).e_mu == pytest.approx(
            0.005, rel=0.10)

    def test_dark_dominated_limit(self):
        model = LinkModel(y0=1e-6, excess_loss_db=0.0)
        qbers = [expected_stats(model, one_intensity(m), 0.0).e_mu
                 for m in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)]
        assert all(b >= a - 1e-12 for a, b in zip(qbers, qbers[1:]))
        assert qbers[-1] == pytest.approx(0.5, abs=1e-3)

    def test_signal_dominated_limit(self):
        # weak signal but eta*mu / y0 > 1e4: QBER within 1% of (1-V)/2
        model = LinkModel(alpha_db_per_km=0.0, excess_loss_db=20.0, eta_det=1.0,
                          y0=1e-7, visibility=0.99)
        eta_mu = transmittance(model, 0.0) * 0.6
        assert eta_mu / model.y0 > 1e4
        assert expected_stats(model, one_intensity(0.6), 0.0).e_mu == pytest.approx(
            (1 - 0.99) / 2, rel=0.01)

    def test_no_clicks_at_all(self):
        assert expected_stats(LinkModel(y0=0.0), one_intensity(0.0), 0.0).e_mu == 0.0


class TestFitLink:
    def test_reference_table_attenuation(self, fitted_model):
        # least-squares optimum of the stated objective on the bundled
        # table sits at 0.1666 dB/km (the end-to-end two-point slope of
        # the gain column is steeper, ~0.18)
        assert 0.15 <= fitted_model.alpha_db_per_km <= 0.23
        assert fitted_model.alpha_db_per_km == pytest.approx(0.1666, abs=0.005)
        assert 0.9 <= fitted_model.visibility < 1.0

    def test_refinement_beats_coarse_probe_grid(self, fitted_model, reference_table,
                                                default_params):
        fitted_cost = fit_objective(fitted_model, reference_table, default_params)
        for alpha in np.linspace(0.10, 0.30, 9):
            for lumped in np.linspace(10.0, 26.0, 9):
                for vis in (0.95, 0.97, 0.99):
                    probe = LinkModel(alpha_db_per_km=alpha, excess_loss_db=lumped,
                                      eta_det=1.0, y0=5e-7, visibility=vis)
                    assert fitted_cost <= fit_objective(probe, reference_table,
                                                        default_params) + 1e-12

    def test_round_trip_recovery(self, default_params):
        truth = LinkModel(alpha_db_per_km=0.2, excess_loss_db=16.0, eta_det=1.0,
                          y0=5e-7, visibility=0.98)
        table = [expected_stats(truth, default_params, length)
                 for length in (30.0, 55.0, 80.0, 105.0, 125.0)]
        fitted = fit_link(table, default_params)
        assert fitted.alpha_db_per_km == pytest.approx(0.2, rel=0.01)
        assert abs(fitted.visibility - 0.98) < 0.005

    def test_identical_lengths_unidentifiable(self, default_params):
        row = expected_stats(LinkModel(excess_loss_db=16.0), default_params, 50.0)
        with pytest.raises(UnidentifiableDataError):
            fit_link([row, row], default_params)

    def test_lengths_spanning_under_a_tenth_km_unidentifiable(self, default_params):
        # Found by the noise-free recovery property with unrestricted lengths:
        # this table fitted with "converged" status and alpha at its bound 5.0.
        truth = LinkModel(alpha_db_per_km=0.25, excess_loss_db=0.0, eta_det=1.0, y0=5e-7,
                          visibility=0.875)
        table = [expected_stats(truth, default_params, length)
                 for length in (0.0, 1.175494351e-38, 5.895544230220976e-246)]
        with pytest.raises(UnidentifiableDataError, match="spanning >= 0.1 km"):
            fit_link(table, default_params)

    def test_nonpositive_rates_unidentifiable(self, default_params):
        from decoyqkd import MeasuredStats
        rows = [MeasuredStats(L, 1e-4, 0.01, 0.0, 0.0) for L in (10.0, 20.0, 30.0)]
        with pytest.raises(UnidentifiableDataError, match="non-positive counting rate"):
            fit_link(rows, default_params)

    # Without the domain check a NaN or infinite length reached np.polyfit, whose
    # LAPACK call printed DLASCL to stderr and raised LinAlgError; a NaN s_mu or
    # an infinite s_nu ran 100 steps to FitConvergenceError; e_mu = 5 fitted V = 0.
    @pytest.mark.parametrize("column, value", [
        ("length_km", math.nan), ("length_km", math.inf), ("s_mu", math.nan),
        ("s_nu", math.inf), ("e_mu", 5.0),
    ])
    def test_rows_outside_domain_unidentifiable(self, reference_table, default_params, capfd,
                                                column, value):
        table = np.array(reference_table)
        table[2, reference_table[2]._fields.index(column)] = value
        with pytest.raises(UnidentifiableDataError, match=rf"^table row 2: {column}={value!r} "):
            link.fit_link_report(table, default_params)
        assert capfd.readouterr() == ("", "")

    # fit_objective returned inf with numpy's divide warning, nan, and 31.36 for these.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column, value", [
        ("s_mu", 0.0), ("length_km", math.nan), ("s_mu", 2.0),
    ])
    def test_objective_rejects_what_the_fit_rejects(self, reference_table, fitted_model,
                                                     default_params, column, value):
        table = np.array(reference_table)
        table[2, reference_table[2]._fields.index(column)] = value
        with pytest.raises(UnidentifiableDataError) as fit_error:
            link.fit_link_report(table, default_params)
        with pytest.raises(UnidentifiableDataError) as objective_error:
            fit_objective(fitted_model, table, default_params)
        assert str(objective_error.value) == str(fit_error.value)

    # The first two fitted as 6 rows, the third raised numpy's reshape error.
    @pytest.mark.parametrize("shape_of", [lambda t: t.reshape(30), lambda t: t[None],
                                          lambda t: np.column_stack([t, t[:, :1]])],
                             ids=["(30,)", "(1, 6, 5)", "(6, 6)"])
    def test_table_not_n_by_5_unidentifiable(self, reference_table, fitted_model,
                                             default_params, shape_of):
        table = shape_of(np.array(reference_table))
        for fit in (lambda: link.fit_link_report(table, default_params),
                    lambda: fit_objective(fitted_model, table, default_params)):
            with pytest.raises(UnidentifiableDataError) as info:
                fit()
            assert str(info.value) == f"measured table has shape {table.shape}, not (n, 5)"

    def test_empty_table_has_too_few_lengths(self, default_params):
        with pytest.raises(UnidentifiableDataError,
                           match=r"needs >= 3 distinct fiber lengths, got 0 row\(s\)"):
            link.fit_link_report(np.empty((0, 5)), default_params)

    # A noisy fit can stall at a bound of its box (0 dB lumped loss, visibility
    # 1), so these links keep their fits well inside it: the lengths span at least
    # 20 km and the dark counts stay small against the rates at 130 km.
    @given(st.floats(0.15, 0.25), st.floats(10.0, 15.0), st.floats(0.80, 0.98),
           st.lists(st.integers(0, 13).map(lambda k: 10.0 * k), min_size=3, max_size=8,
                    unique=True),
           st.integers(0, 2**32 - 1))
    def test_objective_is_fit_objective_at_the_fit(self, alpha, lumped, visibility, lengths,
                                                   seed):
        params = ProtocolParams()
        truth = LinkModel(alpha_db_per_km=alpha, excess_loss_db=lumped, eta_det=1.0,
                          y0=5e-7, visibility=visibility)
        table = np.array([expected_stats(truth, params, length) for length in lengths])
        table[:, 1:] *= np.random.default_rng(seed).lognormal(0.0, 0.05, table[:, 1:].shape)
        fit = link.fit_link_report(table, params)
        assert fit.objective.hex() == fit_objective(fit.model, table, params).hex()

    def test_rates_not_above_y0_unidentifiable(self, reference_table, default_params):
        # A modelled rate y0 + (1 - y0)*(signal click) exceeds y0 on every link;
        # the bundled table's smallest rate is s_nu = 1.36e-5 at 123.6 km.
        with pytest.raises(UnidentifiableDataError, match=r"123\.6 km .* y0=0\.0001"):
            fit_link(reference_table, default_params, y0=1e-4)

    def test_objective_no_worse_than_scipy(self, reference_table, default_params,
                                           solver_calls):
        fitted = fit_link(reference_table, default_params)
        alpha, lumped, vis = scipy_refinement(solver_calls[0].problem)
        scipy_model = LinkModel(alpha_db_per_km=alpha, excess_loss_db=lumped, eta_det=1.0,
                                y0=5e-7, visibility=vis)
        scipy_cost = fit_objective(scipy_model, reference_table, default_params)
        assert (fit_objective(fitted, reference_table, default_params)
                <= scipy_cost * (1.0 + 1e-12))

    def test_objective_no_worse_than_grid_start(self, reference_table, default_params,
                                                solver_calls):
        # The best point of the 29,520-point grid (alpha 0.05-0.40 dB/km in 36
        # steps, lumped 0-40 dB in 41, V 0.80-0.999 in 20) that seeded the
        # refinement before the closed-form start replaced it.
        fitted = fit_link(reference_table, default_params)
        evaluate, _, lower, upper = solver_calls[0].problem
        (alpha, lumped, vis), _, converged, _ = link._least_squares(
            evaluate, [0.17, 18.0, 0.9780526315789474], lower, upper)
        assert converged
        grid_model = LinkModel(alpha_db_per_km=alpha, excess_loss_db=lumped, eta_det=1.0,
                               y0=5e-7, visibility=vis)
        grid_cost = fit_objective(grid_model, reference_table, default_params)
        assert (fit_objective(fitted, reference_table, default_params)
                <= grid_cost * (1.0 + 1e-12))

    @pytest.mark.parametrize("truth, lengths", [
        (LinkModel(alpha_db_per_km=0.2, excess_loss_db=16.0, eta_det=1.0, y0=5e-7,
                   visibility=0.98), (30.0, 55.0, 80.0, 105.0, 125.0)),
        (LinkModel(alpha_db_per_km=0.19, excess_loss_db=16.5, eta_det=1.0, y0=5e-7,
                   visibility=0.975), (49.2, 62.1, 83.7, 97.0, 108.0, 123.6)),
    ])
    def test_noise_free_recovery_is_exact(self, default_params, truth, lengths):
        table = [expected_stats(truth, default_params, length) for length in lengths]
        fitted = fit_link(table, default_params)
        assert fitted.alpha_db_per_km == pytest.approx(truth.alpha_db_per_km, rel=1e-9)
        assert fitted.excess_loss_db == pytest.approx(truth.excess_loss_db, rel=1e-9)
        assert fitted.visibility == pytest.approx(truth.visibility, abs=1e-9)

    # Truth models across the box the coarse grid used to cover, measured at 3-8
    # lengths on a 0.1 km raster (lengths a few ulps apart leave alpha
    # unidentified); the example is a 92.5 dB link that the grid-started fit
    # recovered only to 6.6e-9 relative.
    @given(st.floats(0.05, 0.40), st.floats(0.0, 40.0), st.floats(0.80, 0.999),
           st.lists(st.integers(0, 1600).map(lambda k: k / 10), min_size=3, max_size=8,
                    unique=True))
    @example(0.39, 34.0, 0.91, [108.0, 126.0, 150.0])
    def test_noise_free_recovery_from_closed_form_start(self, alpha, lumped, visibility,
                                                        lengths):
        params = ProtocolParams()
        truth = LinkModel(alpha_db_per_km=alpha, excess_loss_db=lumped, eta_det=1.0,
                          y0=5e-7, visibility=visibility)
        table = [expected_stats(truth, params, length) for length in lengths]
        fitted = fit_link(table, params)
        assert fitted.alpha_db_per_km == pytest.approx(alpha, rel=1e-9)
        assert fitted.excess_loss_db == pytest.approx(lumped, rel=1e-9, abs=1e-9)
        assert fitted.visibility == pytest.approx(visibility, abs=1e-9)

    def test_non_convergence_raises(self, monkeypatch, reference_table, default_params):
        monkeypatch.setattr(link, "_least_squares", not_converged)
        with pytest.raises(FitConvergenceError, match="did not converge in 100 iterations"):
            fit_link(reference_table, default_params)

    def test_singular_step_raises_convergence_error(self):
        # Residuals flat in every parameter: the damped normal matrix is all zeros.
        with pytest.raises(FitConvergenceError, match="step 1 failed: Singular matrix"):
            link._least_squares(link._central_differences(
                lambda points: np.ones((points.shape[1], 3)), [0.0, 0.0], [5.0, 5.0]),
                [1.0, 2.0], [0.0, 0.0], [5.0, 5.0])


class TestSweep:
    def test_reference_cutoff_band(self, fitted_model, default_params):
        sweep = sweep_key_rate(fitted_model, default_params, range(0, 151))
        assert sweep.cutoff_km is not None
        assert 123.6 <= sweep.cutoff_km <= 140.0

    def test_single_sign_change(self, fitted_model, default_params):
        sweep = sweep_key_rate(fitted_model, default_params, range(0, 151))
        positive = [r > 0 for r in np.nan_to_num(sweep.rates, nan=-1.0)]
        flips = sum(1 for a, b in zip(positive, positive[1:]) if a != b)
        assert flips == 1

    def test_noiseless_link_never_cuts_off(self):
        model = LinkModel(alpha_db_per_km=0.2, excess_loss_db=16.0, eta_det=1.0,
                          y0=0.0, visibility=1.0)
        params = ProtocolParams(u_alpha=0.0)
        sweep = sweep_key_rate(model, params, range(0, 201, 5))
        assert sweep.cutoff_km is None
        assert np.all(sweep.rates > 0)

    def test_doubling_darks_shrinks_reach(self, fitted_model, default_params):
        from dataclasses import replace
        noisier = replace(fitted_model, y0=2 * fitted_model.y0)
        base = sweep_key_rate(fitted_model, default_params, range(0, 151))
        worse = sweep_key_rate(noisier, default_params, range(0, 151))
        assert worse.cutoff_km < base.cutoff_km

    def test_round_trip_cutoff_within_1km(self, default_params):
        truth = LinkModel(alpha_db_per_km=0.19, excess_loss_db=16.5, eta_det=1.0,
                          y0=5e-7, visibility=0.975)
        table = [expected_stats(truth, default_params, length)
                 for length in (49.2, 62.1, 83.7, 97.0, 108.0, 123.6)]
        fitted = fit_link(table, default_params)
        grid = range(0, 161)
        true_sweep = sweep_key_rate(truth, default_params, grid)
        fit_sweep = sweep_key_rate(fitted, default_params, grid)
        assert abs(true_sweep.cutoff_km - fit_sweep.cutoff_km) <= 1.0

    def test_cutoff_refined_to_tenth_km(self, fitted_model, default_params):
        def rate_at(length):
            stats = expected_stats(fitted_model, default_params, length)
            try:
                return analyze_row(default_params, stats).r_lower
            except AnalysisError:
                return math.nan

        sweep = sweep_key_rate(fitted_model, default_params, range(0, 151))
        assert rate_at(sweep.cutoff_km) > 0
        assert rate_at(sweep.cutoff_km + 0.11) <= 0

    def test_first_of_two_brackets_is_bisected(self, monkeypatch, default_params):
        # Rates positive below 15 km and between 25 and 35 km, so the grid
        # brackets two cutoffs; the sweep reports the first.
        model = LinkModel(alpha_db_per_km=0.2, excess_loss_db=0.0, eta_det=1.0)
        probed = []

        def key_rates(model, params, eta):
            length = -10.0 * np.log10(eta) / 0.2
            probed.extend(length.tolist())
            return np.where((length < 15.0) | ((25.0 < length) & (length < 35.0)), 1.0, -1.0)

        monkeypatch.setattr(link, "_key_rates", key_rates)
        sweep = sweep_key_rate(model, default_params, [0.0, 10.0, 20.0, 30.0, 40.0])
        assert sweep.rates.tolist() == [1.0, 1.0, -1.0, 1.0, -1.0]
        assert 14.9 < sweep.cutoff_km <= 15.0
        bisected = probed[5:]
        assert bisected and all(10.0 < length < 20.0 for length in bisected)

    def test_grid_validation(self, fitted_model, default_params):
        with pytest.raises(ValueError):
            sweep_key_rate(fitted_model, default_params, [])
        with pytest.raises(ValueError):
            sweep_key_rate(fitted_model, default_params, [10.0, 5.0])
        with pytest.raises(ValueError, match=r"length_km=nan must be finite and >= 0"):
            sweep_key_rate(fitted_model, default_params, [math.nan])

    def test_single_point_grid_has_no_cutoff(self, fitted_model, default_params):
        sweep = sweep_key_rate(fitted_model, default_params, [150.0])
        assert sweep.cutoff_km is None
        assert sweep.rates.size == 1

    @pytest.mark.parametrize("alpha, excess", [(1e308, 0.0), (1.0, 1e308)])
    def test_overflowing_loss_is_zero_transmittance(self, default_params, alpha, excess):
        # alpha*L + excess overflows to inf at 1e308 km; the sweep reads that as
        # transmittance 0, as transmittance does, without a RuntimeWarning.
        model = LinkModel(alpha_db_per_km=alpha, excess_loss_db=excess, y0=0.0,
                          visibility=1.0)
        sweep = sweep_key_rate(model, default_params, [0.0, 2.0, 1e308])
        assert transmittance(model, 1e308) == 0.0
        assert expected_stats(model, default_params, 1e308).s_mu == 0.0
        assert np.isnan(sweep.rates[1:]).all()

    @pytest.mark.parametrize("alpha, grid", [(1e-25, [0.0, 1e27]),
                                             (2.7e-307, [1e308, 1.7e308])])
    def test_cutoff_beyond_a_tenth_km_resolution(self, default_params, alpha, grid):
        # Floats near the cutoff are further apart than 0.1 km, and in the second
        # grid the two ends sum beyond the largest float.
        model = LinkModel(alpha_db_per_km=alpha, excess_loss_db=0.0, y0=5e-7,
                          visibility=0.99)
        cutoff = sweep_key_rate(model, default_params, grid).cutoff_km
        assert grid[0] < cutoff < grid[1]
        edge = sweep_key_rate(model, default_params, [cutoff, np.nextafter(cutoff, math.inf)])
        assert edge.rates[0] > 0 and not edge.rates[1] > 0


link_fields = st.fixed_dictionaries(dict(
    alpha_db_per_km=st.floats(0.0, 1e308), excess_loss_db=st.floats(-1e308, 1e308),
    eta_det=st.floats(0.0, 1.0), y0=st.floats(0.0, 1.0), visibility=st.floats(0.0, 1.0)))
length_grids = st.lists(st.floats(0.0, 1e308), min_size=1, max_size=6, unique=True).map(sorted)


@given(link_fields, length_grids)
def test_sweep_and_expected_stats_never_warn(fields, grid):
    params = ProtocolParams()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if fields["excess_loss_db"] < 0:  # a gain, rejected before any link is modelled
            with pytest.raises(ValueError, match=r"^excess_loss_db=.* must be >= 0$"):
                LinkModel(**fields)
            return
        model = LinkModel(**fields)
        sweep = sweep_key_rate(model, params, grid)
        rows = [expected_stats(model, params, length) for length in grid]
    assert not np.isinf(sweep.rates).any()
    assert all(math.isfinite(value) for row in rows for value in row)


class TestModelValidation:
    def test_field_domains(self):
        with pytest.raises(ValueError):
            LinkModel(alpha_db_per_km=-0.1)
        with pytest.raises(ValueError):
            LinkModel(excess_loss_db=-0.1)
        with pytest.raises(ValueError):
            LinkModel(eta_det=1.5)
        with pytest.raises(ValueError):
            LinkModel(y0=-1e-9)
        with pytest.raises(ValueError):
            LinkModel(visibility=1.01)
