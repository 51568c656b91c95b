"""Phase-scan simulation, fringe fitting and working points."""
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import chi2, chisquare

from decoyqkd import (
    FitConvergenceError,
    FringeFit,
    InsufficientScanRangeError,
    LinkModel,
    ProtocolParams,
    ScanCurve,
    SimConfig,
    fit_fringe,
    run_session,
    simulate_scan,
    working_points,
)
from decoyqkd import calibration
from decoyqkd.calibration import (
    MIN_FIT_POINTS,
    scan_intensity_for_peak,
    scan_overhead,
)
from decoyqkd.link import _LeastSquaresResult, coherent_click_probability

from conftest import (assert_same_bits, model_click, not_converged, refinements,
                      scipy_refinement, stencil_fringe_residuals)

TWO_PI = 2.0 * math.pi

LUMPED = LinkModel(alpha_db_per_km=0.0, excess_loss_db=0.0, eta_det=1.0,
                   y0=5e-7, visibility=0.99)


def grid(points: int) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, points)


class TestSimulateScan:
    def test_destructive_point_never_clicks(self):
        model = LinkModel(excess_loss_db=0.0, y0=0.0, visibility=1.0)
        curve = simulate_scan(model, 1.0, grid(65), 10_000, seed=1,
                              true_phase_zero=0.0)
        # 65 points over 2*pi sample the destructive phase exactly
        assert curve.counts[32] == 0.0

    def test_flat_scan_at_zero_visibility(self):
        model = LinkModel(excess_loss_db=0.0, y0=5e-7, visibility=0.0)
        curve = simulate_scan(model, 0.5, grid(64), 100_000, seed=2)
        result = chisquare(curve.counts, f_exp=np.full(64, curve.counts.mean()), ddof=1)
        assert result.pvalue > 0.05

    def test_contrast_ratio_in_linear_regime(self):
        # unsaturated scan: min/max count ratio estimates (1-V)/(1+V)
        strong = scan_intensity_for_peak(LUMPED, peak=0.02)
        curve = simulate_scan(LUMPED, strong, grid(65), 100_000, seed=3)
        ratio = curve.counts.min() / curve.counts.max()
        target = (1 - 0.99) / (1 + 0.99)
        sampling_sigma = math.sqrt(max(curve.counts.min(), 1.0)) / curve.counts.max()
        assert abs(ratio - target) < 4 * sampling_sigma

    def test_saturation_flag(self):
        curve = simulate_scan(LUMPED, 500.0, grid(64), 1000, seed=4)
        assert curve.saturated
        assert not simulate_scan(LUMPED, 0.5, grid(64), 1000, seed=4).saturated

    def test_short_grid_rejected(self):
        with pytest.raises(InsufficientScanRangeError):
            simulate_scan(LUMPED, 0.5, np.linspace(0, math.pi, 32), 1000, seed=5)

    def test_two_dimensional_offsets_rejected_by_name(self):
        # They failed at the span check with numpy's "truth value of an array".
        with pytest.raises(ValueError, match=r"^scan offsets must be a 1-d sequence, got "
                                             r"shape \(2, 16\)$"):
            simulate_scan(LUMPED, 0.5, np.stack([grid(16), grid(16)]), 1000, seed=5)

    @given(st.sampled_from(["strong_mean_photons", "offsets", "true_phase_zero"]),
           st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 15))
    def test_non_finite_input_rejected_by_name(self, argument, value, index):
        inputs = {"strong_mean_photons": 0.5, "offsets": grid(16), "true_phase_zero": 0.0}
        if argument == "offsets":
            inputs["offsets"][index] = value
        else:
            inputs[argument] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"\b{argument}\b.* must be finite"):
                simulate_scan(LUMPED, pulses_per_point=1000, seed=1, **inputs)

    @pytest.mark.parametrize("seed", [1.5, 2.0, math.nan, math.inf])
    def test_non_integer_seed_rejected_by_name(self, seed):
        with pytest.raises(ValueError, match=rf"^seed={seed!r} must be an integer$"):
            simulate_scan(LUMPED, 0.5, grid(16), 1000, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        curve = simulate_scan(LUMPED, 1.0, grid(16), 1000, seed=np.uint32(6))
        assert np.array_equal(curve.counts, simulate_scan(LUMPED, 1.0, grid(16), 1000,
                                                          seed=6).counts)

    def test_huge_true_zero_is_reduced_before_the_offsets(self):
        # grid - 1e308 would round every offset to -1e308, a flat scan.
        strong = scan_intensity_for_peak(LUMPED, peak=0.5)
        huge = simulate_scan(LUMPED, strong, grid(64), 100_000, seed=3, true_phase_zero=1e308)
        wrapped = simulate_scan(LUMPED, strong, grid(64), 100_000, seed=3,
                                true_phase_zero=1e308 % TWO_PI)
        assert np.array_equal(huge.counts, wrapped.counts)
        fit = fit_fringe(huge)
        assert abs(fit.visibility_est - 0.99) <= 0.005
        assert phase_gap(fit.phase_zero, 1e308 % TWO_PI) < 0.01

    @pytest.mark.parametrize("zero", [-1.0, -1e-300, -TWO_PI - 2.5])
    def test_negative_true_zero_scans_as_its_wrapped_value(self, zero):
        strong = scan_intensity_for_peak(LUMPED, peak=0.5)
        for noiseless in (False, True):
            negative = simulate_scan(LUMPED, strong, grid(64), 10_000, seed=4,
                                     true_phase_zero=zero, noiseless=noiseless)
            wrapped = simulate_scan(LUMPED, strong, grid(64), 10_000, seed=4,
                                    true_phase_zero=zero % TWO_PI, noiseless=noiseless)
            assert negative.counts.tobytes() == wrapped.counts.tobytes()

    def test_deterministic_per_seed(self):
        a = simulate_scan(LUMPED, 1.0, grid(64), 10_000, seed=6)
        b = simulate_scan(LUMPED, 1.0, grid(64), 10_000, seed=6)
        assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("seed, points, zero, length", [(0, 64, 0.0, 0.0),
                                                            (6, 17, 2.5, 40.0),
                                                            (2**40, 129, 5.9, 0.0)])
    def test_counts_are_one_binomial_call_per_scan(self, seed, points, zero, length):
        model = LinkModel(alpha_db_per_km=0.2, excess_loss_db=1.0, visibility=0.97)
        # The scan sees the fiber's loss as excess loss of the scanned link.
        scanned = replace(model, excess_loss_db=model.excess_loss_db
                          + model.alpha_db_per_km * length)
        offsets = grid(points)
        curve = simulate_scan(scanned, 3.0, offsets, 50_000, seed=seed,
                              true_phase_zero=zero)
        probs = model_click(model, 3.0, offsets - zero, length)
        expected = np.random.default_rng(np.random.SeedSequence(seed)).binomial(50_000, probs)
        assert np.array_equal(curve.counts, expected)

    def test_counts_follow_independent_binomials(self):
        # Over 500 seeded scans: each point's total count (mean), each point's
        # spread and each scan's total (independence between points) against
        # Binomial(n, p); each statistic is chi-square under the binomial law.
        n, seeds, offsets = 1000, 500, grid(16)
        strong = scan_intensity_for_peak(LUMPED, peak=0.5)
        p = model_click(LUMPED, strong, offsets)
        counts = np.array([simulate_scan(LUMPED, strong, offsets, n, seed=s).counts
                           for s in range(seeds)])
        variance = n * p * (1.0 - p)
        z_totals = (counts.sum(axis=0) - seeds * n * p) / np.sqrt(seeds * variance)
        statistics = [(np.sum(z_totals ** 2), offsets.size)]
        statistics += [(np.sum((counts[:, i] - n * p[i]) ** 2) / variance[i], seeds)
                       for i in range(offsets.size)]
        scan_totals = counts.sum(axis=1)
        statistics.append((np.sum((scan_totals - n * p.sum()) ** 2) / variance.sum(), seeds))
        for value, dof in statistics:
            assert 1e-4 < chi2.cdf(value, dof) < 1.0 - 1e-4, (value, dof)

    @pytest.mark.parametrize("y0", [0.5, 1.0])
    def test_intensity_helper_rejects_dark_counts_at_the_peak(self, y0):
        # y0 = 1 must fail on this check, not in the division by 1 - y0.
        with pytest.raises(ValueError, match="dark counts alone exceed the requested click "
                                             "probability 0.5"):
            scan_intensity_for_peak(replace(LUMPED, y0=y0), peak=0.5)

    def test_intensity_helper_hits_requested_peak(self):
        strong = scan_intensity_for_peak(LUMPED, peak=0.5)
        curve = simulate_scan(LUMPED, strong, grid(129), 1000, seed=7, noiseless=True)
        assert curve.counts.max() / 1000 == pytest.approx(0.5, rel=1e-6)


class TestFitFringe:
    def test_noiseless_exact_recovery(self):
        model = LinkModel(excess_loss_db=0.0, y0=0.0, visibility=0.99)
        strong = scan_intensity_for_peak(model, peak=0.5)
        curve = simulate_scan(model, strong, grid(64), 100_000, seed=8,
                              true_phase_zero=1.234, noiseless=True)
        fit = fit_fringe(curve)
        assert fit.visibility_est == pytest.approx(0.99, abs=1e-9)
        assert fit.phase_zero == pytest.approx(1.234, abs=1e-9)
        assert fit.residual < 1e-12

    def test_simulated_scans_recover_visibility(self):
        strong = scan_intensity_for_peak(LUMPED, peak=0.5)
        estimates = []
        for seed in range(10):
            curve = simulate_scan(LUMPED, strong, grid(64), 100_000, seed=seed,
                                  true_phase_zero=0.8)
            estimates.append(fit_fringe(curve).visibility_est)
        assert all(abs(v - 0.99) <= 0.005 for v in estimates)
        # ensemble consistency: the mean estimate sits within 3 standard errors
        mean = sum(estimates) / len(estimates)
        spread = (sum((v - mean) ** 2 for v in estimates) / (len(estimates) - 1)) ** 0.5
        assert abs(mean - 0.99) <= 3 * spread / math.sqrt(len(estimates))

    def test_amplitude_is_mean_click_probability(self):
        model = LinkModel(excess_loss_db=0.0, y0=0.0, visibility=0.9)
        strong = scan_intensity_for_peak(model, peak=0.4)
        curve = simulate_scan(model, strong, grid(257), 100, seed=0, noiseless=True)
        fit = fit_fringe(curve)
        # circular mean: drop the duplicated 2*pi endpoint
        circular_mean = float(np.mean(curve.counts[:-1] / 100))
        assert fit.amplitude == pytest.approx(circular_mean, rel=1e-6)

    def test_weak_scan_amplitude_keeps_full_precision(self):
        # At peak 1e-12 the amplitude is ~5e-13; 1 - exp(-d)*I0(d*V) would keep
        # only ~4 significant digits of it.
        model = LinkModel(excess_loss_db=0.0, y0=0.0, visibility=0.9)
        strong = scan_intensity_for_peak(model, peak=1e-12)
        curve = simulate_scan(model, strong, grid(257), 100, seed=0, noiseless=True)
        circular_mean = float(np.mean(curve.counts[:-1] / 100))
        assert fit_fringe(curve).amplitude == pytest.approx(circular_mean, rel=1e-12, abs=0.0)

    @given(st.floats(1e-15, 100.0), st.floats(0.0, 1.0))
    @example(depth=4.0, visibility=0.0)
    @example(depth=8.171818130115518, visibility=0.0)
    def test_amplitude_matches_bessel_series(self, depth, visibility):
        # 1 - exp(-d)*I0(d*V) = exp(-d) * sum_j d^j/j! * w_j, with w_j = 1 for odd
        # j and 1 - C(2k, k)*(V/2)^(2k) for j = 2k: every term is positive and
        # rounded once from its exact value (d = a/b and V = c/e are dyadic).
        a, b = depth.as_integer_ratio()
        c, e = visibility.as_integer_ratio()
        num, den, terms, j = 1, 1, [], 0
        while j <= depth or terms[-1] >= 1e-20 * max(terms):
            j += 1
            num, den = num * a, den * b * j
            if j % 2:
                terms.append(num / den)
            else:
                scale = (2 * e) ** j
                terms.append(num * (scale - math.comb(j, j // 2) * c ** j) / (den * scale))
        expected = math.exp(-depth) * math.fsum(terms)
        curve = simulate_scan(LUMPED, 0.1, grid(16), 100, noiseless=True)
        fit, _ = fit_with_refinement(curve, np.array([depth, visibility, 0.0]))
        assert abs(fit.amplitude - expected) <= 4 * math.ulp(expected)

    def test_scan_saturated_but_at_the_dip_has_a_finite_amplitude(self):
        # The fit walks to a depth of about 6e3, where exp(-d)*I0(d*V) is 0*inf.
        counts = np.full(65, 1000.0)
        counts[32] = 0.0
        fit = fit_fringe(ScanCurve(offsets=grid(65), counts=counts, pulses_per_point=1000))
        assert fit.visibility_est == 1.0 and phase_gap(fit.phase_zero, 0.0) < 1e-9
        # 1 - exp(-d)*I0(d) = 1 - 1/sqrt(2*pi*d) to first order at large d
        assert 0.99 < fit.amplitude < 1.0

    def test_no_residual_call_after_the_refinement_returns(self, monkeypatch):
        # The residual function is fit_fringe's own closure, so its calls are
        # seen through the kernel it evaluates.
        solve, kernel, events = (calibration._least_squares,
                                 calibration._negated_signal_click, [])

        def refinement(*problem):
            result = solve(*problem)
            events.append("returned")
            return result

        def residual_kernel(arriving, visibility, cosines, out=None):
            if cosines is not calibration._AMPLITUDE_COSINES:
                events.append("residuals")
            return kernel(arriving, visibility, cosines, out)
        monkeypatch.setattr(calibration, "_least_squares", refinement)
        monkeypatch.setattr(calibration, "_negated_signal_click", residual_kernel)
        fit_fringe(simulate_scan(LUMPED, 1.0, grid(64), 1000, seed=57))
        assert events.count("returned") == 1 and events[-1] == "returned"
        assert events.count("residuals") > 1

    def test_amplitude_kernel_runs_only_when_the_amplitude_is_read(self, monkeypatch):
        kernel, calls = calibration._negated_signal_click, []

        def spy(arriving, visibility, cosines, out=None):
            calls.append(cosines is calibration._AMPLITUDE_COSINES)
            return kernel(arriving, visibility, cosines, out)
        monkeypatch.setattr(calibration, "_negated_signal_click", spy)
        fit = fit_fringe(simulate_scan(LUMPED, 1.0, grid(64), 1000, seed=0))
        assert calls and not any(calls)
        fitted = len(calls)
        fit.amplitude
        assert calls[fitted:] == [True]

    @given(visibility=st.floats(0.0, 1.0), peak=st.floats(0.01, 0.999),
           points=st.integers(MIN_FIT_POINTS, 200), pulses=st.integers(10, 10**9),
           noiseless=st.booleans(), zero=st.floats(0.0, TWO_PI),
           seed=st.integers(0, 2**32 - 1))
    @example(visibility=0.5, peak=0.9, points=64, pulses=100_000, noiseless=True, zero=0.0,
             seed=0)
    def test_residual_is_the_rms_at_the_returned_point(self, visibility, peak, points, pulses,
                                                        noiseless, zero, seed):
        model = replace(LUMPED, y0=0.0, visibility=visibility)
        curve = simulate_scan(model, scan_intensity_for_peak(model, peak), grid(points),
                              pulses, seed=seed, true_phase_zero=zero, noiseless=noiseless)
        with refinements() as recorded:
            try:
                fit = fit_fringe(curve)
            except (ValueError, FitConvergenceError):
                return
        evaluate, x = recorded[0].problem[0], recorded[0].result.x
        assert repr(fit.residual) == repr(float(np.sqrt(np.mean(evaluate(x)[0] ** 2))))

    def test_fully_saturated_scan_rejected(self):
        curve = ScanCurve(offsets=grid(64), counts=np.full(64, 1000.0), pulses_per_point=1000)
        with pytest.raises(ValueError, match="every scan point is saturated"):
            fit_fringe(curve)

    def test_flat_curve_fits_near_zero_visibility(self):
        model = LinkModel(excess_loss_db=0.0, y0=5e-7, visibility=0.0)
        strong = scan_intensity_for_peak(model, peak=0.3)
        curve = simulate_scan(model, strong, grid(64), 100_000, seed=9)
        fit = fit_fringe(curve)
        assert fit.visibility_est < 0.02
        assert fit.residual > 0

    def test_too_few_points_rejected(self):
        curve = ScanCurve(offsets=np.linspace(0, TWO_PI, 4), counts=np.zeros(4),
                          pulses_per_point=10)
        with pytest.raises(InsufficientScanRangeError):
            fit_fringe(curve)

    def test_non_spanning_grid_rejected(self):
        curve = ScanCurve(offsets=np.linspace(0, 3.0, 16), counts=np.zeros(16),
                          pulses_per_point=10)
        with pytest.raises(InsufficientScanRangeError):
            fit_fringe(curve)

    def test_phase_equivariance(self):
        model = LinkModel(excess_loss_db=0.0, y0=0.0, visibility=0.95)
        strong = scan_intensity_for_peak(model, peak=0.5)
        base = simulate_scan(model, strong, grid(64), 1000, seed=0,
                             true_phase_zero=0.4, noiseless=True)
        fit_base = fit_fringe(base)
        for delta in (0.5, 2.0, 5.0):
            shifted = ScanCurve(offsets=base.offsets + delta, counts=base.counts,
                                pulses_per_point=base.pulses_per_point)
            fit_shifted = fit_fringe(shifted)
            assert fit_shifted.visibility_est == pytest.approx(
                fit_base.visibility_est, abs=1e-9)
            expected = (fit_base.phase_zero + delta) % TWO_PI
            wrapped = abs(fit_shifted.phase_zero - expected)
            assert min(wrapped, TWO_PI - wrapped) < 1e-9


@st.composite
def scans(draw, max_points: int = 70) -> ScanCurve:
    size = draw(st.integers(MIN_FIT_POINTS, max_points))
    pulses = draw(st.integers(1, 10**6))
    counts = draw(st.lists(st.integers(0, pulses), min_size=size, max_size=size))
    counts[0] = 0  # fit_fringe refuses a scan that is saturated everywhere
    return ScanCurve(offsets=grid(size), counts=counts, pulses_per_point=pulses)


DEPTHS = st.floats(0.0, 1e3) | st.sampled_from([2.0**1023, 1.7976931348623157e308,
                                                 math.inf, math.nan])
VISIBILITIES = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])
# A Jacobian's six points, one column each: a central difference in 3 parameters.
JACOBIAN_POINTS = st.lists(st.tuples(DEPTHS, VISIBILITIES | st.just(math.nan),
                                     st.floats(-10.0, 10.0) | st.just(math.nan)),
                           min_size=6, max_size=6)
# grid(65) samples d = pi exactly at zero = 0, where 1 + V*cos(d) is 0 at V = 1
# and (2 * 2**1023) / -2 * 0 is NaN as in the law, where -2**1023 * 0 is -0.0.
DIP = ScanCurve(offsets=grid(65), counts=np.arange(65.0), pulses_per_point=100)


def fit_with_refinement(curve: ScanCurve, fitted: np.ndarray):
    """fit_fringe with the refinement replaced by one returning fitted, and
    the evaluate function it was handed."""
    handed = []

    def refinement(evaluate, x0, lower, upper):
        handed.append(evaluate)
        return _LeastSquaresResult(fitted, 1, True, evaluate(fitted)[0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calibration, "_least_squares", refinement)
        fit = fit_fringe(curve)
    return fit, handed[0]


class TestFitKernel:
    # The fit evaluates link's click law through its own in-place kernel; both
    # test_least_squares solvers call that one evaluate function, so only a
    # comparison with the law itself can catch a change to it.
    @given(scans(), JACOBIAN_POINTS)
    @example(curve=DIP, points=[(2.0**1023, 1.0, 0.0), (2.0**1023, 0.0, 0.0),
                                (1.0, 1.0, 0.0), (0.0, 1.0, 0.0), (5.0, 0.0, 1.0),
                                (math.inf, 1.0, 0.0)])
    @example(curve=DIP, points=[(math.nan, 0.5, 0.0), (1.0, math.nan, 0.0),
                                (1.0, 0.5, math.nan), (math.nan, math.nan, math.nan),
                                (1e3, 1.0, 0.0), (1e-15, 0.0, 0.0)])
    def test_residuals_are_the_law_bit_for_bit(self, curve, points):
        _, evaluate = fit_with_refinement(curve, np.array([1.0, 0.5, 0.0]))
        points = np.array(points).T
        depth, vis, zero = points[..., None]
        with np.errstate(invalid="ignore", over="ignore"):
            expected = (coherent_click_probability(2.0 * depth, vis, 0.0, curve.offsets - zero)
                        - curve.counts / curve.pulses_per_point)
            assert_same_bits([evaluate(point)[0] for point in points.T], expected)

    # The Jacobian the fit hands its refinement, e*(1 + V*cos(t), depth*cos(t),
    # depth*V*sin(t)), against a central difference of its residuals with a
    # step h = 1e-6 in each parameter. The difference's truncation error,
    # h^2/6 times a third derivative, about h^2*(depth*V)^2/6 relative, stays
    # far below 1e-6 of each column's largest entry at depths up to 50, and
    # rounding residuals of magnitude at most 1 leaves it within about 2*eps/h
    # of the exact difference quotient. The tolerance, fixed before the test
    # first ran, is 1e-6 of each column's largest entry plus twice that
    # rounding floor, 4*eps/h = 8.9e-10.
    # Zeros span the fit's bounds, its seed's zero plus or minus pi.
    @given(scans(max_points=64), st.floats(1e-3, 50.0), VISIBILITIES,
           st.floats(-TWO_PI, TWO_PI))
    @example(curve=ScanCurve(offsets=grid(64), counts=np.arange(64.0), pulses_per_point=100),
             depth=50.0, visibility=1.0, zero=0.0)
    @example(curve=ScanCurve(offsets=grid(8), counts=np.zeros(8), pulses_per_point=1),
             depth=1e-3, visibility=0.0, zero=-TWO_PI)
    def test_jacobian_is_the_central_difference_of_the_residuals(self, curve, depth,
                                                                 visibility, zero):
        _, evaluate = fit_with_refinement(curve, np.array([1.0, 0.5, 0.0]))
        point = np.array([depth, visibility, zero])
        r, jac = evaluate(point)
        assert jac.shape == (curve.offsets.size, 3)
        # The residual row keeps the bits of the residual function whose
        # central differences were the fit's Jacobian before it had its own.
        assert_same_bits(r, stencil_fringe_residuals(curve, point[:, None])[0])
        h = 1e-6
        for k in range(3):
            ends = point.copy(), point.copy()
            ends[0][k] += h
            ends[1][k] -= h
            step = ends[0][k] - ends[1][k]
            difference = (evaluate(ends[0])[0] - evaluate(ends[1])[0]) / step
            tolerance = 1e-6 * np.abs(jac[:, k]).max() + 4.0 * np.finfo(float).eps / h
            assert np.abs(jac[:, k] - difference).max() <= tolerance, k

    @given(DEPTHS, VISIBILITIES)
    @example(depth=2.0**1023, visibility=1.0)
    @example(depth=2.0**1023, visibility=0.0)
    @example(depth=math.nan, visibility=1.0)
    @example(depth=0.0, visibility=1.0)
    def test_amplitude_is_the_law_at_its_phases(self, depth, visibility):
        # 1,024 phases from 0 to 2*pi; the one at index 512 is pi exactly
        phases = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
        with np.errstate(invalid="ignore", over="ignore"):
            clicks = coherent_click_probability(2.0 * depth, visibility, 0.0, phases)
            # The property's own code, also at the depths a FringeFit refuses.
            amplitudes = [FringeFit.amplitude.fget(SimpleNamespace(depth=depth,
                                                                   visibility_est=visibility))]
            if 0.0 < depth < math.inf:
                amplitudes.append(FringeFit(depth=depth, visibility_est=visibility,
                                            phase_zero=0.0, residual=0.0).amplitude)
        expected = repr(math.fsum(clicks.tolist()) / 1024)
        assert [repr(amplitude) for amplitude in amplitudes] == [expected] * len(amplitudes)


def weighted_design(weights) -> tuple[np.ndarray, np.ndarray]:
    """The seed's (m, 3) first-harmonic design over grid(m), its rows scaled
    by the weights, and the grid."""
    offsets = grid(len(weights))
    design = np.column_stack([np.ones_like(offsets), np.cos(offsets), np.sin(offsets)])
    return design * np.asarray(weights, dtype=float)[:, None], offsets


class TestSeedSolve:
    # The seed's weighted linear fits solve their normal equations in closed
    # form and hand an ill-conditioned normal matrix to numpy.linalg.lstsq.
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=200),
           seed=st.integers(0, 2**32 - 1))
    # Rows at 0 and 2*pi point the same way but for sin(2*pi) = -2.4e-16:
    # lstsq finds rank 2, where each pivot against its own diagonal entry,
    # all of the sine column's being tiny, would pass as full rank.
    @example(weights=[0.82] + [0.0] * 4 + [0.05] + [0.0] * 4 + [0.28], seed=0)
    # Weights whose squares fall in the subnormal range.
    @example(weights=[1e-160, 3e-160, 2e-160] + [0.0] * 5, seed=0)
    def test_residual_matches_lstsq(self, weights, seed):
        a, offsets = weighted_design(weights)
        b = np.random.default_rng(seed).standard_normal(offsets.size)
        x = np.array(calibration._solve_least_squares(a, b))
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        # A fallback returns lstsq's bits, whose residual can overflow on a
        # design of subnormal weights; a closed-form solve leaves the residual.
        if x.tobytes() != expected.tobytes():
            norm, lstsq_norm = np.linalg.norm(a @ x - b), np.linalg.norm(a @ expected - b)
            assert abs(norm - lstsq_norm) <= 1e-9 * lstsq_norm

    @given(points=st.integers(8, 200),
           rows=st.lists(st.tuples(st.integers(0, 199), st.floats(0.0, 1.0)), max_size=2),
           seed=st.integers(0, 2**32 - 1))
    # Adjacent rows, nearly parallel: the second pivot's rounding error grows
    # as the first pivot shrinks, so a test of the second pivot against its
    # diagonal entry alone would pass them as full rank.
    @example(points=186, rows=[(2, 0.86195916), (3, 0.29821206)], seed=0)
    @example(points=64, rows=[(3, 1e-160), (40, 4e-162)], seed=0)
    def test_at_most_two_weighted_rows_take_lstsq(self, points, rows, seed):
        weights = np.zeros(points)
        for row, weight in rows:
            weights[row % points] = weight
        a, _ = weighted_design(weights)
        b = np.random.default_rng(seed).standard_normal(points)
        assert_same_bits(calibration._solve_least_squares(a, b),
                         np.linalg.lstsq(a, b, rcond=None)[0])


def phase_gap(a: float, b: float) -> float:
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


class TestFitFringeAgainstScipy:
    # (model, peak, seed, noiseless, tolerance on the fringe zero). On the flat
    # curve the phase barely moves the cost: scipy's trf stops (xtol) 1.8e-6 rad
    # from where a Gauss-Newton step with the analytic Jacobian points, and
    # _least_squares within 4e-8, so there the zeros agree to 1e-5 only.
    CASES = {
        **{f"seed{seed}": (LUMPED, 0.5, seed, False, 1e-9) for seed in range(10)},
        "V=1 noiseless": (LinkModel(excess_loss_db=0.0, y0=0.0, visibility=1.0),
                          0.5, 0, True, 1e-9),
        "flat": (LinkModel(excess_loss_db=0.0, y0=5e-7, visibility=0.0), 0.3, 9, False, 1e-5),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_agrees_with_scipy(self, case, solver_calls):
        model, peak, seed, noiseless, zero_tol = self.CASES[case]
        strong = scan_intensity_for_peak(model, peak=peak)
        curve = simulate_scan(model, strong, grid(64), 100_000, seed=seed,
                              true_phase_zero=0.8, noiseless=noiseless)
        fit = fit_fringe(curve)
        _, vis, zero = scipy_refinement(solver_calls[0].problem, ftol=1e-15, xtol=1e-15,
                                        gtol=1e-15)
        assert fit.visibility_est == pytest.approx(vis, abs=1e-9)
        assert phase_gap(fit.phase_zero, zero) <= zero_tol

    # On unsaturated scans the Gauss-Newton seed is the minimum: over 30,000
    # draws of this domain every refinement evaluated one point, its start,
    # and no cost exceeded scipy's by more than 2e-13 relative. Past its edges
    # the seed is not always there: at peak 0.9 and 1e4 pulses over 16 points,
    # 11 of 3,000 refinements evaluated 2 to 4 points; at 1e6 pulses over 16
    # points and peak 0.9 scipy, stepping into the cost's rounding noise,
    # found costs lower by up to 1.4e-12; and a true visibility near 1 over
    # few points fits at the bound 1, where the refinement can run out of
    # iterations.
    @given(visibility=st.floats(0.5, 0.98), pulses=st.integers(10**5, 10**6),
           peak=st.floats(0.2, 0.7), points=st.integers(32, 128),
           zero=st.floats(0.0, TWO_PI), seed=st.integers(0, 2**32 - 1))
    def test_seed_is_the_minimum_on_unsaturated_scans(self, visibility, pulses, peak, points,
                                                      zero, seed):
        model = replace(LUMPED, visibility=visibility)
        curve = simulate_scan(model, scan_intensity_for_peak(model, peak), grid(points),
                              pulses, seed=seed, true_phase_zero=zero)
        with refinements() as recorded:
            fit_fringe(curve)
        [refinement] = recorded
        problem, result = refinement.problem, refinement.result
        # Each evaluated point goes to one evaluate call.
        assert len(refinement.calls) <= 2
        scipy_x = scipy_refinement(problem, ftol=1e-15, xtol=1e-15, gtol=1e-15)
        at_scipy = problem[0](scipy_x)[0]
        assert result.residuals @ result.residuals <= (at_scipy @ at_scipy) * (1.0 + 1e-12)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(calibration, "_least_squares", not_converged)
        curve = simulate_scan(LUMPED, 1.0, grid(64), 1000, seed=0)
        with pytest.raises(FitConvergenceError, match="did not converge in 100 iterations"):
            fit_fringe(curve)


class TestWorkingPoints:
    def test_canonical_zero(self):
        fit = FringeFit(depth=0.3, visibility_est=0.99, phase_zero=0.0, residual=0.0)
        assert working_points(fit) == pytest.approx((0.0, math.pi / 2, math.pi,
                                                     3 * math.pi / 2))

    def test_wrap_around(self):
        fit = FringeFit(depth=0.3, visibility_est=0.99,
                        phase_zero=3 * math.pi / 2, residual=0.0)
        assert working_points(fit) == pytest.approx((3 * math.pi / 2, 0.0,
                                                     math.pi / 2, math.pi))

    def test_calibrated_session_matches_drift_free(self, fitted_model, default_params):
        # fit a simulated scan, then run a session whose phase error is the
        # calibration residual; its QBER stays within 20% of the aligned run
        scanned = replace(fitted_model, excess_loss_db=fitted_model.excess_loss_db
                          + fitted_model.alpha_db_per_km * 25.0)
        strong = scan_intensity_for_peak(scanned, peak=0.5)
        curve = simulate_scan(scanned, strong, grid(64), 100_000, seed=21,
                              true_phase_zero=0.7)
        fit = fit_fringe(curve)
        epsilon = (fit.phase_zero - 0.7 + math.pi) % TWO_PI - math.pi
        assert abs(epsilon) < 0.05

        aligned = SimConfig(n_pulses=3_000_000, link=fitted_model,
                            params=default_params, seed=22, length_km=25.0)
        skewed = SimConfig(n_pulses=3_000_000, link=fitted_model,
                           params=default_params, seed=22, length_km=25.0,
                           bob_phase_error=epsilon)
        _, stats_aligned = run_session(aligned)
        _, stats_skewed = run_session(skewed)
        assert stats_skewed.e_mu == pytest.approx(stats_aligned.e_mu, rel=0.20)

    def test_scan_overhead_below_five_percent(self):
        overhead = scan_overhead(64, 100_000, session_pulses=2e9)
        assert overhead == pytest.approx(64 * 100_000 / 2e9, rel=1e-12)
        assert overhead <= 0.05

    # Each returned a figure: 0.0, -0.00015 and nan.
    @pytest.mark.parametrize("points", [0, -3, math.nan])
    def test_scan_overhead_rejects_a_point_count_by_name(self, points):
        with pytest.raises(ValueError, match=rf"^points={points!r} must be in \[1, "):
            scan_overhead(points, 100_000, session_pulses=2e9)


class TestFringeFitFields:
    @pytest.mark.parametrize("field, value, message", [
        ("depth", math.nan, "finite and > 0"), ("depth", math.inf, "finite and > 0"),
        ("depth", 0.0, "finite and > 0"), ("depth", -1.0, "finite and > 0"),
        ("residual", math.nan, "finite and >= 0"), ("residual", math.inf, "finite and >= 0"),
        ("residual", -3.0, "finite and >= 0"),
    ])
    def test_values_no_fit_produces_rejected_by_name(self, field, value, message):
        fields = {"depth": 0.3, "visibility_est": 0.5, "phase_zero": 0.0, "residual": 0.0,
                  field: value}
        with pytest.raises(ValueError, match=rf"^{field}={value} must be {message}$"):
            FringeFit(**fields)

    def test_smallest_fitted_depth_accepted(self):
        # The refinement's lower bound on the depth.
        assert FringeFit(depth=1e-15, visibility_est=0.5, phase_zero=0.0,
                         residual=0.0).amplitude > 0.0


class TestScanCurveIO:
    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ScanCurve(offsets=grid(16), counts=np.full(16, 11.0), pulses_per_point=10)

    def test_pulses_per_point_above_int64_rejected(self):
        # simulate_scan checks before numpy's binomial overflows on the count
        message = r"pulses_per_point=9223372036854775808 must be in \[1, 2\*\*63 - 1\]"
        with pytest.raises(ValueError, match=message):
            ScanCurve(offsets=grid(16), counts=np.zeros(16), pulses_per_point=2**63)
        with pytest.raises(ValueError, match=message):
            simulate_scan(LUMPED, 0.5, grid(16), 2**63, seed=1)

    def test_non_integral_pulses_per_point_rejected(self):
        message = r"pulses_per_point=2.5 must be in \[1, 2\*\*63 - 1\] and whole"
        with pytest.raises(ValueError, match=message):
            ScanCurve(offsets=grid(16), counts=np.zeros(16), pulses_per_point=2.5)
        with pytest.raises(ValueError, match=message):
            simulate_scan(LUMPED, 0.5, grid(16), 2.5, seed=1)

    def test_nan_count_rejected_on_read(self):
        with pytest.raises(ValueError, match="finite"):
            ScanCurve(offsets=[0.0, 1.0], counts=[math.nan, 5.0], pulses_per_point=10)
