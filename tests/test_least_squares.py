"""link._least_squares against the reference copy of its loop in reference_lm.

Both solvers run the fringe fit and the link fit on the same generated
inputs. The solver matches the reference: it walks the reference's iterates
and may only stop sooner, at the cost's rounding floor. The reference's
iterates are found by replaying its single-point residual calls: the start,
then one trial per step, a trial being accepted when its cost is at most the
current one, as the loop does. Every fit must then
- take no more trial steps than the reference;
- return, to the bit, the point the reference held after that many steps;
- give the same result, bytes, status and warnings when it stops where the
  reference does;
- report convergence, at a cost within COST_GAP of the reference's final
  cost, when it stops where the reference went on or gave up;
- raise what the reference raises before that step.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from decoyqkd import LinkModel, ProtocolParams, fit_fringe, simulate_scan
from decoyqkd import calibration, link, tables
from decoyqkd.calibration import scan_intensity_for_peak
from decoyqkd.link import expected_stats, fit_link_report

import reference_lm

# Largest cost, relative to the reference's final cost, at which the solver may stop.
COST_GAP = 1e-11


def outcome(fit, solver):
    """What fit() gives with `solver` as the refinement of both fits: the
    repr of its result or its exception's class and message, what every
    refinement it ran returned or raised, and the warnings; then, per
    refinement, its single-point residual calls as (point bytes, cost)."""
    refinements, calls = [], []

    def recorded(residuals, x0, lower, upper):
        calls.append([])

        def traced(points):
            f = residuals(points)
            if points.shape[1] == 1:
                calls[-1].append((points[:, 0].tobytes(), f[0] @ f[0]))
            return f

        try:
            x, iterations, converged = solver(traced, x0, lower, upper)
        except link.FitConvergenceError as exc:
            refinements.append(("raised", type(exc), str(exc)))
            raise
        refinements.append(("returned", x.tobytes(), iterations, converged))
        return x, iterations, converged

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        patch.setattr(link, "_least_squares", recorded)
        patch.setattr(calibration, "_least_squares", recorded)
        try:
            result = repr(fit())
        except (ValueError, RuntimeError) as exc:
            result = (type(exc), str(exc))
    return (result, refinements, [(w.category, str(w.message)) for w in caught]), calls


def held_points(calls):
    """(point bytes, cost) the loop holds after each trial step, index k
    after k steps, replayed from its single-point residual calls."""
    held = calls[:1]
    for trial in calls[1:]:  # a NaN cost is rejected, as in the loop
        held.append(trial if trial[1] <= held[-1][1] else held[-1])
    return held


def assert_stops_no_later_than_reference(fit):
    """Runs fit() with both solvers, asserts what the module docstring lists
    and returns the outcome with link._least_squares and the reference's
    trial steps of each refinement."""
    expected, expected_calls = outcome(fit, reference_lm.least_squares)
    actual, actual_calls = outcome(fit, link._least_squares)
    assert len(actual[1]) == len(expected[1])
    reference_steps = [len(calls) - 1 for calls in expected_calls]
    for new, old, calls, old_steps, new_calls in zip(actual[1], expected[1], expected_calls,
                                                     reference_steps, actual_calls):
        held, steps = held_points(calls), len(new_calls) - 1
        if old[0] == "returned":
            assert (old[1], old[2]) == (held[-1][0], old_steps)
        assert steps <= old_steps
        if new[0] == "raised":
            assert (new, steps) == (old, old_steps) and actual == expected
        elif old[0] == "returned" and (steps, new[3]) == (old_steps, old[3]):
            assert actual == expected
        else:  # stopped at the rounding floor where the reference went on or gave up
            assert new[1:] == (held[steps][0], steps, True)
            cost, final_cost = held[steps][1], held[-1][1]
            assert cost - final_cost <= COST_GAP * final_cost, (cost, final_cost)
            assert set(actual[2]) <= set(expected[2])
    return actual, reference_steps


@given(visibility=st.floats(0.0, 1.0), y0=st.sampled_from([0.0, 5e-7, 1e-4]),
       peak=st.floats(0.01, 0.999), points=st.integers(8, 200),
       pulses=st.integers(10, 10**9), noiseless=st.booleans(),
       zero=st.floats(0.0, 2.0 * math.pi), seed=st.integers(0, 2**32 - 1))
@example(visibility=1.0, y0=0.0, peak=0.5, points=64, pulses=10, noiseless=False,
         zero=1.0, seed=0)
@example(visibility=0.0, y0=5e-7, peak=0.5, points=64, pulses=10**6, noiseless=True,
         zero=0.0, seed=0)
def test_fringe_fit_matches_reference_solver(visibility, y0, peak, points, pulses, noiseless,
                                             zero, seed):
    model = LinkModel(alpha_db_per_km=0.0, excess_loss_db=0.0, eta_det=1.0, y0=y0,
                      visibility=visibility)
    curve = simulate_scan(model, scan_intensity_for_peak(model, peak),
                          np.linspace(0.0, 2.0 * math.pi, points), pulses, seed=seed,
                          true_phase_zero=zero, noiseless=noiseless)
    assert_stops_no_later_than_reference(lambda: fit_fringe(curve))


@given(alpha=st.floats(0.05, 0.40), lumped=st.floats(0.0, 40.0),
       visibility=st.floats(0.80, 0.999), y0=st.sampled_from([0.0, 5e-7]),
       lengths=st.lists(st.integers(0, 1600).map(lambda k: k / 10), min_size=3, max_size=8,
                        unique=True),
       noise=st.sampled_from([0.0, 1e-3, 0.05]), seed=st.integers(0, 2**32 - 1))
@example(alpha=0.2, lumped=16.0, visibility=0.98, y0=5e-7,
         lengths=[30.0, 55.0, 80.0, 105.0, 125.0], noise=0.0, seed=0)
def test_link_fit_matches_reference_solver(alpha, lumped, visibility, y0, lengths, noise,
                                           seed):
    params = ProtocolParams()
    truth = LinkModel(alpha_db_per_km=alpha, excess_loss_db=lumped, eta_det=1.0, y0=y0,
                      visibility=visibility)
    table = np.array([expected_stats(truth, params, length) for length in lengths])
    # Relative noise on the rates and absolute noise on the QBERs, which stay
    # in [0, 1/2]; the lengths stay exact.
    z = np.random.default_rng(seed).standard_normal(table[:, 1:].shape)
    table[:, 1::2] *= np.exp(noise * z[:, ::2])
    table[:, 2::2] = np.clip(table[:, 2::2] + 0.1 * noise * z[:, 1::2], 0.0, 0.5)
    assert_stops_no_later_than_reference(lambda: fit_link_report(table, params, y0))


def test_outcome_records_iterations_and_exceptions(reference_table, default_params):
    (result, refinements, caught), reference_steps = assert_stops_no_later_than_reference(
        lambda: fit_link_report(reference_table, default_params))
    assert result.startswith("LinkFit(") and len(refinements) == 1 and not caught
    assert refinements[0][2] < reference_steps[0]
    flat = [[0.0, 1.0, 0.0, 1.0, 0.0]] * 3
    (result, refinements, _), _ = assert_stops_no_later_than_reference(
        lambda: fit_link_report(flat, default_params))
    assert result[0] is link.UnidentifiableDataError and not refinements


def test_reference_singular_step_is_raised_too():
    # Every residual is flat in every parameter, so the first damped solve fails.
    (result, refinements, _), reference_steps = assert_stops_no_later_than_reference(
        lambda: link._least_squares(lambda p: np.zeros((p.shape[1], 2)), [1.0], [0.0], [2.0]))
    assert result == (link.FitConvergenceError,
                      "step 1 failed: Singular matrix") and reference_steps == [0]


def test_refinements_stop_within_their_pinned_trial_steps():
    # The stop at the rounding floor saves the 4-5 rejected trials the loop
    # made after the minimum: 12 for the bundled fit, 8.22 on average for the
    # calibrate defaults' fringe fits, before it.
    bundled = fit_link_report(tables.bundled_reference_table(),
                              tables.BUNDLED_REFERENCE_PARAMS)
    assert bundled.iterations == 4
    model = bundled.model
    strong = scan_intensity_for_peak(model, peak=0.5)
    offsets = [i * 2.0 * math.pi / 63 for i in range(64)]
    trials = []
    solve = link._least_squares

    def counted(*args):
        x, iterations, converged = solve(*args)
        trials.append(iterations)
        return x, iterations, converged

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calibration, "_least_squares", counted)
        for seed in range(64):
            fit_fringe(simulate_scan(model, strong, offsets, 100_000, seed=seed))
    assert len(trials) == 64 and sum(trials) / 64 <= 4.5
