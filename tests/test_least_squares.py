"""link._least_squares against the reference copy of its loop in reference_lm.

Both solvers run the fringe fit and the link fit on the same generated
inputs. The solver matches the reference: it walks the reference's iterates
and may only stop sooner, at the cost's rounding floor. Each solver's
iterates are found by replaying its point evaluations, one call of the
fit's evaluate per point, which returns the point's residuals and Jacobian.
They are the start, then one trial per step, a trial being accepted when its
cost is at most the current one, as the loop does.
The solver may stop before evaluating a trial, and that trial step counts
among its iterations. Every fit must then
- take no more trial steps than the reference;
- return, to the bit, the point the reference held after that many steps;
- give the same result, bytes, status and warnings when it stops where the
  reference does;
- report convergence, at a cost within COST_GAP of the reference's final
  cost, when it stops where the reference went on or gave up;
- raise what the reference raises before that step;
- return the residuals of its point, the bits a residual call at it gives.
"""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from decoyqkd import FitConvergenceError, LinkModel, ProtocolParams, fit_fringe, simulate_scan
from decoyqkd import calibration, cli, link, tables
from decoyqkd.calibration import scan_intensity_for_peak
from decoyqkd.link import expected_stats, fit_link_report

import reference_lm
from conftest import assert_same_bits, refinements, scipy_refinement

# Largest cost, relative to the reference's final cost, at which the solver may stop.
COST_GAP = 1e-11


def outcome(fit, solver):
    """What fit() gives with `solver` as the refinement of both fits: the
    repr of its result or its exception's class and message, what every
    refinement it ran returned or raised, and the warnings; then, per
    refinement, its point evaluations as (point bytes, cost).

    The residuals of the returned point are computed untraced: the reference
    returns (x, iterations, converged) only, and link._least_squares must
    return these bits as its fourth value."""
    refinements, calls = [], []

    def recorded(evaluate, x0, lower, upper):
        calls.append([])

        def traced(point):
            r, jac = evaluate(point)
            calls[-1].append((point.tobytes(), r @ r))
            return r, jac

        try:
            x, iterations, converged, *returned = solver(traced, x0, lower, upper)
        except link.FitConvergenceError as exc:
            refinements.append(("raised", type(exc), str(exc)))
            raise
        at_x = evaluate(x)[0]
        reference = solver is reference_lm.least_squares
        assert [r.tobytes() for r in returned] == ([] if reference else [at_x.tobytes()])
        refinements.append(("returned", x.tobytes(), iterations, converged))
        return link._LeastSquaresResult(x, iterations, converged, at_x)

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
    """(point bytes, cost) the loop holds after each evaluated trial, index k
    after k trials, replayed from its point evaluations."""
    held = calls[:1]
    for trial in calls[1:]:  # a NaN cost is rejected, as in the loop
        held.append(trial if trial[1] <= held[-1][1] else held[-1])
    return held


def converged_on_last_trial(calls):
    """Whether the last of a loop's point evaluations is an accepted trial
    that meets the loop's convergence test on an accepted step, replayed from
    the evaluations; a solver that stops without it stopped before a trial."""
    if len(calls) < 2:
        return False
    (x, cost), (trial, cost_trial) = held_points(calls[:-1])[-1], calls[-1]
    x, trial = np.frombuffer(x), np.frombuffer(trial)
    return cost_trial <= cost and (cost - cost_trial <= link._FIT_TOL * cost
                                   or (np.abs(trial - x) <= link._FIT_TOL * np.abs(trial)).all())


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
            # A stop before a trial counts that trial step among the iterations.
            taken = steps + (not converged_on_last_trial(new_calls))
            assert new[1:] == (held[steps][0], taken, True) and taken <= old_steps
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
# A scan saturated at 9-10 clicks of 10 pulses: the fit runs down a flat
# valley, off every bound, where both solvers walk the same 100 steps (to
# depth 56.8, V 0.959) and the fit raises FitConvergenceError on each side.
@example(visibility=0.0, y0=0.0, peak=0.984375, points=8, pulses=10, noiseless=False,
         zero=0.0, seed=84093302)
# A flat scan of 8 points at a click probability of 0.988, 1.9e8 pulses each:
# the fit (V 1.5e-4, a barely constrained phase) stops at its seed, before its
# first trial, at cost 1.8390355381290796e-10, 1.3e-11 relative above the
# cost the reference reaches. A draw found this once; it is kept here so that
# it fails in every run.
@example(visibility=0.0, y0=0.0, peak=0.98828125, points=8, pulses=194693629,
         noiseless=False, zero=0.0, seed=1).xfail(
    raises=AssertionError, reason="stops in a flat valley beyond COST_GAP of the reference")
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
        lambda: link._least_squares(lambda p: (np.zeros(2), np.zeros((2, 1))), [1.0], [0.0],
                                    [2.0]))
    assert result == (link.FitConvergenceError,
                      "step 1 failed: Singular matrix") and reference_steps == [0]


def exact_solution(matrix, rhs):
    """The solution of a 3x3 system of floats, by Cramer's rule in exact
    rationals, rounded once to floats."""
    a, b = [[Fraction(v) for v in row] for row in matrix], [Fraction(v) for v in rhs]

    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(a)
    return np.array([float(det([row[:i] + [v] + row[i + 1:] for row, v in zip(a, b)]) / d)
                     for i in range(3)])


@given(rows=st.integers(3, 40), shape=st.sampled_from(["random", "vanishing", "parallel"]),
       column=st.integers(0, 2), factor=st.floats(0.25, 3.0), exponent=st.floats(-300.0, 0.0),
       k=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
@example(rows=3, shape="vanishing", column=1, factor=1.0, exponent=-300.0, k=0, seed=0)
@example(rows=12, shape="parallel", column=2, factor=1.0, exponent=-16.0, k=0, seed=0)
def test_cholesky_core_solves_damped_normal_equations(rows, shape, column, factor, exponent,
                                                       k, seed):
    # The damped normal equations of a random Jacobian with a column scaled
    # towards zero, or one made near-parallel to another by adding noise of
    # 1e-16 to 1e-1, as _least_squares builds them at damping 1e-3 * 10^k.
    # The oracle is the exact solution of the same floats, and the distance
    # is the damped matrix's energy norm. Near-parallel columns at damping
    # 1e-3 give condition numbers of about 3e3: over 120,000 such draws at
    # damping 1e-3 and 1e-2, the core's largest component was up to 3.6e-12
    # off the oracle's (numpy.linalg.solve's LU up to 4.5e-11), while its
    # energy-norm distance stayed below 1.6e-13.
    rng = np.random.default_rng(seed)
    jac = rng.standard_normal((rows, 3))
    if shape == "vanishing":
        jac[:, column] *= 10.0 ** exponent
    elif shape == "parallel":
        jac[:, column] = (factor * jac[:, (column + 1) % 3]
                          + 10.0 ** (exponent / 20.0 - 1.0) * rng.standard_normal(rows))
    normal, rhs = jac.T @ jac, -(jac.T @ rng.standard_normal(rows))
    diagonal = normal.diagonal()
    damped = normal + 1e-3 * 10.0 ** k * np.diag(np.maximum(diagonal, link._EPS * diagonal.max()))
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = damped.tolist()
    x = link._cholesky_solve(g00, g01, g02, g11, g12, g22, *rhs.tolist())
    # A column scaled by at most 1e-8 has a diagonal entry below eps of the
    # largest, so it is damped by eps of that and its pivot is rounding
    # noise: the core refuses it. Damping of at least 1e-3 of the diagonal
    # keeps every other draw well conditioned.
    if shape != "vanishing" or exponent <= -8.0:
        assert (x is None) == (shape == "vanishing")
    if x is not None:
        x = np.asarray(x)
        gap = x - exact_solution(damped.tolist(), rhs.tolist())
        assert math.sqrt(gap @ damped @ gap) <= 1e-12 * math.sqrt(x @ damped @ x)


def identity_with(i, j, value):
    """The 3x3 identity with entries (i, j) and (j, i) set to value."""
    matrix = np.eye(3).tolist()
    matrix[i][j] = matrix[j][i] = value
    return matrix


@pytest.mark.parametrize("matrix", [
    [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 9.0]],  # rank 1
    [[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 0.0]],  # indefinite
    [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],  # a vanishing column
    (1e-300 * np.eye(3)).tolist(),  # sums that round in the subnormal range
    [[1.0, 0.0, 0.0], [0.0, 1e-310, 0.0], [0.0, 0.0, 1.0]],  # a subnormal pivot
    *[identity_with(i, j, value)
      for value in (math.nan, math.inf, -math.inf) for i in range(3) for j in range(i, 3)],
])
def test_cholesky_core_refuses_ill_conditioned_systems(matrix):
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = matrix
    assert link._cholesky_solve(g00, g01, g02, g11, g12, g22, 1.0, 2.0, 3.0) is None


def test_refinements_stop_within_their_pinned_trial_steps():
    # The stop at the rounding floor saves the 4-5 rejected trials the loop
    # made after the minimum: 12 for the bundled fit, 8.22 on average for the
    # calibrate defaults' fringe fits, before it. The bundled fit stops before
    # evaluating its fourth trial step. The fringe fit's Gauss-Newton seed is
    # the minimum, so each of these fits stops before its first trial (3.22
    # trial steps on average with the log-fit seed before it).
    bundled = fit_link_report(tables.bundled_reference_table(),
                              tables.BUNDLED_REFERENCE_PARAMS)
    assert bundled.iterations == 4
    model = bundled.model
    strong = scan_intensity_for_peak(model, peak=0.5)
    offsets = [i * 2.0 * math.pi / 63 for i in range(64)]
    with refinements() as recorded:
        for seed in range(64):
            fit_fringe(simulate_scan(model, strong, offsets, 100_000, seed=seed))
    trials = [refinement.result.iterations for refinement in recorded]
    assert len(trials) == 64 and sum(trials) / 64 <= 1.0


def test_calibrate_fringe_refinements_call_no_numpy_solve(capsys):
    # The fringe fit's seed is its minimum at the calibrate defaults, so its
    # refinement stops at the first predicted-decrease test, which the
    # Python-float Cholesky step decides; numpy.linalg.solve is called only
    # for a step whose trial is evaluated. calibrate runs the bundled link
    # fit, then the fringe fit of its default scan.
    with refinements() as recorded:
        for seed in range(50):
            assert cli.main(["calibrate", "--seed", str(seed)]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(recorded) == 100
    assert [fit.solves for fit in recorded[1::2]] == [0] * 50


def test_noisy_saturating_refinements_take_no_more_trial_steps():
    # On noisy, strongly saturating scans (10^4 pulses per point at peak 0.9
    # over 16 points) two fixed Gauss-Newton steps, each an lstsq solve, left
    # the seed short of the minimum and the refinement walked the rest: 401
    # trial steps over these 200 scans (2.005 per fit, at most 4). Steps run
    # to convergence leave it 202.
    offsets = np.linspace(0.0, 2.0 * math.pi, 16)
    with refinements() as recorded:
        for seed in range(200):
            model = LinkModel(alpha_db_per_km=0.0, excess_loss_db=0.0, eta_det=1.0, y0=0.0,
                              visibility=0.5 + 0.48 * (seed % 25) / 24)
            fit_fringe(simulate_scan(model, scan_intensity_for_peak(model, 0.9), offsets,
                                     10_000, seed=seed))
    trials = [refinement.result.iterations for refinement in recorded]
    assert len(trials) == 200 and sum(trials) <= 401


def evaluations(refinement):
    """(point bytes, cost) of each point a recorded refinement evaluated, one
    per evaluate call."""
    return [(point.tobytes(), r @ r) for point, r, _ in refinement.calls]


def stopped(refinement):
    """How a recorded refinement stopped: on an accepted step, before
    evaluating a trial (its predicted decrease at the rounding floor), or out
    of iterations."""
    result, trials = refinement.result, evaluations(refinement)
    if not result.converged:
        return "out of iterations"
    if converged_on_last_trial(trials):
        assert (trials[-1][0], result.iterations) == (result.x.tobytes(), len(trials) - 1)
        return "accepted"
    # The start, then every trial step but the one stopped before.
    assert result.iterations == len(trials)
    return "predicted"


@pytest.mark.parametrize("argv, path", [
    (["calibrate", "--seed", "3"], "predicted"),
    (["calibrate", "--visibility", "0.5", "--points", "9", "--seed", "2"], "predicted"),
    (["calibrate", "--pulses-per-point", "100", "--seed", "60"], "accepted"),
    # exp(-x) has its infimum at x = inf: every Gauss-Newton step adds about 1
    # to x and divides the cost by e^2, so neither tolerance is ever met.
    (None, "out of iterations"),
])
def test_returned_residuals_are_those_of_the_point(solver_calls, capsys, argv, path):
    if argv is None:
        link._least_squares(lambda point: (np.exp(-point), -np.exp(-point)[:, None]), [0.0],
                            [-1.0], [np.inf])
    else:  # the fringe fit of a pinned calibrate run
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
    refinement = solver_calls[-1]
    assert stopped(refinement) == path
    result, evaluate = refinement.result, refinement.problem[0]
    assert result.residuals.tobytes() == evaluate(result.x)[0].tobytes()


def checked_rows(fit):
    """Runs fit() and checks the residuals of every point the link fit's
    refinement evaluated, those of one that raised too. Each of its residual
    calls evaluates a point with its stencil: each point's row of a call has
    the bits of a call at that point alone. Returns the widths of the
    checked calls."""
    fit_residuals, residual_calls = link._fit_residuals, []

    def spy(alpha, lumped, visibility, *rest):
        f = fit_residuals(alpha, lumped, visibility, *rest)
        residual_calls.append(((alpha, lumped, visibility, *rest), f))
        return f

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(link, "_fit_residuals", spy)
        try:
            fit()
        except (ValueError, RuntimeError):
            pass
    widths = []
    for (*point, y0, rows, params), f in residual_calls:
        for column in range(len(point[0])):
            alone = fit_residuals(*(p[column:column + 1] for p in point), y0, rows, params)
            assert_same_bits(f[column], alone[0])
        widths.append(len(point[0]))
    return widths


# The link fit evaluates a point together with its stencil in one residual
# call, so the residuals the solver keeps for the point are bit-safe only if
# that residual function is elementwise per point, whatever the point's
# position in the call. Row counts that are not multiples of a SIMD width
# leave vector tails.
@given(alpha=st.floats(0.05, 0.40), lumped=st.floats(0.0, 40.0),
       visibility=st.floats(0.80, 0.999), y0=st.sampled_from([0.0, 5e-7]),
       lengths=st.lists(st.integers(0, 1600).map(lambda k: k / 10), min_size=3, max_size=12,
                        unique=True))
def test_link_residual_rows_are_single_point_calls(alpha, lumped, visibility, y0, lengths):
    params = ProtocolParams()
    truth = LinkModel(alpha_db_per_km=alpha, excess_loss_db=lumped, eta_det=1.0, y0=y0,
                      visibility=visibility)
    table = np.array([expected_stats(truth, params, length) for length in lengths])
    assert checked_rows(lambda: fit_link_report(table, params, y0))


def test_one_residual_call_per_evaluated_point(capsys):
    # Each point a refinement evaluates, the start and every evaluated trial,
    # goes to one evaluate call, which returns its residuals and Jacobian, so
    # an accepted step's Jacobian needs no call of its own. The link fit's
    # makes one residual call of width 2n+1 = 7 with the point's stencil.
    # calibrate runs the bundled link fit, then the fringe fit of its default
    # scan.
    fit_residuals, widths = link._fit_residuals, []

    def spy(alpha, *rest):
        widths.append(len(alpha))
        return fit_residuals(alpha, *rest)

    with refinements() as recorded, pytest.MonkeyPatch.context() as patch:
        patch.setattr(link, "_fit_residuals", spy)
        for seed in range(8):
            assert cli.main(["calibrate", "--seed", str(seed)]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(recorded) == 16
    calls = [len(fit.calls) for fit in recorded]
    assert calls[::2] == [4] * 8 and widths == [7] * 32  # the bundled link fit, 9 calls before
    assert all(fit.result.iterations == 4 for fit in recorded[::2])
    for fit, evaluated in zip(recorded[1::2], calls[1::2]):
        # A stop before a trial counts that trial step but evaluates no point.
        trials = fit.result.iterations - (not converged_on_last_trial(evaluations(fit)))
        assert evaluated == 1 + trials


# ROADMAP item 2: the solver clips the whole damped step to the bounds, so
# while a parameter sits on its bound with the gradient pointing outward the
# clipped steps zig-zag in the others. These fits run out of iterations or
# stop short of the constrained minimum; a projected step converges in each.
AT_A_BOUND = pytest.mark.xfail(strict=True, raises=AssertionError,
                               reason="ROADMAP item 2: clipped steps stall at a bound")


@pytest.mark.parametrize("seed", [pytest.param("0", marks=AT_A_BOUND), "5"])
def test_calibrate_at_full_visibility_converges(seed):
    # Seed 0 exits 5: "fringe fit did not converge in 100 iterations". Seed 5
    # converges at V = 1.0, where the fringe fit's Jacobian column in V is
    # exact rather than a one-sided difference.
    assert cli.main(["calibrate", "--visibility", "1", "--seed", seed]) == cli.EXIT_OK


@AT_A_BOUND
def test_link_fit_with_its_optimum_at_full_visibility_converges():
    # It exits 5; a projected step converges in 5 iterations at V = 1.0, with
    # objective 0.3912076931027028.
    assert cli.main(["fit", "--fit-y0", "4e-6"]) == cli.EXIT_OK


@pytest.mark.xfail(strict=True, raises=FitConvergenceError,
                   reason="ROADMAP item 2: clipped steps stall at a bound")
def test_fringe_fit_at_full_visibility_stops_at_the_constrained_minimum():
    # The fit runs out of its 100 iterations at V = 1.0, at cost 4.67071e-4;
    # scipy's trf reaches 4.65976e-4 on the same problem.
    model = LinkModel(alpha_db_per_km=0.2, excess_loss_db=0.0, eta_det=1.0, y0=5e-7,
                      visibility=0.999)
    offsets = [i * 2.0 * math.pi / 8 for i in range(9)]
    curve = simulate_scan(model, scan_intensity_for_peak(model, 0.3), offsets, 1000, seed=20)
    with refinements() as recorded:
        fit_fringe(curve)
    [refinement] = recorded
    evaluate, r = refinement.problem[0], refinement.result.residuals
    scipy_x = scipy_refinement(refinement.problem, ftol=1e-15, xtol=1e-15, gtol=1e-15)
    at_scipy = evaluate(scipy_x)[0]
    assert r @ r <= (at_scipy @ at_scipy) * (1.0 + 1e-9)


@pytest.mark.xfail(strict=True, raises=FitConvergenceError,
                   reason="ROADMAP item 2: clipped steps stall at a bound")
def test_link_fit_with_its_optimum_at_zero_lumped_loss_converges():
    # Drawn from default_rng(25), in this order: alpha U(0.15, 0.25) dB/km,
    # lumped loss U(0, 20) dB and V U(0.80, 0.999), with y0 5e-7 (the truth is
    # 0.16607, 0.0062, 0.84310); then n = integers(3, 9) lengths, sorted
    # 5 * choice(27, n, replace=False) km; then per length each of
    # expected_stats' four rates times exp(normal(0, 0.05)), capped at 1. The
    # fit runs out of its 100 iterations with the lumped loss at 0.0, its best
    # point alpha 0.16514, V 0.84338 at cost 0.0262090; scipy's trf reaches
    # 0.0261701 at alpha 0.16493, V 0.84305 on the same bound.
    table = np.array([
        [0.0, 0.2721883957917457, 0.09654159812716052, 0.09270647298603844,
         0.08880624768741155],
        [15.0, 0.14913170256176547, 0.09005728968819435, 0.0575911939630901,
         0.0869386997153904],
        [25.0, 0.10388955709419954, 0.08368907979951531, 0.036395979354764324,
         0.08075348955485355],
        [30.0, 0.0896106571962681, 0.0827265079632278, 0.032263116681227416,
         0.08059901042532835],
        [40.0, 0.06217425936177088, 0.07472488048643576, 0.01989219016018936,
         0.07705649223125396],
        [70.0, 0.020691228886076107, 0.07634083001219048, 0.0073916640917427116,
         0.07948302984689826],
    ])
    fit = fit_link_report(table, ProtocolParams())
    assert fit.objective <= 0.02617014570842783 * (1.0 + 1e-9)
