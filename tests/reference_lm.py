"""Reference copy of the bounded Levenberg-Marquardt solver.

This is the loop as first written, with numpy's wrapper functions (np.clip,
np.diag, np.all), and it stops only on an accepted step. link._least_squares
may stop before a trial, when the decrease its step predicts is at the
cost's rounding floor; for three parameters it first makes that test on a
step from its closed-form Cholesky solve in Python floats, and it takes
every step whose trial it evaluates from np.linalg.solve, as this loop
does, so its trials keep this loop's bits. Both take the fit's evaluate,
which returns a point's residuals and Jacobian, and call it once per point
they evaluate.
test_least_squares checks that the solver walks this reference's iterates
bit for bit and stops no later, at a cost within COST_GAP (1e-11 relative)
of the reference's final cost, raising what the reference raises.
"""
import numpy as np

from decoyqkd.link import _FIT_TOL, _MAX_ITERATIONS, FitConvergenceError


def least_squares(evaluate, x0, lower, upper):
    """Bounded Levenberg-Marquardt minimum of the sum of squared residuals;
    the arguments are those of link._least_squares, the result its first
    three values (x, iterations, converged)."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r, jac = evaluate(x)
    cost, damping, rejected, normal = r @ r, 1e-3, 0, None
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if normal is None:
            gradient, normal = jac.T @ r, jac.T @ jac
            # A column that vanishes (a phase at zero visibility) still gets damped.
            scale = np.maximum(np.diag(normal), np.finfo(float).eps * np.diag(normal).max())
        try:  # singular when every residual is flat in every parameter
            step = np.linalg.solve(normal + damping * np.diag(scale), -gradient)
        except np.linalg.LinAlgError as exc:
            raise FitConvergenceError(f"step {iteration} failed: {exc}") from exc
        trial = np.clip(x + step, lower, upper)
        r_trial, jac_trial = evaluate(trial)
        cost_trial = r_trial @ r_trial
        if not cost_trial <= cost:  # also rejects NaN
            # x10, x100, ... on consecutive rejections: at the cost's rounding
            # floor the steps shrink below _FIT_TOL within a few trials.
            rejected += 1
            damping *= 10.0 ** rejected
            continue
        converged = (cost - cost_trial <= _FIT_TOL * cost
                     or np.all(np.abs(trial - x) <= _FIT_TOL * np.abs(trial)))
        x, r, jac, cost, rejected, normal = trial, r_trial, jac_trial, cost_trial, 0, None
        damping /= 10.0
        if converged:
            return x, iteration, True
    return x, _MAX_ITERATIONS, False
