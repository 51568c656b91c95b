"""Reference copy of the bounded Levenberg-Marquardt solver.

This is the loop as first written, with numpy's wrapper functions (np.clip,
np.tile, np.diag, np.all): it evaluates a point alone and its Jacobian in a
separate call, and stops only on an accepted step. link._least_squares
evaluates each point together with its stencil and may stop before a trial,
when the decrease its step predicts is at the cost's rounding floor.
test_least_squares checks that the solver walks this reference's iterates
bit for bit and stops no later, at a cost within COST_GAP (1e-11 relative)
of the reference's final cost, raising what the reference raises.
"""
import numpy as np

from decoyqkd.link import _DIFF_STEP, _FIT_TOL, _MAX_ITERATIONS, FitConvergenceError


def least_squares(residuals, x0, lower, upper):
    """Bounded Levenberg-Marquardt minimum of the sum of squared residuals;
    the arguments and the result are those of link._least_squares."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r = residuals(x[:, None])[0]
    cost, damping, rejected, jac, n = r @ r, 1e-3, 0, None, x.size
    diagonal = np.arange(n)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if jac is None:
            h = _DIFF_STEP * np.maximum(np.abs(x), 1.0)
            ends = np.minimum(x + h, upper), np.maximum(x - h, lower)
            points = np.tile(x[:, None], 2 * n)
            points[diagonal, diagonal], points[diagonal, n + diagonal] = ends
            f = residuals(points)
            jac = ((f[:n] - f[n:]) / (ends[0] - ends[1])[:, None]).T
            gradient, normal = jac.T @ r, jac.T @ jac
            # A column that vanishes (a phase at zero visibility) still gets damped.
            scale = np.maximum(np.diag(normal), np.finfo(float).eps * np.diag(normal).max())
        try:  # singular when every residual is flat in every parameter
            step = np.linalg.solve(normal + damping * np.diag(scale), -gradient)
        except np.linalg.LinAlgError as exc:
            raise FitConvergenceError(f"step {iteration} failed: {exc}") from exc
        trial = np.clip(x + step, lower, upper)
        r_trial = residuals(trial[:, None])[0]
        cost_trial = r_trial @ r_trial
        if not cost_trial <= cost:  # also rejects NaN
            # x10, x100, ... on consecutive rejections: at the cost's rounding
            # floor the steps shrink below _FIT_TOL within a few trials.
            rejected += 1
            damping *= 10.0 ** rejected
            continue
        converged = (cost - cost_trial <= _FIT_TOL * cost
                     or np.all(np.abs(trial - x) <= _FIT_TOL * np.abs(trial)))
        x, r, cost, jac, rejected = trial, r_trial, cost_trial, None, 0
        damping /= 10.0
        if converged:
            return x, iteration, True
    return x, _MAX_ITERATIONS, False
