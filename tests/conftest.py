from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import settings

from decoyqkd import ProtocolParams, fit_link, transmittance
from decoyqkd.link import _LeastSquaresResult, _negated_signal_click, coherent_click_probability
from decoyqkd.tables import bundled_reference_text, read_measured_stats

# Property tests run fits and Monte Carlo sessions whose first call can take
# longer than hypothesis' default deadline; example counts stay the defaults.
# A failure prints its @reproduce_failure blob, so a CI log can replay it.
settings.register_profile("decoyqkd", deadline=None, print_blob=True)
settings.load_profile("decoyqkd")

# Reference per-length bounds the bundled dataset must reproduce:
# (length_km, s1_lower, e1_upper, r_lower). The 83.7 km yield entry is
# the recomputed 1.69e-4; the printed 1.69e-5 contradicts the same
# row's e1_upper of 0.0409.
REFERENCE_BOUNDS = [
    (123.6, 3.78e-5, 0.0607, 9.59e-7),
    (108.0, 8.09e-5, 0.0426, 4.89e-6),
    (97.0, 1.41e-4, 0.0399, 9.29e-6),
    (83.7, 1.69e-4, 0.0409, 1.07e-5),
    (62.1, 4.46e-4, 0.0211, 4.77e-5),
    (49.2, 1.09e-3, 0.0247, 1.06e-4),
]


@pytest.fixture(scope="session")
def reference_table():
    return read_measured_stats(bundled_reference_text().splitlines())


@pytest.fixture(scope="session")
def default_params():
    return ProtocolParams()


@pytest.fixture(scope="session")
def fitted_model(reference_table, default_params):
    return fit_link(reference_table, default_params)


@dataclass
class Refinement:
    """One link._least_squares run: its problem (evaluate, x0, lower, upper),
    a copy of each evaluate call's (point, residuals, Jacobian), and its
    result, None while it runs or if it raised."""
    problem: tuple
    calls: list = field(default_factory=list)
    result: _LeastSquaresResult | None = None


@contextmanager
def refinements():
    """Records, as a list of Refinement, every refinement that link's and
    calibration's fits run in the block. A refinement is listed before it
    runs, so the calls of one that raises are kept too."""
    from decoyqkd import calibration, link

    solve, recorded = link._least_squares, []

    def recorder(evaluate, x0, lower, upper):
        refinement = Refinement((evaluate, x0, lower, upper))
        recorded.append(refinement)

        def traced(point):
            r, jac = evaluate(point)
            refinement.calls.append((point.copy(), r.copy(), jac.copy()))
            return r, jac

        refinement.result = solve(traced, x0, lower, upper)
        return refinement.result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(link, "_least_squares", recorder)
        patch.setattr(calibration, "_least_squares", recorder)
        yield recorded


@pytest.fixture
def solver_calls():
    """refinements() over the whole test."""
    with refinements() as recorded:
        yield recorded


def scipy_refinement(problem, **tolerances):
    """scipy's bounded least squares (trf) on a recorded refinement problem,
    handed the problem's residuals and Jacobian."""
    from scipy.optimize import least_squares

    evaluate, x0, lower, upper = problem
    return least_squares(lambda x: evaluate(x)[0], x0, jac=lambda x: evaluate(x)[1],
                         bounds=(lower, upper), method="trf", **tolerances).x


def not_converged(evaluate, x0, lower, upper):
    """Stand-in refinement that runs out of iterations at its start."""
    x = np.asarray(x0, dtype=float)
    return _LeastSquaresResult(x, 100, False, evaluate(x)[0])


def stencil_fringe_residuals(curve, points):
    """The fringe fit's count-fraction residuals of k points, an (n, k) array,
    as the (k, m) residual function that its refinement once differenced."""
    depth, vis, zero = points[..., None]
    terms = curve.offsets - zero
    return -(curve.counts / curve.pulses_per_point) - _negated_signal_click(
        2.0 * depth, vis, np.cos(terms, out=terms), out=terms)


def model_click(model, mean_photons, phase, length_km=0.0):
    """Click law of a pulse of mean `mean_photons` sent through `model` over `length_km`."""
    return coherent_click_probability(transmittance(model, length_km) * mean_photons,
                                      model.visibility, model.y0, phase)


def assert_same_bits(actual, expected) -> None:
    """Equal arrays or scalars, telling -0.0 from 0.0; any NaN matches any NaN."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()
