"""Analytic model of the fiber link and single-detector interferometric receiver.

The only module that writes the detection model. A photon arriving with
phase difference d on a fringe of visibility V is detected with
probability eta*(1 + V*cos(d))/2, eta being the end-to-end transmittance
(fiber attenuation, fixed excess loss, detector efficiency); a dark count
of probability y0 per gate clicks independently, so a pulse clicks with
probability y0 + (1 - y0) * P(a signal photon is detected). For exactly
n photons (photon_click_probability, drawn by the Monte Carlo) P is
1 - (1 - eta*(1 + V*cos(d))/2)^n; its Poisson mixture at mean photon
number m (coherent_click_probability) is 1 - exp(-eta*m*(1 + V*cos(d))/2).
Both are evaluated through expm1 and log1p, so they keep full relative
precision however few photons arrive. Expected gains average over the
uniform phase differences of PHASE_GRID; the QBER is the fraction of
matched-basis clicks at the destructive phase.

The laws broadcast over numpy arrays. fit_link inverts a table of
measured rates into (attenuation, lumped excess loss, visibility) with
the dark rate held fixed: a straight line through the log gains and the
QBER at the shortest length give the start, and _least_squares, a
bounded Levenberg-Marquardt refinement in numpy that calibration's
fringe fit shares, finishes it. sweep_key_rate feeds the modelled rates
of its whole grid, and of each bisection step, through the column bound
chain (estimator.analyze_columns) to locate the largest fiber length
with a positive secure rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimator import MeasuredStats, ProtocolParams, analyze_columns, require_finite

__all__ = [
    "PHASE_GRID",
    "LinkModel",
    "LinkFit",
    "LengthSweep",
    "UnidentifiableDataError",
    "FitConvergenceError",
    "transmittance",
    "coherent_click_probability",
    "photon_click_probability",
    "click_probability",
    "mean_photons_for_click",
    "expected_gain",
    "expected_qber",
    "expected_stats",
    "fit_objective",
    "fit_link",
    "fit_link_report",
    "sweep_key_rate",
]

# Phase differences of the four-phase modulation; index k is k*pi/2, so
# index 0 is constructive and index 2 destructive interference.
PHASE_GRID = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)

# Relative step of the central-difference Jacobian of _least_squares: it
# balances the rounding error (eps/h) against the truncation error (h^2).
_DIFF_STEP = np.finfo(float).eps ** (1.0 / 3.0)
# Relative change of cost and parameters below which _least_squares stops.
_FIT_TOL = 1e-15
# Trial steps before _least_squares gives up; the fits here take 2 to 16.
_MAX_ITERATIONS = 100
# Shortest spread of fiber lengths from which fit_link identifies the
# attenuation: lengths a few ulps apart leave alpha at an arbitrary bound.
_MIN_LENGTH_SPAN_KM = 0.1


class UnidentifiableDataError(ValueError):
    """The measured table cannot constrain the link parameters."""


class FitConvergenceError(RuntimeError):
    """A least-squares fit ran out of iterations before meeting its tolerance."""


@dataclass(frozen=True)
class LinkModel:
    """Physical channel and detector description.

    alpha_db_per_km   fiber attenuation (dB/km)
    excess_loss_db    fixed insertion loss of receiver optics (dB)
    eta_det           detector efficiency
    y0                dark-count probability per gate
    visibility        interference fringe visibility
    """

    alpha_db_per_km: float = 0.2
    excess_loss_db: float = 0.0
    eta_det: float = 1.0
    y0: float = 5e-7
    visibility: float = 0.99

    def __post_init__(self) -> None:
        require_finite(alpha_db_per_km=self.alpha_db_per_km,
                       excess_loss_db=self.excess_loss_db)
        if self.alpha_db_per_km < 0:
            raise ValueError(f"alpha_db_per_km={self.alpha_db_per_km} must be >= 0")
        if not 0.0 <= self.eta_det <= 1.0:
            raise ValueError(f"eta_det={self.eta_det} must be in [0, 1]")
        if not 0.0 <= self.y0 <= 1.0:
            raise ValueError(f"y0={self.y0} must be in [0, 1]")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility={self.visibility} must be in [0, 1]")


@dataclass(frozen=True)
class LinkFit:
    """Fitted link model and the number of trial steps its refinement took."""

    model: LinkModel
    iterations: int


@dataclass(frozen=True)
class LengthSweep:
    """Key rate against fiber length plus the refined secure-distance cutoff.

    cutoff_km is the largest length with a positive secure rate,
    located to 0.1 km between a positive-rate grid point and the first
    non-positive one; None when the grid contains no such bracket
    (all-positive or all-non-positive curves).
    """

    lengths: np.ndarray
    rates: np.ndarray
    cutoff_km: float | None


def _transmittance(alpha_db_per_km, excess_loss_db, eta_det, length_km):
    loss_db = alpha_db_per_km * length_km + excess_loss_db
    return eta_det * 10.0 ** (-loss_db / 10.0)


def transmittance(model: LinkModel, length_km: float) -> float:
    """End-to-end transmittance eta_det * 10^-(alpha*L + excess)/10."""
    if length_km < 0:
        raise ValueError(f"length_km={length_km} must be >= 0")
    return float(_transmittance(model.alpha_db_per_km, model.excess_loss_db,
                                model.eta_det, length_km))


def _float_if_scalar(value):
    return float(value) if np.ndim(value) == 0 else value


def _fringe(scale, visibility, phase_diff):
    """scale*(1 + V*cos(d))/2: detection probability per photon for scale=eta,
    mean detected photons per pulse for scale=eta*m."""
    # Halving scale rather than the product saves an array operation when
    # scale is a scalar; scaling by 2 is exact, so the bits are the same.
    return scale / 2.0 * (1.0 + visibility * np.cos(phase_diff))


def _with_darks(y0, signal_click):
    """Click probability given the probability that a signal photon is detected."""
    return y0 + (1.0 - y0) * signal_click


def coherent_click_probability(arriving_photons, visibility, y0, phase_diff):
    """Click probability of a coherent pulse whose mean photon number at the
    receiver is arriving_photons (eta*m); the arguments broadcast."""
    # Negating arriving_photons rather than the fringe saves an array operation.
    return _float_if_scalar(
        _with_darks(y0, -np.expm1(_fringe(-arriving_photons, visibility, phase_diff))))


def photon_click_probability(eta, visibility, y0, photons, phase_diff):
    """Click probability of a pulse of exactly `photons` photons through a link
    of transmittance eta; the arguments broadcast."""
    per_photon = np.clip(_fringe(eta, visibility, phase_diff), 0.0, 1.0)
    # At per_photon = 1, log1p gives -inf and zero photons give 0*(-inf) = NaN;
    # a pulse without photons never gives a signal click.
    with np.errstate(divide="ignore", invalid="ignore"):
        signal_click = -np.expm1(photons * np.log1p(-per_photon))
    return _float_if_scalar(_with_darks(y0, np.where(photons == 0, 0.0, signal_click)))


def click_probability(model: LinkModel, mean_photons: float, phase_diff,
                      length_km: float = 0.0):
    """Click probability for one pulse at the given phase difference.

    phase_diff may be an array; a scalar phase gives a float.
    """
    if mean_photons < 0:
        raise ValueError(f"mean_photons={mean_photons} must be >= 0")
    return coherent_click_probability(transmittance(model, length_km) * mean_photons,
                                      model.visibility, model.y0, phase_diff)


def mean_photons_for_click(model: LinkModel, probability: float,
                           length_km: float = 0.0) -> float:
    """Mean photon number at which the click probability at phase difference 0
    (constructive interference) reaches `probability`."""
    eta = transmittance(model, length_km)
    if eta <= 0:
        raise ValueError("link transmittance is zero; no mean photon number exists")
    signal_click = (probability - model.y0) / (1.0 - model.y0)
    if signal_click <= 0.0:
        raise ValueError(f"dark counts alone exceed the requested click probability "
                         f"{probability}")
    return -math.log1p(-signal_click) / float(_fringe(eta, model.visibility, 0.0))


def _gain_qber(eta, visibility, y0, mean_photons):
    """Expected gain and QBER; eta, visibility and mean_photons broadcast.

    Matched slots split equally between constructive (phase 0) and
    destructive (phase pi) interference; clicks at the destructive
    phase are the errors. Dark counts enter through y0 in the click
    probabilities and push the QBER toward 1/2. The QBER is 0 where
    there are no clicks at all.
    """
    arriving = eta * mean_photons
    clicks = [coherent_click_probability(arriving, visibility, y0, d) for d in PHASE_GRID]
    gain = sum(clicks) / 4.0
    good, bad = clicks[0], clicks[2]
    total = good + bad
    qber = np.divide(bad, total, out=np.zeros_like(total), where=total > 0)
    return gain, qber


def _model_gain_qber(model: LinkModel, mean_photons: float, length_km: float):
    if mean_photons < 0:
        raise ValueError(f"mean_photons={mean_photons} must be >= 0")
    return _gain_qber(transmittance(model, length_km), model.visibility, model.y0,
                      mean_photons)


def expected_gain(model: LinkModel, mean_photons: float, length_km: float = 0.0) -> float:
    """Click rate per emitted pulse, averaged over the four phase differences."""
    return float(_model_gain_qber(model, mean_photons, length_km)[0])


def expected_qber(model: LinkModel, mean_photons: float, length_km: float = 0.0) -> float:
    """Error fraction among matched-basis clicks; 0 when there are no clicks."""
    return float(_model_gain_qber(model, mean_photons, length_km)[1])


def expected_stats(model: LinkModel, params: ProtocolParams, length_km: float) -> MeasuredStats:
    """Modelled MeasuredStats row for both intensity classes at one length."""
    s_mu, e_mu = _model_gain_qber(model, params.mu, length_km)
    s_nu, e_nu = _model_gain_qber(model, params.nu, length_km)
    return MeasuredStats(length_km, float(s_mu), float(e_mu), float(s_nu), float(e_nu))


def _table_array(table: Sequence[MeasuredStats]) -> np.ndarray:
    """Rows (length_km, s_mu, e_mu, s_nu, e_nu) of a table as an (n, 5) array."""
    return np.array([(r.length_km, r.s_mu, r.e_mu, r.s_nu, r.e_nu) for r in table],
                    dtype=float).reshape(-1, 5)


def _fit_residuals(alpha, lumped_db, visibility, y0: float, rows: np.ndarray,
                   params: ProtocolParams) -> np.ndarray:
    """Residuals (..., 3) per row of `rows` (..., 5); the arguments broadcast.

    Gains span decades -> log residuals; QBERs do not -> linear residuals.
    """
    length, s_mu, e_mu, s_nu, _ = np.moveaxis(rows, -1, 0)
    eta = _transmittance(alpha, lumped_db, 1.0, length)
    gain_mu, qber_mu = _gain_qber(eta, visibility, y0, params.mu)
    gain_nu, _ = _gain_qber(eta, visibility, y0, params.nu)
    return np.stack([np.log(gain_mu) - np.log(s_mu), np.log(gain_nu) - np.log(s_nu),
                     qber_mu - e_mu], axis=-1)


def fit_objective(model: LinkModel, table: Sequence[MeasuredStats],
                  params: ProtocolParams) -> float:
    """Sum of squared fit residuals of a model against a measured table."""
    lumped = model.excess_loss_db - 10.0 * math.log10(model.eta_det)
    r = _fit_residuals(model.alpha_db_per_km, lumped, model.visibility, model.y0,
                       _table_array(table), params)
    return float(np.square(r).sum())


def _least_squares(residuals, x0, lower, upper):
    """Bounded Levenberg-Marquardt minimum of the sum of squared residuals.

    residuals maps an (n, k) array of k parameter points to their (k, m)
    residuals; the Jacobian is a central difference over one such call,
    one-sided where a bound is nearer than the step. Each trial step solves
    the normal equations damped by their diagonal and is clipped to
    lower <= x <= upper. The fit has converged when an accepted step lowers
    the cost, or moves the parameters, by no more than _FIT_TOL relative.

    Returns (x, iterations, converged); iterations counts trial steps.
    """
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
        trial = np.clip(x + np.linalg.solve(normal + damping * np.diag(scale), -gradient),
                        lower, upper)
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


def fit_link(table: Sequence[MeasuredStats], params: ProtocolParams,
             y0: float = 5e-7) -> LinkModel:
    """Least-squares link model from a table of measured rates.

    Fits (alpha_db_per_km, lumped excess loss, visibility) with y0 held
    fixed. Detector efficiency and excess loss only enter through their
    product, so they are fitted as one lumped dB value reported in
    excess_loss_db with eta_det = 1. Deterministic: the start is closed
    form, then bounded least squares refines it. A straight line through
    log10(s_mu/mu) against length gives alpha (its slope) and the lumped
    loss (its intercept); the visibility starts at 1 - 2*e_mu of the
    shortest length.

    Raises UnidentifiableDataError unless the table holds at least
    three distinct lengths spanning at least 0.1 km, and
    FitConvergenceError when the refinement runs out of iterations.
    """
    return fit_link_report(table, params, y0).model


def fit_link_report(table: Sequence[MeasuredStats], params: ProtocolParams,
                    y0: float = 5e-7) -> LinkFit:
    """fit_link, also reporting how many trial steps the refinement took."""
    lengths = {row.length_km for row in table}
    if len(lengths) < 3:
        raise UnidentifiableDataError(
            f"link fit needs >= 3 distinct fiber lengths, got {len(table)} row(s) "
            f"spanning {len(lengths)}"
        )
    if max(lengths) - min(lengths) < _MIN_LENGTH_SPAN_KM:
        raise UnidentifiableDataError(
            f"link fit needs lengths spanning >= {_MIN_LENGTH_SPAN_KM} km to identify "
            f"the attenuation, got {max(lengths) - min(lengths)!r} km"
        )
    for row in table:
        if row.s_mu <= 0 or row.s_nu <= 0:
            raise UnidentifiableDataError(
                f"non-positive counting rate at {row.length_km} km cannot be log-fitted"
            )

    rows = _table_array(table)
    length, s_mu, e_mu = rows[:, 0], rows[:, 1], rows[:, 2]
    slope, intercept = np.polyfit(length, np.log10(s_mu / params.mu), 1)
    start = [-10.0 * slope, -10.0 * intercept, 1.0 - 2.0 * e_mu[np.argmin(length)]]

    def residuals(points: np.ndarray) -> np.ndarray:
        return _fit_residuals(*points[..., None], y0, rows, params).reshape(
            points.shape[1], -1)

    (alpha, lumped, vis), iterations, converged = _least_squares(
        residuals, start, [0.0, 0.0, 0.0], [5.0, 80.0, 1.0])
    if not converged:
        raise FitConvergenceError(f"link fit did not converge in {iterations} iterations")
    model = LinkModel(alpha_db_per_km=float(alpha), excess_loss_db=float(lumped),
                      eta_det=1.0, y0=y0, visibility=float(vis))
    return LinkFit(model=model, iterations=iterations)


def _key_rates(model: LinkModel, params: ProtocolParams, eta: np.ndarray) -> np.ndarray:
    """Key-rate bounds of the modelled rows at transmittances eta; NaN where
    the bounds abort."""
    s_mu, e_mu = _gain_qber(eta, model.visibility, model.y0, params.mu)
    s_nu, _ = _gain_qber(eta, model.visibility, model.y0, params.nu)
    return analyze_columns(params, s_mu, e_mu, s_nu).r_lower


def sweep_key_rate(model: LinkModel, params: ProtocolParams,
                   lengths: Sequence[float]) -> LengthSweep:
    """Key-rate bound over a length grid with a bisection-refined cutoff.

    Lengths where the bounds abort (insufficient modelled statistics)
    carry NaN rates and count as non-positive for cutoff bracketing.
    The cutoff is refined to 0.1 km and reports the largest length
    verified positive.
    """
    grid = np.asarray(list(lengths), dtype=float)
    if grid.size == 0:
        raise ValueError("length grid must be nonempty")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("length grid must be strictly increasing")
    outside = ~((grid >= 0.0) & (grid < math.inf))
    if outside.any():
        raise ValueError(f"length_km={float(grid[outside][0])} must be finite and >= 0")

    # The whole grid in one array evaluation of the statistics and the bounds.
    rates = _key_rates(model, params, _transmittance(
        model.alpha_db_per_km, model.excess_loss_db, model.eta_det, grid))
    positive = np.nan_to_num(rates, nan=-math.inf) > 0

    cutoff = None
    for i in range(grid.size - 1):
        if positive[i] and not positive[i + 1]:
            lo, hi = float(grid[i]), float(grid[i + 1])
            while hi - lo > 0.1:
                mid = 0.5 * (lo + hi)
                if _key_rates(model, params, np.array([transmittance(model, mid)]))[0] > 0:
                    lo = mid
                else:
                    hi = mid
            cutoff = lo
            break
    return LengthSweep(lengths=grid, rates=rates, cutoff_km=cutoff)
