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
precision however few photons arrive; calibration's fringe fit calls the
coherent law's in-place kernel, _negated_signal_click, directly. Expected
gains average over the uniform phase differences of PHASE_GRID, which
sim offsets by a phase that _wrap_phase reduces to [0, 2*pi); the QBER is
the fraction of matched-basis clicks at the destructive phase.
_modelled_rates gives a modelled row's (s_mu, e_mu, s_nu, e_nu) for
expected_stats, the fit and the sweep.

The laws broadcast over numpy arrays. fit_link inverts a measured table,
exactly an (n, 5) array of STATS_COLUMNS as tables.read_stats_columns
reads it, into (attenuation, lumped excess loss, visibility) with the dark
rate held fixed: a straight line through the log gains and the QBER at the
shortest length give the start, and _least_squares, a bounded
Levenberg-Marquardt refinement in numpy that calibration's fringe fit
shares, finishes it. It evaluates each point, the start and every trial,
in one residual call together with the point's central-difference stencil,
and stops at the cost's rounding floor: before a trial is evaluated, when
the decrease its linear model predicts for the step is at most 1e-15 of the
cost. Fitted digits beyond about 1e-8 relative therefore carry no
information. The fit's objective is the sum of squares of the residuals
the refinement holds at its result. sweep_key_rate feeds the modelled
rates of its whole grid, and of each bisection step, through the column
bound chain (estimator.analyze_columns) to locate the largest fiber length
with a positive secure rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .estimator import (MeasuredStats, ProtocolParams, _first_outside_domain, analyze_columns,
                        require_finite)

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
    "expected_stats",
    "fit_objective",
    "fit_link",
    "fit_link_report",
    "sweep_key_rate",
]

# Phase differences of the four-phase modulation; index k is k*pi/2, so
# index 0 is constructive and index 2 destructive interference.
PHASE_GRID = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
TWO_PI = 2.0 * math.pi

_EPS = np.finfo(float).eps
# Relative step of the central-difference Jacobian of _least_squares: it
# balances the rounding error (eps/h) against the truncation error (h^2).
_DIFF_STEP = _EPS ** (1.0 / 3.0)
# Relative change of cost and parameters below which _least_squares stops.
_FIT_TOL = 1e-15
# Trial steps before _least_squares gives up; the bundled link fits take 4 and
# 5, the fringe fits at the calibrate defaults (seeds 0-999) 1 each, since
# calibration seeds them at the minimum.
_MAX_ITERATIONS = 100
# Shortest spread of fiber lengths from which fit_link identifies the
# attenuation: lengths a few ulps apart leave alpha at an arbitrary bound.
_MIN_LENGTH_SPAN_KM = 0.1


class UnidentifiableDataError(ValueError):
    """The measured table cannot constrain the link parameters."""


class FitConvergenceError(RuntimeError):
    """A least-squares fit failed, or ran out of iterations, before meeting its tolerance."""


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
        if self.excess_loss_db < 0:  # a gain would lift the transmittance above eta_det
            raise ValueError(f"excess_loss_db={self.excess_loss_db} must be >= 0")
        if not 0.0 <= self.eta_det <= 1.0:
            raise ValueError(f"eta_det={self.eta_det} must be in [0, 1]")
        if not 0.0 <= self.y0 <= 1.0:
            raise ValueError(f"y0={self.y0} must be in [0, 1]")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility={self.visibility} must be in [0, 1]")


@dataclass(frozen=True)
class LinkFit:
    """Fitted link model, the number of trial steps its refinement took, and
    the sum of squared residuals the refinement holds at the model: the value
    fit_objective gives for it."""

    model: LinkModel
    iterations: int
    objective: float


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


def _wrap_phase(value: float) -> float:
    """Map to [0, 2*pi); float rounding can make `x % 2*pi` hit 2*pi exactly."""
    wrapped = value % TWO_PI
    return 0.0 if wrapped >= TWO_PI else wrapped


def _transmittance(alpha_db_per_km, excess_loss_db, eta_det, length_km):
    loss_db = alpha_db_per_km * length_km + excess_loss_db
    return eta_det * 10.0 ** (-loss_db / 10.0)


def transmittance(model: LinkModel, length_km: float) -> float:
    """End-to-end transmittance eta_det * 10^-(alpha*L + excess)/10."""
    if not 0.0 <= length_km < math.inf:  # also rejects NaN
        raise ValueError(f"length_km={length_km} must be finite and >= 0")
    return float(_transmittance(model.alpha_db_per_km, model.excess_loss_db,
                                model.eta_det, length_km))


def _fringe(scale, visibility, phase_diff):
    """scale*(1 + V*cos(d))/2: detection probability per photon for scale=eta,
    mean detected photons per pulse for scale=eta*m."""
    # Halving scale rather than the product saves an array operation when
    # scale is a scalar; scaling by 2 is exact, so the bits are the same.
    return scale / 2.0 * (1.0 + visibility * np.cos(phase_diff))


def _with_darks(y0, signal_click):
    """Click probability given the probability that a signal photon is detected."""
    return y0 + (1.0 - y0) * signal_click


def _negated_signal_click(arriving_photons, visibility, cosines, out=None):
    """expm1(-a*(1 + V*cos(d))/2), minus the signal-click probability of a coherent
    pulse of a = arriving_photons, from cosines = cos(d); written into out if given."""
    negated = np.multiply(cosines, visibility, out=out)
    negated += 1.0
    # Not in place without out: (k, 1) visibilities meet (k, rows) photons in the fit.
    negated = np.multiply(negated, arriving_photons / -2.0, out=out)
    return np.expm1(negated, out=out)


def coherent_click_probability(arriving_photons, visibility, y0, phase_diff):
    """Click probability of a coherent pulse whose mean photon number at the
    receiver is arriving_photons (eta*m); the arguments broadcast."""
    return _with_darks(y0, -_negated_signal_click(arriving_photons, visibility,
                                                  np.cos(phase_diff)))


def photon_click_probability(eta, visibility, y0, photons, phase_diff):
    """Click probability of a pulse of exactly `photons` photons through a link
    of transmittance eta; the arguments broadcast."""
    per_photon = np.clip(_fringe(eta, visibility, phase_diff), 0.0, 1.0)
    # At per_photon = 1, log1p gives -inf and zero photons give 0*(-inf) = NaN;
    # a pulse without photons never gives a signal click.
    with np.errstate(divide="ignore", invalid="ignore"):
        signal_click = -np.expm1(photons * np.log1p(-per_photon))
    return _with_darks(y0, np.where(photons == 0, 0.0, signal_click))


def _modelled_rates(eta, visibility, y0, params: ProtocolParams):
    """Expected (s_mu, e_mu, s_nu, e_nu) of a modelled row; eta and visibility
    broadcast.

    Matched slots split equally between constructive (phase 0) and
    destructive (phase pi) interference; clicks at the destructive
    phase are the errors. Dark counts enter through y0 in the click
    probabilities and push the QBER toward 1/2. The QBER is 0 where
    there are no clicks at all.
    """
    rates = []
    for mean_photons in (params.mu, params.nu):
        arriving = eta * mean_photons
        clicks = [coherent_click_probability(arriving, visibility, y0, d) for d in PHASE_GRID]
        good, bad = clicks[0], clicks[2]
        total = good + bad
        rates += [sum(clicks) / 4.0,
                  np.divide(bad, total, out=np.zeros_like(total), where=total > 0)]
    return tuple(rates)


def expected_stats(model: LinkModel, params: ProtocolParams, length_km: float) -> MeasuredStats:
    """Modelled MeasuredStats row for both intensity classes at one length."""
    eta = transmittance(model, length_km)
    rates = _modelled_rates(eta, model.visibility, model.y0, params)
    return MeasuredStats(length_km, *map(float, rates))


def _fit_residuals(alpha, lumped_db, visibility, y0: float, rows: np.ndarray,
                   params: ProtocolParams) -> np.ndarray:
    """Residuals (..., 3) per row of `rows` (..., 5); the arguments broadcast.

    Gains span decades -> log residuals; QBERs do not -> linear residuals.
    """
    length, s_mu, e_mu, s_nu, _ = np.moveaxis(rows, -1, 0)
    eta = _transmittance(alpha, lumped_db, 1.0, length)
    gain_mu, qber_mu, gain_nu, _ = _modelled_rates(eta, visibility, y0, params)
    return np.stack([np.log(gain_mu) - np.log(s_mu), np.log(gain_nu) - np.log(s_nu),
                     qber_mu - e_mu], axis=-1)


def _fit_rows(table: np.ndarray | Sequence[MeasuredStats]) -> np.ndarray:
    """The (n, 5) rows of a measured table that the fit residuals can take.

    Raises UnidentifiableDataError for a table of another shape, for a row
    outside MeasuredStats' domain (before a NaN or infinite value reaches
    np.polyfit) or with a counting rate of 0, whose log residual is infinite.
    """
    rows = np.asarray(table, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 5:
        raise UnidentifiableDataError(f"measured table has shape {rows.shape}, not (n, 5)")
    outside = _first_outside_domain(rows)
    if outside is not None:
        row, message = outside
        raise UnidentifiableDataError(f"table row {row}: {message}")
    length, s_mu, _, s_nu, _ = rows.T
    non_positive = (s_mu <= 0) | (s_nu <= 0)
    if non_positive.any():
        raise UnidentifiableDataError(
            f"non-positive counting rate at {length[non_positive][0].item()} km "
            "cannot be log-fitted"
        )
    return rows


def fit_objective(model: LinkModel, table: np.ndarray | Sequence[MeasuredStats],
                  params: ProtocolParams) -> float:
    """Sum of squared fit residuals of any model against a measured table, as
    fit_link takes it.

    fit_link_report holds this value for its own model; this evaluates it
    for any other, such as another solver's fit or a probe point. Raises
    UnidentifiableDataError for the tables fit_link rejects as not (n, 5),
    outside MeasuredStats' domain or at a counting rate of 0."""
    lumped = model.excess_loss_db - 10.0 * math.log10(model.eta_det)
    r = _fit_residuals(model.alpha_db_per_km, lumped, model.visibility, model.y0,
                       _fit_rows(table), params)
    return float(np.square(r).sum())


class _LeastSquaresResult(NamedTuple):
    """What _least_squares returns: the point x, the trial steps taken, whether
    the fit converged, and the (m,) residuals of x: row 0 of the refinement's
    own call that evaluated x with its stencil."""

    x: np.ndarray
    iterations: int
    converged: bool
    residuals: np.ndarray


def _least_squares(residuals, x0, lower, upper) -> _LeastSquaresResult:
    """Bounded Levenberg-Marquardt minimum of the sum of squared residuals.

    residuals maps an (n, k) array of k parameter points to their (k, m)
    residuals. Each point the refinement evaluates, the start and every
    trial, goes to one call of shape (n, 2n+1): column 0 is the point, then
    the point plus and minus a step in each parameter, one-sided where a bound
    is nearer than the step, whose central difference is the point's
    Jacobian. Each trial step solves the normal equations damped by their
    diagonal and is clipped to lower <= x <= upper. The fit has converged
    when an accepted step lowers the cost, or moves the parameters, by no
    more than _FIT_TOL relative, or, before a trial is evaluated, when the
    decrease the residuals' linear model predicts for its step is at most
    _FIT_TOL of a finite cost: the cost's rounding floor, the ftol test of
    MINPACK's lmder. x is then the current point.

    Returns _LeastSquaresResult(x, iterations, converged, residuals);
    iterations counts trial steps, including one stopped before its trial
    was evaluated, and residuals are those of x, from the call that
    evaluated x and its stencil. calibration's fringe fit takes its rms
    residual from them and derives its amplitude on read from the fitted
    depth, and fit_link_report its objective from them, so no residual call
    follows either refinement. Raises FitConvergenceError when the damped
    normal matrix is singular.
    """
    # Plain ufuncs and indexing replace numpy's wrappers: same operations, same bits.
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lower), upper)
    n = x.size
    diagonal = np.arange(n)

    def evaluate(point):
        """Residuals of point and its Jacobian, from one call with its stencil."""
        h = _DIFF_STEP * np.maximum(np.abs(point), 1.0)
        ends = np.minimum(point + h, upper), np.maximum(point - h, lower)
        points = np.repeat(point[:, None], 2 * n + 1, axis=1)
        points[diagonal, 1 + diagonal], points[diagonal, 1 + n + diagonal] = ends
        f = residuals(points)
        return f[0], ((f[1:n + 1] - f[n + 1:]) / (ends[0] - ends[1])[:, None]).T

    r, jac = evaluate(x)
    cost, damping, rejected, normal = r @ r, 1e-3, 0, None
    for iteration in range(1, _MAX_ITERATIONS + 1):
        if normal is None:
            neg_gradient, normal = -(jac.T @ r), jac.T @ jac
            normal_diagonal = normal[diagonal, diagonal]
            # The damping's diagonal matrix, built once per Jacobian; a column
            # that vanishes (a phase at zero visibility) still gets damped.
            scale = np.diag(np.maximum(normal_diagonal, _EPS * normal_diagonal.max()))
        try:  # singular when every residual is flat in every parameter
            step = np.linalg.solve(normal + damping * scale, neg_gradient)
        except np.linalg.LinAlgError as exc:
            raise FitConvergenceError(f"step {iteration} failed: {exc}") from exc
        # |r|^2 - |r + J step|^2, the decrease the linear model predicts for
        # the unclipped step; never negative for a damped step.
        predicted = 2.0 * (step @ neg_gradient) - step @ normal @ step
        if predicted <= _FIT_TOL * cost and cost < math.inf:
            return _LeastSquaresResult(x, iteration, True, r)
        trial = np.minimum(np.maximum(x + step, lower), upper)
        r_trial, jac_trial = evaluate(trial)
        cost_trial = r_trial @ r_trial
        if not cost_trial <= cost:  # also rejects NaN
            # x10, x100, ... on consecutive rejections.
            rejected += 1
            damping *= 10.0 ** rejected
            continue
        converged = (cost - cost_trial <= _FIT_TOL * cost
                     or (np.abs(trial - x) <= _FIT_TOL * np.abs(trial)).all())
        x, r, jac, cost, normal, rejected = trial, r_trial, jac_trial, cost_trial, None, 0
        damping /= 10.0
        if converged:
            return _LeastSquaresResult(x, iteration, True, r)
    return _LeastSquaresResult(x, _MAX_ITERATIONS, False, r)


def fit_link(table: np.ndarray | Sequence[MeasuredStats], params: ProtocolParams,
             y0: float = 5e-7) -> LinkModel:
    """Least-squares link model from a table of measured rates.

    table: an (n, 5) STATS_COLUMNS array or a sequence of MeasuredStats rows
    that converts to one; any other shape raises UnidentifiableDataError.
    Fits (alpha_db_per_km, lumped excess loss, visibility) with y0 held
    fixed. Detector efficiency and excess loss only enter through their
    product, so they are fitted as one lumped dB value reported in
    excess_loss_db with eta_det = 1. Deterministic: the start is closed
    form, then bounded least squares refines it. A straight line through
    log10(s_mu/mu) against length gives alpha (its slope) and the lumped
    loss (its intercept); the visibility starts at 1 - 2*e_mu of the
    shortest length.

    Raises UnidentifiableDataError unless 0 < nu < mu, every row lies in
    MeasuredStats' domain (finite lengths >= 0, rates and QBERs in
    [0, 1]), the table holds at least three distinct lengths spanning at
    least 0.1 km and every counting rate exceeds y0, and
    FitConvergenceError when the refinement runs out of iterations.
    """
    return fit_link_report(table, params, y0).model


def fit_link_report(table: np.ndarray | Sequence[MeasuredStats], params: ProtocolParams,
                    y0: float = 5e-7) -> LinkFit:
    """fit_link, also reporting how many trial steps the refinement took and
    the objective at the fitted model: the sum of squares of the residuals
    the refinement returns with its point, which is what fit_objective
    computes for that model. table is as fit_link takes it."""
    if not 0.0 <= y0 <= 1.0:  # also rejects NaN, before the fit runs on it
        raise ValueError(f"y0={y0} must be in [0, 1]")
    for name, mean_photons in (("mu", params.mu), ("nu", params.nu)):
        if mean_photons <= 0:
            raise UnidentifiableDataError(
                f"{name}={mean_photons!r}: a pulse of mean 0 clicks at y0 on every link, "
                "so no link model reproduces a rate measured at it")
    if not params.nu < params.mu:
        raise UnidentifiableDataError(
            f"nu={params.nu!r} must be below mu={params.mu!r}: a link model gives pulses "
            "of equal mean equal rates, so it cannot reproduce two classes measured apart")
    rows = _fit_rows(table)
    length, s_mu, e_mu, s_nu, _ = rows.T
    # A set rather than np.unique, which would import numpy.ma into every fit.
    distinct = len(set(length.tolist()))
    if distinct < 3:
        raise UnidentifiableDataError(
            f"link fit needs >= 3 distinct fiber lengths, got {len(rows)} row(s) "
            f"spanning {distinct}"
        )
    span = (length.max() - length.min()).item()
    if span < _MIN_LENGTH_SPAN_KM:
        raise UnidentifiableDataError(
            f"link fit needs lengths spanning >= {_MIN_LENGTH_SPAN_KM} km to identify "
            f"the attenuation, got {span!r} km"
        )
    # The modelled rate y0 + (1 - y0)*(signal click) exceeds y0 on every link.
    at_dark_rate = (s_mu <= y0) | (s_nu <= y0)
    if at_dark_rate.any():
        raise UnidentifiableDataError(
            f"counting rate at {length[at_dark_rate][0].item()} km does not exceed the "
            f"dark-count probability y0={y0!r}, so no link model reproduces it"
        )

    slope, intercept = np.polyfit(length, np.log10(s_mu / params.mu), 1)
    start = [-10.0 * slope, -10.0 * intercept, 1.0 - 2.0 * e_mu[np.argmin(length)]]

    def residuals(points: np.ndarray) -> np.ndarray:
        return _fit_residuals(*points[..., None], y0, rows, params).reshape(
            points.shape[1], -1)

    (alpha, lumped, vis), iterations, converged, r = _least_squares(
        residuals, start, [0.0, 0.0, 0.0], [5.0, 80.0, 1.0])
    if not converged:
        raise FitConvergenceError(f"link fit did not converge in {iterations} iterations")
    model = LinkModel(alpha_db_per_km=float(alpha), excess_loss_db=float(lumped),
                      eta_det=1.0, y0=y0, visibility=float(vis))
    return LinkFit(model=model, iterations=iterations, objective=float(np.square(r).sum()))


def _key_rates(model: LinkModel, params: ProtocolParams, eta: np.ndarray) -> np.ndarray:
    """Key-rate bounds of the modelled rows at transmittances eta; NaN where
    the bounds abort."""
    s_mu, e_mu, s_nu, _ = _modelled_rates(eta, model.visibility, model.y0, params)
    return analyze_columns(params, s_mu, e_mu, s_nu).r_lower


def sweep_key_rate(model: LinkModel, params: ProtocolParams,
                   lengths: Sequence[float]) -> LengthSweep:
    """Key-rate bound over a length grid with a bisection-refined cutoff.

    Lengths where the bounds abort (insufficient modelled statistics)
    carry NaN rates and count as non-positive for cutoff bracketing.
    The cutoff is refined to 0.1 km, or to adjacent floats where those
    are further apart, and reports the largest length verified positive.
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
    with np.errstate(over="ignore"):  # alpha*L = inf is transmittance 0, as in transmittance
        eta = _transmittance(model.alpha_db_per_km, model.excess_loss_db, model.eta_det, grid)
    rates = _key_rates(model, params, eta)
    positive = np.nan_to_num(rates, nan=-math.inf) > 0

    brackets = np.flatnonzero(positive[:-1] & ~positive[1:])
    if brackets.size == 0:
        return LengthSweep(lengths=grid, rates=rates, cutoff_km=None)
    lo, hi = float(grid[brackets[0]]), float(grid[brackets[0] + 1])
    # Halving each end cannot overflow; where floats lie more than 0.1 km
    # apart, the search ends at two adjacent ones.
    while hi - lo > 0.1 and lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        if _key_rates(model, params, np.array([transmittance(model, mid)]))[0] > 0:
            lo = mid
        else:
            hi = mid
    return LengthSweep(lengths=grid, rates=rates, cutoff_km=lo)
