"""Active phase-compensation: scan, fringe fit and working points.

Before key exchange, the receiver scans his phase modulator against
strong reference pulses and watches the detector counting rate trace
out an interference fringe. Fitting that fringe yields the fringe zero
(the constructive-interference phase) and the visibility; the four
working points are the fringe zero plus multiples of pi/2.

The scan draws its counts from link's coherent-state click law
(link.coherent_click_probability) at the zero-length transmittance
times the strong intensity. That law saturates at scan intensities, so
it is also the fit model, rather than a bare cosine; the fit evaluates it
at y0 = 0 through the kernel that link's law calls, and link's
reduction maps phases to [0, 2*pi). Gauss-Newton in the first harmonic's
coefficients, started from a weighted fit of the log-inverted counts and
run until its step is negligible, seeds a deterministic local refinement
(link's bounded Levenberg-Marquardt, the one fit_link uses) that minimizes
the residuals in the count-fraction domain and owns the bounds and the
convergence verdict. The fit hands it each point's residuals together with
their Jacobian, which the law gives in closed form, so the refinement
evaluates the law once per point it visits. Each of the seed's weighted
linear fits solves its 3x3 normal equations with link's closed-form
Cholesky solve in Python floats (_cholesky_solve, without numpy.linalg's
per-call overhead); only an ill-conditioned normal matrix, as a scan with
fewer than three unsaturated points gives, goes to numpy.linalg.lstsq. On
a well-sampled scan the seed is already the refinement's minimum, so the
refinement stops at its first stop test, which takes its step from the
same Cholesky solve: such a fit calls no numpy.linalg at all. The rms
residual comes from the residuals the refinement holds at its result.
The fit keeps the fitted depth, and the amplitude (the law's mean click
probability over 1,024 phases) is derived from it on read, so a fit whose
amplitude nobody reads does not pay for it. Dark counts are negligible
against the strong-pulse click rates and are not fitted. A seed fixes a
sampled scan: one default_rng(SeedSequence(seed)) draws all its counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimator import require_count, require_finite, require_seed
from .link import (PHASE_GRID, TWO_PI, FitConvergenceError, LinkModel, _cholesky_solve,
                   _fringe, _least_squares, _negated_signal_click, _wrap_phase,
                   coherent_click_probability, transmittance)

__all__ = [
    "ScanCurve",
    "FringeFit",
    "InsufficientScanRangeError",
    "scan_intensity_for_peak",
    "simulate_scan",
    "fit_fringe",
    "working_points",
    "scan_overhead",
]

SATURATION_PEAK = 0.999
# The fewest scan points the fringe fit takes.
MIN_FIT_POINTS = 8
# The cosines of the amplitude's phase grid: the mean of the periodic click law
# over it is off by about 2*exp(-depth)*I_1024(depth*V), under 1 ulp for depths
# up to 1e4.
_AMPLITUDE_COSINES = np.cos(np.linspace(0.0, TWO_PI, 1024, endpoint=False))


class InsufficientScanRangeError(ValueError):
    """The scan grid does not cover a full fringe period."""


@dataclass(frozen=True)
class ScanCurve:
    """Counting-rate trace of a phase scan.

    offsets must be strictly increasing and span at least 2*pi.
    counts holds detected counts per setting (floats are accepted so
    noiseless expected curves can be represented exactly). saturated
    flags scans whose peak click probability reached the saturation
    threshold; their fringe contrast is unreliable.
    """

    offsets: np.ndarray
    counts: np.ndarray
    pulses_per_point: int
    saturated: bool = False

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "counts", counts)
        if offsets.ndim != 1 or offsets.size != counts.size:
            raise ValueError("offsets and counts must be 1-d arrays of equal length")
        if not (offsets[1:] > offsets[:-1]).all():
            raise ValueError("scan offsets must be strictly increasing")
        require_count(pulses_per_point=self.pulses_per_point)
        # Written so that NaN, for which every comparison is false, fails it.
        if not ((counts >= 0) & (counts <= self.pulses_per_point)).all():
            raise ValueError("counts must be finite and lie in [0, pulses_per_point]")

    @property
    def span(self) -> float:
        return float(self.offsets[-1] - self.offsets[0]) if self.offsets.size else 0.0


@dataclass(frozen=True)
class FringeFit:
    """Fitted fringe: depth, visibility, zero phase, rms residual.

    depth is eta*m/2, the mean number of detected photons of a scan pulse
    averaged over the phase: the click law at phase offset d is
    1 - exp(-depth*(1 + V*cos(d))). The amplitude, that law's mean click
    probability, is derived on read from the depth and the visibility.
    """

    depth: float
    visibility_est: float
    phase_zero: float
    residual: float

    def __post_init__(self) -> None:
        # Each test is written so that NaN, for which every comparison is false, fails it.
        if not 0.0 < self.depth < math.inf:
            raise ValueError(f"depth={self.depth} must be finite and > 0")
        if not 0.0 <= self.visibility_est <= 1.0:
            raise ValueError(f"visibility_est={self.visibility_est} must be in [0, 1]")
        if not 0.0 <= self.phase_zero < TWO_PI:
            raise ValueError(f"phase_zero={self.phase_zero} must be normalized to [0, 2*pi)")
        if not 0.0 <= self.residual < math.inf:
            raise ValueError(f"residual={self.residual} must be finite and >= 0")

    @property
    def amplitude(self) -> float:
        """The fitted law's mean click probability over 1,024 phases."""
        # fsum: at V = 0 the 1,024 values are equal, and np.mean's pairwise sum of
        # them rounds about 4 ulp away from the value itself.
        clicks = _negated_signal_click(2.0 * self.depth, self.visibility_est, _AMPLITUDE_COSINES)
        return math.fsum(np.negative(clicks, out=clicks).tolist()) / _AMPLITUDE_COSINES.size


def scan_intensity_for_peak(model: LinkModel, peak: float = 0.5) -> float:
    """Reference-pulse mean photon number at which the click probability at
    phase difference 0 (constructive interference) reaches `peak`."""
    if not 0.0 < peak < 1.0:
        raise ValueError(f"peak={peak} must be in (0, 1)")
    eta = transmittance(model, 0.0)
    if eta <= 0:
        raise ValueError("link transmittance is zero; no mean photon number exists")
    if model.y0 >= peak:  # also spares y0 = 1 the division below
        raise ValueError(f"dark counts alone exceed the requested click probability {peak}")
    signal_click = (peak - model.y0) / (1.0 - model.y0)
    return -math.log1p(-signal_click) / float(_fringe(eta, model.visibility, 0.0))


def simulate_scan(model: LinkModel, strong_mean_photons: float, offsets: Sequence[float],
                  pulses_per_point: int, seed: int = 0, true_phase_zero: float = 0.0,
                  noiseless: bool = False) -> ScanCurve:
    """Scan the fringe: binomial counts per offset against the click model.

    One generator default_rng(SeedSequence(seed)) draws all counts in a
    single binomial(pulses_per_point, probs) call over the offsets, so a
    seed fixes the whole curve. true_phase_zero is reduced to [0, 2*pi)
    first, so a huge zero does not round the offsets away. noiseless
    replaces sampling with exact expected counts. A peak click probability
    at or above the saturation threshold only flags the curve; the counts
    are still produced.
    """
    grid = np.asarray(list(offsets), dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"scan offsets must be a 1-d sequence, got shape {grid.shape}")
    require_finite(strong_mean_photons=strong_mean_photons, true_phase_zero=true_phase_zero)
    if not np.isfinite(grid).all():
        raise ValueError("scan offsets must be finite")
    if grid.size < 2 or grid[-1] - grid[0] < TWO_PI - 1e-9:
        raise InsufficientScanRangeError(
            f"scan must span >= 2*pi, got {grid[-1] - grid[0] if grid.size else 0.0:.3f} rad"
        )
    require_count(pulses_per_point=pulses_per_point)  # before binomial overflows on it
    require_seed(seed)
    if strong_mean_photons < 0:
        raise ValueError(f"strong_mean_photons={strong_mean_photons} must be >= 0")
    probs = coherent_click_probability(transmittance(model, 0.0) * strong_mean_photons,
                                       model.visibility, model.y0,
                                       grid - _wrap_phase(true_phase_zero))
    if noiseless:
        counts = probs * pulses_per_point
    else:
        counts = np.random.default_rng(np.random.SeedSequence(seed)).binomial(
            pulses_per_point, probs)
    return ScanCurve(offsets=grid, counts=counts, pulses_per_point=pulses_per_point,
                     saturated=bool(probs.max() >= SATURATION_PEAK))


def _solve_least_squares(a: np.ndarray, b: np.ndarray) -> list[float]:
    """The x minimizing |a @ x - b| for an (m, 3) a: link's closed-form
    Cholesky solve of the normal equations (a.T @ a) x = a.T @ b in Python
    floats, which spares numpy.linalg.lstsq's wrapper overhead.

    lstsq solves the problem instead where that solve refuses a.T @ a as
    ill-conditioned, as it does for a rank-deficient a.
    """
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = (a.T @ a).tolist()
    x = _cholesky_solve(g00, g01, g02, g11, g12, g22, *(b @ a).tolist())
    return np.linalg.lstsq(a, b, rcond=None)[0].tolist() if x is None else x


def fit_fringe(curve: ScanCurve) -> FringeFit:
    """Fit the click-law fringe and return visibility and fringe zero.

    The law is 1 - exp(-(a + b*cos(d) + c*sin(d))) in the first
    harmonic's coefficients (a, b, c), an orientation-free form. A
    least-squares fit of the log-inverted count fractions, weighted by
    1 - y, starts Gauss-Newton steps in (a, b, c) that run until one moves
    them by at most 1e-7 of a, or 8 times. Each of these weighted linear
    fits is a closed-form Cholesky solve of its 3x3 normal equations, or
    numpy.linalg.lstsq where those are ill-conditioned, as when fewer than
    three points are unsaturated. Mapped to (depth, visibility, zero), the
    result seeds a bounded least-squares refinement that minimizes
    count-fraction residuals and decides convergence; it takes each point's
    residuals and their closed-form Jacobian from one evaluation of the
    law. At a seed that is already the minimum, the refinement's first stop
    test, made on the same Cholesky solve, ends it without numpy.linalg.
    Deterministic: no random starts. The reported residual is the rms
    count-fraction misfit, taken from the residuals the refinement returns
    with its point; a flat curve fits with visibility near zero and the
    residual is the only signal that the phase is unconstrained. The fit stores the fitted
    depth; its amplitude, the fitted law's mean click probability, is
    derived on read.
    Raises ValueError when every count is pulses_per_point, and
    FitConvergenceError when the refinement fails or runs out of
    iterations.
    """
    if curve.offsets.size < MIN_FIT_POINTS or curve.span < TWO_PI - 1e-9:
        raise InsufficientScanRangeError(
            f"fringe fit needs >= {MIN_FIT_POINTS} points spanning >= 2*pi, got "
            f"{curve.offsets.size} points over {curve.span:.3f} rad"
        )
    if (curve.counts == curve.pulses_per_point).all():
        raise ValueError("every scan point is saturated (count = pulses_per_point), so "
                         "the fringe cannot be fitted; lower the scan peak")
    y = curve.counts / curve.pulses_per_point
    # The log inversion's error maps to the count fraction's through the law's
    # slope 1 - y, its weight; the clamp keeps the log of a saturated point,
    # of weight 0, finite. Each Gauss-Newton step linearizes
    # 1 - exp(-design @ coeff) at coeff; the steps end after the first that
    # moves coeff by at most 1e-7 of its depth term, or after 8. That is two
    # steps at the calibrate defaults and three or four on noisy, strongly
    # saturating scans, where Gauss-Newton converges only linearly; either
    # way the refinement mostly stops at its first test.
    survival = 1.0 - y
    t = -np.log1p(-np.minimum(y, 1.0 - 1e-12))
    design = np.empty((curve.offsets.size, 3))
    design[:, 0] = 1.0
    np.cos(curve.offsets, out=design[:, 1])
    np.sin(curve.offsets, out=design[:, 2])
    coeff = _solve_least_squares(design * survival[:, None], survival * t)
    for _ in range(8):
        s = design @ coeff
        w = np.exp(-s)
        previous, coeff = coeff, _solve_least_squares(design * w[:, None], w * s + w - survival)
        if math.dist(coeff, previous) <= 1e-7 * coeff[0]:
            break
    depth0 = max(coeff[0], 1e-12)
    vis0 = min(math.hypot(coeff[1], coeff[2]) / depth0, 1.0)  # the refinement's bound
    zero0 = math.atan2(coeff[2], coeff[1])

    neg_y = -y  # (-y) - e rounds as (-e) - y does

    def evaluate(point: np.ndarray):
        # The click law at y0 = 0, where 0 + 1*s is s, and eta*m = 2*depth,
        # 1 - e with e = exp(-depth*(1 + V*cos(t))) at t = offset - zero; its
        # Jacobian is e*(1 + V*cos(t), depth*cos(t), depth*V*sin(t)).
        depth, vis, zero = point.tolist()
        terms = curve.offsets - zero
        sines = np.sin(terms)
        cosines = np.cos(terms, out=terms)
        negated = _negated_signal_click(2.0 * depth, vis, cosines)
        jac = np.empty((3, terms.size))
        np.multiply(cosines, vis, out=jac[0])
        jac[0] += 1.0
        np.multiply(cosines, depth, out=jac[1])
        np.multiply(sines, depth * vis, out=jac[2])
        jac *= negated + 1.0
        return neg_y - negated, jac.T

    (depth, vis, zero), iterations, converged, r = _least_squares(
        evaluate, [depth0, vis0, zero0],
        [1e-15, 0.0, zero0 - math.pi], [np.inf, 1.0, zero0 + math.pi])
    if not converged:
        raise FitConvergenceError(f"fringe fit did not converge in {iterations} iterations")
    return FringeFit(depth=float(depth), visibility_est=float(vis),
                     phase_zero=_wrap_phase(float(zero)),
                     residual=math.sqrt(np.add.reduce(r * r) / r.size))


def working_points(fit: FringeFit) -> tuple[float, float, float, float]:
    """The four modulation phases {zero + k*pi/2}, each normalized to [0, 2*pi)."""
    return tuple(_wrap_phase(fit.phase_zero + d) for d in PHASE_GRID)


def scan_overhead(points: int, pulses_per_point: int, session_pulses: float) -> float:
    """Scan duration in pulse slots as a fraction of the session length; needs no drawn scan."""
    require_count(points=points, pulses_per_point=pulses_per_point)  # before a float overflows
    require_finite(session_pulses=session_pulses)
    if session_pulses <= 0:
        raise ValueError(f"session_pulses={session_pulses} must be > 0")
    return points * pulses_per_point / session_pulses
