"""Monte Carlo of the one-detector two-intensity decoy session.

Each pulse: Alice picks the intensity class (decoy with probability
decoy_fraction), the photon number is drawn from the Poisson law of
the class mean, both parties pick phases uniformly from
link.PHASE_GRID, and the detector clicks with the photon-number-
conditioned probability link.photon_click_probability, whose Poisson
mixture is link's coherent-state click law. Sifting keeps clicks whose
phase difference is 0 mod pi; phases {0, pi/2} encode bit 0 and
{pi, 3pi/2} bit 1, so a kept click is an error exactly when the phase
difference is pi.

Pulses are i.i.d., so run_session draws a session's counts directly,
with exactly the law of pulse-by-pulse sampling. Determinism contract:
one default_rng(SeedSequence(seed)) per session draws, in this order,
the decoy count Binomial(n_pulses, decoy_fraction); then for the signal
class and then the decoy class one multinomial over the 16 cells photon
bin b in {0, 1, 2, >= 3} times phase difference d (bin-major,
p = P(b)/4), then one binomial click count per cell, in cell order. The
n >= 3 cells click with the Poisson-weighted mean click probability of
their photon numbers; since no count resolves n beyond 3, that is
exactly the law of their pulses. The tests keep a pulse-by-pulse sampler
as the reference this law is checked against.

The parts of that law that do not depend on the seed are built once per
class mean and link state and kept, read-only, in the bounded cache of
_class_law; the cache changes no draw.

soundness_report holds a session's bounds against its ground truth. Its
SoundnessReport stores only the measured values s1_lower, e1_upper,
true_s1 and true_e1; the verdicts s1_ok, e1_ok and sound and the slacks
are properties derived from them. The module writes no text; the CLI does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .estimator import (AnalysisError, MeasuredStats, ProtocolParams, SecurityBounds,
                        require_count, require_finite, require_seed)
from .link import PHASE_GRID, LinkModel, _wrap_phase, photon_click_probability, transmittance

__all__ = [
    "SimConfig",
    "ClassTally",
    "SimTally",
    "SoundnessReport",
    "run_session",
    "measured_stats",
    "session_params",
    "soundness_report",
]


@dataclass(frozen=True)
class SimConfig:
    """One simulated session.

    length_km scales the link attenuation for this session (0 for a
    model with the loss already lumped into excess_loss_db);
    bob_phase_error is a constant phase offset added to every pulse's
    phase difference, modelling residual miscalibration of Bob's
    working points, reduced to [0, 2*pi) as simulate_scan reduces its
    zero. The signal mean, and so the decoy mean, is at most 200.
    """

    n_pulses: int
    link: LinkModel
    params: ProtocolParams
    decoy_fraction: float = 0.5
    seed: int = 0
    length_km: float = 0.0
    bob_phase_error: float = 0.0

    def __post_init__(self) -> None:
        require_finite(length_km=self.length_km, bob_phase_error=self.bob_phase_error)
        if self.length_km < 0:  # transmittance's message, raised before any session runs
            raise ValueError(f"length_km={self.length_km} must be finite and >= 0")
        require_count(n_pulses=self.n_pulses)
        require_seed(self.seed)
        if not 0.0 < self.decoy_fraction < 1.0:
            raise ValueError(f"decoy_fraction={self.decoy_fraction} must be in (0, 1)")
        # A class law sums the Poisson weights and click probabilities of
        # about mean + 24*sqrt(mean) photon numbers, so its cost grows with it.
        if self.params.mu > 200.0:
            raise ValueError(f"mu={self.params.mu} must be at most 200: "
                             "the photon-number law is not drawn beyond that mean")


@dataclass(frozen=True)
class ClassTally:
    emitted: int = 0
    clicked: int = 0
    sifted: int = 0
    errors: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.clicked <= self.emitted:
            raise ValueError(f"clicked={self.clicked} must be in [0, emitted={self.emitted}]")
        if not 0 <= self.errors <= self.sifted <= self.clicked:
            raise ValueError(
                f"need errors <= sifted <= clicked, got "
                f"{self.errors} / {self.sifted} / {self.clicked}"
            )


@dataclass(frozen=True)
class SimTally:
    """Per-intensity counts plus per-photon-number ground truth for signal pulses.

    The photon bins resolve n = 0, 1, 2 and >= 3; their emitted counts
    sum to the signal emitted count.
    """

    signal: ClassTally
    decoy: ClassTally
    signal_photons: tuple[ClassTally, ClassTally, ClassTally, ClassTally]

    def __post_init__(self) -> None:
        if len(self.signal_photons) != 4:
            raise ValueError("signal_photons must hold exactly 4 bins (n=0,1,2,>=3)")
        bin_total = sum(b.emitted for b in self.signal_photons)
        if bin_total != self.signal.emitted:
            raise ValueError(
                f"photon bins account for {bin_total} pulses, signal emitted {self.signal.emitted}"
            )


@dataclass(frozen=True)
class SoundnessReport:
    """Ground truth of a session against the bounds computed from its stats.

    Stores the two bounds and the two ground-truth values they bound; the
    verdicts s1_ok, e1_ok and sound and the slacks are derived from them.
    true_s1 is the observed single-photon click rate per emitted signal
    pulse rescaled by the Poisson single-photon weight mu*e^-mu, i.e.
    expressed per single-photon pulse like the yield bound it is
    compared against. true_e1 is the error fraction among sifted
    single-photon clicks, None when no such click was sifted.
    """

    s1_lower: float
    e1_upper: float
    true_s1: float
    true_e1: float | None

    @property
    def s1_ok(self) -> bool:
        return self.s1_lower <= self.true_s1

    @property
    def e1_ok(self) -> bool | None:
        """None when true_e1 is: no sifted single-photon click to check against."""
        return None if self.true_e1 is None else self.e1_upper >= self.true_e1

    @property
    def sound(self) -> bool:
        return self.s1_ok and (self.e1_ok is not False)

    @property
    def s1_slack(self) -> float:
        """(true_s1 - s1_lower)/true_s1: the share of the true yield the bound
        leaves below it, negative when the bound overclaims; -inf for a
        positive bound when no single-photon pulse clicked."""
        if self.true_s1 == 0.0:
            return -math.inf if self.s1_lower > 0.0 else 0.0
        return (self.true_s1 - self.s1_lower) / self.true_s1

    @property
    def e1_slack(self) -> float | None:
        """e1_upper - true_e1, negative when the bound overclaims; None when
        true_e1 is."""
        return None if self.true_e1 is None else self.e1_upper - self.true_e1


def _poisson_pmf(mean: float, photons: np.ndarray) -> np.ndarray:
    """Poisson(mean) probabilities of the given photon numbers, through lgamma."""
    if mean == 0.0:
        return (photons == 0).astype(float)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in photons.tolist()])
    return np.exp(photons * math.log(mean) - mean - log_factorial)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=64)
def _class_law(mean: float, eta: float, visibility: float, y0: float,
               bob_phase_error: float) -> tuple[np.ndarray, np.ndarray]:
    """The 16 multinomial cell probabilities of a class of the given mean
    (photon bins n = 0, 1, 2, >= 3, each times the four phase differences,
    bin-major) and their click probabilities as a (4, 4) table, at the phase
    differences of PHASE_GRID offset by bob_phase_error."""
    # The n >= 3 weight is summed upward, not taken as one minus the rest;
    # beyond n = mean + 24*sqrt(mean) + 48 the weights are below 1e-70 of the first.
    photons = np.arange(math.ceil(mean + 24.0 * math.sqrt(mean)) + 48)
    pmf = _poisson_pmf(mean, photons)
    clicks = photon_click_probability(eta, visibility, y0, photons[:, None],
                                      np.asarray(PHASE_GRID) + bob_phase_error)
    tail = pmf[3:]
    weight = tail.sum()
    # An elementwise sum, not a BLAS product, keeps the row's bits independent
    # of the BLAS build; rounding can lift the mean of clicks of 1 above 1.
    tail_clicks = (np.minimum((tail[:, None] * clicks[3:]).sum(axis=0) / weight, 1.0)
                   if weight else np.zeros(4))
    return (_read_only(np.repeat(np.append(pmf[:3], weight) / 4.0, 4)),
            _read_only(np.vstack([clicks[:3], tail_clicks])))


def _draw_class(rng: np.random.Generator, pulses: int,
                law: tuple[np.ndarray, np.ndarray]) -> list[tuple[int, int, int, int]]:
    """(emitted, clicked, sifted, errors) of one intensity class per photon bin
    n = 0, 1, 2, >= 3, drawn as the module docstring fixes from its _class_law."""
    cell_law, click_table = law
    emitted = rng.multinomial(pulses, cell_law).reshape(4, 4)
    clicks = rng.binomial(emitted, click_table)
    # Columns are the phase differences; 0 and pi are sifted, pi is an error.
    return [(sum(e), sum(c), c[0] + c[2], c[2])
            for e, c in zip(emitted.tolist(), clicks.tolist())]


def measured_stats(tally: SimTally, length_km: float = 0.0) -> MeasuredStats:
    """Observed per-class rates of a tally in MeasuredStats form."""
    def rate(num: int, den: int) -> float:
        return num / den if den else 0.0

    return MeasuredStats(
        length_km=length_km,
        s_mu=rate(tally.signal.clicked, tally.signal.emitted),
        e_mu=rate(tally.signal.errors, tally.signal.sifted),
        s_nu=rate(tally.decoy.clicked, tally.decoy.emitted),
        e_nu=rate(tally.decoy.errors, tally.decoy.sifted),
    )


def session_params(params: ProtocolParams, tally: SimTally) -> ProtocolParams:
    """Protocol params with pulse budgets replaced by the tally's emitted counts."""
    return replace(params, n_mu=max(1, tally.signal.emitted),
                   n_nu=max(1, tally.decoy.emitted))


def run_session(config: SimConfig) -> tuple[SimTally, MeasuredStats]:
    """Run a full session, drawn as the module docstring fixes, and derive
    its observed statistics."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n_decoy = int(rng.binomial(config.n_pulses, config.decoy_fraction))
    link, mu, nu = config.link, config.params.mu, config.params.nu
    state = (transmittance(link, config.length_km), link.visibility, link.y0,
             _wrap_phase(config.bob_phase_error))
    signal = _draw_class(rng, config.n_pulses - n_decoy, _class_law(mu, *state))
    decoy = _draw_class(rng, n_decoy, _class_law(nu, *state))
    signal_total, decoy_total = (ClassTally(*map(sum, zip(*bins))) for bins in (signal, decoy))
    tally = SimTally(signal=signal_total, decoy=decoy_total,
                     signal_photons=tuple(ClassTally(*counts) for counts in signal))
    return tally, measured_stats(tally, config.length_km)


def soundness_report(tally: SimTally, bounds: SecurityBounds,
                     params: ProtocolParams) -> SoundnessReport:
    """Check the bounds of a session against its per-photon-number ground truth.

    The single-photon yield bound is per single-photon pulse, so the
    observed single-photon click rate per emitted signal pulse is
    rescaled by 1/(mu*e^-mu) before comparison.
    """
    if tally.signal.emitted == 0:
        raise AnalysisError("soundness report needs at least one emitted signal pulse")
    single = tally.signal_photons[1]
    poisson_weight = params.mu * math.exp(-params.mu)
    return SoundnessReport(
        s1_lower=bounds.s1_lower,
        e1_upper=bounds.e1_upper,
        true_s1=single.clicked / tally.signal.emitted / poisson_weight,
        true_e1=single.errors / single.sifted if single.sifted else None,
    )
