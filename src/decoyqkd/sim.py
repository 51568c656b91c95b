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
class and then the decoy class, with K = ceil(m + 12*sqrt(m)) + 12 for
class mean m: one multinomial over the cells photon number n < K times
phase difference d (n-major, p = Poisson(n)/4) plus a last tail cell
for n >= K; one binomial click count per (n, d) cell, in cell order;
and for the t pulses of the tail cell, t uniforms giving n by inverse
transform over the Poisson law conditioned on n >= K, t phase
differences and t click uniforms. The tests keep a pulse-by-pulse
sampler as the reference this law is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import MeasuredStats, ProtocolParams, SecurityBounds, require_finite
from .link import PHASE_GRID, LinkModel, photon_click_probability, transmittance

__all__ = [
    "SimConfig",
    "ClassTally",
    "PhotonBinTally",
    "SimTally",
    "SoundnessReport",
    "run_session",
    "measured_stats",
    "session_params",
    "soundness_report",
    "tally_to_text",
    "tally_from_text",
]


@dataclass(frozen=True)
class SimConfig:
    """One simulated session.

    length_km scales the link attenuation for this session (0 for a
    model with the loss already lumped into excess_loss_db);
    bob_phase_error is a constant phase offset added to every pulse's
    phase difference, modelling residual miscalibration of Bob's
    working points.
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
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses={self.n_pulses} must be >= 1")
        if not 0.0 < self.decoy_fraction < 1.0:
            raise ValueError(f"decoy_fraction={self.decoy_fraction} must be in (0, 1)")


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

    def __add__(self, other: "ClassTally") -> "ClassTally":
        return ClassTally(self.emitted + other.emitted, self.clicked + other.clicked,
                          self.sifted + other.sifted, self.errors + other.errors)


# Ground-truth bookkeeping reuses the same count structure per photon bin.
PhotonBinTally = ClassTally

_PHOTON_BIN_NAMES = ("photons0", "photons1", "photons2", "photons3plus")


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
    s1_ok: bool
    e1_ok: bool | None
    single_clicked: int
    single_sifted: int
    single_errors: int

    @property
    def sound(self) -> bool:
        return self.s1_ok and (self.e1_ok is not False)


def _photon_cutoff(mean: float) -> int:
    """K of the count-level draw: P(n >= K) is below 1e-25 for any class mean."""
    return math.ceil(mean + 12.0 * math.sqrt(mean)) + 12


def _poisson_pmf(mean: float, photons: np.ndarray) -> np.ndarray:
    """Poisson(mean) probabilities of the given photon numbers, through lgamma."""
    if mean == 0.0:
        return (photons == 0).astype(float)
    log_factorial = np.array([math.lgamma(n + 1.0) for n in photons.tolist()])
    return np.exp(photons * math.log(mean) - mean - log_factorial)


def _draw_class(rng: np.random.Generator, pulses: int, mean: float,
                click_law) -> list[ClassTally]:
    """Counts of one intensity class in photon bins n = 0, 1, 2, >= 3, drawn as
    the module docstring fixes; click_law(photons, diffs) is the click
    probability at a photon number and a phase-difference index."""
    cutoff = _photon_cutoff(mean)
    # The tail weights are summed upward from the cutoff, not taken as one
    # minus the rest; beyond n = mean + 24*sqrt(mean) + 48 they are below
    # 1e-70 of the first.
    pmf = _poisson_pmf(mean, np.arange(math.ceil(mean + 24.0 * math.sqrt(mean)) + 48))
    tail = pmf[cutoff:]
    cells = rng.multinomial(pulses, np.append(np.repeat(pmf[:cutoff] / 4.0, 4), tail.sum()))
    emitted = cells[:-1].reshape(cutoff, 4)
    clicks = rng.binomial(emitted, click_law(np.arange(cutoff)[:, None], np.arange(4)))
    # Rows 0, 1, 2 are photon bins 0, 1, 2; every n >= 3, tail included, is bin 3.
    emitted, clicks = (np.add.reduceat(a, [0, 1, 2, 3]) for a in (emitted, clicks))
    n_tail = cells[-1]
    if n_tail:
        cumulative = np.cumsum(tail)
        index = np.searchsorted(cumulative, rng.random(n_tail) * cumulative[-1], side="right")
        diffs = rng.integers(0, 4, n_tail)
        hit = rng.random(n_tail) < click_law(cutoff + np.minimum(index, tail.size - 1), diffs)
        emitted[3] += np.bincount(diffs, minlength=4)
        clicks[3] += np.bincount(diffs[hit], minlength=4)
    counts = np.column_stack([emitted.sum(axis=1), clicks.sum(axis=1),
                              clicks[:, 0] + clicks[:, 2], clicks[:, 2]])
    return [ClassTally(*row) for row in counts.tolist()]


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
    return params.with_budgets(n_mu=max(1, tally.signal.emitted),
                               n_nu=max(1, tally.decoy.emitted))


def run_session(config: SimConfig) -> tuple[SimTally, MeasuredStats]:
    """Run a full session, drawn as the module docstring fixes, and derive
    its observed statistics."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    n_decoy = int(rng.binomial(config.n_pulses, config.decoy_fraction))
    eta = transmittance(config.link, config.length_km)
    phase_diffs = np.asarray(PHASE_GRID) + config.bob_phase_error

    def click_law(photons: np.ndarray, diffs: np.ndarray) -> np.ndarray:
        return photon_click_probability(eta, config.link.visibility, config.link.y0,
                                        photons, phase_diffs[diffs])

    signal = _draw_class(rng, config.n_pulses - n_decoy, config.params.mu, click_law)
    decoy = _draw_class(rng, n_decoy, config.params.nu, click_law)
    tally = SimTally(signal=sum(signal, ClassTally()), decoy=sum(decoy, ClassTally()),
                     signal_photons=tuple(signal))
    return tally, measured_stats(tally, config.length_km)


def soundness_report(tally: SimTally, bounds: SecurityBounds,
                     params: ProtocolParams) -> SoundnessReport:
    """Check the bounds of a session against its per-photon-number ground truth.

    The single-photon yield bound is per single-photon pulse, so the
    observed single-photon click rate per emitted signal pulse is
    rescaled by 1/(mu*e^-mu) before comparison.
    """
    if tally.signal.emitted == 0:
        raise ValueError("soundness report needs at least one emitted signal pulse")
    single = tally.signal_photons[1]
    poisson_weight = params.mu * math.exp(-params.mu)
    true_s1 = single.clicked / tally.signal.emitted / poisson_weight
    if single.sifted > 0:
        true_e1 = single.errors / single.sifted
        e1_ok = bounds.e1_upper >= true_e1
    else:
        true_e1 = None
        e1_ok = None
    return SoundnessReport(
        s1_lower=bounds.s1_lower,
        e1_upper=bounds.e1_upper,
        true_s1=true_s1,
        true_e1=true_e1,
        s1_ok=bounds.s1_lower <= true_s1,
        e1_ok=e1_ok,
        single_clicked=single.clicked,
        single_sifted=single.sifted,
        single_errors=single.errors,
    )


def tally_to_text(tally: SimTally) -> str:
    """Serialize a tally as one key=value pair per line (fixed key order)."""
    lines = []
    sections = [("signal", tally.signal), ("decoy", tally.decoy)]
    sections += list(zip(_PHOTON_BIN_NAMES, tally.signal_photons))
    for name, counts in sections:
        for field in ("emitted", "clicked", "sifted", "errors"):
            lines.append(f"{name}.{field}={getattr(counts, field)}")
    return "\n".join(lines) + "\n"


def tally_from_text(text: str) -> SimTally:
    """Parse the key=value tally format written by tally_to_text."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()

    def counts(prefix: str) -> ClassTally:
        try:
            return ClassTally(**{f: int(values[f"{prefix}.{f}"])
                                 for f in ("emitted", "clicked", "sifted", "errors")})
        except KeyError as missing:
            raise ValueError(f"tally text is missing key {missing}") from None

    return SimTally(
        signal=counts("signal"),
        decoy=counts("decoy"),
        signal_photons=tuple(counts(name) for name in _PHOTON_BIN_NAMES),
    )
