"""Pulse-level Monte Carlo of the one-detector two-intensity decoy session.

Each pulse: Alice picks the intensity class (decoy with probability
decoy_fraction), the photon number is drawn from the Poisson law of
the class mean, both parties pick phases uniformly from
link.PHASE_GRID, and the detector clicks with the photon-number-
conditioned probability link.photon_click_probability, whose Poisson
mixture is link's coherent-state click law. Sifting keeps clicks whose
phase difference is 0 mod pi; phases {0, pi/2} encode bit 0 and
{pi, 3pi/2} bit 1, so a kept click is an error exactly when the phase
difference is pi.

Randomness is split into fixed-size chunks; chunk i of a session draws
from numpy's SeedSequence((seed, i)) in a documented order (class,
decoy photon numbers, signal photon numbers, Alice phases, Bob phases,
click uniforms). Parallel and sequential execution therefore tally
identically, and tallies merge by field-wise summation.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .estimator import MeasuredStats, ProtocolParams, SecurityBounds, require_finite
from .link import PHASE_GRID, LinkModel, photon_click_probability, transmittance

__all__ = [
    "DEFAULT_CHUNK_PULSES",
    "SimConfig",
    "ClassTally",
    "PhotonBinTally",
    "SimTally",
    "PulseRecord",
    "SoundnessReport",
    "run_chunk",
    "run_session",
    "merge_tallies",
    "measured_stats",
    "session_params",
    "soundness_report",
    "pulse_records",
    "tally_to_text",
    "tally_from_text",
]

DEFAULT_CHUNK_PULSES = 1_000_000


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
    sum to the signal emitted count. config_key fingerprints the
    generating configuration (everything except seed and pulse budget)
    so that only compatible tallies merge; the empty key is the neutral
    element of merging.
    """

    signal: ClassTally
    decoy: ClassTally
    signal_photons: tuple[ClassTally, ClassTally, ClassTally, ClassTally]
    config_key: str = ""

    def __post_init__(self) -> None:
        if len(self.signal_photons) != 4:
            raise ValueError("signal_photons must hold exactly 4 bins (n=0,1,2,>=3)")
        bin_total = sum(b.emitted for b in self.signal_photons)
        if bin_total != self.signal.emitted:
            raise ValueError(
                f"photon bins account for {bin_total} pulses, signal emitted {self.signal.emitted}"
            )

    @classmethod
    def zero(cls) -> "SimTally":
        empty = ClassTally()
        return cls(signal=empty, decoy=empty, signal_photons=(empty,) * 4, config_key="")


@dataclass(frozen=True)
class PulseRecord:
    """One pulse of a session, for inspection at small pulse counts."""

    intensity_class: str
    alice_phase: float
    bob_phase: float
    photon_count: int
    clicked: bool
    basis_matched: bool
    bit_error: bool


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


def config_fingerprint(config: SimConfig) -> str:
    """Digest of the statistical configuration (seed and budget excluded)."""
    parts = [f"{f.name}={getattr(config.link, f.name)!r}" for f in fields(config.link)]
    parts += [f"{f.name}={getattr(config.params, f.name)!r}" for f in fields(config.params)]
    parts += [f"decoy_fraction={config.decoy_fraction!r}",
              f"length_km={config.length_km!r}",
              f"bob_phase_error={config.bob_phase_error!r}"]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _simulate_arrays(config: SimConfig, chunk_index: int, n_pulses: int) -> dict[str, np.ndarray]:
    """Draw one chunk of pulses; the draw order here is the determinism contract."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, chunk_index)))
    mu, nu = config.params.mu, config.params.nu

    is_decoy = rng.random(n_pulses) < config.decoy_fraction
    photons = np.empty(n_pulses, dtype=np.int64)
    # Integer-index scatter: same values as boolean-mask assignment, ~3x faster.
    decoy_index = np.flatnonzero(is_decoy)
    photons[decoy_index] = rng.poisson(nu, decoy_index.size)
    photons[np.flatnonzero(~is_decoy)] = rng.poisson(mu, n_pulses - decoy_index.size)
    alice = rng.integers(0, 4, n_pulses, dtype=np.int8)
    bob = rng.integers(0, 4, n_pulses, dtype=np.int8)
    click_draw = rng.random(n_pulses)

    diff = (alice - bob) & 3  # int8 two's complement: same values as mod 4
    phase_diffs = np.asarray(PHASE_GRID) + config.bob_phase_error
    # Exact click-probability table indexed by (diff, n).
    p_table = photon_click_probability(
        transmittance(config.link, config.length_km), config.link.visibility,
        config.link.y0, np.arange(int(photons.max(initial=0)) + 1), phase_diffs[:, None],
    )
    p_click = p_table[diff, photons]

    clicked = click_draw < p_click
    matched = (diff & 1) == 0
    sifted = clicked & matched
    error = sifted & (diff == 2)
    return {"is_decoy": is_decoy, "photons": photons, "alice": alice, "bob": bob,
            "clicked": clicked, "matched": matched, "sifted": sifted, "error": error}


def _tally_arrays(arrays: dict[str, np.ndarray], config_key: str) -> SimTally:
    is_decoy, photons = arrays["is_decoy"], arrays["photons"]
    flags = (arrays["clicked"], arrays["sifted"], arrays["error"])

    def counts(mask: np.ndarray) -> ClassTally:
        return ClassTally(int(np.count_nonzero(mask)),
                          *(int(np.count_nonzero(flag & mask)) for flag in flags))

    signal_mask = ~is_decoy
    photon_bins = tuple(
        counts(signal_mask & bin_mask)
        for bin_mask in (photons == 0, photons == 1, photons == 2, photons >= 3)
    )
    return SimTally(signal=counts(signal_mask), decoy=counts(is_decoy),
                    signal_photons=photon_bins, config_key=config_key)


def run_chunk(config: SimConfig, chunk_index: int, n_pulses: int) -> SimTally:
    """Simulate one sub-stream chunk of a session."""
    arrays = _simulate_arrays(config, chunk_index, n_pulses)
    return _tally_arrays(arrays, config_fingerprint(config))


def _run_chunk_task(args: tuple[SimConfig, int, int]) -> SimTally:
    return run_chunk(*args)


def merge_tallies(parts: list[SimTally]) -> SimTally:
    """Field-wise sum of tallies from disjoint sub-streams of one config."""
    if not parts:
        raise ValueError("cannot merge an empty list of tallies")
    keys = {t.config_key for t in parts if t.config_key}
    if len(keys) > 1:
        raise ValueError(f"tallies come from mismatched configs: {sorted(keys)}")
    total = parts[0]
    for t in parts[1:]:
        total = SimTally(
            signal=total.signal + t.signal,
            decoy=total.decoy + t.decoy,
            signal_photons=tuple(a + b for a, b in zip(total.signal_photons, t.signal_photons)),
            config_key=total.config_key or t.config_key,
        )
    return total


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


def run_session(config: SimConfig, chunk_size: int = DEFAULT_CHUNK_PULSES,
                workers: int = 1) -> tuple[SimTally, MeasuredStats]:
    """Run a full session and derive its observed statistics.

    The session is split into ceil(n_pulses/chunk_size) chunks with
    per-chunk sub-streams; identical (seed, chunk_size) give identical
    results regardless of workers. With workers > 1 chunks run in a
    process pool and merge in chunk order.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size={chunk_size} must be >= 1")
    specs = [
        (config, i, min(chunk_size, config.n_pulses - i * chunk_size))
        for i in range((config.n_pulses + chunk_size - 1) // chunk_size)
    ]
    if workers > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk_task, specs))
    else:
        parts = [run_chunk(*spec) for spec in specs]
    tally = merge_tallies(parts)
    return tally, measured_stats(tally, config.length_km)


def pulse_records(config: SimConfig, n_pulses: int | None = None) -> list[PulseRecord]:
    """Materialize individual pulses (first chunk's stream); for small n only."""
    n = config.n_pulses if n_pulses is None else n_pulses
    arrays = _simulate_arrays(config, 0, n)
    records = []
    for i in range(n):
        records.append(PulseRecord(
            intensity_class="decoy" if arrays["is_decoy"][i] else "signal",
            alice_phase=PHASE_GRID[arrays["alice"][i]],
            bob_phase=PHASE_GRID[arrays["bob"][i]],
            photon_count=int(arrays["photons"][i]),
            clicked=bool(arrays["clicked"][i]),
            basis_matched=bool(arrays["matched"][i]),
            bit_error=bool(arrays["error"][i]),
        ))
    return records


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
    lines = [f"config_key={tally.config_key}"]
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
        config_key=values.get("config_key", ""),
    )
