"""Two-intensity decoy-state security bounds.

Pure functions that turn measured counting rates and QBERs of a
signal/decoy pair (mean photon numbers mu > nu) into a lower bound on
the single-photon yield, an upper bound on the single-photon QBER and
a lower bound on the secure key rate per emitted signal pulse. The
decoy counting rate carries a one-sided finite-size correction
controlled by a confidence multiplier.

All rates are per emitted pulse of the respective intensity class; the
single-photon yield bound is per emitted single-photon pulse, so its
contribution to the key rate carries the Poisson weight mu*exp(-mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "AnalysisError",
    "InsufficientStatisticsError",
    "NoSinglePhotonBoundError",
    "ProtocolParams",
    "MeasuredStats",
    "SecurityBounds",
    "binary_entropy",
    "s_nu_lower",
    "s1_lower_bound",
    "e1_upper_bound",
    "key_rate",
    "analyze_row",
    "require_finite",
]


def require_finite(**values: float) -> None:
    """Raise ValueError naming the first of the keyword values that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name}={value} must be finite")


class AnalysisError(ValueError):
    """Security-bound computation cannot proceed with the given inputs."""


class InsufficientStatisticsError(AnalysisError):
    """Too few decoy detections for the requested confidence level."""


class NoSinglePhotonBoundError(AnalysisError):
    """The single-photon yield bound is not positive, so no QBER bound exists."""


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-level constants of a two-intensity decoy session.

    mu, nu        mean photon numbers of signal and decoy pulses
    q             sifting/implementation factor (1/2 for symmetric BB84)
    f_ec          bidirectional error-correction inefficiency, >= 1
    u_alpha       confidence multiplier of the decoy-rate fluctuation term
    n_mu, n_nu    emitted signal / decoy pulse budgets

    The class admits degenerate intensities (mu == nu, or zero) so that
    simulation configs can describe e.g. vacuum-only runs; the bound
    computations themselves require 0 < nu < mu and raise otherwise.
    """

    mu: float = 0.6
    nu: float = 0.2
    q: float = 0.5
    f_ec: float = 1.2
    u_alpha: float = 10.0
    n_mu: float = 1e9
    n_nu: float = 1e9

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        if self.mu < 0 or self.nu < 0:
            raise ValueError(f"mean photon numbers must be >= 0, got mu={self.mu}, nu={self.nu}")
        if self.nu > self.mu:
            raise ValueError(f"decoy intensity nu={self.nu} must not exceed signal mu={self.mu}")
        if not 0 < self.q <= 1:
            raise ValueError(f"q={self.q} must be in (0, 1]")
        if self.f_ec < 1:
            raise ValueError(f"f_ec={self.f_ec} must be >= 1")
        if self.u_alpha < 0:
            raise ValueError(f"u_alpha={self.u_alpha} must be >= 0")
        if self.n_mu < 1 or self.n_nu < 1:
            raise ValueError(f"pulse budgets must be >= 1, got n_mu={self.n_mu}, n_nu={self.n_nu}")

    def require_two_intensity(self) -> None:
        """Raise unless 0 < nu < mu, the domain of the yield bound."""
        if not 0 < self.nu < self.mu:
            raise AnalysisError(
                f"two-intensity bounds require 0 < nu < mu, got mu={self.mu}, nu={self.nu}"
            )

    def with_budgets(self, n_mu: float, n_nu: float) -> "ProtocolParams":
        return replace(self, n_mu=n_mu, n_nu=n_nu)


@dataclass(frozen=True)
class MeasuredStats:
    """One observed row: fiber length plus per-intensity rates and QBERs.

    s_mu, s_nu are detector clicks per emitted pulse of the class
    (raw counting rates, before sifting); e_mu, e_nu are the QBERs of
    the sifted key of the class.
    """

    length_km: float
    s_mu: float
    e_mu: float
    s_nu: float
    e_nu: float

    def __post_init__(self) -> None:
        # One comparison rejects negative, infinite and NaN lengths; a call
        # to require_finite here would add to the cost of every table row.
        if not 0.0 <= self.length_km < math.inf:
            raise ValueError(f"length_km={self.length_km} must be finite and >= 0")
        for name in ("s_mu", "e_mu", "s_nu", "e_nu"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} must be in [0, 1]")

    def warnings(self) -> list[str]:
        """Non-fatal physicality flags (data is kept, caller decides)."""
        flags = []
        if self.s_mu <= self.s_nu:
            flags.append(
                f"s_mu={self.s_mu:g} <= s_nu={self.s_nu:g}: signal pulses should "
                "click more often than weaker decoy pulses"
            )
        return flags


@dataclass(frozen=True)
class SecurityBounds:
    """Derived security quantities for one measured row.

    s_nu_lower    finite-size-corrected decoy counting rate
    s1_lower      single-photon yield lower bound (per single-photon pulse)
    e1_upper      single-photon QBER upper bound
    r_lower       secure key rate lower bound (bits per emitted signal pulse)
    secure        True iff r_lower > 0 and e1_upper < 1/2 and s1_lower > 0
    """

    s_nu_lower: float
    s1_lower: float
    e1_upper: float
    r_lower: float
    secure: bool


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy H2(p) in bits, with the 0*log(0) = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def s_nu_lower(s_nu: float, n_nu: float, u_alpha: float) -> float:
    """One-sided finite-size floor of the decoy counting rate.

    Returns s_nu * (1 - u_alpha / sqrt(n_nu * s_nu)). The fluctuation
    term shrinks with the number of observed decoy clicks n_nu * s_nu.

    Raises InsufficientStatisticsError when the corrected rate is not
    positive, i.e. fewer decoy detections than the requested confidence
    multiplier can support.
    """
    if u_alpha < 0:
        raise ValueError(f"u_alpha={u_alpha} must be >= 0")
    if n_nu < 1:
        raise ValueError(f"n_nu={n_nu} must be >= 1")
    if s_nu <= 0:
        raise InsufficientStatisticsError(f"decoy counting rate s_nu={s_nu} must be > 0")
    corrected = s_nu * (1.0 - u_alpha / math.sqrt(n_nu * s_nu))
    if corrected <= 0:
        raise InsufficientStatisticsError(
            f"statistics insufficient: {n_nu * s_nu:.1f} expected decoy clicks "
            f"cannot support confidence multiplier u_alpha={u_alpha}"
        )
    return corrected


def s1_lower_bound(params: ProtocolParams, stats: MeasuredStats) -> float:
    """Lower bound on the single-photon yield from the two-intensity pair.

    Evaluates
        (mu/(mu*nu - nu^2)) * (S_nu_L*e^nu - S_mu*e^mu*nu^2/mu^2
                               - E_mu*S_mu*e^mu*(mu^2 - nu^2)/(mu^2/2))
    with S_nu_L the finite-size-corrected decoy rate. The error term
    removes the worst-case vacuum contribution (background clicks carry
    QBER 1/2). A negative result is returned as-is; interpreting it is
    left to the caller. Raises AnalysisError when the bound is not a
    finite float: e^mu overflows past mu ~ 709, and mu*nu - nu^2
    underflows to zero for subnormal intensities.
    """
    params.require_two_intensity()
    mu, nu = params.mu, params.nu
    s_nu_l = s_nu_lower(stats.s_nu, params.n_nu, params.u_alpha)
    try:
        bound = (mu / (mu * nu - nu**2)) * (
            s_nu_l * math.exp(nu)
            - stats.s_mu * math.exp(mu) * nu**2 / mu**2
            - stats.e_mu * stats.s_mu * math.exp(mu) * (mu**2 - nu**2) / (0.5 * mu**2)
        )
    except (OverflowError, ZeroDivisionError):
        bound = math.nan
    if not math.isfinite(bound):
        raise AnalysisError(
            f"yield bound is not representable in floating point at mu={mu}, nu={nu}"
        )
    return bound


def e1_upper_bound(params: ProtocolParams, stats: MeasuredStats, s1_l: float) -> float:
    """Upper bound on the single-photon QBER given a positive yield bound.

    All observed signal errors are conservatively attributed to the
    single-photon fraction: E_mu*S_mu / (S1_L * mu * e^-mu).
    """
    if s1_l <= 0:
        raise NoSinglePhotonBoundError(
            f"no single-photon bound: yield lower bound {s1_l:g} is not positive"
        )
    single_photon_rate = s1_l * params.mu * math.exp(-params.mu)
    if single_photon_rate == 0.0:
        raise NoSinglePhotonBoundError(
            f"no single-photon bound: single-photon rate {s1_l:g}*mu*e^-mu underflows"
        )
    return stats.e_mu * stats.s_mu / single_photon_rate


def key_rate(params: ProtocolParams, stats: MeasuredStats, s1_l: float, e1_u: float) -> float:
    """Secure key rate lower bound in bits per emitted signal pulse.

    q * (-S_mu * f_ec * H2(E_mu) + S1_L * mu * e^-mu * (1 - H2(e1_U))).
    The first term is the error-correction cost over all sifted signal
    bits, the second the privacy-amplified single-photon contribution.
    May be negative; the caller decides what negative rates mean.
    """
    if not 0.0 <= e1_u <= 1.0:
        raise ValueError(f"e1_u={e1_u} must be in [0, 1]")
    ec_cost = stats.s_mu * params.f_ec * binary_entropy(stats.e_mu)
    single = s1_l * params.mu * math.exp(-params.mu) * (1.0 - binary_entropy(e1_u))
    return params.q * (-ec_cost + single)


def analyze_row(params: ProtocolParams, stats: MeasuredStats) -> SecurityBounds:
    """Full bound chain for one measured row.

    Composes the decoy-rate floor, yield bound, QBER bound and key rate
    and sets the secure flag. AnalysisError subclasses from the
    components propagate (insufficient decoy statistics, non-positive
    yield bound); a QBER bound above 1 makes the key-rate entropy term
    undefined and is reported as NoSinglePhotonBoundError as well.
    """
    s_nu_l = s_nu_lower(stats.s_nu, params.n_nu, params.u_alpha)
    s1_l = s1_lower_bound(params, stats)
    e1_u = e1_upper_bound(params, stats, s1_l)
    if e1_u > 1.0:
        raise NoSinglePhotonBoundError(
            f"single-photon QBER bound {e1_u:g} exceeds 1; yield bound too weak"
        )
    r_l = key_rate(params, stats, s1_l, e1_u)
    secure = r_l > 0 and e1_u < 0.5 and s1_l > 0
    return SecurityBounds(s_nu_lower=s_nu_l, s1_lower=s1_l, e1_upper=e1_u,
                          r_lower=r_l, secure=secure)
