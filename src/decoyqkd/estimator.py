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

The bound chain (decoy-rate floor, yield bound, QBER bound, key rate,
secure flag) is written once, in _chain, and runs two ways:
analyze_row evaluates it on one row of Python floats and raises the
row's abort cause; analyze_columns evaluates it over float64 columns
and returns every row's bounds with its abort cause, an exception of
the class and message analyze_row raises for that row, or None. Both
perform the same IEEE operations in the same order, and the entropy
goes through math.log2 in both, so a row's bounds are bit-identical
either way. A row aborts at the first check it fails, in this order:

    s_nu <= 0                              InsufficientStatisticsError
    corrected decoy rate <= 0              InsufficientStatisticsError
    not 0 < nu < mu                        AnalysisError
    yield bound not finite                 AnalysisError
    yield bound <= 0                       NoSinglePhotonBoundError
    single-photon rate underflows to 0     NoSinglePhotonBoundError
    QBER bound > 1                         NoSinglePhotonBoundError
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "AnalysisError",
    "InsufficientStatisticsError",
    "NoSinglePhotonBoundError",
    "ProtocolParams",
    "MeasuredStats",
    "SecurityBounds",
    "BoundColumns",
    "binary_entropy",
    "s_nu_lower",
    "s1_lower_bound",
    "e1_upper_bound",
    "key_rate",
    "analyze_row",
    "analyze_columns",
    "require_finite",
]

# Abort-cause messages, in the order the chain checks them; str.format
# fills in the row's values.
_NO_DECOY_RATE = "decoy counting rate s_nu={} must be > 0"
_FEW_DECOY_CLICKS = ("statistics insufficient: {:.1f} expected decoy clicks "
                     "cannot support confidence multiplier u_alpha={}")
_NOT_TWO_INTENSITY = "two-intensity bounds require 0 < nu < mu, got mu={}, nu={}"
_NOT_REPRESENTABLE = "yield bound is not representable in floating point at mu={}, nu={}"
_NO_YIELD = "no single-photon bound: yield lower bound {:g} is not positive"
_UNDERFLOW = "no single-photon bound: single-photon rate {:g}*mu*e^-mu underflows"
_QBER_ABOVE_ONE = "single-photon QBER bound {:g} exceeds 1; yield bound too weak"


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


@dataclass(frozen=True)
class BoundColumns:
    """SecurityBounds of a table of rows, one array entry per row.

    causes[i] is None when row i yields bounds, else the AnalysisError
    analyze_row raises for it; the value columns of such a row are NaN
    and its secure flag is False.
    """

    s_nu_lower: np.ndarray
    s1_lower: np.ndarray
    e1_upper: np.ndarray
    r_lower: np.ndarray
    secure: np.ndarray
    causes: list[AnalysisError | None]


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy H2(p) in bits, with the 0*log(0) = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


class _Row:
    """The chain on one row of Python floats: a failed check raises its cause."""

    sqrt = staticmethod(math.sqrt)
    entropy = staticmethod(binary_entropy)

    @staticmethod
    def nonfinite(value: float) -> bool:
        return not math.isfinite(value)

    @staticmethod
    def check(failed: bool, error: type[AnalysisError], message: str, *values) -> None:
        if failed:
            raise error(message.format(*values))


class _Columns:
    """The chain over float64 columns: every row runs to the end and keeps
    the first check it fails as its abort cause."""

    sqrt = staticmethod(np.sqrt)

    def __init__(self, size: int):
        self.ok = np.ones(size, dtype=bool)
        self.causes: list[AnalysisError | None] = [None] * size

    @staticmethod
    def nonfinite(values: np.ndarray) -> np.ndarray:
        return ~np.isfinite(values)

    def check(self, failed, error: type[AnalysisError], message: str, *values) -> None:
        rows = np.flatnonzero(self.ok & failed)
        if rows.size == 0:
            return
        self.ok[rows] = False
        # tolist gives Python floats, so the messages format as analyze_row's do.
        columns = (np.broadcast_to(v, self.ok.shape)[rows].tolist() for v in values)
        for i, *row_values in zip(rows.tolist(), *columns):
            self.causes[i] = error(message.format(*row_values))

    def entropy(self, p: np.ndarray) -> np.ndarray:
        """binary_entropy of the rows still without an abort cause, NaN elsewhere."""
        # math.log2 per value rather than np.log2, whose SIMD loop can round
        # differently and would move r_lower by an ulp against analyze_row.
        out = np.full(p.shape, math.nan)
        out[self.ok] = [binary_entropy(x) for x in p[self.ok].tolist()]
        return out


def _decoy_floor(s_nu, n_nu: float, u_alpha: float, rows):
    rows.check(s_nu <= 0, InsufficientStatisticsError, _NO_DECOY_RATE, s_nu)
    corrected = s_nu * (1.0 - u_alpha / rows.sqrt(n_nu * s_nu))
    rows.check(corrected <= 0, InsufficientStatisticsError, _FEW_DECOY_CLICKS,
               n_nu * s_nu, u_alpha)
    return corrected


def _yield_factors(mu: float, nu: float) -> tuple[float, ...]:
    """Row-independent factors of the yield bound; all NaN where Python float
    arithmetic overflows or would divide by zero on them."""
    try:
        nu2, mu2 = nu**2, mu**2
        factors = (mu / (mu * nu - nu2), math.exp(nu), math.exp(mu), nu2, mu2,
                   mu2 - nu2, 0.5 * mu2)
    except (OverflowError, ZeroDivisionError):
        return (math.nan,) * 7
    if mu2 == 0.0 or factors[-1] == 0.0:  # the bound divides by both
        return (math.nan,) * 7
    return factors


def _require_two_intensity(params: ProtocolParams, rows) -> None:
    mu, nu = params.mu, params.nu
    rows.check(not 0 < nu < mu, AnalysisError, _NOT_TWO_INTENSITY, mu, nu)


def _yield_bound(params: ProtocolParams, s_mu, e_mu, s_nu_l, rows):
    mu, nu = params.mu, params.nu
    scale, exp_nu, exp_mu, nu2, mu2, mu2_minus_nu2, half_mu2 = _yield_factors(mu, nu)
    bound = scale * (s_nu_l * exp_nu - s_mu * exp_mu * nu2 / mu2
                     - e_mu * s_mu * exp_mu * mu2_minus_nu2 / half_mu2)
    rows.check(rows.nonfinite(bound), AnalysisError, _NOT_REPRESENTABLE, mu, nu)
    return bound


def _qber_bound(params: ProtocolParams, s_mu, e_mu, s1_l, rows):
    rows.check(s1_l <= 0, NoSinglePhotonBoundError, _NO_YIELD, s1_l)
    single_photon_rate = s1_l * params.mu * math.exp(-params.mu)
    rows.check(single_photon_rate == 0.0, NoSinglePhotonBoundError, _UNDERFLOW, s1_l)
    return e_mu * s_mu / single_photon_rate


def _key_rate(params: ProtocolParams, s_mu, e_mu, s1_l, e1_u, rows):
    ec_cost = s_mu * params.f_ec * rows.entropy(e_mu)
    single = s1_l * params.mu * math.exp(-params.mu) * (1.0 - rows.entropy(e1_u))
    return params.q * (-ec_cost + single)


def _chain(params: ProtocolParams, s_mu, e_mu, s_nu, rows):
    """(s_nu_lower, s1_lower, e1_upper, r_lower, secure) of rows, in the
    check order of the module docstring; rows is _Row or _Columns."""
    s_nu_l = _decoy_floor(s_nu, params.n_nu, params.u_alpha, rows)
    _require_two_intensity(params, rows)
    s1_l = _yield_bound(params, s_mu, e_mu, s_nu_l, rows)
    e1_u = _qber_bound(params, s_mu, e_mu, s1_l, rows)
    # A QBER bound above 1 leaves the key-rate entropy term undefined.
    rows.check(e1_u > 1.0, NoSinglePhotonBoundError, _QBER_ABOVE_ONE, e1_u)
    r_l = _key_rate(params, s_mu, e_mu, s1_l, e1_u, rows)
    return s_nu_l, s1_l, e1_u, r_l, (r_l > 0) & (e1_u < 0.5) & (s1_l > 0)


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
    return _decoy_floor(s_nu, n_nu, u_alpha, _Row)


def s1_lower_bound(params: ProtocolParams, stats: MeasuredStats) -> float:
    """Lower bound on the single-photon yield from the two-intensity pair.

    Evaluates
        (mu/(mu*nu - nu^2)) * (S_nu_L*e^nu - S_mu*e^mu*nu^2/mu^2
                               - E_mu*S_mu*e^mu*(mu^2 - nu^2)/(mu^2/2))
    with S_nu_L the finite-size-corrected decoy rate. The error term
    removes the worst-case vacuum contribution (background clicks carry
    QBER 1/2). A negative result is returned as-is; interpreting it is
    left to the caller. Raises AnalysisError unless 0 < nu < mu, and
    when the bound is not a finite float: e^mu overflows past mu ~ 709,
    and mu*nu - nu^2 underflows to zero for subnormal intensities.
    """
    _require_two_intensity(params, _Row)
    s_nu_l = s_nu_lower(stats.s_nu, params.n_nu, params.u_alpha)
    return _yield_bound(params, stats.s_mu, stats.e_mu, s_nu_l, _Row)


def e1_upper_bound(params: ProtocolParams, stats: MeasuredStats, s1_l: float) -> float:
    """Upper bound on the single-photon QBER given a positive yield bound.

    All observed signal errors are conservatively attributed to the
    single-photon fraction: E_mu*S_mu / (S1_L * mu * e^-mu).
    """
    return _qber_bound(params, stats.s_mu, stats.e_mu, s1_l, _Row)


def key_rate(params: ProtocolParams, stats: MeasuredStats, s1_l: float, e1_u: float) -> float:
    """Secure key rate lower bound in bits per emitted signal pulse.

    q * (-S_mu * f_ec * H2(E_mu) + S1_L * mu * e^-mu * (1 - H2(e1_U))).
    The first term is the error-correction cost over all sifted signal
    bits, the second the privacy-amplified single-photon contribution.
    May be negative; the caller decides what negative rates mean.
    """
    if not 0.0 <= e1_u <= 1.0:
        raise ValueError(f"e1_u={e1_u} must be in [0, 1]")
    return _key_rate(params, stats.s_mu, stats.e_mu, s1_l, e1_u, _Row)


def analyze_row(params: ProtocolParams, stats: MeasuredStats) -> SecurityBounds:
    """Full bound chain for one measured row.

    Composes the decoy-rate floor, yield bound, QBER bound and key rate
    and sets the secure flag, on Python floats. Raises the row's abort
    cause, an AnalysisError subclass, at the first failed check (module
    docstring).
    """
    return SecurityBounds(*_chain(params, stats.s_mu, stats.e_mu, stats.s_nu, _Row))


def analyze_columns(params: ProtocolParams, s_mu, e_mu, s_nu) -> BoundColumns:
    """The bound chain over 1-d columns of rows; row i of the result holds what
    analyze_row gives for row i, bit for bit, or the cause it raises."""
    s_mu, e_mu, s_nu = (np.asarray(c, dtype=float) for c in (s_mu, e_mu, s_nu))
    rows = _Columns(s_nu.size)
    # Rows that abort still run the arithmetic, which may divide by zero or
    # overflow; their values are replaced by NaN.
    with np.errstate(all="ignore"):
        *values, secure = _chain(params, s_mu, e_mu, s_nu, rows)
    return BoundColumns(*(np.where(rows.ok, v, math.nan) for v in values),
                        secure=secure & rows.ok, causes=rows.causes)
