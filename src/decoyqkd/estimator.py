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
secure flag) is evaluated once, in analyze_columns, as numpy expressions
over float64 columns of rows. It returns every row's bounds with its
abort cause, an AnalysisError, or None. analyze_row is its one-row call
and raises the row's cause.
A row aborts at the first check it fails, in this order:

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
from collections import namedtuple
from dataclasses import dataclass, fields

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
    "analyze_row",
    "analyze_columns",
    "require_finite",
    "require_count",
    "require_seed",
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


def require_count(**values: int) -> None:
    """Raise ValueError naming the first of the keyword values that is not a
    count numpy's samplers take: a whole number from 1 to 2**63 - 1, which NaN
    fails too."""
    for name, value in values.items():
        if not (1 <= value <= 2**63 - 1 and value == int(value)):
            raise ValueError(f"{name}={value} must be in [1, 2**63 - 1] and whole")


def require_seed(seed: int) -> None:
    """Raise ValueError unless seed is an int, Python's or numpy's, >= 0: what
    SeedSequence takes, which rejects a float even when it is whole."""
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed={seed!r} must be an integer")
    if seed < 0:
        raise ValueError(f"seed={seed} must be >= 0")


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


class MeasuredStats(namedtuple("MeasuredStats", "length_km s_mu e_mu s_nu e_nu")):
    """One observed row: fiber length plus per-intensity rates and QBERs.

    The tuple of one row of a measured table's columns, in their order.
    s_mu, s_nu are detector clicks per emitted pulse of the class
    (raw counting rates, before sifting); e_mu, e_nu are the QBERs of
    the sifted key of the class.
    """

    __slots__ = ()

    def __new__(cls, length_km: float, s_mu: float, e_mu: float, s_nu: float,
                e_nu: float) -> MeasuredStats:
        # One comparison rejects negative, infinite and NaN lengths.
        if not 0.0 <= length_km < math.inf:
            raise ValueError(f"length_km={length_km} must be finite and >= 0")
        for name, value in (("s_mu", s_mu), ("e_mu", e_mu), ("s_nu", s_nu), ("e_nu", e_nu)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} must be in [0, 1]")
        return super().__new__(cls, length_km, s_mu, e_mu, s_nu, e_nu)


def _first_outside_domain(table: np.ndarray) -> tuple[int, str] | None:
    """The first row of an (n, 5) array of MeasuredStats columns with a value
    outside MeasuredStats' domain, and the message MeasuredStats raises for
    it; None when every row lies inside. The domain is checked on whole
    columns and NaN lies outside it."""
    length, rates = table[:, 0], table[:, 1:]
    outside = ~((0.0 <= length) & (length < math.inf)
                & ((0.0 <= rates) & (rates <= 1.0)).all(axis=1))
    if outside.any():
        row = int(outside.argmax())
        try:
            MeasuredStats(*table[row].tolist())
        except ValueError as exc:
            return row, str(exc)
    return None


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

    causes[i] is None when row i yields bounds, else the AnalysisError of
    the first check it fails (module docstring); the value columns of such
    a row are NaN and its secure flag is False.
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


def _entropy(p: np.ndarray) -> np.ndarray:
    """binary_entropy of each value of a 1-d array p, NaN for a value outside
    [0, 1]."""
    # math.log2 per value rather than np.log2, whose SIMD loop rounds
    # differently on about one value in a thousand and would move such a
    # row's r_lower by an ulp. The rest is binary_entropy's expression, so
    # the operations, their order and the bits are the same.
    inner = (0.0 < p) & (p < 1.0)
    x = p[inner]
    log_x = np.fromiter(map(math.log2, x.tolist()), float, x.size)
    log_rest = np.fromiter(map(math.log2, (1.0 - x).tolist()), float, x.size)
    h = np.where((p == 0.0) | (p == 1.0), 0.0, math.nan)
    h[inner] = -x * log_x - (1.0 - x) * log_rest
    return h


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


def analyze_row(params: ProtocolParams, stats: MeasuredStats) -> SecurityBounds:
    """The bounds of one measured row: analyze_columns on that row alone.
    Raises the row's abort cause, an AnalysisError subclass, for the first
    check it fails (module docstring)."""
    bounds = analyze_columns(params, [stats.s_mu], [stats.e_mu], [stats.s_nu])
    if bounds.causes[0] is not None:
        raise bounds.causes[0]
    # item() gives Python floats and a bool.
    return SecurityBounds(*(getattr(bounds, f.name)[0].item() for f in fields(SecurityBounds)))


def analyze_columns(params: ProtocolParams, s_mu, e_mu, s_nu) -> BoundColumns:
    """The bounds (s_nu_lower, s1_lower, e1_upper, r_lower, secure) of each row
    of 1-d columns, and its abort cause, for the first check it fails in the
    order of the module docstring. Raises ValueError unless the three columns
    are 1-d and of one length, and every value lies in [0, 1] (NaN does not),
    naming the first row outside that domain.

    The single-photon yield bound is
        (mu/(mu*nu - nu^2)) * (S_nu_L*e^nu - S_mu*e^mu*nu^2/mu^2
                               - E_mu*S_mu*e^mu*(mu^2 - nu^2)/(mu^2/2))
    with S_nu_L the decoy-rate floor; its error term removes the worst-case
    vacuum contribution (background clicks carry QBER 1/2). It is not a
    finite float when e^mu overflows (mu past ~709) or mu*nu - nu^2
    underflows to zero (subnormal intensities). The QBER bound charges every
    signal error to the single-photon clicks, and the key rate subtracts the
    error-correction cost over all sifted signal bits. Every row runs the
    whole chain, so one that fails a check may divide by zero or overflow
    further on; its values past that check are replaced by NaN.
    """
    s_mu, e_mu, s_nu = (np.asarray(c, dtype=float) for c in (s_mu, e_mu, s_nu))
    if not (s_mu.ndim == 1 and s_mu.shape == e_mu.shape == s_nu.shape):
        raise ValueError("analyze_columns takes three 1-d columns of one length, got shapes "
                         f"{s_mu.shape}, {e_mu.shape}, {s_nu.shape}")
    zeros = np.zeros_like(s_mu)
    outside = _first_outside_domain(np.column_stack([zeros, s_mu, e_mu, s_nu, zeros]))
    if outside is not None:
        raise ValueError("row {}: {}".format(*outside))
    mu, nu, n_nu, u_alpha = params.mu, params.nu, params.n_nu, params.u_alpha
    with np.errstate(all="ignore"):
        s_nu_l = s_nu * (1.0 - u_alpha / np.sqrt(n_nu * s_nu))
        scale, exp_nu, exp_mu, nu2, mu2, mu2_minus_nu2, half_mu2 = _yield_factors(mu, nu)
        s1_l = scale * (s_nu_l * exp_nu - s_mu * exp_mu * nu2 / mu2
                        - e_mu * s_mu * exp_mu * mu2_minus_nu2 / half_mu2)
        single_photon_rate = s1_l * mu * math.exp(-mu)
        e1_u = e_mu * s_mu / single_photon_rate
        ec_cost = s_mu * params.f_ec * _entropy(e_mu)
        r_l = params.q * (-ec_cost + single_photon_rate * (1.0 - _entropy(e1_u)))
        checks = [
            (s_nu <= 0, InsufficientStatisticsError, _NO_DECOY_RATE, (s_nu,)),
            (s_nu_l <= 0, InsufficientStatisticsError, _FEW_DECOY_CLICKS, (n_nu * s_nu, u_alpha)),
            (not 0 < nu < mu, AnalysisError, _NOT_TWO_INTENSITY, (mu, nu)),
            (~np.isfinite(s1_l), AnalysisError, _NOT_REPRESENTABLE, (mu, nu)),
            (s1_l <= 0, NoSinglePhotonBoundError, _NO_YIELD, (s1_l,)),
            (single_photon_rate == 0.0, NoSinglePhotonBoundError, _UNDERFLOW, (s1_l,)),
            # A QBER bound above 1 leaves the key-rate entropy term undefined.
            (e1_u > 1.0, NoSinglePhotonBoundError, _QBER_ABOVE_ONE, (e1_u,)),
        ]
        secure = (r_l > 0) & (e1_u < 0.5) & (s1_l > 0)
    ok = np.ones(s_nu.size, dtype=bool)
    causes: list[AnalysisError | None] = [None] * s_nu.size
    for failed, error, message, args in checks:
        rows = (ok & failed).nonzero()[0]
        if not rows.size:
            continue
        ok[rows] = False
        # tolist gives the messages Python floats.
        columns = (np.broadcast_to(v, ok.shape)[rows].tolist() for v in args)
        for i, *row_values in zip(rows.tolist(), *columns):
            causes[i] = error(message.format(*row_values))
    return BoundColumns(*(np.where(ok, v, math.nan) for v in (s_nu_l, s1_l, e1_u, r_l)),
                        secure=secure & ok, causes=causes)
