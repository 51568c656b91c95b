"""Correctness checks of the benchmark's workloads.

Every check compares a decoyqkd output with a computation made apart
from the program (bench/reference.py) or with a property the method
must have, never with a stored copy of an earlier output. Each returns
a list of failure messages; an empty list means the output passed.
Outputs are parsed here from their documented text formats, and
in-process results are turned into plain tuples first, so the checks
do not depend on decoyqkd's own readers or classes.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.stats import binom, norm

import reference as ref

BOUND_RTOL = 1e-12      # bounds against the straight-line chain, on the scale of their terms
# Noise-free link statistics are themselves rounded: 1 - (1 - y0) exp(-x)
# keeps about eps/p of relative precision at click probability p, and p
# falls to y0 = 5e-7 on a long sweep, so curve points get this much room.
SWEEP_RTOL = 1e-8
FIT_RTOL = 1e-6         # noise-free fits: attenuation and lumped loss, relative
FIT_VIS_ATOL = 1e-6     # noise-free fits: visibility, absolute
CUTOFF_BAND_KM = (123.6, 140.0)
FRINGE_VIS_ATOL = 0.005
FRINGE_ZERO_ATOL = 0.01  # rad; ten times the spread of 64-point, 1e5-pulse scans
PHASE_ATOL = 1e-9        # working-point spacing
Z_LIMIT = 6.0            # |z| of a session statistic against its binomial law

BOUND_FIELDS = ("s_nu_lower", "s1_lower", "e1_upper", "r_lower")
CLASS_FIELDS = ("emitted", "clicked", "sifted", "errors")


# -------------------------------------------------------------- text formats

def parse_bounds_table(text: str) -> dict[str, np.ndarray]:
    """Columns of an `analyze` output; aborted rows get NaN values and their diagnostics."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header, body = lines[0].split("\t"), lines[1:]
    cols = {name: [] for name in header}
    for line in body:
        for name, field in zip(header, line.split("\t")):
            cols[name].append(field)
    out = {name: np.array([math.nan if v == "-" else float(v) for v in cols[name]])
           for name in ("length_km", *BOUND_FIELDS)}
    out["secure"] = np.array([v == "true" for v in cols["secure"]])
    out["diagnostics"] = np.array([v != "-" for v in cols["diagnostics"]])
    return out


def parse_key_values(text: str) -> dict[str, str]:
    """key=value lines of a config, fit or simulate output; '#' lines are skipped."""
    pairs = (ln.split("=", 1) for ln in text.splitlines()
             if "=" in ln and not ln.startswith("#"))
    return {k.strip(): v.strip() for k, v in pairs}


def parse_link(text: str) -> ref.Link:
    kv = parse_key_values(text)
    return ref.Link(**{name: float(kv[name]) for name in ref.Link.__dataclass_fields__})


def parse_sweep(text: str) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Length grid, key-rate column and cutoff of a `sweep` output."""
    cutoff = None
    lengths, rates = [], []
    for line in text.splitlines():
        if line.startswith("# cutoff_km="):
            value = line.split("=", 1)[1]
            cutoff = None if value == "none" else float(value)
        elif line and not line.startswith(("#", "length_km")):
            a, b = line.split("\t")
            lengths.append(float(a))
            rates.append(float(b))
    return np.array(lengths), np.array(rates), cutoff


def tally_from_key_values(kv: dict[str, str]) -> dict[str, tuple[int, ...]]:
    """Tally of a `simulate` output as {section: (emitted, clicked, sifted, errors)}."""
    sections = ("signal", "decoy", "photons0", "photons1", "photons2", "photons3plus")
    return {s: tuple(int(kv[f"{s}.{f}"]) for f in CLASS_FIELDS) for s in sections}


# ----------------------------------------------------------------- analysis

def _close(got: np.ndarray, want: np.ndarray, tol: np.ndarray,
           rtol: float = BOUND_RTOL) -> np.ndarray:
    return np.abs(got - want) <= rtol * tol + 1e-300


def check_bounds(got: dict[str, np.ndarray], rows: dict[str, np.ndarray],
                 params: ref.Params, label: str) -> list[str]:
    """Rows, order, abort pattern, values and secure flags against the straight-line chain."""
    n = rows["s_mu"].size
    if got["length_km"].size != n:
        return [f"{label}: {got['length_km'].size} output rows for {n} input rows"]
    fails = []
    if not np.array_equal(got["length_km"], rows["length_km"]):
        fails.append(f"{label}: row order or lengths changed")
    want = ref.bounds(params, rows["s_mu"], rows["e_mu"], rows["s_nu"])
    ok = want["status"] == ref.OK
    aborted = got["diagnostics"]
    wrong_abort = int(np.sum(aborted == ok))
    if wrong_abort:
        fails.append(f"{label}: {wrong_abort} row(s) abort where the chain has a bound "
                     "or carry a bound where it has none")
    both = ok & ~aborted
    for name in BOUND_FIELDS:
        bad = both & ~_close(got[name], want[name], want[f"tol_{name}"])
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            fails.append(f"{label}: {int(bad.sum())} row(s) with {name} off the chain, "
                         f"first at row {i}: {got[name][i]!r} vs {want[name][i]!r}")
    flipped = both & (got["secure"] != want["secure"])
    if flipped.any():
        fails.append(f"{label}: secure flag differs on {int(flipped.sum())} row(s)")
    return fails


def check_truth(got: dict[str, np.ndarray], y1: np.ndarray, e1: np.ndarray,
                mask: np.ndarray, label: str) -> list[str]:
    """On noise-free rows a bound never exceeds the true single-photon yield or QBER."""
    has = mask & ~got["diagnostics"]
    s1_bad = has & (got["s1_lower"] > y1)
    e1_bad = has & (got["e1_upper"] < e1)
    fails = []
    if s1_bad.any():
        fails.append(f"{label}: s1_lower above the true yield on {int(s1_bad.sum())} row(s)")
    if e1_bad.any():
        fails.append(f"{label}: e1_upper below the true QBER on {int(e1_bad.sum())} row(s)")
    return fails


# ------------------------------------------------------------ fit and sweep

def check_fit(fitted: ref.Link, truth: ref.Link, label: str) -> list[str]:
    """A noise-free fit recovers attenuation, lumped loss and visibility."""
    lumped = fitted.excess_loss_db - 10.0 * math.log10(fitted.eta_det)
    true_lumped = truth.excess_loss_db - 10.0 * math.log10(truth.eta_det)
    fails = []
    if abs(fitted.alpha_db_per_km / truth.alpha_db_per_km - 1.0) > FIT_RTOL:
        fails.append(f"{label}: alpha {fitted.alpha_db_per_km!r} vs {truth.alpha_db_per_km!r}")
    if abs(lumped / true_lumped - 1.0) > FIT_RTOL:
        fails.append(f"{label}: lumped loss {lumped!r} dB vs {true_lumped!r} dB")
    if abs(fitted.visibility - truth.visibility) > FIT_VIS_ATOL:
        fails.append(f"{label}: visibility {fitted.visibility!r} vs {truth.visibility!r}")
    return fails


def check_sweep(lengths: np.ndarray, rates: np.ndarray, cutoff: float | None,
                link: ref.Link, params: ref.Params, label: str) -> list[str]:
    """Curve against the independent chain; cutoff in the band and bracketed by it."""
    fails = []
    rows = ref.model_rows(link, params, lengths)
    want = ref.bounds(params, rows["s_mu"], rows["e_mu"], rows["s_nu"])
    ok = want["status"] == ref.OK
    if np.any(np.isnan(rates) == ok):
        fails.append(f"{label}: NaN pattern of the curve differs from the chain's aborts")
    bad = ok & ~np.isnan(rates) & ~_close(rates, want["r_lower"], want["tol_r_lower"],
                                          SWEEP_RTOL)
    if bad.any():
        fails.append(f"{label}: {int(bad.sum())} curve point(s) off the chain")
    if cutoff is None or not CUTOFF_BAND_KM[0] <= cutoff <= CUTOFF_BAND_KM[1]:
        return fails + [f"{label}: cutoff {cutoff} km outside {CUTOFF_BAND_KM}"]
    at, beyond = ref.model_key_rate(link, params, [cutoff, cutoff + 0.1])
    if not at > 0:
        fails.append(f"{label}: chain rate {at!r} at the cutoff {cutoff} km is not positive")
    if beyond > 0:
        fails.append(f"{label}: chain rate {beyond!r} 0.1 km beyond the cutoff is positive")
    return fails


# -------------------------------------------------------------- calibration

def _phase_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def check_fringe(visibility: float, zero: float, points: tuple[float, ...],
                 true_visibility: float, true_zero: float, label: str) -> list[str]:
    fails = []
    if abs(visibility - true_visibility) > FRINGE_VIS_ATOL:
        fails.append(f"{label}: visibility {visibility!r} vs {true_visibility!r}")
    if _phase_gap(zero, true_zero) > FRINGE_ZERO_ATOL:
        fails.append(f"{label}: fringe zero {zero!r} vs {true_zero!r}")
    gaps = [_phase_gap(points[(k + 1) % 4], points[k]) for k in range(4)]
    if len(points) != 4 or _phase_gap(points[0], zero) > PHASE_ATOL or any(
            abs(g - 0.5 * math.pi) > PHASE_ATOL for g in gaps):
        fails.append(f"{label}: working points {points} are not zero + k*pi/2")
    return fails


# ------------------------------------------------------------- Monte Carlo

def binomial_z(k: int, n: int, p: float) -> float:
    """Signed normal score of the binomial tail beyond k: exact at small counts."""
    if n == 0:
        return 0.0
    low, high = binom.cdf(k, n, p), binom.sf(k - 1, n, p)
    tail = min(1.0, 2.0 * min(low, high))
    z = float(norm.isf(tail / 2.0)) if tail < 1.0 else 0.0
    return z if high < low else -z


def check_tally(tally: dict[str, tuple[int, ...]], n_pulses: int, label: str) -> list[str]:
    """Class counts sum to the pulses sent; photon bins add up to the signal class."""
    fails = []
    if tally["signal"][0] + tally["decoy"][0] != n_pulses:
        fails.append(f"{label}: emitted {tally['signal'][0]} + {tally['decoy'][0]} "
                     f"!= {n_pulses} pulses")
    bins = [tally[f"photons{b}"] for b in ("0", "1", "2", "3plus")]
    for j, field in enumerate(CLASS_FIELDS):
        if sum(b[j] for b in bins) != tally["signal"][j]:
            fails.append(f"{label}: photon bins' {field} do not sum to the signal count")
    for name, (emitted, clicked, sifted, errors) in tally.items():
        if not 0 <= errors <= sifted <= clicked <= emitted:
            fails.append(f"{label}: {name} counts {emitted, clicked, sifted, errors} not nested")
    return fails


def session_z_scores(tally: dict[str, tuple[int, ...]], link: ref.Link,
                     params: ref.Params, length_km: float) -> dict[str, float]:
    """Scores of s_mu, s_nu, e_mu and the single-photon click rate against the click law."""
    y1, _ = ref.single_photon_truth(link, length_km)
    signal, decoy, single = tally["signal"], tally["decoy"], tally["photons1"]
    return {
        "s_mu": binomial_z(signal[1], signal[0], float(ref.gain(link, params.mu, length_km))),
        "s_nu": binomial_z(decoy[1], decoy[0], float(ref.gain(link, params.nu, length_km))),
        "e_mu": binomial_z(signal[3], signal[2], float(ref.qber(link, params.mu, length_km))),
        "single_rate": binomial_z(single[1], signal[0],
                                  float(params.mu * math.exp(-params.mu) * y1)),
    }


def check_session(tally: dict[str, tuple[int, ...]], n_pulses: int, link: ref.Link,
                  params: ref.Params, length_km: float,
                  produced: dict[str, float] | None, label: str,
                  report: dict[str, float] | None = None) -> list[str]:
    """Tally invariants, click-law scores, the bound chain and ground truth of one session.

    `produced` holds the bounds decoyqkd computed from the session with
    the session's own pulse budgets, or None where it aborted; `report`
    holds true_s1 and sound from its soundness report, where it made one.
    """
    fails = check_tally(tally, n_pulses, label)
    for name, z in session_z_scores(tally, link, params, length_km).items():
        if abs(z) > Z_LIMIT:
            fails.append(f"{label}: {name} z={z:.2f} beyond {Z_LIMIT}")
    signal, decoy, single = tally["signal"], tally["decoy"], tally["photons1"]
    rate = lambda num, den: num / den if den else 0.0  # noqa: E731
    budgets = replace(params, n_mu=float(max(1, signal[0])), n_nu=float(max(1, decoy[0])))
    want = ref.bounds(budgets, rate(signal[1], signal[0]), rate(signal[3], signal[2]),
                      rate(decoy[1], decoy[0]))
    if (want["status"] == ref.OK) != (produced is not None):
        return fails + [f"{label}: bounds {'missing' if produced is None else 'produced'} "
                        f"where the chain has status {int(want['status'])}"]
    if produced is None:
        return fails
    for name in BOUND_FIELDS:
        if not _close(np.float64(produced[name]), want[name], want[f"tol_{name}"]):
            fails.append(f"{label}: {name} {produced[name]!r} vs chain {float(want[name])!r}")
    true_s1 = single[1] / signal[0] / (params.mu * math.exp(-params.mu))
    s1_ok = produced["s1_lower"] <= true_s1
    e1_ok = not single[2] or produced["e1_upper"] >= single[3] / single[2]
    if not s1_ok:
        fails.append(f"{label}: s1_lower {produced['s1_lower']!r} above ground truth {true_s1!r}")
    if not e1_ok:
        fails.append(f"{label}: e1_upper {produced['e1_upper']!r} below ground truth "
                     f"{single[3] / single[2]!r}")
    if report is not None and (abs(report["true_s1"] - true_s1) > BOUND_RTOL * true_s1
                               or report["sound"] != (s1_ok and e1_ok)):
        fails.append(f"{label}: soundness report {report} disagrees with the tally "
                     f"(true_s1={true_s1!r}, sound={s1_ok and e1_ok})")
    return fails
