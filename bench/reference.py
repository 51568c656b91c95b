"""Independent reference for the benchmark's correctness checks.

Nothing here imports decoyqkd. The module holds its own transcription of

* the interferometric click law of a lumped fiber link: a coherent pulse
  of mean photon number m at phase difference d clicks with probability
  1 - (1 - y0) * exp(-eta * m * (1 + V cos d) / 2);
* the Poisson-mixture single-photon yield Y1 and single-photon QBER e1
  of such a link: a single photon clicks with 1 - (1 - y0)(1 - eta(1 + V cos d)/2);
* the straight-line two-intensity bounds of Ma, Qi, Zhao & Lo,
  PRA 72, 012326 (2005), with the vacuum error rate e0 = 1/2 and a
  one-sided finite-size floor on the decoy rate;
* the seeded generator of every benchmark input (the bulk analysis
  table, the held-out fit tables and the link model files), so inputs
  are rebuilt from a seed instead of being stored:

    python3 bench/reference.py --seed 1 --out bench/.work/inputs

All functions take and return numpy arrays or floats and are vectorised
over fiber length and measured rows.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PHASES = np.array([0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi])

# Abort causes of the bound chain.
OK, INSUFFICIENT, NO_BOUND = 0, 1, 2


@dataclass(frozen=True)
class Link:
    """Fiber link: attenuation, excess loss, detector efficiency, dark rate, visibility."""

    alpha_db_per_km: float
    excess_loss_db: float
    eta_det: float
    y0: float
    visibility: float

    def config_text(self) -> str:
        """The flat key=value link file the decoyqkd CLI reads."""
        return "".join(f"{k}={float(v)!r}\n" for k, v in vars(self).items())


@dataclass(frozen=True)
class Params:
    """Protocol constants; the defaults are the decoyqkd CLI defaults."""

    mu: float = 0.6
    nu: float = 0.2
    q: float = 0.5
    f_ec: float = 1.2
    u_alpha: float = 10.0
    n_mu: float = 1e9
    n_nu: float = 1e9


# Close to the model decoyqkd fits to its bundled six-length table; the
# Monte Carlo workload passes it explicitly so that no fit runs there.
PAPER_LINK = Link(alpha_db_per_km=0.1666, excess_loss_db=18.31, eta_det=1.0,
                  y0=5e-7, visibility=0.976)
BUNDLED_LENGTHS = (49.2, 62.1, 83.7, 97.0, 108.0, 123.6)


# ---------------------------------------------------------------- link physics

def eta(link: Link, length_km) -> np.ndarray:
    """End-to-end transmittance at each length."""
    loss_db = link.alpha_db_per_km * np.asarray(length_km, dtype=float) + link.excess_loss_db
    return link.eta_det * np.power(10.0, -loss_db / 10.0)


def click(link: Link, mean_photons: float, phase, length_km) -> np.ndarray:
    """Coherent-pulse click probability; broadcasts phase against length."""
    fringe = 1.0 + link.visibility * np.cos(phase)
    return 1.0 - (1.0 - link.y0) * np.exp(-0.5 * eta(link, length_km) * mean_photons * fringe)


def gain(link: Link, mean_photons: float, length_km) -> np.ndarray:
    """Clicks per emitted pulse, phase differences uniform over the four phases."""
    lengths = np.asarray(length_km, dtype=float)
    return np.mean([click(link, mean_photons, d, lengths) for d in PHASES], axis=0)


def qber(link: Link, mean_photons: float, length_km) -> np.ndarray:
    """Errors among sifted clicks: destructive-phase clicks over matched-basis clicks."""
    right = click(link, mean_photons, 0.0, length_km)
    wrong = click(link, mean_photons, math.pi, length_km)
    return wrong / (right + wrong)


def model_rows(link: Link, params: Params, length_km) -> dict[str, np.ndarray]:
    """Noise-free measured statistics of the link at each length."""
    lengths = np.asarray(length_km, dtype=float)
    return {"length_km": lengths,
            "s_mu": gain(link, params.mu, lengths), "e_mu": qber(link, params.mu, lengths),
            "s_nu": gain(link, params.nu, lengths), "e_nu": qber(link, params.nu, lengths)}


def single_photon_truth(link: Link, length_km) -> tuple[np.ndarray, np.ndarray]:
    """True single-photon yield Y1 and QBER e1 of the Poisson mixture."""
    t = eta(link, length_km)
    p = [1.0 - (1.0 - link.y0) * (1.0 - 0.5 * t * (1.0 + link.visibility * math.cos(d)))
         for d in PHASES]
    return np.mean(p, axis=0), p[2] / (p[0] + p[2])


# --------------------------------------------------------- two-intensity bounds

def _h2(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p == 0.0) | (p == 1.0), 0.0, h)


def _h2_sensitivity(p: np.ndarray) -> np.ndarray:
    """|p * dH2/dp|: how a relative error of p moves H2(p); 0 at p = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, np.abs(p * np.log2((1.0 - p) / p)), 0.0)


def bounds(params: Params, s_mu, e_mu, s_nu) -> dict[str, np.ndarray]:
    """Straight-line two-intensity bounds for arrays of measured rows.

    Returns s_nu_lower, s1_lower, e1_upper, r_lower, secure and status
    (OK, INSUFFICIENT or NO_BOUND), plus tol_* arrays: the absolute
    rounding error a correct double-precision evaluation may carry per
    unit of relative tolerance. They are the magnitudes of the terms a
    formula sums, so rows whose bound cancels to near zero are compared
    on the scale of their terms rather than of their tiny difference.
    Values of aborted rows are NaN.
    """
    mu, nu = params.mu, params.nu
    s_mu, e_mu, s_nu = (np.asarray(a, dtype=float) for a in (s_mu, e_mu, s_nu))
    with np.errstate(divide="ignore", invalid="ignore"):
        s_nu_l = s_nu * (1.0 - params.u_alpha / np.sqrt(params.n_nu * s_nu))
        insufficient = ~(s_nu > 0) | ~(s_nu_l > 0)

        # Y1 >= mu / (nu (mu - nu)) [Q_nu e^nu - Q_mu e^mu nu^2/mu^2
        #                            - E_mu Q_mu e^mu (mu^2 - nu^2) / (e0 mu^2)]
        lead = mu / (nu * (mu - nu))
        terms = (s_nu_l * math.exp(nu),
                 s_mu * math.exp(mu) * (nu / mu) ** 2,
                 e_mu * s_mu * math.exp(mu) * (1.0 - (nu / mu) ** 2) / 0.5)
        s1 = lead * (terms[0] - terms[1] - terms[2])
        tol_s1 = lead * (np.abs(terms[0]) + terms[1] + terms[2])

        single_weight = mu * math.exp(-mu)
        e1 = e_mu * s_mu / (s1 * single_weight)
        no_bound = ~insufficient & (~(s1 > 0) | ~(e1 <= 1.0))
        ok = ~insufficient & ~no_bound
        # Relative rounding of s1 is tol_s1/|s1|; e1 inherits it.
        cond = tol_s1 / np.abs(s1)
        tol_e1 = np.abs(e1) * cond

        ec = s_mu * params.f_ec * _h2(e_mu)
        privacy = s1 * single_weight
        h_e1 = _h2(e1)
        r = params.q * (privacy * (1.0 - h_e1) - ec)
        tol_r = params.q * (ec + np.abs(privacy) * cond
                            * (np.abs(1.0 - h_e1) + _h2_sensitivity(e1)))

    status = np.where(insufficient, INSUFFICIENT, np.where(no_bound, NO_BOUND, OK))
    nan = np.nan
    return {
        "s_nu_lower": np.where(insufficient, nan, s_nu_l),
        "s1_lower": np.where(ok, s1, nan),
        "e1_upper": np.where(ok, e1, nan),
        "r_lower": np.where(ok, r, nan),
        "secure": ok & (r > 0) & (e1 < 0.5) & (s1 > 0),
        "status": status,
        "tol_s_nu_lower": np.abs(s_nu),
        "tol_s1_lower": tol_s1,
        "tol_e1_upper": tol_e1,
        "tol_r_lower": tol_r,
    }


def model_key_rate(link: Link, params: Params, length_km) -> np.ndarray:
    """Key-rate bound of the noise-free link statistics; NaN where the chain aborts."""
    rows = model_rows(link, params, length_km)
    return bounds(params, rows["s_mu"], rows["e_mu"], rows["s_nu"])["r_lower"]


# ------------------------------------------------------------- input generator

BULK_LENGTH_MAX_KM = 220.0
BULK_NOISE_SHARE = 0.5
BULK_MODELS = 4
HELDOUT_ROWS = (3, 5)


def bulk_models(rng: np.random.Generator) -> list[Link]:
    """Links from a low-loss noisy detector to a high-loss quiet one.

    The first model's dark counts keep its decoy rate well above the
    finite-size floor, so its long rows fail through a non-positive
    yield bound; the last model is so lossy and quiet that its long rows
    run out of decoy statistics. Between them both abort paths occur.
    """
    models = []
    for k in range(BULK_MODELS):
        x = k / (BULK_MODELS - 1)
        models.append(Link(
            alpha_db_per_km=float(rng.uniform(0.16, 0.19) + 0.06 * x),
            excess_loss_db=float(rng.uniform(2.0, 6.0) + 12.0 * x),
            eta_det=float(rng.uniform(0.08, 0.3)) if k % 2 else 1.0,
            y0=float(10.0 ** (rng.uniform(-6.3, -5.9) - 2.0 * x)),
            visibility=float(rng.uniform(0.95, 0.995)),
        ))
    return models


def bulk_table(seed: int, n_rows: int, params: Params = Params()) -> dict[str, np.ndarray]:
    """Measured rows from several known links at 0 to 220 km.

    A BULK_NOISE_SHARE of the rows carries binomial sampling noise from
    a pulse budget of 1e7 to 1e10 per class; the rest are the noise-free
    link statistics. Besides the five table columns the result holds
    `model` (index into bulk_models), `noisy` and the true single-photon
    yield `y1` and QBER `e1` of each row's link.
    """
    rng = np.random.default_rng([seed, 1])
    models = bulk_models(rng)
    model = rng.integers(0, len(models), n_rows)
    lengths = rng.uniform(0.0, BULK_LENGTH_MAX_KM, n_rows)
    noisy = rng.random(n_rows) < BULK_NOISE_SHARE
    budget = np.floor(10.0 ** rng.uniform(7.0, 10.0, n_rows))

    cols = {c: np.empty(n_rows) for c in ("s_mu", "e_mu", "s_nu", "e_nu", "y1", "e1")}
    for k, link in enumerate(models):
        sel = model == k
        rows = model_rows(link, params, lengths[sel])
        for c in ("s_mu", "e_mu", "s_nu", "e_nu"):
            cols[c][sel] = rows[c]
        cols["y1"][sel], cols["e1"][sel] = single_photon_truth(link, lengths[sel])

    for rate, err in (("s_mu", "e_mu"), ("s_nu", "e_nu")):
        n = budget[noisy]
        clicks = rng.binomial(n.astype(np.int64), cols[rate][noisy])
        sifted = rng.binomial(clicks, 0.5)
        errors = rng.binomial(sifted, cols[err][noisy])
        cols[rate][noisy] = clicks / n
        cols[err][noisy] = np.divide(errors, sifted, out=np.zeros(sifted.size),
                                     where=sifted > 0)
    return {"length_km": lengths, **cols, "model": model, "noisy": noisy}


def heldout_tables(seed: int, params: Params = Params()) -> list[tuple[Link, dict[str, np.ndarray]]]:
    """Noise-free tables of known links, one per entry of HELDOUT_ROWS.

    Each link has eta_det = 1, so its excess loss is the lumped loss
    decoyqkd fits; lengths are distinct and lie in 10 to 140 km.
    """
    rng = np.random.default_rng([seed, 2])
    out = []
    for n_rows in HELDOUT_ROWS:
        link = Link(alpha_db_per_km=float(rng.uniform(0.17, 0.24)),
                    excess_loss_db=float(rng.uniform(8.0, 25.0)), eta_det=1.0,
                    y0=float(10.0 ** rng.uniform(-7.0, -5.7)),
                    visibility=float(rng.uniform(0.95, 0.995)))
        lengths = np.sort(rng.choice(np.arange(100, 1401), n_rows, replace=False)) / 10.0
        out.append((link, model_rows(link, params, lengths)))
    return out


def scan_setups(seed: int, count: int) -> list[tuple[Link, float, int]]:
    """(link, true fringe zero, scan seed) for each calibration cycle."""
    rng = np.random.default_rng([seed, 3])
    return [(Link(alpha_db_per_km=0.0, excess_loss_db=0.0, eta_det=1.0, y0=5e-7,
                  visibility=float(rng.uniform(0.95, 0.995))),
             float(rng.uniform(0.0, 2.0 * math.pi)), int(rng.integers(0, 2**31)))
            for _ in range(count)]


def write_table(path: Path, rows: dict[str, np.ndarray]) -> None:
    """Measured-statistics table in the decoyqkd format, floats written losslessly."""
    cols = ("length_km", "s_mu", "e_mu", "s_nu", "e_nu")
    data = np.column_stack([rows[c] for c in cols])
    np.savetxt(path, data, fmt="%.17g", delimiter="\t", header="\t".join(cols), comments="")


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one seed: the arrays the checks need and the files decoyqkd reads."""

    bulk: dict[str, np.ndarray]
    bulk_path: Path
    heldout: list[tuple[Link, dict[str, np.ndarray]]]
    heldout_paths: list[Path]
    paper_link_path: Path


def write_inputs(seed: int, out: Path, bulk_rows: int) -> Inputs:
    """Write every generated input of one seed into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    bulk = bulk_table(seed, bulk_rows)
    write_table(out / "bulk.tsv", bulk)
    heldout = heldout_tables(seed)
    for i, (link, rows) in enumerate(heldout):
        write_table(out / f"heldout{i}.tsv", rows)
        (out / f"heldout{i}_link.cfg").write_text(link.config_text())
    (out / "paper_link.cfg").write_text(PAPER_LINK.config_text())
    return Inputs(bulk=bulk, bulk_path=out / "bulk.tsv", heldout=heldout,
                  heldout_paths=[out / f"heldout{i}.tsv" for i in range(len(heldout))],
                  paper_link_path=out / "paper_link.cfg")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the benchmark inputs of one seed.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--bulk-rows", type=int, default=30_000)
    args = parser.parse_args()
    write_inputs(args.seed, args.out, args.bulk_rows)
    for path in sorted(args.out.iterdir()):
        print(path)
