"""Pulse-by-pulse reference sampler of a decoy session.

sim.run_session draws a session's counts directly; this module draws
each pulse, so the tests can check that both follow the same law.
"""
from dataclasses import dataclass

import numpy as np

from decoyqkd.link import PHASE_GRID, photon_click_probability, transmittance
from decoyqkd.sim import SimConfig


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


def simulate_arrays(config: SimConfig, n_pulses: int) -> dict[str, np.ndarray]:
    """Draw n_pulses pulses one by one."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    is_decoy = rng.random(n_pulses) < config.decoy_fraction
    photons = rng.poisson(np.where(is_decoy, config.params.nu, config.params.mu))
    alice = rng.integers(0, 4, n_pulses)
    bob = rng.integers(0, 4, n_pulses)
    diff = (alice - bob) % 4
    p_click = photon_click_probability(
        transmittance(config.link, config.length_km), config.link.visibility, config.link.y0,
        photons, np.asarray(PHASE_GRID)[diff] + config.bob_phase_error)
    clicked = rng.random(n_pulses) < p_click
    matched = diff % 2 == 0
    sifted = clicked & matched
    return {"is_decoy": is_decoy, "photons": photons, "alice": alice, "bob": bob,
            "clicked": clicked, "matched": matched, "sifted": sifted,
            "error": sifted & (diff == 2)}


def pulse_records(config: SimConfig, n_pulses: int | None = None) -> list[PulseRecord]:
    """Materialize individual pulses of the pulse-by-pulse sampler; for small n only."""
    n = config.n_pulses if n_pulses is None else n_pulses
    arrays = simulate_arrays(config, n)
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
