"""Reference copy of the coherent click law.

link evaluates coherent_click_probability through an in-place kernel that
calibration's fringe fit shares; this module keeps the law as one numpy
expression, so the tests can check that both give the same bits.
"""
import numpy as np


def coherent_click_probability(arriving_photons, visibility, y0, phase_diff):
    """y0 + (1 - y0)*(1 - exp(-a*(1 + V*cos d)/2)) at a = arriving_photons;
    the arguments broadcast."""
    a = arriving_photons
    return y0 + (1 - y0) * (-np.expm1((-a) / 2.0 * (1.0 + visibility * np.cos(phase_diff))))
