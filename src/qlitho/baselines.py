"""Classical reference exposures and the ideal N-photon fringe."""

from __future__ import annotations

import numpy as np

from .dosing import SubstrateConvention, _check_convention, _phases
from .fock import _count


def classical_one_photon(phi):
    """Single-photon / coherent fringe 1 + cos(2 phi)."""
    return 1.0 + np.cos(2.0 * _phases(phi))


def classical_two_photon(phi):
    """Uncorrelated two-photon dose (1 + cos 2phi)^2 / 2."""
    return classical_one_photon(phi) ** 2 / 2.0


def classical_n_photon(n_photons: int, phi):
    """Uncorrelated N-photon dose (1 + cos 2phi)^N / 2^(N-1).

    The normalization keeps the peak at 2 for every N, matching the one-
    and two-photon forms at N = 1, 2.  Evaluated as 2 ((1 + cos 2phi)/2)^N,
    whose base never exceeds 1, so no N overflows.
    """
    n_photons = _count(n_photons, "photon number")
    return 2.0 * (classical_one_photon(phi) / 2.0) ** n_photons


def noon_exposure(n_photons: int, phi, convention=SubstrateConvention.SYMMETRIC):
    """Path-entangled N-photon fringe 1 + cos(2 N phi), 1 + cos(N phi) in SINGLE_ARM."""
    n_photons = _count(n_photons, "photon number")
    _check_convention(convention)
    rate = 2.0 if convention is SubstrateConvention.SYMMETRIC else 1.0
    return 1.0 + np.cos(rate * n_photons * _phases(phi))
