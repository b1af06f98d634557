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


def _noon_grid_exposure(n_photons: int, grid_points: int, convention=SubstrateConvention.SYMMETRIC):
    """noon_exposure on phase_grid(G), each phase rate N 2 pi g / G reduced
    in integers to 2 pi ((rate N g) mod G) / G, the grid phase of index
    (rate N g) mod G: exact to about 1e-15 at every N, where the cosine of
    the unreduced phase is off by about N eps."""
    n_photons = _count(n_photons, "photon number")
    grid_points = _count(grid_points, "number of grid points")
    _check_convention(convention)
    rate = 2 if convention is SubstrateConvention.SYMMETRIC else 1
    turns = np.arange(grid_points) * (rate * n_photons % grid_points) % grid_points
    return 1.0 + np.cos(turns * (2.0 * np.pi / grid_points))
