"""Tests for the classical reference exposure patterns."""

import math

import numpy as np
import pytest

from qlitho.baselines import (
    _noon_grid_exposure,
    classical_n_photon,
    classical_one_photon,
    classical_two_photon,
    noon_exposure,
)
from qlitho.dosing import (
    ExposureProfile,
    SubstrateConvention,
    exposure_profile,
    fourier_components,
    phase_grid,
)
from qlitho.fock import make_state


@pytest.mark.parametrize("convention", list(SubstrateConvention))
@pytest.mark.parametrize("n_photons", [3, 171, 10**6])
@pytest.mark.parametrize("grid", [7, 64, 4097])
def test_noon_grid_exposure_is_exact_at_any_n(convention, n_photons, grid):
    # Each grid phase rate N 2 pi g / G is reduced in integers before the
    # cosine, so the closed form keeps about 1e-15 at N = 10^6, where the
    # cosine of the rounded phase is off by about N eps.
    import mpmath

    rate = 2 if convention is SubstrateConvention.SYMMETRIC else 1
    got = _noon_grid_exposure(n_photons, grid, convention)
    with mpmath.workdps(40):
        exact = [1 + mpmath.cos(2 * mpmath.pi * rate * n_photons * g / grid) for g in range(grid)]
        assert max(abs(float(x) - y) for x, y in zip(got, exact)) <= 1e-15
    if n_photons < 200:
        assert np.abs(got - noon_exposure(n_photons, phase_grid(grid), convention)).max() <= 1e-12


def test_one_photon_values():
    assert abs(classical_one_photon(0.0) - 2.0) < 1e-15
    assert abs(classical_one_photon(math.pi / 2.0)) < 1e-15
    grid = phase_grid(64)
    assert np.max(np.abs(classical_one_photon(grid) - (1.0 + np.cos(2.0 * grid)))) == 0.0


@pytest.mark.parametrize("phi", [math.nan, math.inf, [0.0, math.nan], [-math.inf, 1.0]])
@pytest.mark.parametrize("closed_form", [
    classical_one_photon,
    classical_two_photon,
    lambda phi: classical_n_photon(3, phi),
    lambda phi: noon_exposure(2, phi),
    lambda phi: noon_exposure(2, phi, SubstrateConvention.SINGLE_ARM),
], ids=["one_photon", "two_photon", "n_photon", "noon", "noon_single_arm"])
def test_closed_forms_refuse_non_finite_phases(closed_form, phi):
    with pytest.raises(ValueError, match="phase must be finite"):
        closed_form(phi)


def test_two_photon_harmonic_identity():
    # (1 + cos 2phi)^2 / 2 == 3/4 + cos 2phi + (1/4) cos 4phi
    grid = phase_grid(256)
    lhs = classical_two_photon(grid)
    rhs = 0.75 + np.cos(2.0 * grid) + 0.25 * np.cos(4.0 * grid)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_n_photon_reduces_to_low_orders():
    grid = phase_grid(64)
    assert np.max(np.abs(classical_n_photon(1, grid) - classical_one_photon(grid))) < 1e-15
    assert np.max(np.abs(classical_n_photon(2, grid) - classical_two_photon(grid))) < 1e-14


def test_n_photon_mean_stays_normalized():
    # Each pattern is (1+cos)^N / 2^(N-1); its grid mean is C(2N, N)/2^(2N-1) / ...
    # rather than chasing the closed form we just pin the peak: value 2 at phi=0.
    for n in (1, 2, 3, 5, 8):
        assert abs(classical_n_photon(n, 0.0) - 2.0) < 1e-12
    with pytest.raises(ValueError, match="positive"):
        classical_n_photon(0, 0.0)


def test_n_photon_large_n_stays_finite():
    # 2 ((1 + cos 2phi)/2)^N never overflows; for small N it is the
    # (1 + cos 2phi)^N / 2^(N-1) form to rounding.
    grid = phase_grid(512)
    dose = classical_n_photon(1100, grid)
    assert np.all(np.isfinite(dose))
    assert dose.max() == 2.0
    for n in range(1, 31):
        old = classical_one_photon(grid) ** n / 2.0 ** (n - 1)
        assert np.allclose(classical_n_photon(n, grid), old, rtol=1e-14, atol=0.0)


def test_noon_exposure_period():
    grid = phase_grid(128)
    for n in (1, 2, 5, 9):
        shifted = noon_exposure(n, grid + math.pi / n)
        assert np.max(np.abs(shifted - noon_exposure(n, grid))) < 1e-12
    with pytest.raises(ValueError, match="positive"):
        noon_exposure(0, grid)
    for convention in ("symmetric", "single-arm", None):
        with pytest.raises(ValueError, match="unknown substrate convention"):
            noon_exposure(2, grid, convention)


def test_simulated_single_photon_matches_classical_harmonics():
    # The quantum one-photon pipeline and the classical fringe share the same
    # harmonic magnitudes; only the fringe offset differs.
    grid = phase_grid(256)
    simulated = exposure_profile(
        make_state({(1, 0): 1.0}), 1, 256, SubstrateConvention.SYMMETRIC, from_input=True
    )
    classical = ExposureProfile(grid, classical_one_photon(grid))
    sim_coeffs = fourier_components(simulated, 4)
    cls_coeffs = fourier_components(classical, 4)
    assert np.max(np.abs(np.abs(sim_coeffs) - np.abs(cls_coeffs))) < 1e-10
