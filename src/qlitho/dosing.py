"""N-photon exposure of a substrate by a two-mode field.

The substrate records N-photon absorption events.  For a field operator
e (a linear combination of the two mode operators arriving at the
substrate), the dose at a point is

    rate = || e^N |psi> ||^2 / N!

i.e. the expectation of the normally ordered absorption operator
(e†)^N e^N / N!.  It is computed per photon-number sector (see
:mod:`qlitho.fock`): for a state in the N-photon sector, with
psi_n = <n, N-n|psi>, it is the trigonometric polynomial

    rate = | sum_n psi_n sqrt(C(N, n)) alpha^n beta^(N-n) |^2,

and every sector above N adds the squared norm of its dense image.  One
evaluator, "coefficients @ field powers", serves a single phase and any
set of phases; the phases are taken in blocks of bounded size.

The dose is band limited.  Every field below is a combination of
e^{i phi} and e^{-i phi} (SYMMETRIC) or of e^{i phi} and 1 (SINGLE_ARM), so
the dose is a trigonometric polynomial in phi of degree band = 2N or N:
its finest fringe is the paper's lambda/2N.  A SYMMETRIC dose holds even
harmonics only (phi -> phi + pi scales every field power alpha^n
beta^(N-n) by (-1)^N), so in both conventions it is a trigonometric
polynomial of degree N in stride phi, stride 2 or 1, and its values at
2N + 1 uniform phases over 2 pi / stride fix it everywhere.  That lets
:func:`exposure_profile` dose a dense state at those phases only and
interpolate the grid.

Two conventions relate the point phase ``phi`` to the field:

* SYMMETRIC -- the two beams reach the substrate counter-propagating, so
  the field is e(phi) = c e^{i phi} + d e^{-i phi} and the state at the
  substrate carries no phase of its own.  Fringes of an N-photon
  path-entangled state then oscillate as cos(2 N phi).

* SINGLE_ARM -- the interferometer chain is taken literally: an explicit
  phase shifter diag(e^{i phi}, 1) sits in one arm and the substrate sees
  the plain sum e = c + d.  All fringe frequencies come out halved
  relative to SYMMETRIC; the two conventions agree after rescaling the
  phase axis by two (up to a constant offset).

A state is dosed where it sits, by the field pulled back to it (Heisenberg
picture): e^{i phi} c + d behind the SINGLE_ARM phase shifter, and
(alpha, beta) T at the inputs, ahead of the splitter and mirror
T = [[1, -i], [-i, 1]] / sqrt2.  That is taken as half of (alpha, beta) @
sqrt2 T, exact and at most 1 in size, and the dose is doubled N times.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .fock import FieldCoefficients, FockState, _count, _field_powers, _lowering_terms, make_state
from .optics import ModeUnitary, beamsplitter, compose, mirror, phase_shifter

# Upper bound on the elements of one block of work (dose arrays, synthesis QR
# rows, formatted output rows), so that large grids do not raise peak memory.
_BLOCK_ELEMENTS = 1 << 16

_INPUT_CHAIN = np.array([[1, -1j], [-1j, 1]])  # sqrt2 compose(mirror(), beamsplitter())
# Powers alpha^k beta^(N-k) of the halved input field reach 2^(-N/2): subnormal past this N.
_MAX_INPUT_PHOTONS = 2044


class SubstrateConvention(enum.Enum):
    """How the point phase enters the substrate field."""

    SYMMETRIC = "symmetric"
    SINGLE_ARM = "single-arm"


def _check_convention(convention) -> None:
    if not isinstance(convention, SubstrateConvention):
        raise ValueError(f"unknown substrate convention {convention!r}")


def _field(phis, convention: SubstrateConvention, site: str):
    """Field arrays (alpha, beta) that dose a state at ``site`` ("substrate",
    "shifter" or "inputs"), and the dose's doublings per absorbed photon."""
    if not np.all(np.isfinite(phis)):
        raise ValueError("substrate phase must be finite")
    _check_convention(convention)
    wave = np.exp(1j * np.atleast_1d(phis))
    if convention is SubstrateConvention.SYMMETRIC:
        field = (wave, wave.conj())
    else:
        field = (np.ones_like(wave) if site == "substrate" else wave, np.ones_like(wave))
    if site == "inputs":
        return _INPUT_CHAIN.T @ field / 2, 1
    return field, 0


def substrate_field(phi: float, convention: SubstrateConvention = SubstrateConvention.SYMMETRIC) -> FieldCoefficients:
    """Coefficients of the field operator at substrate phase ``phi``."""
    (alpha, beta), _ = _field(float(phi), convention, "substrate")
    return FieldCoefficients(complex(alpha[0]), complex(beta[0]))


def interferometer(phi: float, convention: SubstrateConvention = SubstrateConvention.SYMMETRIC) -> ModeUnitary:
    """Transfer matrix from the input ports to the substrate.

    Both conventions route the input through the 50/50 splitter and the
    mirror; SINGLE_ARM additionally applies the explicit phase shifter,
    while SYMMETRIC leaves the phase to the substrate field itself.
    """
    _check_convention(convention)
    shifter = phase_shifter(phi)  # refuses a non-finite phase in both conventions
    chain = compose(mirror(), beamsplitter())
    if convention is SubstrateConvention.SINGLE_ARM:
        chain = compose(shifter, chain)
    return chain


def noon_state(n_photons: int, phi: float = 0.0) -> FockState:
    """The N-photon path-entangled state (|0,N> + e^{iN phi}|N,0>)/sqrt2."""
    if n_photons < 1:
        raise ValueError("photon number must be a positive integer")
    return make_state(
        {
            (0, n_photons): 1.0,
            (n_photons, 0): cmath.exp(1j * n_photons * phi),
        }
    )


def _doses(state: FockState, n_photons: int, field, doubling: int) -> np.ndarray:
    """2^(doubling N) ||e^N |state>||^2 / N! for each field (alpha[g], beta[g]); the
    amplitudes take 2^floor(doubling N / 2) before squaring, to square at dose size."""
    half, odd = divmod(doubling * n_photons, 2)
    doses = np.zeros(len(field[0]))
    for psi in state.sectors.values():
        if len(psi) <= n_photons:
            continue
        terms, _, ks, norm = _lowering_terms(psi, n_photons, scaled=True)
        if not terms.size:
            continue
        step = max(1, _BLOCK_ELEMENTS // max(terms.shape))
        for lo in range(0, len(doses), step):
            block = slice(lo, lo + step)
            amp = terms @ _field_powers(field[0][block], field[1][block], n_photons, ks)
            re, im = np.ldexp(amp.real, half), np.ldexp(amp.imag, half)
            doses[block] += np.sum(re**2 + im**2, axis=0) / norm
    return np.ldexp(doses, odd)


def _grid_doses(state: FockState, n_photons: int, phis, convention: SubstrateConvention, site: str):
    """Doses over the phases ``phis`` of a fixed state sitting at ``site``."""
    n_photons = _count(n_photons, "photon number")
    if site == "inputs" and n_photons > _MAX_INPUT_PHOTONS:
        raise ValueError(f"input-port doses need N <= {_MAX_INPUT_PHOTONS} (got {n_photons})")
    return _doses(state, n_photons, *_field(phis, convention, site))


def deposition_rate(
    state: FockState,
    n_photons: int,
    phi: float,
    convention: SubstrateConvention = SubstrateConvention.SYMMETRIC,
) -> float:
    """Dose deposited at phase ``phi`` by a state already at the substrate.

    Equals ||e(phi)^N |state>||^2 / N!.  If the state cannot supply N
    photons the rate is exactly zero (never an error).
    """
    return float(_grid_doses(state, n_photons, float(phi), convention, "substrate")[0])


def pipeline_rate(
    input_state: FockState,
    n_photons: int,
    phi: float,
    convention: SubstrateConvention = SubstrateConvention.SYMMETRIC,
) -> float:
    """Dose at ``phi`` for a state fed into the interferometer inputs."""
    return float(_grid_doses(input_state, n_photons, float(phi), convention, "inputs")[0])


def phase_grid(grid_points: int) -> np.ndarray:
    """Uniform phases [0, 2 pi): k * (2 pi / G) for k = 0 .. G-1."""
    grid_points = _count(grid_points, "number of grid points")
    return np.arange(grid_points) * (2.0 * np.pi / grid_points)


def _check_phase_grid(phis: np.ndarray) -> None:
    """Reject phases (NaN included) off the uniform grid of their length."""
    if not np.abs(phis - phase_grid(len(phis))).max() <= 1e-12:
        raise ValueError("phis must be the uniform grid k*2pi/G starting at 0")


@dataclass(frozen=True)
class ExposureProfile:
    """Nonnegative doses sampled on the uniform phase grid over [0, 2 pi)."""

    phis: np.ndarray
    doses: np.ndarray

    def __post_init__(self):
        phis = np.array(self.phis, dtype=float)
        doses = np.array(self.doses, dtype=float)
        if phis.ndim != 1 or phis.shape != doses.shape:
            raise ValueError("phis and doses must be 1-d arrays of equal length")
        if len(phis) < 1:
            raise ValueError("profile needs at least one sample")
        _check_phase_grid(phis)
        if not np.all(np.isfinite(doses)):
            raise ValueError("doses must be finite")
        if doses.min() < 0:
            raise ValueError("doses must be nonnegative")
        phis.flags.writeable = False
        doses.flags.writeable = False
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "doses", doses)

    def __eq__(self, other):
        return (isinstance(other, ExposureProfile) and np.array_equal(self.phis, other.phis)
                and np.array_equal(self.doses, other.doses))

    @property
    def grid_points(self) -> int:
        return len(self.phis)


def exposure_profile(
    source: FockState,
    n_photons: int,
    grid_points: int,
    convention: SubstrateConvention = SubstrateConvention.SYMMETRIC,
    from_input: bool = False,
) -> ExposureProfile:
    """Sample the dose over the full phase grid.

    With ``from_input`` the source sits at the interferometer inputs (see
    the module docstring); otherwise it is taken to be at the substrate.

    The dose is a trigonometric polynomial in phi of degree band = 2N
    (SYMMETRIC) or N (SINGLE_ARM), the paper's lambda/2N fringe.  In
    SYMMETRIC its harmonics are even, so in both conventions its values
    at 2N + 1 uniform phases fix it: over [0, 2 pi) in SINGLE_ARM, over
    half the period, [0, pi), in SYMMETRIC.  The state is dosed at those
    phases only, and the grid interpolated through the spectrum (their
    rfft into bins 0, stride, ..., band of a zeroed G-point half
    spectrum, then irfft), when both hold:

    * 2 band + 1 < G, and
    * the direct dose costs more per point than the log2 G of the
      resampling: the state holds more than log2 G nonzero amplitudes in
      sectors of at least N photons.

    Otherwise, as for |1,1> and NOON states, every point is dosed directly.
    Resampled doses of dense sectors up to N = 120 on grids up to 4096
    points measured within 7e-14 of the largest direct dose.  A dark
    point can come out a rounding error below zero and is clamped to 0.
    """
    phis = phase_grid(grid_points)
    site = "inputs" if from_input else "substrate"
    stride = 2 if convention is SubstrateConvention.SYMMETRIC else 1
    band = stride * n_photons
    work = sum(np.count_nonzero(psi) for psi in source.sectors.values() if len(psi) > n_photons)
    # An N below 1 takes the direct path, which rejects it.
    if not (1 < 2 * band + 1 < grid_points and work > math.log2(grid_points)):
        return ExposureProfile(phis, _grid_doses(source, n_photons, phis, convention, site))
    coarse = 2 * n_photons + 1
    samples = _grid_doses(source, n_photons, phase_grid(coarse) / stride, convention, site)
    spectrum = np.zeros(grid_points // 2 + 1, dtype=complex)
    spectrum[: band + 1 : stride] = np.fft.rfft(samples)
    doses = np.fft.irfft(spectrum, grid_points) * (grid_points / coarse)
    return ExposureProfile(phis, np.maximum(doses, 0.0))


def fourier_components(profile: ExposureProfile, max_harmonic: int) -> np.ndarray:
    """Harmonic content c_h = (1/G) sum_k dose_k e^{-i h phi_k}, h = 0..max.

    For a profile a0 + sum a_h cos(h phi) this returns c_0 = a0 and
    c_h = a_h / 2.  Harmonics at or above G/2 alias on a G-point grid and
    are refused; the others are bins of the real FFT of the doses.
    """
    max_harmonic = _count(max_harmonic, "max_harmonic", least=0)
    g = profile.grid_points
    if max_harmonic >= g / 2:
        raise ValueError(
            f"harmonic {max_harmonic} would alias on a {g}-point grid "
            f"(need max_harmonic < G/2)"
        )
    return np.fft.rfft(profile.doses)[: max_harmonic + 1] / g


def min_feature(n_photons: int, wavelength: float) -> float:
    """Smallest printable feature: wavelength / (2 N).

    The N-photon fringe cos(2 N phi) completes a period every
    wavelength / N of substrate travel, so adjacent dark-to-bright
    features sit wavelength / (2 N) apart.
    """
    n_photons = _count(n_photons, "photon number")
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise ValueError("wavelength must be positive and finite")
    return wavelength / (2.0 * n_photons)
