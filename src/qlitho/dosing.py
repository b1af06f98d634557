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

and every sector above N adds the squared norm of its dense image.  Each
site has one evaluator.  At the substrate and behind the SINGLE_ARM phase
shifter every field power is a power of z = e^{i phi}, so a dose on the
uniform grid, where z^G = 1, is one folded real FFT of the dose's
spectrum (_spectral_doses): no field power and, in the top sector, no N!.
That kernel (_folded_doses) also doses the partition basis of
:mod:`qlitho.synthesis`.  At the inputs a dose at any phase is
"coefficients @ field powers" (_input_doses), the phases taken in blocks
of bounded size.  Each phase's dose is summed over k and over the output
rows in one fixed order, so it does not depend on the other phases dosed
with it: a phase dosed alone gives the bytes it gives on a whole grid.

The dose is band limited.  Every field below is a combination of
e^{i phi} and e^{-i phi} (SYMMETRIC) or of e^{i phi} and 1 (SINGLE_ARM), so
the dose is a trigonometric polynomial in phi of degree band = 2N or N:
its finest fringe is the paper's lambda/2N.  A SYMMETRIC dose holds even
harmonics only (phi -> phi + pi scales every field power alpha^n
beta^(N-n) by (-1)^N), so in both conventions it is a trigonometric
polynomial of degree N in stride phi, stride 2 or 1, and its values at
2N + 1 uniform phases over 2 pi / stride fix it everywhere.  That lets
:func:`exposure_profile` dose a state at the inputs at those phases only
and interpolate any finer grid.

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

from .fock import FockState, _count, _field_powers, _lowering_terms, _root, make_state

# Upper bound on the elements of one block of work (dose arrays and formatted
# output rows), so that large grids do not raise peak memory.
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


def _phases(phis) -> np.ndarray:
    """``phis`` as a float array; ValueError unless every phase is finite."""
    phis = np.asarray(phis, dtype=float)
    if not np.all(np.isfinite(phis)):
        raise ValueError("phase must be finite")
    return phis


def _field(phis, convention: SubstrateConvention):
    """Field arrays (alpha, beta) that dose a state at the interferometer
    inputs, halved (see the module docstring)."""
    wave = np.exp(1j * np.atleast_1d(_phases(phis)))
    _check_convention(convention)
    if convention is SubstrateConvention.SYMMETRIC:
        field = (wave, wave.conj())
    else:
        field = (wave, np.ones_like(wave))
    return _INPUT_CHAIN.T @ field / 2


def noon_state(n_photons: int, phi: float = 0.0) -> FockState:
    """The N-photon path-entangled state (|0,N> + e^{iN phi}|N,0>)/sqrt2."""
    n_photons = _count(n_photons, "photon number")
    return make_state(
        {
            (0, n_photons): 1.0,
            (n_photons, 0): cmath.exp(1j * n_photons * phi),
        }
    )


def _doses(state: FockState, n_photons: int, field) -> np.ndarray:
    """2^N ||e^N |state>||^2 / N! for each halved field (alpha[g], beta[g]); the
    amplitudes take 2^floor(N / 2) before squaring, to square at dose size.
    A field's amplitudes are a product of its own contiguous row of field
    powers, and its squares a sum along one row: the same kernels whatever
    the block's width, so its dose does not depend on the fields beside it.
    """
    half, odd = divmod(n_photons, 2)
    doses = np.zeros(len(field[0]))
    for psi in state.sectors.values():
        if len(psi) <= n_photons:
            continue
        terms, ks, norm = _lowering_terms(psi, n_photons)
        if not terms.size:
            continue
        step = max(1, _BLOCK_ELEMENTS // max(terms.shape))
        for lo in range(0, len(doses), step):
            block = slice(lo, lo + step)
            powers = _field_powers(field[0][block], field[1][block], n_photons, ks).T.copy()
            amp = np.matmul(powers[:, None], terms.T)[:, 0]
            re, im = np.ldexp(amp.real, half), np.ldexp(amp.imag, half)
            doses[block] += np.sum(re**2 + im**2, axis=1) / norm
    return np.ldexp(doses, odd)


def _input_doses(state: FockState, n_photons: int, phis, convention: SubstrateConvention):
    """Doses over the phases ``phis`` of a fixed state at the interferometer inputs."""
    n_photons = _count(n_photons, "photon number")
    if n_photons > _MAX_INPUT_PHOTONS:
        raise ValueError(f"input-port doses need N <= {_MAX_INPUT_PHOTONS} (got {n_photons})")
    return _doses(state, n_photons, _field(phis, convention))


def _folded_doses(rows, grid_points: int) -> np.ndarray:
    """Doses on phase_grid(G) of amplitude rows that are polynomials in z = e^{i phi}.

    ``rows`` yields ``(terms, harmonics, norm)``: terms[i, c] is the
    coefficient of z^harmonics[c] in row i, and the dose is the sum of
    |row|^2 / norm over every row.  On the grid z^G = 1, so harmonic h goes
    into bin h mod G, exact for any G, with no band condition and no
    complex power.  The dose's spectrum is then the folded rows'
    autocorrelation, summed over every row, and one real inverse FFT gives
    the dose at every grid point.  A dark point can come out a rounding
    error below zero and is clamped to 0.  The correlation of U occupied
    bins is taken in blocks of at most _BLOCK_ELEMENTS / U bins.
    """
    spectrum = np.zeros((2, grid_points))
    for terms, harmonics, norm in rows:
        if not terms.size:
            continue
        bins, fold = np.unique(harmonics % grid_points, return_inverse=True)
        folded = np.zeros((len(terms), len(bins)), dtype=complex)
        np.add.at(folded, (slice(None), fold), terms)
        step = max(1, _BLOCK_ELEMENTS // len(bins))
        for lo in range(0, len(bins), step):
            corr = folded[:, lo:lo + step].T @ folded.conj() / norm
            lags = ((bins[lo:lo + step, None] - bins) % grid_points).ravel()
            for part, values in zip(spectrum, (corr.real, corr.imag)):
                part += np.bincount(lags, values.ravel(), grid_points)
    real, imag = spectrum[:, : grid_points // 2 + 1]
    doses = np.fft.irfft(real + 1j * imag, grid_points, norm="forward")
    return np.maximum(doses, 0.0, out=doses)


def _spectral_doses(state: FockState, n_photons: int, grid_points: int,
                    convention: SubstrateConvention, site: str) -> np.ndarray:
    """Doses on phase_grid(G) of a state at the substrate or behind the
    SINGLE_ARM phase shifter (``site`` "substrate" or "shifter").

    There the field is a monomial in z = e^{i phi}: alpha^k beta^(N-k) is
    z^(2k-N) (SYMMETRIC), z^k (behind the shifter) or 1 (SINGLE_ARM at the
    substrate), so each output row of a sector is a polynomial in z, and
    _folded_doses doses the rows of every sector at once.  In the top
    sector (M = N) the coefficients are psi[k] sqrt(C(N, k)), the roots
    correctly rounded and formed only where psi is nonzero, so no N! is
    formed; sectors above N take _lowering_terms.
    """
    n_photons = _count(n_photons, "photon number")
    grid_points = _count(grid_points, "number of grid points")
    _check_convention(convention)
    if convention is SubstrateConvention.SYMMETRIC:
        stride, offset = 2, n_photons
    else:
        stride, offset = int(site == "shifter"), 0

    def rows():
        for total, psi in state.sectors.items():
            if total < n_photons:
                continue
            if total == n_photons:
                ks = np.flatnonzero(psi)
                weights = [_root(math.comb(n_photons, k)) for k in ks.tolist()]
                terms, norm = (psi[ks] * np.array(weights))[None], 1.0
            else:
                terms, ks, norm = _lowering_terms(psi, n_photons)
            yield terms, stride * ks - offset, norm

    return _folded_doses(rows(), grid_points)


def phase_grid(grid_points: int) -> np.ndarray:
    """Uniform phases [0, 2 pi): k * (2 pi / G) for k = 0 .. G-1."""
    grid_points = _count(grid_points, "number of grid points")
    return np.arange(grid_points) * (2.0 * np.pi / grid_points)


def _check_phase_grid(phis: np.ndarray) -> None:
    """Reject phases (NaN included) off the uniform grid of their length."""
    if not np.abs(phis - phase_grid(len(phis))).max() <= 1e-12:
        raise ValueError("phis must be the uniform grid k*2pi/G starting at 0")


def _check_doses(doses: np.ndarray) -> None:
    if not np.all(np.isfinite(doses)):
        raise ValueError("doses must be finite")
    if doses.min() < 0:
        raise ValueError("doses must be nonnegative")


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
        _check_doses(doses)
        _freeze(self, phis, doses)

    def __eq__(self, other):
        return (isinstance(other, ExposureProfile) and np.array_equal(self.phis, other.phis)
                and np.array_equal(self.doses, other.doses))

    @property
    def grid_points(self) -> int:
        return len(self.phis)


def _freeze(profile: ExposureProfile, phis: np.ndarray, doses: np.ndarray) -> None:
    phis.flags.writeable = False
    doses.flags.writeable = False
    object.__setattr__(profile, "phis", phis)
    object.__setattr__(profile, "doses", doses)


def _grid_profile(phis: np.ndarray, doses: np.ndarray) -> ExposureProfile:
    """A profile of fresh float arrays, ``phis`` from phase_grid(len(doses)),
    that takes them as they are: no copies and no grid check, only the check
    of the doses."""
    _check_doses(doses)
    profile = object.__new__(ExposureProfile)
    _freeze(profile, phis, doses)
    return profile


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

    At the substrate every field power is a power of e^{i phi}, and every
    grid is dosed by one folded real FFT of the dose's spectrum
    (_spectral_doses), exact for any G.  At the inputs the dose, of degree band = 2N or N in phi, is
    fixed by its values at 2N + 1 uniform phases over [0, 2 pi / stride)
    (see the module docstring).  Where 2 band + 1 < G the state is dosed at
    those phases only and the grid interpolated through the spectrum (their
    rfft into bins 0, stride, ..., band of a zeroed G-point half spectrum,
    then irfft); otherwise every point is dosed.  N, G and the convention
    pick the path, never the state.  Resampled doses of dense sectors
    (N <= 120, G = 1024) and |N,0> (N <= 150, G = 4096) measured within
    9e-14 of the largest exact dose.  A dark point can come out a rounding
    error below zero and is clamped to 0.
    """
    n_photons = _count(n_photons, "photon number")
    if not from_input:
        doses = _spectral_doses(source, n_photons, grid_points, convention, "substrate")
        return _grid_profile(phase_grid(grid_points), doses)
    phis = phase_grid(grid_points)
    stride = 2 if convention is SubstrateConvention.SYMMETRIC else 1
    band = stride * n_photons
    if not 2 * band + 1 < grid_points:
        return _grid_profile(phis, _input_doses(source, n_photons, phis, convention))
    coarse = 2 * n_photons + 1
    samples = _input_doses(source, n_photons, phase_grid(coarse) / stride, convention)
    spectrum = np.zeros(grid_points // 2 + 1, dtype=complex)
    spectrum[: band + 1 : stride] = np.fft.rfft(samples)
    doses = np.fft.irfft(spectrum, grid_points) * (grid_points / coarse)
    return _grid_profile(phis, np.maximum(doses, 0.0))


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
    features sit wavelength / (2 N) apart.  Raises ValueError unless that
    is a positive normal float: a subnormal one would keep few bits.
    """
    n_photons = _count(n_photons, "photon number")
    feature = wavelength / (2.0 * n_photons)
    if not (math.isfinite(feature) and feature >= np.finfo(float).tiny):
        raise ValueError(f"wavelength {wavelength!r} / {2 * n_photons} is not a positive normal float")
    return feature
