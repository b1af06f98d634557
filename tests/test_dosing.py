"""Tests for interferometer dosing, exposure profiles and Fourier analysis."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_dose, mp_monomial_doses, number_state_dose, random_state_map
from qlitho import dosing
from qlitho.baselines import classical_n_photon, classical_two_photon, noon_exposure
from qlitho.dosing import (
    _INPUT_CHAIN,
    ExposureProfile,
    SubstrateConvention,
    _grid_profile,
    _input_doses,
    _spectral_doses,
    exposure_profile,
    fourier_components,
    interferometer,
    min_feature,
    noon_state,
    phase_grid,
)
from qlitho.fock import make_state
from qlitho.optics import beamsplitter, compose, mirror, phase_shifter
from qlitho.synthesis import psi_np, trench_target


def test_interferometer_matrices():
    sym = interferometer(0.4, SubstrateConvention.SYMMETRIC).matrix
    expected = compose(mirror(), beamsplitter()).matrix
    assert np.max(np.abs(sym - expected)) < 1e-15

    arm = interferometer(0.4, SubstrateConvention.SINGLE_ARM).matrix
    chained = compose(phase_shifter(0.4), compose(mirror(), beamsplitter())).matrix
    assert np.max(np.abs(arm - chained)) < 1e-15

    # Only members select a branch: the value string is not a convention.
    for convention in ("single-arm", "symmetric", None):
        with pytest.raises(ValueError, match="unknown substrate convention"):
            interferometer(0.3, convention)
    for convention in SubstrateConvention:
        for phi in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                interferometer(phi, convention)


def test_input_chain_is_the_scaled_splitter_and_mirror():
    chain = compose(mirror(), beamsplitter()).matrix
    assert np.max(np.abs(_INPUT_CHAIN / math.sqrt(2.0) - chain)) < 1e-16


def test_input_field_is_the_substrate_field_pulled_back_and_halved():
    # (alpha, beta) @ T / sqrt2 with T = interferometer(phi), whose sqrt2 T is
    # _INPUT_CHAIN: the halved field the input-port doses are taken of.
    phis = np.linspace(-3.0, 7.0, 11)
    for convention in SubstrateConvention:
        alpha, beta = dosing._field(phis, convention)
        for phi, a, b in zip(phis, alpha, beta):
            pulled = _substrate_field(phi, convention) @ interferometer(phi, convention).matrix
            assert np.abs(np.array([a, b]) - pulled / math.sqrt(2.0)).max() < 1e-15
    with pytest.raises(ValueError, match="unknown substrate convention"):
        dosing._field(phis, "symmetric")


def test_noon_state_amplitudes():
    state = noon_state(3, 0.25)
    r = 1.0 / math.sqrt(2.0)
    assert abs(state.amplitude(0, 3) - r) < 1e-15
    assert abs(state.amplitude(3, 0) - r * np.exp(0.75j)) < 1e-15
    with pytest.raises(ValueError):
        noon_state(0)


def _substrate_field(phi, convention):
    """(alpha, beta) of the field at the substrate, from the convention's definition."""
    if convention is SubstrateConvention.SYMMETRIC:
        return np.array([cmath.exp(1j * phi), cmath.exp(-1j * phi)])
    return np.array([1.0, 1.0])


def _substrate_doses(state, n_photons, grid, convention):
    """40-digit doses on phase_grid(grid) of a state at the substrate."""
    exponents = (1, -1) if convention is SubstrateConvention.SYMMETRIC else (0, 0)
    return np.array([float(d) for d in mp_monomial_doses(state.amplitudes, n_photons, exponents,
                                                         grid, range(grid))])


def test_noon_deposition_peak_and_null():
    # Grid points 0 and 1 of an 8-point grid are phi = 0 and pi / 4.
    doses = exposure_profile(noon_state(2), 2, 8, SubstrateConvention.SYMMETRIC).doses
    assert abs(doses[0] - 2.0) < 1e-12
    assert abs(doses[1]) < 1e-12


def test_deposition_above_photon_content_is_zero():
    state = noon_state(2)
    assert np.all(exposure_profile(state, 3, 8, SubstrateConvention.SYMMETRIC).doses == 0.0)
    # however far N lies above the state's photon content
    assert np.all(exposure_profile(state, 9, 8, SubstrateConvention.SYMMETRIC).doses == 0.0)


def test_deposition_rejects_bad_photon_count():
    state = noon_state(2)
    with pytest.raises(ValueError):
        exposure_profile(state, 0, 8, SubstrateConvention.SYMMETRIC)
    with pytest.raises(ValueError, match="unknown substrate convention"):
        exposure_profile(state, 2, 8, "symmetric")


def test_deposition_matches_dense_oracle():
    rng = np.random.default_rng(101)
    for _ in range(25):
        cutoff = int(rng.integers(1, 7))
        amps = random_state_map(rng, cutoff)
        state = make_state(amps)
        n_photons = int(rng.integers(1, min(cutoff, 3) + 1))
        grid = int(rng.integers(4, 17))
        for convention in SubstrateConvention:
            profile = exposure_profile(state, n_photons, grid, convention)
            for phi, got in zip(profile.phis, profile.doses):
                expected = dense_dose(state.amplitudes, cutoff, n_photons, *_substrate_field(phi, convention))
                assert abs(got - expected) < 1e-10


def test_exposure_profile_matches_dense_oracle_on_multi_sector_states():
    # The grid path on states holding more photons than are absorbed, at
    # every grid point; a state at the inputs is checked in the Heisenberg
    # picture, with the field (alpha, beta) @ T of the whole interferometer.
    rng = np.random.default_rng(59)
    for _ in range(6):
        cutoff = int(rng.integers(3, 7))
        amps = random_state_map(rng, cutoff, max_terms=6)
        amps[(1, cutoff - 1)] = amps.get((1, cutoff - 1), 0j) + 0.5
        state = make_state(amps)
        n_photons = int(rng.integers(1, cutoff))
        for convention in SubstrateConvention:
            for from_input in (False, True):
                profile = exposure_profile(state, n_photons, 8, convention, from_input)
                for phi, dose in zip(profile.phis, profile.doses):
                    field = _substrate_field(phi, convention)
                    if from_input:
                        field = field @ interferometer(phi, convention).matrix
                    expected = dense_dose(state.amplitudes, cutoff, n_photons, *field)
                    assert abs(dose - expected) < 1e-10 * max(1.0, expected)


@st.composite
def _small_states(draw):
    """A bound of at most 6 photons and a state on up to six pairs within it.

    The state may hold fewer photons than the bound, so an N drawn up to the
    bound can exceed the state's photon content.
    """
    bound = draw(st.integers(1, 6))
    pairs = [(n, m) for n in range(bound + 1) for m in range(bound + 1 - n)]
    part = st.floats(-1.0, 1.0)
    amps = draw(st.dictionaries(
        st.sampled_from(pairs), st.builds(complex, part, part), min_size=1, max_size=6
    ))
    if sum(abs(v) ** 2 for v in amps.values()) < 1e-12:
        amps[pairs[-1]] = 1.0
    return make_state(amps), bound


@settings(max_examples=150)
@given(_small_states(), st.data(), st.sampled_from(SubstrateConvention), st.booleans(),
       st.integers(4, 9))
def test_doses_are_nonnegative_and_match_the_pulled_back_field(
    drawn, data, convention, from_input, grid
):
    # The oracle takes the substrate field from first principles and, for a
    # state at the inputs, pulls it back through the Schroedinger-side matrix.
    state, bound = drawn
    n_photons = data.draw(st.integers(1, bound))
    profile = exposure_profile(state, n_photons, grid, convention, from_input)
    if from_input:
        direct = _input_doses(state, n_photons, profile.phis, convention)
    else:
        direct = _spectral_doses(state, n_photons, grid, convention, "substrate")
    assert np.all(direct >= 0.0)
    for phi, dose in zip(profile.phis, profile.doses):
        field = _substrate_field(phi, convention)
        if from_input:
            field = field @ interferometer(phi, convention).matrix
        expected = dense_dose(state.amplitudes, bound, n_photons, *field)
        assert abs(dose - expected) <= 1e-12 * max(1.0, expected)


# At grid points 0, 1 and 7 of a 24-point (SYMMETRIC) or 12-point (SINGLE_ARM)
# grid, sin 2phi or sin phi is 0, 1/2 and -1/2.  The input field then has
# |alpha|^2 = 1 - sin and |beta|^2 = 1 + sin, and a number state doses an
# exact rational.
@pytest.mark.parametrize("pair, n_photons", [((120, 80), 50), ((200, 0), 150)])
@pytest.mark.parametrize("convention, grid", [
    (SubstrateConvention.SYMMETRIC, 24), (SubstrateConvention.SINGLE_ARM, 12),
])
def test_number_state_doses_match_exact_rationals(pair, n_photons, convention, grid):
    state = make_state({pair: 1.0})
    profile = exposure_profile(state, n_photons, grid, convention, from_input=True)
    points = [(0, Fraction(0)), (1, Fraction(1, 2)), (7, Fraction(-1, 2))]
    piped = _input_doses(state, n_photons, profile.phis[[k for k, _ in points]], convention)
    for (k, sine), dose in zip(points, piped):
        exact = float(number_state_dose(*pair, n_photons, 1 - sine, 1 + sine))
        assert abs(profile.doses[k] - exact) <= 1e-12 * exact, k
        assert abs(dose - exact) <= 1e-12 * exact, k


def test_input_port_doses_of_order_one_survive_large_n():
    # |N,0> at the inputs doses (1 - sin 2phi)^N, so 1 at phi = 0, while the
    # halved input field's squared amplitudes are 2^-N of that: below the
    # float range beyond N = 1074.
    for n in (1100, 2000, 2044):
        dose = _input_doses(make_state({(n, 0): 1.0}), n, [0.0], SubstrateConvention.SYMMETRIC)
        assert abs(dose[0] - 1.0) <= 1e-12, n


def test_input_port_doses_are_refused_past_the_float_limit():
    # Past N = 2044 the halved input field's powers 2^(-N/2) are subnormal,
    # while a state at the substrate, whose field powers have size 1, is
    # still dosed.
    state = make_state({(2045, 0): 1.0})
    with pytest.raises(ValueError, match="N <= 2044"):
        _input_doses(state, 2045, [0.0], SubstrateConvention.SYMMETRIC)
    with pytest.raises(ValueError, match="N <= 2044"):
        exposure_profile(state, 2045, 8, SubstrateConvention.SINGLE_ARM, from_input=True)
    assert np.abs(exposure_profile(state, 2045, 8).doses - 1.0).max() <= 1e-12


@settings(max_examples=150)
@given(_small_states(), st.data(), st.booleans(), st.integers(2, 16))
def test_symmetric_doses_are_single_arm_doses_at_twice_the_phase(
    drawn, data, from_input, half_grid
):
    # (e^{i phi}, e^{-i phi}) = e^{-i phi} (e^{2i phi}, 1): the SYMMETRIC field
    # is the field behind the SINGLE_ARM phase shifter at 2 phi times a phase
    # that no dose sees, at the substrate and pulled back to the inputs alike.
    # So a SYMMETRIC dose has only even harmonics of phi; on an even grid
    # aliasing maps even harmonics onto even ones.
    state, bound = drawn
    n_photons = data.draw(st.integers(1, bound))
    profile = exposure_profile(state, n_photons, 2 * half_grid, SubstrateConvention.SYMMETRIC,
                               from_input)
    if from_input:
        single_arm = _input_doses(state, n_photons, 2.0 * profile.phis, SubstrateConvention.SINGLE_ARM)
    else:
        # Twice the phases of a 2h-point grid run twice over the h-point grid.
        single_arm = np.tile(_spectral_doses(state, n_photons, half_grid, SubstrateConvention.SINGLE_ARM,
                                             "shifter"), 2)
    assert np.all(np.abs(profile.doses - single_arm)
                  <= 1e-12 * np.maximum(1.0, np.abs(profile.doses)))
    odd = fourier_components(profile, half_grid - 1)[1::2]
    assert np.all(np.abs(odd) <= 1e-12 * max(1.0, profile.doses.max()))


def _band(n_photons, convention):
    return 2 * n_photons if convention is SubstrateConvention.SYMMETRIC else n_photons


def _dense_sector(n_photons, rng):
    amps = rng.standard_normal(n_photons + 1) + 1j * rng.standard_normal(n_photons + 1)
    return make_state({(k, n_photons - k): a for k, a in enumerate(amps)})


@st.composite
def _banded_states(draw):
    """A dense N-photon sector (N <= 40), or a state on up to 24 pairs of at
    most 8 photons dosed at some N; with N and the oracle's cutoff."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n_photons = draw(st.integers(1, 40))
        return _dense_sector(n_photons, rng), n_photons, n_photons
    cutoff = draw(st.integers(2, 8))
    return make_state(random_state_map(rng, cutoff, max_terms=24)), draw(st.integers(1, cutoff)), cutoff


@settings(max_examples=40)
@given(_banded_states(), st.data(), st.sampled_from(SubstrateConvention), st.booleans())
def test_resampled_profiles_match_the_direct_doses(drawn, data, convention, from_input):
    # The grid straddles the 2 band + 1 phases that fix the dose, so profiles
    # are taken both ways: resampled from those phases, and dosed directly.
    state, n_photons, cutoff = drawn
    band = _band(n_photons, convention)
    edge = 2 * band + 1
    grid = data.draw(st.one_of(st.just(edge + 1), st.integers(edge - band, 3 * edge)))
    profile = exposure_profile(state, n_photons, grid, convention, from_input)
    if from_input:
        direct = _input_doses(state, n_photons, profile.phis, convention)
    else:
        direct = _substrate_doses(state, n_photons, grid, convention)
    scale = 1e-12 * max(1.0, direct.max())
    assert np.abs(profile.doses - direct).max() <= scale
    assert profile.doses.min() >= 0.0
    for k in sorted({0, grid // 3, grid - 1}):
        phi = profile.phis[k]
        field = _substrate_field(phi, convention)
        if from_input:
            field = field @ interferometer(phi, convention).matrix
        assert abs(profile.doses[k] - dense_dose(state.amplitudes, cutoff, n_photons, *field)) <= scale
    top = (grid - 1) // 2
    if top > band:
        assert np.abs(fourier_components(profile, top)[band + 1:]).max() <= scale


def test_profiles_are_resampled_exactly_where_the_grid_passes_2_band_plus_1(monkeypatch):
    # At the inputs only N, G and the convention pick the path: a grid of
    # more than 2 band + 1 points is resampled from the 2N + 1 doses that fix
    # the fringe, whatever the state holds, and any other grid is dosed point
    # by point.  At the substrate every grid takes the folded FFT, which doses
    # no phase point by point.  Dense, sparse (|1,1>, NOON) and multi-sector
    # states alike.
    phases = []

    def counted(state, n_photons, phis, convention):
        phases.append(len(phis))
        return _input_doses(state, n_photons, phis, convention)

    monkeypatch.setattr(dosing, "_input_doses", counted)
    rng = np.random.default_rng(3)
    multi = make_state({(k, total - k): complex(*rng.standard_normal(2))
                        for total in range(3, 6) for k in range(total + 1)})
    cases = ([(_dense_sector(12, rng), 12, True), (make_state({(1, 1): 1.0}), 2, True)]
             + [(noon_state(n), n, False) for n in (1, 2, 10, 30)]
             + [(multi, 3, False), (multi, 3, True)])
    for state, n_photons, from_input in cases:
        for convention in SubstrateConvention:
            edge = 2 * _band(n_photons, convention) + 1
            for grid in (2, edge - 1, edge, edge + 1, 4096):
                phases.clear()
                profile = exposure_profile(state, n_photons, grid, convention, from_input)
                assert phases == ([] if not from_input
                                  else [2 * n_photons + 1] if grid > edge else [grid])
                if from_input:
                    direct = _input_doses(state, n_photons, profile.phis, convention)
                else:
                    direct = _substrate_doses(state, n_photons, grid, convention)
                assert np.abs(profile.doses - direct).max() <= 1e-12 * max(1.0, direct.max())


@pytest.mark.parametrize("n_photons", [1, 5, 12])
@pytest.mark.parametrize("extra", [2, 3], ids=["even_grid", "odd_grid"])
@pytest.mark.parametrize("from_input", [False, True])
def test_symmetric_profiles_are_resampled_from_half_a_period(monkeypatch, n_photons, extra,
                                                             from_input):
    # The smallest grids that take the resampled path, G = 4N + 2 and 4N + 3,
    # on a state with sectors of N, N + 1 and N + 2 photons.  The 2N + 1 doses
    # over [0, pi) fill the even bins of the spectrum; the odd ones stay zero.
    # At the substrate the one irfft is of the folded dose spectrum, whose odd
    # bins are zero as well.
    spectra, irfft = [], np.fft.irfft

    def kept(spectrum, grid, **kwargs):
        spectra.append(spectrum.copy())
        return irfft(spectrum, grid, **kwargs)

    rng = np.random.default_rng(n_photons)
    state = make_state({(k, total - k): complex(*rng.standard_normal(2))
                        for total in range(n_photons, n_photons + 3) for k in range(total + 1)})
    grid = 4 * n_photons + extra
    monkeypatch.setattr(np.fft, "irfft", kept)
    profile = exposure_profile(state, n_photons, grid, SubstrateConvention.SYMMETRIC, from_input)
    (spectrum,) = spectra
    assert spectrum.shape == (grid // 2 + 1,)
    assert np.all(spectrum[1::2] == 0.0)
    assert np.all(spectrum[2 * n_photons + 1:] == 0.0)
    if from_input:
        direct = _input_doses(state, n_photons, profile.phis, SubstrateConvention.SYMMETRIC)
    else:
        direct = _substrate_doses(state, n_photons, grid, SubstrateConvention.SYMMETRIC)
    assert np.abs(profile.doses - direct).max() <= 1e-12 * max(1.0, direct.max())


def test_resampled_dark_points_are_clamped_to_zero():
    # (a+ - b+)^N |0,0>, normalized, doses |alpha - beta|^2N / 2^N, which is
    # 2^N sin^2N phi under the SYMMETRIC field: dark at phi = 0 and pi, where
    # the interpolated dose rounds to either side of zero.
    n_photons = 12
    state = make_state({(k, n_photons - k): math.sqrt(math.comb(n_photons, k)) * (-1) ** k
                        for k in range(n_photons + 1)})
    profile = exposure_profile(state, n_photons, 512, SubstrateConvention.SYMMETRIC)
    exact = 2.0**n_photons * np.sin(profile.phis) ** (2 * n_photons)
    assert profile.doses.min() >= 0.0
    assert np.abs(profile.doses - exact).max() <= 1e-12 * 2.0**n_photons


def _complex_normal(rng):
    return complex(*rng.standard_normal(2))


# name -> (state builder taking N and a generator, N).
_SPECTRAL_STATES = {
    "dense": (lambda n, rng: make_state({(k, n - k): _complex_normal(rng) for k in range(n + 1)}), 6),
    "noon": (lambda n, rng: noon_state(n, 0.3), 7),
    "noon_1000": (lambda n, rng: noon_state(n, 0.3), 1000),
    "number": (lambda n, rng: make_state({(3, n - 3): 1.0}), 7),
    "three_sectors": (lambda n, rng: make_state({(k, total - k): _complex_normal(rng)
                                                 for total in range(n, n + 3)
                                                 for k in range(total + 1)}), 3),
}


@pytest.mark.parametrize("kind", sorted(_SPECTRAL_STATES))
@pytest.mark.parametrize("convention, site, exponents", [
    (SubstrateConvention.SYMMETRIC, "substrate", (1, -1)),
    (SubstrateConvention.SYMMETRIC, "shifter", (1, -1)),
    (SubstrateConvention.SINGLE_ARM, "substrate", (0, 0)),
    (SubstrateConvention.SINGLE_ARM, "shifter", (1, 0)),
])
def test_spectral_doses_match_40_digit_doses(kind, convention, site, exponents):
    # Grids below, at and past the 2 band + 1 phases that fix the dose, so the
    # folded bins are covered; on grids past 64 points a sample of them is
    # checked.  The field at the substrate and behind the shifter is
    # (e^{i p phi}, e^{i q phi}), (p, q) = exponents.
    rng = np.random.default_rng(sorted(_SPECTRAL_STATES).index(kind))
    build, n_photons = _SPECTRAL_STATES[kind]
    state = build(n_photons, rng)
    band = _band(n_photons, convention)
    for grid in [4, 5, 6, 7, 8, 9, 2 * band, 2 * band + 1, 2 * band + 2, 4096]:
        points = range(grid) if grid <= 64 else sorted({0, *rng.choice(grid, 63, replace=False).tolist()})
        exact = mp_monomial_doses(state.amplitudes, n_photons, exponents, grid, points)
        doses = _spectral_doses(state, n_photons, grid, convention, site)
        assert doses.shape == (grid,)
        worst = max(abs(float(dose) - value) for dose, value in zip(doses[list(points)], exact))
        assert worst <= 1e-15 * max(exact), grid


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("convention", list(SubstrateConvention))
def test_rates_reject_non_finite_phases(phi, convention):
    with pytest.raises(ValueError, match="finite"):
        _input_doses(noon_state(2), 2, [0.0, phi], convention)


def test_single_photon_pipeline_fringes():
    source = make_state({(1, 0): 1.0})
    phis = np.linspace(0.0, 2.0 * math.pi, 17)
    sym = _input_doses(source, 1, phis, SubstrateConvention.SYMMETRIC)
    assert np.abs(sym - (1.0 - np.sin(2.0 * phis))).max() < 1e-12
    arm = _input_doses(source, 1, phis, SubstrateConvention.SINGLE_ARM)
    assert np.abs(arm - (1.0 - np.sin(phis))).max() < 1e-12


def test_two_photon_pipeline_fringes():
    source = make_state({(1, 1): 1.0})
    phis = np.linspace(0.0, 2.0 * math.pi, 17)
    sym = _input_doses(source, 2, phis, SubstrateConvention.SYMMETRIC)
    assert np.abs(sym - (1.0 + np.cos(4.0 * phis))).max() < 1e-12
    arm = _input_doses(source, 2, phis, SubstrateConvention.SINGLE_ARM)
    assert np.abs(arm - (1.0 + np.cos(2.0 * phis))).max() < 1e-12


def test_phase_grid_layout():
    grid = phase_grid(8)
    assert grid.shape == (8,)
    assert grid[0] == 0.0
    assert abs(grid[1] - math.pi / 4.0) < 1e-15
    assert abs(grid[-1] - (2.0 * math.pi - math.pi / 4.0)) < 1e-12
    with pytest.raises(ValueError):
        phase_grid(0)


def test_exposure_profile_from_input_state():
    source = make_state({(1, 1): 1.0})
    profile = exposure_profile(
        source, 2, 256, SubstrateConvention.SYMMETRIC, from_input=True
    )
    expected = 1.0 + np.cos(4.0 * profile.phis)
    assert np.max(np.abs(profile.doses - expected)) < 1e-10
    assert abs(float(np.mean(profile.doses)) - 1.0) < 1e-12
    assert profile.grid_points == 256


def test_exposure_profile_of_substrate_state():
    # NOON state taken as already being at the substrate (no interferometer)
    state = noon_state(5)
    profile = exposure_profile(state, 5, 128, SubstrateConvention.SYMMETRIC)
    expected = noon_exposure(5, profile.phis)
    assert np.max(np.abs(profile.doses - expected)) < 1e-9


def test_single_arm_noon_needs_phase_dependent_state():
    # In the single-arm convention the NOON phase rides on the state itself.
    grid = phase_grid(64)
    doses = np.array(
        [
            exposure_profile(noon_state(4, phi), 4, 64, SubstrateConvention.SINGLE_ARM).doses[k]
            for k, phi in enumerate(grid)
        ]
    )
    expected = 1.0 + np.cos(4.0 * grid)
    assert np.max(np.abs(doses - expected)) < 1e-9


def test_exposure_profile_validation():
    grid = phase_grid(16)
    with pytest.raises(ValueError):
        ExposureProfile(grid[:8], np.ones(16))
    with pytest.raises(ValueError, match="at least one sample"):
        ExposureProfile(np.zeros(0), np.zeros(0))
    ragged = grid.copy()
    ragged[3] += 1e-6
    with pytest.raises(ValueError):
        ExposureProfile(ragged, np.ones(16))
    for bad in (np.nan, np.inf):
        phis = grid.copy()
        phis[3] = bad
        with pytest.raises(ValueError):
            ExposureProfile(phis, np.ones(16))
    for bad in (np.nan, np.inf):
        doses = np.ones(16)
        doses[5] = bad
        with pytest.raises(ValueError):
            ExposureProfile(grid, doses)


def test_exposure_profile_rejects_negative_doses():
    # Every dose the package forms is a sum of squares; a negative one can
    # only come from the caller, however small.
    grid = phase_grid(8)
    for bad in (-1e-13, -1e-9):
        doses = np.ones(8)
        doses[2] = bad
        with pytest.raises(ValueError, match="nonnegative"):
            ExposureProfile(grid, doses)


def test_grid_profiles_check_their_doses_but_take_their_arrays():
    # Profiles the package builds on phase_grid skip the public constructor's
    # copies and grid check, not its check of the doses.
    for bad, message in ((np.nan, "finite"), (np.inf, "finite"), (-1e-13, "nonnegative")):
        doses = np.ones(8)
        doses[2] = bad
        with pytest.raises(ValueError, match=message):
            _grid_profile(phase_grid(8), doses)
    phis, doses = phase_grid(8), np.arange(8.0)
    profile = _grid_profile(phis, doses)
    assert profile.phis is phis and profile.doses is doses
    assert not phis.flags.writeable and not doses.flags.writeable
    assert profile == ExposureProfile(phase_grid(8), np.arange(8.0))


def test_exposure_profile_keeps_private_copies():
    # The profile freezes its own arrays, never the caller's.
    grid = phase_grid(8)
    doses = np.ones(8)
    profile = ExposureProfile(grid, doses)
    grid[1] = doses[1] = 5.0
    assert profile.doses[1] == 1.0 and profile.phis[1] == math.pi / 4.0
    assert not profile.doses.flags.writeable and not profile.phis.flags.writeable


def test_exposure_profiles_compare_by_their_samples():
    profile = ExposureProfile(phase_grid(8), np.arange(8.0))
    assert profile == ExposureProfile(phase_grid(8), np.arange(8))
    assert profile != ExposureProfile(phase_grid(8), np.arange(1.0, 9.0))
    assert profile != ExposureProfile(phase_grid(9), np.arange(9.0))
    assert profile != (profile.phis, profile.doses)


def test_fourier_components_of_classical_fringe():
    grid = phase_grid(512)
    profile = ExposureProfile(grid, classical_two_photon(grid))
    coeffs = fourier_components(profile, 4)
    assert abs(coeffs[0] - 0.75) < 1e-12
    assert abs(coeffs[2] - 0.5) < 1e-12
    assert abs(coeffs[4] - 0.125) < 1e-12
    assert abs(coeffs[1]) < 1e-12
    assert abs(coeffs[3]) < 1e-12


def test_fourier_aliasing_guard():
    grid = phase_grid(16)
    profile = ExposureProfile(grid, np.ones(16))
    with pytest.raises(ValueError):
        fourier_components(profile, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        fourier_components(profile, -1)
    coeffs = fourier_components(profile, 7)
    assert coeffs.shape == (8,)


@pytest.mark.parametrize("grid", [4, 5, 16, 17, 1024])
def test_fourier_components_match_an_explicit_dft(grid):
    # Up to the top harmonic the guard allows, ceil(G/2) - 1, on even and odd grids.
    doses = np.random.default_rng(grid).uniform(0.0, 3.0, grid)
    profile = ExposureProfile(phase_grid(grid), doses)
    top = (grid + 1) // 2 - 1
    coeffs = fourier_components(profile, top)
    harmonics = np.arange(top + 1)[:, None]
    expected = np.exp(-1j * harmonics * profile.phis) @ doses / grid
    assert coeffs.shape == (top + 1,)
    assert np.abs(coeffs - expected).max() <= 1e-12 * doses.max()
    with pytest.raises(ValueError, match="alias"):
        fourier_components(profile, top + 1)


def test_min_feature_values():
    assert min_feature(1, 248.0) == 124.0
    assert min_feature(2, 248.0) == 62.0
    assert min_feature(4, 248.0) == 31.0
    with pytest.raises(ValueError):
        min_feature(0, 248.0)
    with pytest.raises(ValueError):
        min_feature(2, -1.0)
    # A feature below the smallest normal float would print rounded to few bits, or as 0.
    assert min_feature(1, 2 * np.finfo(float).tiny) == np.finfo(float).tiny
    for wavelength in (5e-324, 1e-322, 3 * np.finfo(float).tiny):
        with pytest.raises(ValueError, match="positive normal float"):
            min_feature(2, wavelength)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: noon_exposure(2.5, 0.3), id="noon_exposure"),
    pytest.param(lambda: classical_n_photon(2.5, 0.3), id="classical_n_photon"),
    pytest.param(lambda: min_feature(2.5, 1.0), id="min_feature"),
    pytest.param(lambda: _spectral_doses(noon_state(2), 1.5, 8, SubstrateConvention.SYMMETRIC, "substrate"),
                 id="spectral_doses"),
    pytest.param(lambda: _input_doses(noon_state(2), 2.0, [0.3], SubstrateConvention.SYMMETRIC),
                 id="input_doses"),
    pytest.param(lambda: exposure_profile(noon_state(2), 2.0, 8), id="exposure_profile"),
    pytest.param(lambda: fourier_components(ExposureProfile(phase_grid(16), np.ones(16)), 2.5),
                 id="fourier_components"),
    # bool is an int subclass, but True is no photon number and False no harmonic.
    pytest.param(lambda: exposure_profile(noon_state(2), True, 512), id="exposure_profile_true"),
    pytest.param(lambda: _spectral_doses(noon_state(2), True, 8, SubstrateConvention.SYMMETRIC, "substrate"),
                 id="spectral_doses_true"),
    pytest.param(lambda: min_feature(True, 1.0), id="min_feature_true"),
    pytest.param(lambda: fourier_components(ExposureProfile(phase_grid(16), np.ones(16)), False),
                 id="fourier_components_false"),
    pytest.param(lambda: noon_state(True), id="noon_state_true"),
    pytest.param(lambda: noon_state("3"), id="noon_state_str"),
    pytest.param(lambda: noon_state(2.5), id="noon_state_float"),
    pytest.param(lambda: make_state({(True, 0): 1.0}), id="make_state_true"),
    pytest.param(lambda: psi_np(True, 0, 0.0), id="psi_np_true"),
    # A grid size of 2.5 would space 3 phases 2pi/2.5 apart: no uniform grid.
    pytest.param(lambda: phase_grid(2.5), id="phase_grid"),
    pytest.param(lambda: trench_target(8.0), id="trench_target"),
])
def test_non_integer_photon_numbers_are_refused(call):
    with pytest.raises(ValueError, match="integer"):
        call()


def test_numpy_integer_photon_numbers_are_accepted():
    assert min_feature(np.int64(4), 1.0) == 0.125
    assert noon_exposure(np.uint8(2), 0.0) == classical_n_photon(np.int32(3), 0.0) == 2.0
    for grid in ([0.0], phase_grid(8)):
        dose = _input_doses(noon_state(2), np.int16(2), grid, SubstrateConvention.SYMMETRIC)
        assert dose.tobytes() == _input_doses(noon_state(2), 2, grid, SubstrateConvention.SYMMETRIC).tobytes()
    assert exposure_profile(noon_state(2), np.int16(2), 8) == exposure_profile(noon_state(2), 2, 8)
    profile = ExposureProfile(phase_grid(16), np.ones(16))
    assert fourier_components(profile, np.int64(0)).shape == (1,)
