"""Acceptance gate: one test per contract criterion, run at stated tolerances.

Each test prints a single summary line when it passes (run with -s to see
them); a failing criterion fails its test outright.
"""

import math
import time

import numpy as np
import pytest

from oracles import dense_dose, instrument_matrix, partition_dose, random_state_map, random_unitary
from qlitho.baselines import classical_two_photon
from qlitho.dosing import (
    ExposureProfile,
    SubstrateConvention,
    _input_doses,
    exposure_profile,
    fourier_components,
    min_feature,
    noon_state,
    phase_grid,
)
from qlitho.fock import make_state
from qlitho.optics import ModeUnitary, beamsplitter, evolve
from qlitho.synthesis import (
    PartitionBasis,
    best_classical_fit,
    fit_superposition,
    fitness,
    genome_profile,
    trench_target,
)

GRID = 512


def test_criterion_1_two_photon_fringe():
    start = time.perf_counter()
    source = make_state({(1, 1): 1.0})
    profile = exposure_profile(
        source, 2, GRID, SubstrateConvention.SYMMETRIC, from_input=True
    )
    expected = 1.0 + np.cos(4.0 * profile.phis)
    worst = float(np.max(np.abs(profile.doses - expected)))
    coeffs = fourier_components(profile, 4)
    slow = abs(coeffs[2])
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert slow < 1e-10
    assert elapsed < 1.0
    print(
        f"criterion 1 PASS: fringe error {worst:.2e}, |c2| {slow:.2e}, {elapsed:.2f}s"
    )


def test_criterion_2_classical_decomposition():
    grid = phase_grid(GRID)
    coeffs = fourier_components(ExposureProfile(grid, classical_two_photon(grid)), 4)
    errs = (
        abs(coeffs[0] - 0.75),
        abs(coeffs[2] - 0.5),
        abs(coeffs[4] - 0.125),
    )
    assert max(errs) < 1e-10
    print(f"criterion 2 PASS: harmonic errors {max(errs):.2e}")


def test_criterion_3_entangled_fringe_sweep():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 13):
        profile = exposure_profile(
            noon_state(n), n, GRID, SubstrateConvention.SYMMETRIC
        )
        expected = 1.0 + np.cos(2.0 * n * profile.phis)
        worst = max(worst, float(np.max(np.abs(profile.doses - expected))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    print(f"criterion 3 PASS: N=1..12 fringe error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_hong_ou_mandel():
    out = evolve(make_state({(1, 1): 1.0}), beamsplitter())
    residual = abs(out.amplitude(1, 1))
    p_20 = abs(out.amplitude(2, 0)) ** 2
    p_02 = abs(out.amplitude(0, 2)) ** 2
    assert residual < 1e-12
    assert abs(p_20 - 0.5) < 1e-12
    assert abs(p_02 - 0.5) < 1e-12
    print(
        f"criterion 4 PASS: |amp(1,1)| {residual:.2e}, "
        f"P(2,0) {p_20:.12f}, P(0,2) {p_02:.12f}"
    )


def test_criterion_5_picture_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        cutoff = int(rng.integers(1, 9))
        state = make_state(random_state_map(rng, cutoff))
        n_photons = int(rng.integers(1, min(cutoff, 4) + 1))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        t = random_unitary(rng)
        field = np.array([np.exp(1j * phi), np.exp(-1j * phi)])

        evolved = evolve(state, ModeUnitary(t))
        schrodinger = dense_dose(evolved.amplitudes, cutoff, n_photons, *field)
        heisenberg = dense_dose(state.amplitudes, cutoff, n_photons, *(field @ t))
        worst = max(worst, abs(schrodinger - heisenberg))
    assert worst < 1e-9

    # High sectors: the evolved state dosed at the substrate equals the input
    # state dosed through the pulled-back field.
    grid, n_photons = 12, 200
    phis = phase_grid(grid)
    high_worst = 0.0
    for occ in ((100, 100), (150, 50)):
        state = make_state({occ: 1.0})
        for convention in SubstrateConvention:
            peak = exposure_profile(state, n_photons, 1024, convention, from_input=True).doses.max()
            heisenberg = _input_doses(state, n_photons, phis, convention)
            for g, phi in enumerate(phis):
                evolved = evolve(state, ModeUnitary(instrument_matrix(phi, convention)))
                schrodinger = exposure_profile(evolved, n_photons, grid, convention).doses[g]
                high_worst = max(high_worst, abs(schrodinger - heisenberg[g]) / peak)
    assert high_worst < 1e-12
    print(
        f"criterion 5 PASS: picture disagreement {worst:.2e} over 100 cases, "
        f"{high_worst:.2e} of the peak dose at N={n_photons}"
    )


def test_criterion_6_component_closed_form():
    # First confirm the closed form against the dense brute-force oracle...
    probe_phis = np.array([0.0, 0.41, 1.13, 2.77])
    oracle_worst = 0.0
    for n in range(1, 13):
        for p in range(0, n // 2 + 1):
            for phi in probe_phis:
                if 2 * p == n:
                    amps = {(p, p): np.exp(1j * p * phi)}
                else:
                    r = np.exp(1j * p * phi) / math.sqrt(2.0)
                    amps = {(n - p, p): r, (p, n - p): r}
                reference = dense_dose(amps, n, n, np.exp(1j * phi), np.exp(-1j * phi))
                formula = float(partition_dose(n, p, [phi])[0])
                oracle_worst = max(oracle_worst, abs(formula - reference))
    assert oracle_worst < 1e-9

    # ...then hold the simulated profiles to it.
    worst = 0.0
    for n in range(1, 13):
        for p in range(0, n // 2 + 1):
            profile = genome_profile(np.ones(1), PartitionBasis(n, (p,)), 64)
            expected = partition_dose(n, p, profile.phis)
            worst = max(worst, float(np.max(np.abs(profile.doses - expected))))
    assert worst < 1e-9
    print(
        f"criterion 6 PASS: oracle gap {oracle_worst:.2e}, "
        f"profile gap {worst:.2e} (N<=12, all P)"
    )


def test_criterion_7_synthesis_beats_classical():
    start = time.perf_counter()
    basis = PartitionBasis(10, (1, 2, 3, 4, 5))
    target = trench_target(GRID)
    alpha, trace = fit_superposition(basis, target)  # library defaults, fixed seed
    elapsed = time.perf_counter() - start
    classical = best_classical_fit(target)
    quantum_error = fitness(alpha, basis, target)

    assert quantum_error < classical.error  # strictly better than any classical fringe
    assert np.all(np.diff(trace) <= 0.0)
    alpha_again, trace_again = fit_superposition(basis, target)
    assert trace.tobytes() == trace_again.tobytes()
    assert alpha.tobytes() == alpha_again.tobytes()
    assert elapsed < 60.0
    print(
        f"criterion 7 PASS: synthesis {quantum_error:.4f} < classical {classical.error:.4f}, "
        f"monotone trace, byte-identical rerun, {elapsed:.1f}s"
    )


def test_criterion_8_convention_reconciliation():
    grid = phase_grid(256)
    worst = 0.0
    for occupations, n_photons in (({(1, 0): 1.0}, 1), ({(1, 1): 1.0}, 2)):
        source = make_state(occupations)
        symmetric = _input_doses(source, n_photons, grid, SubstrateConvention.SYMMETRIC)
        single_arm = _input_doses(source, n_photons, 2.0 * grid, SubstrateConvention.SINGLE_ARM)
        sym_mags = np.abs(
            fourier_components(ExposureProfile(grid, symmetric), 8)
        )
        arm_mags = np.abs(
            fourier_components(ExposureProfile(grid, single_arm), 8)
        )
        worst = max(worst, float(np.max(np.abs(sym_mags - arm_mags))))
    assert worst < 1e-9
    print(f"criterion 8 PASS: harmonic magnitude gap {worst:.2e}")


def test_criterion_9_resolution_formula():
    for wavelength in (248.0, 193.0, 13.5):
        assert min_feature(1, wavelength) == wavelength / 2.0
        assert min_feature(2, wavelength) == wavelength / 4.0
    print("criterion 9 PASS: min feature is wavelength/2 at N=1, wavelength/4 at N=2")
