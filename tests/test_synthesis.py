"""Tests for partition-state pattern synthesis and the classical benchmark."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import dense_dose, mp_monomial_doses, partition_dose
from qlitho.dosing import ExposureProfile, exposure_profile, phase_grid
from qlitho.fock import _root, make_state
from qlitho.synthesis import (
    ClassicalFit,
    PartitionBasis,
    best_classical_fit,
    fit_superposition,
    fitness,
    genome_profile,
    trench_target,
)
from qlitho.synthesis import (
    _check_target,
    _damped_steps,
    _dose_space,
    _half_root,
    _hessian_map,
    _jacobian_map,
    _jacobians,
    _scaled_sse,
)

ROOT_HALF = 1.0 / math.sqrt(2.0)


def manual_superposition_map(n, partitions, coeffs, phi):
    """Amplitude map built from first principles, for the dense oracle."""
    amps = {}
    for alpha, p in zip(coeffs, partitions):
        g = cmath.exp(1j * p * phi)
        if 2 * p == n:
            amps[(p, p)] = amps.get((p, p), 0j) + alpha * g
        else:
            amps[(n - p, p)] = amps.get((n - p, p), 0j) + alpha * g * ROOT_HALF
            amps[(p, n - p)] = amps.get((p, n - p), 0j) + alpha * g * ROOT_HALF
    norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    return {k: v / norm for k, v in amps.items()}


def dose_space_mse(basis, target, points):
    """Scale-optimized MSE of rows x = [Re alpha | Im alpha], from the solver's residual."""
    rows, c = _dose_space(basis, target.doses)
    _, w = _jacobians(points, _jacobian_map(rows, *_hessian_map(len(basis))))
    return _scaled_sse(w, c) / target.grid_points


def grid_mse(basis, target, points):
    """Public fitness of the same rows, each read as a coefficient vector."""
    k = len(basis)
    return np.array([fitness(x[:k] + 1j * x[k:], basis, target) for x in points])


def component_profile(n, p, grid_points):
    """Dose of the single partition P at unit exposure."""
    return genome_profile(np.ones(1), PartitionBasis(n, (p,)), grid_points)


def oracle_doses(n, partitions, coeffs, phis):
    """Dense-matrix dose of the superposition at each phase (scale 1)."""
    return np.array([
        dense_dose(manual_superposition_map(n, partitions, coeffs, phi), n, n,
                   cmath.exp(1j * phi), cmath.exp(-1j * phi))
        for phi in phis
    ])


# ---------------------------------------------------------------------------
# basis states
# ---------------------------------------------------------------------------

def test_component_profile_matches_closed_form():
    for n, p in [(2, 0), (2, 1), (5, 2), (7, 2), (10, 5), (12, 3),
                 (200, 60), (500, 250), (499, 0), (499, 249)]:
        profile = component_profile(n, p, 16)
        expected = partition_dose(n, p, profile.phis)
        assert np.max(np.abs(profile.doses - expected)) <= 1e-12 * math.comb(n, p), (n, p)


@pytest.mark.parametrize("n, p", [(1, 0), (2, 1), (8, 0), (13, 4), (60, 30), (200, 60)])
def test_partition_state_doses_agree_between_synthesis_and_dosing(n, p):
    # The partition state (|N-P, P> + |P, N-P>)/sqrt2, or |P, P> for 2P = N,
    # taken at the substrate and dosed by the per-sector Fock path, against
    # the row spectra of the synthesis dose: two row constructions that
    # share only the folded-spectrum kernel (dosing._folded_doses).
    # The 16-point grid folds the band of every N >= 4.
    pairs = {(p, p): 1.0} if 2 * p == n else {(n - p, p): 1.0, (p, n - p): 1.0}
    for grid in (16, 4 * n + 3):
        dosed = exposure_profile(make_state(pairs), n, grid)
        synthesized = component_profile(n, p, grid)
        assert np.max(np.abs(dosed.doses - synthesized.doses)) <= 1e-12 * math.comb(n, p), grid


def test_two_photon_component_is_doubled_fringe():
    # N=2, P=0 is the canonical entangled pair: dose 1 + cos 4 phi.
    phis = phase_grid(32)
    expected = 1.0 + np.cos(4.0 * phis)
    profile = component_profile(2, 0, 32)
    assert np.max(np.abs(profile.doses - expected)) < 1e-10


# ---------------------------------------------------------------------------
# superpositions and fitness
# ---------------------------------------------------------------------------

def test_genome_profile_single_component_scales():
    basis = PartitionBasis(8, (2,))
    # The exposure scale is |alpha|^2.
    profile = genome_profile(np.array([math.sqrt(2.5)]), basis, 32)
    component = component_profile(8, 2, 32)
    assert np.max(np.abs(profile.doses - 2.5 * component.doses)) < 1e-9


def test_pair_basis_profile_is_doubled_fringe():
    # N=2, basis {0}, scale 1: the full synthesis path gives 1 + cos 4 phi.
    basis = PartitionBasis(2, (0,))
    profile = genome_profile(np.ones(1), basis, 64)
    expected = 1.0 + np.cos(4.0 * profile.phis)
    assert np.max(np.abs(profile.doses - expected)) < 1e-10


def test_superposition_dose_matches_dense_oracle():
    basis = PartitionBasis(10, (0, 1, 2, 3, 4, 5))
    rng = np.random.default_rng(3)
    raw = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    equal_weight = np.full(6, 1.0 / math.sqrt(6.0), dtype=complex)
    for coeffs in (raw, equal_weight):
        alpha = coeffs / np.linalg.norm(coeffs)
        profile = genome_profile(alpha, basis, 8)
        for i, phi in enumerate(profile.phis):
            amps = manual_superposition_map(10, basis.partitions, alpha, phi)
            expected = dense_dose(amps, 10, 10, cmath.exp(1j * phi), cmath.exp(-1j * phi))
            assert abs(profile.doses[i] - expected) < 1e-9


def test_genome_profile_is_nonnegative():
    basis = PartitionBasis(10, (0, 2, 4))
    rng = np.random.default_rng(21)
    for _ in range(5):
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        profile = genome_profile(raw, basis, 48)
        assert np.all(profile.doses >= 0.0)


@st.composite
def _superpositions(draw):
    """A basis of N <= 10 photons with any strictly increasing partitions, and
    unit-norm coefficients for it."""
    n = draw(st.integers(1, 10))
    partitions = tuple(sorted(draw(st.sets(st.integers(0, n // 2), min_size=1))))
    raw = draw(arrays(complex, len(partitions), elements=st.complex_numbers(max_magnitude=1.0))
               .filter(lambda a: np.linalg.norm(a) > 1e-3))
    return PartitionBasis(n, partitions), raw / np.linalg.norm(raw)


@settings(max_examples=60)
@given(_superpositions(), st.integers(4, 40))
@example((PartitionBasis(10, (0, 1, 2, 3, 4, 5)), np.full(6, 1 / math.sqrt(6))), 32)
@example((PartitionBasis(4, (2,)), np.ones(1)), 4)
# Grids below the 2N+1 harmonics of the band fold the row spectra.
@example((PartitionBasis(10, (0, 1, 2, 3, 4, 5)), np.full(6, 1 / math.sqrt(6))), 5)
@example((PartitionBasis(9, (1, 4)), np.array([0.6, 0.8j])), 7)
@example((PartitionBasis(7, (0, 2, 3)), np.array([0.6, -0.48j, 0.64])), 13)
def test_dose_matches_dense_oracle(superposition, grid):
    # The dose every synthesis path reads, against the dense oracle, for
    # P = 0 and the degenerate split 2P = N too.
    basis, alpha = superposition
    phis = phase_grid(grid)
    fast = genome_profile(alpha, basis, grid).doses
    exact = oracle_doses(basis.n_photons, basis.partitions, alpha, phis)
    assert np.max(np.abs(fast - exact)) < 1e-9


def test_dose_of_31_partitions_on_8192_points():
    # The whole N = 60 half-sector on a large grid.  dense_dose would need
    # 3721 x 3721 matrices here, so a few phases are checked against the
    # same first-principles dose in 40 digits.
    basis = PartitionBasis(60, tuple(range(31)))
    alpha = np.exp(1j * np.arange(31)) / math.sqrt(31)
    fast = genome_profile(alpha, basis, 8192).doses
    phis = phase_grid(8192)
    for g in (0, 1, 700, 2048, 4099, 8191):
        amplitudes = manual_superposition_map(60, basis.partitions, alpha, phis[g])
        exact = float(mp_monomial_doses(amplitudes, 60, (1, -1), 8192, [g])[0])
        assert abs(fast[g] - exact) < 1e-14 * fast.max()


@pytest.mark.parametrize("n", [2**62 + 1, 2**64 + 3])
def test_photon_numbers_past_int64_dose_as_their_residue_mod_the_grid(n):
    # On a G-point grid only the harmonics mod G count, so N and N mod G
    # give the same P = 0 row.  The rows' harmonics reach 2N apart: they
    # are folded as Python integers before any int64 array holds them.
    def run(n_photons):
        basis = PartitionBasis(n_photons, (0,))
        alpha, trace = fit_superposition(basis, trench_target(17))
        return genome_profile(np.ones(1), basis, 17).doses.tobytes(), alpha.tobytes(), trace.tobytes()

    assert run(n) == run(n % 17)


@given(st.integers(1, 10**300))
@example(math.comb(12, 4))  # a root that rounds up only by its sticky bit
@example(math.comb(60, 26))  # math.sqrt(C / 2) is one ulp off here
def test_half_root_is_correctly_rounded(m):
    # The exact sqrt(m / 2), and sqrt(m) from fock._root, lie between the
    # midpoints to the root's neighbours.
    for root, square in ((_half_root(m), Fraction(m, 2)), (_root(m), Fraction(m))):
        low, high = ((Fraction(root) + Fraction(math.nextafter(root, side))) / 2
                     for side in (0.0, math.inf))
        assert low**2 <= square <= high**2


def test_dose_space_mse_matches_fitness_of_rows_of_any_norm():
    # Five rows of any norm scored in the dose space, from the spectral QR.
    basis = PartitionBasis(10, (1, 2, 3, 4, 5))
    target = trench_target(256)
    points = np.random.default_rng(31).standard_normal((5, 10))
    exact = grid_mse(basis, target, points)
    assert np.all(np.abs(dose_space_mse(basis, target, points) - exact) <= 1e-12 * exact)


@pytest.mark.parametrize("grid", [4, 5, 6, 7, 8, 9, 8192])
@pytest.mark.parametrize("n, partitions", [
    (10, (2,)), (10, (5,)), (10, (0,)), (200, (60, 70, 80)), (60, tuple(range(31))),
])
def test_ga_scores_match_fitness_on_edge_grids_and_bases(n, partitions, grid):
    # The solver's residual against the public fitness on Nyquist and
    # aliasing grids, over several QR blocks, for one-term and degenerate
    # bases, doses near 1e58, and a basis whose triangle has G < k^2 + 1 rows.
    basis = PartitionBasis(n, partitions)
    target = trench_target(grid)
    points = np.random.default_rng(grid).standard_normal((6, 2 * len(basis)))
    exact = grid_mse(basis, target, points)
    assert np.all(np.abs(dose_space_mse(basis, target, points) - exact) <= 1e-12 * exact)
    best, trace = fit_superposition(basis, target, 1, seed=grid)
    assert abs(fitness(best, basis, target) - trace[-1]) <= 1e-12 * trace[-1]


@st.composite
def _scoring_cases(draw):
    n = draw(st.integers(1, 12))
    partitions = sorted(draw(st.sets(st.integers(0, n // 2), min_size=1)))
    grid = draw(st.integers(4, 300))
    samples = draw(arrays(float, grid, elements=st.floats(0.0, 1e6)))
    k = len(partitions)
    rows = draw(arrays(float, (draw(st.integers(1, 8)), 2 * k), elements=st.floats(-1.0, 1.0)))
    return PartitionBasis(n, tuple(partitions)), ExposureProfile(phase_grid(grid), samples), rows


@settings(max_examples=100)
@given(_scoring_cases(), st.integers(0, 2**63))
# A Newton step from this start overflows the trial's squared error.
@example(case=(PartitionBasis(5, (0, 1)), ExposureProfile(phase_grid(4), np.array([0.0, 1, 0, 0])),
               np.zeros((1, 4))), seed=0)
def test_solver_scores_equal_fitness_property(case, seed):
    basis, target, rows = case
    # Rows of unit norm, each scaled by its largest entry first so that
    # squaring tiny entries in the norm cannot underflow; zero rows are dropped.
    rows = rows[np.any(rows, axis=1)]
    rows /= np.abs(rows).max(axis=1, keepdims=True)
    points = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    # Relative to the fitness, down to 1e-16 of the error of a zero dose:
    # below that both values are roundoff of the target (a constant target
    # in the span of the basis scores 0 on the grid and 1e-33 in the dose space).
    floor = 1e-16 * np.mean(target.doses**2) + 1e-300
    if len(points):
        exact = grid_mse(basis, target, points)
        assert np.all(np.abs(dose_space_mse(basis, target, points) - exact)
                      <= 1e-12 * exact + floor)
    best, trace = fit_superposition(basis, target, 2, seed)
    assert abs(fitness(best, basis, target) - trace[-1]) <= 1e-12 * trace[-1] + floor


def test_fitness_of_matching_shape_is_zero():
    basis = PartitionBasis(10, (2,))
    component = component_profile(10, 2, 64)
    target = ExposureProfile(component.phis, 0.7 * component.doses)
    value = fitness(np.ones(1), basis, target)
    assert value < 1e-18


def test_fitness_of_constant_against_trench_is_quarter():
    # A lone 2P = N component doses to a constant; the best scaled constant
    # against a balanced 0/1 trench leaves exactly 1/4 mean squared error.
    basis = PartitionBasis(10, (5,))
    target = trench_target(64)
    value = fitness(np.ones(1), basis, target)
    assert abs(value - 0.25) < 1e-12


def test_fitness_is_scale_invariant_at_extreme_scales():
    # The coefficients are divided by their largest part before dosing, so
    # neither a tiny nor a huge scale under- or overflows the dose.
    basis = PartitionBasis(10, (1, 2))
    target = trench_target(16)
    shape = np.array([1.0, 0.5 - 0.25j])
    moderate = fitness(shape, basis, target)
    for exponent in range(-200, 161, 8):
        value = fitness(shape * 10.0**exponent, basis, target)
        assert abs(value - moderate) <= 1e-15 * moderate, exponent
    assert abs(fitness([1e-200, 5e-201], basis, target) - 0.2232332911884126) <= 1e-15
    assert abs(fitness([1e160, 5e159], basis, target) - 0.2232332911884126) <= 1e-15


def test_fitness_is_global_phase_invariant():
    basis = PartitionBasis(10, (1, 3, 5))
    target = trench_target(32)
    rng = np.random.default_rng(12)
    raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    base = fitness(raw, basis, target)
    # Neither a global phase nor the scale |alpha|^2 changes the fitness.
    for other in (raw * cmath.exp(0.9j), 3.0 * raw):
        assert abs(base - fitness(other, basis, target)) < 1e-12


def test_fitness_rejects_length_mismatch():
    basis = PartitionBasis(10, (1, 3))
    with pytest.raises(ValueError):
        fitness(np.ones(1), basis, trench_target(16))
    with pytest.raises(ValueError, match=r"shape \(1,\) for a 2-partition basis"):
        genome_profile(np.ones(1), basis, 16)


def test_scale_optimization_beats_naive_scales():
    # The closed-form scale must not be worse than any brute-force scale.
    basis = PartitionBasis(10, (1, 2))
    target = trench_target(32)
    alpha = np.array([0.8, 0.6 + 0.1j])
    best = fitness(alpha, basis, target)
    u = oracle_doses(10, basis.partitions, alpha, target.phis)
    for s in np.linspace(0.0, 0.05, 101):
        mse = float(np.mean((s * u - target.doses) ** 2))
        assert best <= mse + 1e-15
    # objective is strictly convex in the scale: doubling it must hurt
    s_star = float(u @ target.doses) / float(u @ u)
    doubled = float(np.mean((2.0 * s_star * u - target.doses) ** 2))
    assert doubled > best + 1e-9


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def test_trench_layout_and_balance():
    target = trench_target(512)
    assert isinstance(target, ExposureProfile)
    assert target.doses[0] == 1.0
    assert target.doses[128] == 1.0  # phi = pi/2 included
    assert target.doses[129] == 0.0
    assert target.doses[384] == 0.0  # phi = 3 pi/2 excluded
    assert target.doses[385] == 1.0
    assert float(np.mean(target.doses)) == 0.5


def test_trench_balance_on_small_grid():
    target = trench_target(4)
    assert list(target.doses) == [1.0, 1.0, 0.0, 0.0]


def test_target_pattern_validation():
    # A target is a profile: nonnegative, finite samples on the uniform grid...
    phis = phase_grid(16)
    with pytest.raises(ValueError):
        ExposureProfile(phis, np.full(16, -0.5))
    with pytest.raises(ValueError):
        ExposureProfile(phis + 0.1, np.ones(16))
    with pytest.raises(ValueError):
        ExposureProfile(phis, np.ones(8))
    for bad in (np.nan, np.inf):
        ragged = phis.copy()
        ragged[5] = bad
        with pytest.raises(ValueError):
            ExposureProfile(ragged, np.ones(16))
    # ...of at least four samples, none above 10^150, checked by every fit.
    _check_target(ExposureProfile(phase_grid(4), np.full(4, 1e150)))
    basis = PartitionBasis(10, (1, 2))
    for target, message in ((ExposureProfile(phase_grid(3), np.ones(3)), "four samples"),
                            (ExposureProfile(phis, np.full(16, 1e151)), "limit of 10")):
        for fit in (_check_target, best_classical_fit,
                    lambda t: fit_superposition(basis, t, 1),
                    lambda t: fitness(np.ones(2), basis, t)):
            with pytest.raises(ValueError, match=message):
                fit(target)


def test_target_pattern_keeps_private_copies():
    # The target freezes its own arrays, never the caller's.
    grid = phase_grid(8)
    samples = np.ones(8)
    target = ExposureProfile(grid, samples)
    samples[0] = 2.0
    grid[1] = 5.0
    assert target.doses[0] == 1.0 and target.phis[1] == math.pi / 4.0
    assert not target.doses.flags.writeable and not target.phis.flags.writeable


# ---------------------------------------------------------------------------
# dataclass validation
# ---------------------------------------------------------------------------

def test_partition_basis_validation():
    PartitionBasis(10, (0, 1, 5))
    with pytest.raises(ValueError):
        PartitionBasis(10, (1, 1, 2))
    with pytest.raises(ValueError):
        PartitionBasis(10, (3, 2))
    with pytest.raises(ValueError):
        PartitionBasis(10, (6,))
    with pytest.raises(ValueError):
        PartitionBasis(10, ())
    with pytest.raises(ValueError, match="positive"):
        PartitionBasis(0, (0,))
    # Non-integral photon numbers and partitions are refused, not truncated;
    # bool is an int subclass, but True is no photon number.
    for n, partitions in ((10, (1, 2.7)), (10.5, (1,)), (10, ("2",)), (True, (0,)), (10, (False,))):
        with pytest.raises(ValueError, match="integers"):
            PartitionBasis(n, partitions)
    basis = PartitionBasis(np.int64(10), (np.int64(1), 2))
    assert basis == PartitionBasis(10, (1, 2)) and type(basis.partitions[0]) is int


def test_genome_validation():
    # A coefficient vector has one finite entry per partition, and any norm.
    basis, target = PartitionBasis(10, (1, 2)), trench_target(16)
    for bad, message in ((np.zeros(0), "shape"), (np.ones(3), "shape"), (np.ones((1, 2)), "shape"),
                         ([1.0, math.nan], "finite"), ([1.0, complex(0.0, math.inf)], "finite")):
        with pytest.raises(ValueError, match=message):
            genome_profile(bad, basis, 16)
        with pytest.raises(ValueError, match=message):
            fitness(bad, basis, target)
    unit = genome_profile([0.6, 0.8j], basis, 16).doses
    assert np.allclose(genome_profile([3.0, 4.0j], basis, 16).doses, 25.0 * unit, rtol=1e-14, atol=0.0)


def test_solver_config_validation():
    basis, target = PartitionBasis(10, (1, 3, 5)), trench_target(16)
    for iterations in (0, -1, 2.5, True):
        with pytest.raises(ValueError):
            fit_superposition(basis, target, iterations)
    for seed in ("0", 1.5, True):
        with pytest.raises(ValueError):
            fit_superposition(basis, target, 1, seed)  # type: ignore[arg-type]
    # numpy integers are integers.
    np.testing.assert_array_equal(fit_superposition(basis, target, np.int64(2), np.int64(3))[1],
                                  fit_superposition(basis, target, 2, 3)[1])


# ---------------------------------------------------------------------------
# the solver itself
# ---------------------------------------------------------------------------

ITERATIONS, SEED = 25, 42

# The synthesize seeds of the benchmark's workload seeds 1..10 and 20011:
# default_rng([seed, 0]).integers(2**31).
BENCHMARK_SEEDS = [int(np.random.default_rng([s, 0]).integers(2**31))
                   for s in [*range(1, 11), 20011]]


def test_ga_is_deterministic():
    basis = PartitionBasis(10, (1, 3, 5))
    target = trench_target(128)
    first_alpha, first_trace = fit_superposition(basis, target, ITERATIONS, SEED)
    second_alpha, second_trace = fit_superposition(basis, target, ITERATIONS, SEED)
    assert np.array_equal(first_trace, second_trace)
    assert np.array_equal(first_alpha, second_alpha)


def test_ga_trace_shape_and_monotonicity():
    # One entry per iteration run plus the initial one: the run may end
    # before its cap once every start has retired, but not before one step.
    basis = PartitionBasis(10, (1, 3, 5))
    target = trench_target(128)
    _, trace = fit_superposition(basis, target, ITERATIONS, SEED)
    assert trace.ndim == 1 and 2 <= len(trace) <= ITERATIONS + 1
    assert np.all(np.diff(trace) <= 0.0)
    assert fit_superposition(basis, target, 1, SEED)[1].shape == (2,)


def test_ga_seed_changes_search_path():
    basis = PartitionBasis(10, (1, 3, 5))
    target = trench_target(128)
    _, trace_a = fit_superposition(basis, target, 10, seed=1)
    _, trace_b = fit_superposition(basis, target, 10, seed=2)
    assert not np.array_equal(trace_a, trace_b)


def test_ga_recovers_reachable_target():
    # Single-partition basis: every coefficient gives the same dose shape,
    # so the solver must hit (numerically) zero error and recover the
    # injected scale as |alpha|^2.
    basis = PartitionBasis(10, (2,))
    component = component_profile(10, 2, 64)
    target = ExposureProfile(component.phis, 0.7 * component.doses)
    alpha, trace = fit_superposition(basis, target, 3, seed=5)
    assert trace[-1] < 1e-18
    assert abs(np.linalg.norm(alpha) ** 2 - 0.7) < 1e-9


def test_fit_of_a_zero_target_keeps_a_unit_direction():
    # The starts shrink towards a zero target until their squares would
    # underflow; the returned vector is scaled from its unit direction, so
    # |alpha|^2 is the 1e-300 floor of the least-squares scale, not zero.
    basis = PartitionBasis(10, (1, 2))
    alpha, trace = fit_superposition(basis, ExposureProfile(phase_grid(16), np.zeros(16)), seed=2)
    assert trace[-1] == 0.0
    assert abs(np.linalg.norm(alpha) ** 2 / 1e-300 - 1.0) < 1e-12


def test_ga_converges_when_target_in_span():
    basis = PartitionBasis(6, (0,))
    target = component_profile(6, 0, 64)
    _, trace = fit_superposition(basis, target, 10, seed=3)
    assert trace[-1] < 1e-6


def test_default_fit_reaches_the_trench_optimum_for_every_benchmark_seed():
    # 0.171118563 is the global single-exposure optimum on this basis.
    basis = PartitionBasis(10, (1, 2, 3, 4, 5))
    target = trench_target(512)
    for seed in BENCHMARK_SEEDS:
        best, trace = fit_superposition(basis, target, seed=seed)
        assert fitness(best, basis, target) <= 0.1711186, seed
        assert trace[-1] <= 0.1711186, seed
        assert len(trace) <= 23, seed  # every start retired within 22 iterations


def test_fit_that_stops_early_is_the_same_under_a_larger_cap():
    basis = PartitionBasis(10, (1, 2, 3, 4, 5))
    target = trench_target(512)
    alpha, trace = fit_superposition(basis, target)
    assert len(trace) < 51
    long_alpha, long_trace = fit_superposition(basis, target, 500)
    assert alpha.tobytes() == long_alpha.tobytes()
    assert trace.tobytes() == long_trace.tobytes()


def test_fit_of_a_large_basis_converges_within_the_default_cap():
    # k = 31, where the residual is far from zero and the rows' weights,
    # sqrt(2) to sqrt(C(60, 30)), span eight orders of magnitude.  Damped
    # by the mean Gauss-Newton diagonal, the solver stopped at the cap with
    # 0.1381760 (0.137415 after 300 iterations); damped per variable, every
    # start retires after 41 iterations with 0.1344713.
    basis = PartitionBasis(60, tuple(range(31)))
    target = trench_target(512)
    _, trace = fit_superposition(basis, target)
    assert trace[-1] <= 0.1345
    assert len(trace) < 51


def test_fit_of_a_widely_weighted_basis_retires_before_the_cap_for_every_benchmark_seed():
    # Rows weighted from sqrt(2) to sqrt(C(30, 15)): damped by the mean
    # Gauss-Newton diagonal, every seed ran to the cap; damped per variable,
    # every seed retires within 24 iterations at the same optimum.
    basis = PartitionBasis(30, (0, 3, 7, 10, 15))
    target = trench_target(512)
    for seed in BENCHMARK_SEEDS:
        best, trace = fit_superposition(basis, target, seed=seed)
        assert len(trace) < 51, seed
        assert trace[-1] <= 0.2465212, seed
        assert fitness(best, basis, target) <= 0.2465212, seed


def test_curvature_is_the_derivative_of_the_jacobian():
    # The Jacobian of w is linear in x, so central differences of it along
    # each x_a are exact up to roundoff; weighted by a residual they give
    # row a of the solver's second-order term sum_j res_j H_j.
    basis = PartitionBasis(10, (1, 2, 4))
    target = trench_target(64)
    rows, _ = _dose_space(basis, target.doses)
    index, factor = _hessian_map(len(basis))
    jac = _jacobian_map(rows, index, factor)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(2 * len(basis))
    res = rng.standard_normal(rows.shape[1])
    curvature = (res @ rows.T)[index] * factor
    h = 1e-3
    for a in range(2 * len(basis)):
        shift = h * np.eye(2 * len(basis))[a]
        jt_plus, _ = _jacobians((x + shift)[None], jac)
        jt_minus, _ = _jacobians((x - shift)[None], jac)
        column = ((jt_plus - jt_minus)[0] / (2 * h)) @ res
        assert np.allclose(column, curvature[:, a], rtol=1e-9, atol=1e-9 * np.abs(curvature).max())
    assert np.array_equal(curvature, curvature.T)


def test_ga_scores_in_dose_space_from_one_small_qr(monkeypatch):
    # At G = 8192 the dose space is one QR of the support bins' rows: the
    # harmonic differences of the rows lie in [-2N, 2N], so at most 2N + 1
    # rfft bins, two rows each, and the perp row.
    target = trench_target(8192)
    basis = PartitionBasis(4, (0, 1, 2))
    calls = []
    real_qr = np.linalg.qr

    def counting_qr(a, mode):
        calls.append(len(a))
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    best, trace = fit_superposition(basis, target, 2, seed=4)
    assert len(calls) == 1 and calls[0] <= 2 * (2 * basis.n_photons + 1)
    assert abs(fitness(best, basis, target) - trace[-1]) <= 1e-12 * trace[-1]


def test_dose_space_does_not_grow_with_the_grid(monkeypatch):
    # Once the grid holds every harmonic of the doses, a finer grid adds
    # no row to the QR, and the triangle has min(rows, k^2 + 1) rows.
    basis = PartitionBasis(20, (0, 2, 4, 6, 8, 10))
    width = len(basis) ** 2 + 1
    shapes = []
    real_qr = np.linalg.qr

    def counting_qr(a, mode):
        shapes.append(a.shape)
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    for grid in (300, 30000):
        _, c = _dose_space(basis, trench_target(grid).doses)
        assert len(c) == min(shapes[-1][0], width)
    assert shapes[0] == shapes[1] and shapes[0][1] == width


def test_dose_space_peaks_below_one_grid_array():
    # At G = 2^20 only the target's rfft is as long as the grid: the peak of
    # _dose_space stays below one G-point complex array.
    grid = 1 << 20
    target = trench_target(grid).doses
    basis = PartitionBasis(10, (1, 2, 3, 4, 5))
    tracemalloc.start()
    try:
        _dose_space(basis, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * grid


def test_genome_profile_forms_no_partition_by_grid_array():
    # A dose is one G-bin spectrum and one inverse FFT: at k = 31 and
    # G = 8192 its peak stays below one k x G complex array.
    basis = PartitionBasis(60, tuple(range(31)))
    alpha = np.ones(31, dtype=complex)
    tracemalloc.start()
    try:
        genome_profile(alpha, basis, 8192)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 31 * 8192 * 16


def test_singular_damped_system_gives_a_failed_step():
    # One singular system must not stop the solve of the others.
    systems = np.array([np.eye(2), np.zeros((2, 2)), [[2.0, 0.0], [0.0, np.nan]]])
    steps = _damped_steps(systems, np.ones((3, 2)))
    assert np.array_equal(steps[0], [1.0, 1.0])
    assert np.all(np.isnan(steps[1:]))


def test_solver_draws_its_starts_from_one_stream(monkeypatch):
    seeds = []
    real_rng = np.random.default_rng

    def counting_rng(seed):
        seeds.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    fit_superposition(PartitionBasis(10, (1, 3, 5)), trench_target(64), 7, seed=3)
    assert seeds == [[3, 0]]


def test_fit_returns_its_target_superposition_at_the_summary_scale():
    # A target made as the dose of a known alpha is reached exactly: the
    # returned vector doses the target, and |alpha|^2 is the least-squares
    # scale <u, p> / <u, u> of its unit direction, as the CLI summary reports.
    basis = PartitionBasis(10, (1, 4))
    known = np.array([0.6 + 0.3j, -0.2 + 0.7j])
    target = genome_profile(known, basis, 64)
    alpha, trace = fit_superposition(basis, target, seed=7)
    assert alpha.shape == (2,) and alpha.dtype == complex
    assert trace[-1] < 1e-20
    dose = genome_profile(alpha, basis, 64).doses
    assert np.max(np.abs(dose - target.doses)) <= 1e-12 * target.doses.max()
    norm = np.linalg.norm(alpha)
    u = genome_profile(alpha / norm, basis, 64).doses
    assert abs(norm**2 - (u @ target.doses) / (u @ u)) <= 1e-12 * norm**2
    assert abs(norm**2 - np.linalg.norm(known) ** 2) <= 1e-12 * norm**2


def test_ga_best_genome_agrees_with_public_fitness():
    # The residual inside the solver must match the public fitness of the
    # genome it returns.
    basis = PartitionBasis(10, (1, 3, 5))
    target = trench_target(128)
    best, trace = fit_superposition(basis, target, ITERATIONS, SEED)
    assert abs(fitness(best, basis, target) - trace[-1]) < 1e-9


# ---------------------------------------------------------------------------
# classical benchmark
# ---------------------------------------------------------------------------

def test_classical_fit_recovers_family_member():
    phis = phase_grid(256)
    samples = 1.3 + 0.4 * np.cos(2.0 * phis + 2.1)
    fit = best_classical_fit(ExposureProfile(phis, samples))
    assert fit.error < 1e-12
    assert abs(fit.a - 1.3) < 1e-6
    assert abs(fit.b - 0.4) < 1e-6
    delta = (fit.theta0 - 2.1 + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(delta) < 1e-4


def test_classical_fit_of_constant_target():
    phis = phase_grid(64)
    fit = best_classical_fit(ExposureProfile(phis, np.full(64, 0.5)))
    assert abs(fit.a - 0.5) < 1e-12
    assert abs(fit.b) < 1e-9
    assert fit.error < 1e-15


def test_classical_fit_of_trench_is_flat_quarter():
    # The trench has no frequency-2 content, so the classical family can do
    # no better than the flat half-exposure with mean squared error 1/4.
    fit = best_classical_fit(trench_target(512))
    assert abs(fit.error - 0.25) < 1e-9
    assert fit.b < 1e-6
    assert abs(fit.a - 0.5) < 1e-6


def test_classical_fit_respects_cone_constraint():
    # Target with a dominant negative-aligned fringe: a >= b >= 0 must hold.
    phis = phase_grid(128)
    samples = np.maximum(0.1 + 1.5 * np.cos(2.0 * phis), 0.0)
    fit = best_classical_fit(ExposureProfile(phis, samples))
    assert fit.a >= fit.b >= 0.0


def grid_oracle_error(phis, samples, a_max=3.0):
    """Exhaustive (a, b, theta0) scan; an upper bound on the family optimum."""
    best = np.inf
    for theta in np.arange(180) * (2.0 * np.pi / 180.0):
        cos_term = np.cos(2.0 * phis + theta)
        for a in np.linspace(0.0, a_max, 41):
            for b in np.linspace(0.0, a, 21):
                mse = float(np.mean((a + b * cos_term - samples) ** 2))
                if mse < best:
                    best = mse
    return best


def test_classical_fit_beats_exhaustive_grid():
    rng = np.random.default_rng(77)
    phis = phase_grid(64)
    for _ in range(3):
        samples = np.exp(rng.standard_normal(64) * 0.5)
        fit = best_classical_fit(ExposureProfile(phis, samples))
        assert fit.error <= grid_oracle_error(phis, samples) + 1e-12


def test_classical_fit_of_trench_matches_grid_oracle():
    # Two-sided: the scan includes the true optimum (a=1/2, b=0) exactly.
    target = trench_target(64)
    fit = best_classical_fit(target)
    oracle = grid_oracle_error(target.phis, target.doses, a_max=1.0)
    assert abs(fit.error - oracle) < 1e-6


def cone_scan_error(phis, samples, steps=720):
    """Best a >= b >= 0 fit over a theta grid, exact in (a, b) at each theta."""
    best = np.inf
    for theta in np.arange(steps) * (2.0 * np.pi / steps):
        cos_term = np.cos(2.0 * phis + theta)
        design = np.stack([np.ones_like(cos_term), cos_term], axis=1)
        (a, b), *_ = np.linalg.lstsq(design, samples, rcond=None)
        candidates = [(samples.mean(), 0.0)]
        if a >= b >= 0.0:
            candidates.append((a, b))
        base = 1.0 + cos_term
        face = max(float(base @ samples) / float(base @ base), 0.0)
        candidates.append((face, face))
        for a, b in candidates:
            best = min(best, float(np.mean((a + b * cos_term - samples) ** 2)))
    return best


def test_classical_fit_beats_theta_scan_on_small_grids():
    # G = 4 is the Nyquist case (sin 2phi vanishes on the grid); peaked
    # targets put the optimum on the face a = b.
    rng = np.random.default_rng(5)
    for g in (4, 5, 6, 8):
        phis = phase_grid(g)
        for spread in (0.3, 3.0):
            samples = np.exp(spread * rng.standard_normal(g))
            fit = best_classical_fit(ExposureProfile(phis, samples))
            assert fit.a >= fit.b >= 0.0
            assert 0.0 <= fit.theta0 < 2.0 * math.pi
            assert fit.error <= cone_scan_error(phis, samples) + 1e-12


def test_classical_fit_result_type():
    fit = best_classical_fit(trench_target(64))
    assert isinstance(fit, ClassicalFit)
    assert 0.0 <= fit.theta0 < 2.0 * math.pi


def test_classical_fit_curve_reconstruction():
    phis = phase_grid(32)
    fit = ClassicalFit(a=1.2, b=0.3, theta0=0.8, error=0.0)
    expected = 1.2 + 0.3 * np.cos(2.0 * phis + 0.8)
    assert np.max(np.abs(fit.curve(phis) - expected)) < 1e-15
    # the fitted curve's own MSE reproduces the reported error
    target = trench_target(64)
    fit = best_classical_fit(target)
    resid = fit.curve(target.phis) - target.doses
    assert abs(float(np.mean(resid**2)) - fit.error) < 1e-12
