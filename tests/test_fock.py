"""Tests for the two-mode Fock state module."""

import dataclasses
import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_dose, instrument_matrix, random_state_map
from qlitho import dosing
from qlitho.dosing import (
    SubstrateConvention,
    _input_doses,
    _spectral_doses,
    exposure_profile,
    phase_grid,
)
from qlitho.fock import (
    FockState,
    _field_powers,
    _lowering_terms,
    make_state,
)


def _squared_norm(state: FockState) -> float:
    """Sum of |amplitude|^2 over all occupation pairs."""
    return sum(abs(z) ** 2 for z in state.amplitudes.values())


def test_make_state_normalizes():
    state = make_state({(0, 0): 1.0, (1, 1): 1j})
    r = 1.0 / math.sqrt(2.0)
    assert abs(state.amplitude(0, 0) - r) < 1e-15
    assert abs(state.amplitude(1, 1) - 1j * r) < 1e-15
    assert abs(_squared_norm(state) - 1.0) < 1e-14


def test_make_state_single_term_has_unit_amplitude():
    state = make_state({(3, 4): 2.0})
    assert state.amplitude(3, 4) == 1.0


@pytest.mark.parametrize("amp, expected", [
    (1e200, 1.0 / math.sqrt(2.0)),  # the squares overflow
    (1e-170, 1.0 / math.sqrt(2.0)),  # the squares underflow to zero
    (1e-160, 1.0 / math.sqrt(2.0)),  # the squares are subnormal
    (complex(1e308, -1e308), 0.5 - 0.5j),  # the modulus overflows
])
def test_make_state_normalizes_amplitudes_whose_squares_leave_the_float_range(amp, expected):
    state = make_state({(1, 0): amp, (0, 1): amp})
    for pair in ((1, 0), (0, 1)):
        assert abs(state.amplitude(*pair) - expected) < 1e-15
    assert abs(_squared_norm(state) - 1.0) < 1e-15


_PART = st.builds(math.copysign, st.floats(1e-150, 1e150), st.sampled_from((1.0, -1.0)))


@settings(max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.builds(complex, _PART, _PART),
                       min_size=1, max_size=8), st.integers(-400, 400))
def test_make_state_is_the_plain_quotient_wherever_the_squares_are_normal(pairs, shift):
    # Scaling by a power of two first is exact, so it leaves z / sqrt(sum |z|^2) as
    # it is (the moduli squared by multiplication, as make_state squares them); and
    # the state times 2^shift, whose squares may leave the float range, is the same.
    norm = math.sqrt(sum(abs(v) * abs(v) for v in pairs.values()))
    state = make_state(pairs)
    assert state.amplitudes == {pair: z / norm for pair, z in pairs.items()}
    shifted = {p: complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift)) for p, z in pairs.items()}
    assert make_state(shifted) == state


def test_make_state_rejects_bad_input():
    with pytest.raises(ValueError, match="negative occupation"):
        make_state({(-1, 0): 1.0})
    with pytest.raises(ValueError, match="negative occupation"):
        make_state({(2, -3): 1.0})
    with pytest.raises(ValueError, match="finite"):
        make_state({(0, 0): float("nan")})
    with pytest.raises(ValueError, match="degenerate"):
        make_state({(1, 1): 0.0})
    with pytest.raises(ValueError, match="degenerate"):
        make_state({})
    with pytest.raises(ValueError, match=r"integers, got \(0, 2\.5\)"):
        make_state({(0, 2.5): 1.0})
    with pytest.raises(ValueError, match="integers"):
        make_state({(1.0, 0): 1.0})
    state = make_state({(np.int64(2), np.uint8(1)): 1.0})
    assert state.amplitudes == {(2, 1): 1.0}


def test_field_power_beyond_photon_content_is_zero_state():
    # Asking for more photons than the state holds annihilates every
    # sector, so the dose of that state and N is 0 at every site: no error.
    state = make_state({(1, 0): 1.0, (0, 2): 1.0j})
    phis = phase_grid(8)
    for power in (3, 4, 50):
        for convention in SubstrateConvention:
            assert np.all(exposure_profile(state, power, 8, convention).doses == 0.0)
            assert np.all(_input_doses(state, power, phis, convention) == 0.0)
    with pytest.raises(ValueError):
        exposure_profile(state, 0, 8)
    with pytest.raises(ValueError):
        _input_doses(state, 0, phis, SubstrateConvention.SYMMETRIC)


def test_field_power_cancels_exactly():
    # A destructive combination that cancels exactly leaves nothing behind:
    # under the SINGLE_ARM substrate field a + b, |1,0> - |0,1> doses 0.
    state = make_state({(1, 0): 1.0, (0, 1): -1.0})
    assert np.all(exposure_profile(state, 1, 8, SubstrateConvention.SINGLE_ARM).doses == 0.0)


# Sites whose field coefficients are powers of e^{i phi}, of modulus 1.
_UNIT_SITES = [
    (SubstrateConvention.SYMMETRIC, "substrate"),
    (SubstrateConvention.SINGLE_ARM, "substrate"),
    (SubstrateConvention.SINGLE_ARM, "shifter"),
]


def test_one_photon_dose_of_a_number_state_is_its_occupation():
    # a|n, m> = sqrt(n)|n-1, m> and b|n, m> = sqrt(m)|n, m-1> are orthogonal,
    # so under unit field coefficients the N = 1 dose of |n, m> is n + m.
    for pair in ((1, 0), (0, 1), (2, 0), (1, 1), (3, 4), (0, 0)):
        state = make_state({pair: 1.0})
        for convention, site in _UNIT_SITES:
            doses = _spectral_doses(state, 1, 8, convention, site)
            assert np.abs(doses - sum(pair)).max() < 1e-14, (pair, convention, site)
    # At the inputs only mode a is lit by |n, 0>: its dose is n times that of |1, 0>.
    phis = phase_grid(16)
    for convention in SubstrateConvention:
        single = _input_doses(make_state({(1, 0): 1.0}), 1, phis, convention)
        for n in (2, 5):
            doses = _input_doses(make_state({(n, 0): 1.0}), 1, phis, convention)
            assert np.abs(doses - n * single).max() < 1e-13 * n


def test_vacuum_doses_zero_at_every_site():
    vacuum = make_state({(0, 0): 1.0})
    for convention, site in _UNIT_SITES:
        assert np.all(_spectral_doses(vacuum, 1, 8, convention, site) == 0.0)
    for convention in SubstrateConvention:
        assert np.all(exposure_profile(vacuum, 1, 8, convention, from_input=True).doses == 0.0)


def test_one_photon_dose_averages_to_the_mean_photon_number():
    # Over a period the N = 1 dose loses its cross term alpha* beta <a† b>,
    # leaving |alpha|^2 <a† a> + |beta|^2 <b† b> = <n_a + n_b>.
    rng = np.random.default_rng(7)
    for _ in range(20):
        amps = random_state_map(rng, int(rng.integers(1, 7)))
        mean = sum((n + m) * abs(z) ** 2 for (n, m), z in amps.items())
        state = make_state(amps)
        for convention, site in ((SubstrateConvention.SYMMETRIC, "substrate"),
                                 (SubstrateConvention.SINGLE_ARM, "shifter")):
            doses = _spectral_doses(state, 1, 8, convention, site)
            assert abs(doses.mean() - mean) < 1e-13 * max(1.0, mean)


def test_two_photon_pair_doses_twice_its_field_product():
    # (alpha a + beta b)^2 |1,1> = 2 alpha beta |0,0>: the dose |2 alpha beta|^2 / 2!
    # is 2 wherever both coefficients have modulus 1.
    state = make_state({(1, 1): 1.0})
    for convention, site in _UNIT_SITES:
        doses = _spectral_doses(state, 2, 8, convention, site)
        assert np.abs(doses - 2.0).max() < 1e-14, (convention, site)


def test_full_depletion_dose():
    # (alpha a + beta b)^3 |2,1>: each of the 3 orderings that annihilate everything
    # contributes alpha^2 beta sqrt(2!) sqrt(1!), so the amplitude is 3 sqrt2 alpha^2 beta
    # and the dose 18 / 3! = 3 under unit field coefficients.
    state = make_state({(2, 1): 1.0})
    for convention, site in _UNIT_SITES:
        doses = _spectral_doses(state, 3, 8, convention, site)
        assert np.abs(doses - 3.0).max() < 1e-14, (convention, site)
    for convention in SubstrateConvention:
        profile = exposure_profile(state, 3, 8, convention, from_input=True)
        for phi, dose in zip(profile.phis, profile.doses):
            if convention is SubstrateConvention.SYMMETRIC:
                field = np.array([np.exp(1j * phi), np.exp(-1j * phi)])
            else:
                field = np.array([1.0, 1.0])
            field = field @ instrument_matrix(phi, convention)
            expected = 18.0 * abs(field[0] ** 2 * field[1]) ** 2 / 6.0
            assert abs(dose - expected) < 1e-13


def test_fock_state_is_immutable():
    # A state is its sector arrays alone; no photon-number bound rides along.
    assert [field.name for field in dataclasses.fields(FockState)] == ["sectors"]
    state = make_state({(1, 0): 1.0})
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.sectors = {}  # type: ignore[misc]
    with pytest.raises(TypeError):
        state.sectors[3] = np.zeros(4)  # type: ignore[index]
    assert list(state.sectors) == [1]


def test_write_through_amplitudes_leaves_state_unchanged():
    state = make_state({(1, 0): 1.0})
    state.amplitudes[(5, 5)] = 3.0
    state.amplitudes[(1, 0)] = 3.0
    assert state.amplitude(5, 5) == 0j
    assert state.amplitudes == {(1, 0): 1.0}


def test_sector_arrays_are_read_only():
    state = make_state({(1, 0): 1.0})
    with pytest.raises(ValueError, match="read-only"):
        state.sectors[1][0] = 3.0
    with pytest.raises(ValueError, match="read-only"):
        state.sectors[1][:] = 0.0
    assert state.amplitude(1, 0) == 1.0 and state.amplitude(0, 1) == 0j


def test_state_does_not_alias_caller_data():
    pairs = {(1, 0): 1.0}
    state = make_state(pairs)
    pairs[(1, 0)] = 5.0
    pairs[(0, 1)] = 5.0
    assert state.amplitudes == {(1, 0): 1.0}
    psi = np.array([0.0, 1.0, 0.0], dtype=complex)
    direct = FockState({2: psi})
    psi[0] = 7.0  # the caller's array stays writeable and the state keeps its copy
    assert direct.amplitudes == {(1, 1): 1.0}
    assert direct == make_state({(1, 1): 1.0}) != make_state({(1, 1): 1.0, (2, 0): 1.0})


def test_fock_state_rejects_misshapen_sectors():
    for sectors in ({2: np.ones(2)}, {-1: np.ones(0)}, {1: np.ones((2, 1))}):
        with pytest.raises(ValueError, match="amplitudes"):
            FockState(sectors)
    for key in (2.0, True, "2"):
        with pytest.raises(ValueError, match="sector key must be an integer"):
            FockState({key: np.ones(3)})
    assert FockState({np.int64(1): [0.0, 1.0]}).amplitudes == {(1, 0): 1.0}


def test_amplitude_of_negative_occupation_is_zero():
    # n + m names a held sector, but a negative index must not wrap into it.
    state = make_state({(0, 2): 1.0, (2, 0): 2.0})
    assert state.amplitude(-1, 3) == 0j
    assert state.amplitude(3, -1) == 0j
    assert abs(state.amplitude(2, 0)) > 0.0


def test_high_occupancy_is_finite():
    # Large-N states must stay in floating range.
    state = make_state({(30, 0): 1.0, (0, 30): 1.0})
    for convention in SubstrateConvention:
        doses = exposure_profile(state, 30, 8, convention).doses
        assert np.all(np.isfinite(doses))
        assert doses.max() > 0.0


# ---------------------------------------------------------------------------
# field powers: numpy's squaring below exponent 100, exponent splits above,
# on the halved input fields, the only fields they are taken of
# ---------------------------------------------------------------------------

@settings(max_examples=80)
@given(st.integers(1, 99), st.data(), st.sampled_from(SubstrateConvention))
def test_field_powers_below_exponent_100_are_numpys_powers(power, data, convention):
    phis = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6)))
    ks = np.array(sorted(data.draw(st.sets(st.integers(0, power), min_size=1, max_size=8))))
    alpha, beta = dosing._field(phis, convention)
    expected = alpha ** ks[:, None] * beta ** (power - ks)[:, None]
    assert _field_powers(alpha, beta, power, ks).tobytes() == expected.tobytes()


def _split_factors(z: np.ndarray, n: int, top: int) -> list[np.ndarray]:
    """numpy powers below 100 whose product, in order, is z^n, for the
    largest exponent ``top`` of its column: while top >= 100, z^(n mod 64)
    and then the split of (z^64)^(n div 64), or z^n once n < 100 and z^0
    after that, z^0 kept."""
    factors = []
    while top >= 100:
        factors.append(np.power(z, n % 64 if n >= 100 else n))
        n, z, top = n // 64 if n >= 100 else 0, np.power(z, 64), top // 64
    return factors + [np.power(z, n)]


@pytest.mark.parametrize("power", [100, 127, 128, 171, 1000, 2044, 10**5])
def test_field_powers_from_exponent_100_are_the_split_products(power):
    # Byte for byte, row by row, alpha's factors and then beta's.  On
    # phase_grid(8) the SINGLE_ARM fields have exact zero parts, and the
    # SYMMETRIC alpha at pi/4 is about 1e-16, so its z^64 underflows to 0.
    phis = np.concatenate([phase_grid(8), np.random.default_rng(power).uniform(0.0, 2 * math.pi, 8)])
    ks = np.arange(0, power + 1, max(1, power // 2000))
    for convention in SubstrateConvention:
        alpha, beta = dosing._field(phis, convention)
        got = _field_powers(alpha, beta, power, ks)
        tops = int(ks.max()), power - int(ks.min())
        for row, k in zip(got, ks.tolist()):
            factors = _split_factors(alpha, k, tops[0]) + _split_factors(beta, power - k, tops[1])
            assert row.tobytes() == functools.reduce(np.multiply, factors).tobytes(), (convention, k)


def _exact_power(z: complex, n: int) -> tuple[Decimal, Decimal]:
    """z^n of the float z's exact value, by binary powering in 40-digit decimals."""
    re, im = Decimal(z.real), Decimal(z.imag)
    acc_re, acc_im = Decimal(1), Decimal(0)
    while n:
        if n & 1:
            acc_re, acc_im = acc_re * re - acc_im * im, acc_re * im + acc_im * re
        n >>= 1
        re, im = re * re - im * im, 2 * re * im
    return acc_re, acc_im


@pytest.mark.parametrize("power", [100, 171, 1000, 10**5])
def test_field_powers_from_exponent_100_are_within_n_eps_of_exact(power):
    # Relative error at most N eps; a power below the normal range may
    # round to a subnormal or to zero, which the smallest normal covers.
    phis = np.concatenate([phase_grid(8), np.random.default_rng(power).uniform(0.0, 2 * math.pi, 8)])
    ks = np.unique(np.clip([0, 1, 63, 64, 99, 100, 129, power // 2, power - 65, power - 1, power], 0, power))
    bound = Decimal(power * np.finfo(float).eps)
    tiny = Decimal(np.finfo(float).tiny)
    with localcontext() as ctx:
        ctx.prec = 40
        for convention in SubstrateConvention:
            alpha, beta = dosing._field(phis, convention)
            got = _field_powers(alpha, beta, power, ks)
            for row, k in zip(got, ks.tolist()):
                for value, a, b in zip(row.tolist(), alpha.tolist(), beta.tolist()):
                    (ar, ai), (br, bi) = _exact_power(a, k), _exact_power(b, power - k)
                    er, ei = ar * br - ai * bi, ar * bi + ai * br
                    err = ((Decimal(value.real) - er) ** 2 + (Decimal(value.imag) - ei) ** 2).sqrt()
                    assert err <= bound * (er * er + ei * ei).sqrt() + tiny, (convention, k)


# ---------------------------------------------------------------------------
# sparse sectors: only the output rows a state reaches
# ---------------------------------------------------------------------------

def _squeezed_vacuum(r: float, top: int) -> FockState:
    """Two-mode squeezed vacuum sum_n tanh^n r |n, n>, truncated at n = top."""
    return make_state({(n, n): math.tanh(r) ** n for n in range(top + 1)})


# Per-mode occupation bound and state.  The second holds an all-zero sector
# above its others, so N = 4, 5 reach that sector only.
_SPARSE_STATES = [
    pytest.param(5, _squeezed_vacuum(0.8, 5), id="squeezed"),
    pytest.param(5, FockState({5: np.zeros(6), 3: [0.6, 0.0, 0.8j, 0.0], 1: [0.0, 1.0]}), id="zero-sector"),
]


@pytest.mark.parametrize("cutoff, state", _SPARSE_STATES)
def test_sparse_sector_doses_at_the_inputs_match_the_dense_oracle(cutoff, state):
    phis = phase_grid(8)
    for n_photons in range(1, 6):
        for convention in SubstrateConvention:
            doses = _input_doses(state, n_photons, phis, convention)
            for phi, dose in zip(phis, doses):
                if convention is SubstrateConvention.SYMMETRIC:
                    field = np.array([np.exp(1j * phi), np.exp(-1j * phi)])
                else:
                    field = np.array([1.0, 1.0])
                field = field @ instrument_matrix(phi, convention)
                expected = dense_dose(state.amplitudes, cutoff, n_photons, *field)
                assert abs(dose - expected) <= 1e-12 * max(1.0, expected)


@pytest.mark.parametrize("cutoff, state", _SPARSE_STATES)
def test_sparse_sector_doses_at_the_substrate_match_the_dense_oracle(cutoff, state):
    # The folded FFT over sectors whose nonzero amplitudes are sparse, or, for
    # N = 4, 5 of the second state, all zero.
    phis = phase_grid(8)
    for n_photons in range(1, 6):
        for convention, site in _UNIT_SITES:
            doses = _spectral_doses(state, n_photons, 8, convention, site)
            for phi, dose in zip(phis, doses):
                if convention is SubstrateConvention.SYMMETRIC:
                    field = (np.exp(1j * phi), np.exp(-1j * phi))
                else:
                    field = (np.exp(1j * phi) if site == "shifter" else 1.0, 1.0)
                expected = dense_dose(state.amplitudes, cutoff, n_photons, *field)
                assert abs(dose - expected) <= 1e-12 * max(1.0, expected)


@pytest.mark.parametrize("cutoff, state", _SPARSE_STATES)
def test_lowering_terms_return_only_rows_the_sector_reaches(cutoff, state):
    for total, psi in state.sectors.items():
        held = np.flatnonzero(psi)
        for power in range(1, total + 1):
            terms, ks, _ = _lowering_terms(psi, power)
            reached = {n - k for n in held for k in range(power + 1) if 0 <= n - k <= total - power}
            assert terms.shape == (len(reached), len(ks))
            assert terms.any(axis=1).all() and terms.any(axis=0).all()
    # A squeezed sector |n, n> at N = 2 reaches 3 of its 2n - 1 output rows.
    terms, ks, _ = _lowering_terms(_squeezed_vacuum(0.8, 5).sectors[10], 2)
    assert ks.tolist() == [0, 1, 2] and terms.shape == (3, 3)
