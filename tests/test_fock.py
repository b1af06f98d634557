"""Tests for the two-mode Fock state module."""

import dataclasses
import math
import types
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_dose, instrument_matrix, random_state_map
from qlitho import dosing, fock
from qlitho.dosing import (
    SubstrateConvention,
    _input_doses,
    _spectral_doses,
    exposure_profile,
    phase_grid,
)
from qlitho.fock import (
    FockState,
    _lowering_terms,
    _root,
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
# field powers: running products of the real input field (c - s, c + s)
# ---------------------------------------------------------------------------

def _running_powers(z: float, top: int) -> list[float]:
    """z^0 .. z^top, each the float product of the one before it and z."""
    out = [1.0]
    for _ in range(top):
        out.append(out[-1] * z)
    return out


def _sequential_powers(minus: np.ndarray, plus: np.ndarray, n_photons: int, ks: np.ndarray) -> np.ndarray:
    """minus^k plus^(N-k) row by row, one Python float multiply at a time."""
    rows = []
    for m, p in zip(minus.tolist(), plus.tolist()):
        m_pow, p_pow = _running_powers(m, n_photons), _running_powers(p, n_photons)
        rows.append([m_pow[k] * p_pow[n_photons - k] for k in ks.tolist()])
    return np.array(rows)


@settings(max_examples=80)
@given(st.integers(1, 2044), st.data(), st.sampled_from(SubstrateConvention))
def test_field_powers_at_any_exponents_are_the_running_products(power, data, convention):
    # Byte for byte: a k asked for alone gives the bytes it gives beside
    # any other ks, and each arm's power is its field multiplied in once
    # per step, so the powers of a phase do not depend on the block it is in.
    phis = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6)))
    ks = np.array(sorted(data.draw(st.sets(st.integers(0, power), min_size=1, max_size=8))))
    minus, plus = dosing._field(phis, convention)
    expected = _sequential_powers(minus, plus, power, ks)
    assert dosing._powers(minus, plus, power, ks).tobytes() == expected.tobytes()


@pytest.mark.parametrize("power", [100, 127, 128, 171, 1000, 2044])
def test_field_powers_from_exponent_100_are_the_running_products(power):
    # On phase_grid(8) the SINGLE_ARM fields have exact zero and unit arms,
    # and the SYMMETRIC c - s at pi/4 is about 1e-16, whose powers underflow
    # to 0; every k from 0 to N is asked for.
    phis = np.concatenate([phase_grid(8), np.random.default_rng(power).uniform(0.0, 2 * math.pi, 8)])
    ks = np.arange(power + 1)
    for convention in SubstrateConvention:
        minus, plus = dosing._field(phis, convention)
        got = dosing._powers(minus, plus, power, ks)
        assert got.tobytes() == _sequential_powers(minus, plus, power, ks).tobytes(), convention


def _exact_power(x: float, n: int) -> Decimal:
    """x^n of the float x's exact value, in the context's decimals."""
    return Decimal(x) ** n if n else Decimal(1)


@pytest.mark.parametrize("power", [100, 171, 1000, 2044])
def test_field_powers_from_exponent_100_are_within_n_eps_of_exact(power):
    # The running products (c - s)^k (c + s)^(N-k) take N - 1 roundings, so
    # their relative error is at most N eps of the exact powers of the rounded
    # field.  Only where both partial powers are normal floats: |c + s|
    # reaches sqrt2, so a subnormal (c - s)^k, with its few bits, can sit
    # under a normal product.  Past N = 2047, (c + s)^N overflows.
    phis = np.concatenate([phase_grid(8), np.random.default_rng(power).uniform(0.0, 2 * math.pi, 8)])
    ks = np.unique(np.clip([0, 1, 63, 64, 99, 100, 129, power // 2, power - 65, power - 1, power], 0, power))
    bound = Decimal(power * np.finfo(float).eps)
    tiny = Decimal(np.finfo(float).tiny)
    checked = 0
    with localcontext() as ctx:
        ctx.prec = 40
        for convention in SubstrateConvention:
            minus, plus = dosing._field(phis, convention)
            got = dosing._powers(minus, plus, power, ks)
            for row, m, p in zip(got.tolist(), minus.tolist(), plus.tolist()):
                for value, k in zip(row, ks.tolist()):
                    a, b = _exact_power(m, k), _exact_power(p, power - k)
                    if min(abs(a), abs(b), abs(a * b)) < tiny:
                        continue
                    assert abs(Decimal(value) - a * b) <= bound * abs(a * b), (convention, k)
                    checked += 1
    assert checked > len(ks) * len(phis)


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
    for power in range(1, max(state.sectors) + 1):
        blocks = []
        for total, psi in sorted(state.sectors.items()):
            if total < power:
                continue
            held = np.flatnonzero(psi)
            terms, ks = _lowering_terms(FockState({total: psi}), power, _root)
            reached = sorted({n - k for n in held for k in range(power + 1) if 0 <= n - k <= total - power})
            assert terms.shape == (len(reached), len(ks))
            assert terms.any(axis=1).all() and terms.any(axis=0).all()
            # With root = float each term is psi[j+k] w(j, k)^2 itself.
            exact, _ = _lowering_terms(FockState({total: psi}), power, float)
            for i, j in enumerate(reached):
                for c, k in enumerate(ks.tolist()):
                    w2 = math.comb(power, k) * math.comb(j + k, k) * math.comb(total - j - k, power - k)
                    assert exact[i, c] == psi[j + k] * w2
            blocks.append((terms, ks))
        # The whole state: every sector's rows, stacked in order of M, each
        # sector's terms at its own k among the union of them.
        terms, ks = _lowering_terms(state, power, _root)
        assert len(terms) == sum(len(t) for t, _ in blocks)
        assert set(ks.tolist()) == set().union(*(k.tolist() for _, k in blocks))
        assert terms.any(axis=1).all() and terms.any(axis=0).all()
        stacked, row = np.zeros_like(terms), 0
        for t, k in blocks:
            stacked[row:row + len(t), np.searchsorted(ks, k)] = t
            row += len(t)
        assert np.array_equal(terms, stacked)
    # A squeezed sector |n, n> at N = 2 reaches 3 of its 2n - 1 output rows.
    terms, ks = _lowering_terms(FockState({10: _squeezed_vacuum(0.8, 5).sectors[10]}), 2, _root)
    assert ks.tolist() == [0, 1, 2] and terms.shape == (3, 3)
    # A sector of zero amplitudes adds no row, alone or beside others.
    assert _lowering_terms(FockState({5: np.zeros(6)}), 2, _root)[0].shape == (0, 0)
    beside = FockState({**state.sectors, 7: np.zeros(8)})
    for got, want in zip(_lowering_terms(beside, 2, _root), _lowering_terms(state, 2, _root)):
        assert np.array_equal(got, want)


def _three_sector_state(n_photons: int, rng) -> FockState:
    """Random amplitudes in sectors N, N+1 and N+3, each mode holding at most
    N/2 + 2 photons."""
    pairs = {}
    for total in (n_photons, n_photons + 1, n_photons + 3):
        cap = n_photons // 2 + 2
        for n in range(max(0, total - cap), min(total, cap) + 1):
            pairs[(n, total - n)] = complex(*rng.standard_normal(2))
    return make_state(pairs)


@pytest.mark.parametrize("n_photons", [3, 40])
def test_substrate_and_shifter_doses_form_no_n_factorial(monkeypatch, n_photons):
    # Every sector's weights are correctly rounded roots of exact integers
    # (fock._root): no N! at the substrate or behind the shifter, in any sector.
    state = _three_sector_state(n_photons, np.random.default_rng(n_photons))
    phis = phase_grid(16)
    expected = {}
    for convention in SubstrateConvention:
        for site in ("substrate", "shifter"):
            for phi in phis:
                z = np.exp(1j * phi)
                if convention is SubstrateConvention.SYMMETRIC:
                    field = (z, 1 / z)
                else:
                    field = (z if site == "shifter" else 1.0, 1.0)
                expected.setdefault((convention, site), []).append(
                    dense_dose(state.amplitudes, n_photons // 2 + 2, n_photons, *field))

    def refused(n):
        raise AssertionError(f"math.factorial({n}) formed")

    for module in (fock, dosing):
        monkeypatch.setattr(module, "math", types.SimpleNamespace(**{**vars(math), "factorial": refused}))
    for (convention, site), want in expected.items():
        if site == "substrate":
            doses = exposure_profile(state, n_photons, 16, convention).doses
        else:
            doses = _spectral_doses(state, n_photons, 16, convention, site)
        assert np.abs(doses - want).max() <= 1e-12 * max(want), (convention, site)
