"""Tests for the two-mode Fock state module."""

import dataclasses
import math

import numpy as np
import pytest

from qlitho.dosing import deposition_rate
from qlitho.fock import (
    FieldCoefficients,
    FockState,
    apply_field_power,
    make_state,
    squared_norm,
)


def _mode_index(mode) -> int:
    if mode in (0, "a"):
        return 0
    if mode in (1, "b"):
        return 1
    raise ValueError(f"unknown mode {mode!r}: expected 'a' or 'b'")


def apply_annihilation(state: FockState, mode) -> FockState:
    """a|n> = sqrt(n)|n-1> on one mode: the first power of that mode's field."""
    idx = _mode_index(mode)
    return apply_field_power(state, FieldCoefficients(1.0 - idx, float(idx)), 1)


def _apply_creation(state: FockState, mode) -> FockState:
    """a†|n, m> = sqrt(n+1)|n+1, m> or b†|n, m> = sqrt(m+1)|n, m+1>, per sector array."""
    idx = _mode_index(mode)
    out = {}
    for total, psi in state.sectors.items():
        n = np.arange(total + 1)
        raised = np.zeros(total + 2, dtype=complex)
        if idx == 0:
            raised[1:] = np.sqrt(n + 1.0) * psi
        else:
            raised[:-1] = np.sqrt(total - n + 1.0) * psi
        out[total + 1] = raised
    return FockState(out)


def test_make_state_normalizes():
    state = make_state({(0, 0): 1.0, (1, 1): 1j})
    r = 1.0 / math.sqrt(2.0)
    assert abs(state.amplitude(0, 0) - r) < 1e-15
    assert abs(state.amplitude(1, 1) - 1j * r) < 1e-15
    assert abs(squared_norm(state) - 1.0) < 1e-14


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
    assert abs(squared_norm(state) - 1.0) < 1e-15


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


def test_annihilation_lowers_occupation():
    state = make_state({(1, 1): 1.0})
    lowered = apply_annihilation(state, "a")
    assert set(lowered.amplitudes) == {(0, 1)}
    assert abs(lowered.amplitude(0, 1) - 1.0) < 1e-15


def test_annihilation_sqrt_weight():
    state = make_state({(2, 0): 1.0})
    lowered = apply_annihilation(state, 0)
    assert abs(lowered.amplitude(1, 0) - math.sqrt(2.0)) < 1e-15
    assert abs(squared_norm(lowered) - 2.0) < 1e-14


def test_annihilation_of_vacuum_is_zero_state():
    vac = make_state({(0, 0): 1.0})
    gone = apply_annihilation(vac, "b")
    assert gone.is_zero
    assert squared_norm(gone) == 0.0


def test_annihilation_mode_names_and_indices_agree():
    state = make_state({(2, 3): 1.0})
    by_name = apply_annihilation(state, "b")
    by_index = apply_annihilation(state, 1)
    assert by_name.amplitudes == by_index.amplitudes
    with pytest.raises(ValueError):
        apply_annihilation(state, "c")


def test_commutator_on_random_states():
    # a a+ - a+ a acts as the identity.
    rng = np.random.default_rng(7)
    from oracles import random_state_map

    for _ in range(30):
        cutoff = int(rng.integers(2, 7))
        amps = random_state_map(rng, cutoff, headroom=1)
        state = make_state(amps)
        for mode in ("a", "b"):
            forward = apply_annihilation(_apply_creation(state, mode), mode)
            backward = _apply_creation(apply_annihilation(state, mode), mode)
            for key, amp in state.amplitudes.items():
                diff = forward.amplitude(*key) - backward.amplitude(*key)
                assert abs(diff - amp) < 1e-12


def test_field_power_two_photon_pair():
    # (alpha a + beta b)^2 |1,1> = 2 alpha beta |0,0>
    alpha = 0.3 + 0.1j
    beta = -0.2 + 0.7j
    state = make_state({(1, 1): 1.0})
    out = apply_field_power(state, FieldCoefficients(alpha, beta), 2)
    assert set(out.amplitudes) == {(0, 0)}
    assert abs(out.amplitude(0, 0) - 2.0 * alpha * beta) < 1e-14


def test_field_power_full_depletion():
    # (a + b)^3 |2,1>: each of the 3 orderings that annihilate everything
    # contributes sqrt(2!) * sqrt(1!), so the amplitude is 3 sqrt(2).
    state = make_state({(2, 1): 1.0})
    out = apply_field_power(state, FieldCoefficients(1.0, 1.0), 3)
    assert set(out.amplitudes) == {(0, 0)}
    assert abs(out.amplitude(0, 0) - 3.0 * math.sqrt(2.0)) < 1e-13


def test_field_power_equals_iterated_single_powers():
    rng = np.random.default_rng(41)
    from oracles import random_state_map

    for _ in range(25):
        cutoff = int(rng.integers(2, 8))
        amps = random_state_map(rng, cutoff)
        state = make_state(amps)
        f = FieldCoefficients(
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
        )
        power = int(rng.integers(1, min(cutoff, 4) + 1))
        direct = apply_field_power(state, f, power)
        step = state
        for _ in range(power):
            step = apply_field_power(step, f, 1)
        keys = set(direct.amplitudes) | set(step.amplitudes)
        for key in keys:
            assert abs(direct.amplitude(*key) - step.amplitude(*key)) < 1e-11


def test_field_power_beyond_photon_content_is_zero_state():
    # Asking for more photons than the state holds annihilates every
    # sector, as the dose of the same state and N is 0: no error.
    state = make_state({(1, 0): 1.0, (0, 2): 1.0j})
    for power in (3, 4, 50):
        out = apply_field_power(state, FieldCoefficients(1.0, 0.5), power)
        assert out.is_zero and squared_norm(out) == 0.0
        assert deposition_rate(state, power, 0.3) == 0.0
    with pytest.raises(ValueError):
        apply_field_power(state, FieldCoefficients(1.0, 0.0), 0)


def test_field_power_cancels_exactly():
    # A destructive combination that cancels exactly leaves nothing behind.
    state = make_state({(1, 0): 1.0, (0, 1): -1.0})
    out = apply_field_power(state, FieldCoefficients(1.0, 1.0), 1)
    assert out.is_zero


def test_field_coefficients_validate():
    with pytest.raises(ValueError):
        FieldCoefficients(float("inf"), 0.0)


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


def test_amplitude_of_negative_occupation_is_zero():
    # n + m names a held sector, but a negative index must not wrap into it.
    state = make_state({(0, 2): 1.0, (2, 0): 2.0})
    assert state.amplitude(-1, 3) == 0j
    assert state.amplitude(3, -1) == 0j
    assert abs(state.amplitude(2, 0)) > 0.0


def test_high_occupancy_is_finite():
    # Large-N states must stay in floating range.
    state = make_state({(30, 0): 1.0, (0, 30): 1.0})
    out = apply_field_power(state, FieldCoefficients(1.0, 1.0), 30)
    value = squared_norm(out)
    assert math.isfinite(value)
    assert value > 0.0
