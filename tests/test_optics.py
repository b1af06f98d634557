"""Tests for the two-mode linear-optics layer.

The heavy lifting is cross-checked against the permanent formula for
photon transition amplitudes, implemented independently in oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_dose, random_state_map, random_unitary, transition_amplitude
from qlitho.fock import FockState, make_state
from qlitho.optics import (
    ModeUnitary,
    beamsplitter,
    compose,
    evolve,
    mirror,
    phase_shifter,
)

R = 1.0 / math.sqrt(2.0)


def test_beamsplitter_matrix():
    m = beamsplitter().matrix
    expected = np.array([[-1.0, 1j], [1j, -1.0]]) * R
    assert np.max(np.abs(m - expected)) < 1e-15


def test_mirror_matrix():
    m = mirror().matrix
    assert np.max(np.abs(m + np.eye(2))) == 0.0


def test_phase_shifter_matrix():
    phi = 0.7
    m = phase_shifter(phi).matrix
    expected = np.diag([np.exp(1j * phi), 1.0])
    assert np.max(np.abs(m - expected)) < 1e-15
    with pytest.raises(ValueError, match="finite"):
        phase_shifter(math.nan)


def test_compose_is_matrix_product():
    left = phase_shifter(0.3)
    right = beamsplitter()
    combined = compose(left, right)
    assert np.max(np.abs(combined.matrix - left.matrix @ right.matrix)) < 1e-15


def test_mirror_after_beamsplitter():
    t = compose(mirror(), beamsplitter()).matrix
    expected = np.array([[1.0, -1j], [-1j, 1.0]]) * R
    assert np.max(np.abs(t - expected)) < 1e-15


def test_unitarity_enforced():
    with pytest.raises(ValueError):
        ModeUnitary(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))
    with pytest.raises(ValueError):
        ModeUnitary(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        ModeUnitary(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        ModeUnitary(np.array([[1.0, complex(0.0, np.inf)], [0.0, 1.0]]).T)
    # Unitaries held in memory that is not C-contiguous are accepted.
    t = random_unitary(np.random.default_rng(3))
    for view in (beamsplitter().matrix.T, t.conj().T, np.asfortranarray(t), np.asfortranarray(np.eye(2))):
        assert not view.flags.c_contiguous
        assert np.array_equal(ModeUnitary(view).matrix, view)


def test_matrix_is_defensively_copied():
    raw = np.eye(2, dtype=complex)
    u = ModeUnitary(raw)
    raw[0, 0] = 5.0
    assert u.matrix[0, 0] == 1.0
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 3.0


def test_single_photon_through_beamsplitter():
    out = evolve(make_state({(1, 0): 1.0}), beamsplitter())
    assert abs(out.amplitude(1, 0) - (-R)) < 1e-14
    assert abs(out.amplitude(0, 1) - 1j * R) < 1e-14


def test_vacuum_is_invariant():
    vac = make_state({(0, 0): 1.0})
    out = evolve(vac, beamsplitter())
    assert abs(out.amplitude(0, 0) - 1.0) < 1e-15
    assert len(out.amplitudes) == 1


def test_hong_ou_mandel_coalescence():
    out = evolve(make_state({(1, 1): 1.0}), beamsplitter())
    assert abs(out.amplitude(1, 1)) < 1e-12
    assert abs(abs(out.amplitude(2, 0)) ** 2 - 0.5) < 1e-12
    assert abs(abs(out.amplitude(0, 2)) ** 2 - 0.5) < 1e-12
    # both coalesced amplitudes are -i/sqrt(2) for this convention
    assert abs(out.amplitude(2, 0) - (-1j * R)) < 1e-12
    assert abs(out.amplitude(0, 2) - (-1j * R)) < 1e-12


def test_single_photon_amplitudes_are_matrix_columns():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t = random_unitary(rng)
        u = ModeUnitary(t)
        out_a = evolve(make_state({(1, 0): 1.0}), u)
        out_b = evolve(make_state({(0, 1): 1.0}), u)
        assert abs(out_a.amplitude(1, 0) - t[0, 0]) < 1e-12
        assert abs(out_a.amplitude(0, 1) - t[1, 0]) < 1e-12
        assert abs(out_b.amplitude(1, 0) - t[0, 1]) < 1e-12
        assert abs(out_b.amplitude(0, 1) - t[1, 1]) < 1e-12


def test_transition_amplitudes_match_permanent_formula():
    rng = np.random.default_rng(23)
    sectors = {
        2: [(2, 0), (1, 1), (0, 2)],
        3: [(3, 0), (2, 1), (1, 2), (0, 3)],
    }
    for _ in range(12):
        t = random_unitary(rng)
        u = ModeUnitary(t)
        for total, occs in sectors.items():
            for occ_in in occs:
                out = evolve(make_state({occ_in: 1.0}), u)
                for occ_out in occs:
                    expected = transition_amplitude(t, occ_in, occ_out)
                    got = out.amplitude(*occ_out)
                    assert abs(got - expected) < 1e-12, (occ_in, occ_out, total)


def test_norm_is_preserved():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cutoff = int(rng.integers(1, 9))
        state = make_state(random_state_map(rng, cutoff))
        out = evolve(state, ModeUnitary(random_unitary(rng)))
        assert abs(sum(_sector_norms(out).values()) - 1.0) < 1e-12


def test_high_sectors_stay_unitary():
    # Dense sectors far above the oracles' reach keep their norm, and the
    # inverse element T^H undoes the evolution.
    rng = np.random.default_rng(41)
    for total in (100, 200):
        psi = rng.standard_normal(total + 1) + 1j * rng.standard_normal(total + 1)
        state = FockState({total: psi / np.linalg.norm(psi)})
        for u in (beamsplitter(), ModeUnitary(random_unitary(rng))):
            out = evolve(state, u)
            assert abs(sum(_sector_norms(out).values()) - 1.0) < 1e-12, total
            back = evolve(out, ModeUnitary(u.matrix.conj().T))
            assert np.max(np.abs(back.sectors[total] - state.sectors[total])) < 1e-12, total


def test_number_state_matches_binomial_closed_form():
    # a†^M / sqrt(M!) -> (T11 c† + T21 d†)^M / sqrt(M!), so
    # <p, M-p| U |M, 0> = sqrt(C(M, p)) T11^p T21^(M-p).
    total = 400
    t = random_unitary(np.random.default_rng(43))
    out = evolve(make_state({(total, 0): 1.0}), ModeUnitary(t))
    p = np.arange(total + 1)
    log_binom = np.array([math.lgamma(total + 1) - math.lgamma(k + 1) - math.lgamma(total - k + 1) for k in p])
    log_amp = 0.5 * log_binom + p * np.log(abs(t[0, 0])) + (total - p) * np.log(abs(t[1, 0]))
    expected = np.exp(log_amp + 1j * (p * np.angle(t[0, 0]) + (total - p) * np.angle(t[1, 0])))
    assert np.max(np.abs(out.sectors[total] - expected)) < 1e-12


def test_photon_number_is_conserved():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(0, 5))
        m = int(rng.integers(0, 5))
        out = evolve(make_state({(n, m): 1.0}), ModeUnitary(random_unitary(rng)))
        for (p, q), amp in out.amplitudes.items():
            assert p + q == n + m
            assert abs(amp) > 0.0


def _sector_norms(state):
    norms = {}
    for (n, m), amp in state.amplitudes.items():
        norms[n + m] = norms.get(n + m, 0.0) + abs(amp) ** 2
    return norms


@settings(max_examples=150)
@given(st.integers(1, 6), st.integers(1, 28), st.integers(0, 2**63))
def test_evolve_conserves_photon_number_and_norm_property(cutoff, terms, seed):
    # Every photon-number sector keeps its own norm: no amplitude moves
    # between sectors, and the total norm stays 1.
    rng = np.random.default_rng(seed)
    state = make_state(random_state_map(rng, cutoff, max_terms=terms))
    out = evolve(state, ModeUnitary(random_unitary(rng)))
    before, after = _sector_norms(state), _sector_norms(out)
    assert set(after) <= set(before)
    for total, norm in before.items():
        assert abs(after.get(total, 0.0) - norm) < 1e-12
    assert abs(sum(after.values()) - 1.0) < 1e-12


def test_evolution_is_a_homomorphism():
    # evolve(evolve(s, V), U) == evolve(s, compose(U, V))
    rng = np.random.default_rng(29)
    for _ in range(25):
        cutoff = int(rng.integers(1, 7))
        state = make_state(random_state_map(rng, cutoff))
        u = ModeUnitary(random_unitary(rng))
        v = ModeUnitary(random_unitary(rng))
        two_step = evolve(evolve(state, v), u)
        one_step = evolve(state, compose(u, v))
        keys = set(two_step.amplitudes) | set(one_step.amplitudes)
        for key in keys:
            assert abs(two_step.amplitude(*key) - one_step.amplitude(*key)) < 1e-12


def test_heisenberg_picture_for_single_annihilation():
    # For one field application, transforming the state then measuring with
    # (alpha, beta) equals measuring the original state with (alpha, beta) @ T.
    rng = np.random.default_rng(31)
    for _ in range(25):
        cutoff = int(rng.integers(1, 7))
        state = make_state(random_state_map(rng, cutoff))
        t = random_unitary(rng)
        field = np.array([complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))])
        evolved = evolve(state, ModeUnitary(t))
        lhs = dense_dose(evolved.amplitudes, cutoff, 1, *field)
        rhs = dense_dose(state.amplitudes, cutoff, 1, *(field @ t))
        assert abs(lhs - rhs) < 1e-10
