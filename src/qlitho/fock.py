"""Two-mode photon-number states, worked on one photon-number sector at a time.

A state is a map from occupation pairs ``(n, m)`` to complex amplitudes,
with no bound on ``n + m``: a pair it does not hold has amplitude zero.
Operators work on the dense array of each photon-number sector instead:
the M-photon amplitudes form ``psi[n] = <n, M-n|psi>`` of length M+1, every
operator is a dense map between sector arrays, and amplitudes below
``PRUNE_EPS`` are dropped when the result is turned back into a map.

The workhorse is a power of the field operator e = alpha*a + beta*b.  The
normalized power e^N / sqrt(N!) maps sector M to sector M-N,

    out[j] = sum_k alpha^k beta^(N-k) w(j, k) psi[j+k],
    w(j, k)^2 = C(N, k) C(j+k, k) C(M-j-k, N-k),

so an N-photon dose is a sum of squared "coefficients @ field powers".
The squared weights are exact integers, rounded once and formed only
where psi is nonzero, so a weight beyond float range (sqrt C(10^4, 5000)
is one) never meets a zero amplitude.  Doses use the coefficients of e^N
itself, sqrt(N!) w, scaled by 2^-s with 4^s <= N! < 4^(s+1) to stay in
float range at any N, and divide the squared sum by N!/4^s.  Dividing
after squaring, rather than normalizing each coefficient, lets the
roundings of a splitter's 1/sqrt2 and of sqrt(2!) cancel: the two-photon
fringe of |1,1> through a balanced splitter peaks at exactly 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Amplitudes smaller than this (in absolute value) are dropped from the
# result of every operation; it is far below any tolerance used by callers.
PRUNE_EPS = 1e-15


@dataclass(frozen=True)
class FieldCoefficients:
    """Coefficients (alpha, beta) of a field operator alpha*a + beta*b."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        for part in (self.alpha, self.beta):
            z = complex(part)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("field coefficients must be finite")


@dataclass(frozen=True)
class FockState:
    """Two-mode number state.

    ``amplitudes`` maps occupation pairs ``(n, m)`` to complex amplitudes.
    States returned by operators may be unnormalized (or the zero vector,
    an empty map); states built with :func:`make_state` have unit norm.
    The map is treated as immutable after construction -- operations
    always build a fresh state.
    """

    amplitudes: dict[tuple[int, int], complex]

    @property
    def is_zero(self) -> bool:
        return not self.amplitudes

    def amplitude(self, n: int, m: int) -> complex:
        return self.amplitudes.get((n, m), 0j)


def _validated_pairs(pairs) -> dict[tuple[int, int], complex]:
    out: dict[tuple[int, int], complex] = {}
    for (n, m), amp in pairs.items():
        if n < 0 or m < 0:
            raise ValueError(f"negative occupation in pair ({n}, {m})")
        z = complex(amp)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("state amplitudes must be finite")
        if abs(z) >= PRUNE_EPS:
            out[(n, m)] = z
    return out


def make_state(pairs) -> FockState:
    """Build a normalized state from a map of occupation pairs to amplitudes.

    Raises on a negative occupation or a non-finite amplitude, or if the
    amplitudes are all (numerically) zero -- an empty map included --
    which would make normalization degenerate.
    """
    amps = _validated_pairs(pairs)
    norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    if norm < PRUNE_EPS:
        raise ValueError("degenerate state: all amplitudes are zero")
    return FockState({k: v / norm for k, v in amps.items()})


def squared_norm(state: FockState) -> float:
    """Sum of |amplitude|^2 over all occupation pairs."""
    return sum(abs(v) ** 2 for v in state.amplitudes.values())


def _sectors(state: FockState) -> dict[int, np.ndarray]:
    """The array psi[n] = <n, M-n|state> of every occupied sector M."""
    out: dict[int, np.ndarray] = {}
    for (n, m), amp in state.amplitudes.items():
        if n + m not in out:
            out[n + m] = np.zeros(n + m + 1, dtype=complex)
        out[n + m][n] = amp
    return out


def _from_sectors(sectors: dict[int, np.ndarray]) -> FockState:
    """The state holding the given sector arrays, pruned at PRUNE_EPS."""
    amps: dict[tuple[int, int], complex] = {}
    for total, psi in sectors.items():
        for n in np.flatnonzero(np.abs(psi) >= PRUNE_EPS):
            amps[(int(n), total - int(n))] = complex(psi[n])
    return FockState(amps)


def _create(vecs: np.ndarray, x: complex, y: complex) -> np.ndarray:
    """(x a† + y b†) on the columns of vecs, sector M to sector M+1.

    Row n of ``vecs`` is the amplitude of |n, M-n>:
    a† |n, M-n> = sqrt(n+1) |n+1, M-n> and b† |n, M-n> = sqrt(M-n+1) |n, M-n+1>.
    """
    size = len(vecs)
    root = np.sqrt(np.arange(size + 1.0))[:, None]
    out = np.zeros((size + 1, vecs.shape[1]), dtype=complex)
    out[1:] += x * root[1:] * vecs
    out[:-1] += y * root[:0:-1] * vecs
    return out


def _lowering_terms(psi: np.ndarray, power: int, scaled: bool = False):
    """Coefficients of e^power on one sector array.

    Returns ``(terms, ks, norm)``: terms[j, i] = psi[j+k] sqrt(power!) w(j, k)
    is the coefficient of alpha^k beta^(power-k), k = ks[i], for output
    pair (j, M-power-j); only columns holding a nonzero coefficient are
    kept.  ``scaled`` divides the terms by 2^s, 4^s <= power! < 4^(s+1),
    and ``norm`` = power!/4^s (else 1) divides their squared sum into the
    dose.  Requires len(psi) > power; raises OverflowError if a term
    leaves the float range.
    """
    total = len(psi) - 1
    amp = psi[np.arange(total - power + 1)[:, None] + np.arange(power + 1)]
    terms = np.zeros(amp.shape, dtype=complex)
    fact = math.factorial(power)
    shift = (fact.bit_length() - 1) // 2 if scaled else 0
    for j, k in zip(*np.nonzero(amp)):
        n = j + k
        square = fact * math.comb(power, k) * math.comb(n, k) * math.comb(total - n, power - k)
        terms[j, k] = amp[j, k] * math.sqrt(square / (1 << 2 * shift))
    ks = np.flatnonzero(terms.any(axis=0))
    return terms[:, ks], ks, fact / (1 << 2 * shift) if scaled else 1.0


def _field_powers(alpha: np.ndarray, beta: np.ndarray, power: int, ks: np.ndarray) -> np.ndarray:
    """alpha^k beta^(power-k): one row per k in ks, one column per field."""
    return alpha ** ks[:, None] * beta ** (power - ks)[:, None]


def _mode_index(mode) -> int:
    if mode in (0, "a"):
        return 0
    if mode in (1, "b"):
        return 1
    raise ValueError(f"unknown mode {mode!r}: expected 'a' or 'b'")


def apply_annihilation(state: FockState, mode) -> FockState:
    """Apply the annihilation operator of one mode: a|n> = sqrt(n)|n-1>.

    Returns an unnormalized state; annihilating the vacuum component of a
    mode simply drops it, so the result may be the zero vector.
    """
    idx = _mode_index(mode)
    return apply_field_power(state, FieldCoefficients(1.0 - idx, float(idx)), 1)


def _apply_creation(state: FockState, mode) -> FockState:
    """Creation operator, used by consistency tests: a†|n> = sqrt(n+1)|n+1>."""
    idx = _mode_index(mode)
    return _from_sectors({
        total + 1: _create(psi[:, None], 1.0 - idx, idx)[:, 0]
        for total, psi in _sectors(state).items()
    })


def apply_field_power(state: FockState, f: FieldCoefficients, power: int) -> FockState:
    """Apply (alpha*a + beta*b)**power to the state.

    Each sector M >= power maps densely to sector M - power (see the
    module docstring); sectors below ``power`` are annihilated.  Returns
    an unnormalized state: the zero vector, never an error, if no sector
    holds ``power`` photons.
    """
    if power < 1:
        raise ValueError("field power must be a positive integer")
    alpha, beta = np.array([complex(f.alpha)]), np.array([complex(f.beta)])
    out = {}
    for total, psi in _sectors(state).items():
        if total >= power:
            terms, ks, _ = _lowering_terms(psi, power)
            out[total - power] = (terms @ _field_powers(alpha, beta, power, ks))[:, 0]
    return _from_sectors(out)
