"""Two-mode photon-number states, held as one array per photon-number sector.

A state is the read-only array ``psi[n] = <n, M-n|state>`` of length M+1
of every photon number M it holds, with no bound on M: a sector it does
not hold is zero.  Only :func:`make_state` reads a map of occupation
pairs; every operator is a dense map between sector arrays.

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
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np


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
    """Two-mode number state, held as its photon-number sectors.

    ``sectors`` maps each photon number M to a read-only copy of the array
    ``psi[n] = <n, M-n|state>`` of length M+1.  Operators may return
    unnormalized states (or the zero vector); make_state's have unit norm.
    """

    sectors: Mapping[int, np.ndarray]

    def __post_init__(self):
        frozen = {total: np.array(psi, dtype=complex) for total, psi in self.sectors.items()}
        for total, psi in frozen.items():
            if total < 0 or psi.shape != (total + 1,):
                raise ValueError(f"sector {total} needs {total + 1} amplitudes, got shape {psi.shape}")
            psi.flags.writeable = False
        object.__setattr__(self, "sectors", MappingProxyType(frozen))

    def __eq__(self, other):
        return isinstance(other, FockState) and self.amplitudes == other.amplitudes

    @property
    def amplitudes(self) -> dict[tuple[int, int], complex]:
        """A fresh map from each occupation pair (n, m) to its nonzero amplitude."""
        return {
            (int(n), total - int(n)): complex(psi[n])
            for total, psi in self.sectors.items()
            for n in np.flatnonzero(psi)
        }

    @property
    def is_zero(self) -> bool:
        return not any(psi.any() for psi in self.sectors.values())

    def amplitude(self, n: int, m: int) -> complex:
        psi = self.sectors.get(n + m)
        if psi is None or n < 0 or m < 0:
            return 0j
        return complex(psi[n])


def make_state(pairs) -> FockState:
    """Build a normalized state from a map of occupation pairs to amplitudes.

    Raises on a negative occupation or a non-finite amplitude, or if all
    amplitudes are zero (an empty map included): no state to normalize.
    """
    amps: dict[tuple[int, int], complex] = {}
    for (n, m), amp in pairs.items():
        if n < 0 or m < 0:
            raise ValueError(f"negative occupation in pair ({n}, {m})")
        z = complex(amp)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("state amplitudes must be finite")
        amps[(n, m)] = z
    try:
        total = sum(abs(v) ** 2 for v in amps.values())
    except OverflowError:
        total = math.inf
    if not sys.float_info.min <= total < math.inf:
        # The squares overflow or underflow: normalize the amplitudes divided
        # by their largest part instead.
        scale = max((max(abs(z.real), abs(z.imag)) for z in amps.values()), default=0.0)
        if scale == 0.0:
            raise ValueError("degenerate state: all amplitudes are zero")
        amps = {pair: z / scale for pair, z in amps.items()}
        total = sum(abs(v) ** 2 for v in amps.values())
    norm = math.sqrt(total)
    sectors: dict[int, np.ndarray] = {}
    for (n, m), z in amps.items():
        sectors.setdefault(n + m, np.zeros(n + m + 1, dtype=complex))[n] = z / norm
    return FockState(sectors)


def squared_norm(state: FockState) -> float:
    """Sum of |amplitude|^2 over all occupation pairs."""
    return float(sum(np.sum(np.abs(psi) ** 2) for psi in state.sectors.values()))


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
    for total, psi in state.sectors.items():
        if total >= power:
            terms, ks, _ = _lowering_terms(psi, power)
            out[total - power] = (terms @ _field_powers(alpha, beta, power, ks))[:, 0]
    return FockState(out)
