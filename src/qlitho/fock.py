"""Two-mode photon-number states, held as one array per photon-number sector.

A state is the read-only array ``psi[n] = <n, M-n|state>`` of length M+1
of every photon number M it holds, with no bound on M: a sector it does
not hold is zero.  Only :func:`make_state` reads a map of occupation
pairs; every operator is a dense map between sector arrays.

The dose kernel is a power of the field operator e = alpha*a + beta*b.
The normalized power e^N / sqrt(N!) maps sector M to sector M-N,

    out[j] = sum_k alpha^k beta^(N-k) w(j, k) psi[j+k],
    w(j, k)^2 = C(N, k) C(j+k, k) C(M-j-k, N-k),

so an N-photon dose is a sum of squared "coefficients @ field powers".
qlitho.dosing takes that product at the interferometer inputs; at the
substrate and behind the phase shifter it folds the coefficients
instead, and weights the top sector (M = N) by sqrt C(N, k) from _root,
with no N!.
The squared weights are exact integers, rounded once and formed only
where psi is nonzero, so a weight beyond float range (sqrt C(10^4, 5000)
is one) never meets a zero amplitude.  The coefficients of e^N itself,
sqrt(N!) w, are scaled by 2^-s with 4^s <= N! < 4^(s+1) to stay in float
range at any N, and a dose divides their squared sum by N!/4^s.
Dividing after squaring, rather than normalizing each coefficient, lets
the roundings of a splitter's 1/sqrt2 and of sqrt(2!) cancel: the
two-photon fringe of |1,1> through a balanced splitter, dosed point by
point as the CLI doses it, peaks at exactly 2 (resampled through an FFT
by exposure_profile, at 2.000000000000001).

Only the output rows j that a nonzero psi reaches are kept, so the
product for a sparse sector (a squeezed vacuum's |n, n>) spans those
rows, not all M-N+1.  The field powers alpha^k beta^(N-k) are products
of numpy's exact squaring at exponents below 100, for every N (see
_field_powers), never of libm cpow.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np


@dataclass(frozen=True)
class FockState:
    """Two-mode number state, held as its photon-number sectors.

    ``sectors`` maps each photon number M (an int; a float or bool is
    refused) to a read-only copy of the array
    ``psi[n] = <n, M-n|state>`` of length M+1.  Operators may return
    unnormalized states (or the zero vector); make_state's have unit norm.
    """

    sectors: Mapping[int, np.ndarray]

    def __post_init__(self):
        frozen = {_count(total, "sector key", least=None): np.array(psi, dtype=complex)
                  for total, psi in self.sectors.items()}
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

    def amplitude(self, n: int, m: int) -> complex:
        psi = self.sectors.get(n + m)
        if psi is None or n < 0 or m < 0:
            return 0j
        return complex(psi[n])


def make_state(pairs) -> FockState:
    """Build a normalized state from a map of occupation pairs to amplitudes.

    The parts are scaled by the power of two that brings the largest into
    [1/2, 1), which is exact, and divided by their norm, the moduli squared
    by multiplication (libm's pow(x, 2) is not always x * x): z / sqrt(sum
    |z|^2) to the bit wherever the squares are normal.

    Raises on a non-integer or negative occupation, a non-finite amplitude,
    or all-zero amplitudes (an empty map included): no state to normalize.
    """
    amps: dict[tuple[int, int], complex] = {}
    for pair, amp in pairs.items():
        try:
            n, m = (_index(k) for k in pair)
        except TypeError:
            raise ValueError(f"occupations must be integers, got {pair!r}") from None
        if n < 0 or m < 0:
            raise ValueError(f"negative occupation in pair ({n}, {m})")
        z = complex(amp)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("state amplitudes must be finite")
        amps[(n, m)] = z
    scale = max((max(abs(z.real), abs(z.imag)) for z in amps.values()), default=0.0)
    if scale == 0.0:
        raise ValueError("degenerate state: all amplitudes are zero")
    e = math.frexp(scale)[1]
    amps = {pair: complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for pair, z in amps.items()}
    norm = math.sqrt(sum(abs(v) * abs(v) for v in amps.values()))
    sectors: dict[int, np.ndarray] = {}
    for (n, m), z in amps.items():
        sectors.setdefault(n + m, np.zeros(n + m + 1, dtype=complex))[n] = z / norm
    return FockState(sectors)


def _index(value) -> int:
    """operator.index(value), which also raises TypeError for a bool."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def _count(value, what: str, least: int | None = 1) -> int:
    """``value`` as an int; ValueError unless it is an integer (see _index) of at
    least ``least``, or any integer for None."""
    try:
        count = _index(value)
    except TypeError:
        count = None
    if count is None or least is not None and count < least:
        kind = "an" if least is None else "a positive" if least > 0 else "a nonnegative"
        raise ValueError(f"{what} must be {kind} integer, got {value!r}")
    return count


def _lowering_terms(psi: np.ndarray, power: int):
    """Coefficients of e^power on one sector array, divided by 2^s.

    Returns ``(terms, ks, norm)``: terms[i, c] = psi[j+k] sqrt(power!) w(j, k) / 2^s
    is the coefficient of alpha^k beta^(power-k), k = ks[c], for the i-th
    output pair (j, M-power-j) the sector reaches, 4^s <= power! < 4^(s+1),
    and norm = power!/4^s.  Only the output rows and the columns holding a
    nonzero term are kept: the field-power product of a sparse sector spans
    the rows it reaches, and an all-zero sector has none.  Requires
    len(psi) > power; raises OverflowError if a term leaves the float range.
    """
    total = len(psi) - 1
    amp = psi[np.arange(total - power + 1)[:, None] + np.arange(power + 1)]
    fact = math.factorial(power)
    s = (fact.bit_length() - 1) // 2
    four_s = 1 << 2 * s
    jj, kk = np.nonzero(amp)
    weights = [
        math.sqrt(fact * math.comb(power, k) * math.comb(n, k) * math.comb(total - n, power - k) / four_s)
        for n, k in zip((jj + kk).tolist(), kk.tolist())
    ]
    terms = np.zeros(amp.shape, dtype=complex)
    terms[jj, kk] = amp[jj, kk] * np.array(weights)
    rows, ks = terms.any(axis=1).nonzero()[0], terms.any(axis=0).nonzero()[0]
    return terms[rows[:, None], ks], ks, fact / four_s


def _root(m: int) -> float:
    """sqrt(m) of an integer m >= 0, correctly rounded: the integer root of
    m 4^t has at least 56 bits, and a sticky last bit where it is inexact."""
    shift = max(0, 56 - m.bit_length() // 2)
    scaled = m << 2 * shift
    root = math.isqrt(scaled)
    return math.ldexp(root | (root * root != scaled), -shift)


# numpy's complex power squares an integer exponent below this; at or above
# it, it calls libm cpow, several times slower and less accurate.
_SQUARED_EXPONENTS = 100


def _field_powers(alpha: np.ndarray, beta: np.ndarray, power: int, ks: np.ndarray) -> np.ndarray:
    """alpha^k beta^(power-k): one row per k in ks, one column per field.

    Each is a product of numpy powers with exponents below 100, z^n =
    z^(n mod 64) (z^64)^(n div 64) for n >= 100 with the quotient split the
    same way, taken for all rows level by level, alpha's and then beta's.
    z takes a level while its largest exponent over the rows is 100 or
    more, and every row takes a factor at each: a row whose exponent is
    below 100 takes it whole, and z^0 = 1 at the levels after.  Below
    power 100 a row is numpy's alpha**k * beta**(power-k); from 100 on a
    factor z^0 can change only the sign of a zero part, which no dose sees.
    """
    out = None
    for z, exps in ((alpha, ks[:, None]), (beta, (power - ks)[:, None])):
        levels, top = [], int(exps.max())
        while top >= _SQUARED_EXPONENTS:
            split = exps >= _SQUARED_EXPONENTS
            levels.append((z, np.where(split, exps % 64, exps)))
            exps, z, top = np.where(split, exps // 64, 0), z**64, top // 64
        for z, digits in levels + [(z, exps)]:
            factors = z**digits
            out = factors if out is None else out * factors
    return out
