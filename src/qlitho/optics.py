"""Passive two-mode linear optics.

A lossless element is a 2x2 unitary T acting on the annihilation
operators, (c, d)^T = T (a, b)^T.  States evolve in the Schroedinger
picture by rewriting each input creation operator in terms of the output
ones,

    a† -> T11 c† + T21 d†,      b† -> T12 c† + T22 d†,

acting on each photon-number sector as one dense matrix.  No dose evolves
a state: :mod:`qlitho.dosing` pulls the field back through T instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockState

_UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class ModeUnitary:
    """A 2x2 unitary transfer matrix between two optical modes."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"mode unitary must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("mode unitary entries must be finite")
        defect = np.abs(m.conj().T @ m - np.eye(2)).max()
        if defect > _UNITARITY_TOL:
            raise ValueError(
                f"matrix is not unitary: max |T†T - I| = {defect:.3e}"
            )
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def beamsplitter() -> ModeUnitary:
    """Symmetric 50/50 splitter: (1/sqrt2) [[-1, i], [i, -1]]."""
    s = 1.0 / math.sqrt(2.0)
    return ModeUnitary(np.array([[-s, 1j * s], [1j * s, -s]]))


def mirror() -> ModeUnitary:
    """Sign flip on both modes: -I."""
    return ModeUnitary(-np.eye(2, dtype=complex))


def phase_shifter(phi: float) -> ModeUnitary:
    """Phase e^{i phi} on the first mode only: diag(e^{i phi}, 1)."""
    if not math.isfinite(phi):
        raise ValueError("phase must be finite")
    return ModeUnitary(np.array([[cmath.exp(1j * phi), 0.0], [0.0, 1.0]]))


def compose(outer: ModeUnitary, inner: ModeUnitary) -> ModeUnitary:
    """The element applying ``inner`` first, then ``outer``."""
    return ModeUnitary(outer.matrix @ inner.matrix)


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


def evolve(state: FockState, u: ModeUnitary) -> FockState:
    """Push a state through a linear element in the Schroedinger picture.

    Sector M evolves by the (M+1)x(M+1) symmetric-power matrix of T,
    S_M[p, n] = <p, M-p| U |n, M-n>.  Input creation operators become
    a† -> T11 c† + T21 d† and b† -> T12 c† + T22 d†, so column n of S_M is
    column n-1 of S_{M-1} after one such a† step, divided by sqrt(n)
    (column 0 takes a b† step, divided by sqrt(M)).
    """
    t = u.matrix
    out = {}
    sym = np.ones((1, 1), dtype=complex)  # S_0: the vacuum stays put
    for total in range(max(state.sectors, default=-1) + 1):
        if total:
            raised = np.empty((total + 1, total + 1), dtype=complex)
            raised[:, 1:] = _create(sym, t[0, 0], t[1, 0]) / np.sqrt(np.arange(1.0, total + 1))
            raised[:, :1] = _create(sym[:, :1], t[0, 1], t[1, 1]) / math.sqrt(total)
            sym = raised
        if total in state.sectors:
            out[total] = sym @ state.sectors[total]
    return FockState(out)
