"""Passive two-mode linear optics.

A lossless element is a 2x2 unitary T acting on the annihilation
operators, (c, d)^T = T (a, b)^T.  States evolve in the Schroedinger
picture, a† -> T11 c† + T21 d† and b† -> T12 c† + T22 d†: with T = exp(iH),
that is exp(iG) for the number-conserving G = H11 a†a + H12 a†b +
H21 b†a + H22 b†b.  On sector M, G is an (M+1)x(M+1) Hermitian
tridiagonal matrix, so each occupied sector costs one Hermitian
eigenproblem of that size.  No dose evolves a state: :mod:`qlitho.dosing`
pulls the field back through T instead.
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
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"mode unitary must be 2x2, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("mode unitary entries must be finite")
        defect = np.abs(m.conj().T @ m - np.eye(2)).max()
        if defect > _UNITARITY_TOL:
            raise ValueError(
                f"matrix is not unitary: max |T†T - I| = {defect:.3e}"
            )
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


def evolve(state: FockState, u: ModeUnitary) -> FockState:
    """Push a state through a linear element in the Schroedinger picture.

    H = -i log T is taken from the eigenvalue angles of T and its
    eigenvectors, made orthonormal by QR (eig's pair need not be for a
    repeated eigenvalue, as in -I).  Sector M evolves by exp(i G_M), with
    G_M[n, n] = H11 n + H22 (M-n) and G_M[n+1, n] = H12 sqrt((n+1)(M-n));
    the phases e^{i n arg H12} make G_M real symmetric for eigh.
    """
    vals, vecs = np.linalg.eig(u.matrix)
    w = np.linalg.qr(vecs)[0]
    h = (w * np.angle(vals)) @ w.conj().T
    out = {}
    for total, psi in state.sectors.items():
        n = np.arange(total + 1.0)
        diag = h[0, 0].real * n + h[1, 1].real * (total - n)
        hop = abs(h[0, 1]) * np.sqrt(n[1:] * (total - n[:-1]))
        lam, v = np.linalg.eigh(np.diag(diag) + np.diag(hop, -1))  # eigh reads the lower triangle
        phase = np.exp(1j * np.angle(h[0, 1]) * n)
        out[total] = phase * (v @ (np.exp(1j * lam) * (v.T @ (phase.conj() * psi))))
    return FockState(out)
