"""Pattern synthesis from superpositions of N-photon partition states.

Splitting N photons P / (N-P) between the two arms gives a family of
substrate states whose doses are pure harmonics; a least-squares solve
fits complex superposition coefficients so that the combined dose
approximates a requested exposure pattern, and a constrained classical
single-fringe fit provides the benchmark to beat.

Phase bookkeeping (the subtle part): every partition contributes the
paper's state psi_NP at phi = 0, the pair (|N-P, P> + |P, N-P>)/sqrt2,
dosed where it sits by the SYMMETRIC substrate field of
:mod:`qlitho.dosing`.  That field carries the position phase within each
pair and doubles the single-partition fringe frequency to 2(N-2P).  The
model then multiplies each partition's row by e^{i P phi}.  This is the
model's per-partition factor, not a propagation phase: it is invisible
in any single-partition dose but puts odd harmonics into the cross terms
between partitions, and no state dosed in the SYMMETRIC convention has
those (a known defect of the model, listed in ROADMAP.md).

Every dose here reads one amplitude matrix: row P is e^{i P phi} times
the N-photon amplitude of psi_NP at phi = 0, taken from the per-sector
dose core of :mod:`qlitho.fock`, so that dose(alpha) = |alpha @ A|^2 for
unit-norm coefficients alpha.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dosing import (_BLOCK_ELEMENTS, ExposureProfile, SubstrateConvention, _check_phase_grid,
                     _field, phase_grid)
from .fock import FockState, _field_powers, _lowering_terms, make_state

# Largest dose a basis may deposit, and largest target sample: the solver's
# QR takes the column norms of the dose monomials and the target over the
# grid, and the fitness sums squared errors; both must stay finite.
_MAX_DOSE = 10**150

# Solver starts, and its default iteration count: every start has
# converged by then on the default trench basis.
_STARTS = 64
_ITERATIONS = 50
# Levenberg-Marquardt damping range, relative to the mean diagonal of the
# Gauss-Newton matrix, and its factor per step.  The lower end keeps the
# systems nonsingular: a global phase of alpha leaves the dose unchanged.
_DAMPING = (1e-9, 1e6)
_DAMPING_FACTOR = 3.0


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionBasis:
    """Strictly increasing partition indices 0 <= P <= N/2 for N photons."""

    n_photons: int
    partitions: tuple[int, ...]

    def __post_init__(self):
        if self.n_photons < 1:
            raise ValueError("photon number must be a positive integer")
        parts = tuple(int(p) for p in self.partitions)
        if not parts:
            raise ValueError("partition basis cannot be empty")
        if any(p < 0 or 2 * p > self.n_photons for p in parts):
            raise ValueError(
                f"partitions must satisfy 0 <= P <= {self.n_photons // 2}"
            )
        if any(b <= a for a, b in zip(parts, parts[1:])):
            raise ValueError("partitions must be strictly increasing (no duplicates)")
        # A unit superposition doses at most sum_P w_P^2 (Cauchy-Schwarz
        # over the rows of the amplitude matrix), w_P^2 = 2 C(N, P).
        bound = sum(math.comb(self.n_photons, p) * (1 if 2 * p == self.n_photons else 2)
                    for p in parts)
        if bound > _MAX_DOSE:
            raise ValueError(
                f"N={self.n_photons} with partitions {parts} doses up to "
                f"10^{math.log10(bound):.1f}, above the limit of 10^150"
            )
        object.__setattr__(self, "partitions", parts)

    def __len__(self) -> int:
        return len(self.partitions)


@dataclass(frozen=True)
class SynthesisGenome:
    """Superposition coefficients (unit norm) plus a positive dose scale."""

    coefficients: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex).copy()
        if coeff.ndim != 1 or len(coeff) == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        if not np.all(np.isfinite(coeff.view(float))):
            raise ValueError("coefficients must be finite")
        norm = np.linalg.norm(coeff)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(
                f"coefficients must have unit norm (got {norm!r}); "
                "use normalized_genome to build one"
            )
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)


def normalized_genome(coefficients, scale: float = 1.0) -> SynthesisGenome:
    """Build a genome, normalizing the coefficient vector first."""
    coeff = np.asarray(coefficients, dtype=complex)
    # Scale by the largest magnitude before the norm, whose squares could
    # underflow; part by part, since complex division by a subnormal overflows.
    peak = np.max(np.abs(coeff), initial=0.0)
    if not (0 < peak < np.inf):
        raise ValueError("degenerate coefficient vector")
    coeff = coeff.real / peak + 1j * (coeff.imag / peak)
    return SynthesisGenome(coeff / np.linalg.norm(coeff), scale)


@dataclass(frozen=True)
class TargetPattern:
    """Nonnegative target samples on the uniform phase grid [0, 2 pi)."""

    phis: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        phis = np.array(self.phis, dtype=float)
        samples = np.array(self.samples, dtype=float)
        if phis.ndim != 1 or phis.shape != samples.shape:
            raise ValueError("phis and samples must be 1-d arrays of equal length")
        if len(phis) < 4:
            raise ValueError("target needs at least four samples")
        _check_phase_grid(phis)
        if not np.all(np.abs(samples) <= _MAX_DOSE):
            raise ValueError("target samples must be finite and at most the limit of 10^150")
        if samples.min() < 0:
            raise ValueError("target samples must be nonnegative")
        phis.flags.writeable = False
        samples.flags.writeable = False
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "samples", samples)

    @property
    def grid_points(self) -> int:
        return len(self.phis)


class ClassicalFit(NamedTuple):
    """Result of the constrained single-fringe fit a + b cos(2 phi + theta0)."""

    a: float
    b: float
    theta0: float
    error: float

    def curve(self, phis) -> np.ndarray:
        """The fitted exposure sampled at the given phases."""
        phis = np.asarray(phis, dtype=float)
        return self.a + self.b * np.cos(2.0 * phis + self.theta0)


# ---------------------------------------------------------------------------
# basis states and their doses
# ---------------------------------------------------------------------------

def psi_np(n_photons: int, partition: int, phi: float) -> FockState:
    """The paper's partition state psi_NP at phase ``phi``.

    The two occupations carry the phases

        e^{i P phi} / sqrt2     on (N-P, P)
        e^{i (N-P) phi} / sqrt2 on (P, N-P)

    as in the SINGLE_ARM picture, where every position phase lives in the
    state.  At phi = 0 it is the pair (|N-P, P> + |P, N-P>)/sqrt2, the
    synthesis basis state (see _amplitude_matrix).  For the degenerate
    split 2P = N both terms coincide and the normalized single term
    e^{i P phi} |P, P> is returned.
    """
    n, p = n_photons, partition
    if n < 1:
        raise ValueError("photon number must be a positive integer")
    if not 0 <= p <= n:
        raise ValueError(f"partition {p} out of range 0..{n}")
    if not math.isfinite(phi):
        raise ValueError("phase must be finite")
    if 2 * p == n:
        return make_state({(p, p): cmath.exp(1j * p * phi)})
    return make_state(
        {
            (n - p, p): cmath.exp(1j * p * phi),
            (p, n - p): cmath.exp(1j * (n - p) * phi),
        }
    )


def component_closed_form(n_photons: int, partition: int, phis) -> np.ndarray:
    """Analytic dose of a single partition: C(N,P) (1 + cos 2(N-2P) phi).

    For the degenerate split 2P = N the normalized basis state is the
    single term |P, P>, whose dose is the constant C(N, P) -- half the
    value the two-term formula would suggest at zero frequency.
    """
    n, p = n_photons, partition
    if not 0 <= 2 * p <= n:
        raise ValueError(f"partition {p} out of range 0..{n // 2}")
    phis = np.asarray(phis, dtype=float)
    c = float(math.comb(n, p))
    if 2 * p == n:
        return np.full(phis.shape, c)
    return c * (1.0 + np.cos(2.0 * (n - 2 * p) * phis))


def component_profile(n_photons: int, partition: int, grid_points: int) -> ExposureProfile:
    """Dose of a single partition sampled on the grid."""
    basis = PartitionBasis(n_photons, (partition,))
    return genome_profile(SynthesisGenome(np.ones(1)), basis, grid_points)


def genome_profile(genome: SynthesisGenome, basis: PartitionBasis, grid_points: int) -> ExposureProfile:
    """Dose pattern of a coefficient superposition, times the genome scale.

    The superposition's amplitude is alpha @ A (see _amplitude_matrix);
    cross terms between partitions arise from adding the rows.
    """
    if len(genome.coefficients) != len(basis):
        raise ValueError(
            f"genome has {len(genome.coefficients)} coefficients for a "
            f"{len(basis)}-partition basis"
        )
    phis = phase_grid(grid_points)
    amp = genome.coefficients @ _amplitude_matrix(basis, phis)
    return ExposureProfile(phis, genome.scale * np.abs(amp) ** 2)


def _amplitude_matrix(basis: PartitionBasis, phis: np.ndarray) -> np.ndarray:
    """Rows A[P] with dose(alpha) = |alpha @ A|^2 for unit-norm alpha.

    Row P is the N-photon amplitude of psi_np(N, P, 0) under the
    SYMMETRIC substrate field of :mod:`qlitho.dosing`,
    sqrt(2 C(N, P)) cos((N-2P) phi) (sqrt(C(N, P)) for the degenerate
    split), times the model's per-partition factor e^{i P phi}.
    """
    n = basis.n_photons
    (alpha, beta), _ = _field(phis, SubstrateConvention.SYMMETRIC, "substrate")
    rows = []
    for p in basis.partitions:
        terms, ks, norm = _lowering_terms(psi_np(n, p, 0.0).sectors[n], n, scaled=True)
        amp = (terms @ _field_powers(alpha, beta, n, ks))[0] / math.sqrt(norm)
        rows.append(amp * np.exp(1j * p * phis))
    return np.array(rows)


# ---------------------------------------------------------------------------
# targets and fitness
# ---------------------------------------------------------------------------

def trench_target(grid_points: int) -> TargetPattern:
    """Square trench: bright on [0, pi/2] and (3pi/2, 2pi), dark between.

    Boundary samples take the value approached from the left, so the
    grid point at exactly pi/2 is bright and the one at 3pi/2 is dark.
    """
    phis = phase_grid(grid_points)
    samples = np.where((phis <= np.pi / 2) | (phis > 3 * np.pi / 2), 1.0, 0.0)
    return TargetPattern(phis, samples)


def _optimal_scale(unscaled: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares scale of each dose row: argmin_s mean((s u - p)^2) = <u,p>/<u,u>."""
    uu = np.einsum("...g,...g->...", unscaled, unscaled)
    scale = np.divide(unscaled @ target, uu, out=np.ones_like(uu), where=uu > 0.0)
    return np.maximum(scale, 1e-300)


def _scaled_sse(unscaled: np.ndarray, target: np.ndarray) -> np.ndarray:
    """sum((s u - p)^2) of each dose row u at its optimal scale s.

    Works in place: every row of ``unscaled`` is overwritten by its residual.
    """
    unscaled *= _optimal_scale(unscaled, target)[..., None]
    unscaled -= target
    return np.einsum("...g,...g->...", unscaled, unscaled)


def fitness(genome: SynthesisGenome, basis: PartitionBasis, target: TargetPattern) -> float:
    """Mean squared error against the target after closed-form rescaling.

    The genome's stored scale is ignored: for a fixed dose shape u the
    best scale is s* = <u, p> / <u, u> (one-variable least squares), and
    the value returned is mean((s* u - p)^2).
    """
    if len(genome.coefficients) != len(basis):
        raise ValueError("genome length does not match the partition basis")
    u = np.abs(genome.coefficients @ _amplitude_matrix(basis, target.phis)) ** 2
    return float(_scaled_sse(u, target.samples) / len(u))


# ---------------------------------------------------------------------------
# least-squares solver
# ---------------------------------------------------------------------------

def _dose_space(matrix: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map x = [Re alpha | Im alpha] to a residual whose norm is the dose error.

    The dose |alpha @ A|^2 is linear in the lifted matrix alpha alpha^H:
    it is V m, where the k^2 columns of V are the real dose monomials
    |A_i|^2, Re(A_i conj A_j) and Im(A_i conj A_j) (i < j) on the grid,
    and m holds their coefficients |alpha_i|^2, 2 Re(alpha_i conj alpha_j)
    and -2 Im(alpha_i conj alpha_j), each a quadratic form (1/2) x^T H x.
    With [V | p] = Q R, Q orthonormal, the residual V m - p has the norm
    of w - c for w = R_V m and c the last column of R; its last row holds
    the part of p outside the span of V.  R has min(G, k^2+1) rows and is
    accumulated over row blocks of the grid (TSQR), so [V | p] is never
    formed whole; a block holds at least k^2+1 rows, which keeps the
    stacked QRs near the cost of one QR of [V | p].

    Returns ``jac`` (2k x 2k r, r the rows of R) and c.  The Jacobian of
    w at x is x @ jac (as 2k x r), and w is half of x applied to it.  The
    closed form mean(p^2) - <u,p>^2 / (G <u,u>) is not used: its error
    is roundoff of mean(p^2), not of the residual, so a target the basis
    reaches exactly would not score near zero.
    """
    k, g = matrix.shape
    i, j = np.triu_indices(k, 1)
    width = k * k + 1
    tri = np.empty((0, width))
    step = max(width, _BLOCK_ELEMENTS // width)
    for start in range(0, g, step):
        amp = matrix[:, start:start + step]
        cross = amp[i] * amp[j].conj()
        block = np.concatenate(
            [amp.real**2 + amp.imag**2, cross.real, cross.imag, target[None, start:start + step]]
        )
        tri = np.linalg.qr(np.concatenate([tri, block.T]), mode="r")
    # jac[a, b] = sum over monomials of (d^2 m / dx_a dx_b) times its row of R_V^T.
    # With alpha = a + ib: |alpha_i|^2 = a_i a_i + b_i b_i,
    # 2 Re(alpha_i conj alpha_j) = 2 (a_i a_j + b_i b_j) and
    # -2 Im(alpha_i conj alpha_j) = 2 (a_i b_j - b_i a_j).
    rows = tri[:, :-1].T
    d, re_ij, im_ij = np.arange(k), np.arange(k, k + len(i)), np.arange(k + len(i), width - 1)
    jac = np.zeros((2 * k, 2 * k, len(tri)))
    for a, b, m, h in ((d, d, d, 2.0), (k + d, k + d, d, 2.0),
                       (i, j, re_ij, 2.0), (k + i, k + j, re_ij, 2.0),
                       (i, k + j, im_ij, 2.0), (k + i, j, im_ij, -2.0)):
        jac[a, b] = jac[b, a] = h * rows[m]
    return jac.reshape(2 * k, -1), tri[:, -1].copy()


def _jacobians(x: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transposed Jacobians (starts x 2k x r) of w at the rows of x, and the w."""
    jt = (x @ jac).reshape(*x.shape, -1)
    return jt, 0.5 * np.einsum("sa,saj->sj", x, jt)


def fit_superposition(
    basis: PartitionBasis,
    target: TargetPattern,
    iterations: int = _ITERATIONS,
    seed: int = 0,
) -> tuple[SynthesisGenome, np.ndarray]:
    """Fit superposition coefficients to a target pattern by least squares.

    The unknown is x = [Re alpha | Im alpha] in R^{2k} with no norm
    constraint: the dose scale is |x|^2.  The residual w(x) - c of
    _dose_space is quadratic in x, and its norm squared over G is the
    mean squared error of the dose, so the fit is a Levenberg-Marquardt
    solve in 2k reals that never touches the grid after one QR.
    ``_STARTS`` starts are drawn from ``default_rng([seed, 0])``, each
    moved to its optimal scale, and then solved together for
    ``iterations`` steps: per start, one damped 2k x 2k Gauss-Newton
    system, a step kept only if it lowers the residual, and the damping
    divided on success and multiplied on failure within a fixed range.

    Returns the best genome seen (unit coefficients, its scale set to the
    optimal least-squares value on the grid) and the trace whose entry i
    is the best scale-optimized mean squared error over all starts after
    i iterations; it has iterations+1 entries and is non-increasing.
    Fully deterministic for a given seed.
    """
    if not isinstance(iterations, int) or iterations < 1:
        raise ValueError("iterations must be a positive integer")
    if not isinstance(seed, int):
        raise ValueError("seed must be an integer")
    k = len(basis)
    matrix = _amplitude_matrix(basis, target.phis)
    jac, c = _dose_space(matrix, target.samples)

    x = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0]).standard_normal((_STARTS, 2 * k))
    x *= np.sqrt(_optimal_scale(_jacobians(x, jac)[1], c))[:, None]
    jt, w = _jacobians(x, jac)
    damping = np.ones(_STARTS)  # adds the mean Gauss-Newton diagonal: a short first step
    trace, best_fit, best_vec = [], np.inf, x[0].copy()
    for step in range(iterations + 1):
        fits = _scaled_sse(w.copy(), c) / target.grid_points
        idx = int(np.argmin(fits))
        if fits[idx] < best_fit:
            best_fit, best_vec = float(fits[idx]), x[idx].copy()
        trace.append(best_fit)
        if step == iterations:
            break
        res = w - c
        normal = jt @ jt.transpose(0, 2, 1)
        shift = damping * np.trace(normal, axis1=1, axis2=2) / (2 * k) + np.finfo(float).tiny
        normal += shift[:, None, None] * np.eye(2 * k)
        trial = x - np.linalg.solve(normal, jt @ res[:, :, None])[:, :, 0]
        trial_jt, trial_w = _jacobians(trial, jac)
        better = np.sum((trial_w - c) ** 2, axis=1) < np.sum(res**2, axis=1)
        x[better], jt[better], w[better] = trial[better], trial_jt[better], trial_w[better]
        damping = np.clip(np.where(better, damping / _DAMPING_FACTOR, damping * _DAMPING_FACTOR),
                          *_DAMPING)

    alpha = normalized_genome(best_vec[:k] + 1j * best_vec[k:]).coefficients
    scale = _optimal_scale(np.abs(alpha @ matrix) ** 2, target.samples)
    return SynthesisGenome(alpha, float(scale)), np.asarray(trace)


# ---------------------------------------------------------------------------
# classical benchmark
# ---------------------------------------------------------------------------

def best_classical_fit(target: TargetPattern) -> ClassicalFit:
    """Best constrained single-fringe exposure a + b cos(2 phi + theta0).

    The physical family has a >= b >= 0 (nonnegative dose, DC at least as
    large as the fringe amplitude).  Writing the fringe as
    c1 cos 2phi + c2 sin 2phi with b = |c|, the fit is exact: on a uniform
    grid 1, cos 2phi and sin 2phi are orthogonal, so the error is
    (a - p0)^2 + w |c - c_hat|^2 plus a constant, where p0 is the target
    mean, c_hat its second Fourier coefficient and w the mean square of
    cos 2phi on the grid.  If p0 >= |c_hat| that optimum is feasible;
    otherwise the optimum lies on the face a = b with c along c_hat, at
    b = max((p0 + w |c_hat|) / (1 + w), 0).  Returns 0 <= theta0 < 2 pi.
    """
    phis, p = target.phis, target.samples
    g = len(p)
    # At G = 4 harmonic 2 is the Nyquist term: cos 2phi = +-1 on the grid
    # (mean square 1) and sin 2phi vanishes, so c2 is free and set to 0.
    w = 1.0 if g == 4 else 0.5
    p0 = float(p.mean())
    c1 = float(p @ np.cos(2.0 * phis)) / (g * w)
    c2 = 0.0 if g == 4 else float(p @ np.sin(2.0 * phis)) / (g * w)
    norm = math.hypot(c1, c2)
    if p0 >= norm:
        a, b = p0, norm
    else:
        a = b = max((p0 + w * norm) / (1.0 + w), 0.0)
    theta = math.atan2(-c2, c1) % (2.0 * math.pi)
    if theta >= 2.0 * math.pi:  # a tiny negative angle rounds up to 2 pi
        theta = 0.0
    fit = ClassicalFit(a=a, b=b, theta0=theta, error=0.0)
    resid = fit.curve(phis) - p
    return fit._replace(error=float(resid @ resid) / g)
