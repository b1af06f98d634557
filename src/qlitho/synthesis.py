"""Pattern synthesis from superpositions of N-photon partition states.

Splitting N photons P / (N-P) between the two arms gives a family of
substrate states whose doses are pure harmonics; a least-squares solve
fits complex superposition coefficients so that the combined dose
approximates a requested exposure pattern, and a constrained classical
single-fringe fit provides the benchmark to beat.  A target is an
:class:`~qlitho.dosing.ExposureProfile` with at least four samples, and
a superposition is a plain complex vector alpha, one entry per partition.

Phase bookkeeping (the subtle part): every partition contributes the
paper's state psi_NP at phi = 0, the pair (|N-P, P> + |P, N-P>)/sqrt2,
dosed where it sits by the SYMMETRIC substrate field u a + v b,
(u, v) = (e^{i phi}, e^{-i phi}), of :mod:`qlitho.dosing`.  All of them
lie in the one N-photon sector, so row P of the amplitude matrix A is
two of its field powers, sqrt(C(N, P)/2) (u^P v^(N-P) + u^(N-P) v^P),
or u^P v^P sqrt(C(N, P)) for 2P = N: sqrt(2 C(N, P)) cos((N-2P) phi),
whose fringe runs at 2(N-2P).  The model then multiplies row P by
e^{i P phi}.  This is the model's per-partition factor, not a
propagation phase: it is invisible in any single-partition dose but puts
odd harmonics into the cross terms between partitions, and no state
dosed in the SYMMETRIC convention has those (a known defect of the
model, listed in ROADMAP.md).

So row P holds two harmonics with real coefficients (_row_spectra).  The
solver works on the spectra of the doses the rows make (_dose_space), and
damps each of its variables by that variable's own scale: the rows'
weights sqrt(2 C(N, P)) span orders of magnitude.  A
dose on the grid, dose(alpha) = |alpha @ A|^2, is the dose of one row, the
row spectra weighted by alpha, and takes the folded-spectrum kernel of
the substrate doses (dosing._folded_doses), so |alpha|^2 is the exposure
scale: unit-norm alpha is one unit of exposure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dosing import ExposureProfile, _folded_doses, _grid_profile, phase_grid
from .fock import _count, _index, _root

# Largest dose a basis may deposit, and largest target sample.  On the grid
# every dose monomial is bounded by the basis's dose bound B (|A_i|^2 <= w_i^2
# and |A_i conj A_j| <= w_i w_j, w_P^2 = 2 C(N, P)), so by Parseval each column
# of the solver's spectral QR has norm at most sqrt(G) B, and each entry,
# sqrt(2G) times a sum of at most four coefficient products c_i c_j <= B / 4,
# at most sqrt(2G) B: finite at B = 10^150 for any grid that fits in memory.
# The target enters that QR divided by its peak.  The fitness sums squared
# errors over the grid, about G 10^300 at most, which must stay finite too.
_MAX_DOSE = 10**150
# Smallest exposure scale a fit returns: the square of every coefficient of
# the fitted vector then stays clear of underflow.
_MIN_SCALE = 1e-300

# Solver starts, and the default cap on its iterations.  A start retires
# once its Newton step predicts a decrease of at most _RETIRE of its squared
# residual; on the default trench basis every start has retired within 12 to
# 25 iterations for each seed from 0 to 199.  Four starts already reach the
# optimum of that basis for every seed checked, but not that of k = 31 (N =
# 60, P = 0..30) for seed 3; sixteen reach both.
_STARTS = 16
_ITERATIONS = 50
_RETIRE = 1e-14
# Levenberg-Marquardt damping range, relative to each variable's largest
# diagonal of the Gauss-Newton matrix so far, and its factor per step.  The
# lower end keeps the systems nonsingular: a global phase of alpha leaves
# the dose unchanged.
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
        try:
            n = _index(self.n_photons)
            parts = tuple(_index(p) for p in self.partitions)
        except TypeError:
            raise ValueError("photon number and partitions must be integers") from None
        if n < 1:
            raise ValueError("photon number must be a positive integer")
        if not parts:
            raise ValueError("partition basis cannot be empty")
        if any(p < 0 or 2 * p > n for p in parts):
            raise ValueError(f"partitions must satisfy 0 <= P <= {n // 2}")
        if any(b <= a for a, b in zip(parts, parts[1:])):
            raise ValueError("partitions must be strictly increasing (no duplicates)")
        # A unit-norm superposition doses at most sum_P w_P^2 (Cauchy-Schwarz
        # over the rows of the amplitude matrix), w_P^2 = 2 C(N, P).
        bound = sum(math.comb(n, p) * (1 if 2 * p == n else 2) for p in parts)
        if bound > _MAX_DOSE:
            raise ValueError(
                f"N={n} with partitions {parts} doses up to "
                f"10^{math.log10(bound):.1f}, above the limit of 10^150"
            )
        object.__setattr__(self, "n_photons", n)
        object.__setattr__(self, "partitions", parts)

    def __len__(self) -> int:
        return len(self.partitions)


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

def _coefficients(alpha, basis: PartitionBasis) -> np.ndarray:
    """The superposition coefficients as a complex vector, one per partition."""
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (len(basis),):
        raise ValueError(f"coefficients of shape {alpha.shape} for a {len(basis)}-partition basis")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("coefficients must be finite")
    return alpha


def genome_profile(alpha, basis: PartitionBasis, grid_points: int) -> ExposureProfile:
    """Dose pattern |alpha @ A|^2 of the coefficient superposition alpha.

    Its exposure scale is |alpha|^2; cross terms between partitions arise
    from adding the rows.  alpha @ A is one row of 2k terms, alpha_P times
    row P's coefficients at its harmonics (_row_spectra), dosed by the
    folded-spectrum kernel of the substrate doses (dosing._folded_doses).
    """
    alpha = _coefficients(alpha, basis)
    phis = phase_grid(grid_points)
    bins, coef = _row_spectra(basis, len(phis))
    terms = (alpha[:, None] * coef).reshape(1, -1)
    return _grid_profile(phis, _folded_doses(terms, bins.ravel(), len(phis)))


def _row_spectra(basis: PartitionBasis, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Bins (k x 2) and real coefficients (k x 2) of the rows of A on G points.

    Row P (see the module docstring) has the harmonics 3P-N and N-P, each
    with sqrt(C(N, P)/2); for 2P = N, the one harmonic P with sqrt(C(N, P))
    and a second term 0.  The roots are correctly rounded.  The harmonics
    are reduced mod G as Python integers, e^{i h phi} = e^{i (h mod G) phi}
    on the grid, so a grid coarser than the band folds them exactly and
    the bins fit an int64 array at any N.
    """
    n = basis.n_photons
    bins = np.array([((3 * p - n) % grid_points, (n - p) % grid_points) for p in basis.partitions])
    roots = (_half_root(math.comb(n, p) * (2 if 2 * p == n else 1)) for p in basis.partitions)
    coef = np.array([(r, 0.0 if 2 * p == n else r) for p, r in zip(basis.partitions, roots)])
    return bins, coef


def _half_root(m: int) -> float:
    """sqrt(m / 2) = sqrt(2 m) / 2, correctly rounded (see fock._root)."""
    return _root(2 * m) / 2


# ---------------------------------------------------------------------------
# targets and fitness
# ---------------------------------------------------------------------------

def trench_target(grid_points: int) -> ExposureProfile:
    """Square trench: bright on [0, pi/2] and (3pi/2, 2pi), dark between.

    Boundary samples take the value approached from the left, so the
    grid point at exactly pi/2 is bright and the one at 3pi/2 is dark.
    """
    phis = phase_grid(grid_points)
    samples = np.where((phis <= np.pi / 2) | (phis > 3 * np.pi / 2), 1.0, 0.0)
    return ExposureProfile(phis, samples)


def _check_target(target: ExposureProfile) -> None:
    """Reject a target the fit cannot take: under four samples, or one above _MAX_DOSE."""
    if target.grid_points < 4:
        raise ValueError("target needs at least four samples")
    if not target.doses.max() <= _MAX_DOSE:
        raise ValueError("target samples must be at most the limit of 10^150")


def _optimal_scale(unscaled: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares scale of each dose row: argmin_s mean((s u - p)^2) = <u,p>/<u,u>."""
    uu = np.einsum("...g,...g->...", unscaled, unscaled)
    scale = np.divide(unscaled @ target, uu, out=np.ones_like(uu), where=uu > 0.0)
    return np.maximum(scale, _MIN_SCALE)


def _scaled_sse(unscaled: np.ndarray, target: np.ndarray) -> np.ndarray:
    """sum((s u - p)^2) of each dose row u at its optimal scale s.

    Works in place: every row of ``unscaled`` is overwritten by its residual.
    """
    unscaled *= _optimal_scale(unscaled, target)[..., None]
    unscaled -= target
    return np.einsum("...g,...g->...", unscaled, unscaled)


def fitness(alpha, basis: PartitionBasis, target: ExposureProfile) -> float:
    """Mean squared error against the target after closed-form rescaling.

    The scale |alpha|^2 is ignored: for a fixed dose shape u the best
    scale is s* = <u, p> / <u, u> (one-variable least squares), and the
    value returned is mean((s* u - p)^2).  alpha is divided by its largest
    real or imaginary part before dosing, so no scale of it under- or
    overflows the dose.
    """
    alpha = _coefficients(alpha, basis)
    _check_target(target)
    largest = max(np.abs(alpha.real).max(), np.abs(alpha.imag).max())
    if largest > 0.0:
        alpha = alpha / largest
    u = np.array(genome_profile(alpha, basis, target.grid_points).doses)
    return float(_scaled_sse(u, target.doses) / len(u))


# ---------------------------------------------------------------------------
# least-squares solver
# ---------------------------------------------------------------------------

def _hessian_map(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the Hessians in x of the k^2 dose monomials put their entries.

    With alpha = a + ib: |alpha_i|^2 = a_i a_i + b_i b_i,
    2 Re(alpha_i conj alpha_j) = 2 (a_i a_j + b_i b_j) and
    -2 Im(alpha_i conj alpha_j) = 2 (a_i b_j - b_i a_j).  Entry (a, b) of
    the 2k x 2k Hessians belongs to the one monomial index[a, b], with
    factor[a, b] in {2, -2} (0 where no monomial has one), so the weighted
    sum of the monomials' Hessians is weights[..., index] * factor.
    """
    i, j = np.triu_indices(k, 1)
    d, re_ij, im_ij = np.arange(k), np.arange(k, k + len(i)), np.arange(k + len(i), k * k)
    index = np.zeros((2 * k, 2 * k), dtype=np.intp)
    factor = np.zeros((2 * k, 2 * k))
    for a, b, m, h in ((d, d, d, 2.0), (k + d, k + d, d, 2.0),
                       (i, j, re_ij, 2.0), (k + i, k + j, re_ij, 2.0),
                       (i, k + j, im_ij, 2.0), (k + i, j, im_ij, -2.0)):
        index[a, b] = index[b, a] = m
        factor[a, b] = factor[b, a] = h
    return index, factor


def _dose_space(basis: PartitionBasis, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map x = [Re alpha | Im alpha] to a residual whose norm is the dose error.

    The dose |alpha @ A|^2 is linear in the lifted matrix alpha alpha^H:
    it is V m, where the k^2 columns of V are the real dose monomials
    |A_i|^2, Re(A_i conj A_j) and Im(A_i conj A_j) (i < j) on the grid,
    and m holds their coefficients |alpha_i|^2, 2 Re(alpha_i conj alpha_j)
    and -2 Im(alpha_i conj alpha_j), each a quadratic form (1/2) x^T H x.

    The residual V m - p is taken in harmonic space.  A_i conj A_j has a
    term c_i c_j e^{i (h - h') phi} for each pair of harmonics of rows i
    and j (_row_spectra): real coefficients, so the spectra of |A_i|^2 and
    Re(A_i conj A_j) are real and those of Im(A_i conj A_j) imaginary, and
    each is folded into bins mod G, at most 4 k^2 terms.  By Parseval on
    the grid, |V m - p|^2 is the sum over the rfft bins b of
    (w_b / G) |(V m)^_b - p^_b|^2, w_b = 1 at bins 0 and G/2 and 2 between,
    over the real and imaginary parts of the support bins, where some
    monomial has a term, plus the target's energy outside them: one real
    row each, and a last row that holds only that energy, perp.  With that
    [S | s] = Q R, the residual has the norm of w - c for w = R_V m and c
    the last column of R.  R has min(rows, k^2+1) rows, rows = 2 (support
    bins) at most, whatever G is: only the target's rfft is as long as the
    grid.

    Returns R_V^T (k^2 x r, r the rows of R) and c.  The closed form
    mean(p^2) - <u,p>^2 / (G <u,u>) is not used: its error is roundoff
    of mean(p^2), not of the residual, so a target the basis reaches
    exactly would not score near zero.
    """
    g, k = len(target), len(basis)
    bins, coef = _row_spectra(basis, g)
    # Every term of A_i conj A_j, over ordered pairs (i, j): its bin and
    # coefficient.  A bin past G/2 is the mirror of pair (j, i)'s term, which
    # that pair lists at its own bin, so only the rfft bins are kept.
    diff = (bins[:, None, :, None] - bins[None, :, None, :]) % g
    keep = diff <= g // 2
    pair = np.broadcast_to(np.arange(k * k).reshape(k, k, 1, 1), diff.shape)[keep]
    support, at = np.unique(diff[keep], return_inverse=True)
    terms = (coef[:, None, :, None] * coef[None, :, None, :])[keep]
    cross = np.bincount(at * (k * k) + pair, terms, len(support) * k * k).reshape(-1, k, k)
    i, j = np.triu_indices(k, 1)
    spectrum = np.fft.rfft(target)
    picked = spectrum[support]
    spectrum[support] = 0.0
    outside = spectrum.view(float)  # bin 0 is in the support; bin G/2 counts once
    energy = 2.0 * (outside @ outside) - (spectrum[-1].real ** 2 if g % 2 == 0 else 0.0)
    # Bins 0 and G/2 are real for real doses: no imaginary row.
    sine = (support > 0) & (2 * support < g)
    weight = np.where(sine, 2.0, 1.0)[:, None]
    real = np.concatenate([cross.diagonal(0, 1, 2), (cross[:, i, j] + cross[:, j, i]) / 2,
                           np.zeros((len(support), len(i))), picked.real[:, None] / g], axis=1)
    imag = np.concatenate([np.zeros((len(support), k + len(i))), (cross[:, j, i] - cross[:, i, j]) / 2,
                           picked.imag[:, None] / g], axis=1)[sine]
    perp = np.zeros((1, k * k + 1))
    perp[0, -1] = math.sqrt(energy / g)
    stacked = np.concatenate([real * np.sqrt(weight * g), imag * math.sqrt(2.0 * g), perp])
    tri = np.linalg.qr(stacked, mode="r")
    return tri[:, :-1].T.copy(), tri[:, -1].copy()


def _jacobian_map(rows: np.ndarray, index: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """``jac`` (2k x 2k r) of the rows R_V^T of _dose_space, given _hessian_map(k).

    Slice j of its 2k x 2k x r form is the constant Hessian H_j of w_j,
    so the Jacobian of w at x is x @ jac (as 2k x r), and w is half of x
    applied to it.
    """
    jac = rows[index]
    jac *= factor[:, :, None]
    return jac.reshape(len(index), -1)


def _jacobians(x: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transposed Jacobians (starts x 2k x r) of w at the rows of x, and the w."""
    jt = (x @ jac).reshape(*x.shape, -1)
    return jt, 0.5 * np.einsum("sa,saj->sj", x, jt)


def _damped_steps(systems: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each damped system; a singular (or non-finite) one gives a nan step."""
    try:
        return np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(rhs, np.nan)
        for i, (system, b) in enumerate(zip(systems, rhs)):
            try:
                steps[i] = np.linalg.solve(system, b)
            except np.linalg.LinAlgError:
                pass
        return steps


def fit_superposition(
    basis: PartitionBasis,
    target: ExposureProfile,
    iterations: int = _ITERATIONS,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Fit superposition coefficients to a target pattern by least squares.

    The unknown is x = [Re alpha | Im alpha] in R^{2k} with no norm
    constraint: the dose scale is |x|^2.  The residual w(x) - c of
    _dose_space is quadratic in x, and its norm squared over G is the
    mean squared error of the dose.  It has min(rows, k^2+1) entries,
    rows at most twice the harmonics the basis's doses hold on the grid,
    so the fit is a Levenberg-Marquardt solve in 2k reals that reads the
    grid only through the target's rfft, and its cost does not grow with
    G once the grid holds every harmonic.  Being
    quadratic, the residual has the exact Hessian J J^T + sum_j res_j H_j
    with constant H_j, whose weighted sum is a gather of the k^2 weights
    res @ R_V (_hessian_map); every step is damped Newton on it, each
    variable shifted by a multiple of its own largest diagonal of J J^T
    so far (More's scaled Levenberg-Marquardt), so the step does not
    depend on the rows' weights.  The fit is scale-free, so it runs
    against the target over its peak.

    ``_STARTS`` (16) starts are drawn from ``default_rng([seed, 0])``, each
    moved to its optimal scale, and then solved together: per start and
    iteration one damped 2k x 2k system, a step kept only if it lowers
    the residual (a non-finite or singular trial counts as a failure),
    and the damping divided on success and multiplied on failure within
    a fixed range.  A start retires once its step predicts a decrease of
    at most ``_RETIRE`` of its squared residual; the run ends when every
    start has retired or after ``iterations`` iterations, the cap.

    Returns the coefficients alpha of the best start seen, at the optimal
    least-squares scale |alpha|^2 on the grid and with its global phase,
    which no dose sees, fixed: the entry of largest magnitude (the first
    of equal ones) is real and positive.  With them comes the trace whose
    entry i is the best scale-optimized mean squared error over all starts
    after i iterations: one entry per iteration run plus the initial one,
    so 2 to iterations+1 entries, non-increasing.  Fully deterministic
    for a given seed, and a run that ends before its cap is the same run
    under any larger cap.
    """
    iterations = _count(iterations, "iterations")
    seed = _count(seed, "seed", least=None)
    _check_target(target)
    k = len(basis)
    peak = float(target.doses.max()) or 1.0  # a zero target is fitted as it is
    rows, c = _dose_space(basis, target.doses / peak)
    index, factor = _hessian_map(k)
    jac = _jacobian_map(rows, index, factor)

    # Arrays of the active starts only: a start that retires leaves them.
    x = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0]).standard_normal((_STARTS, 2 * k))
    x *= np.sqrt(_optimal_scale(_jacobians(x, jac)[1], c))[:, None]
    jt, w = _jacobians(x, jac)
    res = w - c
    sse = np.einsum("sj,sj->s", res, res)
    damping = np.ones(_STARTS)  # adds the Gauss-Newton diagonal: a short first step
    # Each variable's largest Gauss-Newton diagonal so far, per start.
    diagonal = np.zeros((_STARTS, 2 * k))
    fits = _scaled_sse(w, c)
    idx = int(np.argmin(fits))
    trace, best_fit, best_vec = [float(fits[idx])], float(fits[idx]), x[idx].copy()
    for _ in range(iterations):
        if not len(x):
            break
        # The exact Hessian J J^T + sum_j res_j H_j, each variable damped by
        # its own largest diagonal of J J^T so far (the full Hessian's
        # diagonal can be negative): the step does not depend on the rows'
        # weights.
        hess = jt @ jt.transpose(0, 2, 1)
        hess_diagonal = hess.reshape(len(x), -1)[:, :: 2 * k + 1]  # a view
        np.maximum(diagonal, hess_diagonal, out=diagonal)
        shift = damping[:, None] * diagonal + np.finfo(float).tiny
        hess += (res @ rows.T)[:, index] * factor
        hess_diagonal += shift
        grad = (jt @ res[:, :, None])[:, :, 0]
        # A Newton step can be long enough to overflow the trial's residual.
        with np.errstate(over="ignore", invalid="ignore"):
            step = _damped_steps(hess, -grad)
            # 2 (-g.step - step.H.step / 2), the model's decrease of the squared
            # residual, is -g.step + step.D.step when (H + D) step = -g, D the shift.
            predicted = np.einsum("sa,sa->s", step, shift * step - grad)
            trial = x + step
            trial_jt, trial_w = _jacobians(trial, jac)
            trial_res = trial_w - c
            trial_sse = np.einsum("sj,sj->s", trial_res, trial_res)
        better = trial_sse < sse
        if better.any():
            fits = _scaled_sse(trial_w[better], c)
            idx = int(np.argmin(fits))
            if fits[idx] < best_fit:
                best_fit, best_vec = float(fits[idx]), trial[better][idx]
        trace.append(best_fit)
        live = ~(predicted <= _RETIRE * sse)  # a failed solve (nan) stays active
        # Put the failed starts back into the trial arrays, then drop the retired.
        failed = np.flatnonzero(~better)
        for kept, tried in ((x, trial), (jt, trial_jt), (res, trial_res), (sse, trial_sse)):
            tried[failed] = kept[failed]
        x, jt, res, sse = trial, trial_jt, trial_res, trial_sse
        damping = np.clip(np.where(better, damping / _DAMPING_FACTOR, damping * _DAMPING_FACTOR),
                          *_DAMPING)
        if not live.all():
            x, jt, res, sse = x[live], jt[live], res[live], sse[live]
            damping, diagonal = damping[live], diagonal[live]

    # Bring the best start to unit norm before its optimal scale: a start
    # that has shrunk towards a zero target could square to subnormals.
    best_vec /= np.abs(best_vec).max()
    best_vec /= np.linalg.norm(best_vec)
    scale = float(_optimal_scale(_jacobians(best_vec[None], jac)[1], c)[0]) * peak
    alpha = (best_vec[:k] + 1j * best_vec[k:]) * math.sqrt(max(scale, _MIN_SCALE))
    # The entry of largest magnitude, the first of equal ones, real and positive.
    top = int(np.argmax(np.abs(alpha)))
    magnitude = abs(alpha[top])
    alpha *= np.conj(alpha[top]) / magnitude
    alpha[top] = magnitude
    return alpha, np.asarray(trace) / target.grid_points * peak * peak


# ---------------------------------------------------------------------------
# classical benchmark
# ---------------------------------------------------------------------------

def best_classical_fit(target: ExposureProfile) -> ClassicalFit:
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
    _check_target(target)
    phis, p = target.phis, target.doses
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
