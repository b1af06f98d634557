"""Independent brute-force oracles used to pin expected values.

Everything here is written against dense matrices and explicit
permutations, deliberately sharing no code with the package's per-sector
dose core, so agreement between the two is meaningful.
"""

import cmath
import itertools
import math

import numpy as np


def dense_annihilators(cutoff):
    """Dense a, b on the tensor-product space with per-mode cutoff."""
    dim = cutoff + 1
    single = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        single[n - 1, n] = math.sqrt(n)
    eye = np.eye(dim)
    a = np.kron(single, eye)
    b = np.kron(eye, single)
    return a, b


def dense_vector(amplitudes, cutoff):
    """Column vector for a sparse amplitude map on the tensor basis."""
    dim = cutoff + 1
    v = np.zeros(dim * dim, dtype=complex)
    for (n, m), amp in amplitudes.items():
        v[n * dim + m] = amp
    return v


def dense_dose(amplitudes, cutoff, n_photons, alpha, beta):
    """||(alpha a + beta b)^N |psi>||^2 / N! via dense matrix powers."""
    a, b = dense_annihilators(cutoff)
    e = alpha * a + beta * b
    v = dense_vector(amplitudes, cutoff)
    for _ in range(n_photons):
        v = e @ v
    return float(np.vdot(v, v).real) / math.factorial(n_photons)


def instrument_matrix(phi, convention):
    """Transfer matrix T from the input ports to the substrate,
    (c, d)^T = T (a, b)^T: the 50/50 splitter (1/sqrt2) [[-1, i], [i, -1]],
    then the mirror -I, and for the single-arm convention the phase shifter
    diag(e^{i phi}, 1) after them, read from the convention's value."""
    s = 1.0 / math.sqrt(2.0)
    chain = -np.array([[-s, 1j * s], [1j * s, -s]])
    if convention.value == "single-arm":
        chain = np.diag([cmath.exp(1j * phi), 1.0]) @ chain
    return chain


def partition_dose(n, p, phis):
    """Dose of the partition state (|N-P, P> + |P, N-P>)/sqrt2 under the
    symmetric substrate field: C(N, P) (1 + cos 2(N-2P) phi), or C(N, P)
    for 2P = N, whose state is the one term |P, P>."""
    phis = np.asarray(phis, dtype=float)
    c = float(math.comb(n, p))
    if 2 * p == n:
        return np.full(phis.shape, c)
    return c * (1.0 + np.cos(2.0 * (n - 2 * p) * phis))


def number_state_dose(n, m, n_photons, weight_a, weight_b):
    """Exact dose of |n, m> under a field with |alpha|^2, |beta|^2 = weight_a, weight_b.

    e^N |n, m> = sum_k C(N, k) alpha^k beta^(N-k) a^k b^(N-k) |n, m> puts
    each k on its own pair (n-k, m-N+k), so no two terms interfere and

        dose = sum_k C(N, k) C(n, k) C(m, N-k) weight_a^k weight_b^(N-k).

    With Fraction weights the result is an exact Fraction.
    """
    return sum(
        math.comb(n_photons, k) * math.comb(n, k) * math.comb(m, n_photons - k)
        * weight_a**k * weight_b ** (n_photons - k)
        for k in range(n_photons + 1)
    )


def permanent(matrix):
    """Matrix permanent by explicit permutation sum (small matrices only)."""
    n = matrix.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0j
        for row, col in enumerate(perm):
            term *= matrix[row, col]
        total += term
    return total


def transition_amplitude(t, occ_in, occ_out):
    """<out| U |in> for a 2x2 transfer matrix t via the permanent formula."""
    n_in, m_in = occ_in
    n_out, m_out = occ_out
    if n_in + m_in != n_out + m_out:
        return 0j
    rows = [0] * n_out + [1] * m_out
    cols = [0] * n_in + [1] * m_in
    sub = np.array([[t[r, c] for c in cols] for r in rows], dtype=complex)
    if sub.size == 0:
        return 1.0 + 0j
    norm = math.sqrt(
        math.factorial(n_in)
        * math.factorial(m_in)
        * math.factorial(n_out)
        * math.factorial(m_out)
    )
    return permanent(sub) / norm


def random_unitary(rng):
    """Haar-ish random 2x2 unitary from the QR of a complex Gaussian."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state_map(rng, cutoff, max_terms=4, headroom=0):
    """Random normalized sparse amplitude map within the cutoff."""
    pairs = [
        (n, m)
        for n in range(cutoff + 1)
        for m in range(cutoff + 1)
        if n + m <= cutoff - headroom
    ]
    count = int(rng.integers(1, max_terms + 1))
    chosen = rng.choice(len(pairs), size=min(count, len(pairs)), replace=False)
    amps = {}
    for idx in chosen:
        amps[pairs[idx]] = complex(rng.standard_normal(), rng.standard_normal())
    norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    return {k: v / norm for k, v in amps.items()}


def csv_text(header, columns):
    """CSV text formatted one cell at a time, 17 significant digits, LF endings."""
    lines = [",".join(header) + "\n"]
    for i in range(len(columns[0])):
        lines.append(",".join(f"{col[i]:.17g}" for col in columns) + "\n")
    return "".join(lines)


def chart_pixels(x, ys):
    """The pixels of every point of a chart: the x pixels, and the y pixels
    of each series.

    The 800x500 chart plots into [70, 780] x [40, 450] px over the data
    limits: x as given (width 1 if constant), y padded by 5% of its range
    (range 1 if constant).  Coordinates are Python floats, not numpy arrays.
    """
    x = [float(v) for v in x]
    ys = [[float(v) for v in y] for y in ys]
    x_lo, x_hi = min(x), max(x)
    y_lo = min(min(y) for y in ys)
    y_hi = max(max(y) for y in ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(v):
        return 70 + (v - x_lo) / (x_hi - x_lo) * 710

    def sy(v):
        return 40 + (y_hi - v) / (y_hi - y_lo) * 410

    return [sx(v) for v in x], [[sy(v) for v in y] for y in ys]


def polyline_points(x, ys):
    """The points attribute of each series' polyline, one point at a time.

    The points of ``chart_pixels`` split into runs of consecutive points
    whose x pixel has the same floor.  Each run keeps its first and last
    point and the first points of its smallest and its largest data y, in
    their order (M4 aggregation).
    """
    px, pys = chart_pixels(x, ys)
    columns = [math.floor(p) for p in px]
    starts = [i for i in range(len(px)) if i == 0 or columns[i] != columns[i - 1]]
    runs = [range(a, b) for a, b in zip(starts, starts[1:] + [len(px)])]
    points = []
    for y, py in zip(ys, pys):
        y = [float(v) for v in y]
        kept = set()
        for run in runs:
            # min and max return the first of equal values.
            kept |= {run[0], run[-1], min(run, key=y.__getitem__), max(run, key=y.__getitem__)}
        points.append(" ".join(f"{px[i]:.2f},{py[i]:.2f}" for i in sorted(kept)))
    return points


def mp_monomial_doses(amplitudes, n_photons, exponents, grid, points, dps=40):
    """Doses at phi = 2 pi g / grid, g in ``points``, to ``dps`` digits, of
    the field alpha a + beta b with (alpha, beta) = (e^{i p phi}, e^{i q phi})
    for (p, q) = ``exponents``.

    From first principles: e^N |n, m> = sum_k C(N, k) alpha^k beta^(N-k)
    a^k b^(N-k) |n, m>, with a^k |n> = sqrt(n!/(n-k)!) |n-k>, and the dose is
    ||e^N |psi>||^2 / N!.  Each phase p k + q (N-k) is reduced mod grid in
    integers before it meets pi.
    """
    import mpmath

    with mpmath.workdps(dps):
        rows = {}
        for (n, m), amp in amplitudes.items():
            for k in range(max(0, n_photons - m), min(n, n_photons) + 1):
                weight = math.comb(n_photons, k) * mpmath.sqrt(
                    math.perm(n, k) * math.perm(m, n_photons - k))
                power = exponents[0] * k + exponents[1] * (n_photons - k)
                row = rows.setdefault((n - k, m - n_photons + k), {})
                row[power] = row.get(power, 0) + mpmath.mpc(amp) * weight
        roots = {}
        doses = []
        for g in points:
            total = mpmath.mpf(0)
            for row in rows.values():
                amp = mpmath.mpc(0)
                for power, c in row.items():
                    turn = power * g % grid
                    if turn not in roots:
                        roots[turn] = mpmath.expjpi(mpmath.mpf(2 * turn) / grid)
                    amp += c * roots[turn]
                total += abs(amp) ** 2
            doses.append(total / math.factorial(n_photons))
        return doses
