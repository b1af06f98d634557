"""Synthesizing a square trench no classical exposure can print.

A classical interferometric exposure at fixed wavelength is limited to
the family a + b cos(2 phi + theta0); against the square trench target
its best mean squared error is exactly 1/4 (the flat half-dose).  A
superposition of ten-photon partition states carries harmonics at many
frequencies at once, and a least-squares fit of the complex
superposition coefficients finds a pattern well below the classical
floor.

This is the library's headline capability; expect well under a second
of optimization.  Run from the repository root:

    python3 demos/trench_synthesis.py
"""

from qlitho import (
    PartitionBasis,
    best_classical_fit,
    fit_superposition,
    fitness,
    genome_profile,
    trench_target,
)
from qlitho import write_line_chart

GRID = 512
SEED = 0


def main():
    basis = PartitionBasis(10, (1, 2, 3, 4, 5))
    target = trench_target(GRID)

    print(f"target: square trench on {GRID} phase samples")
    print(f"basis : N = {basis.n_photons}, partitions {basis.partitions}")
    print(f"solver: Levenberg-Marquardt least squares, seed {SEED}")

    classical = best_classical_fit(target)
    print(
        f"\nbest classical fringe: a = {classical.a:.4f}, b = {classical.b:.4f}"
        f" -> mse {classical.error:.4f}"
    )

    best, trace = fit_superposition(basis, target, seed=SEED)
    final = fitness(best, basis, target)
    print(f"synthesis result     : mse {final:.4f}  (started at {trace[0]:.4f})")
    print(f"improvement over classical floor: {100 * (1 - final / classical.error):.1f}%")

    print("\nwinning superposition (coefficient magnitude per partition):")
    for p, c in zip(basis.partitions, best.coefficients):
        bar = "#" * int(round(40 * abs(c)))
        print(f"  P={p}  |alpha| = {abs(c):.3f}  {bar}")

    quantum = genome_profile(best, basis, GRID)
    classical_curve = classical.curve(target.phis)
    write_line_chart(
        "trench_synthesis.svg",
        target.phis,
        [
            ("target", target.samples),
            ("classical best", classical_curve),
            ("synthesized", quantum.doses),
        ],
        title="Trench synthesis: classical floor vs entangled superposition",
    )
    print("\nwrote trench_synthesis.svg")


if __name__ == "__main__":
    main()
