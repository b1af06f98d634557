"""Fitting a square trench with a superposition of partition states.

What is measured is the mean squared error of the dose against the
trench.  Beside the fit the demo prints the best single-fringe exposure
a + b cos(2 phi + theta0) of the symmetric convention, at error exactly
1/4.  That number is no classical printing floor: the 2 pi-periodic
trench holds only odd harmonics of phi, so the best member of that
family is the flat half-dose (b = 0), and a thresholded classical fringe
prints this trench exactly.  The fit reaches below 1/4 through odd
harmonics that the synthesis model's mixed phase rates put into its
cross terms, a known defect listed in ROADMAP.md.

Expect well under a second of optimization.  Run from the repository root:

    python3 demos/trench_synthesis.py
"""

import numpy as np

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
        f"\nbest a + b cos(2 phi + theta0): a = {classical.a:.4f}, b = {classical.b:.4f}"
        f" -> mse {classical.error:.4f}  (flat: the trench has only odd harmonics)"
    )

    alpha, trace = fit_superposition(basis, target, seed=SEED)
    final = fitness(alpha, basis, target)
    print(f"superposition fit: mse {final:.4f}  (started at {trace[0]:.4f})")

    print("\nfitted superposition (share of the coefficient norm per partition):")
    for p, c in zip(basis.partitions, np.abs(alpha) / np.linalg.norm(alpha)):
        bar = "#" * int(round(40 * c))
        print(f"  P={p}  |alpha_P|/|alpha| = {c:.3f}  {bar}")

    quantum = genome_profile(alpha, basis, GRID)
    classical_curve = classical.curve(target.phis)
    write_line_chart(
        "trench_synthesis.svg",
        target.phis,
        [
            ("target", target.doses),
            ("one-fringe fit", classical_curve),
            ("synthesized", quantum.doses),
        ],
        title="Trench fit by MSE: one-fringe family vs partition superposition",
    )
    print("\nwrote trench_synthesis.svg")


if __name__ == "__main__":
    main()
