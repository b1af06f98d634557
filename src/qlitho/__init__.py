"""Two-mode Fock-state interferometry and N-photon exposure patterning.

The package simulates how path-entangled photon-number states write
sub-wavelength interference patterns: two-mode Fock states worked on
per photon-number sector (:mod:`qlitho.fock`), passive linear optics (:mod:`qlitho.optics`),
N-photon absorption doses on a substrate (:mod:`qlitho.dosing`),
classical reference exposures (:mod:`qlitho.baselines`), and a
least-squares synthesizer that superposes photon-partition states to
approximate a requested pattern (:mod:`qlitho.synthesis`).
"""

from .baselines import (
    classical_n_photon,
    classical_one_photon,
    classical_two_photon,
    noon_exposure,
)
from .dosing import (
    ExposureProfile,
    SubstrateConvention,
    exposure_profile,
    fourier_components,
    min_feature,
    noon_state,
    phase_grid,
)
from .errors import ToleranceError
from .svgplot import render_line_chart, write_line_chart
from .fock import (
    FockState,
    make_state,
)
from .optics import (
    ModeUnitary,
    beamsplitter,
    compose,
    evolve,
    mirror,
    phase_shifter,
)
from .synthesis import (
    ClassicalFit,
    PartitionBasis,
    best_classical_fit,
    fit_superposition,
    fitness,
    genome_profile,
    trench_target,
)

__version__ = "0.1.0"

__all__ = [
    "ClassicalFit",
    "ExposureProfile",
    "FockState",
    "ModeUnitary",
    "PartitionBasis",
    "SubstrateConvention",
    "ToleranceError",
    "beamsplitter",
    "best_classical_fit",
    "classical_n_photon",
    "classical_one_photon",
    "classical_two_photon",
    "compose",
    "evolve",
    "exposure_profile",
    "fit_superposition",
    "fitness",
    "fourier_components",
    "genome_profile",
    "make_state",
    "min_feature",
    "mirror",
    "noon_exposure",
    "noon_state",
    "phase_grid",
    "phase_shifter",
    "render_line_chart",
    "trench_target",
    "write_line_chart",
]
