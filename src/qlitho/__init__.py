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
    deposition_rate,
    exposure_profile,
    fourier_components,
    interferometer,
    min_feature,
    noon_state,
    phase_grid,
    pipeline_rate,
    substrate_field,
)
from .errors import ToleranceError
from .svgplot import render_line_chart, write_line_chart
from .fock import (
    FieldCoefficients,
    FockState,
    apply_field_power,
    make_state,
    squared_norm,
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
    component_closed_form,
    fit_superposition,
    fitness,
    genome_profile,
    psi_np,
    trench_target,
)

__version__ = "0.1.0"

__all__ = [
    "ClassicalFit",
    "ExposureProfile",
    "FieldCoefficients",
    "FockState",
    "ModeUnitary",
    "PartitionBasis",
    "SubstrateConvention",
    "ToleranceError",
    "apply_field_power",
    "beamsplitter",
    "best_classical_fit",
    "classical_n_photon",
    "classical_one_photon",
    "classical_two_photon",
    "component_closed_form",
    "compose",
    "deposition_rate",
    "evolve",
    "exposure_profile",
    "fit_superposition",
    "fitness",
    "fourier_components",
    "genome_profile",
    "interferometer",
    "make_state",
    "min_feature",
    "mirror",
    "noon_exposure",
    "noon_state",
    "phase_grid",
    "phase_shifter",
    "pipeline_rate",
    "psi_np",
    "render_line_chart",
    "squared_norm",
    "substrate_field",
    "trench_target",
    "write_line_chart",
]
