"""Tests of the package's public surface."""

import pytest

import qlitho
import qlitho.dosing
import qlitho.fock

PUBLIC = [
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
    "component_closed_form",
    "compose",
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
    "psi_np",
    "render_line_chart",
    "trench_target",
    "write_line_chart",
]

# Names that no command, demo or benchmark op reached, removed with the code
# only they ran: the field-power operator and the one-phase dose functions.
REMOVED = [
    "FieldCoefficients",
    "apply_field_power",
    "deposition_rate",
    "pipeline_rate",
    "squared_norm",
    "substrate_field",
    "is_zero",
]


def test_every_exported_name_resolves_once():
    # Tools walk __all__ with getattr, so a stale entry breaks them all.
    assert len(set(qlitho.__all__)) == len(qlitho.__all__)
    missing = [name for name in qlitho.__all__ if not hasattr(qlitho, name)]
    assert missing == []


def test_public_surface_is_pinned():
    assert sorted(qlitho.__all__) == PUBLIC


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_do_not_resolve(name):
    for where in (qlitho, qlitho.fock, qlitho.dosing, qlitho.FockState):
        assert not hasattr(where, name), where
