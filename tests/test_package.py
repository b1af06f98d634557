"""Tests of the package's public surface and of its module graph."""

import ast
from pathlib import Path

import pytest

import qlitho
import qlitho.dosing
import qlitho.fock
import qlitho.synthesis

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

# Names that no command, demo or benchmark op reached, removed with the code
# only they ran: the field-power operator, the one-phase dose functions, the
# partition state and its closed-form dose, and the instrument's ModeUnitary.
# Tests take the last three from tests/oracles.py.
REMOVED = [
    "FieldCoefficients",
    "apply_field_power",
    "deposition_rate",
    "pipeline_rate",
    "squared_norm",
    "substrate_field",
    "is_zero",
    "component_closed_form",
    "interferometer",
    "psi_np",
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
    for where in (qlitho, qlitho.fock, qlitho.dosing, qlitho.synthesis, qlitho.FockState):
        assert not hasattr(where, name), where


def _imported_names(path: Path) -> set[str]:
    """Every part of each dotted name a source file imports or imports from."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


def test_dose_core_imports_neither_optics_nor_synthesis():
    # The doses pull the field back through the exact input chain, so the
    # dose core needs no optics element and no synthesis basis.
    for module in ("fock", "dosing", "baselines"):
        path = Path(qlitho.__file__).with_name(f"{module}.py")
        assert not _imported_names(path) & {"optics", "synthesis"}, module


def test_synthesis_takes_no_inverse_fft_of_its_own():
    # Every grid dose at the substrate, the partition basis's included, is
    # one folded spectrum and one real inverse FFT in dosing._folded_doses.
    path = Path(qlitho.__file__).with_name("synthesis.py")
    called = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            called.add(getattr(node.func, "attr", getattr(node.func, "id", None)))
    assert not called & {"ifft", "irfft", "ifftn", "irfftn", "ifft2", "irfft2"}
