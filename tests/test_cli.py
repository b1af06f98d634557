"""End-to-end tests of the command-line driver (in-process where possible)."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlitho.cli as cli
import qlitho.fock as fock
from oracles import csv_text, polyline_points
from qlitho.baselines import _noon_grid_exposure
from qlitho.dosing import exposure_profile, phase_grid
from qlitho.fock import make_state
from qlitho.svgplot import _write_text, format_rows
from qlitho.synthesis import trench_target


def run_cli(monkeypatch, tmp_path, *argv):
    monkeypatch.chdir(tmp_path)
    return cli.main(list(argv))


def read_rows(path):
    text = path.read_text(encoding="ascii")
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_fringe_csv_layout(monkeypatch, tmp_path, capsys):
    code = run_cli(monkeypatch, tmp_path, "--command", "fringe", "--grid", "8")
    assert code == 0
    header, rows = read_rows(tmp_path / "fringe.csv")
    assert header == "phi,delta_1_classical,delta_2_classical,delta_2_quantum"
    assert len(rows) == 8
    assert rows[0] == ["0", "2", "2", "2"]
    out = capsys.readouterr().out
    assert "two-photon fringe check: max deviation" in out


def test_fringe_single_arm_convention(monkeypatch, tmp_path):
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "fringe", "--grid", "16", "--convention", "paper",
    )
    assert code == 0
    _, rows = read_rows(tmp_path / "fringe.csv")
    quantum = np.array([float(r[3]) for r in rows])
    phis = phase_grid(16)
    assert np.max(np.abs(quantum - (1.0 + np.cos(2.0 * phis)))) < 1e-9


def test_csv_uses_lf_and_ascii(monkeypatch, tmp_path):
    run_cli(monkeypatch, tmp_path, "--command", "classical", "--grid", "8")
    data = (tmp_path / "classical.csv").read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    data.decode("ascii")  # raises if any non-ascii byte slipped in


# Cells whose %.17g text is easy to get wrong: signed zero, infinities, NaN,
# the smallest subnormal, a huge value, an integer beyond 2**53, and 0.1.
_SPECIAL_CELLS = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, float(2**53 + 1), 0.1]


@pytest.mark.parametrize("k", range(1, 7))
def test_csv_matches_per_cell_oracle(tmp_path, k):
    # Row counts around the formatter's block of rows, read off the formatter.
    block = next(format_rows([np.zeros(1 << 16)] * k)).count("\n")
    assert block < 1 << 16
    rng = np.random.default_rng(k)
    header = [f"c{j}" for j in range(k)]
    for rows in (1, block - 1, block, block + 1, 32768):
        cells = rng.standard_normal(rows * k) * 10.0 ** rng.integers(-20, 20, rows * k)
        cells[: len(_SPECIAL_CELLS)] = _SPECIAL_CELLS[: rows * k]
        cells[-len(_SPECIAL_CELLS):] = _SPECIAL_CELLS[-rows * k:]
        columns = list(cells.reshape(rows, k).T)
        path = tmp_path / f"{rows}.csv"
        cli._write_csv(str(path), header, columns)
        assert path.read_bytes() == csv_text(header, columns).encode("ascii"), rows


def test_noon_outputs_and_feature_size(monkeypatch, tmp_path, capsys):
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "noon", "--n", "4", "--grid", "64",
        "--wavelength-nm", "248",
    )
    assert code == 0
    header, rows = read_rows(tmp_path / "noon.csv")
    assert header == "phi,simulated,analytic,abs_error"
    assert len(rows) == 64
    assert float(rows[0][1]) == pytest.approx(2.0, abs=1e-12)
    out = capsys.readouterr().out
    assert "max |simulated - analytic| =" in out
    assert "minimum feature at N=4, wavelength 248 nm: 31 nm" in out


def test_compare_matches_peaks(monkeypatch, tmp_path):
    # N = 171 is past the range of N! in floating point.
    for n, grid in ((6, 32), (171, 512)):
        code = run_cli(
            monkeypatch, tmp_path, "--command", "compare", "--n", str(n), "--grid", str(grid)
        )
        assert code == 0
        header, rows = read_rows(tmp_path / "compare.csv")
        assert header == "phi,classical,quantum"
        assert float(rows[0][1]) == pytest.approx(2.0, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(2.0, abs=1e-9)
        quantum = np.array([float(r[2]) for r in rows])
        assert np.max(np.abs(quantum - (1.0 + np.cos(2.0 * n * phase_grid(grid))))) <= 1e-9


def test_out_stem_strips_known_suffixes(monkeypatch, tmp_path):
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "classical", "--grid", "8", "--out", "results.csv",
    )
    assert code == 0
    assert (tmp_path / "results.csv").exists()
    assert not (tmp_path / "results.csv.csv").exists()


@pytest.mark.parametrize("out", [".csv", "dir/.svg", "dir/", ".", "dir/..", "dir/..json"])
def test_out_naming_no_file_exits_two(monkeypatch, tmp_path, capsys, out):
    # Once its suffix is stripped, a stem that names only a directory would
    # write a hidden ".csv" or "..csv" beside or inside that directory.
    (tmp_path / "dir").mkdir()
    code = run_cli(monkeypatch, tmp_path, "--command", "noon", "--n", "3", "--grid", "8", "--out", out)
    assert code == 2
    assert "bad arguments" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_svg_format(monkeypatch, tmp_path):
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "classical", "--grid", "16", "--format", "svg",
    )
    assert code == 0
    assert not (tmp_path / "classical.csv").exists()
    svg = (tmp_path / "classical.svg").read_text(encoding="ascii")
    assert svg.startswith("<svg")
    assert 'width="800"' in svg and 'height="500"' in svg


def test_both_formats(monkeypatch, tmp_path):
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "classical", "--grid", "8", "--format", "both",
    )
    assert code == 0
    assert (tmp_path / "classical.csv").exists()
    assert (tmp_path / "classical.svg").exists()


def test_svg_output_is_deterministic(monkeypatch, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for where in (first, second):
        code = run_cli(
            monkeypatch, where,
            "--command", "noon", "--n", "3", "--grid", "32", "--format", "svg",
        )
        assert code == 0
    assert (first / "noon.svg").read_bytes() == (second / "noon.svg").read_bytes()


# sha256 of the CSV of each command that draws no random numbers.  A change
# that keeps every float operation of a dose keeps these bytes; a digest
# moves only with a change to the numbers it pins.  The %.17g cells carry
# every bit of every dose, so the digests hold only for the numpy the last
# bits were computed with.
_GOLDEN_NUMPY = "2.4.6"
_GOLDEN_CSV = {
    "noon --n 3 --grid 64":
        "b28609fb8a2fa563d85725a11566f13208e23513f56faaa1bf0015061b65dc5e",
    "noon --n 3 --grid 64 --convention paper":
        "5c9169f2d7110b1a95dbf8a243054eb87309866e6fe032a64629eb46fe5f0036",
    "compare --n 4 --grid 64":
        "a1c935b7bdf5bf463c120655d67293904e4442296fae73706179abfed916815f",
    "classical --n 3 --grid 64":
        "30771aca27b7fb206df3667c60163d54c42c9d97ea0120ff7a2ad00611faeff6",
    "fringe --grid 64":
        "9c1c11dbf64161845b9080963b3f5ec2ef66491ad43aab2c90e1d5b9d983de57",
    "fringe --grid 64 --convention paper":
        "0ea866458ec9e972faec17ecb7cb160cc7c7662ed05f1058160ec18dcc326147",
    "noon --n 3 --grid 4097":
        "1c9f75f4bc7b5788d9ffb81cfe0845365c89d8106d647b57bf54217b19d46160",
    "compare --n 4 --grid 4097":
        "c180eb23725152945aa2d837e033a0de721fabe1f5b36dde99d1af4b9a52028f",
    # At N = 100 and 171 the NOON dose needs no N! and no field power
    # (dosing._spectral_doses); these two pin that path's bits at large N.
    "compare --n 100 --grid 64":
        "a2bc20b5f1017fda9dfbf14f1014247570a63991b4595da9971507cacc72b85e",
    "noon --n 171 --grid 64":
        "e00bddffe993fdb0202859849e4a9569f011b16cb221f2a6406eac2d2ae53649",
}


# sha256 of the SVG of the same commands, taken with the per-cell %.2f
# formatter that the array formatter replaced: a chart's bytes pin both
# the doses and their formatting.  At grid 64 every pixel column holds one
# point, so every point is drawn.  At grid 4097 a column holds about six,
# of which the chart keeps at most four a series (M4); those two digests
# are of SVGs whose points match the per-point oracle of their CSV columns.
_GOLDEN_SVG = {
    "noon --n 3 --grid 64":
        "07a2c780937042fdf2241acc1615d19bd63af8bcf45e0516c75b374407d838e1",
    "noon --n 3 --grid 64 --convention paper":
        "b546429d13e50a03087624d60893ed2e900153799870526cde561b6f5c0f81b0",
    "compare --n 4 --grid 64":
        "769661a4b66ea3bede1ad8eb472f47f20102e10f349112c56dbd90555edb532b",
    "classical --n 3 --grid 64":
        "eb7a7416ae62ddeacc94b763f8f1722299723f8bdcaa5cbab0e3e71431f1897a",
    "fringe --grid 64":
        "da20af73dc851f2c2f4ee22ab178f43a48b056d4d5b8532a7799661833a01525",
    "fringe --grid 64 --convention paper":
        "dde5db9646704281ca41f49c1b2622f31f406e2bc58a8036d6d9cd0ec33dd3eb",
    "noon --n 3 --grid 4097":
        "668304956b4d64225aa3e3e16b1ccde76d0c5299bad0ab18a8587007921613ba",
    "compare --n 4 --grid 4097":
        "f7bc5e565199a3fc6ec1d7df8e32548b436fa631b5f89777c4d66d570e2ee328",
}

_golden_numpy_only = pytest.mark.skipif(
    np.__version__ != _GOLDEN_NUMPY,
    reason=f"digests were taken with numpy {_GOLDEN_NUMPY}; another numpy may round the last bit differently",
)


@_golden_numpy_only
@pytest.mark.parametrize("args", sorted(_GOLDEN_CSV))
def test_deterministic_csv_matches_golden_digest(monkeypatch, tmp_path, args):
    command = args.split()[0]
    assert run_cli(monkeypatch, tmp_path, "--command", *args.split()) == 0
    digest = hashlib.sha256((tmp_path / f"{command}.csv").read_bytes()).hexdigest()
    assert digest == _GOLDEN_CSV[args]


@_golden_numpy_only
@pytest.mark.parametrize("args", sorted(_GOLDEN_SVG))
def test_deterministic_svg_matches_golden_digest(monkeypatch, tmp_path, args):
    command = args.split()[0]
    assert run_cli(monkeypatch, tmp_path, "--command", *args.split(), "--format", "svg") == 0
    digest = hashlib.sha256((tmp_path / f"{command}.svg").read_bytes()).hexdigest()
    assert digest == _GOLDEN_SVG[args]


# sha256 of exposure_profile(...).doses.tobytes() of dense N-photon sector
# states, drawn in turn from one rng, at the shapes the dense_pipeline
# benchmark doses, at the substrate and at the inputs.
_GOLDEN_DENSE = {
    (12, 512, "paper"): ("8e5b647f13398e0f47bd7be8e96faab7294cad73758f1770589a9166cf28a340",
                         "edc590e7a89875e5b92e8636643b7bcdf723f0650cc201a7066f15188136be4e"),
    (24, 256, "paper"): ("df816b99e8394f3fb19554d62f63ca888d6f53d6e0f7e7e17abed4c29202a330",
                         "f19ed73c7ac4e0e4cfaf211a7f186a2d486e7e1ad49410896f22f4aae4057558"),
    (40, 1024, "symmetric"): ("93ddec7dfd2bd16a13096beae2333b09ad0e4d4c1534c9e6669e8ab8792fb47c",
                              "df460e2d1bf60c73c06f071a8269fc10b244cefce2d9bcade4a6d5ceeda9a052"),
}


@_golden_numpy_only
def test_dense_sector_doses_match_golden_digest():
    rng = np.random.default_rng(20260)
    for (n, grid, convention), digests in _GOLDEN_DENSE.items():
        amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        state = make_state({(k, n - k): a for k, a in enumerate(amps)})
        for from_input, digest in zip((False, True), digests):
            profile = exposure_profile(state, n, grid, cli._CONVENTIONS[convention], from_input)
            assert hashlib.sha256(profile.doses.tobytes()).hexdigest() == digest, (n, from_input)


def test_dense_chart_is_drawn_at_display_resolution(monkeypatch, tmp_path):
    # 32768 phases put about 46 points in each pixel column of the 710-px
    # plot; each series keeps at most 4 of them, as the oracle selects them
    # from the CSV's columns.
    assert run_cli(monkeypatch, tmp_path, "--command", "noon", "--n", "30", "--grid", "32768",
                   "--format", "both") == 0
    svg = (tmp_path / "noon.svg").read_text(encoding="ascii")
    data = np.loadtxt(tmp_path / "noon.csv", delimiter=",", skiprows=1)
    points = re.findall(r'<polyline points="([^"]*)"', svg)
    assert points == polyline_points(data[:, 0], list(data[:, 1:].T))
    assert len(svg) <= 90_000
    assert all(len(p.split()) <= 4 * 711 for p in points)


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

SMALL_SYNTH = [
    "--generations", "8", "--grid", "64", "--partitions", "1,2,3", "--seed", "7",
]


def test_synthesize_outputs(monkeypatch, tmp_path, capsys):
    code = run_cli(monkeypatch, tmp_path, "--command", "synthesize", *SMALL_SYNTH)
    assert code == 0
    header, rows = read_rows(tmp_path / "synthesize.csv")
    assert header == "phi,target,classical_best,quantum_best"
    assert len(rows) == 64

    summary = json.loads((tmp_path / "synthesize_summary.json").read_text())
    assert summary["n"] == 10
    assert summary["partitions"] == [1, 2, 3]
    assert summary["grid"] == 64
    assert summary["convention"] == "symmetric"
    assert summary["seed"] == 7
    assert summary["generations"] == 8
    assert 1 <= summary["iterations"] <= summary["generations"]
    assert summary["trace_final"] <= summary["trace_initial"]
    assert len(summary["coefficients"]) == 3
    norm = sum(c["re"] ** 2 + c["im"] ** 2 for c in summary["coefficients"])
    assert norm == pytest.approx(1.0, abs=1e-9)
    assert summary["scale"] > 0.0

    out = capsys.readouterr().out
    assert "synthesis fitness" in out and "classical error" in out and "(seed 7)" in out


def test_synthesize_rejects_paper_convention(monkeypatch, tmp_path, capsys):
    # The partition basis is modelled in the symmetric convention only.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("convention = paper\n", encoding="ascii")
    for source in (["--convention", "paper"], ["--config", str(cfg)]):
        code = run_cli(monkeypatch, tmp_path, "--command", "synthesize", *SMALL_SYNTH, *source)
        assert code == 2
        err = capsys.readouterr().err
        assert "synthesize supports only --convention symmetric" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_synthesize_is_byte_deterministic(monkeypatch, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    first.mkdir()
    second.mkdir()
    for where in (first, second):
        code = run_cli(monkeypatch, where, "--command", "synthesize", *SMALL_SYNTH)
        assert code == 0
    assert (first / "synthesize.csv").read_bytes() == (second / "synthesize.csv").read_bytes()
    assert (
        first / "synthesize_summary.json"
    ).read_bytes() == (second / "synthesize_summary.json").read_bytes()


@pytest.mark.parametrize("n, partitions", [
    (30, "10,12,15"), (40, "15,17,20"), (200, "60,70,80"), (160, "60,70,80"),
])
def test_synthesize_large_doses_pass_self_checks(monkeypatch, tmp_path, n, partitions):
    # Partition doses reach C(N, P) ~ 1e8..1e57 here; the self-checks
    # compare relative to that size, so rounding at 1e-14 is no failure.
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "synthesize", "--n", str(n), "--partitions", partitions,
        "--generations", "2", "--grid", "64",
    )
    assert code == 0


def test_synthesize_fitness_mismatch_exits_four(monkeypatch, tmp_path, capsys):
    # A solver whose reported trace disagrees with the fitness of the dose
    # it emits must trip the self-check.
    real_fit = cli.fit_superposition

    def skewed_fit(*args):
        best, trace = real_fit(*args)
        return best, trace * (1.0 + 1e-6)

    monkeypatch.setattr(cli, "fit_superposition", skewed_fit)
    code = run_cli(monkeypatch, tmp_path, "--command", "synthesize", *SMALL_SYNTH)
    assert code == 4
    assert "tolerance violation" in capsys.readouterr().err


def test_synthesize_flags_classical_family_target(monkeypatch, tmp_path):
    # A target the classical fringe family contains exactly must yield a
    # near-zero classical benchmark error in the summary.
    phis = phase_grid(32)
    samples = 1.0 + 0.5 * np.cos(2.0 * phis + 0.3)
    lines = [f"{phi:.17g},{val:.17g}" for phi, val in zip(phis, samples)]
    target_path = tmp_path / "family.csv"
    target_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "synthesize",
        "--generations", "2", "--partitions", "1",
        "--target", str(target_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "synthesize_summary.json").read_text())
    assert summary["classical_error"] < 1e-8


def test_noon_single_photon_matches_classical_fringe(monkeypatch, tmp_path):
    # At N = 1 the fringe is the classical 1 + cos 2phi; N = 171 and 10^4
    # are past the range of N! in floating point.
    for n, grid in ((1, 32), (171, 512), (10000, 512)):
        code = run_cli(
            monkeypatch, tmp_path, "--command", "noon", "--n", str(n), "--grid", str(grid)
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "noon.csv")
        phis = phase_grid(grid)
        simulated = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(simulated - (1.0 + np.cos(2.0 * n * phis)))) <= 1e-9


def test_synthesize_reads_target_csv(monkeypatch, tmp_path):
    # The header is the first non-blank line, wherever blank lines put it.
    target = trench_target(32)
    lines = ["phi,value"]
    lines += [f"{phi:.17g},{val:.17g}" for phi, val in zip(target.phis, target.doses)]
    target_path = tmp_path / "pattern.csv"
    for leading in ("", "\n  \n"):
        target_path.write_text(leading + "\n".join(lines) + "\n", encoding="ascii")
        code = run_cli(
            monkeypatch, tmp_path,
            "--command", "synthesize",
            "--generations", "4", "--partitions", "1,2",
            "--target", str(target_path),
        )
        assert code == 0, leading
        _, rows = read_rows(tmp_path / "synthesize.csv")
        assert len(rows) == 32
        assert float(rows[0][1]) == 1.0


def test_synthesize_reads_headerless_target_after_a_byte_order_mark(monkeypatch, tmp_path):
    # A UTF-8 byte-order mark is not part of the first row: a headerless
    # target keeps all its rows and fits as the same target without one.
    target = trench_target(32)
    text = "\n".join(f"{phi:.17g},{val:.17g}" for phi, val in zip(target.phis, target.doses)) + "\n"
    outputs = []
    for encoding in ("ascii", "utf-8-sig"):
        target_path = tmp_path / "pattern.csv"
        target_path.write_text(text, encoding=encoding)
        code = run_cli(
            monkeypatch, tmp_path,
            "--command", "synthesize", "--generations", "4", "--target", str(target_path),
        )
        assert code == 0, encoding
        _, rows = read_rows(tmp_path / "synthesize.csv")
        assert len(rows) == 32
        outputs.append((tmp_path / "synthesize.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("peak, expected", [(1e155, 2), (1e150, 0)])
def test_synthesize_bounds_the_target_scale(monkeypatch, tmp_path, capsys, peak, expected):
    # The fit squares the target and sums it over the grid; beyond 10^150 the
    # sums could overflow, so such a target is refused before anything is written.
    target = trench_target(32)
    lines = [f"{phi:.17g},{val * peak:.17g}" for phi, val in zip(target.phis, target.doses)]
    target_path = tmp_path / "pattern.csv"
    target_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "synthesize", "--generations", "4", "--target", str(target_path),
    )
    err = capsys.readouterr().err
    assert code == expected, err
    assert "Traceback" not in err
    if expected:
        assert "limit of 10^150" in err
        assert [p.name for p in tmp_path.iterdir()] == ["pattern.csv"]
    else:
        summary = json.loads((tmp_path / "synthesize_summary.json").read_text())
        assert summary["fitness"] < summary["classical_error"]


def test_synthesize_target_fixes_the_grid(monkeypatch, tmp_path, capsys):
    # A grid set by flag or config file must match the target's rows.
    target = trench_target(64)
    lines = [f"{phi:.17g},{val:.17g}" for phi, val in zip(target.phis, target.doses)]
    target_path = tmp_path / "pattern.csv"
    target_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 32\n", encoding="ascii")
    base = ["--command", "synthesize", "--generations", "2",
            "--partitions", "1,2", "--target", str(target_path)]
    assert run_cli(monkeypatch, tmp_path, *base, "--grid", "4096") == 2
    assert run_cli(monkeypatch, tmp_path, *base, "--config", str(cfg)) == 2
    assert "differs from the 64 rows" in capsys.readouterr().err
    assert not (tmp_path / "synthesize.csv").exists()
    assert run_cli(monkeypatch, tmp_path, *base, "--grid", "64") == 0
    summary = json.loads((tmp_path / "synthesize_summary.json").read_text())
    assert summary["grid"] == 64


# ---------------------------------------------------------------------------
# configuration file
# ---------------------------------------------------------------------------

def test_config_file_applies_and_flags_win(monkeypatch, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment line\n\ngrid = 16\n   \nn = 2  # inline comment\n",
                   encoding="ascii")
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "classical", "--config", str(cfg), "--grid", "8",
    )
    assert code == 0
    _, rows = read_rows(tmp_path / "classical.csv")
    assert len(rows) == 8  # flag beat the config file

    code = run_cli(monkeypatch, tmp_path, "--command", "classical", "--config", str(cfg))
    assert code == 0
    _, rows = read_rows(tmp_path / "classical.csv")
    assert len(rows) == 16  # config beat the default


def test_config_file_rejects_unknown_keys(monkeypatch, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text, message in (("gird = 16\n", "run.cfg:1: unknown option 'gird'"),
                          ("# grid\n\ngrid 16\n", "run.cfg:3: expected 'key = value'")):
        cfg.write_text(text, encoding="ascii")
        code = run_cli(
            monkeypatch, tmp_path, "--command", "classical", "--config", str(cfg)
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "classical.csv").exists()


def test_config_file_after_a_byte_order_mark_parses(monkeypatch, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 16\n", encoding="utf-8-sig")
    code = run_cli(monkeypatch, tmp_path, "--command", "classical", "--config", str(cfg))
    assert code == 0
    _, rows = read_rows(tmp_path / "classical.csv")
    assert len(rows) == 16


# ---------------------------------------------------------------------------
# option contract: every option, from a flag or from a config file
# ---------------------------------------------------------------------------

# Small runs; the option under test is dropped from them.
_SMALL = {"n": "6", "partitions": "1,2", "grid": "32", "generations": "3"}

# option -> (command, two valid values with different outputs, malformed values);
# "{tmp}" is the test's directory, which holds the target files below.
OPTION_CASES = {
    "n": ("noon", "3", "5", ["three", "0"]),
    "partitions": ("synthesize", "1,2", "1", ["1,x", "9", ","]),
    "grid": ("classical", "16", "8", ["sixteen", "2"]),
    "convention": ("fringe", "paper", "symmetric", ["sideways"]),
    "wavelength_nm": ("noon", "248", "193", ["blue", "-1", "nan", "5e-324"]),
    "seed": ("synthesize", "3", "4", ["x", "1.5"]),
    "generations": ("synthesize", "3", "4", ["abc", "0", "-1"]),
    "out": ("classical", "result", "other.csv", ["bad\0stem"]),
    "format": ("classical", "svg", "both", ["pdf"]),
    "target": ("synthesize", "{tmp}/trench.csv", "{tmp}/fringe.csv",
               ["{tmp}/words.csv", "{tmp}/short.csv", "{tmp}/nan_phase.csv",
                "{tmp}/three_cells.csv", "{tmp}/header_only.csv"]),
}

# Options of the genetic optimizer that the least-squares solver replaced:
# any value of them, their old defaults included, is malformed.
REMOVED_OPTIONS = {
    "population": ("synthesize", None, None, ["64"]),
    "mutation_sigma": ("synthesize", None, None, ["0.05"]),
    "crossover_rate": ("synthesize", None, None, ["0.7"]),
    "elite": ("synthesize", None, None, ["2"]),
}


def _write_targets(where):
    phis = phase_grid(32)
    # NaN compares false against any bound, so it must not pass the grid check.
    nan_phase = np.where(np.arange(32) == 7, np.nan, phis)
    for name, grid, samples in (("trench", phis, trench_target(32).doses),
                                ("fringe", phis, 1.0 + np.cos(2.0 * phis)),
                                ("nan_phase", nan_phase, np.ones(32))):
        rows = [f"{phi:.17g},{val:.17g}" for phi, val in zip(grid, samples)]
        (where / f"{name}.csv").write_text("\n".join(rows) + "\n", encoding="ascii")
    (where / "words.csv").write_text("phi,value\n0,one\n", encoding="ascii")
    (where / "short.csv").write_text("0,1\n1.5,1\n3,1\n", encoding="ascii")
    (where / "three_cells.csv").write_text("phi,value\n0,1,2\n", encoding="ascii")
    (where / "header_only.csv").write_text("phi,value\n\n", encoding="ascii")


class _Runner:
    """Runs the CLI in fresh directories and collects what each run leaves."""

    def __init__(self, monkeypatch, tmp_path, capsys, option):
        self.monkeypatch, self.tmp, self.capsys = monkeypatch, tmp_path, capsys
        _write_targets(tmp_path)
        self.command, self.a, self.b, self.bad = {**OPTION_CASES, **REMOVED_OPTIONS}[option]
        self.flag = "--" + option.replace("_", "-")
        base = {k: v for k, v in _SMALL.items() if k != option}
        self.base = ["--command", self.command]
        for key, value in base.items():
            self.base += ["--" + key, value]
        self.runs = 0

    def value(self, text):
        return text.replace("{tmp}", str(self.tmp))

    def config(self, key, text):
        self.runs += 1
        path = self.tmp / f"run{self.runs}.cfg"
        path.write_text(f"{key} = {self.value(text)}\n", encoding="utf-8")
        return ["--config", str(path)]

    def __call__(self, *argv):
        self.runs += 1
        where = self.tmp / f"run{self.runs}"
        where.mkdir()
        code = run_cli(self.monkeypatch, where, *self.base, *argv)
        out, err = self.capsys.readouterr()
        files = {p.name: p.read_bytes() for p in where.iterdir()}
        return code, out, err, files


def test_option_cases_cover_every_option():
    dests = {action.dest for action in cli.build_parser()._actions}
    assert sorted(OPTION_CASES) == sorted(dests - {"help", "command", "config"})
    assert sorted(_FUZZ_VALUES) == sorted(cli._OPTIONS)
    assert not set(REMOVED_OPTIONS) & set(OPTION_CASES)


@pytest.mark.parametrize("option", sorted(OPTION_CASES))
def test_option_from_flag_or_file_gives_same_bytes(monkeypatch, tmp_path, capsys, option):
    run = _Runner(monkeypatch, tmp_path, capsys, option)
    from_flag = run(run.flag, run.value(run.a))
    assert from_flag[0] == 0, from_flag[2]
    assert from_flag[3]
    for key in (option, option.replace("_", "-")):
        assert run(*run.config(key, run.a)) == from_flag, key


@pytest.mark.parametrize("option", sorted(OPTION_CASES))
def test_option_flag_beats_file(monkeypatch, tmp_path, capsys, option):
    run = _Runner(monkeypatch, tmp_path, capsys, option)
    only_a = run(run.flag, run.value(run.a))
    only_b = run(run.flag, run.value(run.b))
    assert only_a[0] == only_b[0] == 0
    assert only_a != only_b
    assert run(*run.config(option, run.a), run.flag, run.value(run.b)) == only_b


@pytest.mark.parametrize("option", sorted({**OPTION_CASES, **REMOVED_OPTIONS}))
def test_malformed_option_exits_two(monkeypatch, tmp_path, capsys, option):
    run = _Runner(monkeypatch, tmp_path, capsys, option)
    for bad in run.bad:
        for argv in ([run.flag, run.value(bad)], run.config(option, bad)):
            code, _, err, files = run(*argv)
            assert code == 2, (argv, err)
            assert err and "Traceback" not in err
            assert not files, argv


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_bad_flag_exits_two(monkeypatch, tmp_path, capsys):
    assert run_cli(monkeypatch, tmp_path, "--command", "warp") == 2
    assert run_cli(monkeypatch, tmp_path) == 2
    capsys.readouterr()


def test_bad_values_exit_two(monkeypatch, tmp_path, capsys):
    assert run_cli(monkeypatch, tmp_path, "--command", "classical", "--grid", "2") == 2
    assert (
        run_cli(
            monkeypatch, tmp_path,
            "--command", "synthesize", "--partitions", "6",
        )
        == 2
    )
    err = capsys.readouterr().err
    assert "bad arguments" in err
    # Doses of C(1100, 550) ~ 1e329 are beyond the float range.
    assert (
        run_cli(
            monkeypatch, tmp_path,
            "--command", "synthesize", "--n", "1100", "--partitions", "500,550",
            "--generations", "2", "--grid", "64",
        )
        == 2
    )
    assert "above the limit of 10^150" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_generations_name_their_flag(monkeypatch, tmp_path, capsys, value):
    (tmp_path / "run.cfg").write_text(f"generations = {value}\n", encoding="utf-8")
    for i, argv in enumerate((["--generations", value], ["--config", str(tmp_path / "run.cfg")])):
        where = tmp_path / f"run{i}"
        where.mkdir()
        assert run_cli(monkeypatch, where, "--command", "synthesize", *argv) == 2
        assert "--generations must be a positive integer" in capsys.readouterr().err
        assert not list(where.iterdir()), argv


def test_missing_config_exits_three(monkeypatch, tmp_path, capsys):
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "classical", "--config", str(tmp_path / "absent.cfg"),
    )
    assert code == 3
    assert "i/o failure" in capsys.readouterr().err


def test_unwritable_out_exits_three(monkeypatch, tmp_path, capsys):
    code = run_cli(
        monkeypatch, tmp_path,
        "--command", "classical", "--grid", "8",
        "--out", str(tmp_path / "no" / "such" / "dir" / "x"),
    )
    assert code == 3
    capsys.readouterr()


def test_outputs_overwrite_longer_files_exactly(monkeypatch, tmp_path):
    # CSV, SVG and summary are rewritten in place and cut at their new end.
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    names = ("synthesize.csv", "synthesize.svg", "synthesize_summary.json")
    for name in names:
        (reused / name).write_bytes(b"x" * 200_000)
    for where in (fresh, reused):
        assert run_cli(monkeypatch, where, "--command", "synthesize", *SMALL_SYNTH,
                       "--format", "both") == 0
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_new_output_file_has_the_mode_open_gives(monkeypatch, tmp_path):
    umask = os.umask(0o022)
    os.umask(umask)
    assert run_cli(monkeypatch, tmp_path, "--command", "classical", "--grid", "8") == 0
    assert (tmp_path / "classical.csv").stat().st_mode & 0o777 == 0o666 & ~umask


def test_output_through_links_reaches_the_linked_file(monkeypatch, tmp_path):
    # A symlinked output is written through to its target, and a hard link
    # of an output sees the new bytes: the file keeps its inode.
    expected_dir = tmp_path / "expected"
    expected_dir.mkdir()
    assert run_cli(monkeypatch, expected_dir, "--command", "classical", "--grid", "8") == 0
    expected = (expected_dir / "classical.csv").read_bytes()
    for kind in ("symlink", "hardlink"):
        where = tmp_path / kind
        where.mkdir()
        elsewhere = where / "elsewhere.csv"
        elsewhere.write_bytes(b"old bytes\n" * 1000)
        inode = elsewhere.stat().st_ino
        if kind == "symlink":
            (where / "classical.csv").symlink_to(elsewhere)
        else:
            os.link(elsewhere, where / "classical.csv")
        assert run_cli(monkeypatch, where, "--command", "classical", "--grid", "8") == 0
        assert (where / "classical.csv").is_symlink() == (kind == "symlink")
        assert elsewhere.read_bytes() == expected and elsewhere.stat().st_ino == inode


def test_output_path_that_is_a_directory_exits_three(monkeypatch, tmp_path, capsys):
    (tmp_path / "classical.csv").mkdir()
    assert run_cli(monkeypatch, tmp_path, "--command", "classical", "--grid", "8") == 3
    assert "i/o failure" in capsys.readouterr().err


def test_failed_write_leaves_the_prefix_written(tmp_path):
    # The old tail past what was written goes, as with open(path, "w").
    path = tmp_path / "out.csv"
    path.write_bytes(b"z" * 100_000)

    def parts():
        yield "first,"
        yield "second\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _write_text(path, parts())
    assert path.read_bytes() == b"first,second\n"


def test_tolerance_violation_exits_four(monkeypatch, tmp_path, capsys):
    # Sabotage both dose routines so the fringe self-check must trip: fringe
    # doses at the inputs, noon and compare at the shifter.
    monkeypatch.setattr(
        cli, "_input_doses", lambda state, n, phis, convention: np.full(len(phis), 42.0)
    )
    monkeypatch.setattr(
        cli, "_spectral_doses", lambda state, n, grid, convention, site: np.full(grid, 42.0)
    )
    for command in ("fringe", "noon", "compare"):
        code = run_cli(monkeypatch, tmp_path, "--command", command, "--grid", "8")
        assert code == 4
        assert "tolerance violation" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("offset, expected", [(5e-10, 0), (2e-9, 4)])
def test_fringe_check_is_1e_9_at_any_n(monkeypatch, tmp_path, capsys, offset, expected):
    # Both sides of the check are exact to about 1e-15 at any N, so the
    # tolerance stays 1e-9 at N = 10^6.
    def shifted_fringe(state, n, grid, convention, site):
        return _noon_grid_exposure(n, grid, convention) + offset

    monkeypatch.setattr(cli, "_spectral_doses", shifted_fringe)
    for command in ("noon", "compare"):
        code = run_cli(
            monkeypatch, tmp_path, "--command", command, "--n", "1000000", "--grid", "8"
        )
        assert code == expected, command
        assert ("tolerance violation" in capsys.readouterr().err) == (expected == 4)


def test_noon_at_a_million_photons_forms_no_n_factorial(monkeypatch, tmp_path):
    # The NOON dose at the shifter weights its top sector by sqrt C(N, k), and
    # the closed form reduces each grid phase in integers, so both sides are
    # exact to rounding at any N.
    def refused(n):
        raise AssertionError(f"math.factorial({n}) formed")

    monkeypatch.setattr(fock, "math", types.SimpleNamespace(**{**vars(math), "factorial": refused}))
    assert run_cli(monkeypatch, tmp_path, "--command", "noon", "--n", "1000000",
                   "--grid", "512") == 0
    data = np.loadtxt(tmp_path / "noon.csv", delimiter=",", skiprows=1)
    assert data[:, 3].max() <= 1e-14


@pytest.mark.parametrize("command, target", [
    ("noon", "_spectral_doses"), ("synthesize", "fit_superposition"),
])
def test_out_of_memory_exits_two(monkeypatch, tmp_path, capsys, command, target):
    # numpy raises a MemoryError subclass when an array cannot be allocated.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.24 GiB for an array")

    monkeypatch.setattr(cli, target, out_of_memory)
    code = run_cli(monkeypatch, tmp_path, "--command", command, "--grid", "8")
    assert code == 2
    err = capsys.readouterr().err
    assert "more memory" in err
    assert "Traceback" not in err


def test_dose_overflow_exits_two(monkeypatch, tmp_path, capsys):
    # A dose beyond the float range surfaces as OverflowError, not ValueError.
    def overflow(state, n, grid, convention, site):
        raise OverflowError("integer division result too large for a float")

    monkeypatch.setattr(cli, "_spectral_doses", overflow)
    code = run_cli(monkeypatch, tmp_path, "--command", "noon", "--grid", "8")
    assert code == 2
    err = capsys.readouterr().err
    assert "exceeds the float range" in err
    assert "Traceback" not in err


# option -> (valid values, malformed values) for the fuzz test below; sizes stay
# small, and a valid value may still be refused in combination with others.
# "{in}" is the directory holding the config and target files.
_FUZZ_VALUES = {
    "n": (st.integers(1, 12).map(str), st.sampled_from(["0", "-3", "ten", "2.5", ""])),
    "partitions": (st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True)
                   .map(lambda ps: ",".join(map(str, sorted(ps)))),
                   st.sampled_from(["", ",", "1,x", "3,2", "1,1", "-1"])),
    "grid": (st.integers(4, 64).map(str), st.sampled_from(["3", "0", "-8", "x"])),
    "convention": (st.sampled_from(["symmetric", "paper"]),
                   st.sampled_from(["Paper", "sideways", ""])),
    "wavelength_nm": (st.floats(1.0, 1000.0).map(repr),
                      st.sampled_from(["0", "-1", "nan", "inf", "blue"])),
    "seed": (st.integers(0, 2**40).map(str), st.sampled_from(["x", "1.5", "-1"])),
    "generations": (st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "abc"])),
    "out": (st.sampled_from(["result", "other.csv", "run.svg", "r.json"]),
            st.sampled_from(["bad\0stem", "no/such/dir/x"])),
    "format": (st.sampled_from(list(cli._FORMATS)), st.sampled_from(["pdf", ""])),
    "target": (st.sampled_from(["{in}/trench.csv", "{in}/fringe.csv"]),
               st.sampled_from(["{in}/words.csv", "{in}/short.csv", "{in}/nan_phase.csv",
                                "{in}/three_cells.csv", "{in}/header_only.csv",
                                "{in}/absent.csv"])),
}


@st.composite
def _fuzz_options(draw):
    """Per option, nothing or a valid or malformed value, each given as a flag
    or as a config-file line.

    At most two options are malformed, so that runs also get past the checks.
    """
    bad = draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=2, unique=True))
    flags, lines = [], []
    for name, (valid, malformed) in _FUZZ_VALUES.items():
        if name not in bad and draw(st.booleans()):
            continue
        value = draw(malformed if name in bad else valid)
        if draw(st.booleans()):
            flags += ["--" + name.replace("_", "-"), value]
        else:
            lines.append(f"{draw(st.sampled_from([name, name.replace('_', '-')]))} = {value}")
    return flags, lines


@settings(max_examples=100)
@given(_fuzz_options())
def test_any_option_mix_keeps_the_exit_code_contract(options):
    # Whatever the options, every command ends in 0, 2, 3 or 4 without a
    # traceback, and a run refused as bad input writes nothing.
    flags, lines = options
    with tempfile.TemporaryDirectory() as root:
        inputs = Path(root, "in")
        inputs.mkdir()
        _write_targets(inputs)
        argv = [arg.replace("{in}", str(inputs)) for arg in flags]
        if lines:
            config = inputs / "run.cfg"
            config.write_text("\n".join(lines).replace("{in}", str(inputs)) + "\n",
                              encoding="utf-8")
            argv += ["--config", str(config)]
        for command in cli._DISPATCH:
            where = Path(root, command)
            where.mkdir()
            err = io.StringIO()
            cwd = os.getcwd()
            os.chdir(where)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main(["--command", command, *argv])
            finally:
                os.chdir(cwd)
            assert code in (0, 2, 3, 4), (command, argv, lines, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert not any(where.iterdir()), (command, argv, lines)


def test_help_exits_zero(monkeypatch, tmp_path, capsys):
    assert run_cli(monkeypatch, tmp_path, "--help") == 0
    assert "--command" in capsys.readouterr().out


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("Common flags", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1] for line in table.splitlines()[2:]]
    documented = [flag for cell in rows for flag in re.findall(r"`(--[a-z-]+)`", cell)]
    options = [
        flag for action in cli.build_parser()._actions for flag in action.option_strings
    ]
    assert sorted(documented) == sorted(set(options) - {"-h", "--help", "--command"})


def test_module_entry_point(tmp_path):
    # The child imports the package the tests import, wherever it lives.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [
            sys.executable, "-m", "qlitho",
            "--command", "classical", "--n", "1", "--grid", "8",
            "--out", str(tmp_path / "direct"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert (tmp_path / "direct.csv").exists()
