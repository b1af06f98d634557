"""Command-line driver.

One executable, five subcommands selected by ``--command``: fringe,
noon, classical, synthesize, compare.  Every run is deterministic given
its full configuration (including the seed), emits CSV and/or SVG next
to the chosen output stem, and exits with

    0  success (all outputs written, internal checks passed)
    2  bad arguments or configuration
    3  I/O failure
    4  an internal numerical tolerance was violated

Flags override values from an optional ``--config`` file (plain
``key = value`` lines), which in turn override built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .baselines import classical_n_photon, classical_one_photon, classical_two_photon
from .dosing import (
    ExposureProfile,
    SubstrateConvention,
    _grid_doses,
    exposure_profile,
    min_feature,
    noon_state,
    phase_grid,
)
from .errors import ToleranceError
from .fock import make_state
from .svgplot import format_rows, write_line_chart
from .synthesis import (
    GAConfig,
    PartitionBasis,
    TargetPattern,
    best_classical_fit,
    ga_optimize,
    genome_profile,
    trench_target,
)

_COMMANDS = ("fringe", "noon", "classical", "synthesize", "compare")
_CONVENTIONS = {
    "symmetric": SubstrateConvention.SYMMETRIC,
    "paper": SubstrateConvention.SINGLE_ARM,
}
_FRINGE_CHECK_TOL = 1e-9
# GA trace against the fitness of the emitted dose, relative to the target's
# mean square (the error of a zero dose, which bounds every fitness).
_FITNESS_CHECK_TOL = 1e-9

_DEFAULT_GRID = 512

_DEFAULTS = {
    "n": 10,
    "partitions": "1,2,3,4,5",
    "grid": None,  # the target's row count for synthesize --target, else _DEFAULT_GRID
    "convention": "symmetric",
    "wavelength_nm": None,
    "seed": 0,
    "population": 64,
    "generations": 500,
    "mutation_sigma": 0.05,
    "crossover_rate": 0.7,
    "elite": 2,
    "out": None,
    "format": "csv",
    "target": None,
}

_OPTION_TYPES = {
    "n": int,
    "partitions": str,
    "grid": int,
    "convention": str,
    "wavelength_nm": float,
    "seed": int,
    "population": int,
    "generations": int,
    "mutation_sigma": float,
    "crossover_rate": float,
    "elite": int,
    "out": str,
    "format": str,
    "target": str,
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int
    partitions: tuple[int, ...]
    grid: int | None  # None: synthesize takes the grid from its --target
    convention: SubstrateConvention
    wavelength_nm: float | None
    seed: int
    population: int
    generations: int
    mutation_sigma: float
    crossover_rate: float
    elite: int
    out: str
    format: str
    target: str | None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlitho",
        description="Two-mode interferometric exposure simulator and pattern synthesizer.",
    )
    parser.add_argument("--command", required=True, choices=_COMMANDS)
    parser.add_argument("--config", help="key = value file; flags take precedence")
    parser.add_argument("--n", type=int, help="photon number (default 10)")
    parser.add_argument(
        "--partitions", help="comma-separated partition indices (default 1,2,3,4,5)"
    )
    parser.add_argument(
        "--grid", type=int,
        help="phase grid points (default 512; synthesize --target: its row count)",
    )
    parser.add_argument("--convention", choices=sorted(_CONVENTIONS))
    parser.add_argument(
        "--wavelength-nm", type=float, dest="wavelength_nm",
        help="if given, noon prints the minimum feature size",
    )
    parser.add_argument("--seed", type=int, help="optimizer seed (default 0)")
    parser.add_argument("--population", type=int)
    parser.add_argument("--generations", type=int)
    parser.add_argument("--mutation-sigma", type=float, dest="mutation_sigma")
    parser.add_argument("--crossover-rate", type=float, dest="crossover_rate")
    parser.add_argument("--elite", type=int)
    parser.add_argument("--out", help="output stem (default: the command name)")
    parser.add_argument("--format", choices=("csv", "svg", "both"))
    parser.add_argument("--target", help="target CSV of phi,value rows (synthesize)")
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _OPTION_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            try:
                values[key] = _OPTION_TYPES[key](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def _parse_partitions(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"bad partition list {text!r}: expected integers")
    if not parts:
        raise ValueError("partition list is empty")
    return parts


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over defaults."""
    merged = dict(_DEFAULTS)
    if args.config:
        merged.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag

    convention = merged["convention"]
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    fmt = merged["format"]
    if fmt not in ("csv", "svg", "both"):
        raise ValueError(f"unknown format {fmt!r}")
    n = int(merged["n"])
    if n < 1:
        raise ValueError("--n must be a positive integer")
    grid = merged["grid"]
    if grid is None and (args.command != "synthesize" or merged["target"] is None):
        grid = _DEFAULT_GRID
    if grid is not None and grid < 4:
        raise ValueError("--grid must be at least 4")
    wavelength = merged["wavelength_nm"]
    if wavelength is not None and not (math.isfinite(wavelength) and wavelength > 0):
        raise ValueError("--wavelength-nm must be positive")

    out = merged["out"] or args.command
    for suffix in (".csv", ".svg", ".json"):
        if out.endswith(suffix):
            out = out[: -len(suffix)]
    return RunConfig(
        command=args.command,
        n=n,
        partitions=_parse_partitions(str(merged["partitions"])),
        grid=grid,
        convention=_CONVENTIONS[convention],
        wavelength_nm=wavelength,
        seed=int(merged["seed"]),
        population=int(merged["population"]),
        generations=int(merged["generations"]),
        mutation_sigma=float(merged["mutation_sigma"]),
        crossover_rate=float(merged["crossover_rate"]),
        elite=int(merged["elite"]),
        out=out,
        format=fmt,
        target=merged["target"],
    )


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """CSV with '.' decimals, ',' separators, LF endings, 17 significant digits."""
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(format_rows(columns, row_format))


def _emit(cfg: RunConfig, header: list[str], columns: list[np.ndarray], title: str) -> None:
    phis = columns[0]
    if cfg.format in ("csv", "both"):
        _write_csv(cfg.out + ".csv", header, columns)
    if cfg.format in ("svg", "both"):
        series = [(name, col) for name, col in zip(header[1:], columns[1:])]
        write_line_chart(cfg.out + ".svg", phis, series, title=title)


def cmd_fringe(cfg: RunConfig) -> None:
    """One- and two-photon fringes: classical baselines vs the simulated pair."""
    phis = phase_grid(cfg.grid)
    two_photon = exposure_profile(
        make_state({(1, 1): 1.0}), 2, cfg.grid, cfg.convention, from_input=True
    )
    if cfg.convention is SubstrateConvention.SYMMETRIC:
        analytic = 1.0 + np.cos(4.0 * phis)
    else:
        analytic = 1.0 + np.cos(2.0 * phis)
    worst = float(np.abs(two_photon.doses - analytic).max())
    if worst > _FRINGE_CHECK_TOL:
        raise ToleranceError(
            f"simulated two-photon fringe off analytic form by {worst:.3e}"
        )
    _emit(
        cfg,
        ["phi", "delta_1_classical", "delta_2_classical", "delta_2_quantum"],
        [phis, classical_one_photon(phis), classical_two_photon(phis), two_photon.doses],
        title="Exposure fringes",
    )
    print(f"two-photon fringe check: max deviation {worst:.3e}")


def _noon_profile(cfg: RunConfig) -> tuple[ExposureProfile, np.ndarray]:
    """The N-photon fringe of the path-entangled state at the substrate.

    In the paper convention the NOON phase e^{i N phi} rides on the state:
    a phase shifter sits ahead of the substrate, commuted into its field.
    """
    phis = phase_grid(cfg.grid)
    doses = _grid_doses(noon_state(cfg.n), cfg.n, phis, cfg.convention, shifted=True)
    if cfg.convention is SubstrateConvention.SYMMETRIC:
        analytic = 1.0 + np.cos(2.0 * cfg.n * phis)
    else:
        analytic = 1.0 + np.cos(cfg.n * phis)
    return ExposureProfile(phis, doses), analytic


def cmd_noon(cfg: RunConfig) -> None:
    """Simulated N-photon path-entangled fringe against its analytic form."""
    profile, analytic = _noon_profile(cfg)
    errors = np.abs(profile.doses - analytic)
    worst = float(errors.max())
    _emit(
        cfg,
        ["phi", "simulated", "analytic", "abs_error"],
        [profile.phis, profile.doses, analytic, errors],
        title=f"N={cfg.n} entangled fringe",
    )
    print(f"max |simulated - analytic| = {worst:.3e}")
    if cfg.wavelength_nm is not None:
        feature = min_feature(cfg.n, cfg.wavelength_nm)
        print(
            f"minimum feature at N={cfg.n}, wavelength {cfg.wavelength_nm:.17g} nm: "
            f"{feature:.17g} nm"
        )
    if worst > _FRINGE_CHECK_TOL:
        raise ToleranceError(
            f"simulated fringe deviates from analytic form by {worst:.3e}"
        )


def cmd_classical(cfg: RunConfig) -> None:
    """Classical N-photon exposure baseline."""
    phis = phase_grid(cfg.grid)
    _emit(
        cfg,
        ["phi", "dose"],
        [phis, classical_n_photon(cfg.n, phis)],
        title=f"Classical N={cfg.n} exposure",
    )


def cmd_compare(cfg: RunConfig) -> None:
    """Classical baseline against the simulated entangled fringe at equal N."""
    profile, _ = _noon_profile(cfg)
    _emit(
        cfg,
        ["phi", "classical", "quantum"],
        [profile.phis, classical_n_photon(cfg.n, profile.phis), profile.doses],
        title=f"N={cfg.n}: classical vs entangled",
    )


def _load_target(path: str) -> TargetPattern:
    phis = []
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'phi,value'")
            try:
                phi, value = float(cells[0]), float(cells[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: non-numeric row")
            phis.append(phi)
            values.append(value)
    if not phis:
        raise ValueError(f"{path}: no data rows")
    return TargetPattern(np.asarray(phis), np.asarray(values))


def cmd_synthesize(cfg: RunConfig) -> None:
    """Evolve a partition superposition toward the target pattern."""
    basis = PartitionBasis(cfg.n, cfg.partitions)
    if cfg.target is not None:
        target = _load_target(cfg.target)
        if cfg.grid is not None and cfg.grid != target.grid_points:
            raise ValueError(
                f"grid {cfg.grid} differs from the {target.grid_points} rows of "
                f"target {cfg.target}"
            )
    else:
        target = trench_target(cfg.grid)
    ga_config = GAConfig(
        population=cfg.population,
        generations=cfg.generations,
        mutation_sigma=cfg.mutation_sigma,
        crossover_rate=cfg.crossover_rate,
        elite_count=cfg.elite,
        seed=cfg.seed,
    )
    best, trace = ga_optimize(basis, target, ga_config)
    classical = best_classical_fit(target)
    quantum = genome_profile(best, basis, target.grid_points)
    final_fitness = float(np.mean((quantum.doses - target.samples) ** 2))
    gap = abs(final_fitness - float(trace[-1]))
    tol = _FITNESS_CHECK_TOL * max(float(np.mean(target.samples**2)), np.finfo(float).tiny)
    if not gap <= tol:
        raise ToleranceError(
            f"GA fitness {float(trace[-1])!r} disagrees with the fitness "
            f"{final_fitness!r} of the emitted dose by {gap:.3e} (tolerance {tol:.3e})"
        )
    classical_curve = classical.curve(target.phis)

    _emit(
        cfg,
        ["phi", "target", "classical_best", "quantum_best"],
        [target.phis, target.samples, classical_curve, quantum.doses],
        title=f"Synthesized N={cfg.n} exposure",
    )
    summary = {
        "command": "synthesize",
        "n": cfg.n,
        "partitions": list(basis.partitions),
        "grid": target.grid_points,
        "seed": cfg.seed,
        "population": cfg.population,
        "generations": cfg.generations,
        "mutation_sigma": cfg.mutation_sigma,
        "crossover_rate": cfg.crossover_rate,
        "elite": cfg.elite,
        "fitness": final_fitness,
        "classical_error": classical.error,
        "classical_fit": {"a": classical.a, "b": classical.b, "theta0": classical.theta0},
        "scale": best.scale,
        "coefficients": [
            {"partition": p, "re": float(c.real), "im": float(c.imag)}
            for p, c in zip(basis.partitions, best.coefficients)
        ],
        "trace_initial": float(trace[0]),
        "trace_final": float(trace[-1]),
    }
    with open(cfg.out + "_summary.json", "w", encoding="ascii", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"GA fitness {final_fitness:.6e} vs classical error {classical.error:.6e} "
        f"(seed {cfg.seed})"
    )


_DISPATCH = {
    "fringe": cmd_fringe,
    "noon": cmd_noon,
    "classical": cmd_classical,
    "synthesize": cmd_synthesize,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        _DISPATCH[cfg.command](cfg)
    except ToleranceError as exc:
        print(f"tolerance violation: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"bad arguments: a dose exceeds the float range ({exc})", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
