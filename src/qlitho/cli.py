"""Command-line driver.

One executable, five subcommands selected by ``--command``: fringe,
noon, classical, synthesize, compare.  Every run is deterministic given
its full configuration (including the seed), emits CSV and/or SVG next
to the chosen output stem, and exits with

    0  success (all outputs written, internal checks passed)
    2  bad arguments or configuration
    3  I/O failure
    4  an internal numerical tolerance was violated

The option table ``_OPTIONS`` is the single list of options.  Each entry
is a ``--flag`` and a key of the optional ``--config`` file (plain
``key = value`` lines, ``-`` or ``_`` in keys), typed and defaulted by
the table.  Flags override the file, which overrides the defaults.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .baselines import _noon_grid_exposure
from .baselines import classical_n_photon, classical_one_photon, classical_two_photon, noon_exposure
from .dosing import (
    ExposureProfile,
    SubstrateConvention,
    _grid_profile,
    _input_doses,
    _spectral_doses,
    min_feature,
    noon_state,
    phase_grid,
)
from .errors import ToleranceError
from .fock import FockState, make_state
from .svgplot import _write_text, format_rows, write_line_chart
from .synthesis import (
    _ITERATIONS,
    PartitionBasis,
    best_classical_fit,
    fit_superposition,
    genome_profile,
    trench_target,
)

_CONVENTIONS = {
    "symmetric": SubstrateConvention.SYMMETRIC,
    "paper": SubstrateConvention.SINGLE_ARM,
}
_FORMATS = ("csv", "svg", "both")
# Fringe self-check tolerance at every N; see _checked_fringe.
_FRINGE_CHECK_TOL = 1e-9
# Solver trace against the fitness of the emitted dose, relative to the target's
# mean square (the error of a zero dose, which bounds every fitness).
_FITNESS_CHECK_TOL = 1e-9

_DEFAULT_GRID = 512

# name -> (type, default, help).  A default of None means "unset".
_OPTIONS = {
    "n": (int, 10, "photon number"),
    "partitions": (str, "1,2,3,4,5", "synthesize: comma-separated partition indices"),
    "grid": (int, None, f"phase grid points (default {_DEFAULT_GRID}; "
                        "synthesize --target: its row count)"),
    "convention": (str, "symmetric", "substrate convention: " + " or ".join(_CONVENTIONS)),
    "wavelength_nm": (float, None, "if given, noon prints the minimum feature size"),
    "seed": (int, 0, "synthesize: seed of the solver's starts"),
    "generations": (int, _ITERATIONS, "synthesize: cap on solver iterations"),
    "out": (str, None, "output stem (default: the command name)"),
    "format": (str, "csv", "output format: " + ", ".join(_FORMATS)),
    "target": (str, None, "synthesize: target CSV of phi,value rows"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlitho",
        description="Two-mode interferometric exposure simulator and pattern synthesizer.",
    )
    parser.add_argument("--command", required=True, choices=_DISPATCH)
    parser.add_argument(
        "--config", help="key = value file of the options below; flags take precedence"
    )
    for name, (kind, default, text) in _OPTIONS.items():
        if default is not None:
            text += f" (default {default})"
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=kind, default=None, help=text
        )
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            try:
                values[key] = _OPTIONS[key][0](value)
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


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Merge flags over config-file values over defaults, and check the result."""
    from_file = _read_config_file(args.config) if args.config else {}
    cfg = argparse.Namespace(command=args.command)
    for name, (_, default, _) in _OPTIONS.items():
        flag = getattr(args, name)
        setattr(cfg, name, flag if flag is not None else from_file.get(name, default))

    if cfg.convention not in _CONVENTIONS:
        raise ValueError(f"unknown convention {cfg.convention!r}")
    if cfg.format not in _FORMATS:
        raise ValueError(f"unknown format {cfg.format!r}")
    for name in ("n", "generations"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"--{name} must be a positive integer")
    if cfg.grid is None and (cfg.command != "synthesize" or cfg.target is None):
        cfg.grid = _DEFAULT_GRID
    if cfg.grid is not None and cfg.grid < 4:
        raise ValueError("--grid must be at least 4")
    if cfg.wavelength_nm is not None:
        min_feature(cfg.n, cfg.wavelength_nm)  # noon's own check, before any output

    cfg.convention = _CONVENTIONS[cfg.convention]
    cfg.partitions = _parse_partitions(cfg.partitions)
    cfg.out = cfg.out or cfg.command
    for suffix in (".csv", ".svg", ".json"):
        if cfg.out.endswith(suffix):
            cfg.out = cfg.out[: -len(suffix)]
    if os.path.basename(cfg.out) in ("", ".", ".."):
        raise ValueError("--out must name a file, not only a directory or a suffix")
    return cfg


def _write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """CSV with '.' decimals, ',' separators, LF endings, 17 significant digits."""
    _write_text(path, itertools.chain([",".join(header) + "\n"], format_rows(columns)))


def _emit(cfg: argparse.Namespace, header: list[str], columns: list[np.ndarray], title: str) -> None:
    phis = columns[0]
    if cfg.format in ("csv", "both"):
        _write_csv(cfg.out + ".csv", header, columns)
    if cfg.format in ("svg", "both"):
        series = [(name, col) for name, col in zip(header[1:], columns[1:])]
        write_line_chart(cfg.out + ".svg", phis, series, title=title)


def _checked_fringe(
    cfg: argparse.Namespace, state: FockState, n: int, site: str
) -> tuple[ExposureProfile, np.ndarray, np.ndarray]:
    """The n-photon fringe of ``state`` at ``site`` on the grid, checked
    against the closed form of noon_exposure at the phases it was dosed at:
    profile, analytic, |difference|.

    Each site has one evaluator.  At the substrate and the shifter it is
    one folded FFT (dosing._spectral_doses) at the exact grid phases
    2 pi g / G, and the closed form takes them reduced in integers
    (baselines._noon_grid_exposure): both are exact to about 1e-15 at
    every n.  At the inputs it doses every rounded grid phase
    (dosing._input_doses), checked at the same phase; only fringe doses
    there, at n = 2.  So one tolerance, _FRINGE_CHECK_TOL, holds at every
    n.  In the paper convention a NOON state's phase e^{i n phi} rides on
    the state: a phase shifter sits ahead of the substrate, commuted into
    its field.
    """
    phis = phase_grid(cfg.grid)
    if site == "inputs":
        doses = _input_doses(state, n, phis, cfg.convention)
        analytic = noon_exposure(n, phis, cfg.convention)
    else:
        doses = _spectral_doses(state, n, cfg.grid, cfg.convention, site)
        analytic = _noon_grid_exposure(n, cfg.grid, cfg.convention)
    profile = _grid_profile(phis, doses)
    errors = np.abs(profile.doses - analytic)
    worst = float(errors.max())
    if not worst <= _FRINGE_CHECK_TOL:
        raise ToleranceError(
            f"simulated {n}-photon fringe deviates from analytic form by {worst:.3e} "
            f"(tolerance {_FRINGE_CHECK_TOL:.3e})"
        )
    return profile, analytic, errors


def cmd_fringe(cfg: argparse.Namespace) -> None:
    """One- and two-photon fringes: classical baselines vs |1,1> fed into the inputs."""
    pair, _, errors = _checked_fringe(cfg, make_state({(1, 1): 1.0}), 2, "inputs")
    phis = pair.phis
    _emit(
        cfg,
        ["phi", "delta_1_classical", "delta_2_classical", "delta_2_quantum"],
        [phis, classical_one_photon(phis), classical_two_photon(phis), pair.doses],
        title="Exposure fringes",
    )
    print(f"two-photon fringe check: max deviation {float(errors.max()):.3e}")


def cmd_noon(cfg: argparse.Namespace) -> None:
    """Simulated N-photon path-entangled fringe against its analytic form."""
    profile, analytic, errors = _checked_fringe(cfg, noon_state(cfg.n), cfg.n, "shifter")
    _emit(
        cfg,
        ["phi", "simulated", "analytic", "abs_error"],
        [profile.phis, profile.doses, analytic, errors],
        title=f"N={cfg.n} entangled fringe",
    )
    print(f"max |simulated - analytic| = {float(errors.max()):.3e}")
    if cfg.wavelength_nm is not None:
        feature = min_feature(cfg.n, cfg.wavelength_nm)
        print(
            f"minimum feature at N={cfg.n}, wavelength {cfg.wavelength_nm:.17g} nm: "
            f"{feature:.17g} nm"
        )


def cmd_classical(cfg: argparse.Namespace) -> None:
    """Classical N-photon exposure baseline."""
    phis = phase_grid(cfg.grid)
    _emit(
        cfg,
        ["phi", "dose"],
        [phis, classical_n_photon(cfg.n, phis)],
        title=f"Classical N={cfg.n} exposure",
    )


def cmd_compare(cfg: argparse.Namespace) -> None:
    """Classical baseline against the simulated entangled fringe at equal N."""
    profile, _, _ = _checked_fringe(cfg, noon_state(cfg.n), cfg.n, "shifter")
    _emit(
        cfg,
        ["phi", "classical", "quantum"],
        [profile.phis, classical_n_photon(cfg.n, profile.phis), profile.doses],
        title=f"N={cfg.n}: classical vs entangled",
    )


def _load_target(path: str) -> ExposureProfile:
    """Rows of ``phi,value``; the first non-blank line may be a header."""
    phis = []
    values = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        rows = ((lineno, raw.strip()) for lineno, raw in enumerate(fh, 1) if raw.strip())
        for index, (lineno, line) in enumerate(rows):
            cells = line.split(",")
            if len(cells) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'phi,value'")
            try:
                phi, value = float(cells[0]), float(cells[1])
            except ValueError:
                if index == 0:
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: non-numeric row")
            phis.append(phi)
            values.append(value)
    if not phis:
        raise ValueError(f"{path}: no data rows")
    try:
        return ExposureProfile(phis, values)
    except ValueError as exc:
        raise ValueError(f"target {path}: {exc}") from None


def cmd_synthesize(cfg: argparse.Namespace) -> None:
    """Fit a partition superposition to the target pattern."""
    if cfg.convention is not SubstrateConvention.SYMMETRIC:
        raise ValueError(
            "synthesize supports only --convention symmetric: its partition "
            "basis is modelled in the symmetric substrate convention"
        )
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
    alpha, trace = fit_superposition(basis, target, cfg.generations, cfg.seed)
    classical = best_classical_fit(target)
    quantum = genome_profile(alpha, basis, target.grid_points).doses
    final_fitness = float(np.mean((quantum - target.doses) ** 2))
    gap = abs(final_fitness - float(trace[-1]))
    tol = _FITNESS_CHECK_TOL * max(float(np.mean(target.doses**2)), np.finfo(float).tiny)
    if not gap <= tol:
        raise ToleranceError(
            f"solver fitness {float(trace[-1])!r} disagrees with the fitness "
            f"{final_fitness!r} of the emitted dose by {gap:.3e} (tolerance {tol:.3e})"
        )
    classical_curve = classical.curve(target.phis)
    norm = float(np.linalg.norm(alpha))

    _emit(
        cfg,
        ["phi", "target", "classical_best", "quantum_best"],
        [target.phis, target.doses, classical_curve, quantum],
        title=f"Synthesized N={cfg.n} exposure",
    )
    summary = {
        "command": "synthesize",
        "n": cfg.n,
        "partitions": list(basis.partitions),
        "grid": target.grid_points,
        "convention": "symmetric",
        "seed": cfg.seed,
        "generations": cfg.generations,
        "iterations": len(trace) - 1,
        "fitness": final_fitness,
        "classical_error": classical.error,
        "classical_fit": {"a": classical.a, "b": classical.b, "theta0": classical.theta0},
        "scale": norm**2,
        "coefficients": [
            {"partition": p, "re": float(c.real), "im": float(c.imag)}
            for p, c in zip(basis.partitions, alpha / norm)
        ],
        "trace_initial": float(trace[0]),
        "trace_final": float(trace[-1]),
    }
    _write_text(cfg.out + "_summary.json", [json.dumps(summary, indent=2, sort_keys=True), "\n"])
    print(
        f"synthesis fitness {final_fitness:.6e} vs classical error {classical.error:.6e} "
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
    except MemoryError as exc:
        print(f"bad arguments: the run needs more memory than is free ({exc})", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
