"""Check every op's outputs against references computed here.

Runs in its own process after the worker has exited, so checking costs
neither timed time nor the worker's peak RSS.  It never imports the
package under test: CLI outputs are compared with analytic fringes, and
dense-pipeline doses with ``tests/oracles.py`` ``dense_dose`` evaluated
in the Heisenberg picture through an interferometer matrix built here.

Usage: python3 perfbench/check.py --workload W --seed N --outdir DIR --result FILE
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import json
import math
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Agreement required, relative to the size of the dose being checked.
REL_TOL = 1e-9
# Points per dense profile compared with the (slow) dense-matrix oracle.
DENSE_SAMPLES = 3


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _close(name, got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    _require(np.all(np.isfinite(got)), f"{name}: non-finite values")
    scale = max(1.0, float(np.abs(want).max()))
    worst = float(np.abs(got - want).max())
    _require(worst <= REL_TOL * scale, f"{name}: off by {worst:.3e} (scale {scale:.3e})")


def _grid(g):
    return np.arange(g) * (2.0 * np.pi / g)


def _classical(n, phis):
    return 2.0 * ((1.0 + np.cos(2.0 * phis)) / 2.0) ** n


def _noon(n, phis, convention):
    factor = 2.0 if convention == "symmetric" else 1.0
    return 1.0 + np.cos(factor * n * phis)


def _read_csv(stem, header, grid=None):
    path = Path(f"{stem}.csv")
    _require(path.is_file(), f"{path.name} missing")
    with open(path, encoding="ascii") as fh:
        got_header = fh.readline().strip().split(",")
        _require(got_header == header, f"{path.name}: header {got_header} != {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(data.shape[1] == len(header), f"{path.name}: {data.shape[1]} columns")
    phis = data[:, 0]
    if grid is not None:
        _require(len(phis) == grid, f"{path.name}: {len(phis)} rows, expected {grid}")
    _require(np.abs(phis - _grid(len(phis))).max() <= 1e-12, f"{path.name}: phi column off grid")
    return [data[:, i] for i in range(len(header))]


def _check_svg(stem, series):
    path = Path(f"{stem}.svg")
    _require(path.is_file(), f"{path.name} missing")
    root = ET.parse(path).getroot()
    _require(root.tag.endswith("svg"), f"{path.name}: root element {root.tag}")
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    _require(len(lines) == series, f"{path.name}: {len(lines)} series, expected {series}")


def check_cli(op, outdir):
    stem = outdir / op["name"]
    kind = op["expect"]
    if kind == "noon":
        phis, sim, analytic, err = _read_csv(stem, ["phi", "simulated", "analytic", "abs_error"],
                                             op["grid"])
        ref = _noon(op["n"], phis, op["convention"])
        _close("simulated", sim, ref)
        _close("analytic", analytic, ref)
        _close("abs_error", err, np.abs(sim - analytic))
        series = 3
    elif kind == "compare":
        phis, classical, quantum = _read_csv(stem, ["phi", "classical", "quantum"], op["grid"])
        _close("classical", classical, _classical(op["n"], phis))
        _close("quantum", quantum, _noon(op["n"], phis, op["convention"]))
        series = 2
    elif kind == "classical":
        phis, dose = _read_csv(stem, ["phi", "dose"], op["grid"])
        _close("dose", dose, _classical(op["n"], phis))
        series = 1
    elif kind == "fringe":
        phis, d1, d2c, d2q = _read_csv(
            stem, ["phi", "delta_1_classical", "delta_2_classical", "delta_2_quantum"], op["grid"])
        _close("delta_1_classical", d1, _classical(1, phis))
        _close("delta_2_classical", d2c, _classical(2, phis))
        _close("delta_2_quantum", d2q, _noon(2, phis, op["convention"]))
        series = 3
    elif kind == "synthesize":
        return check_synthesize(op, stem)
    else:
        raise CheckFailed(f"unknown expectation {kind!r}")
    if op["fmt"] == "both":
        _check_svg(stem, series)
    return {}


def check_synthesize(op, stem):
    phis, target, classical, quantum = _read_csv(
        stem, ["phi", "target", "classical_best", "quantum_best"])
    trench = np.where((phis <= np.pi / 2) | (phis > 3 * np.pi / 2), 1.0, 0.0)
    _require(np.array_equal(target, trench), "target column is not the trench")
    summary_path = Path(f"{stem}_summary.json")
    _require(summary_path.is_file(), f"{summary_path.name} missing")
    summary = json.loads(summary_path.read_text())
    fit = summary["classical_fit"]
    _require(fit["a"] >= fit["b"] >= 0.0, f"classical fit violates a >= b >= 0: {fit}")
    _close("classical curve", classical, fit["a"] + fit["b"] * np.cos(2.0 * phis + fit["theta0"]))
    fit_mse = float(np.mean((quantum - target) ** 2))
    classical_mse = float(np.mean((classical - target) ** 2))
    for name, got, want in (("fitness", summary["fitness"], fit_mse),
                            ("classical_error", summary["classical_error"], classical_mse),
                            ("trace_final", summary["trace_final"], summary["fitness"])):
        _require(abs(got - want) <= 1e-8 * max(1.0, abs(want)),
                 f"summary {name} {got!r} != recomputed {want!r}")
    _require(np.all(quantum >= 0.0), "negative synthesized dose")
    if op["fmt"] == "both":
        _check_svg(stem, 3)
    if not op["converged"]:
        return {}
    _require(summary["fitness"] < summary["classical_error"],
             f"GA fitness {summary['fitness']} does not beat classical "
             f"{summary['classical_error']}")
    return {"fit_mse": summary["fitness"], "classical_mse": summary["classical_error"]}


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _substrate_coefficients(phi, convention):
    """Field coefficients on the *input* modes: (alpha, beta) @ T(phi).

    The instrument is mirror . 50/50 splitter, plus a phase shifter
    diag(e^{i phi}, 1) in one arm for the single-arm convention; the
    substrate field is e^{i phi} c + e^{-i phi} d (symmetric) or c + d.
    """
    s = 1.0 / math.sqrt(2.0)
    chain = -np.array([[-s, 1j * s], [1j * s, -s]])
    if convention == "symmetric":
        field = np.array([cmath.exp(1j * phi), cmath.exp(-1j * phi)])
    else:
        chain = np.diag([cmath.exp(1j * phi), 1.0]) @ chain
        field = np.array([1.0, 1.0])
    return field @ chain


def check_dense(op, outdir, seed, oracles):
    path = outdir / f"{op['name']}.npz"
    _require(path.is_file(), f"{path.name} missing")
    data = np.load(path)
    n, grid = op["n"], op["grid"]
    phis, doses, harmonics = data["phis"], data["doses"], data["harmonics"]
    _require(len(doses) == grid and np.all(np.isfinite(doses)), "dose array malformed")
    _require(np.abs(phis - _grid(grid)).max() <= 1e-12, "phis off grid")
    amps = workloads.dense_state(n, op["state_seed"])
    scale = max(1.0, float(np.abs(doses).max()))
    picks = np.random.default_rng([seed, 99]).choice(grid, DENSE_SAMPLES, replace=False)
    for k in picks:
        alpha, beta = _substrate_coefficients(float(phis[k]), op["convention"])
        want = oracles.dense_dose(amps, n, n, alpha, beta)
        _require(abs(doses[k] - want) <= REL_TOL * scale,
                 f"dose at point {k} is {float(doses[k])!r}, oracle {want!r}")
    h_max = workloads.max_harmonic(n, grid, op["convention"])
    _require(len(harmonics) == h_max + 1, f"{len(harmonics)} harmonics, expected {h_max + 1}")
    dft = np.exp(-1j * np.outer(np.arange(h_max + 1), phis)) @ doses / grid
    _require(np.abs(harmonics - dft).max() <= REL_TOL * scale, "harmonics differ from the DFT")
    band = 2 * n if op["convention"] == "symmetric" else n
    _require(np.abs(harmonics[band + 1:]).max(initial=0.0) <= REL_TOL * scale,
             f"harmonics above {band} do not vanish")
    return {}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    timed, probes = workloads.ops(args.workload, args.seed)
    oracles = _load_oracles() if any(op["kind"] == "dense" for op in timed) else None
    verdicts = {}
    for op in timed + probes:
        try:
            if op["kind"] == "dense":
                values = check_dense(op, args.outdir, args.seed, oracles)
            else:
                values = check_cli(op, args.outdir)
            verdicts[op["name"]] = {"ok": True, "values": values}
        except Exception as exc:  # a malformed output fails its op, not the checker
            verdicts[op["name"]] = {"ok": False, "detail": f"{type(exc).__name__}: {exc}"}
    args.result.write_text(json.dumps(verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
