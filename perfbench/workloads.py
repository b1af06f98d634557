"""Workload definitions: the op list each workload runs, made from a seed.

This module imports numpy only, never the package under test, so the
worker (which runs the ops) and the checker (which verifies their
outputs) build the same inputs from the same seed independently.

Each op is a plain dict:

* ``kind == "cli"``: one in-process ``qlitho.cli.main(argv + ["--out", stem])``
  call.  ``expect`` names the analytic form the checker compares against.
* ``kind == "dense"``: one ``exposure_profile(state, n, grid, convention,
  from_input=True)`` call followed by ``fourier_components``.  The state is
  a dense N-photon sector state drawn from ``state_seed``.

``probe`` ops are the known-defect invocations.  They run once per run,
after the timed passes, and are checked against their correct outputs;
they are not part of the timed op list.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("synth_trench", "cli_sweep", "dense_pipeline")

# A workload seed maps to a GA seed in [0, 2**31).
_GA_SEED_MOD = 2**31


def ga_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 0]).integers(_GA_SEED_MOD))


def _cli(name, argv, expect, fmt="both", **extra):
    """``fmt`` is the output format the argv selects (the CLI default is csv)."""
    op = {"name": name, "kind": "cli", "argv": argv, "expect": expect, "fmt": fmt}
    op.update(extra)
    return op


def _noon(name, n, grid, convention="symmetric"):
    argv = ["--command", "noon", "--n", str(n), "--grid", str(grid),
            "--convention", convention, "--format", "both"]
    return _cli(name, argv, "noon", n=n, grid=grid, convention=convention)


def _synth(name, seed, extra_argv, converged, fmt="both"):
    """``converged``: a full-length GA run, which must beat the classical fit
    and supplies the fit_mse / classical_mse metrics."""
    argv = ["--command", "synthesize", "--seed", str(seed), "--format", fmt] + extra_argv
    return _cli(name, argv, "synthesize", fmt=fmt, converged=converged)


def ops(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """(timed ops, known-defect probes) of one workload for one seed."""
    gs = ga_seed(seed)
    if workload == "synth_trench":
        return [_synth("synthesize_default", gs, [], converged=True)], []
    if workload == "cli_sweep":
        timed = [
            _noon("noon_n2_g32768", 2, 32768),
            _noon("noon_n30_g32768", 30, 32768),
            _noon("noon_paper_n30_g32768", 30, 32768, "paper"),
            _cli("compare_n100_g32768",
                 ["--command", "compare", "--n", "100", "--grid", "32768", "--format", "both"],
                 "compare", n=100, grid=32768, convention="symmetric"),
            _cli("classical_n12_g32768",
                 ["--command", "classical", "--n", "12", "--grid", "32768", "--format", "both"],
                 "classical", n=12, grid=32768),
            _cli("fringe_paper_g4096",
                 ["--command", "fringe", "--convention", "paper", "--grid", "4096",
                  "--format", "both"],
                 "fringe", grid=4096, convention="paper"),
            _synth("synthesize_gen2_g8192", gs, ["--generations", "2", "--grid", "8192"],
                   converged=False),
        ]
        probes = [
            _synth("probe_synthesize_n30_p10_12_15", gs,
                   ["--n", "30", "--partitions", "10,12,15", "--generations", "2",
                    "--grid", "64"],
                   converged=False, fmt="csv"),
            _cli("probe_noon_n171", ["--command", "noon", "--n", "171"], "noon",
                 n=171, grid=512, convention="symmetric", fmt="csv"),
            _cli("probe_classical_n1100", ["--command", "classical", "--n", "1100"],
                 "classical", n=1100, grid=512, fmt="csv"),
        ]
        return timed, probes
    if workload == "dense_pipeline":
        specs = ((12, 512, "paper"), (24, 256, "paper"), (40, 1024, "symmetric"))
        timed = [
            {"name": f"dense_n{n}_g{g}_{conv}", "kind": "dense", "n": n, "grid": g,
             "convention": conv, "state_seed": [seed, i]}
            for i, (n, g, conv) in enumerate(specs)
        ]
        return timed, []
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def dense_state(n: int, state_seed) -> dict[tuple[int, int], complex]:
    """Normalized amplitudes on every pair (k, n-k) of the n-photon sector."""
    rng = np.random.default_rng(state_seed)
    amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    amps /= np.linalg.norm(amps)
    return {(k, n - k): complex(a) for k, a in enumerate(amps)}


def max_harmonic(n: int, grid: int, convention: str) -> int:
    """Harmonics requested from fourier_components: two past the band edge.

    An n-photon sector dose is a trigonometric polynomial of degree 2n
    (SYMMETRIC) or n (SINGLE_ARM), so the extra harmonics must vanish.
    """
    band = 2 * n if convention == "symmetric" else n
    return min(band + 2, grid // 2 - 1)
