"""Run one workload's ops in a closed loop and report timings.

One caller, one process: each op starts when the previous one returns.
After one warm-up pass the op list is repeated until ``--seconds`` have
been spent; with ``--trace 0`` a reference probe is timed around every
op to give the speed-normalized wall time.  With ``--trace 1`` the first
half of the time runs untraced and the second half traced, which gives
the per-layer metrics and the tracing overhead.  The known-defect probes run once, untraced,
after the timed passes.  Every op writes its outputs under ``--outdir``;
the checker reads them from there in a separate process.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
       --trace 0|1 --outdir DIR --result FILE [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _import_package():
    import qlitho
    import qlitho.cli

    src = (ROOT / "src").resolve()
    if src not in Path(qlitho.__file__).resolve().parents:
        raise ImportError(f"qlitho imported from {qlitho.__file__}, not from {src}")
    return qlitho


def _run_op(pkg, op, outdir, dense_inputs, keep):
    """Execute one op; return (ok, detail).  Never raises."""
    stem = str(outdir / op["name"])
    try:
        if op["kind"] == "cli":
            with contextlib.redirect_stdout(None):
                code = pkg.cli.main(op["argv"] + ["--out", stem])
            return code == 0, f"exit {code}"
        conv = pkg.SubstrateConvention.SYMMETRIC if op["convention"] == "symmetric" \
            else pkg.SubstrateConvention.SINGLE_ARM
        profile = pkg.exposure_profile(dense_inputs[op["name"]], op["n"], op["grid"], conv,
                                       from_input=True)
        harmonics = pkg.fourier_components(
            profile, workloads.max_harmonic(op["n"], op["grid"], op["convention"]))
        keep[op["name"]] = (profile.phis, profile.doses, harmonics)
        return True, "returned"
    except Exception as exc:  # an op that raises is a failed op, not a harness crash
        return False, "".join(traceback.format_exception_only(type(exc), exc)).strip()


# Typical time of _reference() on the 2-CPU Xeon machine the benchmark was
# defined on; only sets the scale of wall_norm_s.
REFERENCE_NOMINAL_S = 0.05


def _reference() -> float:
    """Time fixed ladder-style arithmetic that does not touch the package.

    Where cores are shared with other tenants, machine speed can drift by
    up to 1.7x over seconds to minutes (seen on a 2-CPU KVM guest).  Timed
    around every op, this probe tracks that drift so that wall_norm_s can
    divide it out.
    """
    t0 = time.perf_counter()
    acc: dict = {}
    a, b = 0.6 + 0.8j, 0.8 - 0.6j
    for _ in range(6):
        for n in range(100):
            for k in range(n + 1):
                c = math.comb(n, k) * a**k * b**(n - k) * math.exp(0.5 * math.lgamma(n + 1) - n)
                key = (k, n - k)
                v = acc.get(key, 0j) + c
                if abs(v) >= 1e-15:
                    acc[key] = v
    return time.perf_counter() - t0


def _pass(pkg, timed, outdir, dense_inputs, keep, failures, ref_times=None):
    """Run the op list once; return each op's wall time.

    With ``ref_times``, the reference probe also runs before every op and
    after the last, and ``ref_times`` gets, for each op, the mean of the
    probe times before and after it."""
    times, around = [], []
    failures.append({})
    before = _reference() if ref_times is not None else None
    for op in timed:
        t0 = time.perf_counter()
        ok, detail = _run_op(pkg, op, outdir, dense_inputs, keep)
        times.append(time.perf_counter() - t0)
        if not ok:
            failures[-1][op["name"]] = detail
        if ref_times is not None:
            after = _reference()
            around.append((before + after) / 2)
            before = after
    if ref_times is not None:
        ref_times.append(around)
    return times


def _repeat(budget_s, one_pass):
    """Run passes until the budget is spent (at least one); return per-op times."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < budget_s:
        times.append(one_pass())
    return times


def _wall(per_op_times, reduce):
    """Wall time of one pass: each op's time reduced over passes, summed."""
    return float(sum(reduce(op_times) for op_times in zip(*per_op_times)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    pkg = _import_package()
    timed, probes = workloads.ops(args.workload, args.seed)
    dense_inputs = {
        op["name"]: pkg.make_state(workloads.dense_state(op["n"], op["state_seed"]))
        for op in timed if op["kind"] == "dense"
    }
    keep: dict = {}
    failures: list[dict] = []  # per pass: {op name: why it failed}

    def one_pass(ref_times=None):
        return _pass(pkg, timed, args.outdir, dense_inputs, keep, failures, ref_times)

    one_pass()  # warm-up
    failures.clear()
    result = {"ops": [op["name"] for op in timed]}
    if args.trace:
        from tracer import Tracer

        untraced = _repeat(args.seconds / 2, one_pass)
        tracer = Tracer(pkg)
        tracer.install()
        try:
            traced = _repeat(args.seconds / 2, one_pass)
        finally:
            tracer.uninstall()
        # Means, not medians, so that layer self times add up to the pass time.
        result["per_layer"] = tracer.layer_metrics(
            len(traced), _wall(traced, np.mean), _wall(untraced, np.mean))
        result["op_s"] = {"untraced": untraced, "traced": traced}
        passes = len(untraced) + len(traced)
        if args.spans:
            tracer.save(args.spans)
    else:
        ref_times: list[list[float]] = []
        result["op_s"] = _repeat(args.seconds, lambda: one_pass(ref_times))
        result["ref_s"] = ref_times
        result["wall_s"] = _wall(result["op_s"], np.median)
        normalized = np.asarray(result["op_s"]) / np.asarray(ref_times) * REFERENCE_NOMINAL_S
        result["wall_norm_s"] = _wall(normalized, np.median)
        passes = len(result["op_s"])
    result["attempted"] = passes * len(timed)
    result["op_failures"] = failures
    # Peak RSS of this process over the timed passes, before the probes run.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result["probes"] = {}
    for op in probes:
        ok, detail = _run_op(pkg, op, args.outdir, dense_inputs, keep)
        result["probes"][op["name"]] = {"ran_ok": ok, "detail": detail}
    for name, (phis, doses, harmonics) in keep.items():
        np.savez(args.outdir / f"{name}.npz", phis=phis, doses=doses, harmonics=harmonics)

    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
