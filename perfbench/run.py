"""qlitho benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload synth_trench --seed 1 --seconds 20 --trace 0

Steps, each in its own process so that none disturbs another:

1. set-up (``--trace 0`` only): fresh interpreters import ``qlitho`` and
   ``qlitho.cli`` and build the CLI parser; ``setup_s`` is their median;
2. the worker (``worker.py``) runs the workload's ops in a closed loop
   with one caller and records pass times, its peak RSS, and with
   ``--trace 1`` the per-layer spans;
3. the checker (``check.py``) verifies every op's outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A fuller record, with the run environment, is written under
``.perfbench_out/results/``.  Exits non-zero, printing no result, if the
package sources or the test oracles are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

OUT = ROOT / ".perfbench_out"
SETUP_LAUNCHES = 15
# Whole run must end well inside 180 s; the worker gets what is left of this.
RUN_DEADLINE_S = 170.0
CHECK_TIMEOUT_S = 60.0
# Stands in for fit_mse / classical_mse on workloads that synthesize nothing.
NOT_APPLICABLE = 1.0

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import qlitho, qlitho.cli
qlitho.cli.build_parser()
print(time.perf_counter() - t0)
"""


def _threads() -> int:
    return len(os.sched_getaffinity(0))


def _env() -> dict:
    env = dict(os.environ)
    cap = str(_threads())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env.pop("PYTHONPATH", None)
    return env


def _run_environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": _threads(), "cpu": cpu, "blas_thread_cap": _threads()}


def _setup_times(src: Path) -> list[float]:
    code = SETUP_CODE.format(src=str(src))
    times = []
    for i in range(SETUP_LAUNCHES + 1):  # the first launch also writes bytecode caches
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=_env(), cwd=ROOT, timeout=60, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _child(script: str, argv: list[str], log: Path, timeout: float) -> None:
    with open(log, "w") as err:
        proc = subprocess.run([sys.executable, str(HERE / script)] + argv, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=err, env=_env(), cwd=ROOT,
                              timeout=timeout)
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise RuntimeError(f"{script} exited {proc.returncode}:\n{tail}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.monotonic()

    src = ROOT / "src"
    for needed in (src / "qlitho" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a full "
                  "checkout of the repository", file=sys.stderr)
            return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    tmp = Path(tempfile.mkdtemp(prefix=f"{tag}_", dir=OUT))
    try:
        setup = [] if args.trace else _setup_times(src)
        worker_out = tmp / "worker.json"
        check_out = tmp / "check.json"
        outputs = tmp / "ops"
        outputs.mkdir()
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        worker_argv = common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--outdir", str(outputs), "--result", str(worker_out)]
        if args.trace:
            worker_argv += ["--spans", str(OUT / "results" / f"{tag}_spans.npz")]
        budget = RUN_DEADLINE_S - CHECK_TIMEOUT_S - (time.monotonic() - started)
        _child("worker.py", worker_argv, tmp / "worker.log", budget)
        _child("check.py", common + ["--outdir", str(outputs), "--result", str(check_out)],
               tmp / "check.log", CHECK_TIMEOUT_S)
        worker = json.loads(worker_out.read_text())
        verdicts = json.loads(check_out.read_text())
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    timed, probes = workloads.ops(args.workload, args.seed)
    *earlier, last = worker["op_failures"]
    # The checker saw the last pass's outputs: a failed check fails that execution.
    for op in timed:
        if not verdicts[op["name"]]["ok"]:
            last.setdefault(op["name"], verdicts[op["name"]]["detail"])
    failed = sum(map(len, earlier)) + len(last)
    failures = {name: why for p in earlier + [last] for name, why in p.items()}
    for op in probes:
        probe, verdict = worker["probes"][op["name"]], verdicts[op["name"]]
        if not (probe["ran_ok"] and verdict["ok"]):
            failures[op["name"]] = verdict["detail"] if probe["ran_ok"] else probe["detail"]

    values = {}
    for op in timed:
        values.update(verdicts[op["name"]].get("values", {}))
    if args.trace:
        metrics = {m["name"]: {"value": worker["per_layer"][m["name"]], "unit": m["unit"]}
                   for m in _spec()["per_layer"]}
        samples = {k: len(v) for k, v in worker["op_s"].items()}
    else:
        measured = {
            "setup_s": statistics.median(setup),
            "wall_norm_s": worker["wall_norm_s"],
            "ok_frac": 1.0 - len(failures) / (len(timed) + len(probes)),
            "peak_rss_mb": worker["peak_rss_mb"],
            "fit_mse": values.get("fit_mse", NOT_APPLICABLE),
            "classical_mse": values.get("classical_mse", NOT_APPLICABLE),
        }
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                   for m in _spec()["end_to_end"]}
        samples = {"setup_s": len(setup), "wall_norm_s": len(worker["op_s"])}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _run_environment(), "metrics": metrics,
        "samples": samples, "op_s": worker["op_s"], "ref_s": worker.get("ref_s"),
        "wall_s": worker.get("wall_s"), "setup_s": setup,
        "ops": worker["ops"], "op_failures": worker["op_failures"],
        "probes": worker["probes"], "checks": verdicts,
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  samples {samples}")
    print(f"environment {json.dumps(record['environment'])}")
    for name, why in failures.items():
        print(f"FAILED op {name}: {why}")
    if not args.trace:
        print(f"{'wall_s (raw, not normalized)':34s} {worker['wall_s']:.6g} s")
        ref = statistics.median(t for per_pass in worker["ref_s"] for t in per_pass)
        print(f"{'reference probe (median)':34s} {ref:.6g} s")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": worker["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
