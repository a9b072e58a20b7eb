"""perfbench entry point: one workload, one seed, one fresh process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table4_cold --seed 0 --seconds 20 --trace 0

Prints every metric with its unit, then, as the last stdout line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload untraced and
then traced (two fresh processes) and reports the per-layer metrics, the
tracing overhead and the wrapper-versus-obs counter cross-checks.

The workload runs in a child process with ``PYTHONHASHSEED`` pinned and
the checkout's ``src`` on ``PYTHONPATH``; nothing is installed.  Without
``src/repro`` next to ``perfbench`` the benchmark exits with status 2.
Work per run is fixed (see README.md); ``--seconds`` is the nominal
measured length that work was sized to, and is recorded, not enforced.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from harness import REF_KERNEL_S
from layers import METRICS, ROWS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table4_cold", "msri_eco", "serve_mixed", "ard_batch")
RUN_BUDGET_S = 170.0  # every child of one invocation must end within this

#: end-to-end metric -> (field of the child's report, unit)
END_TO_END = {
    "primary_ref_ms": ("primary_ref_ms", "ms"),
    "secondary_ref_ms": ("secondary_ref_ms", "ms"),
    "ops_ref_s": ("ops_ref_s", "1/s"),
    "setup_s": ("setup_s", "s"),
    "peak_rss_mb": ("peak_rss_mb", "MB"),
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("REPRO_OBS", "REPRO_CHECK", "PYTHONPATH"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _end_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left in a child's process group, reap the child and
    give the rest (the serve daemon, should the child have died first) up
    to 5 s to vanish; SIGKILL cannot be ignored, so they have ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(
    workload: str, seed: int, trace: bool, deadline: float,
    untraced_wall_s: float = 0.0,
) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        "--untraced-wall-s", repr(untraced_wall_s),
    ]
    proc = subprocess.Popen(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,  # the serve daemon joins this group
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} exceeded {RUN_BUDGET_S:.0f} s")
    finally:
        _end_group(proc)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {workload} child exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {workload} child printed no report")
    return json.loads(lines[-1])


def print_report(report: dict, title: str) -> None:
    print(f"# {title}: {report['workload']} seed {report['seed']}")
    for name, (field, unit) in END_TO_END.items():
        print(f"{name:28s} {report[field]:14.6f} {unit}")
    for name, d in report["details"].items():
        extra = f"  (n={d['samples']}"
        extra += f", p{d['percentile']:g})" if "percentile" in d else ")"
        print(f"{name:28s} {d['value']:14.6f} {d['unit']}{extra}")
    kernel = sorted(report["host_kernel_ms"])
    print(f"{'setup rounds (raw)':28s} "
          + " ".join(f"{t:.4f}" for t in report["setup_rounds_s"]) + " s")
    print(f"{'host kernel min/median/max':28s} {kernel[0]:.3f} "
          f"{kernel[len(kernel) // 2]:.3f} {kernel[-1]:.3f} ms"
          f"  (n={len(kernel)}, reference {REF_KERNEL_S * 1e3:g} ms)")
    print(f"{'samples':28s} {report['samples']}")
    print(f"{'output checks':28s} {report['attempted'] - report['failed']}"
          f"/{report['attempted']} passed")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = run_child(args.workload, args.seed, False, deadline)
    out_dir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump(untraced, fh)
    print_report(untraced, "untraced")
    attempted, failed = untraced["attempted"], untraced["failed"]
    if args.trace:
        traced = run_child(
            args.workload, args.seed, True, deadline, untraced["op_wall_s"])
        attempted += traced["attempted"]
        failed += traced["failed"]
        print(f"# traced: {args.workload} seed {args.seed}")
        units = dict(METRICS)
        for name, value in traced["layers"].items():
            print(f"{name:28s} {value:14.6g} {units[name]}")
        ops = traced["layers"]["trace.ops"]
        rows = sum(traced["layers"][name] for name in ROWS)
        rows += traced["layers"]["trace.other_s"]
        print(f"{'rows + other (x ops)':28s} {rows * ops:14.6g} s"
              f"  = trace.whole_s {traced['layers']['trace.whole_s']:.6g} s")
        for check in traced["cross_checks"]:
            status = "ok" if check["ok"] else "MISMATCH"
            print(f"  cross-check {status}: {check['check']}: "
                  f"wrapper {check['wrapper']:g} obs {check['obs']:g}")
            if not check["ok"]:
                failed += 1
            attempted += 1
        metrics = {
            name: {"value": traced["layers"][name], "unit": unit}
            for name, unit in METRICS
        }
    else:
        metrics = {
            name: {"value": untraced[field], "unit": unit}
            for name, (field, unit) in END_TO_END.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
