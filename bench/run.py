"""Benchmark of hqn, run from the root of a source checkout.

    python3 bench/run.py --workload curves|oracles|verify --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` it times whole rounds of the workload, one operation
at a time in this one process, until S seconds have passed, and reports
the end-to-end metrics. With
``--trace 1`` it runs a fixed amount of the workload twice, plain and
then traced (see spans.py), and reports per-layer call counts and self
times; the traced pass's extra wall time is the tracing overhead. Both
check the program's outputs. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The lines
before it list the same metrics, and the output-quality figures, for a
reader. See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread, and hqn's own default (no family thread pool), so the
# load stays on one core of a small host and the default path is measured.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HQN_THREADS", None)

import argparse
import collections
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
)

# Public functions whose calls and self time are reported, by module.
TRACED = {
    "reduction": ("ode_rhs", "volume_functional", "first_integral_values"),
    "integrator": ("integrate_profile", "solve_ivp"),
    "cli": ("main",),
    "isometries": ("qmat_to_real", "qmat_expm", "sp_defect", "act",
                   "act_horo_closed"),
    "quaternion": ("mul", "left_mult_matrix"),
    "charts": ("convert", "ball_point", "ball_metric_matrix", "metric_matrix"),
    "loci": ("canonical_bisector_residual", "fan_at_origin_residual"),
    "oracles": ("killing_volume", "killing_ratio_spread",
                "ambient_mean_curvature"),
}
QUALITY = (
    ("op_fail_share", "frac"),
    ("check_fail_share", "frac"),
    ("curve_err_max", "abs"),
    ("killing_spread_max", "rel"),
    ("curvature_err_max", "abs"),
)


def per_layer_units() -> list[tuple[str, str]]:
    units = []
    for module, functions in TRACED.items():
        for fn in functions:
            units += [(f"{module}.{fn}.calls", "count"),
                      (f"{module}.{fn}.self_s", "s")]
    units += [("integrator.solve_ivp.nfev", "count"),
              ("integrator.solve_ivp.steps", "count"),
              ("trace.overhead_frac", "frac")]
    return units + list(QUALITY)


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter that imports hqn.cli."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import hqn.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Per-operation outcomes of one pass."""

    def __init__(self):
        self.seconds: list[float] = []
        self.op_items: list[int] = []
        self.items = 0
        self.failed = 0
        self.errors: collections.Counter = collections.Counter()

    def run(self, workload, ops) -> None:
        for op in ops:
            self.op_items.append(op.items)
            t0 = perf_counter()
            try:
                result = op.call()
            except (Exception, SystemExit) as exc:
                self.seconds.append(perf_counter() - t0)
                self.failed += 1
                self.errors[f"{type(exc).__name__}: {exc}"] += 1
            else:
                self.seconds.append(perf_counter() - t0)
                try:
                    ok = op.done(result)
                except Exception as exc:
                    workload.problems.append(f"output check raised {exc!r}")
                    ok = False
                if ok:
                    self.items += op.items
                else:
                    self.failed += 1
                    self.errors[f"returned {result!r}"] += 1

    @property
    def attempted(self) -> int:
        return len(self.seconds)


def measure(workload, seconds: float) -> tuple[Tally, dict]:
    setup_s = setup_seconds()
    Tally().run(workload, workload.warm_up())
    tally = Tally()
    # Whole rounds only, so every run has the same mix of operations; the
    # run ends with the first round to finish after `seconds`.
    deadline = perf_counter() + seconds
    r = 0
    while perf_counter() < deadline:
        tally.run(workload, workload.round(r))
        r += 1
    # An operation's time, split evenly over the items it covers (the 20
    # points of one Killing-spread call, the two calls of one verify
    # operation), weighted by items.
    items = np.array(tally.op_items)
    item_ms = np.repeat(np.array(tally.seconds) * 1e3 / items, items)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": tally.items / float(np.sum(tally.seconds)),
        "item_ms_p50": float(np.median(item_ms)),
        "item_ms_p90": float(np.percentile(item_ms, 90)),
    }
    return tally, metrics


def trace(workload) -> tuple[Tally, dict]:
    from spans import Tracer

    Tally().run(workload, workload.warm_up())

    def fixed_work():
        return [op for r in range(workload.trace_rounds)
                for op in workload.round(r)]

    plain_ops = fixed_work()
    t0 = perf_counter()
    Tally().run(workload, plain_ops)
    plain_s = perf_counter() - t0

    traced_ops = fixed_work()
    tracer = Tracer()
    tally = Tally()
    with tracer.installed():
        t0 = perf_counter()
        tally.run(workload, traced_ops)
        traced_s = perf_counter() - t0

    metrics = {}
    for module, functions in TRACED.items():
        for fn in functions:
            name = f"{module}.{fn}"
            if name not in tracer.calls:
                print(f"# {name} not found in hqn; reported as 0")
            metrics[f"{name}.calls"] = tracer.calls.get(name, 0)
            metrics[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    metrics["integrator.solve_ivp.nfev"] = tracer.nfev
    metrics["integrator.solve_ivp.steps"] = tracer.steps
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return tally, metrics


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    workdir_root = ROOT / ".bench_work"
    workdir_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=workdir_root))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            tally, metrics = trace(workload)
            units = per_layer_units()
        else:
            tally, metrics = measure(workload, args.seconds)
            units = list(END_TO_END)
        workload.finish(tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if threading.active_count() != 1:
        workload.problems.append("worker threads were left running")

    quality = {name: 0.0 for name, _ in QUALITY}
    quality["op_fail_share"] = tally.failed / tally.attempted
    quality.update(workload.quality())
    if args.trace:
        metrics.update(quality)

    print(f"# hqn benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} operations={tally.attempted} failed={tally.failed}")
    for err, count in sorted(tally.errors.items()):
        print(f"# failed x{count}: {err}")
    for problem in workload.problems:
        print(f"# output check failed: {problem}")
    all_units = {**dict(END_TO_END), **dict(per_layer_units())}
    for name, value in {**metrics, **quality}.items():
        print(f"{name:40s} {value!r:>24s} {all_units[name]}")
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "hqn" / "cli.py").is_file():
        print(f"bench: no hqn sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
