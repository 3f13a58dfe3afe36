"""Self-check of the benchmark, run from the root of a source checkout.

    python3 bench/selfcheck.py

For each workload in BENCHMARK.json, with seed 7, it checks that
  * two traced runs with one seed give identical ``.calls``, ``nfev``
    and ``steps``;
  * a plain and a traced run print exactly the metrics, with the units,
    that BENCHMARK.json names, and report correct outputs;
and, once, that the benchmark exits non-zero without a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
Runs are sequential; exit status 0 means every check held.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_SUFFIXES = (".calls", ".nfev", ".steps")
SEED = 7


def run(cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in names:
        plain = result(run(ROOT, workload, SEED, 2, 0))
        traced = [result(run(ROOT, workload, SEED, 2, 1)) for _ in range(2)]
        for trace, res in ((0, plain), (1, traced[0])):
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(printed == declared[trace],
                   f"{workload} --trace {trace}: metrics and units as declared")
            expect(res["correct"] is True, f"{workload} --trace {trace}: correct")
        exact = [k for k in traced[0]["metrics"] if k.endswith(EXACT_SUFFIXES)]
        differ = [k for k in exact if traced[0]["metrics"][k]["value"]
                  != traced[1]["metrics"][k]["value"]]
        expect(not differ and traced[0]["attempted"] == traced[1]["attempted"],
               f"{workload}: {len(exact)} counts repeat across traced runs"
               + (f" (differ: {differ})" if differ else ""))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, names[0], SEED, 1, 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks held")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
