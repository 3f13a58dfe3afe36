"""src/hqn holds what a verb reaches: every function of the package is
called by one of the verb runs below, or is on KEEP with the reason it
stays without a verb."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import hqn

PACKAGE = Path(hqn.__file__).resolve().parent

# Each verb once at n = 2, with the special loxodromic curve's mirrored
# start and a start that is refused; the exit code each run must give.
RUNS = [
    (["curve", "--case", "special-loxodromic", "--n", "2", "--a", "-0.5", "--out", "{out}/c.csv"], 0),
    (["curve", "--case", "elliptic", "--n", "2", "--m", "1", "--a", "19", "--out", "{out}/x.csv"], 1),
    (["family", "--case", "parabolic", "--n", "2", "--m", "1", "--a-grid", "0.5,1",
      "--out-dir", "{out}/fam"], 0),
    (["verify", "--n", "2"], 0),
    (["oracle", "--n", "2", "--points", "2"], 0),
    (["boundary", "--case", "special-parabolic", "--n", "2", "--a", "1", "--smax", "50"], 0),
    (["convert", "--from", "ball", "--to", "horo", "--coords", "0,0,0,0,0.1,0,0,0",
      "--transvection", "1"], 0),
    (["integral", "--n", "2"], 0),
]

# A name covers the function of that qualified name and every function
# defined inside it (a class's methods, a function's closures).
KEEP = {
    "quaternion.Quaternion": "the scalar reference the array core is tested against; "
                             "bench/workloads.py builds points with it and bench/spans.py "
                             "patches its __mul__",
    "quaternion._coerce": "Quaternion's operators and components read reals through it",
    "quaternion.components": "horo_point, ball_point and siegel_point build rows with it",
    "charts.horo_point": "bench/workloads.py builds its curvature points with it",
    "charts.ball_point": "the tests' constructor of ball points",
    "charts.siegel_point": "the tests' constructor of Siegel points",
    "charts.horo_metric_matrix": "the tests' reference for metric_jet; metric_matrix calls it "
                                 "on a horo point, which no verb passes",
    "oracles._richardson_grad_hess": "the tests' reference for the curvature oracle's "
                                     "stencil weights",
    "integrator.__getattr__": "bench/spans.py reads hqn.integrator.solve_ivp through it",
    "oracles.foliation_certificate": "the family certificate a verb is planned to report",
    "reduction.orbital_metric": "the orbit-space metric of the planned first-variation oracle",
    "reduction.random_symmetry": "the planned invariance check of hqn verify --suite reduction",
    "isometries.Isometry.compose": "random_symmetry composes with it",
    "isometries.rotation_matrix": "random_symmetry builds rotations with it",
    "isometries.random_sp": "random_symmetry draws Sp(n) blocks with it",
    "isometries.random_unit_quaternion": "random_symmetry draws rotations with it",
}

TRACE = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import hqn.cli
package = os.path.dirname(hqn.cli.__file__) + os.sep
reached, codes = set(), []

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        module = os.path.basename(code.co_filename)[:-3]
        reached.add(f"{module}.{code.co_qualname}")

sys.setprofile(profile)
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(hqn.cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def _functions(code, module: str):
    """(qualified name, line) of each function defined in a code object:
    no lambdas, comprehensions or class bodies."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield f"{module}.{const.co_qualname}", const.co_firstlineno
            yield from _functions(const, module)


def _covers(entry: str, name: str) -> bool:
    return name == entry or name.startswith(entry + ".")


def _kept(name: str) -> bool:
    return any(_covers(entry, name) for entry in KEEP)


def test_every_function_is_reached_or_kept(tmp_path):
    functions = []
    for path in sorted(PACKAGE.glob("*.py")):
        functions += _functions(compile(path.read_text(), str(path), "exec"), path.stem)
    names = [name for name, _ in functions]
    assert len(set(names)) == len(names), "two functions share a qualified name"

    # a fresh interpreter, so that no functools.cache hit of an earlier
    # test hides a call
    runs = [[arg.replace("{out}", str(tmp_path)) for arg in argv] for argv, _ in RUNS]
    proc = subprocess.run([sys.executable, "-c", TRACE, str(PACKAGE.parent), json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for _, code in RUNS]
    reached = set(result["reached"])

    unreached = [f"{name} (line {line})" for name, line in functions
                 if name not in reached and not _kept(name)]
    assert not unreached, f"no verb reaches {unreached}: delete them or keep them with a reason"
    kept_reached = sorted(name for name in reached if _kept(name))
    assert not kept_reached, f"verbs reach {kept_reached}: take them off KEEP"
    gone = [entry for entry in KEEP if not any(_covers(entry, name) for name in names)]
    assert not gone, f"{gone} are gone: take them off KEEP"
