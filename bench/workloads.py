"""The three benchmark workloads.

Each workload turns ``--seed`` into rounds of operations. An operation
is one call into hqn's public surface, timed on its own; what it wrote
or returned is checked afterwards, outside the timed region, against
properties that need no stored data. Round ``r`` draws its inputs from
``default_rng([seed, r])``, so a round's inputs do not depend on how
many rounds a run gets through, and the inputs of later rounds are new
(a result cache inside hqn cannot serve them).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import hqn.charts
import hqn.cli
import hqn.loci
import hqn.oracles
from hqn.charts import HORO
from hqn.quaternion import Quaternion
from hqn.reduction import ReducedCase

# The documented curve file format (README): header, then one row per sample.
CSV_HEADER = "s,c1,c2,sigma,V,I1,I2,residual"
SAMPLES = 801
CURVE_TOL = "1e-11"
REFERENCE_TOL = "1e-13"
CURVES_PER_CASE = 20
# Bounds that `hqn oracle` applies to the same quantities.
SPREAD_BOUND = 1e-5
CURVATURE_BOUND = 1e-3
ORACLE_POINTS = 20


@dataclass
class Op:
    """One timed call. ``done`` inspects the call's result after timing and
    returns whether the operation succeeded; it records output problems
    on the workload."""

    items: int
    call: Callable[[], Any]
    done: Callable[[Any], bool]


@dataclass(frozen=True)
class CurveCase:
    label: str
    flags: tuple
    a_lo: float
    a_hi: float


CURVE_CASES = (
    CurveCase("elliptic", ("--case", "elliptic", "--n", "2", "--m", "1"),
              0.2, 2.0),
    CurveCase("loxodromic", ("--case", "loxodromic", "--n", "3", "--m", "2"),
              0.2, 2.0),
    CurveCase("special-loxodromic", ("--case", "special-loxodromic",
                                     "--n", "2"), -1.0, 1.0),
    CurveCase("parabolic", ("--case", "parabolic", "--n", "2", "--m", "1",
                            "--smax", "60"), 0.2, 2.0),
    CurveCase("special-parabolic", ("--case", "special-parabolic", "--n", "2",
                                    "--smax", "50"), 0.2, 2.0),
)

# Every reduced case with a Killing-volume oracle at n = 2 and n = 3.
ORACLE_CASES = (
    ReducedCase("elliptic", 2, 1),
    ReducedCase("special-loxodromic", 2),
    ReducedCase("parabolic", 2, 1),
    ReducedCase("special-parabolic", 2),
    ReducedCase("elliptic", 3, 1),
    ReducedCase("elliptic", 3, 2),
    ReducedCase("loxodromic", 3, 2),
    ReducedCase("special-loxodromic", 3),
    ReducedCase("parabolic", 3, 1),
    ReducedCase("parabolic", 3, 2),
    ReducedCase("special-parabolic", 3),
)


def _shuffled(ops: list, rng) -> list:
    # interleaved cases share alike in any drift of host speed during a run
    return [ops[i] for i in rng.permutation(len(ops))]


def csv_problem(data: bytes) -> str | None:
    """What is wrong with a curve file, or None."""
    lines = data.decode("ascii").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "bad header"
    if len(lines) != 1 + SAMPLES:
        return f"{len(lines) - 1} rows, expected {SAMPLES}"
    try:
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    except ValueError:
        return "malformed row"
    if table.shape != (SAMPLES, 8):
        return "malformed row"
    if not np.isfinite(table[:, :4]).all():
        return "non-finite s or state column"
    return None


def _states(data: bytes) -> np.ndarray:
    lines = data.decode("ascii").splitlines()[1:]
    return np.array([line.split(",")[1:4] for line in lines], dtype=float)


class Curves:
    """``hqn curve`` once per operation: 20 stratified ``a`` per case and round."""

    name = "curves"
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []
        self.first_ok: dict[str, tuple[float, bytes]] = {}
        self.rerun_done = False
        self.curve_err_max = 0.0

    def _argv(self, case: CurveCase, a: float, tol: str, out: Path) -> list:
        return ["curve", *case.flags, "--a", repr(a), "--tol", tol,
                "--samples", str(SAMPLES), "--out", str(out)]

    def _op(self, case: CurveCase, a: float) -> Op:
        out = self.workdir / f"{case.label}.csv"
        argv = self._argv(case, a, CURVE_TOL, out)

        def done(code) -> bool:
            if code != 0:
                return False
            data = out.read_bytes()
            out.unlink()
            problem = csv_problem(data)
            if problem:
                self.problems.append(f"curve {case.label} a={a!r}: {problem}")
            else:
                self.first_ok.setdefault(case.label, (a, data))
            return True

        return Op(1, lambda: hqn.cli.main(argv), done)

    def _draws(self, rng) -> list[tuple[CurveCase, float]]:
        draws = []
        for case in CURVE_CASES:
            # one uniform draw in each of 20 equal strata of the a range
            u = (np.arange(CURVES_PER_CASE) + rng.random(CURVES_PER_CASE)) \
                / CURVES_PER_CASE
            draws += [(case, float(case.a_lo + (case.a_hi - case.a_lo) * x))
                      for x in u]
        return draws

    def warm_up(self) -> list[Op]:
        # the first curve of each case in round 0
        draws = self._draws(np.random.default_rng([self.seed, 0]))
        return [self._op(*d) for d in draws[::CURVES_PER_CASE]]

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        return _shuffled([self._op(*d) for d in self._draws(rng)], rng)

    def finish(self, tally) -> None:
        """Rerun the first good curve of each case, as two more operations:
        at the same tolerance it must give identical bytes, and its
        deviation from a rerun at tol 1e-13 gives curve_err_max."""
        for case in CURVE_CASES:
            if case.label not in self.first_ok:
                self.problems.append(f"curve {case.label}: no curve succeeded")
                continue
            a, data = self.first_ok[case.label]
            self.rerun_done = False
            tally.run(self, [self._rerun_op(case, a, data),
                             self._reference_op(case, a, data)])
            if not self.rerun_done:
                self.problems.append(f"curve {case.label} a={a!r}: rerun failed")

    def _rerun_op(self, case: CurveCase, a: float, data: bytes) -> Op:
        out = self.workdir / "rerun.csv"

        def done(code) -> bool:
            self.rerun_done = code == 0
            if self.rerun_done and out.read_bytes() != data:
                self.problems.append(f"curve {case.label} a={a!r}: rerun differs")
            return self.rerun_done

        return Op(1, lambda: hqn.cli.main(self._argv(case, a, CURVE_TOL, out)),
                  done)

    def _reference_op(self, case: CurveCase, a: float, data: bytes) -> Op:
        out = self.workdir / "reference.csv"

        def done(code) -> bool:
            if code != 0:
                return False
            ref = out.read_bytes()
            problem = csv_problem(ref)
            if problem:
                self.problems.append(f"curve {case.label} a={a!r} "
                                     f"at tol {REFERENCE_TOL}: {problem}")
            else:
                err = float(np.max(np.abs(_states(data) - _states(ref))))
                self.curve_err_max = max(self.curve_err_max, err)
            return True

        return Op(1, lambda: hqn.cli.main(self._argv(case, a, REFERENCE_TOL, out)),
                  done)

    def quality(self) -> dict[str, float]:
        return {"curve_err_max": self.curve_err_max}


class Oracles:
    """Calls to the public ``hqn.oracles`` functions: the Killing-volume
    spread of all 11 cases over 20 points each, and the ambient mean
    curvature of the bisector, fan and horosphere at 20 points."""

    name = "oracles"
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.problems: list[str] = []
        self.killing_spread_max = 0.0
        self.curvature_err_max = 0.0

    def _spread_op(self, case: ReducedCase, n_points: int, seed: int) -> Op:
        def done(spread) -> bool:
            if not spread <= SPREAD_BOUND:
                self.problems.append(f"killing spread {case}: {spread!r}")
            self.killing_spread_max = max(self.killing_spread_max, spread)
            return True

        return Op(n_points, lambda: hqn.oracles.killing_ratio_spread(
            case, n_points=n_points, seed=seed), done)

    def _curvature_op(self, label: str, surface, p, expected: float) -> Op:
        def done(H) -> bool:
            err = float(abs(H - expected))
            if not err <= CURVATURE_BOUND:
                self.problems.append(f"{label} mean curvature error {err!r}")
            self.curvature_err_max = max(self.curvature_err_max, err)
            return True

        return Op(1, lambda: hqn.oracles.ambient_mean_curvature(surface(), p),
                  done)

    def _curvature_ops(self, rng) -> list[Op]:
        # The points and surfaces of `hqn oracle --oracle curvature --n 2`.
        om = Quaternion(*rng.normal(0, 0.25, 4))
        be = rng.normal(0, 0.2, 3)
        al = float(rng.uniform(0.4, 1.5))
        horo_point = hqn.charts.horo_point
        pb = horo_point((Quaternion(om.q0, om.q1, om.q2, 0.0),), al,
                        Quaternion(0, be[0], be[1], 0.0))
        pf = horo_point((Quaternion(om.q0),), al, Quaternion(0, be[0], be[1], 0.0))
        ph = horo_point((om,), 1.0, Quaternion(0, *be))
        # surfaces are looked up at call time, so a traced pass sees them
        return [
            self._curvature_op("bisector", lambda: hqn.loci.canonical_bisector_residual,
                               pb, 0.0),
            self._curvature_op("fan", lambda: hqn.loci.fan_at_origin_residual,
                               pf, 0.0),
            # the horosphere alpha = 1 has mean curvature 2n + 1 = 5 at n = 2
            self._curvature_op("horosphere",
                               lambda: lambda q: hqn.charts.convert(q, HORO).alpha - 1.0,
                               ph, 5.0),
        ]

    def warm_up(self) -> list[Op]:
        # fills hqn.oracles' per-case Killing complement cache
        rng = np.random.default_rng(self.seed)
        return ([self._spread_op(c, 2, 0) for c in ORACLE_CASES]
                + self._curvature_ops(rng))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = [self._spread_op(c, ORACLE_POINTS, int(rng.integers(2 ** 32)))
               for c in ORACLE_CASES]
        for _ in range(ORACLE_POINTS):
            ops += self._curvature_ops(rng)
        return _shuffled(ops, rng)

    def finish(self, tally) -> None:
        pass

    def quality(self) -> dict[str, float]:
        return {"killing_spread_max": self.killing_spread_max,
                "curvature_err_max": self.curvature_err_max}


def report_problem(report: Any) -> str | None:
    """What is wrong with a `hqn verify` JSON report, or None."""
    if not isinstance(report, dict) or set(report) != {"checks", "pass"}:
        return "report keys"
    checks = report["checks"]
    if not isinstance(checks, list) or not checks:
        return "no checks"
    for c in checks:
        if not isinstance(c, dict) or set(c) != {"name", "value", "bound", "pass"}:
            return "check keys"
        if not (isinstance(c["name"], str) and isinstance(c["pass"], bool)
                and isinstance(c["value"], float) and isinstance(c["bound"], float)
                and math.isfinite(c["value"]) and math.isfinite(c["bound"])):
            return f"check {c.get('name')!r} field types"
        if c["pass"] != (c["value"] <= c["bound"]):
            return f"check {c['name']!r} pass flag"
    if report["pass"] != all(c["pass"] for c in checks):
        return "overall pass flag"
    return None


class Verify:
    """``hqn verify --suite all`` at n = 2 and then n = 3, as one operation.

    The pair is one operation of two items, so every item's time is the
    mean of the two calls and the latency percentiles describe one kind
    of item rather than the gap between the faster n = 2 and the slower
    n = 3 calls. The suites seed their own generators, so ``--seed`` does
    not change this workload's inputs: every round repeats the same pair.
    """

    name = "verify"
    trace_rounds = 10

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.problems: list[str] = []
        self.checks = 0
        self.failed_checks = 0

    def _argv(self, n: int) -> list:
        return ["verify", "--suite", "all", "--n", str(n),
                "--out", str(self.workdir / f"verify_n{n}.json")]

    def _tally(self, n: int, code) -> bool:
        # Exit 1 with a well-formed report is a failed check, counted in
        # check_fail_share; the run itself completed.
        if code not in (0, 1):
            return False
        out = self.workdir / f"verify_n{n}.json"
        report = json.loads(out.read_text())
        out.unlink()
        problem = report_problem(report)
        if problem is None and code != (0 if report["pass"] else 1):
            problem = f"exit code {code} disagrees with the report"
        if problem:
            self.problems.append(f"verify n={n}: {problem}")
            return True
        self.checks += len(report["checks"])
        self.failed_checks += sum(not c["pass"] for c in report["checks"])
        return True

    def _op(self) -> Op:
        argvs = {n: self._argv(n) for n in (2, 3)}

        def done(codes) -> bool:
            # a list, not a generator: both reports are checked and counted
            return all([self._tally(n, code) for n, code in codes.items()])

        return Op(2, lambda: {n: hqn.cli.main(argv) for n, argv in argvs.items()},
                  done)

    def warm_up(self) -> list[Op]:
        return self.round(0)

    def round(self, r: int) -> list[Op]:
        return [self._op()]

    def finish(self, tally) -> None:
        pass

    def quality(self) -> dict[str, float]:
        return {"check_fail_share": self.failed_checks / max(self.checks, 1)}


WORKLOADS = {w.name: w for w in (Curves, Oracles, Verify)}
