"""Command-line surface for curves, families, verification and oracles.

Exit codes: 0 success, 1 failed verification/certificate, 2 usage error.
Output files are byte-deterministic for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .charts import (
    BALL,
    HORO,
    SIEGEL,
    convert,
    coords_array,
    dist,
    metric_matrix,
    point_from_array,
)
from .errors import CertificateFailure, DomainError, NotInteriorError, ShapeError
from .integrator import (
    check_start,
    elliptic_integral_R,
    generate_family,
    integrate_profile,
    limit_endpoint,
)
from .isometries import (
    Isometry,
    act,
    act_horo_closed,
    heisenberg_matrix,
    qmat_identity,
    random_sp,
    random_unit_quaternion,
    sp_defect,
    transvection_matrix,
)
from .loci import canonical_bisector_residual, fan_at_origin_residual
from .oracles import (
    ambient_mean_curvature,
    killing_ratio_spread,
    orbit_project,
    section_point,
    volume_functional,
)
from .quaternion import Quaternion
from .reduction import (
    ALL_KINDS,
    ELLIPTIC,
    LOXODROMIC,
    PARABOLIC,
    SPECIAL_LOXODROMIC,
    SPECIAL_PARABOLIC,
    PhaseState,
    ReducedCase,
    explicit_solutions,
    first_integral_values,
    ode_rhs,
)

FMT = "%.17g"
CSV_HEADER = "s,c1,c2,sigma,V,I1,I2,residual"
CHARTS = {"ball": BALL, "siegel": SIEGEL, "horo": HORO}


def _fmt(x: float) -> str:
    return FMT % x


def _write_curve_csv(curve, path: Path) -> None:
    table = np.column_stack([curve.uniform_s, curve.uniform_states, curve.V,
                             curve.I1, curve.I2, curve.residual])
    row = "\n" + ",".join([FMT] * table.shape[1])
    path.write_text((CSV_HEADER + row * len(table) + "\n") % tuple(table.ravel().tolist()))


def _floats(flag: str, text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise DomainError(f"{flag} needs comma-separated numbers, got {text!r}") from None


def _case(args) -> ReducedCase:
    """The --case/--n/--m flags as a ReducedCase; the special cases ignore --m."""
    m = None if args.case in (SPECIAL_LOXODROMIC, SPECIAL_PARABOLIC) else args.m
    return ReducedCase(args.case, args.n, m)


def _report(checks) -> dict:
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}


def _emit_report(report: dict, out) -> int:
    text = json.dumps(report, indent=2, sort_keys=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    return 0 if report["pass"] else 1


def _check(name: str, value: float, bound: float) -> dict:
    return {"name": name, "value": float(value), "bound": float(bound),
            "pass": bool(value <= bound)}


# ---------------------------------------------------------------------------
# verify suites


def _random_ball(rng, n):
    x = rng.uniform(-0.5, 0.5, 4 * n)
    x *= rng.uniform(0.1, 0.9) / max(np.linalg.norm(x), 1e-9)
    return point_from_array(BALL, x, n)


def _suite_charts(n: int):
    rng = np.random.default_rng(101)
    worst_rt = 0.0
    worst_sym = 0.0
    for _ in range(50):
        p = _random_ball(rng, n)
        q = convert(convert(convert(p, SIEGEL), HORO), BALL)
        worst_rt = max(worst_rt,
                       float(np.max(np.abs(coords_array(q) - coords_array(p)))))
        p2 = _random_ball(rng, n)
        worst_sym = max(worst_sym, abs(dist(p, p2) - dist(p2, p)))
    eig = np.linalg.eigvalsh(metric_matrix(_random_ball(rng, n)))
    return [_check("chart round trip", worst_rt, 1e-12),
            _check("distance symmetry", worst_sym, 1e-12),
            _check("metric positive definite", 0.0 if eig.min() > 0 else 1.0, 0.5)]


def _suite_isometries(n: int):
    rng = np.random.default_rng(202)
    worst_defect = 0.0
    worst_closed = 0.0
    for _ in range(50):
        xi = tuple(Quaternion(*rng.normal(0, 0.4, 4)) for _ in range(n - 1))
        nu = Quaternion(0, *rng.normal(0, 0.4, 3))
        t = float(rng.normal(0, 0.5))
        B = random_sp(n - 1, rng)
        lam = random_unit_quaternion(rng)
        big = qmat_identity(n + 1)
        big[:n - 1, :n - 1] = B
        big[n - 1, n - 1] = lam.as_array()
        big[n, n] = lam.as_array()
        gens = [("heisenberg", heisenberg_matrix(n, xi, nu),
                 dict(xi=xi, nu=nu)),
                ("transvection", transvection_matrix(n, t), dict(t=t)),
                ("rotation", Isometry(big), dict(B=B, lam=lam))]
        p = convert(_random_ball(rng, n), HORO)
        for kind, g, params in gens:
            worst_defect = max(worst_defect, sp_defect(g.A))
            a = coords_array(act(g, p))
            b = coords_array(act_horo_closed(kind, p, **params))
            worst_closed = max(worst_closed, float(np.max(np.abs(a - b))))
    return [_check("Sp(n,1) defect", worst_defect, 1e-12),
            _check("matrix vs closed-form action", worst_closed, 1e-10)]


def _cases_for(n: int):
    cases = []
    for kind in ALL_KINDS:
        if kind in (SPECIAL_LOXODROMIC, SPECIAL_PARABOLIC):
            cases.append(ReducedCase(kind, n))
        elif kind == LOXODROMIC:
            cases.extend(ReducedCase(kind, n, m) for m in range(2, n))
        else:
            cases.extend(ReducedCase(kind, n, m) for m in range(1, n))
    return cases


def _suite_reduction(n: int):
    checks = []
    for case in _cases_for(n):
        worst = 0.0
        for sol in explicit_solutions(case):
            st = sol.state(1.0, 1.0)
            f = ode_rhs(case, st, sol.h(1.0))
            frozen = abs(f[1]) if abs(np.sin(st.sigma)) < 1e-12 else abs(f[0])
            worst = max(worst, abs(f[2]), frozen)
        checks.append(_check(f"stationary families {case.kind} m={case.m}",
                             worst, 1e-12))
    sl = ReducedCase(SPECIAL_LOXODROMIC, n)
    c = integrate_profile(sl, 0.0, s_max=8.0, tol=1e-13)
    checks.append(_check("invariant line deviation",
                         float(np.max(np.abs(c.uniform_states[:, 1] - np.pi / 2))),
                         1e-12))
    sp = ReducedCase(SPECIAL_PARABOLIC, n)
    c = integrate_profile(sp, 1.0, s_max=50.0, tol=1e-12, c1_floor=0.3)
    checks.append(_check("conserved quantity drift",
                         float(np.max(np.abs(c.I1 - 1.0))), 1e-8))
    return checks


SUITES = {"charts": _suite_charts, "isometries": _suite_isometries,
          "reduction": _suite_reduction}


# ---------------------------------------------------------------------------
# verbs


def _cmd_curve(args) -> int:
    curve = integrate_profile(args.case, args.a, s_max=args.smax, tol=args.tol,
                              h=args.h, n_samples=args.samples)
    _write_curve_csv(curve, Path(args.out))
    return 0


def _cmd_family(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fam = generate_family(args.case, args.a_grid, h=args.h, s_max=args.smax,
                          tol=args.tol, n_samples=args.samples)
    for a, curve in zip(args.a_grid, fam):
        _write_curve_csv(curve, out / f"curve_a{_fmt(a)}.csv")
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(SUITES[name](args.n))
    return _emit_report(_report(checks), args.out)


def _cmd_oracle(args) -> int:
    checks = []
    if args.oracle in ("volume", "all"):
        for case in _cases_for(args.n):
            checks.append(_check(
                f"killing ratio spread {case.kind} m={case.m}",
                killing_ratio_spread(case, n_points=args.points), 1e-5))
    if args.oracle in ("curvature", "all"):
        from .charts import horo_point
        rng = np.random.default_rng(404)
        worst_b = worst_f = worst_h = 0.0
        for _ in range(args.points):
            om = Quaternion(*rng.normal(0, 0.25, 4))
            be = rng.normal(0, 0.2, 3)
            al = float(rng.uniform(0.4, 1.5))
            pb = horo_point((Quaternion(om.q0, om.q1, om.q2, 0.0),), al,
                            Quaternion(0, be[0], be[1], 0.0))
            worst_b = max(worst_b, abs(ambient_mean_curvature(
                canonical_bisector_residual, pb)))
            pf = horo_point((Quaternion(om.q0),), al,
                            Quaternion(0, be[0], be[1], 0.0))
            worst_f = max(worst_f, abs(ambient_mean_curvature(
                fan_at_origin_residual, pf)))
            ph = horo_point((om,), 1.0, Quaternion(0, *be))
            worst_h = max(worst_h, abs(ambient_mean_curvature(
                lambda q: convert(q, HORO).alpha - 1.0, ph) - 5.0))
        checks.append(_check("bisector mean curvature", worst_b, 1e-3))
        checks.append(_check("fan mean curvature", worst_f, 1e-3))
        checks.append(_check("horosphere mean curvature error", worst_h, 1e-3))
    return _emit_report(_report(checks), args.out)


def _cmd_boundary(args) -> int:
    case = args.case
    curve = integrate_profile(case, args.a, s_max=args.smax, tol=args.tol)
    try:
        lim = limit_endpoint(curve)
    except Exception as exc:
        print(json.dumps({"checks": [{"name": "limit endpoint",
                                      "value": str(exc), "bound": None,
                                      "pass": False}], "pass": False}, indent=2))
        return 1
    checks = []
    if case.kind == PARABOLIC:
        n, m = case.n, case.m
        lo = float(np.sqrt(args.a * (4 * n - 4 * m - 1) / (4 * n + 1)))
        hi = float(np.sqrt(args.a * (4 * n - 4 * m) / (4 * n + 2)))
        ok = lo <= lim.c2 <= hi
        checks.append({"name": "limit in tangent-slope bounds",
                       "value": lim.c2, "bound": [lo, hi], "pass": ok})
    elif case.kind == SPECIAL_PARABOLIC:
        R = elliptic_integral_R(case.n)
        checks.append(_check("limit vs closed-form quadrature",
                             abs(abs(lim.c2) - R), 1e-6))
    else:
        checks.append({"name": "no finite limit expected",
                       "value": lim.tag, "bound": "NotConverged",
                       "pass": lim.tag == "NotConverged"})
    return _emit_report(_report(checks), args.out)


def _cmd_convert(args) -> int:
    p = args.point
    if args.transvection is not None:
        p = act(transvection_matrix(p.n, args.transvection), p)
    q = convert(p, CHARTS[args.to])
    print(",".join(_fmt(v) for v in coords_array(q)))
    return 0


def _cmd_integral(args) -> int:
    print(_fmt(elliptic_integral_R(args.n)))
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hqn")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_case_flags(p):
        p.add_argument("--case", required=True, choices=sorted(ALL_KINDS))
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--smax", type=float, default=20.0)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--h", type=float, default=0.0)
        p.add_argument("--samples", type=int, default=801)

    pc = sub.add_parser("curve")
    add_case_flags(pc)
    pc.add_argument("--a", type=float, required=True)
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=_cmd_curve)

    pf = sub.add_parser("family")
    add_case_flags(pf)
    pf.add_argument("--a-grid", required=True)
    pf.add_argument("--out-dir", required=True)
    pf.set_defaults(func=_cmd_family)

    pv = sub.add_parser("verify")
    pv.add_argument("--suite", default="all",
                    choices=["all"] + sorted(SUITES))
    pv.add_argument("--n", type=int, default=2)
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=_cmd_verify)

    po = sub.add_parser("oracle")
    po.add_argument("--oracle", default="all",
                    choices=["all", "volume", "curvature"])
    po.add_argument("--n", type=int, default=2)
    po.add_argument("--points", type=int, default=20)
    po.add_argument("--out", default=None)
    po.set_defaults(func=_cmd_oracle)

    pb = sub.add_parser("boundary")
    add_case_flags(pb)
    pb.add_argument("--a", type=float, required=True)
    pb.add_argument("--out", default=None)
    pb.set_defaults(func=_cmd_boundary)

    px = sub.add_parser("convert")
    px.add_argument("--from", dest="frm", required=True, choices=sorted(CHARTS))
    px.add_argument("--to", required=True, choices=sorted(CHARTS))
    px.add_argument("--coords", required=True)
    px.add_argument("--transvection", type=float, default=None)
    px.set_defaults(func=_cmd_convert)

    pi = sub.add_parser("integral")
    pi.add_argument("--n", type=int, required=True)
    pi.set_defaults(func=_cmd_integral)
    return ap


def _check_flags(args) -> None:
    """Raise DomainError, ShapeError or NotInteriorError for flag values no
    verb can run with. Only these become usage errors: errors raised
    later, while computing, propagate."""
    if getattr(args, "case", None) is not None:
        args.case = _case(args)
        if args.command == "family":
            args.a_grid = _floats("--a-grid", args.a_grid)
        for a in (args.a_grid if args.command == "family" else [args.a]):
            check_start(args.case, a, s_max=args.smax, tol=args.tol, h=args.h)
    if args.command == "oracle" and args.oracle != "volume" and args.n != 2:
        raise DomainError("the curvature oracle needs --n 2")
    if args.command == "convert":
        coords = _floats("--coords", args.coords)
        if len(coords) % 4:
            raise ShapeError("--coords needs 4n values, four per quaternion coordinate")
        args.point = point_from_array(CHARTS[args.frm], np.array(coords), len(coords) // 4)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
    except (DomainError, NotInteriorError, ShapeError) as exc:
        parser.error(str(exc))
    try:
        return args.func(args)
    except CertificateFailure:
        return 1


if __name__ == "__main__":
    sys.exit(main())
