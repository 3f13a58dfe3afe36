"""Command-line surface for curves, families, verification and oracles.

Exit codes: 0 success, 1 failed check or numerical failure, 2 usage error.
Output files are byte-deterministic for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import re
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
from .errors import (
    DomainError,
    ExtrapolationError,
    NotInteriorError,
    NumericalError,
    ShapeError,
    SingularBoundaryError,
)
from .integrator import (
    check_start,
    elliptic_integral_R,
    integrate_profile,
    limit_endpoint,
)
from .isometries import (
    Isometry,
    act,
    act_horo_closed,
    heisenberg_matrix,
    qmat_identity,
    sp_defect,
    sp_from_normals,
    transvection_matrix,
    unit_quaternions,
)
from .loci import canonical_bisector_residual, fan_at_origin_residual
from .oracles import ambient_mean_curvature, killing_ratio_spread
from .reduction import (
    ALL_KINDS,
    LOXODROMIC,
    PARABOLIC,
    SPECIAL_LOXODROMIC,
    SPECIAL_PARABOLIC,
    ReducedCase,
    case_rhs,
    explicit_solutions,
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


def _scale_to_radius(x: np.ndarray, r) -> np.ndarray:
    """The 4n reals x rescaled to norm r: a row alone, or each row of a
    (k, 4n) stack with its r of a (k,) array; the norm is the BLAS dot
    np.linalg.norm takes, so a row gives the same bits alone and stacked."""
    return x * (r / np.maximum(np.sqrt(np.vecdot(x, x)), 1e-9))[..., None]


def _random_ball(rng, n):
    """The 4n reals of a random ball point."""
    x = rng.uniform(-0.5, 0.5, 4 * n)
    return _scale_to_radius(x, rng.uniform(0.1, 0.9))


def _random_balls(rng, n, k):
    """k random ball points as (k, 4n) reals: the draws of k calls of
    _random_ball, in their order, scaled once on the stack."""
    x, r = np.empty((k, 4 * n)), np.empty(k)
    for i in range(k):
        x[i] = rng.uniform(-0.5, 0.5, 4 * n)
        r[i] = rng.uniform(0.1, 0.9)
    return _scale_to_radius(x, r)


def _suite_charts(n: int):
    rng = np.random.default_rng(101)
    x = _random_balls(rng, n, 100)
    p = point_from_array(BALL, x[0::2], n)
    p2 = point_from_array(BALL, x[1::2], n)
    q = convert(convert(convert(p, SIEGEL), HORO), BALL)
    worst_rt = float(np.max(np.abs(coords_array(q) - coords_array(p))))
    worst_sym = float(np.max(np.abs(dist(p, p2) - dist(p2, p))))
    eig = np.linalg.eigvalsh(metric_matrix(point_from_array(BALL, _random_ball(rng, n), n)))
    return [_check("chart round trip", worst_rt, 1e-12),
            _check("distance symmetry", worst_sym, 1e-12),
            _check("metric positive definite", 0.0 if eig.min() > 0 else 1.0, 0.5)]


def _isometry_draws(rng, n, k):
    """k Heisenberg pairs (xi, nu), transvection lengths t, rotation blocks
    B in Sp(n-1), unit quaternions lam and ball points x, as stacks. The
    loop keeps the draws of k rounds of xi, nu, t, random_sp(n - 1),
    random_unit_quaternion and _random_ball in their seeded order; the
    arithmetic on them runs once on the stacks."""
    xi, nu, t = np.empty((k, n - 1, 4)), np.zeros((k, 4)), np.empty(k)
    V, lam = np.empty((k, n - 1, n - 1, 4)), np.empty((k, 4))
    x, r = np.empty((k, 4 * n)), np.empty(k)
    for i in range(k):
        xi[i] = rng.normal(0, 0.4, (n - 1, 4))
        nu[i, 1:] = rng.normal(0, 0.4, 3)
        t[i] = rng.normal(0, 0.5)
        V[i] = rng.standard_normal((n - 1, n - 1, 4))
        lam[i] = rng.standard_normal(4)
        x[i] = rng.uniform(-0.5, 0.5, 4 * n)
        r[i] = rng.uniform(0.1, 0.9)
    return xi, nu, t, sp_from_normals(V), unit_quaternions(lam), _scale_to_radius(x, r)


def _suite_isometries(n: int):
    k = 50
    xi, nu, t, B, lam, x = _isometry_draws(np.random.default_rng(202), n, k)
    big = np.broadcast_to(qmat_identity(n + 1), (k, n + 1, n + 1, 4)).copy()
    big[:, :n - 1, :n - 1] = B
    big[:, n - 1, n - 1] = big[:, n, n] = lam
    gens = [("heisenberg", heisenberg_matrix(n, xi, nu), dict(xi=xi, nu=nu)),
            ("transvection", transvection_matrix(n, t), dict(t=t)),
            ("rotation", Isometry(big), dict(B=B, lam=lam))]
    p = convert(point_from_array(BALL, x, n), HORO)
    worst_defect = max(float(np.max(sp_defect(g.A))) for _, g, _ in gens)
    worst_closed = max(float(np.max(np.abs(coords_array(act(g, p))
                                           - coords_array(act_horo_closed(kind, p, **params)))))
                       for kind, g, params in gens)
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
            f = case_rhs(case, sol.h(1.0))(st.c1, st.c2, st.sigma)
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
    fam = [integrate_profile(args.case, a, s_max=args.smax, tol=args.tol, h=args.h,
                             n_samples=args.samples) for a in args.a_grid]
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
        n, rng = args.n, np.random.default_rng(404)
        worst_b = worst_f = worst_h = 0.0
        for _ in range(args.points):
            om = rng.normal(0, 0.25, (n - 1, 4))
            be = rng.normal(0, 0.2, 3)
            al = float(rng.uniform(0.4, 1.5))
            # horo rows (omega, (alpha, beta)) of one point per surface: the
            # bisector point has beta_3 = 0 and omega_{n-1,3} = 0, the fan
            # point a real omega_{n-1} and beta_3 = 0
            on_bisector = om.copy()
            on_bisector[-1, 3] = 0.0
            pb = point_from_array(HORO, np.array([*on_bisector.ravel(), al, *be[:2], 0.0]), n)
            worst_b = max(worst_b, abs(ambient_mean_curvature(
                canonical_bisector_residual, pb)))
            on_fan = om.copy()
            on_fan[-1, 1:] = 0.0
            pf = point_from_array(HORO, np.array([*on_fan.ravel(), al, *be[:2], 0.0]), n)
            worst_f = max(worst_f, abs(ambient_mean_curvature(
                fan_at_origin_residual, pf)))
            ph = point_from_array(HORO, np.array([*om.ravel(), 1.0, *be]), n)
            worst_h = max(worst_h, abs(ambient_mean_curvature(
                lambda q: convert(q, HORO).alpha - 1.0, ph) - (2 * n + 1)))
        checks.append(_check("bisector mean curvature", worst_b, 1e-3))
        checks.append(_check("fan mean curvature", worst_f, 1e-3))
        checks.append(_check("horosphere mean curvature error", worst_h, 1e-3))
    return _emit_report(_report(checks), args.out)


def _cmd_boundary(args) -> int:
    case = args.case
    curve = integrate_profile(case, args.a, s_max=args.smax, tol=args.tol)
    try:
        lim = limit_endpoint(curve)
    except ExtrapolationError as exc:
        return _emit_report(_report([{"name": "limit endpoint", "value": str(exc),
                                      "bound": None, "pass": False}]), args.out)
    checks = []
    if case.kind == PARABOLIC:
        n, m = case.n, case.m
        lo = float(np.sqrt(args.a * (4 * n - 4 * m - 1) / (4 * n + 1)))
        hi = float(np.sqrt(args.a * (4 * n - 4 * m) / (4 * n + 2)))
        ok = lo <= lim.c2 <= hi
        checks.append({"name": "limit in tangent-slope bounds",
                       "value": lim.c2, "bound": [lo, hi], "pass": ok})
    elif case.kind == SPECIAL_PARABOLIC:
        # the limit scales with the dilation alpha -> a alpha, rho -> sqrt(a) rho
        R = float(np.sqrt(args.a)) * elliptic_integral_R(case.n)
        checks.append(_check("limit vs closed-form quadrature",
                             abs(abs(lim.c2) - R), 1e-6))
    else:
        checks.append({"name": "no finite limit expected",
                       "value": lim.tag, "bound": "NotConverged",
                       "pass": lim.tag == "NotConverged"})
    return _emit_report(_report(checks), args.out)


def _cmd_convert(args) -> int:
    print(",".join(_fmt(v) for v in coords_array(args.point)))
    return 0


def _cmd_integral(args) -> int:
    print(_fmt(elliptic_integral_R(args.n)))
    return 0


# ---------------------------------------------------------------------------


# "-3.5e-05", "-inf" and "-nan" are values too; Python 3.11's argparse
# takes only the "-3" and "-.5" forms
NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _case_flags(p) -> None:
    p.add_argument("--case", required=True, choices=sorted(ALL_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--smax", type=float, default=20.0)
    p.add_argument("--tol", type=float, default=1e-10)


def _profile_flags(p) -> None:
    _case_flags(p)
    p.add_argument("--h", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=801)


def _flags_curve(p) -> None:
    _profile_flags(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--out", required=True)


def _flags_family(p) -> None:
    _profile_flags(p)
    p.add_argument("--a-grid", required=True)
    p.add_argument("--out-dir", required=True)


def _flags_verify(p) -> None:
    p.add_argument("--suite", default="all", choices=["all"] + sorted(SUITES))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out", default=None)


def _flags_oracle(p) -> None:
    p.add_argument("--oracle", default="all", choices=["all", "volume", "curvature"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--out", default=None)


def _flags_boundary(p) -> None:
    _case_flags(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--out", default=None)


def _flags_convert(p) -> None:
    p.add_argument("--from", dest="frm", required=True, choices=sorted(CHARTS))
    p.add_argument("--to", required=True, choices=sorted(CHARTS))
    p.add_argument("--coords", required=True)
    p.add_argument("--transvection", type=float, default=None)


def _flags_integral(p) -> None:
    p.add_argument("--n", type=int, required=True)


# each verb's flags and command, in the order `hqn -h` lists them
VERBS = {
    "curve": (_flags_curve, _cmd_curve),
    "family": (_flags_family, _cmd_family),
    "verify": (_flags_verify, _cmd_verify),
    "oracle": (_flags_oracle, _cmd_oracle),
    "boundary": (_flags_boundary, _cmd_boundary),
    "convert": (_flags_convert, _cmd_convert),
    "integral": (_flags_integral, _cmd_integral),
}


def _build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of the one verb named: that verb's
    arguments parse the same, and the other verbs' subparsers go unbuilt."""
    ap = argparse.ArgumentParser(prog="hqn")
    # a one-verb tree still names every verb in its usage line
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar=None if verb is None else "{" + ",".join(VERBS) + "}")
    for name, (add_flags, func) in VERBS.items():
        if verb in (None, name):
            # flags are spelled in full: "--h" is not "--help", "--a" not "--a-grid"
            p = sub.add_parser(name, allow_abbrev=False)
            p._negative_number_matcher = NEGATIVE_NUMBER
            add_flags(p)
            p.set_defaults(func=func)
    return ap


def _check_flags(args) -> None:
    """Raise DomainError, ShapeError or NotInteriorError for flag values no
    verb can run with. Only these become usage errors: a NumericalError,
    DomainError or SingularBoundaryError raised later, while computing, is
    a one-line failure with exit 1, and any other error propagates."""
    if getattr(args, "case", None) is not None:
        args.case = _case(args)
        # hqn boundary checks the limits of minimal curves: h = 0 and the
        # default samples, which it has no flags for
        curve = ({} if args.command == "boundary"
                 else {"h": args.h, "n_samples": args.samples})
        if args.command == "family":
            args.a_grid = _floats("--a-grid", args.a_grid)
        for a in (args.a_grid if args.command == "family" else [args.a]):
            check_start(args.case, a, s_max=args.smax, tol=args.tol, **curve)
    if args.command in ("verify", "oracle", "integral") and args.n < 2:
        raise DomainError(f"--n must be at least 2, got {args.n}")
    if args.command == "oracle" and args.points < 1:
        raise DomainError(f"--points must be at least 1, got {args.points}")
    if args.command == "convert":
        coords = _floats("--coords", args.coords)
        if len(coords) % 4:
            raise ShapeError("--coords needs 4n values, four per quaternion coordinate")
        if not np.all(np.isfinite(coords)):
            raise DomainError(f"--coords needs finite numbers, got {args.coords!r}")
        p = point_from_array(CHARTS[args.frm], np.array(coords), len(coords) // 4)
        if args.transvection is not None:
            try:
                # a lift pushed past the float range is not negative
                with np.errstate(over="ignore", invalid="ignore"):
                    p = act(transvection_matrix(p.n, args.transvection), p)
            except NotInteriorError:
                raise NotInteriorError(f"--transvection {args.transvection!r} moves "
                                       "the point out of its chart") from None
        args.point = convert(p, CHARTS[args.to])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # no verb, -h or an unknown verb: the full tree lists the verbs
    parser = _build_parser(argv[0] if argv and argv[0] in VERBS else None)
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
    except (DomainError, NotInteriorError, ShapeError) as exc:
        parser.error(str(exc))
    try:
        return args.func(args)
    except (NumericalError, DomainError, SingularBoundaryError) as exc:
        print(f"hqn {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
