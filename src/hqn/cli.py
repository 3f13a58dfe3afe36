"""Command-line surface for curves, families, verification and oracles.

Exit codes: 0 success, 1 failed check, numerical failure or unwritable output,
2 usage error.
Output files are byte-deterministic for identical configurations.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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
    OutputError,
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
from .loci import (
    bisector_family_residual,
    canonical_bisector_residual,
    fan_at_origin_residual,
    fan_residual,
)
from .oracles import ambient_mean_curvature, killing_ratio_spread, uncubed_bracket_spread
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


# The curve table is formatted in numpy, one 48-byte row per value, built as
# six little-endian uint64 words: the sign, the "0.000" prefix of fixed
# notation and the first digit with its slot; 16 (digit, slot) pairs, four to
# a word; "e-ddd" and the separator. A slot holds "." after the last integer
# digit. Bytes a value does not use are 0 and are deleted at the end.
_WORD = np.dtype("<u8")
_SEP = 47                   # the byte of "," or "\n"
# |x| in [1e-270, 1e270] takes the fast path, with k = floor(log10 |x|)
# within +-_K_MAX and p = 16 - k from _P_MIN to _P_MAX (log10 may be off by one)
_FAST_MIN, _FAST_MAX = 1e-270, 1e270
_P_MIN, _P_MAX = -255, 287
_K_MAX = 16 - _P_MIN
_SPLIT = 134217729.0        # 2^27 + 1: Veltkamp's split of a double in halves


def _word(text: bytes, at: int) -> int:
    """text placed from byte `at` of a little-endian uint64."""
    return int.from_bytes(text, "little") << (8 * at)


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """The tables of _format_g17, built on its first call:
    - hi, lo by p in [_P_MIN, _P_MAX], with hi + lo = 10^p to about 2^-106:
      hi is 10^p rounded and lo the remainder rounded, both from integer
      arithmetic, whose int / int rounds correctly; lo = 0 for 0 <= p <= 22,
      where 10^p is a double;
    - head and tail words by k in [-_K_MAX, _K_MAX]: the "0.000" prefix of
      fixed notation for -4 <= k < 0 and the "e-ddd" of scientific notation
      outside -4 <= k < 17;
    - by c in [0, 10^4): the word of its four digits as (digit, slot) pairs,
      and, at c + j 10^4, the index among the 17 digits of its last nonzero
      one when c is chunk j = 0..3 (4j + 1 to 4j + 4; 0 for c = 0);
    - by the index of the last digit shown, 0 to 16, and of the last integer
      digit, -4 to 16 (negative in fixed notation below 1), the masks of the
      four pair words and the "." in the first five words."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        t = 10 ** abs(p)
        if p >= 0:
            hi.append(float(t))
            lo.append(float(t - int(hi[-1])))
        else:
            hi.append(1 / t)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * t) / (den * t))
    ks = range(-_K_MAX, _K_MAX + 1)
    head = [_word(b"0." + b"0" * (-1 - k), 1) if -4 <= k < 0 else 0 for k in ks]
    tail = [0 if -4 <= k < 17 else _word(b"e%+03d" % k, 0) for k in ks]
    # the digits of c = 0..9999, first digit first
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    pairs = np.zeros((10 ** 4, 8), np.uint8)
    pairs[:, ::2] = digits.T + ord("0")
    place = np.max((digits != 0) * np.arange(1, 5, dtype=np.uint8)[:, None], axis=0)
    last = np.concatenate([np.where(place > 0, place + 4 * j, 0) for j in range(4)])
    fill = np.zeros((17, 21, 9), _WORD)
    for shown in range(17):
        fill[shown, :, :4] = [(1 << 16 * min(max(shown - 4 * j, 0), 4)) - 1 for j in range(4)]
        for point in range(shown):
            at = 7 + 2 * point
            fill[shown, point + 4, 4 + at // 8] = _word(b".", at % 8)
    return (np.array(hi), np.array(lo), np.array(head, _WORD), np.array(tail, _WORD),
            pairs.view(_WORD).ravel(), last, fill.reshape(-1, 9).T.copy())


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hi = _SPLIT * a
    hi -= hi - a
    return hi, a - hi


def _digits17(ax: np.ndarray, hi_of: np.ndarray,
              lo_of: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k = floor(log10 ax), D = round-half-even(ax 10^(16 - k)) and where D
    is not certain, for ax in [_FAST_MIN, _FAST_MAX]; in place where it can,
    so that few arrays of ax's size live at once."""
    k = np.log10(ax)
    k = np.floor(k, out=k).astype(np.intp)
    hi, lo = hi_of.take(16 - _P_MIN - k), lo_of.take(16 - _P_MIN - k)
    prod = ax * hi
    a1, a2 = _split(ax)
    b1, b2 = _split(hi)
    del hi
    # prod + rest = ax * hi exactly, and then adds ax * lo; the sums run in
    # the order ((a1 b1 - prod) + a1 b2 + a2 b1) + a2 b2 + ax lo
    rest = a1 * b1
    rest -= prod
    rest += a1 * b2
    rest += a2 * b1
    rest += a2 * b2
    del a1, a2, b1, b2
    rest += ax * lo
    # prod >= 2^53 is an even integer, so rounding rest rounds the sum
    step = np.rint(rest)
    digits = prod.astype(np.int64)
    digits += step.astype(np.int64)
    # a log10 one too large leaves ax 10^p below 10^16, though D may round
    # up to it; one too small leaves D >= 10^17; and lo != 0 where the
    # product is not exact, so that a near tie is not certain
    prod -= 1e16
    prod += rest
    slow = prod < 0
    slow |= digits >= 10 ** 17
    rest -= step
    slow |= (np.abs(rest, out=rest) >= 0.5 - 1e-9) & (lo != 0)
    return k, digits, slow


def _format_g17(table: np.ndarray) -> bytes:
    """The bytes of "".join(",".join(FMT % v for v in row) + "\n" for row in
    table) for a 2-d float64 table, in a few array passes.

    Each value |x| in [1e-270, 1e270] gets k = floor(log10 |x|) and the 17
    digits D = round-half-even(|x| 10^(16 - k)) from the Dekker product of
    |x| with 10^(16 - k) = hi + lo. For 0 <= 16 - k <= 22 the product is
    exact, so ties are decided exactly. nan, +-inf and +-0 are written as
    FMT writes them. A value outside that range, one whose log10 was off by
    one (|x| 10^(16 - k) outside [10^16, 10^17) once rounded) and one within
    1e-9 of a tie that is not exact are formatted by FMT itself."""
    n_rows, n_cols = table.shape
    x = table.ravel()
    hi_of, lo_of, head_of, tail_of, pairs_of, last_of, fill_of = _g17_tables()
    with np.errstate(all="ignore"):
        ax = np.abs(x)
        fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
        np.copyto(ax, 1.0, where=~fast)
        k, digits, slow = _digits17(ax, hi_of, lo_of)
    # each array is dropped once used: faulting in the pages of a larger peak
    # costs more than the arithmetic
    del ax
    # D as a lead digit and four chunks of four digits
    top, bottom = np.divmod(digits, 10 ** 8)
    del digits
    lead, top = np.divmod(top.astype(np.uint32), 10 ** 8)
    bottom = bottom.astype(np.uint32)
    chunks = [top // 10 ** 4, top % 10 ** 4, bottom // 10 ** 4, bottom % 10 ** 4]
    del top, bottom
    # the digits shown end at the last nonzero one or, in fixed notation,
    # at the last integer digit, which a "." follows if any digit does
    last = functools.reduce(np.maximum, [last_of.take(c + j * 10 ** 4)
                                         for j, c in enumerate(chunks)])
    point = np.where((k >= -4) & (k < 17), k, 0)
    fill = np.maximum(last, point) * 21 + point + 4
    words = np.empty((x.size, 6), _WORD)
    words[:, 0] = (head_of[k + _K_MAX] | (lead.astype(_WORD) + ord("0")) << 48
                   | fill_of[4].take(fill))
    for j, c in enumerate(chunks):
        words[:, 1 + j] = pairs_of.take(c) & fill_of[j].take(fill) | fill_of[5 + j].take(fill)
    seps = np.array([_word(b",", 7)] * (n_cols - 1) + [_word(b"\n", 7)], _WORD)
    words[:, 5] = tail_of[k + _K_MAX] | np.tile(seps, n_rows)
    del chunks, fill
    out = words.view(np.uint8)
    out[:, 0] = np.signbit(x) * np.uint8(ord("-"))

    # a value off the fast path was formatted as 1, a lone first digit, so
    # writing the first word writes nan, inf or 0
    other = np.flatnonzero(~fast)
    special = ~np.isfinite(x[other]) | (x[other] == 0)
    xs = x[other[special]]
    words[other[special], 0] = np.where(
        np.isnan(xs), _word(b"nan", 1),
        np.signbit(xs) * ord("-") | np.where(xs == 0, _word(b"0", 1), _word(b"inf", 1)))
    for i in np.concatenate([np.flatnonzero(slow), other[~special]]):
        text = (FMT % x[i]).encode()
        out[i, :_SEP] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    data = out.tobytes()
    del words, out
    return data.translate(None, b"\0")


@contextlib.contextmanager
def _writing(path):
    """Raise an OSError from the block as an OutputError naming path."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_curve_csv(curve, path: Path) -> None:
    table = np.column_stack([curve.uniform_s, curve.uniform_states, curve.V,
                             curve.I1, curve.I2, curve.residual])
    data = (CSV_HEADER + "\n").encode() + _format_g17(table)
    with _writing(path):
        path.write_bytes(data)


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
        with _writing(out):
            Path(out).write_text(text + "\n")
    else:
        print(text)
    return 0 if report["pass"] else 1


def _check(name: str, values, bound: float) -> dict:
    """The row bounding values: its value is their largest magnitude, NaN if
    any is NaN. A non-finite value fails and is written as a string, so the
    report stays strict JSON."""
    value = float(np.max(np.abs(values)))
    return {"name": name, "value": value if np.isfinite(value) else str(value),
            "bound": float(bound), "pass": value <= bound}


# ---------------------------------------------------------------------------
# verify suites


def _scale_to_radius(x: np.ndarray, r) -> np.ndarray:
    """The 4n reals x rescaled to norm r: a row alone, or each row of a
    (k, 4n) stack with its r of a (k,) array; the norm is the BLAS dot
    np.linalg.norm takes, so a row gives the same bits alone and stacked."""
    return x * (r / np.maximum(np.sqrt(np.vecdot(x, x)), 1e-9))[..., None]


def _random_balls(rng, n, k):
    """k random ball points as (k, 4n) reals: each row 4n uniforms in
    [-0.5, 0.5) scaled to a radius uniform in [0.1, 0.9). One block of k
    rows of 4n + 1 uniforms, scaled as uniform scales them (low +
    (high - low) u), gives the bits and generator state of k rounds of
    uniform(-0.5, 0.5, 4n) and uniform(0.1, 0.9)."""
    u = rng.random((k, 4 * n + 1))
    return _scale_to_radius(-0.5 + 1.0 * u[:, :-1], 0.1 + 0.8 * u[:, -1])


def _suite_charts(n: int):
    rng = np.random.default_rng(101)
    x = _random_balls(rng, n, 101)
    p = point_from_array(BALL, x[:100:2], n)
    p2 = point_from_array(BALL, x[1:100:2], n)
    q = convert(convert(convert(p, SIEGEL), HORO), BALL)
    eig = np.linalg.eigvalsh(metric_matrix(point_from_array(BALL, x[100], n)))
    return [_check("chart round trip", coords_array(q) - coords_array(p), 1e-12),
            _check("distance symmetry", dist(p, p2) - dist(p2, p), 1e-12),
            _check("metric positive definite", 0.0 if eig.min() > 0 else 1.0, 0.5)]


def _isometry_draws(rng, n, k):
    """k Heisenberg pairs (xi, nu), transvection lengths t, rotation blocks
    B in Sp(n-1), unit quaternions lam and ball points x, as stacks, each
    drawn as one block."""
    xi = rng.normal(0, 0.4, (k, n - 1, 4))
    nu = np.insert(rng.normal(0, 0.4, (k, 3)), 0, 0.0, axis=1)
    t = rng.normal(0, 0.5, k)
    B = sp_from_normals(rng.standard_normal((k, n - 1, n - 1, 4)))
    lam = unit_quaternions(rng.standard_normal((k, 4)))
    return xi, nu, t, B, lam, _random_balls(rng, n, k)


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
    closed = [coords_array(act(g, p)) - coords_array(act_horo_closed(kind, p, **params))
              for kind, g, params in gens]
    return [_check("Sp(n,1) defect", [sp_defect(g.A) for _, g, _ in gens], 1e-12),
            _check("matrix vs closed-form action", closed, 1e-10)]


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
        rates = []
        for sol in explicit_solutions(case):
            st = sol.state(1.0, 1.0)
            f = case_rhs(case, sol.h(1.0))(st.c1, st.c2, st.sigma)
            rates += [f[2], f[1] if abs(np.sin(st.sigma)) < 1e-12 else f[0]]
        checks.append(_check(f"stationary families {case.kind} m={case.m}",
                             rates, 1e-12))
    sl = ReducedCase(SPECIAL_LOXODROMIC, n)
    c = integrate_profile(sl, 0.0, s_max=8.0, tol=1e-13)
    checks.append(_check("invariant line deviation", c.uniform_states[:, 1] - np.pi / 2,
                         1e-12))
    sp = ReducedCase(SPECIAL_PARABOLIC, n)
    c = integrate_profile(sp, 1.0, s_max=50.0, tol=1e-12, c1_floor=0.3)
    checks.append(_check("conserved quantity drift", c.I1 - 1.0, 1e-8))
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
    with _writing(out):
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


def _horo_draw(rng, n):
    """omega, beta and alpha of a random horospherical point, in that order."""
    return rng.normal(0, 0.25, (n - 1, 4)), rng.normal(0, 0.2, 3), float(rng.uniform(0.4, 1.5))


def _horo_point(omega, *alpha_beta):
    """The horospherical point of omega's n - 1 rows and (alpha, beta)."""
    return point_from_array(HORO, np.array([*omega.ravel(), *alpha_beta]), len(omega) + 1)


def _curvature_table(n: int, points: int, general: bool) -> list:
    """(name, residual, point, expected H, bound) rows of the curvature
    oracle, one per surface and point: the bisector, fan and horosphere at
    the draws of seed 404 and, if general, the general fan and bisector
    family at those of seed 405."""
    table = []
    rng = np.random.default_rng(404)
    for _ in range(points):
        om, be, al = _horo_draw(rng, n)
        # the bisector point has beta_3 = 0 and omega_{n-1,3} = 0, the fan
        # point a real omega_{n-1} and beta_3 = 0
        on_bisector, on_fan = om.copy(), om.copy()
        on_bisector[-1, 3] = 0.0
        on_fan[-1, 1:] = 0.0
        # exact surfaces leave rounding: <= 1.1e-14 up to n = 12 (<= 1.4e-13 the fan)
        table += [("bisector mean curvature", canonical_bisector_residual,
                   _horo_point(on_bisector, al, *be[:2], 0.0), 0.0, 1e-12),
                  ("fan mean curvature", fan_at_origin_residual,
                   _horo_point(on_fan, al, *be[:2], 0.0), 0.0, 1e-12),
                  ("horosphere mean curvature error", lambda q: convert(q, HORO).alpha - 1.0,
                   _horo_point(om, 1.0, *be), 2 * n + 1, 1e-12)]
    rng, t = np.random.default_rng(405), 0.7
    for _ in range(points if general else 0):
        om, be, al = _horo_draw(rng, n)
        normal = rng.normal(size=4 * (n - 1))
        # the fan with a random normal through the point, and the member t of
        # the bisector family through the point with beta_3 moved to
        # 2 t omega_{n-1,3}; the residual stencil's rounding: <= 1.1e-8 up to n = 12
        fan = functools.partial(fan_residual, normal=normal,
                                offset=float(np.vecdot(om.ravel(), normal)))
        table += [("general fan mean curvature", fan, _horo_point(om, al, *be), 0.0, 1e-7),
                  (f"bisector family t={t} mean curvature",
                   functools.partial(bisector_family_residual, t=t),
                   _horo_point(om, al, *be[:2], 2.0 * t * om[-1, 3]), 0.0, 1e-7)]
    return table


def _cmd_oracle(args) -> int:
    checks = []
    if args.oracle in ("volume", "all"):
        for case in _cases_for(args.n):
            checks.append(_check(
                f"killing ratio spread {case.kind} m={case.m}",
                killing_ratio_spread(case, n_points=args.points), 1e-5))
        # the functional with its bracket un-cubed must fail by far: spread
        # > 0.1 at fixed points, whatever --points, reported as 0.1 / spread
        # so that pass is value <= bound
        checks.append(_check("un-cubed bracket control 0.1/spread",
                             0.1 / uncubed_bracket_spread(args.n), 1.0))
    if args.oracle in ("curvature", "all"):
        errors = {}
        for name, residual, p, expected, bound in _curvature_table(
                args.n, args.points, args.oracle == "all"):
            errors.setdefault((name, bound), []).append(
                ambient_mean_curvature(residual, p) - expected)
        checks += [_check(name, e, bound) for (name, bound), e in errors.items()]
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
        # the limit scales as sqrt(a) R(n) (alpha -> a alpha), so its error is relative
        R = float(np.sqrt(args.a)) * elliptic_integral_R(case.n)
        checks.append(_check("limit vs closed-form quadrature",
                             abs(abs(lim.c2) - R) / R, 1e-6))
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process; parsing leaves it
    as it was."""
    ap = argparse.ArgumentParser(prog="hqn")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (add_flags, func) in VERBS.items():
        # flags are spelled in full: "--h" is not "--help", "--a" not "--a-grid"
        p = sub.add_parser(name, allow_abbrev=False)
        p._negative_number_matcher = NEGATIVE_NUMBER
        add_flags(p)
        p.set_defaults(func=func)
    return ap


def _check_flags(args) -> None:
    """Raise DomainError, ShapeError or NotInteriorError for flag values no
    verb can run with. Only these become usage errors: a NumericalError,
    DomainError or SingularBoundaryError raised later, while computing, or
    an OutputError while writing, is a one-line failure with exit 1, and
    any other error propagates."""
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
    except (DomainError, NotInteriorError, ShapeError) as exc:
        parser.error(str(exc))
    try:
        return args.func(args)
    except (NumericalError, DomainError, SingularBoundaryError, OutputError) as exc:
        print(f"hqn {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
