import contextlib
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import hqn.integrator
from hqn import cli
from hqn.charts import (
    BALL,
    HORO,
    SIEGEL,
    convert,
    coords_array,
    dist,
    metric_matrix,
    point_from_array,
)
from hqn.cli import _build_parser, main
from hqn.errors import (
    DegenerateOrbitError,
    ExtrapolationError,
    NumericalError,
    SingularPointError,
    StepSizeUnderflow,
)
from hqn.isometries import (
    Isometry,
    act,
    act_horo_closed,
    heisenberg_matrix,
    qmat_identity,
    sp_defect,
    transvection_matrix,
)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_curve_csv(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["curve", "--case", "elliptic", "--n", "2", "--m", "1",
                 "--a", "1.0", "--smax", "20", "--tol", "1e-10",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,c1,c2,sigma,V,I1,I2,residual"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(np.diff(data[:, 1]) > 0)     # r strictly increasing
    assert np.all(np.diff(data[:, 0]) > 0)


def test_curve_byte_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(["curve", "--case", "parabolic", "--n", "2", "--m", "1",
              "--a", "1.0", "--smax", "10", "--tol", "1e-10",
              "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _reference_text(table):
    # the curve file as the writer made it with one % over the table: the
    # reference for the vectorised formatter
    row = "\n" + ",".join([cli.FMT] * table.shape[1])
    return (cli.CSV_HEADER + row * len(table) + "\n") % tuple(table.ravel().tolist())


def _reference_write(curve, path):
    table = np.column_stack([curve.uniform_s, curve.uniform_states, curve.V,
                             curve.I1, curve.I2, curve.residual])
    path.write_text(_reference_text(table))


def _assert_formats_like_percent(values, n_cols=1):
    table = np.asarray(values, dtype=np.float64).reshape(-1, n_cols)
    got = (cli.CSV_HEADER + "\n").encode() + cli._format_g17(table)
    assert got == _reference_text(table).encode()


@settings(max_examples=300, deadline=None)
@given(table=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                    elements=st.floats()))
def test_format_matches_percent_on_any_floats(table):
    # nan, +-inf, +-0 and subnormals included
    _assert_formats_like_percent(table, table.shape[1])


def test_format_matches_percent_on_random_bit_patterns():
    bits = np.random.default_rng(2025).integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64)
    _assert_formats_like_percent(bits.view(np.float64), 8)


def test_format_decides_ties_and_powers_of_ten():
    # exact ties of the 17th digit, decided half to even
    ties = [1 + 2 ** -17, 3 * 2 ** -24, 11120207626922.8125]
    assert [cli.FMT % v for v in ties] == ["1.0000076293945312", "1.7881393432617188e-07",
                                           "11120207626922.812"]
    _assert_formats_like_percent(ties + [-v for v in ties])
    # every tie where 10^(16 - k) is not a double: (2n + 1) 10^-p / 2 with
    # 5^p dividing 2n + 1, so p = 23 or 24
    _assert_formats_like_percent([m * 2.0 ** -24 for m in range(3, 17, 2)]
                                 + [m * 2.0 ** -25 for m in (1, 3)])
    # each power of ten, where log10 may be off by one, and its neighbours
    tens = np.array([float(f"1e{p}") for p in range(-300, 301)])
    _assert_formats_like_percent(np.concatenate(
        [tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)]), 3)
    # where fixed notation turns scientific, and 17 digits turn 18
    _assert_formats_like_percent([1e16, 1e17, 99999999999999999.0, 1e-4, 1e-5,
                                  9.9999999999999995e-5, 0.0, -0.0])


CURVE_FLAGS = [
    # the bench cases
    "--case elliptic --n 2 --m 1 --a 1.3 --tol 1e-11",
    "--case loxodromic --n 3 --m 2 --a 0.7 --tol 1e-11",
    "--case special-loxodromic --n 2 --a 0.4 --tol 1e-11",
    "--case parabolic --n 2 --m 1 --a 1.1 --smax 60 --tol 1e-11",
    "--case special-parabolic --n 2 --a 0.9 --smax 50 --tol 1e-11",
    # CMC curves and the mirrored special-loxodromic curve
    "--case elliptic --n 2 --m 1 --a 1 --h 1 --tol 1e-8",
    "--case elliptic --n 2 --m 1 --a 1 --h -1 --tol 1e-8",
    "--case special-loxodromic --n 2 --a -0.5",
    # V and I1 reach inf, and the I2 column is nan
    "--case elliptic --n 2 --m 1 --a 1 --smax 200",
    "--case elliptic --n 2 --m 1 --a 1 --samples 0",
    "--case elliptic --n 2 --m 1 --a 1 --samples 1",
    "--case elliptic --n 2 --m 1 --a 1 --samples 2",
]


@pytest.mark.parametrize("flags", CURVE_FLAGS)
def test_curve_file_matches_percent_writer(tmp_path, monkeypatch, flags):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    assert main(["curve", *flags.split(), "--out", str(new)]) == 0
    monkeypatch.setattr(cli, "_write_curve_csv", _reference_write)
    assert main(["curve", *flags.split(), "--out", str(ref)]) == 0
    assert new.read_bytes() == ref.read_bytes()


def _reformats_to_itself(data: bytes) -> bool:
    # every field read with float and written with %.17g gives the same
    # bytes; shares no code with the writer
    header, *rows = data.decode().split("\n")
    return rows[-1] == "" and "\n".join(
        ",".join("%.17g" % float(v) for v in row.split(",")) for row in rows[:-1]) \
        == "\n".join(rows[:-1])


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(["--case elliptic --n 2 --m 1", "--case loxodromic --n 3 --m 2",
                             "--case special-loxodromic --n 2", "--case parabolic --n 2 --m 1",
                             "--case special-parabolic --n 2"]),
       a=st.sampled_from(["1e-300", "1e-8", "0.5", "3", "30", "300", "-0.5", "0"]),
       h=st.sampled_from(["0", "1", "-7", "50", "1e6", "-1e6"]),
       tol=st.sampled_from(["1e-3", "1e-14", "1e-16", "0.5"]),
       smax=st.sampled_from(["1e-3", "5", "200", "1e6"]),
       samples=st.integers(0, 50))
def test_curve_flags_never_traceback(tmp_path_factory, case, a, h, tol, smax, samples):
    # any flag values end in a curve file (exit 0) whose fields re-format to
    # themselves, a one-line failure (exit 1) or a usage error (exit 2), with
    # nothing written; the step budget is cut from 100 000 so that curves
    # which would spend it (h = 50 at tol 1e-14, h = +-1e6) take no seconds
    out = tmp_path_factory.getbasetemp() / "flags.csv"
    out.unlink(missing_ok=True)
    argv = ["curve", *case.split(), "--a", a, "--h", h, "--tol", tol, "--smax", smax,
            "--samples", str(samples), "--out", str(out)]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        mp.setattr(hqn.integrator, "MAX_STEPS", 2000)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 0:
        assert lines == [] and _reformats_to_itself(out.read_bytes())
    else:
        assert not out.exists()
        errors = [ln for ln in lines if not ln.startswith(("usage: ", " "))]
        assert errors == [lines[-1]]
        assert lines[-1].startswith("hqn curve: " if code == 1 else "hqn: error: ")


@pytest.mark.parametrize("verb,argv,errnum", [
    ("curve", ["--case", "elliptic", "--n", "2", "--m", "1", "--a", "1",
               "--out", "{missing}/x.csv"], errno.ENOENT),
    ("family", ["--case", "elliptic", "--n", "2", "--m", "1", "--a-grid", "1",
                "--out-dir", "{file}/fam"], errno.ENOTDIR),
    ("verify", ["--suite", "charts", "--out", "{missing}/r.json"], errno.ENOENT),
])
def test_unwritable_output_is_one_line(tmp_path, capsys, verb, argv, errnum):
    # a missing directory, or a file where a directory should be, is one
    # stderr line naming the path, with exit 1
    (tmp_path / "file").write_text("")
    argv = [a.format(missing=tmp_path / "missing", file=tmp_path / "file") for a in argv]
    assert main([verb, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line == f"hqn {verb}: cannot write {argv[-1]}: {os.strerror(errnum)}"


def test_family(tmp_path):
    out = tmp_path / "fam"
    code = main(["family", "--case", "elliptic", "--n", "2", "--m", "1",
                 "--a-grid", "0.5,1.0", "--smax", "3", "--tol", "1e-9",
                 "--out-dir", str(out)])
    assert code == 0
    files = sorted(out.glob("curve_a*.csv"))
    assert len(files) == 2


def test_integral(capsys):
    code, out = run(capsys, "integral", "--n", "2")
    assert code == 0
    assert float(out) == pytest.approx(0.1471, abs=5e-5)


def test_verify_all(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    for check in report["checks"]:
        assert set(check) == {"name", "value", "bound", "pass"}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_all_passes_at_every_n(capsys, n):
    # the special parabolic conserved quantity drifts far below its bound
    code, out = run(capsys, "verify", "--suite", "all", "--n", str(n))
    report = json.loads(out)
    assert code == 0 and report["pass"]
    drift = [c["value"] for c in report["checks"] if c["name"] == "conserved quantity drift"]
    assert len(drift) == 1 and drift[0] <= 1e-10


def _random_ball(rng, n):
    """One ball point as the suites drew it before their draws were stacked."""
    x = rng.uniform(-0.5, 0.5, 4 * n)
    return cli._scale_to_radius(x, rng.uniform(0.1, 0.9))


def _per_draw_suite_charts(n):
    # the charts suite as it ran before it was stacked: one point at a time
    rng = np.random.default_rng(101)
    rt, sym = [], []
    for _ in range(50):
        p = point_from_array(BALL, _random_ball(rng, n), n)
        q = convert(convert(convert(p, SIEGEL), HORO), BALL)
        rt.append(coords_array(q) - coords_array(p))
        p2 = point_from_array(BALL, _random_ball(rng, n), n)
        sym.append(dist(p, p2) - dist(p2, p))
    eig = np.linalg.eigvalsh(metric_matrix(point_from_array(BALL, _random_ball(rng, n), n)))
    return [cli._check("chart round trip", rt, 1e-12),
            cli._check("distance symmetry", sym, 1e-12),
            cli._check("metric positive definite", 0.0 if eig.min() > 0 else 1.0, 0.5)]


def _per_draw_suite_isometries(n):
    # the isometries suite one draw at a time, on the rows of its block draws
    defects, closed = [], []
    for xi, nu, t, B, lam, x in zip(*cli._isometry_draws(np.random.default_rng(202), n, 50)):
        t = float(t)
        big = qmat_identity(n + 1)
        big[:n - 1, :n - 1] = B
        big[n - 1, n - 1] = big[n, n] = lam
        gens = [("heisenberg", heisenberg_matrix(n, xi, nu), dict(xi=xi, nu=nu)),
                ("transvection", transvection_matrix(n, t), dict(t=t)),
                ("rotation", Isometry(big), dict(B=B, lam=lam))]
        p = convert(point_from_array(BALL, x, n), HORO)
        for kind, g, params in gens:
            defects.append(sp_defect(g.A))
            closed.append(coords_array(act(g, p)) - coords_array(act_horo_closed(kind, p, **params)))
    return [cli._check("Sp(n,1) defect", defects, 1e-12),
            cli._check("matrix vs closed-form action", closed, 1e-10)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_suites_match_per_draw(n):
    assert cli._suite_charts(n) == _per_draw_suite_charts(n)
    assert cli._suite_isometries(n) == _per_draw_suite_isometries(n)


def _random_balls_loop(rng, n, k):
    """k calls of uniform per coordinate block and radius: the reference
    for the one-block draw of cli._random_balls."""
    x, r = np.empty((k, 4 * n)), np.empty(k)
    for i in range(k):
        x[i] = rng.uniform(-0.5, 0.5, 4 * n)
        r[i] = rng.uniform(0.1, 0.9)
    return cli._scale_to_radius(x, r)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 100])
def test_random_balls_are_the_uniform_loop(n, k):
    for seed in (101, 7, 2**40 + 3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert cli._random_balls(rng, n, k).tobytes() == _random_balls_loop(ref, n, k).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [2, 3, 4])
def test_suite_draws_keep_the_per_draw_stream(n):
    # the charts suite's 101 stacked ball points, its metric point last, are
    # the per-draw loop's values, bit for bit, and leave the generator where
    # that loop left it
    rng, ref = np.random.default_rng(101), np.random.default_rng(101)
    x = cli._random_balls(rng, n, 101)
    assert x.tobytes() == np.array([_random_ball(ref, n) for _ in range(101)]).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


# check values of the charts and isometries suites, as float.hex: the charts
# rows from the per-draw suite they were first computed by, the isometries
# rows from the block draws
SUITE_VALUES = {
    2: ["0x1.0000000000000p-52", "0x0.0p+0", "0x0.0p+0",
        "0x1.8000000000000p-51", "0x1.0000000000000p-49"],
    3: ["0x1.8000000000000p-53", "0x0.0p+0", "0x0.0p+0",
        "0x1.1000000000000p-50", "0x1.4800000000000p-48"],
    4: ["0x1.8000000000000p-53", "0x0.0p+0", "0x0.0p+0",
        "0x1.0000000000000p-49", "0x1.8000000000000p-48"],
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_suite_values_are_pinned(n):
    checks = cli._suite_charts(n) + cli._suite_isometries(n)
    assert [c["value"].hex() for c in checks] == SUITE_VALUES[n]


def test_convert_round_trip(capsys):
    coords = "0.1,0.02,0,0,0.2,0,0.05,0"
    code, out = run(capsys, "convert", "--from", "ball", "--to", "horo",
                    "--coords", coords)
    assert code == 0
    code, back = run(capsys, "convert", "--from", "horo", "--to", "ball",
                     "--coords", out.strip())
    assert code == 0
    got = np.array([float(v) for v in back.split(",")])
    want = np.array([float(v) for v in coords.split(",")])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_boundary_parabolic(capsys):
    code, out = run(capsys, "boundary", "--case", "parabolic", "--n", "2",
                    "--m", "1", "--a", "1.0", "--smax", "100")
    assert code == 0
    report = json.loads(out)
    lo, hi = report["checks"][0]["bound"]
    assert lo < report["checks"][0]["value"] < hi


@pytest.mark.parametrize("a", ["0.5", "2"])
def test_boundary_special_parabolic_scales_with_a(capsys, a):
    # the limit of the curve started at alpha = a is sqrt(a) R(n)
    code, out = run(capsys, "boundary", "--case", "special-parabolic", "--n", "2",
                    "--a", a, "--smax", "50")
    assert code == 0
    assert json.loads(out)["checks"][0]["value"] <= 1e-10


def test_boundary_failure_honours_out(tmp_path, capsys):
    # a tail too short to extrapolate fails the check, into the --out file
    out = tmp_path / "r.json"
    code, stdout = run(capsys, "boundary", "--case", "parabolic", "--n", "2",
                       "--m", "1", "--a", "1", "--smax", "1", "--out", str(out))
    assert code == 1
    assert stdout == ""
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["checks"][0]["name"] == "limit endpoint"


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--case", "nonsense", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["curve", "--case", "elliptic", "--n", "2", "--m", "5", "--a", "1",
     "--out", "c.csv"],
    ["curve", "--case", "elliptic", "--n", "2", "--a", "1", "--out", "c.csv"],
    ["family", "--case", "loxodromic", "--n", "3", "--m", "1", "--a-grid", "1",
     "--out-dir", "fam"],
    ["boundary", "--case", "special-parabolic", "--n", "1", "--a", "1"],
    # start values the integrator cannot take
    ["curve", "--case", "elliptic", "--n", "2", "--m", "1", "--a", "-1",
     "--out", "c.csv"],
    ["curve", "--case", "special-parabolic", "--n", "2", "--a", "nan",
     "--out", "c.csv"],
    ["curve", "--case", "elliptic", "--n", "2", "--m", "1", "--a", "1",
     "--tol", "0", "--out", "c.csv"],
    ["curve", "--case", "parabolic", "--n", "2", "--m", "1", "--a", "1",
     "--tol", "inf", "--out", "c.csv"],
    ["curve", "--case", "special-loxodromic", "--n", "2", "--a", "0",
     "--smax", "0", "--out", "c.csv"],
    ["family", "--case", "elliptic", "--n", "2", "--m", "1", "--a-grid", "1,x",
     "--out-dir", "fam"],
    ["family", "--case", "elliptic", "--n", "2", "--m", "1", "--a-grid", "1,-1",
     "--out-dir", "fam"],
    ["boundary", "--case", "parabolic", "--n", "2", "--m", "1", "--a", "-1"],
    # checked before any oracle runs
    ["oracle", "--oracle", "all", "--n", "1"],
    ["oracle", "--oracle", "curvature", "--n", "0"],
    ["convert", "--from", "ball", "--to", "horo", "--coords", "0.1,0.2,0.3"],
    ["convert", "--from", "ball", "--to", "horo", "--coords", "0.1,x,0,0"],
    ["convert", "--from", "ball", "--to", "horo",
     "--coords", "0.9,0.9,0,0,0,0,0,0"],
    ["convert", "--from", "ball", "--to", "horo",
     "--coords", "nan,0,0,0,0,0,0,0"],
    # inside the ball, but alpha = 2.5e-13 is below the horospherical margin
    ["convert", "--from", "ball", "--to", "horo",
     "--coords", "0,0,0,0,-0.9999999999995,0,0,0"],
    ["curve", "--case", "elliptic", "--n", "2", "--m", "1", "--a", "1",
     "--samples", "-1", "--out", "c.csv"],
    # boundary checks minimal curves only and has no --h flag
    ["boundary", "--case", "parabolic", "--n", "2", "--m", "1", "--a", "1",
     "--smax", "100", "--h", "0.5"],
    ["verify", "--n", "1"],
    ["verify", "--suite", "charts", "--n", "-1"],
    ["oracle", "--oracle", "volume", "--n", "1"],
    ["oracle", "--oracle", "volume", "--points", "0"],
    ["oracle", "--oracle", "curvature", "--points", "-1"],
    ["boundary", "--case", "parabolic", "--n", "2", "--m", "1", "--a", "1",
     "--smax", "100", "--samples", "5"],
    # flags are not abbreviated: --a is not --a-grid
    ["family", "--case", "parabolic", "--n", "2", "--m", "1", "--a-grid", "1",
     "--a", "2", "--out-dir", "d"],
    # the integral is defined for the paper's n >= 2
    ["integral", "--n", "0"],
    ["integral", "--n", "-1"],
    ["integral", "--n", "1"],
])
def test_bad_case_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("hqn: error: ")
    assert list(tmp_path.iterdir()) == []


def test_oracle_runs_at_n3(capsys):
    # both oracles run at every n >= 2; the horosphere check expects 2n + 1
    code, out = run(capsys, "oracle", "--n", "3")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "horosphere mean curvature error" in names
    assert "killing ratio spread loxodromic m=2" in names


def _strict_json(text):
    """The report, refusing the bare NaN and Infinity tokens JSON lacks."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_oracle_one_point_report_passes_as_strict_json(capsys):
    # the un-cubed bracket control runs at its own 20 points, so one point
    # leaves every row finite: no bare Infinity or NaN in the report
    code, out = run(capsys, "oracle", "--points", "1")
    assert code == 0
    report = _strict_json(out)
    assert all(c["pass"] for c in report["checks"])


def test_check_row_is_the_largest_magnitude():
    assert cli._check("x", [1.0, -3.0, 2.0], 5) == {
        "name": "x", "value": 3.0, "bound": 5.0, "pass": True}
    assert cli._check("x", np.array([[0.5], [6.0]]), 5)["pass"] is False
    for values, text in (([1.0, np.nan, 9.0], "nan"), ([-np.inf], "inf")):
        assert cli._check("x", values, 5) == {
            "name": "x", "value": text, "bound": 5.0, "pass": False}


def _poison_call(monkeypatch, name, call, poison):
    """Patch cli.<name> so that its call-th call returns poison(its result)."""
    real, calls = getattr(cli, name), []

    def patched(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return poison(out) if len(calls) == call else out

    monkeypatch.setattr(cli, name, patched)


def _failed_rows(capsys, *argv):
    """The names of the failed rows of a report that must exit 1, each with
    the value "nan", as strict JSON."""
    code, out = run(capsys, *argv)
    report = _strict_json(out)
    assert code == 1 and report["pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert all(c["value"] == "nan" for c in failed)
    return [c["name"] for c in failed]


def test_nan_curvature_fails_its_row(monkeypatch, capsys):
    # each point takes the bisector, fan and horosphere in turn: the 4th
    # call is the bisector at the second point
    _poison_call(monkeypatch, "ambient_mean_curvature", 4, lambda h: np.nan)
    assert _failed_rows(capsys, "oracle", "--oracle", "curvature", "--n", "2") == [
        "bisector mean curvature"]


@pytest.mark.parametrize("call, row", [(63, "general fan mean curvature"),
                                       (66, "bisector family t=0.7 mean curvature")])
def test_nan_general_curvature_fails_its_row(monkeypatch, capsys, call, row):
    # 20 points take 60 calls on the bisector, fan and horosphere; then each
    # point takes the general fan and the bisector family in turn
    _poison_call(monkeypatch, "ambient_mean_curvature", call, lambda h: np.nan)
    assert _failed_rows(capsys, "oracle", "--n", "2") == [row]


def test_nan_defect_fails_its_row(monkeypatch, capsys):
    # the second generator's defects, the transvections', with one NaN
    _poison_call(monkeypatch, "sp_defect", 2,
                 lambda d: np.where(np.arange(d.size) == 7, np.nan, d))
    assert _failed_rows(capsys, "verify", "--suite", "isometries", "--n", "2") == [
        "Sp(n,1) defect"]


def test_nan_rate_fails_its_row(monkeypatch, capsys):
    # the first explicit solution's rates, of the first case, all NaN
    _poison_call(monkeypatch, "case_rhs", 1, lambda rhs: lambda *state: (np.nan,) * 3)
    case = cli._cases_for(2)[0]
    assert _failed_rows(capsys, "verify", "--suite", "reduction", "--n", "2") == [
        f"stationary families {case.kind} m={case.m}"]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(-2, 4), points=st.integers(-3, 3))
def test_oracle_flags_never_traceback(n, points):
    # any --n/--points gives a report (exit 0 or 1) or a one-line usage
    # error (exit 2); an exception escaping main() fails the test
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["oracle", "--oracle", "volume", "--n", str(n),
                         "--points", str(points)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == (n < 2 or points < 1)
    if code != 2:
        assert json.loads(out.getvalue())["checks"]


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_float_flags_parse_back(x):
    # repr of any finite float, negative and scientific forms included, is
    # read as the flag's value, never as an unknown option
    parse = _build_parser().parse_args
    v = repr(x)
    curve = parse(["curve", "--case", "elliptic", "--n", "2", "--a", v,
                   "--h", v, "--out", "c.csv"])
    boundary = parse(["boundary", "--case", "parabolic", "--n", "2", "--a", v])
    convert = parse(["convert", "--from", "ball", "--to", "horo",
                     "--coords", "0,0,0,0", "--transvection", v])
    for got in (curve.a, curve.h, boundary.a, convert.transvection):
        assert repr(got) == v


def test_negative_scientific_a_matches_equals_form(tmp_path):
    # the special-loxodromic a range reaches negative values that repr
    # writes in scientific notation
    flags = ["curve", "--case", "special-loxodromic", "--n", "2",
             "--samples", "101"]
    assert main(flags + ["--a", "-3.5e-05", "--out", str(tmp_path / "a.csv")]) == 0
    assert main(flags + ["--a=-3.5e-05", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(-2, 4))
def test_integral_flags_never_traceback(n):
    # exit 0 with one number, or a one-line usage error exactly when n < 2
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["integral", "--n", str(n)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == (n < 2)
    if code == 0:
        assert float(out.getvalue()) > 0.0
    else:
        assert err.getvalue().splitlines()[-1].startswith("hqn: error: ")


CONVERT_COORDS = [
    ("ball", "0,0,0,0,0.1,0,0,0"),
    ("ball", "0.3,-0.1,0,0.2,-0.5,0.1,0.2,0"),
    ("horo", "0.2,0,0,0,0.5,0.1,0,0"),
    ("siegel", "0.1,0,0,0,1,0,0.3,0"),
    ("ball", "0.9,0.9,0,0,0,0,0,0"),       # outside the ball
    ("horo", "0,0,0,0,-1,0,0,0"),          # alpha < 0
    ("ball", "0.1,0.2,0.3"),               # not 4n values
    ("ball", "0.1,x,0,0"),                 # not a number
    ("ball", "nan,0,0,0,0,0,0,0"),         # not finite
]


@settings(max_examples=200, deadline=None)
@given(t=st.floats(), point=st.sampled_from(CONVERT_COORDS),
       to=st.sampled_from(["ball", "horo", "siegel"]))
def test_convert_flags_never_traceback(t, point, to):
    # any --transvection, finite or not, prints a point (exit 0) or gives a
    # one-line usage error (exit 2), without a numpy warning
    frm, coords = point
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(["convert", "--from", frm, "--to", to, "--coords", coords,
                         "--transvection", repr(t)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert np.isfinite(t)
        assert np.all(np.isfinite([float(v) for v in out.getvalue().split(",")]))
    else:
        lines = err.getvalue().splitlines()
        assert lines[-1].startswith("hqn: error: ")
        assert not any(ln.startswith("hqn: error: ") for ln in lines[:-1])


def test_large_transvection_prints_point(capsys):
    # the ball point x_2 = 0.1 has alpha = 1.1 / 0.9, and the transvection
    # by t scales alpha by e^{2t}
    code, out = run(capsys, "convert", "--from", "ball", "--to", "horo",
                    "--coords", "0,0,0,0,0.1,0,0,0", "--transvection", "10")
    assert code == 0
    alpha = float(out.split(",")[4])
    assert alpha == pytest.approx(np.exp(20.0) * 1.1 / 0.9, rel=1e-6)


def test_integration_error_is_not_usage_error(tmp_path, capsys):
    # only the flags are validated up front; an error raised while
    # integrating (at h = 1e300 the step size underflows) is a one-line
    # failure with exit 1, not a usage error
    assert main(["curve", "--case", "special-parabolic", "--n", "2", "--a", "1",
                 "--h", "1e300", "--out", str(tmp_path / "c.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("hqn curve: required step size is less than "
                            "spacing between numbers at s = 0.0\n")
    assert list(tmp_path.iterdir()) == []


def test_numerical_errors_share_one_base():
    for exc in (StepSizeUnderflow, ExtrapolationError, DegenerateOrbitError,
                SingularPointError):
        assert issubclass(exc, NumericalError)
    assert issubclass(NumericalError, RuntimeError)
    assert not issubclass(NumericalError, ValueError)


def test_step_budget_is_one_line_failure(tmp_path, monkeypatch, capsys):
    # at h = 1e30 every step is accepted at 10 spacing(s), until the step
    # budget is spent; main reports that in one stderr line, with exit 1
    monkeypatch.setattr(hqn.integrator, "MAX_STEPS", 50)
    out = tmp_path / "c.csv"
    code = main(["curve", "--case", "elliptic", "--n", "2", "--m", "1", "--a", "1",
                 "--h", "1e30", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    head = "hqn curve: step budget of 50 steps spent at s = "
    assert line.startswith(head)
    assert 0.0 < float(line[len(head):]) < 1.0
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    # the dense-output stages leave the orbit space
    "--case elliptic --n 2 --m 1 --a 1 --tol 1e-3 --smax 1e6 --h -1e6",
    # math.sinh overflows past r = 710
    "--case loxodromic --n 3 --m 2 --a 0.5 --smax 1e6",
    # a non-finite sigma reaches math.cos
    "--case special-loxodromic --n 2 --a 2 --tol 1e-2 --smax 1e6 --h -1",
    # theta0 = s0 / (2 sinh a) starts below the domain_exit level 1e-12
    "--case elliptic --n 2 --m 1 --a 300 --tol 1e-3 --smax 1e6 --h 1e6",
    "--case elliptic --n 2 --m 1 --a 30 --tol 1e-3 --smax 1e6 --h -7",
    "--case elliptic --n 2 --m 1 --a 19",
    "--case elliptic --n 2 --m 1 --a 300",
    # the first right-hand side call is on the singular stratum
    "--case elliptic --n 2 --m 1 --a 1e-8",
    # so it is where sinh(a) overflows
    "--case elliptic --n 2 --m 1 --a 800",
])
def test_failed_curve_is_one_line(tmp_path, monkeypatch, capsys, flags):
    # a stage that raises is a rejected step, and a DomainError or
    # SingularBoundaryError from a verb is one stderr line with exit 1; the
    # first curve ends on the step budget, cut here from 100 000 (CI runs
    # the full one)
    monkeypatch.setattr(hqn.integrator, "MAX_STEPS", 5000)
    out = tmp_path / "x.csv"
    code = main(["curve", *flags.split(), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith("hqn curve: ")
    assert not out.exists()


@pytest.mark.parametrize("verb,flag", [("curve", "--a"), ("boundary", "--a"),
                                       ("family", "--a-grid")])
@pytest.mark.parametrize("a,theta0", [("1e-8", "5000.0"), ("800", "0.0"),
                                      ("19", "5.602796437537269e-13"),
                                      ("300", "5.148200222412014e-135")])
def test_singular_start_names_a(tmp_path, capsys, verb, flag, a, theta0):
    # a start on the singular stratum is one line that names the start
    # parameter a and theta0, with no warning on the way; the message comes
    # from integrate_profile, so it names no flag, whichever verb gave a
    out = {"curve": ["--out", str(tmp_path / "x.csv")], "boundary": [],
           "family": ["--out-dir", str(tmp_path)]}[verb]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([verb, "--case", "elliptic", "--n", "2", "--m", "1",
                     flag, a, *out])
    assert code == 1
    assert capsys.readouterr().err == (
        f"hqn {verb}: a = {float(a)!r} starts the curve at theta0 = s0/(2 sinh |a|) "
        f"= {theta0}, which is not clear of the singular strata; choose another a\n")


def test_far_curve_warns_nothing(tmp_path, capsys):
    # past r ~ 80 at n = 2, V and I1 overflow to inf: the columns say so,
    # with no RuntimeWarning
    out = tmp_path / "long.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["curve", "--case", "elliptic", "--n", "2", "--m", "1",
                     "--a", "1", "--smax", "200", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(np.isfinite(table[:, :4]))
    assert np.isinf(table[-1, 4]) and np.isinf(table[-1, 5])


SCIPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["scipy"] = None          # any import of scipy raises ImportError
sys.path.insert(0, sys.argv[1])
from hqn.cli import main
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_every_verb_runs_without_scipy(tmp_path):
    # numpy is hqn's only runtime dependency: every verb, and `boundary` for
    # every case kind, exits 0 with scipy unimportable
    src = Path(__file__).resolve().parent.parent / "src"
    runs = [
        ["curve", "--case", "elliptic", "--n", "2", "--m", "1", "--a", "1",
         "--out", str(tmp_path / "c.csv")],
        ["family", "--case", "parabolic", "--n", "2", "--m", "1", "--a-grid", "0.5,1",
         "--out-dir", str(tmp_path / "fam")],
        ["verify", "--suite", "all", "--n", "2"],
        ["oracle", "--n", "2", "--points", "3"],
        ["convert", "--from", "ball", "--to", "horo", "--coords", "0,0,0,0,0.1,0,0,0"],
        ["integral", "--n", "2"],
        ["boundary", "--case", "elliptic", "--n", "2", "--m", "1", "--a", "1"],
        ["boundary", "--case", "loxodromic", "--n", "3", "--m", "2", "--a", "0.5"],
        ["boundary", "--case", "special-loxodromic", "--n", "2", "--a", "0.5"],
        ["boundary", "--case", "parabolic", "--n", "2", "--m", "1", "--a", "1",
         "--smax", "100"],
        ["boundary", "--case", "special-parabolic", "--n", "2", "--a", "1", "--smax", "50"],
    ]
    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, str(src), json.dumps(runs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(runs)


def test_special_parabolic_boundary_at_tiny_a(capsys):
    # at a = 1e-300, alpha^{-2n-1} overflows; the tail is taken without it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["boundary", "--case", "special-parabolic", "--n", "2", "--a", "1e-300"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    (check,) = json.loads(captured.out)["checks"]
    assert check["name"] == "limit vs closed-form quadrature" and check["pass"]
    assert check["value"] <= 1e-6          # relative to sqrt(a) R(2) = 1e-150 R(2)


@pytest.mark.parametrize("a, smax", [("1", "50"), ("1e-300", "20")])
def test_special_parabolic_limit_off_by_1e_5_fails(monkeypatch, capsys, a, smax):
    # a limit 1e-5 off sqrt(a) R(n), relative, fails the check at every a;
    # at a = 1e-300 an absolute 1e-6 bound would pass any limit
    real = cli.limit_endpoint

    def off(curve):
        lim = real(curve)
        return dataclasses.replace(lim, c2=lim.c2 * (1.0 + 1e-5))

    monkeypatch.setattr(cli, "limit_endpoint", off)
    code, out = run(capsys, "boundary", "--case", "special-parabolic", "--n", "2",
                    "--a", a, "--smax", smax)
    (check,) = json.loads(out)["checks"]
    assert code == 1 and check["name"] == "limit vs closed-form quadrature"
    assert check["pass"] is False and check["value"] == pytest.approx(1e-5, rel=0.01)


@settings(max_examples=120, deadline=None)
@given(verb=st.sampled_from(["boundary", "family"]),
       case=st.sampled_from(["--case elliptic --n 2 --m 1", "--case loxodromic --n 3 --m 2",
                             "--case special-loxodromic --n 2", "--case parabolic --n 2 --m 1",
                             "--case special-parabolic --n 2"]),
       a=st.lists(st.sampled_from(["1e-300", "1e-8", "0.5", "3", "30", "300", "-0.5", "0"]),
                  min_size=1, max_size=3),
       h=st.sampled_from(["0", "1", "-7", "50", "1e6", "-1e6"]),
       tol=st.sampled_from(["1e-3", "1e-14", "1e-16", "0.5"]),
       smax=st.sampled_from(["1e-3", "5", "200", "1e6"]),
       samples=st.integers(0, 50))
def test_boundary_and_family_flags_never_traceback(tmp_path_factory, verb, case, a, h, tol,
                                                   smax, samples):
    # any flag values, with warnings as errors, end in exit 0, a one-line
    # failure or failed report (exit 1) or a usage error (exit 2); the step
    # budget is cut as in test_curve_flags_never_traceback
    if verb == "boundary":
        argv = ["boundary", *case.split(), "--a", a[0], "--tol", tol, "--smax", smax]
    else:
        argv = ["family", *case.split(), "--a-grid", ",".join(a), "--h", h, "--tol", tol,
                "--smax", smax, "--samples", str(samples),
                "--out-dir", str(tmp_path_factory.getbasetemp() / "flags")]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        mp.setattr(hqn.integrator, "MAX_STEPS", 2000)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    errors = [ln for ln in lines if not ln.startswith(("usage: ", " "))]
    assert len(errors) <= 1 and (code == 0) <= (errors == [])


def _exit_and_output(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out + captured.err


def test_top_level_help_lists_every_verb(capsys):
    code, text = _exit_and_output(capsys, ["-h"])
    assert code == 0
    for verb in ("curve", "family", "verify", "oracle", "boundary", "convert", "integral"):
        assert verb in text
    assert list(cli.VERBS) == ["curve", "family", "verify", "oracle", "boundary",
                               "convert", "integral"]


VERB_FLAGS = {
    "curve": ["--case", "--n", "--m", "--smax", "--tol", "--h", "--samples", "--a", "--out"],
    "family": ["--case", "--n", "--m", "--smax", "--tol", "--h", "--samples",
               "--a-grid", "--out-dir"],
    "verify": ["--suite", "--n", "--out"],
    "oracle": ["--oracle", "--n", "--points", "--out"],
    "boundary": ["--case", "--n", "--m", "--smax", "--tol", "--a", "--out"],
    "convert": ["--from", "--to", "--coords", "--transvection"],
    "integral": ["--n"],
}


@pytest.mark.parametrize("verb", sorted(VERB_FLAGS))
def test_verb_help_names_its_flags(capsys, verb):
    code, text = _exit_and_output(capsys, [verb, "-h"])
    assert code == 0
    assert text.startswith(f"usage: hqn {verb} ")
    for flag in VERB_FLAGS[verb]:
        assert flag in text


def test_no_verb_and_unknown_verb_are_usage_errors(capsys):
    code, text = _exit_and_output(capsys, [])
    assert code == 2 and "required: command" in text
    code, text = _exit_and_output(capsys, ["bogus"])
    assert code == 2 and "invalid choice: 'bogus'" in text
    for verb in cli.VERBS:
        assert verb in text


def test_one_verb_parser_keeps_the_full_usage_line(capsys):
    # a usage error found after parsing prints the top-level usage line,
    # which names every verb
    code, text = _exit_and_output(capsys, ["verify", "--n", "1"])
    assert code == 2
    usage = "usage: hqn [-h] {curve,family,verify,oracle,boundary,convert,integral} ..."
    assert text.splitlines()[0] == usage
    assert _build_parser().format_usage().strip() == usage


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch, tmp_path):
    # the parser is built once per process; a call's flags are not the next
    # call's defaults, and a usage error after a good call reads as it does
    # first
    assert _build_parser() is _build_parser()
    seen = []

    def recorded(case, a, **kwargs):
        seen.append(kwargs["h"])
        return hqn.integrator.integrate_profile(case, a, **kwargs)

    monkeypatch.setattr(cli, "integrate_profile", recorded)
    argv = ["curve", "--case", "elliptic", "--n", "2", "--m", "1", "--a", "1",
            "--tol", "1e-6", "--out", str(tmp_path / "c.csv")]
    assert main(argv + ["--h", "1"]) == 0
    assert main(argv) == 0
    assert seen == [1.0, 0.0]
    monkeypatch.undo()
    first = _exit_and_output(capsys, ["verify", "--n", "1"])
    assert main(["verify", "--n", "2"]) == 0
    capsys.readouterr()
    assert _exit_and_output(capsys, ["verify", "--n", "1"]) == first
    assert first[0] == 2
    code, text = _exit_and_output(capsys, ["-h"])
    assert code == 0
    for verb in cli.VERBS:
        assert verb in text
