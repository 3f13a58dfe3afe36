import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hqn.cli import main
from hqn.errors import StepSizeUnderflow


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
    # checked before any Killing spread is computed
    ["oracle", "--oracle", "all", "--n", "3"],
    ["oracle", "--oracle", "curvature", "--n", "3"],
    ["convert", "--from", "ball", "--to", "horo", "--coords", "0.1,0.2,0.3"],
    ["convert", "--from", "ball", "--to", "horo", "--coords", "0.1,x,0,0"],
    ["convert", "--from", "ball", "--to", "horo",
     "--coords", "0.9,0.9,0,0,0,0,0,0"],
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


def test_integration_error_is_not_usage_error(tmp_path):
    # only the flags are validated up front; an error raised while
    # integrating propagates (at h = 1e300 the step size underflows)
    with pytest.raises(StepSizeUnderflow):
        main(["curve", "--case", "special-parabolic", "--n", "2", "--a", "1",
              "--h", "1e300", "--out", str(tmp_path / "c.csv")])


def test_cli_import_leaves_scipy_out():
    # scipy is imported lazily, by the verbs and functions that use it
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hqn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
