import json

import numpy as np
import pytest

from hqn.cli import main
from hqn.errors import DomainError


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
    # only the case flags are validated up front; a bad start propagates
    with pytest.raises(DomainError):
        main(["curve", "--case", "elliptic", "--n", "2", "--m", "1", "--a", "-1",
              "--out", str(tmp_path / "c.csv")])
