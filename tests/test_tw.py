"""Tracy-Widom table interpolation.

Quantile pins were computed by the Fredholm-determinant generator
(tools/gen_tw_table.py) before the library was written and agree with
published tabulations of the GOE law.  scipy's PchipInterpolator serves
as a test-only oracle for the numpy interpolant.
"""

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import specedge
import specedge.tw as tw
from specedge import f1_cdf, f1_quantile
from specedge.errors import DomainError

# frozen from the pre-build determinant oracle
ORACLE_QUANTILES = {0.90: 0.450143, 0.95: 0.979316, 0.99: 2.023449}
ORACLE_F1_AT_0 = 0.831908066203


def test_quantiles_match_oracle():
    for p, x in ORACLE_QUANTILES.items():
        assert f1_quantile(p) == pytest.approx(x, abs=5e-3)


def test_cdf_at_published_decision_point():
    assert f1_cdf(0.4501) == pytest.approx(0.90, abs=5e-3)
    assert f1_cdf(0.0) == pytest.approx(ORACLE_F1_AT_0, abs=1e-9)


def test_tails():
    assert f1_cdf(-10.0) < 1e-6
    assert f1_cdf(10.0) > 1 - 1e-9
    assert f1_cdf(-15.0) < f1_cdf(-10.0)
    assert f1_cdf(8.0) < f1_cdf(12.0) <= 1.0


def test_cdf_monotone_scan():
    xs = np.linspace(-12, 8, 10_000)
    ys = f1_cdf(xs)
    assert np.all((ys >= 0) & (ys <= 1))
    assert np.all(np.diff(ys) >= 0)
    # numerical derivative nonnegative at interior points
    d = np.gradient(ys, xs)
    assert d.min() >= -1e-12


def test_quantile_cdf_round_trip():
    assert f1_cdf(f1_quantile(0.9)) == pytest.approx(0.9, abs=1e-6)
    for x in np.linspace(-4, 4, 33):
        assert f1_quantile(f1_cdf(float(x))) == pytest.approx(x, abs=1e-5)


def test_quantile_strictly_increasing():
    ps = np.linspace(0.01, 0.99, 99)
    qs = [f1_quantile(float(p)) for p in ps]
    assert all(b > a for a, b in zip(qs, qs[1:]))


def test_quantile_domain():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            f1_quantile(bad)


def test_table_env_override(tmp_path, monkeypatch):
    with resources.files("specedge.data").joinpath("tw_f1.csv").open() as fh:
        text = fh.read()
    alt = tmp_path / "table.csv"
    alt.write_text(text)
    monkeypatch.setenv(tw.TABLE_ENV_VAR, str(alt))
    assert f1_cdf(0.0) == pytest.approx(ORACLE_F1_AT_0, abs=1e-9)
    with pytest.raises(FileNotFoundError):
        tw._load_table(str(tmp_path / "missing.csv"))


def test_no_scipy_at_runtime():
    package_root = str(Path(specedge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import specedge.cli\n"
        "from specedge.tw import f1_cdf, f1_quantile\n"
        "f1_cdf(0.0); f1_cdf([-20.0, 0.0, 20.0])\n"
        "f1_quantile(0.9); f1_quantile(1e-30); f1_quantile(1 - 1e-12)\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("thinned", [False, True])
def test_cdf_matches_scipy_pchip_bit_for_bit(thinned, tmp_path, monkeypatch):
    interpolate = pytest.importorskip("scipy.interpolate")
    if thinned:
        # An override table with every other node: other cubics, same rules.
        with resources.files("specedge.data").joinpath("tw_f1.csv").open() as fh:
            lines = fh.read().splitlines()
        alt = tmp_path / "thinned.csv"
        alt.write_text("\n".join(lines[:1] + lines[1::2]) + "\n")
        monkeypatch.setenv(tw.TABLE_ENV_VAR, str(alt))
    table = tw._table()
    x = table.x
    assert x.size == (321 if thinned else 641)
    oracle = interpolate.PchipInterpolator(x, table.f1, extrapolate=False)
    pts = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), np.linspace(x[0], x[-1], 100_000)])
    assert np.array_equal(f1_cdf(pts), oracle(pts))
    few = pts[: 2 * x.size - 1]
    assert [f1_cdf(float(v)) for v in few] == oracle(few).tolist()


def test_cdf_special_values_and_tail_junctions():
    assert np.isnan(f1_cdf(np.nan))
    assert np.isnan(f1_cdf(np.array([np.nan, 0.0]))[0])
    assert f1_cdf(-np.inf) == 0.0 and f1_cdf(np.inf) == 1.0
    # values of the interpolant and of each tail formula at its junction
    pins = {
        -10.0: 3.1398430292028564e-22,
        np.nextafter(-10.0, -np.inf): 3.1398430292027666e-22,
        -10.5: 2.497331663296955e-25,
        6.0: 0.9999980591859277,
        np.nextafter(6.0, np.inf): 0.9999980591859277,
        6.5: 0.9999994763025581,
    }
    for v, expected in pins.items():
        assert f1_cdf(v) == expected
        assert f1_cdf(np.array([v]))[0] == expected


@pytest.mark.filterwarnings("error")
def test_far_tails_give_their_limits_without_a_warning():
    # A tail shape's power overflows for x < -5.6e102 (a**3) and for
    # x > 3.2e205 (x**1.5); the CDF there is its limit, 0 or 1.
    far = [-np.finfo(float).max, -1e200, -6e102, 4e205, 1e300, np.finfo(float).max]
    assert f1_cdf(np.array(far)).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    assert [f1_cdf(x) for x in far] == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]


def test_quantile_inverts_cdf_exactly():
    f1 = tw._table().f1
    ps = np.unique(np.concatenate([
        np.logspace(-300, -1, 400),
        np.linspace(1e-12, 1 - 1e-12, 2001),
        1 - np.logspace(-15.5, -1, 300),
        f1,
        [1e-30, 0.5 * f1[0]],  # left of the table
    ]))
    assert ps.min() < f1[0] and ps.max() > f1[-1]
    qs = []
    for p in ps.tolist():
        q = f1_quantile(p)
        # the CDF crosses p at q: the cubic pieces are not monotone to the
        # last ulp at every node, so q need not be the smallest such double
        assert f1_cdf(q) >= p > f1_cdf(np.nextafter(q, -np.inf)), p
        qs.append(q)
    qs = np.array(qs)
    assert np.all(np.abs(f1_cdf(qs) - ps) <= 1e-13)
    assert np.all(np.diff(qs) > 0)


def test_tail_quantiles_are_pinned():
    assert f1_quantile(1e-25) == -10.560955326733223
    assert f1_quantile(1 - 1e-9) == 8.694269764782687
