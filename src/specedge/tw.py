"""GOE Tracy-Widom law: CDF and quantiles from an embedded table.

The table was generated once, before the library was built, by a
Fredholm-determinant oracle (tools/gen_tw_table.py) and cross-checked
against published quantile tabulations.  At runtime we only interpolate:
monotone cubic inside the table, analytic tail formulas outside with
constants matched for continuity at the junctions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import DomainError

TABLE_ENV_VAR = "SPECEDGE_TW_TABLE"
QUANTILE_TOL = 1e-6


@dataclass(frozen=True)
class TWTable:
    """Loaded CDF nodes plus tail constants matched at the table ends."""

    x: np.ndarray
    f1: np.ndarray
    c_left: float
    c_right: float

    @property
    def lo(self) -> float:
        return float(self.x[0])

    @property
    def hi(self) -> float:
        return float(self.x[-1])


def _left_tail_shape(x):
    # log F1(s) ~ -|s|^3/24 - |s|^{3/2}/(3 sqrt 2) - (1/16) log|s|, s -> -inf
    a = np.abs(x)
    return np.exp(-(a**3) / 24.0 - a**1.5 / (3.0 * np.sqrt(2.0))) * a ** (-1.0 / 16.0)


def _right_tail_shape(x):
    # 1 - F1(s) ~ exp(-(2/3) s^{3/2}) / s^{3/4}, s -> +inf
    return np.exp(-(2.0 / 3.0) * x**1.5) * x ** (-0.75)


def _load_table(path=None) -> TWTable:
    if path is not None:
        raw = np.loadtxt(path, delimiter=",", skiprows=1)
    else:
        with resources.files("specedge.data").joinpath("tw_f1.csv").open("rb") as fh:
            raw = np.loadtxt(fh, delimiter=",", skiprows=1)
    x, f1 = raw[:, 0], raw[:, 1]
    if x.size < 50 or np.any(np.diff(x) <= 0) or np.any(np.diff(f1) <= 0):
        raise DomainError("TW table must be strictly increasing in both columns")
    if not (0 <= f1[0] < 1e-4 and 1 - 1e-4 < f1[-1] <= 1):
        raise DomainError("TW table does not reach both tails")
    c_left = f1[0] / _left_tail_shape(x[0])
    c_right = (1.0 - f1[-1]) / _right_tail_shape(x[-1])
    return TWTable(x=x, f1=f1, c_left=float(c_left), c_right=float(c_right))


@lru_cache(maxsize=4)
def _interpolant_cached(path):
    table = _load_table(path)
    return table, PchipInterpolator(table.x, table.f1, extrapolate=False)


def _interpolant():
    return _interpolant_cached(os.environ.get(TABLE_ENV_VAR))


def f1_cdf(x):
    """GOE Tracy-Widom CDF, scalar or vectorized."""
    table, interp = _interpolant()
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    out = np.empty_like(xa)
    left = xa < table.lo
    right = xa > table.hi
    mid = ~(left | right)
    out[mid] = interp(xa[mid])
    out[left] = table.c_left * _left_tail_shape(xa[left])
    out[right] = 1.0 - table.c_right * _right_tail_shape(xa[right])
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def f1_quantile(p: float) -> float:
    """Inverse CDF by bracketed root finding on the interpolant."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must lie in (0,1), got {p}")
    table, _ = _interpolant()
    lo, hi = table.lo, table.hi
    # Extend the bracket through the tails if needed.
    while f1_cdf(lo) > p:
        lo -= 5.0
    while f1_cdf(hi) < p:
        hi += 5.0
    return brentq(lambda t: f1_cdf(t) - p, lo, hi, xtol=QUANTILE_TOL * 1e-2)
