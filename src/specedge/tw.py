"""GOE Tracy-Widom law: CDF and quantiles from an embedded table.

The table was generated once, before the library was built, by a
Fredholm-determinant oracle (tools/gen_tw_table.py) and cross-checked
against published quantile tabulations.  At runtime we only interpolate,
in numpy alone: inside the table a monotone piecewise-cubic Hermite
interpolant (Fritsch & Carlson 1980, with the weighted-harmonic interior
slopes of Fritsch & Butland 1984 and a one-sided three-point end rule),
built once per process and evaluated the way scipy's
``PchipInterpolator(..., extrapolate=False)`` evaluates it, bit for bit;
outside it, analytic tail formulas with constants matched for continuity
at the junctions.  Quantiles invert that CDF exactly, by one bisection
of the CDF at every level, in the table and in the tails alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class TWTable:
    """Loaded CDF nodes, the cubic on each node interval, and tail
    constants matched at the table ends.

    ``coef[:, i]`` holds (c0, c1, c2, c3) of the cubic
    c3 + c2*s + c1*s**2 + c0*s**3 in s = x - x[i] on [x[i], x[i+1]]."""

    x: np.ndarray
    f1: np.ndarray
    coef: np.ndarray
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


def _end_slope(h0, h1, m0, m1):
    # one-sided three-point estimate, 0 where it is not positive
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    return d if d > 0 else 0.0


def _pchip_coefficients(x, y):
    """Monotone cubic Hermite coefficients for strictly increasing x and y:
    with every secant slope positive, each interior slope is the weighted
    harmonic mean of its two secants."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y)
    d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


@cache
def _table() -> TWTable:
    """The packaged table, loaded and checked once per process."""
    with resources.files("specedge.data").joinpath("tw_f1.csv").open("rb") as fh:
        raw = np.loadtxt(fh, delimiter=",", skiprows=1)
    x, f1 = raw[:, 0], raw[:, 1]
    if x.size < 50 or np.any(np.diff(x) <= 0) or np.any(np.diff(f1) <= 0):
        raise DomainError("TW table must be strictly increasing in both columns")
    if not (0 <= f1[0] < 1e-4 and 1 - 1e-4 < f1[-1] <= 1):
        raise DomainError("TW table does not reach both tails")
    c_left = f1[0] / _left_tail_shape(x[0])
    c_right = (1.0 - f1[-1]) / _right_tail_shape(x[-1])
    return TWTable(x=x, f1=f1, coef=_pchip_coefficients(x, f1),
                   c_left=float(c_left), c_right=float(c_right))


def _cubic(c, s):
    """c3 + c2*s + c1*s**2 + c0*s**3 for c = (c0, c1, c2, c3), summed in
    ascending powers as scipy's PPoly sums them; s may be an array."""
    c0, c1, c2, c3 = c
    s2 = s * s
    return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


def f1_cdf(x):
    """GOE Tracy-Widom CDF, scalar or vectorized."""
    table = _table()
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    # Clamping keeps s finite for the tail points, which are overwritten.
    v = np.clip(xa, table.lo, table.hi)
    # x[i] <= v < x[i+1], with the last interval closed on the right
    i = np.minimum(np.searchsorted(table.x, v, "right") - 1, table.x.size - 2)
    out = _cubic([c.take(i) for c in table.coef], v - table.x.take(i))
    # Far in a tail a power overflows to inf, and the shape to its limit 0.
    left = xa < table.lo
    if left.any():
        with np.errstate(over="ignore"):
            out[left] = table.c_left * _left_tail_shape(xa[left])
    right = xa > table.hi
    if right.any():
        with np.errstate(over="ignore"):
            out[right] = 1.0 - table.c_right * _right_tail_shape(xa[right])
    return float(out[0]) if scalar else out


def _bisect_cdf(p: float, a: float, b: float) -> float:
    """A crossing of level p by the CDF on [a, b], given F(a) < p <= F(b):
    the bracket shrinks to two adjacent doubles, each pass bisecting six
    times at once on a 65-point grid, and the upper one is returned."""
    while True:
        grid = np.linspace(a, b, 65)
        k = int(np.argmax(f1_cdf(grid) >= p))
        if grid[k - 1] == a and grid[k] == b:
            return float(b)
        a, b = grid[k - 1], grid[k]


def f1_quantile(p: float) -> float:
    """Inverse CDF: a point q with F(q) >= p > F(q'), q' the double below q.

    The table's ends move out in steps of 5 until the CDF itself brackets
    p, and one bisection of the CDF closes the bracket.  The bracket is
    never read off the table's F1 column: the cubics can miss it at a node
    by an ulp, and the bisection needs F(a) < p <= F(b) as F evaluates."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must lie in (0,1), got {p}")
    table = _table()
    a, b = table.lo, table.hi
    while f1_cdf(a) >= p:
        a -= 5.0
    while f1_cdf(b) < p:
        b += 5.0
    return _bisect_cdf(p, a, b)
