"""Population specifications for the model X'TX.

A population is the diagonal matrix T, stored as (value, multiplicity)
pairs, together with the sample dimension N.  Everything downstream
(spectral law, edges, tests, simulations) is a deterministic function of
this object.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import PopulationError

RATIO_BAND = (1.0 / 20.0, 20.0)    # admissible M/N
VALUE_BOUND = 1e3                  # admissible |t|


def _derived(method):
    """Compute a spec's derived array (or tuple of arrays) once, on first
    use, and hand out that one copy marked read-only.  The spec is frozen,
    so the value never goes stale."""
    key = "_" + method.__name__

    @functools.wraps(method)
    def get(self):
        if key not in self.__dict__:
            out = method(self)
            for a in out if isinstance(out, tuple) else (out,):
                a.flags.writeable = False
            self.__dict__[key] = out
        return self.__dict__[key]
    return get


def _is_int(v) -> bool:
    """The test of every integer argument: a Python or numpy integer,
    and not a boolean."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _document_int(value, error: type[Exception], field: str, *index) -> int:
    """A JSON document's integer field read exactly: integers and integral
    floats such as 100.0 pass; booleans, strings, fractional and non-finite
    numbers raise `error` naming the field, `field.format(*index)`.  The
    name is formatted only then: a document can hold thousands of entries."""
    if _is_int(value) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise error(f"{field.format(*index)} must be an integer, got {value!r}")


def _document_float(value, error: type[Exception], field: str, *index) -> float:
    """A JSON document's real field: integers, floats and numpy reals pass;
    booleans, strings, None and integers beyond the float range raise
    `error` naming the field, `field.format(*index)`."""
    if type(value) is float:
        return value
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise error(f"{field.format(*index)} must be a number, got {value!r}")


@dataclass(frozen=True)
class PopulationSpec:
    """Diagonal population T as merged (t, multiplicity) pairs, plus N.

    Entries are canonicalized on construction: equal values merged,
    sorted ascending, multiplicities positive.  M/N must stay inside
    RATIO_BAND and every |t| below VALUE_BOUND.
    """

    entries: tuple[tuple[float, int], ...]
    n_dim: int

    def __post_init__(self):
        if not (_is_int(self.n_dim) and self.n_dim >= 1):
            raise PopulationError(f"n_dim must be a positive integer, got {self.n_dim!r}")
        merged: dict[float, int] = {}
        for item in self.entries:
            try:
                t, mult = item
            except (TypeError, ValueError):
                raise PopulationError(f"entry {item!r} is not a (value, multiplicity) pair")
            t = float(t)
            if not math.isfinite(t):
                raise PopulationError(f"non-finite diagonal value {t!r}")
            if abs(t) > VALUE_BOUND:
                raise PopulationError(f"|t|={abs(t):g} exceeds the bound {VALUE_BOUND:g}")
            if not (_is_int(mult) and mult >= 1):
                raise PopulationError(f"multiplicity {mult!r} is not a positive integer")
            merged[t] = merged.get(t, 0) + int(mult)
        if not merged:
            raise PopulationError("population has no entries")
        canon = tuple(sorted(merged.items()))
        object.__setattr__(self, "entries", canon)
        m = sum(k for _, k in canon)
        lo, hi = RATIO_BAND
        if not lo <= m / self.n_dim <= hi:
            raise PopulationError(f"M/N = {m}/{self.n_dim} outside the band [{lo:g}, {hi:g}]")

    # -- basic descriptors -------------------------------------------------

    @functools.cached_property
    def total_mult(self) -> int:
        """M, the dimension of T."""
        return sum(k for _, k in self.entries)

    @functools.cached_property
    def rank(self) -> int:
        """rank(T) = M minus the multiplicity of the zero value."""
        return sum(k for t, k in self.entries if t != 0.0)

    @property
    def norm(self) -> float:
        """Operator norm of T."""
        return max(abs(t) for t, _ in self.entries)

    # The arrays below are computed once per spec and are read-only.

    @_derived
    def values(self) -> np.ndarray:
        return np.array([t for t, _ in self.entries])

    @_derived
    def mults(self) -> np.ndarray:
        return np.array([k for _, k in self.entries], dtype=float)

    @_derived
    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct nonzero values and their multiplicities."""
        keep = self.values() != 0.0
        return self.values()[keep], self.mults()[keep]

    @_derived
    def expand(self) -> np.ndarray:
        """Length-M vector of diagonal values in canonical order."""
        return np.repeat(self.values(), self.mults().astype(int))

    @_derived
    def poles(self) -> np.ndarray:
        """Poles of the inverse-transform map: {0} plus -1/t for t != 0."""
        return np.sort(np.concatenate([[0.0], -1.0 / self.nonzero()[0]]))

    # -- derived populations -----------------------------------------------

    def reflected(self) -> "PopulationSpec":
        """The population of -T."""
        return PopulationSpec(tuple((-t, k) for t, k in self.entries), self.n_dim)

    def scaled(self, c: float) -> "PopulationSpec":
        """The population of c*T for finite c > 0."""
        if not (math.isfinite(c) and c > 0):
            raise PopulationError(f"scale factor must be finite and positive, got {c!r}")
        return PopulationSpec(tuple((c * t, k) for t, k in self.entries), self.n_dim)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n_dim": self.n_dim,
            "entries": [{"t": t, "mult": k} for t, k in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, obj: dict) -> "PopulationSpec":
        try:
            n_dim = _document_int(obj["n_dim"], PopulationError, "n_dim")
            entries = tuple(
                (_document_float(e["t"], PopulationError, "entries[{}].t", i),
                 _document_int(e["mult"], PopulationError, "entries[{}].mult", i))
                for i, e in enumerate(obj["entries"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise PopulationError(f"malformed population document: {exc}") from exc
        return cls(entries, n_dim)

    @classmethod
    def from_json(cls, text: str) -> "PopulationSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PopulationError(f"population file is not valid JSON: {exc}") from exc
        return cls.from_dict(obj)


def from_values(values, n_dim: int) -> PopulationSpec:
    """Build a spec from a raw vector of diagonal values (mult 1 each)."""
    vals, counts = np.unique(np.asarray(values, dtype=float), return_counts=True)
    return PopulationSpec(tuple(zip(vals.tolist(), counts.tolist())), n_dim)
