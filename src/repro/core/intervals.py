"""Closed-interval algebra on the real line.

The minimal functional subset (MFS) pruning of Lillis & Cheng (Sec. IV-D)
repeatedly manipulates *regions of the external-capacitance domain*: the set
of ``c_E`` values for which one candidate solution dominates another.  Those
regions are finite unions of closed intervals.  This module provides an
immutable :class:`IntervalSet` with the union / intersection / difference
operations the pruner needs, plus measure and membership queries.

Conventions
-----------
* Intervals are closed ``[lo, hi]`` with ``lo <= hi``; degenerate point
  intervals (``lo == hi``) are permitted — a solution can be uniquely optimal
  at a single crossover capacitance.
* Adjacent or overlapping intervals are always coalesced, so every
  :class:`IntervalSet` has a unique canonical form, which makes equality
  checks meaningful in tests.
* A small tolerance ``ATOL`` is used when coalescing so that floating-point
  noise from PWL breakpoint arithmetic does not produce spurious slivers.

An :class:`IntervalSet` stores one flat sorted tuple of endpoints ``(lo0,
hi0, lo1, hi1, ...)``; :class:`Interval` is only a view built on demand
(docs/ALGORITHMS.md §14).  The ``_``-prefixed functions run the algebra on
those tuples for the pruner's hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

__all__ = ["Interval", "IntervalSet", "ATOL"]

#: Absolute tolerance used when deciding whether two interval endpoints touch.
ATOL = 1e-12

#: A flat endpoint tuple ``(lo0, hi0, lo1, hi1, ...)``.
Flat = Tuple[float, ...]


def _check_endpoints(lo: float, hi: float) -> None:
    """Raise the typed error for an invalid ``[lo, hi]``."""
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval endpoints may not be NaN")
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]`` on the real line (a view; see module)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _check_endpoints(self.lo, self.hi)

    @property
    def length(self) -> float:
        """Measure of the interval (0 for a point interval)."""
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        """A representative interior point of the interval."""
        if math.isinf(self.lo) and math.isinf(self.hi):
            return 0.0
        if math.isinf(self.hi):
            return self.lo + 1.0
        if math.isinf(self.lo):
            return self.hi - 1.0
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, atol: float = 0.0) -> bool:
        """Return True when ``x`` lies in ``[lo - atol, hi + atol]``."""
        return self.lo - atol <= x <= self.hi + atol

    def overlaps(self, other: "Interval", atol: float = ATOL) -> bool:
        """Return True when the two closed intervals intersect or touch."""
        return self.lo <= other.hi + atol and other.lo <= self.hi + atol

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection with ``other`` or None when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def shift(self, delta: float) -> "Interval":
        """Translate the interval by ``delta``."""
        return Interval(self.lo + delta, self.hi + delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.lo:g}, {self.hi:g}]"


# -- flat-tuple algebra ----------------------------------------------------------
#
# ``max(a, b)`` is spelled ``b if b > a else a`` and ``min(a, b)`` as ``b if b
# < a else a``: the first argument wins ties (``-0.0`` included), as in the
# object algebra these functions replaced.


def _pairs(flat: Sequence[float]):
    """Iterate a flat endpoint sequence as ``(lo, hi)`` tuples."""
    it = iter(flat)
    return zip(it, it)


def _canonical(flat: Sequence[float], atol: float = ATOL) -> Flat:
    """Check, sort and coalesce computed ``(lo, hi)`` pairs.

    The one constructor every computed set passes: each pair is checked
    (NaN, ``lo > hi``), the pairs are sorted only when out of order, and
    members overlapping or touching within ``atol`` merge.
    """
    if len(flat) == 2:
        lo, hi = flat
        if not lo <= hi:
            _check_endpoints(lo, hi)
        return (lo, hi)
    ordered = True
    for k in range(0, len(flat), 2):
        lo, hi = flat[k], flat[k + 1]
        if not lo <= hi:
            _check_endpoints(lo, hi)
        if k and (lo < flat[k - 2] or (lo == flat[k - 2] and hi < flat[k - 1])):
            ordered = False
    if not ordered:
        flat = [x for pair in sorted(_pairs(flat)) for x in pair]
    out = list(flat[:2])
    for k in range(2, len(flat), 2):
        if flat[k] > out[-1] + atol:
            out += (flat[k], flat[k + 1])
        elif flat[k + 1] > out[-1]:
            out[-1] = flat[k + 1]
    return tuple(out)


def _intersect(a: Flat, b: Flat) -> Flat:
    """Intersection of two canonical sets (linear merge)."""
    if len(a) == 2 == len(b):
        lo = b[0] if b[0] > a[0] else a[0]
        hi = b[1] if b[1] < a[1] else a[1]
        return (lo, hi) if lo <= hi else ()
    out: List[float] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = b[j] if b[j] > a[i] else a[i]
        hi = b[j + 1] if b[j + 1] < a[i + 1] else a[i + 1]
        if lo <= hi:
            out += (lo, hi)
        # advance whichever interval ends first
        if a[i + 1] < b[j + 1]:
            i += 2
        else:
            j += 2
    return _canonical(out)


def _difference(a: Flat, b: Flat) -> Flat:
    """``a \\ b`` keeping shared closed endpoints (see ``IntervalSet``)."""
    if not b or not a:
        return a
    out: List[float] = []
    for lo, hi in _pairs(a):
        pieces = [(lo, hi)]
        for clo, chi in _pairs(b):
            if clo > hi:
                break
            nxt = []
            for plo, phi in pieces:
                if chi < plo or clo > phi:
                    nxt.append((plo, phi))
                    continue
                if clo > plo:
                    nxt.append((plo, clo))
                if chi < phi:
                    nxt.append((chi, phi))
            pieces = nxt
            if not pieces:
                break
        out += [x for piece in pieces for x in piece]
    return _canonical(out)


def _shift(a: Flat, delta: float) -> Flat:
    return _canonical([x + delta for x in a])


def _clamp(a: Flat, lo: float, hi: float) -> Flat:
    return () if lo > hi else _intersect(a, _canonical((lo, hi)))


class IntervalSet:
    """An immutable finite union of disjoint closed intervals.

    Construction always canonicalizes: intervals are sorted and
    overlapping/touching members merged, so two equal sets compare equal.
    The canonical form is the flat endpoint tuple :attr:`flat`.
    """

    __slots__ = ("_flat",)

    def __init__(self, intervals: Iterable[Interval] = (), *, atol: float = ATOL):
        self._flat: Flat = _canonical(
            [x for iv in intervals for x in (iv.lo, iv.hi)], atol
        )

    @classmethod
    def _wrap(cls, flat: Flat) -> "IntervalSet":
        """Adopt an already-canonical flat tuple without re-checking it."""
        s = object.__new__(cls)
        s._flat = flat
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty set."""
        return cls._wrap(())

    @classmethod
    def single(cls, lo: float, hi: float) -> "IntervalSet":
        """The set consisting of one interval ``[lo, hi]``."""
        return cls._wrap(_canonical((lo, hi)))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[float, float]]) -> "IntervalSet":
        """Build from ``(lo, hi)`` tuples."""
        return cls._wrap(_canonical([x for pair in pairs for x in pair]))

    # -- queries -----------------------------------------------------------

    @property
    def flat(self) -> Flat:
        """The canonical endpoint tuple ``(lo0, hi0, lo1, hi1, ...)``."""
        return self._flat

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The canonical, sorted, disjoint member intervals (views)."""
        return tuple(Interval(lo, hi) for lo, hi in _pairs(self._flat))

    @property
    def is_empty(self) -> bool:
        return not self._flat

    @property
    def measure(self) -> float:
        """Total length of the set."""
        return sum(hi - lo for lo, hi in _pairs(self._flat))

    @property
    def lo(self) -> float:
        """Infimum of the set; raises on the empty set."""
        if not self._flat:
            raise ValueError("empty IntervalSet has no infimum")
        return self._flat[0]

    @property
    def hi(self) -> float:
        """Supremum of the set; raises on the empty set."""
        if not self._flat:
            raise ValueError("empty IntervalSet has no supremum")
        return self._flat[-1]

    def contains(self, x: float, atol: float = 0.0) -> bool:
        """Membership test for the point ``x``."""
        return any(lo - atol <= x <= hi + atol for lo, hi in _pairs(self._flat))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self._flat) >> 1

    def __bool__(self) -> bool:
        return bool(self._flat)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._flat == other._flat

    def __hash__(self) -> int:
        return hash(self._flat)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " u ".join(repr(iv) for iv in self.intervals)
        return f"IntervalSet({inner or 'empty'})"

    def approx_equal(self, other: "IntervalSet", atol: float = 1e-9) -> bool:
        """Endpoint-wise approximate equality (for float-noise tolerance)."""
        if len(self._flat) != len(other._flat):
            return False
        return all(
            math.isclose(a, b, rel_tol=0.0, abs_tol=atol)
            for a, b in zip(self._flat, other._flat)
        )

    # -- set algebra -------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union."""
        return IntervalSet._wrap(_canonical(self._flat + other._flat))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection via a linear merge of the two sorted lists."""
        return IntervalSet._wrap(_intersect(self._flat, other._flat))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference ``self \\ other``.

        Because intervals are closed, removing a closed interval leaves
        half-open gaps; we approximate by keeping the shared endpoints
        (measure-zero effect), which is the right semantics for dominance
        pruning: a solution that is *tied* at a single point is allowed to be
        pruned there without affecting achievable optima.
        """
        if other.is_empty or self.is_empty:
            return self
        return IntervalSet._wrap(_difference(self._flat, other._flat))

    def shift(self, delta: float) -> "IntervalSet":
        """Translate every interval by ``delta``."""
        return IntervalSet._wrap(_shift(self._flat, delta))

    def clamp(self, lo: float, hi: float) -> "IntervalSet":
        """Intersect with the single interval ``[lo, hi]``."""
        return IntervalSet._wrap(_clamp(self._flat, lo, hi))

    def sample_points(self, per_interval: int = 3) -> List[float]:
        """Representative points: endpoints plus interior midpoints.

        Used by tests and by the exhaustive dominance oracle to probe a
        region without discretizing the whole domain.
        """
        pts: List[float] = []
        for iv in self.intervals:
            pts.append(iv.lo)
            if iv.length > 0:
                if per_interval > 2:
                    step = iv.length / (per_interval - 1)
                    pts.extend(iv.lo + k * step for k in range(1, per_interval - 1))
                pts.append(iv.hi)
        return pts


def union_all(sets: Sequence[IntervalSet]) -> IntervalSet:
    """Union of many interval sets."""
    out = IntervalSet.empty()
    for s in sets:
        out = out.union(s)
    return out
