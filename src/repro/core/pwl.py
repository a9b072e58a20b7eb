"""Piece-wise linear (PWL) functions of the external capacitance ``c_E``.

Section IV-C of Lillis & Cheng defines a PWL function as a set of quadruples
``(y-intercept, slope, domain-lo, domain-hi)`` — line segments with disjoint
domains — and lists the primitives their repeater-insertion dynamic program
needs (paper Eq. (3)):

* piece-wise **maximum** of two PWLs,
* **adding a scalar** (shifting the y-intercepts),
* **adding a linear function** ``a + b*x`` (e.g. accumulating a wire or
  driver resistance ``b`` into every slope),
* **domain substitution** ``g(x) = f(x + c)`` (when a sibling subtree or a
  wire adds capacitance ``c`` to everything a source inside the subtree can
  see — here called :meth:`PWL.shift`),
* **evaluation** at a known capacitance (when a repeater decouples the
  subtree and ``c_E`` becomes the repeater's input capacitance).

All the operators run in time linear in the number of participating
segments, as the paper requires.

Domains are finite unions of closed intervals: after minimal-functional-
subset pruning (Sec. IV-D), a solution may only remain optimal on part of
the ``c_E`` axis, so its PWLs acquire *holes*.  Within each maximal run of
contiguous segments the function is continuous (all our generators are
maxima of continuous functions), but the class itself does not require it.

A :class:`PWL` stores one flat tuple of ``(lo, hi, intercept, slope)``
quadruples sorted by domain (docs/ALGORITHMS.md §14); :class:`Segment` is
only a view built on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..check import contracts
from .intervals import ATOL, Flat, IntervalSet, _canonical, _difference

__all__ = ["Segment", "PWL", "maximum_all", "max_segment_count"]

#: Tolerance used when merging collinear segments and comparing breakpoints.
_EPS = 1e-9

_INF = math.inf


def _check_segment(lo: float, hi: float, intercept: float, slope: float) -> None:
    """Raise the typed error for an invalid segment quadruple."""
    if lo > hi:
        raise ValueError(f"segment domain empty: [{lo}, {hi}]")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("segment domain must be finite")
    if not (math.isfinite(intercept) and math.isfinite(slope)):
        raise ValueError("segment coefficients must be finite")


@dataclass(frozen=True)
class Segment:
    """One line segment: ``y = intercept + slope * x`` for ``x in [lo, hi]``.

    Mirrors the paper's quadruple ``(y, slope, lo, hi)`` (Definition 4.1).
    Degenerate point segments (``lo == hi``) are allowed; they arise when
    pruning leaves a solution optimal only at a crossover capacitance.
    """

    lo: float
    hi: float
    intercept: float
    slope: float

    def __post_init__(self) -> None:
        _check_segment(self.lo, self.hi, self.intercept, self.slope)

    def value(self, x: float) -> float:
        """Evaluate the segment's line at ``x`` (domain not checked)."""
        return self.intercept + self.slope * x

    def same_line(self, other: "Segment", atol: float = _EPS) -> bool:
        """True when both segments lie on (numerically) the same line."""
        return (
            abs(self.intercept - other.intercept) <= atol * max(1.0, abs(self.intercept))
            and abs(self.slope - other.slope) <= atol * max(1.0, abs(self.slope))
        )


def _quads(f: Sequence[float]):
    """Iterate a flat sequence as ``(lo, hi, intercept, slope)`` tuples."""
    it = iter(f)
    return zip(it, it, it, it)


def _canonicalize(q: Sequence[float]) -> Flat:
    """Check, sort and merge computed quadruples into canonical form.

    Every quadruple needs finite members and ``lo <= hi`` (a failure re-runs
    the :class:`Segment` checks for the typed error); the list is sorted by
    ``(lo, hi)`` only when out of order; overlaps beyond ``ATOL`` are
    rejected and touching collinear runs merge into their first line.
    """
    n = len(q)
    if n == 4:
        lo, hi, b, m = q
        if not (-_INF < lo <= hi < _INF and -_INF < b < _INF and -_INF < m < _INF):
            _check_segment(*q)
        return tuple(q)
    ordered = True
    plo = phi = -_INF
    for k in range(0, n, 4):
        lo, hi = q[k], q[k + 1]
        if not (
            -_INF < lo <= hi < _INF
            and -_INF < q[k + 2] < _INF
            and -_INF < q[k + 3] < _INF
        ):
            _check_segment(*q[k:k + 4])
        if lo < plo or (lo == plo and hi < phi):
            ordered = False
        plo, phi = lo, hi
    if not n:
        return ()
    if not ordered:
        q = [v for quad in sorted(_quads(q), key=lambda t: (t[0], t[1])) for v in quad]
    out = [q[0], q[1], q[2], q[3]]
    for k in range(4, n, 4):
        lo, prev_hi, b, m = q[k], q[k - 3], q[k + 2], q[k + 3]
        if lo < prev_hi - ATOL:
            raise ValueError(
                f"overlapping segment domains: {Segment(*q[k - 4:k])} and "
                f"{Segment(*q[k:k + 4])}"
            )
        # same_line against the run's first segment, whose line the merged
        # segment keeps (max(1.0, x) spelled out: 1.0 unless x > 1.0)
        rb, rm = abs(out[-2]), abs(out[-1])
        if (
            abs(lo - prev_hi) <= ATOL
            and abs(out[-2] - b) <= _EPS * (rb if rb > 1.0 else 1.0)
            and abs(out[-1] - m) <= _EPS * (rm if rm > 1.0 else 1.0)
        ):
            out[-3] = q[k + 1]
        else:
            out += (lo, q[k + 1], b, m)
    return tuple(out)


def _make(flat: Sequence[float]) -> "PWL":
    """A PWL from computed quadruples (checked, sorted, merged)."""
    return PWL._wrap(_canonicalize(flat))


class PWL:
    """An immutable piece-wise linear function with a (possibly holey) domain."""

    __slots__ = ("_flat",)

    def __init__(self, segments: Iterable[Segment]):
        self._flat: Flat = _canonicalize(
            [v for s in segments for v in (s.lo, s.hi, s.intercept, s.slope)]
        )
        if contracts.contracts_enabled():
            contracts.verify_pwl(self, context="PWL construction")

    @classmethod
    def _wrap(cls, flat: Flat) -> "PWL":
        """Adopt an already-canonical quadruple tuple."""
        f = object.__new__(cls)
        f._flat = flat
        if contracts.contracts_enabled():
            contracts.verify_pwl(f, context="PWL construction")
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, lo: float, hi: float) -> "PWL":
        """The constant function ``value`` on ``[lo, hi]``."""
        return _make((lo, hi, value, 0.0))

    @classmethod
    def linear(cls, intercept: float, slope: float, lo: float, hi: float) -> "PWL":
        """The line ``intercept + slope * x`` on ``[lo, hi]``."""
        return _make((lo, hi, intercept, slope))

    @classmethod
    def from_breakpoints(cls, xs: Sequence[float], ys: Sequence[float]) -> "PWL":
        """Continuous PWL through the points ``(xs[i], ys[i])``.

        ``xs`` must be strictly increasing.  Convenient in tests.
        """
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need at least two matching breakpoints")
        flat: List[float] = []
        for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[1:], ys[1:])):
            if x1 <= x0:
                raise ValueError("breakpoint xs must be strictly increasing")
            slope = (y1 - y0) / (x1 - x0)
            flat += (x0, x1, y0 - slope * x0, slope)
        return _make(flat)

    # -- queries -----------------------------------------------------------

    @property
    def flat(self) -> Flat:
        """The canonical ``(lo, hi, intercept, slope, ...)`` tuple."""
        return self._flat

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return tuple(Segment(*q) for q in _quads(self._flat))

    @property
    def num_segments(self) -> int:
        return len(self._flat) >> 2

    @property
    def is_empty(self) -> bool:
        """True when the domain is empty (the function is nowhere defined)."""
        return not self._flat

    def domain(self) -> IntervalSet:
        """The set of ``x`` where the function is defined."""
        return IntervalSet._wrap(
            _canonical([x for q in _quads(self._flat) for x in q[:2]])
        )

    def __call__(self, x: float) -> float:
        return self.evaluate(x)

    def evaluate(self, x: float, atol: float = ATOL) -> float:
        """Value at ``x``; raises ``ValueError`` outside the domain."""
        y = self.evaluate_or(x, None, atol)
        if y is None:
            raise ValueError(f"x={x} outside PWL domain {self.domain()!r}")
        return y

    def evaluate_or(self, x: float, default: float, atol: float = ATOL) -> float:
        """Value at ``x`` or ``default`` when ``x`` is outside the domain."""
        for lo, hi, b, m in _quads(self._flat):
            if lo - atol <= x <= hi + atol:
                return b + m * x
        return default

    def defined_at(self, x: float, atol: float = ATOL) -> bool:
        return any(lo - atol <= x <= hi + atol for lo, hi, _, _ in _quads(self._flat))

    def breakpoints(self) -> List[float]:
        """Sorted list of all domain endpoints."""
        return sorted(set(x for q in _quads(self._flat) for x in q[:2]))

    def min_value(self) -> Tuple[float, float]:
        """Return ``(x*, f(x*))`` minimizing f over its domain."""
        return min(self._endpoint_values(), key=lambda p: p[1])

    def max_value(self) -> Tuple[float, float]:
        """Return ``(x*, f(x*))`` maximizing f over its domain."""
        return max(self._endpoint_values(), key=lambda p: p[1])

    def _endpoint_values(self) -> List[Tuple[float, float]]:
        if self.is_empty:
            raise ValueError("cannot take the extremum of an empty PWL")
        return [(x, b + m * x) for lo, hi, b, m in _quads(self._flat) for x in (lo, hi)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PWL):
            return NotImplemented
        return self._flat == other._flat

    def __hash__(self) -> int:
        return hash(self._flat)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"[{lo:g},{hi:g}]: {b:g}+{m:g}x" for lo, hi, b, m in _quads(self._flat)
        )
        return f"PWL({parts or 'empty'})"

    def approx_equal(self, other: "PWL", atol: float = 1e-7) -> bool:
        """Pointwise approximate equality on the union of breakpoints.

        Both functions must share (approximately) the same domain.
        """
        if not self.domain().approx_equal(other.domain(), atol=atol):
            return False
        for x in sorted(set(self.breakpoints()) | set(other.breakpoints())):
            if self.defined_at(x, atol=atol) != other.defined_at(x, atol=atol):
                return False
            if self.defined_at(x, atol=atol):
                if abs(self.evaluate(x) - other.evaluate(x)) > atol:
                    return False
        return True

    # -- Eq. (3) primitives --------------------------------------------------

    def add_scalar(self, a: float) -> "PWL":
        """``f + a``: raise every y-intercept by ``a`` (paper's scalar add).

        Used when an intrinsic buffer delay or a sink's downstream delay is
        appended to every internal path.
        """
        return _make(
            [v for lo, hi, b, m in _quads(self._flat) for v in (lo, hi, b + a, m)]
        )

    def add_linear(self, a: float, b: float) -> "PWL":
        """``f(x) + a + b*x``.

        The slope increment ``b`` is how accumulated upstream resistance
        enters arrival-time functions: a wire or driver of resistance ``b``
        between the subtree and the rest of the net multiplies the unknown
        external capacitance.
        """
        return _make(
            [v for lo, hi, i, m in _quads(self._flat) for v in (lo, hi, i + a, m + b)]
        )

    def shift(self, c: float) -> "PWL":
        """Domain substitution ``g(x) = f(x + c)``.

        When capacitance ``c`` (a wire or a sibling subtree) is appended
        *outside* the current subtree, every source inside the subtree now
        sees ``x + c`` where it previously saw ``x``; the function's domain
        translates left by ``c``.  Any part of the domain that would become
        negative is dropped (external capacitance cannot be negative).
        """
        out: List[float] = []
        for lo, hi, b, m in _quads(self._flat):
            lo, hi = lo - c, hi - c
            if hi < 0.0:
                continue
            # g(x) = f(x + c) = intercept + slope * (x + c)
            out += (0.0 if 0.0 > lo else lo, hi, b + m * c, m)
        return _make(out)

    def restrict(self, region: IntervalSet) -> "PWL":
        """Restrict the domain to ``region`` (for MFS pruning)."""
        r = region._flat
        f = self._flat
        if len(r) == 2 and f and r[0] <= f[0] and max(f[1::4]) <= r[1]:
            # one interval covering the whole domain: every segment would be
            # re-emitted unchanged, and canonicalizing is then the identity
            return self
        out: List[float] = []
        for slo, shi, b, m in _quads(f):
            for k in range(0, len(r), 2):
                if r[k] > shi:
                    break  # sorted region: no later interval reaches the segment
                lo = r[k] if r[k] > slo else slo
                hi = r[k + 1] if r[k + 1] < shi else shi
                if lo <= hi:
                    out += (lo, hi, b, m)
        return _make(out)

    def maximum(self, other: "PWL") -> "PWL":
        """Piece-wise maximum of two PWLs on the *intersection* of domains.

        The intersection semantics match the DP's use: when two child
        solutions are joined at a branch, the combined solution only exists
        for ``c_E`` values where both children's functions are defined.
        """
        return _combine(self._flat, other._flat, max_of=True)

    def minimum(self, other: "PWL") -> "PWL":
        """Piece-wise minimum on the intersection of domains."""
        return _combine(self._flat, other._flat, max_of=False)

    def region_leq(self, other: "PWL", atol: float = 0.0) -> IntervalSet:
        """The subset of the common domain where ``self(x) <= other(x) + atol``.

        This is the comparison primitive of MFS pruning: where the challenger
        is no worse than the incumbent in one coordinate.
        """
        return IntervalSet._wrap(_leq_region(self._flat, other._flat, atol))

    def region_lt(self, other: "PWL", atol: float = 0.0) -> IntervalSet:
        """Subset of the common domain where ``self(x) < other(x) - atol``.

        Computed as the ``<=`` region minus the (measure-zero boundary won't
        matter for pruning) region where ``other <= self``; used for
        strict-dominance tie-breaking.
        """
        return IntervalSet._wrap(_lt_region(self._flat, other._flat, atol))

    def simplified(self, max_segments: int) -> "PWL":
        """A conservative upper bound of ``self`` with a segment budget.

        Greedily merges adjacent *touching* segments — the pair whose
        chordal replacement adds the least area goes first — until at most
        ``max_segments`` remain.  Each replacement is a single line lifted
        to dominate both originals, so the result satisfies
        ``simplified(x) >= self(x)`` everywhere: for arrival/diameter
        functions the approximation can only over-report delay, never
        promise timing the exact function would miss.

        Domain holes are never bridged (bridging would invent feasibility
        on capacitances where the solution does not exist); a function
        whose holes alone exceed the budget is returned unchanged.  This
        is the *lossy* half of the MSRI segment budget — exact mode never
        calls it (``docs/PRUNING.md``).
        """
        if max_segments < 1:
            raise ValueError(f"segment budget must be >= 1, got {max_segments}")
        segs = list(self.segments)
        while len(segs) > max_segments:
            best_cost = math.inf
            best_at = -1
            best_seg = None
            for i in range(len(segs) - 1):
                a, b = segs[i], segs[i + 1]
                if b.lo - a.hi > ATOL:
                    continue  # a real hole: never bridge it
                merged = _chord_upper(a, b)
                cost = _merge_area(a, b, merged)
                if cost < best_cost:
                    best_cost, best_at, best_seg = cost, i, merged
            if best_seg is None:
                break  # only holes left between segments; budget unreachable
            segs[best_at:best_at + 2] = [best_seg]
        return self if len(segs) == self.num_segments else PWL(segs)


# -- internal machinery -----------------------------------------------------
#
# The walks below run on flat tuples, and each spells ``max(a, b)`` as ``b if
# b > a else a`` and ``min(a, b)`` as ``b if b < a else a`` (the first
# argument wins ties, ``-0.0`` included) and every line value as
# ``intercept + slope * x``: each float is the object layout's, bit for bit.


def _combine(fs: Flat, gs: Flat, *, max_of: bool) -> PWL:
    """Shared implementation of piece-wise max/min on the domain overlap.

    Linear merge over the two sorted segment lists; each overlap is cut at
    the lines' interior crossing (if any) and every piece takes the line
    that wins at its midpoint.
    """
    out: List[float] = []
    points = False
    i = j = 0
    while i < len(fs) and j < len(gs):
        flo, fhi, fb, fm = fs[i], fs[i + 1], fs[i + 2], fs[i + 3]
        glo, ghi, gb, gm = gs[j], gs[j + 1], gs[j + 2], gs[j + 3]
        lo = glo if glo > flo else flo
        hi = ghi if ghi < fhi else fhi
        if lo <= hi:
            cuts: Tuple[float, ...] = (lo, hi)
            ds = fm - gm
            # a sub-_EPS slope difference would place the crossing far
            # outside any finite domain of interest
            if abs(ds) > _EPS:
                xc = (gb - fb) / ds
                if lo + _EPS < xc < hi - _EPS:
                    cuts = (lo, xc, hi)
            for a, b in zip(cuts, cuts[1:]):
                mid = 0.5 * (a + b)
                fv = fb + fm * mid
                gv = gb + gm * mid
                wins = fv >= gv if max_of else fv <= gv
                out += (a, b, fb, fm) if wins else (a, b, gb, gm)
            points = points or lo == hi
        if fhi < ghi:
            i += 4
        else:
            j += 4
    return _make(_dedupe_points(out) if points else out)


def _dedupe_points(flat: List[float]) -> List[float]:
    """Drop point segments swallowed by an adjacent full segment."""
    quads = list(_quads(flat))
    full = [q for q in quads if q[1] > q[0]]
    return [
        v
        for q in quads
        if q[1] > q[0] or not any(f[0] - ATOL <= q[0] <= f[1] + ATOL for f in full)
        for v in q
    ]


def _leq_region(fs: Flat, gs: Flat, atol: float) -> Flat:
    """Flat region of the common domain where ``f(x) <= g(x) + atol``.

    Per overlapping segment pair: both endpoint differences decide the
    whole overlap in or out; a sign change is solved for the crossing, and
    (numerically) parallel lines straddling zero only by noise are
    classified at the midpoint.
    """
    out: List[float] = []
    i = j = 0
    while i < len(fs) and j < len(gs):
        flo, fhi, glo, ghi = fs[i], fs[i + 1], gs[j], gs[j + 1]
        lo = glo if glo > flo else flo
        hi = ghi if ghi < fhi else fhi
        if lo <= hi:
            fb, fm, gb, gm = fs[i + 2], fs[i + 3], gs[j + 2], gs[j + 3]
            da_lo = (fb + fm * lo) - (gb + gm * lo) - atol
            da_hi = (fb + fm * hi) - (gb + gm * hi) - atol
            if da_lo <= 0.0 and da_hi <= 0.0:
                out += (lo, hi)
            elif da_lo > 0.0 and da_hi > 0.0:
                pass
            elif abs(fm - gm) <= _EPS:
                mid = 0.5 * (lo + hi)
                if (fb + fm * mid) - (gb + gm * mid) <= atol:
                    out += (lo, hi)
            else:
                # exactly one sign change: solve (f - g)(x) = atol
                x = (gb + atol - fb) / (fm - gm)
                x = lo if lo > x else x
                x = hi if hi < x else x
                out += (lo, x) if da_lo <= 0.0 else (x, hi)
        if fhi < ghi:
            i += 4
        else:
            j += 4
    return _canonical(out)


def _lt_region(fs: Flat, gs: Flat, atol: float) -> Flat:
    """Flat region where ``f(x) < g(x) - atol``: ``<=`` minus ``>=``."""
    return _difference(
        _leq_region(fs, gs, -atol if atol else 0.0), _leq_region(gs, fs, atol)
    )


def _chord_upper(a: Segment, b: Segment) -> Segment:
    """One segment covering two touching segments from above.

    The chord through the envelope's endpoint values, lifted by the
    largest shortfall at any of the four segment endpoints — a line is
    maximally below a piecewise-linear function at a breakpoint, so
    checking endpoints suffices for pointwise dominance.
    """
    lo, hi = a.lo, b.hi
    y_lo = a.value(lo)
    y_hi = b.value(hi)
    if hi > lo:
        slope = (y_hi - y_lo) / (hi - lo)
    else:
        slope = 0.0
        y_lo = max(y_lo, y_hi)
    intercept = y_lo - slope * lo
    lift = 0.0
    for seg in (a, b):
        for x in (seg.lo, seg.hi):
            short = seg.value(x) - (intercept + slope * x)
            if short > lift:
                lift = short
    return Segment(lo, hi, intercept + lift, slope)


def _merge_area(a: Segment, b: Segment, merged: Segment) -> float:
    """Area added between ``merged`` and the two segments it replaces.

    Both sides are linear on each original segment's domain, so the
    trapezoid rule on segment endpoints is exact.
    """
    total = 0.0
    for seg in (a, b):
        gap_lo = merged.value(seg.lo) - seg.value(seg.lo)
        gap_hi = merged.value(seg.hi) - seg.value(seg.hi)
        total += 0.5 * (gap_lo + gap_hi) * (seg.hi - seg.lo)
    return total


def maximum_all(functions: Sequence[PWL]) -> PWL:
    """Piece-wise maximum of many PWLs (balanced reduction).

    Pairwise reduction keeps intermediate segment counts small compared to a
    left fold when the inputs have many breakpoints.
    """
    items = [f for f in functions if not f.is_empty]
    if not items:
        raise ValueError("maximum_all needs at least one non-empty PWL")
    while len(items) > 1:
        nxt = []
        for k in range(0, len(items) - 1, 2):
            nxt.append(items[k].maximum(items[k + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def max_segment_count(functions: Iterable[Optional["PWL"]]) -> int:
    """The widest segment list among ``functions`` (``None`` entries skipped).

    The paper leans on PWL representations staying *small* in practice
    (Sec. VIII observes ~4 segments on its workloads); this is the quantity
    the MSRI statistics and the ``msri.pwl_segments`` observability
    histogram report per node.
    """
    widest = 0
    for f in functions:
        if f is not None and len(f._flat) >> 2 > widest:
            widest = len(f._flat) >> 2
    return widest
