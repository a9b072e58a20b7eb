"""Buffers, bidirectional repeaters, and libraries.

The paper's technology inputs (Sec. II) include a library of repeaters.  A
repeater has an "A-side" and a "B-side"; its parameters carry a direction
subscript so the optimizer can account for orientation:

* ``d_ab`` / ``d_ba`` — intrinsic delay (ps) for A→B / B→A signal flow,
* ``r_ab`` / ``r_ba`` — output resistance (Ω) driving the B / A side,
* ``c_a`` / ``c_b``  — input capacitance (pF) presented at the A / B side,
* ``cost``          — e.g. area, in equivalent 1X buffers.

The experiments construct bidirectional repeaters and terminal drivers from
*pairs of unidirectional buffers* (Table I caption), and derive a sized
library where a kX buffer has cost ``k``, resistance ``R/k`` and input
capacitance ``k * 0.05 pF`` (Sec. VI).  Those constructions are
:func:`Repeater.from_buffer_pair` and :func:`scaled_library`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .parameters import require_finite

__all__ = [
    "Buffer",
    "Repeater",
    "RepeaterLibrary",
    "WireClass",
    "scaled_library",
    "DEFAULT_BUFFER",
    "default_repeater_library",
    "default_wire_library",
]


@dataclass(frozen=True)
class Buffer:
    """A unidirectional buffer.

    Delay driving a load ``C``: ``intrinsic_delay + output_resistance * C``
    (paper Sec. II).  ``is_inverting`` supports the paper's Sec. V extension
    where inverters may be used as repeaters.
    """

    name: str
    intrinsic_delay: float      # ps
    output_resistance: float    # ohm
    input_capacitance: float    # pF
    cost: float = 1.0
    is_inverting: bool = False

    def __post_init__(self) -> None:
        require_finite("buffer", self)
        if self.output_resistance <= 0.0:
            raise ValueError("buffer output resistance must be positive")
        if self.input_capacitance < 0.0:
            raise ValueError("buffer input capacitance must be non-negative")
        if self.intrinsic_delay < 0.0:
            raise ValueError("buffer intrinsic delay must be non-negative")
        if self.cost < 0.0:
            raise ValueError("buffer cost must be non-negative")

    def delay(self, load_pf: float) -> float:
        """Delay (ps) of this buffer driving ``load_pf`` (pF)."""
        if load_pf < 0.0:
            raise ValueError(f"negative load: {load_pf}")
        return self.intrinsic_delay + self.output_resistance * load_pf

    def scaled(self, k: float, name: str | None = None) -> "Buffer":
        """The kX version: cost ``k * cost``, resistance ``R/k``, cap ``k*C``.

        This is exactly the sizing rule of the paper's Sec. VI experiments.
        Intrinsic delay is size-independent under this first-order model.
        """
        if k <= 0.0:
            raise ValueError("scale factor must be positive")
        return Buffer(
            name=name or f"{self.name}@{k:g}x",
            intrinsic_delay=self.intrinsic_delay,
            output_resistance=self.output_resistance / k,
            input_capacitance=self.input_capacitance * k,
            cost=self.cost * k,
            is_inverting=self.is_inverting,
        )


@dataclass(frozen=True)
class Repeater:
    """A bidirectional repeater with distinguished A and B sides.

    Orientation matters: the insertion algorithm tries both ways of
    connecting the A-side (toward the root or toward the leaves).
    :meth:`reversed` swaps the sides, which is how the optimizer enumerates
    orientations without duplicating library entries.
    """

    name: str
    d_ab: float   # ps,  intrinsic delay, A -> B
    r_ab: float   # ohm, output resistance driving the B side
    c_a: float    # pF,  input capacitance at the A side
    d_ba: float   # ps,  intrinsic delay, B -> A
    r_ba: float   # ohm, output resistance driving the A side
    c_b: float    # pF,  input capacitance at the B side
    cost: float = 1.0
    is_inverting: bool = False

    def __post_init__(self) -> None:
        require_finite("repeater", self)
        for label, value in (("r_ab", self.r_ab), ("r_ba", self.r_ba)):
            if value <= 0.0:
                raise ValueError(f"{label} must be positive")
        for label, value in (
            ("c_a", self.c_a),
            ("c_b", self.c_b),
            ("d_ab", self.d_ab),
            ("d_ba", self.d_ba),
            ("cost", self.cost),
        ):
            if value < 0.0:
                raise ValueError(f"{label} must be non-negative")

    @classmethod
    def from_buffer_pair(
        cls,
        forward: Buffer,
        backward: Buffer | None = None,
        name: str | None = None,
    ) -> "Repeater":
        """Build a repeater from two anti-parallel unidirectional buffers.

        ``forward`` carries A→B traffic (its input sits on the A side),
        ``backward`` carries B→A traffic.  With ``backward`` omitted the
        repeater is symmetric — the construction used throughout the paper's
        experiments ("a pair of the buffers described in Table I").
        """
        backward = backward or forward
        if forward.is_inverting != backward.is_inverting:
            raise ValueError(
                "repeater halves must agree on polarity; mixing an inverting "
                "and a non-inverting buffer yields a direction-dependent "
                "polarity, which a bus cannot use"
            )
        return cls(
            name=name or f"rep({forward.name}|{backward.name})",
            d_ab=forward.intrinsic_delay,
            r_ab=forward.output_resistance,
            c_a=forward.input_capacitance,
            d_ba=backward.intrinsic_delay,
            r_ba=backward.output_resistance,
            c_b=backward.input_capacitance,
            cost=forward.cost + backward.cost,
            is_inverting=forward.is_inverting,
        )

    @property
    def is_symmetric(self) -> bool:
        """True when both directions have identical parameters."""
        return (
            self.d_ab == self.d_ba  # repro: noqa[R001] configured library constants; equality is exact by construction
            and self.r_ab == self.r_ba  # repro: noqa[R001] configured library constants
            and self.c_a == self.c_b  # repro: noqa[R001] configured library constants
        )

    def reversed(self) -> "Repeater":
        """The same repeater with A and B sides swapped (other orientation)."""
        return Repeater(
            name=f"{self.name}~rev",
            d_ab=self.d_ba,
            r_ab=self.r_ba,
            c_a=self.c_b,
            d_ba=self.d_ab,
            r_ba=self.r_ab,
            c_b=self.c_a,
            cost=self.cost,
            is_inverting=self.is_inverting,
        )

    def delay(self, a_to_b: bool, load_pf: float) -> float:
        """Delay (ps) through the repeater in the given direction."""
        if load_pf < 0.0:
            raise ValueError(f"negative load: {load_pf}")
        if a_to_b:
            return self.d_ab + self.r_ab * load_pf
        return self.d_ba + self.r_ba * load_pf

    def input_cap(self, a_side: bool) -> float:
        """Capacitance presented to the net on the requested side."""
        return self.c_a if a_side else self.c_b


class RepeaterLibrary:
    """An immutable collection of repeaters offered to the optimizer."""

    def __init__(self, repeaters: Iterable[Repeater]):
        self._repeaters: Tuple[Repeater, ...] = tuple(repeaters)
        if not self._repeaters:
            raise ValueError("repeater library may not be empty")
        names = [r.name for r in self._repeaters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate repeater names in library: {names}")

    @property
    def repeaters(self) -> Tuple[Repeater, ...]:
        return self._repeaters

    def __len__(self) -> int:
        return len(self._repeaters)

    def __iter__(self):
        return iter(self._repeaters)

    def __getitem__(self, name: str) -> Repeater:
        for r in self._repeaters:
            if r.name == name:
                return r
        raise KeyError(name)

    def oriented_options(self) -> List[Repeater]:
        """All distinct oriented repeaters (both orientations, dedup symmetric).

        The MSRI algorithm enumerates these at every insertion point; a
        symmetric repeater contributes one option instead of two identical
        ones.
        """
        options: List[Repeater] = []
        for r in self._repeaters:
            options.append(r)
            if not r.is_symmetric:
                options.append(r.reversed())
        return options

    def min_cost(self) -> float:
        """Cheapest repeater cost (useful for bounds)."""
        return min(r.cost for r in self._repeaters)


@dataclass(frozen=True)
class WireClass:
    """One discrete wire width the sizing extension may assign to a segment.

    A ``width``-wide wire has ``width`` times the minimum-width capacitance
    and ``1/width`` times its resistance (first-order scaling, fringe folded
    in per the paper's footnote 4).  ``cost_per_um`` prices the consumed
    routing area in equivalent 1X buffers per micrometre, making wire and
    repeater costs commensurable in the min-cost objective.

    The paper's conclusions single out wire sizing as a problem "the basic
    techniques introduced here" extend to; `repro.core.msri` implements that
    extension when :class:`~repro.core.msri.MSRIOptions` carries a wire
    library.
    """

    name: str
    width: float
    cost_per_um: float

    def __post_init__(self) -> None:
        require_finite("wire class", self)
        if self.width <= 0.0:
            raise ValueError("wire width factor must be positive")
        if self.cost_per_um < 0.0:
            raise ValueError("wire cost must be non-negative")

    def resistance(self, base_resistance: float) -> float:
        """Total resistance of a wire whose 1X resistance is given."""
        return base_resistance / self.width

    def capacitance(self, base_capacitance: float) -> float:
        """Total capacitance of a wire whose 1X capacitance is given."""
        return base_capacitance * self.width

    def cost(self, length_um: float) -> float:
        """Area cost (1X-buffer equivalents) of ``length_um`` of this wire."""
        if length_um < 0.0:
            raise ValueError("negative wire length")
        return self.cost_per_um * length_um


def default_wire_library(
    widths: Sequence[float] = (1.0, 2.0, 3.0),
    base_cost_per_um: float = 0.0005,
) -> List[WireClass]:
    """Discrete width menu: a kX wire costs k times the 1X area.

    With the default pricing, 2 mm of minimum-width wire costs one
    equivalent 1X buffer — wide enough that the optimizer only widens wires
    where resistance genuinely limits the diameter.
    """
    return [
        WireClass(name=f"w{w:g}x", width=w, cost_per_um=base_cost_per_um * w)
        for w in widths
    ]


def scaled_library(
    base: Buffer, scales: Sequence[float] = (1.0, 2.0, 3.0, 4.0)
) -> List[Buffer]:
    """The kX buffer family of the paper's Sec. VI (1X, 2X, 3X, 4X)."""
    return [base.scaled(k, name=f"{k:g}x") for k in scales]


#: The experiments' base "1X" buffer.  The 0.05 pF input capacitance is the
#: paper's stated anchor; intrinsic delay and output resistance are the
#: documented Table-I substitution (DESIGN.md §5).
DEFAULT_BUFFER = Buffer(
    name="1x",
    intrinsic_delay=50.0,       # ps
    output_resistance=400.0,    # ohm
    input_capacitance=0.05,     # pF
    cost=1.0,
)


def default_repeater_library() -> RepeaterLibrary:
    """The repeater used in the paper's Table II: a pair of 1X buffers."""
    return RepeaterLibrary([Repeater.from_buffer_pair(DEFAULT_BUFFER, name="rep1x")])
