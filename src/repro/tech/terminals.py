"""Terminals of a multisource net and their electrical view.

Per the paper's Sec. II (and its Fig. 1), each terminal ``v`` of the net may
act as an input (source) *and* as an output (sink), and carries four
net-specific parameters:

* ``alpha`` — maximum delay from a primary input of the circuit to the
  input buffer at ``v`` (the source-side arrival time),
* ``beta`` — maximum delay from the output buffer at ``v`` to a primary
  output (the sink-side downstream delay; the output buffer's own intrinsic
  and RC delay is folded in, per the paper's footnote 5),
* ``capacitance`` — input capacitance the terminal presents to the net,
* ``resistance`` — output resistance of the input buffer when driving.

Pure sinks are modelled with ``alpha = -inf`` ("never a source") and pure
sources with ``beta = -inf`` ("never a sink"), exactly the paper's remark at
the end of Sec. II that no generality is lost by not designating roles
explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

from .parameters import require_finite

__all__ = ["Terminal", "NEVER"]

#: Sentinel for "this terminal never plays this role": a -inf augmented
#: arrival/required value can never become the max in an ARD computation.
NEVER = -math.inf


@dataclass(frozen=True)
class Terminal:
    """A net terminal with its position and electrical parameters."""

    name: str
    x: float                        # um
    y: float                        # um
    arrival_time: float = 0.0       # ps; alpha(v); NEVER if not a source
    downstream_delay: float = 0.0   # ps; beta(v); NEVER if not a sink
    capacitance: float = 0.0        # pF; c(v)
    resistance: float = 1.0         # ohm; r(v), driver output resistance
    intrinsic_delay: float = 0.0    # ps; optional driver intrinsic delay

    def __post_init__(self) -> None:
        require_finite(
            "terminal", self, allow_never=("arrival_time", "downstream_delay")
        )
        if self.capacitance < 0.0:
            raise ValueError(f"terminal {self.name}: negative capacitance")
        if self.resistance <= 0.0 and self.is_source:
            raise ValueError(
                f"terminal {self.name}: a source needs positive driver resistance"
            )
        if self.intrinsic_delay < 0.0:
            raise ValueError(f"terminal {self.name}: negative intrinsic delay")

    @property
    def position(self) -> Tuple[float, float]:
        return (self.x, self.y)

    @property
    def is_source(self) -> bool:
        """True when the terminal can drive the net."""
        return self.arrival_time != NEVER

    @property
    def is_sink(self) -> bool:
        """True when the terminal can receive from the net."""
        return self.downstream_delay != NEVER

    def driver_delay(self, load_pf: float) -> float:
        """Delay (ps) of this terminal's driver into ``load_pf`` (pF).

        The load a terminal driver sees is the *whole* net — including the
        terminal's own input capacitance, which hangs on the same bus node
        (see DESIGN.md §4); callers pass that total.
        """
        if not self.is_source:
            raise ValueError(f"terminal {self.name} is not a source")
        if load_pf < 0.0:
            raise ValueError(f"negative load: {load_pf}")
        return self.intrinsic_delay + self.resistance * load_pf

    def as_source_only(self) -> "Terminal":
        """Copy that never acts as a sink."""
        return replace(self, downstream_delay=NEVER)

    def as_sink_only(self) -> "Terminal":
        """Copy that never acts as a source."""
        return replace(self, arrival_time=NEVER)

    def moved(self, x: float, y: float) -> "Terminal":
        """Copy at a new position (used by topology builders)."""
        return replace(self, x=x, y=y)
