"""Technology parameters: per-unit wire resistance and capacitance.

The paper (Sec. II) assumes two given technology constants: ``r`` (ohms per
unit wire length) and ``c`` (pF per unit length).  Units throughout the
library:

===========  =========
quantity     unit
===========  =========
distance     micrometre (µm)
resistance   ohm (Ω)
capacitance  picofarad (pF)
delay        picosecond (ps) — because Ω · pF = ps
cost         dimensionless (equivalent 1X buffers)
===========  =========

The experimental section of the paper (Table I) used parameters taken from
Okamoto & Cong [20], described as "representative of typical submicron
technologies".  The exact Table I values are not recoverable from the
available text, so :data:`DEFAULT_TECHNOLOGY` uses the standard mid-1990s
literature constants with all the anchors the paper states in prose
honoured exactly (1X input capacitance 0.05 pF, kX scaling, 400 Ω previous
stage, 0.2 pF subsequent stage); see DESIGN.md §5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

__all__ = [
    "Technology",
    "DEFAULT_TECHNOLOGY",
    "UM_PER_CM",
    "NonFiniteParameterError",
    "require_finite",
]

#: Micrometres per centimetre; the paper's nets live on a 1 cm x 1 cm grid.
UM_PER_CM = 10_000.0


class NonFiniteParameterError(ValueError):
    """A technology, library or terminal parameter is NaN or infinite."""


def require_finite(
    kind: str, record, *, allow_never: Tuple[str, ...] = (), extra=None
) -> None:
    """Reject NaN and ±inf among the float fields of a named ``record``.

    ``extra`` adds more named values (a technology's ``extras``); fields
    in ``allow_never`` may be ``-inf``, the ``NEVER`` sentinel of a
    terminal role that is not played.
    """
    values = vars(record) if extra is None else {**extra, **vars(record)}
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            if not (value == -math.inf and name in allow_never):
                raise NonFiniteParameterError(
                    f"{kind} {record.name}: {name} must be finite, got {value!r}"
                )


@dataclass(frozen=True)
class Technology:
    """Wire constants of the target technology plus bookkeeping extras.

    Parameters
    ----------
    unit_resistance:
        Wire resistance in Ω per µm.
    unit_capacitance:
        Wire capacitance in pF per µm (fringe capacitance may be folded in,
        per the paper's footnote 4).
    name:
        Identifier used in reports.
    extras:
        Free-form auxiliary constants (e.g. the experiments' previous-stage
        resistance and subsequent-stage capacitance) so harness code can keep
        one provenance record per technology.
    """

    unit_resistance: float
    unit_capacitance: float
    name: str = "unnamed"
    extras: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_finite("technology", self, extra=self.extras)
        if self.unit_resistance <= 0.0:
            raise ValueError("unit_resistance must be positive")
        if self.unit_capacitance <= 0.0:
            raise ValueError("unit_capacitance must be positive")

    def wire_resistance(self, length_um: float) -> float:
        """Total resistance (Ω) of a wire of the given length (µm)."""
        self._check_length(length_um)
        return self.unit_resistance * length_um

    def wire_capacitance(self, length_um: float) -> float:
        """Total capacitance (pF) of a wire of the given length (µm)."""
        self._check_length(length_um)
        return self.unit_capacitance * length_um

    def wire_delay(self, length_um: float, load_pf: float) -> float:
        """Elmore delay (ps) across a wire driving ``load_pf`` downstream.

        ``d = R * (C/2 + C_load)`` — the wire's own capacitance counts at
        half weight (distributed RC), exactly the model of paper Sec. II.
        """
        r = self.wire_resistance(length_um)
        c = self.wire_capacitance(length_um)
        return r * (0.5 * c + load_pf)

    def with_name(self, name: str) -> "Technology":
        """Copy of this technology under a different name."""
        return replace(self, name=name)

    @staticmethod
    def _check_length(length_um: float) -> None:
        if length_um < 0.0:
            raise ValueError(f"negative wire length: {length_um}")


#: Default experimental technology (DESIGN.md §5 documents the substitution
#: for the paper's Table I).  ``prev_stage_resistance`` and
#: ``next_stage_capacitance`` are the paper's stated 400 Ω / 0.2 pF terminal
#: boundary conditions.
DEFAULT_TECHNOLOGY = Technology(
    unit_resistance=0.076,       # ohm / um
    unit_capacitance=0.000118,   # pF / um  (0.118 fF/um)
    name="submicron-0.5um",
    extras={
        "prev_stage_resistance": 400.0,   # ohm
        "next_stage_capacitance": 0.2,    # pF
    },
)
