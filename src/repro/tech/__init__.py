"""Technology modelling: wire constants, buffers, repeaters, terminals."""

from .buffers import (
    DEFAULT_BUFFER,
    Buffer,
    Repeater,
    RepeaterLibrary,
    WireClass,
    default_repeater_library,
    default_wire_library,
    scaled_library,
)
from .parameters import (
    DEFAULT_TECHNOLOGY,
    UM_PER_CM,
    NonFiniteParameterError,
    Technology,
)
from .terminals import NEVER, Terminal

__all__ = [
    "Buffer",
    "Repeater",
    "RepeaterLibrary",
    "WireClass",
    "Technology",
    "Terminal",
    "NEVER",
    "NonFiniteParameterError",
    "DEFAULT_BUFFER",
    "DEFAULT_TECHNOLOGY",
    "UM_PER_CM",
    "default_repeater_library",
    "default_wire_library",
    "scaled_library",
]
