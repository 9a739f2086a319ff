"""HPF-style per-dimension distribution directives.

Panda supports applications that distribute arrays "using HPF-style
BLOCK- and *-based array schemas" (paper, section 2).  We implement
exactly that vocabulary:

- :data:`BLOCK` -- the dimension is divided into contiguous blocks of
  size ``ceil(N / P)`` across a mesh dimension of ``P`` positions (the
  HPF BLOCK rule; trailing positions may receive a short or empty
  block).
- :data:`NONE` -- HPF's ``*``: the dimension is not distributed; every
  chunk spans it fully.

:data:`CYCLIC` is declared for API completeness (it is the third HPF
directive) but rejected by :class:`repro.schema.chunking.DataSchema`,
because Panda's chunk model -- one hyper-rectangle per mesh position --
cannot express it.  The paper does not use it either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = ["Dist", "BLOCK", "NONE", "CYCLIC", "parse_dist", "block_span"]


@dataclass(frozen=True)
class Dist:
    """A distribution directive for one array dimension."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("BLOCK", "NONE", "CYCLIC"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @property
    def distributed(self) -> bool:
        """True when this directive consumes a mesh dimension."""
        return self.kind != "NONE"

    def __repr__(self) -> str:
        return "*" if self.kind == "NONE" else self.kind


#: divide the dimension into contiguous blocks across a mesh dimension.
BLOCK = Dist("BLOCK")
#: HPF ``*``: the dimension is not distributed.
NONE = Dist("NONE")
#: HPF CYCLIC; declared but not supported by Panda's chunk model.
CYCLIC = Dist("CYCLIC")

_ALIASES = {
    "block": BLOCK,
    "BLOCK": BLOCK,
    "*": NONE,
    "none": NONE,
    "NONE": NONE,
    "cyclic": CYCLIC,
    "CYCLIC": CYCLIC,
}


def parse_dist(spec: Union[str, Dist]) -> Dist:
    """Accept a :class:`Dist` or one of the spellings ``"BLOCK"``,
    ``"*"``, ``"NONE"``, ``"CYCLIC"`` (case-insensitive)."""
    if isinstance(spec, Dist):
        return spec
    try:
        return _ALIASES[spec if spec == "*" else spec.upper()]
    except (KeyError, AttributeError):
        raise ValueError(f"cannot parse distribution directive {spec!r}") from None


def block_span(extent: int, parts: int, index: int) -> tuple[int, int]:
    """The half-open span ``[lo, hi)`` of block ``index`` when an extent
    of ``extent`` indices is divided into ``parts`` HPF BLOCK pieces.

    HPF rule: block size is ``ceil(extent / parts)``; the final blocks
    may be short or empty.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if not 0 <= index < parts:
        raise ValueError(f"block index {index} out of range for {parts} parts")
    b = -(-extent // parts)  # ceil division
    lo = min(index * b, extent)
    hi = min(lo + b, extent)
    return lo, hi
