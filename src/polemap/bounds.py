"""Ranges of numeric parameters, declared next to their dataclass fields.

A class whose only rules are its ranges sets __post_init__ = check_bounds.
Each check is a comparison that NaN fails; a message states the whole range.
FINITE declares a field that takes any finite number and ANY_NUMBER one that
also takes an infinity, but never NaN.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import field, fields

FINITE = (-sys.float_info.max, sys.float_info.max)
ANY_NUMBER = (-math.inf, math.inf)


def bounded(default, low, high=math.inf, *, above=False, name=None):
    """A field in [low, high], or (low, high] when above; name is its name in messages."""
    return field(default=default, metadata={"bounds": (low, high, above), "name": name})


def describe(low, high, above) -> str:
    """What a value must do to lie in the range, as in "be positive"."""
    if (low, high) == FINITE and not above:
        return "be finite"
    if (low, high) == ANY_NUMBER and not above:
        return "be any number but NaN"
    if high < math.inf:
        return f"lie in {'(' if above else '['}{low:g}, {high:g}]"
    if low == 0:
        return "be positive" if above else "be non-negative"
    return f"be {'greater than' if above else 'at least'} {low:g}"


@functools.cache
def declared_bounds(cls) -> tuple:
    """(field name, name in messages, (low, high, above)) per bounded field of cls."""
    return tuple(
        (f.name, f.metadata["name"] or f.name, f.metadata["bounds"])
        for f in fields(cls)
        if "bounds" in f.metadata
    )


def check_bounds(obj) -> None:
    """Raise ValueError unless every bounded field of obj lies in its range."""
    for field_name, name, (low, high, above) in declared_bounds(type(obj)):
        value = getattr(obj, field_name)
        for item in value if isinstance(value, tuple) else (value,):
            if not ((low < item if above else low <= item) and item <= high):
                raise ValueError(f"{name} must {describe(low, high, above)}")
