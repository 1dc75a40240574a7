"""Small helpers for sets of indices encoded as Python int bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(indices: Iterable[int]) -> int:
    """Pack an iterable of nonnegative indices into a bitmask."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

