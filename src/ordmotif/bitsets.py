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


def compress(mask: int, positions: list[int]) -> int:
    """Re-index ``mask`` onto the compact universe given by ``positions``.

    Bit ``positions[j]`` of the input becomes bit ``j`` of the output; bits
    outside ``positions`` are dropped.
    """
    out = 0
    for j, p in enumerate(positions):
        if mask >> p & 1:
            out |= 1 << j
    return out

