"""Bitmask encoding of vertex subsets over a fixed, sorted universe."""
from __future__ import annotations

from typing import Iterable, Iterator


def bit_index(universe: Iterable[int]) -> dict[int, int]:
    """Map universe elements to bit positions, smallest id first."""
    return {v: i for i, v in enumerate(sorted(universe))}


def to_mask(subset: Iterable[int], index: dict[int, int]) -> int:
    mask = 0
    for v in subset:
        mask |= 1 << index[v]
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order, one step per set bit:
    ``mask & -mask`` isolates the lowest one."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask``, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
