"""Bipartitions and party partitions of an N-party register.

Parties are numbered 1..N from the left end of the ket string. A
bipartition splits them into two complementary nonempty groups; a
partition splits them into three or more disjoint blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import PartitionError


@dataclass(frozen=True, eq=False)
class Bipartition:
    """A cut ``left | right`` of the parties 1..N into two nonempty sides.

    A cut is unordered: equality and hashing ignore which side is called
    left, so ``single(2, 4)`` matches the same cut however enumerated.
    The stored orientation is kept for display and focus bookkeeping.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left_set, right_set = set(self.left), set(self.right)
        left = tuple(sorted(left_set))
        right = tuple(sorted(right_set))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if not left or not right:
            raise PartitionError("both sides of a cut must be nonempty")
        n = len(left) + len(right)
        if left_set & right_set:
            raise PartitionError(f"cut sides overlap: {left} | {right}")
        if left_set | right_set != set(range(1, n + 1)):
            raise PartitionError(
                f"cut {left} | {right} does not cover parties 1..{n}")

    def _key(self) -> tuple:
        return tuple(sorted((self.left, self.right)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bipartition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def from_left(cls, left, n_parties: int) -> "Bipartition":
        """Build the cut whose left side is ``left`` inside 1..n_parties."""
        left = tuple(sorted(set(int(p) for p in left)))
        for p in left:
            if not 1 <= p <= n_parties:
                raise IndexError(f"party {p} out of range 1..{n_parties}")
        right = tuple(p for p in range(1, n_parties + 1) if p not in left)
        return cls(left, right)

    @classmethod
    def single(cls, party: int, n_parties: int) -> "Bipartition":
        """The one-vs-rest cut that isolates ``party``."""
        return cls.from_left((party,), n_parties)

    @property
    def n_parties(self) -> int:
        return len(self.left) + len(self.right)

    def flipped(self) -> "Bipartition":
        return Bipartition(self.right, self.left)

    def __str__(self) -> str:
        return ",".join(map(str, self.left)) + "|" + ",".join(map(str, self.right))


def enumerate_bipartitions(n_parties: int) -> list[Bipartition]:
    """All 2**(N-1) - 1 unordered cuts, each keyed by the side holding party 1.

    Deterministic order: left sides by increasing size, then lexicographic.
    """
    if n_parties < 2:
        return []
    cuts = []
    others = range(2, n_parties + 1)
    rest = frozenset(others)
    for size in range(0, n_parties - 1):
        for extra in combinations(others, size):
            right = tuple(sorted(rest.difference(extra)))
            cuts.append(Bipartition((1,) + extra, right))
    return cuts


def left_side_masks(n_parties: int) -> np.ndarray:
    """Left sides of ``enumerate_bipartitions(n_parties)`` as bitmasks, same order.

    Party p is bit n_parties - p, so party 1 is the top bit and every
    mask holds it. Among left sides of one size, lexicographic order of
    the sorted parties is descending numeric order of these masks: the
    first party where two sides differ is the highest differing bit.
    """
    if n_parties < 2:
        return np.zeros(0, dtype=np.int64)
    masks = np.arange(1 << (n_parties - 1), (1 << n_parties) - 1, dtype=np.int64)
    sizes = sum((masks >> bit) & 1 for bit in range(n_parties))
    return masks[np.lexsort((-masks, sizes))]


def cut_labels(n_parties: int) -> list[str]:
    """``str(cut)`` for every cut of ``enumerate_bipartitions(n_parties)``, same order.

    Built from ``left_side_masks`` without a Bipartition. Each mask splits
    into a high half (parties 1..h) and a low half (parties h+1..N); one
    table per half, indexed by that half's bits, holds the comma-joined
    parties it puts on either side, so a label is four table lookups.
    The left side always holds party 1, so the low half's left parties
    join with a leading comma; its right parties do so only when the
    high half put a party on the right.
    """
    if n_parties < 2:
        return []
    n_low = n_parties // 2

    def sides(parties):
        """(left, right) strings for every half mask; the last party is bit 0."""
        top = len(parties) - 1
        rows = []
        for half in range(1 << len(parties)):
            bits = [half >> (top - i) & 1 for i in range(len(parties))]
            rows.append((",".join(str(p) for p, b in zip(parties, bits) if b),
                         ",".join(str(p) for p, b in zip(parties, bits) if not b)))
        return rows

    low_rows = sides(range(n_parties - n_low + 1, n_parties + 1))
    low_left = ["," + left if left else "" for left, _ in low_rows]
    low_right = [right for _, right in low_rows]
    low_right_after = ["," + right if right else "" for right in low_right]
    high_rows = [(left, "|" + right, low_right_after if right else low_right)
                 for left, right in sides(range(1, n_parties - n_low + 1))]
    low_bits = (1 << n_low) - 1
    labels = []
    for mask in left_side_masks(n_parties).tolist():
        left, right, right_low = high_rows[mask >> n_low]
        low = mask & low_bits
        labels.append(left + low_left[low] + right + right_low[low])
    return labels


def parse_cut(text: str, n_parties: int) -> Bipartition:
    """Parse ``"1,2|3"`` into a Bipartition over 1..n_parties."""
    sides = text.split("|")
    if len(sides) != 2:
        raise PartitionError(f"a cut needs exactly two sides: {text!r}")
    left = _parse_block(sides[0], text)
    right = _parse_block(sides[1], text)
    cut = Bipartition(left, right)
    if cut.n_parties != n_parties:
        raise PartitionError(
            f"cut {text!r} covers {cut.n_parties} parties, state has {n_parties}")
    return cut


def parse_partition(text: str, n_parties: int) -> list[tuple[int, ...]]:
    """Parse ``"1,2|3|4"`` into an ordered list of disjoint party blocks."""
    blocks = [_parse_block(part, text) for part in text.split("|")]
    seen: set[int] = set()
    for block in blocks:
        if seen & set(block):
            raise PartitionError(f"partition {text!r} repeats a party")
        seen |= set(block)
    if seen != set(range(1, n_parties + 1)):
        raise PartitionError(
            f"partition {text!r} does not cover parties 1..{n_parties}")
    return blocks


def _parse_block(part: str, full: str) -> tuple[int, ...]:
    try:
        block = tuple(sorted(int(tok) for tok in part.split(",") if tok.strip()))
    except ValueError as exc:
        raise PartitionError(f"bad party list in {full!r}") from exc
    if not block:
        raise PartitionError(f"empty block in {full!r}")
    return block
