"""The sequence-pair floorplan representation.

A sequence pair ``(gamma_plus, gamma_minus)`` is a pair of permutations of
the die ids.  It encodes, for every pair of dies ``(a, b)``, exactly one of
the geometric relations the packing must honor:

* ``a`` before ``b`` in *both* sequences  ->  ``a`` is left of ``b``;
* ``a`` after ``b`` in ``gamma_plus`` but before ``b`` in ``gamma_minus``
  ->  ``a`` is below ``b``.

This is the classic representation of Murata et al. (ICCAD'95) that the
paper enumerates exhaustively (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple


@dataclass(frozen=True)
class SequencePair:
    """An immutable sequence pair over a set of die ids."""

    plus: Tuple[str, ...]
    minus: Tuple[str, ...]

    def __post_init__(self) -> None:
        if sorted(self.plus) != sorted(self.minus):
            raise ValueError(
                "gamma_plus and gamma_minus must permute the same die ids"
            )
        if len(set(self.plus)) != len(self.plus):
            raise ValueError("sequence pair repeats a die id")

    @property
    def die_ids(self) -> Tuple[str, ...]:
        """The die ids (gamma_plus order)."""
        return self.plus

    def __len__(self) -> int:
        return len(self.plus)

    def ranks(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Positional ranks of every die in both sequences."""
        rank_plus = {die_id: i for i, die_id in enumerate(self.plus)}
        rank_minus = {die_id: i for i, die_id in enumerate(self.minus)}
        return rank_plus, rank_minus

    def is_left_of(self, a: str, b: str) -> bool:
        """True when the pair constrains ``a`` strictly left of ``b``."""
        rank_plus, rank_minus = self.ranks()
        return rank_plus[a] < rank_plus[b] and rank_minus[a] < rank_minus[b]

    def is_below(self, a: str, b: str) -> bool:
        """True when the pair constrains ``a`` strictly below ``b``."""
        rank_plus, rank_minus = self.ranks()
        return rank_plus[a] > rank_plus[b] and rank_minus[a] < rank_minus[b]

    def relation(self, a: str, b: str) -> str:
        """One of ``"left"``, ``"right"``, ``"below"``, ``"above"``."""
        if a == b:
            raise ValueError("relation of a die with itself is undefined")
        if self.is_left_of(a, b):
            return "left"
        if self.is_left_of(b, a):
            return "right"
        if self.is_below(a, b):
            return "below"
        return "above"

    def mirrored(self) -> "SequencePair":
        """The sequence pair of the 180-degree-rotated arrangement."""
        return SequencePair(tuple(reversed(self.plus)), tuple(reversed(self.minus)))


def sequence_pair_from_lists(
    plus: Sequence[str], minus: Sequence[str]
) -> SequencePair:
    """Convenience constructor accepting any sequences of die ids."""
    return SequencePair(tuple(plus), tuple(minus))
