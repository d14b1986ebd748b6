"""Crossing-sequence encoding of braid words.

A letter of a braid word crosses two concrete strands; which two depends on
everything before it.  Recording the strand pairs instead of the letters gives
an alternative encoding of the same braid, and validity of such a sequence is
membership in a finite automaton over strand arrangements.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .words import BraidWord, Record, check_strands, identity_arrangement


class Crossing(NamedTuple):
    """The crossing of strands ``low`` and ``high`` (low < high) with a sign."""

    low: int
    high: int
    sign: int

    def inverse(self) -> "Crossing":
        return Crossing(self.low, self.high, -self.sign)


def crossing(a: int, b: int, sign: int = 1) -> Crossing:
    """Build a crossing from an unordered strand pair."""
    if not (type(a) is type(b) is type(sign) is int):  # bool too: True is 1
        raise ValueError(f"crossing ({a!r}, {b!r}, {sign!r}) has a field that is not an integer")
    if a == b:
        raise ValueError(f"crossing needs two distinct strands, got {a}, {b}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return Crossing(min(a, b), max(a, b), sign)


class CrossingSequence(Record):
    __slots__ = ("strands", "items")
    strands: int
    items: tuple[Crossing, ...]

    def __new__(cls, strands: int, items: Iterable[Crossing] = ()):
        check_strands(strands)
        items = tuple(items)
        for c in items:
            low, high, sign = c
            if not (type(low) is type(high) is type(sign) is int):  # bool too: True is 1
                raise ValueError(f"crossing {c} has a field that is not an integer")
            if not (1 <= low < high <= strands):
                raise ValueError(f"crossing {c} out of range for {strands} strands")
            if sign not in (1, -1):
                raise ValueError(f"bad sign in crossing {c}")
        return cls._trusted(strands, items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


class InvalidCrossing(ValueError):
    """A crossing whose strands are not adjacent at its point in the trace.

    ``position`` is 1-based.
    """

    def __init__(self, position: int, item: Crossing):
        self.position = position
        self.item = item
        super().__init__(f"invalid crossing at position {position}: {item}")

    def __reduce__(self):
        return type(self), (self.position, self.item), self.__dict__


def word_to_crossings(w: BraidWord) -> CrossingSequence:
    """Trace the arrangement and record the strand pair of every letter."""
    arr = list(range(1, w.strands + 1))
    items = []
    for t in w.letters:
        sign = 1 if t > 0 else -1
        i = t * sign - 1
        r, s = arr[i], arr[i + 1]
        items.append(Crossing(r, s, sign) if r < s else Crossing(s, r, sign))
        arr[i], arr[i + 1] = s, r
    return CrossingSequence._trusted(w.strands, tuple(items))


def _trace(c: CrossingSequence) -> list[int]:
    """The letter of each crossing, or raise InvalidCrossing.

    Each crossing requires its two strands to occupy adjacent positions at its
    point in the trace; its letter is the position of the lower one.
    """
    at = list(range(c.strands + 1))  # at[s]: the position of strand s
    letters = []
    for pos, (low, high, sign) in enumerate(c.items, start=1):
        p, q = at[low], at[high]
        if p - q == 1:
            letters.append(q * sign)
        elif q - p == 1:
            letters.append(p * sign)
        else:
            raise InvalidCrossing(pos, c.items[pos - 1])
        at[low], at[high] = q, p
    return letters


def crossings_to_word(c: CrossingSequence) -> BraidWord:
    """Recover the braid word, or raise InvalidCrossing.  Its letters are
    positions below another strand, in range, so it skips the check."""
    return BraidWord._trusted(c.strands, tuple(_trace(c)))


def validate(c: CrossingSequence) -> bool:
    """True iff ``c`` is the crossing sequence of some braid word.

    Runs the single path through the arrangement automaton incrementally,
    building no word; the full automaton (N! states) is never materialized.
    """
    try:
        _trace(c)
    except InvalidCrossing:
        return False
    return True


def classify(c: CrossingSequence, k: int) -> tuple[str, ...]:
    """Label each item 'big' or 'small' relative to the distinguished strand k."""
    if not (1 <= k <= c.strands):
        raise ValueError(f"strand {k} out of range for {c.strands} strands")
    return tuple("big" if k in (x.low, x.high) else "small" for x in c.items)


def is_normal_form(w: BraidWord) -> bool:
    """True iff ``w`` is freely reduced and its crossings are block-ordered.

    In block order the higher strand of successive crossings never decreases:
    |1,2| crossings first, then |.,3|, then |.,4| and so on.
    """
    if not w.is_reduced():
        return False
    highs = [c.high for c in word_to_crossings(w).items]
    return all(a <= b for a, b in zip(highs, highs[1:]))


def materialize_automaton(strands: int) -> dict[tuple[int, ...], dict[Crossing, tuple[int, ...]]]:
    """Full transition table of the validity automaton.

    States are arrangements, the start state is the identity, and every state
    accepts.  Intended for small strand counts only; the state space has N!
    elements.
    """
    if strands > 5:
        raise ValueError("automaton materialization is limited to <= 5 strands")
    start = identity_arrangement(strands)
    table: dict[tuple[int, ...], dict[Crossing, tuple[int, ...]]] = {}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        if state in table:
            continue
        edges: dict[Crossing, tuple[int, ...]] = {}
        for p in range(strands - 1):
            r, s = state[p], state[p + 1]
            nxt = list(state)
            nxt[p], nxt[p + 1] = nxt[p + 1], nxt[p]
            nxt_t = tuple(nxt)
            for sign in (1, -1):
                edges[crossing(r, s, sign)] = nxt_t
            frontier.append(nxt_t)
        table[state] = edges
    return table
