"""Random braids in normal form via per-block stopping-probability walks.

Each block is produced by a random walk that tracks the position of the
strand being entangled: at every step the walk stops with probability s or
emits, uniformly, one of the letters whose crossing involves that strand,
never the immediate inverse of the previous letter.  The output is a braid
already in normal form.
"""

from __future__ import annotations

import random
from typing import Iterable

from .words import BraidWord, NormalForm, Record, check_strands


def check_stop(s: float) -> None:
    """Raise ValueError unless ``s`` is a number in (0, 1], not a bool."""
    if type(s) is bool or not isinstance(s, (int, float)):
        raise ValueError(f"stopping probability {s!r} is not a number")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"stopping probability {s} not in (0, 1]")


class RandomParams(Record):
    """Strand count, stopping probabilities s_2 .. s_N and a seed."""

    __slots__ = ("strands", "stop", "seed")
    strands: int
    stop: tuple[float, ...]
    seed: int

    def __new__(cls, strands: int, stop: Iterable[float], seed: int = 0):
        check_strands(strands)
        stop = tuple(stop)
        expected = strands - 1
        if len(stop) != expected:
            raise ValueError(
                f"need {expected} stopping probabilities for {strands} strands, "
                f"got {len(stop)}"
            )
        for s in stop:
            check_stop(s)
        # random.Random would seed itself from the OS on None
        if type(seed) is not int:
            raise ValueError(f"seed {seed!r} is not an integer")
        return cls._trusted(strands, stop, seed)


def random_power(s: float, rng: random.Random) -> int:
    """Signed exponent of the leading x1 power.

    Stop at 0 with probability s; otherwise step to +1 or -1 with equal
    probability and keep extending away from zero until a stop.
    """
    check_stop(s)
    if rng.random() < s:
        return 0
    m = 1 if rng.random() < 0.5 else -1
    while rng.random() >= s:
        m += 1 if m > 0 else -1
    return m


def _moves(k: int, p: int, last: int) -> tuple[int, ...]:
    """Letters on x_1 .. x_k that cross position p and do not cancel ``last``."""
    return tuple(
        q * sign
        for q in (p - 1, p)
        if 1 <= q <= k
        for sign in (1, -1)
        if q * sign != -last
    )


def allowed_moves(k: int, letters: tuple[int, ...]) -> tuple[int, ...]:
    """Letters that may extend a partial block for strand k+1.

    A letter is allowed when its crossing involves the distinguished strand
    (tracked by position) and it is not the immediate inverse of the previous
    letter.
    """
    p = k + 1  # position of the distinguished strand
    for t in letters:
        p = p - 1 if abs(t) == p - 1 else p + 1
    return _moves(k, p, letters[-1] if letters else 0)


def random_block(k: int, s: float, rng: random.Random, strands: int) -> BraidWord:
    """Random block entangling strand k+1 into the first k, over x_1 .. x_k,
    as a word on ``strands`` strands.

    The walk starts with the distinguished strand at position k+1, so the
    first letter is always x_k^{+-1}.  It tracks the strand's position and
    the last letter, so each letter costs O(1).
    """
    check_stop(s)
    if type(k) is not int:  # bool too: True would pass as the block index 1
        raise ValueError(f"block index {k!r} is not an integer")
    if k < 1:
        raise ValueError(f"block index must be >= 1, got {k}")
    letters: list[int] = []
    p, last = k + 1, 0
    while rng.random() >= s:
        moves = _moves(k, p, last)
        last = moves[rng.randrange(len(moves))]
        letters.append(last)
        p = p - 1 if abs(last) == p - 1 else p + 1
    return BraidWord(strands, tuple(letters))


def random_braid(params: RandomParams) -> NormalForm:
    """Sample a braid; the result is a fixed point of the gathering process."""
    rng = random.Random(params.seed)
    n = params.strands
    if n < 2:
        return NormalForm._trusted(n, 0, ())
    m = random_power(params.stop[0], rng)
    blocks = tuple(
        random_block(k, params.stop[k - 1], rng, strands=n) for k in range(2, n)
    )
    return NormalForm._trusted(n, m, blocks)
