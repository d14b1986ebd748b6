"""Independent verification tools, kept off the production path.

Exact Burau matrices over integer Laurent polynomials give a strong
necessary condition for braid-word equality (complete for 3 strands), and a
bounded breadth-first search over relation moves gives a desk-scale
sufficient check.  Every property suite audits the rewrite engines against
these, never the other way round.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from typing import Iterator

from .words import BraidWord, concat, free_reduce, inverse, permutation


class Laurent:
    """Integer Laurent polynomial in one variable, stored exponent -> coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def const(cls, c: int) -> "Laurent":
        return cls({0: c})

    @classmethod
    def t(cls, power: int = 1) -> "Laurent":
        return cls({power: 1})

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + -other

    def __neg__(self) -> "Laurent":
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = [f"{c}*t^{e}" for e, c in sorted(self.coeffs.items())]
        return " + ".join(terms)


ZERO = Laurent()
ONE = Laurent.const(1)
T = Laurent.t(1)
TINV = Laurent.t(-1)
ONE_MINUS_T = ONE - T
ONE_MINUS_TINV = ONE - TINV

BurauMatrix = tuple[tuple[Laurent, ...], ...]

# the longest word bfs_equal visits, if the start is no longer
BFS_MAX_LEN = 16
# the room mutate leaves for insertions beyond two per move
MUTATE_EXTRA_LEN = 6


def burau_identity(n: int) -> BurauMatrix:
    return tuple(
        tuple(ONE if r == c else ZERO for c in range(n)) for r in range(n)
    )


def burau(w: BraidWord) -> BurauMatrix:
    """Unreduced Burau matrix of a word.

    A positive letter x_i acts as the identity except for the 2x2 block
    [[1-t, t], [1, 0]] at rows/columns i, i+1; inverse letters use the exact
    block inverse.  Only two columns change per letter, so the product is
    accumulated column-wise.
    """
    n = w.strands
    cols: list[list[Laurent]] = [
        [ONE if r == c else ZERO for r in range(n)] for c in range(n)
    ]
    for t in w.letters:
        i = abs(t) - 1
        a, b = cols[i], cols[i + 1]
        if t > 0:
            cols[i] = [a[r] * ONE_MINUS_T + b[r] for r in range(n)]
            cols[i + 1] = [a[r] * T for r in range(n)]
        else:
            cols[i] = [b[r] * TINV for r in range(n)]
            cols[i + 1] = [a[r] + b[r] * ONE_MINUS_TINV for r in range(n)]
    return tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))


def burau_mul(a: BurauMatrix, b: BurauMatrix) -> BurauMatrix:
    n = len(a)
    return tuple(
        tuple(
            sum((a[r][k] * b[k][c] for k in range(n)), ZERO) for c in range(n)
        )
        for r in range(n)
    )


def check_rule_instance(before: BraidWord, after: BraidWord) -> bool:
    """Audit one concrete rewrite step: permutation and Burau must agree."""
    if before.strands != after.strands:
        return False
    if permutation(before) != permutation(after):
        return False
    return burau(before) == burau(after)


class Verdict(enum.Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not-equal"
    UNKNOWN = "unknown"


def relation_neighbors(
    letters: tuple[int, ...], strands: int, max_len: int
) -> Iterator[tuple[int, ...]]:
    """Words one relation move away: deletions, insertions, commutations,
    braid-relation substitutions."""
    n = len(letters)
    for p in range(n - 1):
        a, b = letters[p], letters[p + 1]
        if a == -b:
            yield letters[:p] + letters[p + 2 :]
        if abs(abs(a) - abs(b)) >= 2:
            yield letters[:p] + (b, a) + letters[p + 2 :]
    for p in range(n - 2):
        a, b, c = letters[p], letters[p + 1], letters[p + 2]
        if (
            a == c
            and abs(abs(a) - abs(b)) == 1
            and (a > 0) == (b > 0)
        ):
            yield letters[:p] + (b, a, b) + letters[p + 3 :]
    if n + 2 <= max_len:
        for p in range(n + 1):
            for g in range(1, strands):
                yield letters[:p] + (g, -g) + letters[p:]
                yield letters[:p] + (-g, g) + letters[p:]


def bfs_equal(u: BraidWord, v: BraidWord, max_states: int = 50_000) -> Verdict:
    """Decide equality within budgets, or report Unknown.

    Permutation and Burau mismatches give a definite NOT_EQUAL; a relation-move
    path from u v^-1 to the empty word, through words of at most
    ``BFS_MAX_LEN`` letters (or the start's length, if longer), gives EQUAL.
    """
    if u.strands != v.strands:
        raise ValueError("strand count mismatch")
    if permutation(u) != permutation(v):
        return Verdict.NOT_EQUAL
    if burau(u) != burau(v):
        return Verdict.NOT_EQUAL
    start = free_reduce(concat(u, inverse(v))).letters
    if not start:
        return Verdict.EQUAL
    cap = max(len(start), BFS_MAX_LEN)
    seen = {start}
    queue = deque([start])
    while queue and len(seen) < max_states:
        cur = queue.popleft()
        for nxt in relation_neighbors(cur, u.strands, cap):
            if nxt in seen:
                continue
            if not nxt:
                return Verdict.EQUAL
            seen.add(nxt)
            queue.append(nxt)
    return Verdict.UNKNOWN


def mutate(w: BraidWord, rng: random.Random, moves: int) -> BraidWord:
    """Apply ``moves`` random relation moves; the group element is preserved."""
    letters = w.letters
    cap = len(letters) + 2 * moves + MUTATE_EXTRA_LEN
    for _ in range(moves):
        options = list(relation_neighbors(letters, w.strands, cap))
        if not options:
            break
        letters = options[rng.randrange(len(options))]
    return BraidWord(w.strands, letters)


def random_word(strands: int, length: int, rng: random.Random) -> BraidWord:
    """Uniform random freely reduced word of the given length."""
    letters: list[int] = []
    while len(letters) < length:
        choices = [
            g * s
            for g in range(1, strands)
            for s in (1, -1)
            if not letters or g * s != -letters[-1]
        ]
        letters.append(choices[rng.randrange(len(choices))])
    return BraidWord(strands, letters)
