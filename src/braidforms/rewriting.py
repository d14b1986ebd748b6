"""Confluent rewriting of crossing sequences.

The rules act directly on sequences of crossings: three-crossing
reorderings (I1-I4, the gathering process's replacement table
``patterns.pattern_rhs`` read on crossings and named by it), the swap of
commuting crossings (COM) and cancellation of adjacent inverse crossings
(D).  Every maximal chain of rewrites from a valid sequence terminates in
the same residue, which is the block-ordered normal form of the underlying
braid.  Each gathering step is one COM or I-rule of the strand being
gathered, so ``normal_form`` follows one such chain; ``residue`` imports the
table only, not the gathering engine.

``residue`` rewrites in the strand order that ``normal_form`` gathers: at
each step its strategy picks among the D sites, which are always eligible,
and the reorderings of the highest strand that still has one.  Picking a
lower strand's reordering first is still a valid rewrite, but it can expand
blocks that the higher strand must then cross, and the chain can grow by
orders of magnitude.

``residue`` matches every position once, then keeps a table of sites: a
rewrite at ``p`` can only change the sites that start in
``[p - 2, p + len(replacement))``, so only that window is matched again.
A rule reads only the two or three crossings that start at its position, so
the match at ``p`` is a function of the window
``(items[p], items[p + 1], items[p + 2])``, the third ``None`` at the end of
the sequence.  One process-wide dict maps each window to its rule, or
``None``.  ``applicable_sites`` (so ``residue`` and ``max_chain_length``)
reads it inline, and only a miss calls the matchers, whose result is stored
while the dict holds fewer than 2^14 entries: every window of B3-B5 (20
crossings, so 20^3 + 20^2 = 8,400 windows) fits.

COM is needed: without it, residues differ on 23 of 40 seeded B4 sequences.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from functools import cache
from itertools import compress, count, islice
from typing import NamedTuple

from .crossings import Crossing, CrossingSequence, crossing, validate, word_to_crossings
from .errors import DEFAULT_STEP_BUDGET, StepBudgetExceeded
from .patterns import pattern_rhs
from .words import BraidWord, Record


class RewriteRule(Record):
    """A bound rule instance: template name, matched length, replacement."""

    __slots__ = ("template", "length", "replacement")
    template: str
    length: int
    replacement: tuple[Crossing, ...]

    def __new__(cls, template: str, length: int, replacement: tuple[Crossing, ...]):
        return cls._trusted(template, length, replacement)


class RewriteSite(NamedTuple):
    position: int
    rule: RewriteRule


class Strategy(Record):
    """Site-selection policy for residue computation.

    The policy picks, in position order, among the D sites and the
    reorderings of the highest strand still pending: the leftmost, the
    rightmost or a seeded random one.
    """

    __slots__ = ("kind", "seed")
    kind: str  # "leftmost", "rightmost" or "random"
    seed: int | None

    def __new__(cls, kind: str, seed: int | None = None):
        if kind not in ("leftmost", "rightmost", "random"):
            raise ValueError(f"unknown strategy kind {kind!r}")
        if kind == "random" and seed is None:
            raise ValueError("random strategy needs a seed")
        return cls._trusted(kind, seed)


LEFTMOST = Strategy("leftmost")
RIGHTMOST = Strategy("rightmost")


_CANCEL = RewriteRule("D", 2, ())


def _match_pair(u: Crossing, v: Crossing) -> RewriteRule | None:
    if u.low == v.low and u.high == v.high:
        return _CANCEL if u.sign != v.sign else None
    # COM needs four distinct strands; v.low < v.high < u.high leaves u.low
    if v.high < u.high and u.low != v.low and u.low != v.high:
        return RewriteRule("COM", 2, (v, u))
    return None


@cache
def _lift(ru: int, rv: int, su: int, sv: int, sw: int) -> RewriteRule | None:
    """The I-rule at ``(ru,3,su) (rv,3,sv) (1,2,sw)``, read off ``pattern_rhs``.

    ``order`` lists strands 1-3 by their starting position in an arrangement
    where the triple is valid; its letters there follow from the key, and the
    pattern's replacement is traced back through ``order``; the pattern names
    the rule.  Only 32 keys can occur.
    """
    if ru == rv:
        order, letters = (3 - ru, ru, 3), (2 * su, 2 * sv, sw)
    else:
        order, letters = (rv, ru, 3), (2 * su, sv, 2 * sw)
    pattern = pattern_rhs(*letters)
    if pattern is None:
        return None
    traced = word_to_crossings(BraidWord(3, pattern[1]))
    rhs = tuple(crossing(order[x.low - 1], order[x.high - 1], x.sign) for x in traced)
    return RewriteRule(pattern[0], 3, rhs)


def _match_triple(u: Crossing, v: Crossing, w: Crossing) -> RewriteRule | None:
    """I1-I4 at ``u v w``: gathering's patterns read on crossings.

    ``u`` and ``v`` cross ``k`` with ``j`` and ``l`` below it, and ``w``
    crosses ``j`` and ``l``.  The rule depends only on the signs and the order
    of the three strands, so it is lifted on strands 1-3 and relabelled.
    """
    k, j = u.high, u.low
    # l is v's low strand, or w's other one when u and v share their pair
    l = v.low if v.low != j else w.low + w.high - j
    low, mid = (j, l) if j < l else (l, j)
    if v.high != k or w.high >= k or w.low != low or w.high != mid:
        return None
    rule = _lift(1 + (j == mid), 1 + (v.low == mid), u.sign, v.sign, w.sign)
    if rule is None:
        return None
    at = (0, low, mid, k)
    rhs = tuple([Crossing(at[a], at[b], e) for a, b, e in rule.replacement])
    return RewriteRule(rule.template, 3, rhs)


# The window -> rule memo, bounded by ``_WINDOWS_CAP``; see the docstring.
_WINDOWS: dict[tuple[Crossing, Crossing, Crossing | None], RewriteRule | None] = {}
_WINDOWS_CAP = 1 << 14
_MISS = object()


def _match_window(key: tuple[Crossing, Crossing, Crossing | None]) -> RewriteRule | None:
    """The rule at a window missing from the memo; at most one matches.

    D needs a crossing and its inverse, which start no freely reduced pattern
    of ``pattern_rhs``; COM needs ``u.high != v.high``, where I1-I4 need equality.
    """
    u, v, w = key
    rule = _match_pair(u, v)
    if rule is None and u.high == v.high and w is not None:
        rule = _match_triple(u, v, w)
    if len(_WINDOWS) < _WINDOWS_CAP:
        _WINDOWS[key] = rule
    return rule


def applicable_sites(
    items: Sequence[Crossing], start: int = 0, stop: int | None = None
) -> list[RewriteSite]:
    """The matching sites that start in ``[start, stop)``, in position order."""
    sites = []
    windows = _WINDOWS
    last = len(items) - 2  # the last position a site can start at, a pair
    for p in range(start, last + 1 if stop is None else min(stop, last + 1)):
        key = (items[p], items[p + 1], items[p + 2] if p < last else None)
        rule = windows.get(key, _MISS)
        if rule is _MISS:
            rule = _match_window(key)
        if rule is not None:
            sites.append(RewriteSite(p, rule))
    return sites


def _splice(items: tuple[Crossing, ...], p: int, rule: RewriteRule) -> tuple[Crossing, ...]:
    """``items`` with the rule's replacement over its span at ``p``."""
    return items[:p] + rule.replacement + items[p + rule.length :]


# A site's tag: D for a cancellation, else the high strand of its first
# crossing, the strand whose reordering it is.
_D = 0
_NO_SITE = -1


def residue(
    c: CrossingSequence,
    strategy: Strategy = LEFTMOST,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> CrossingSequence:
    """Rewrite until no rule applies.

    Each step's strategy chooses among the D sites and the COM/I1-I4 sites
    of the highest strand that still has one, so strands are gathered from
    N down to 3 as in ``normal_form``.  Every such chain is a chain of the
    unrestricted rule system.  By confluence the result does not depend on
    the strategy.  ``max_steps`` bounds the number of rewrites.

    One ``applicable_sites`` scan finds the first sites; after each rewrite
    only the window it can change is matched again, so a step's matcher work
    does not grow with the sequence.
    """
    if not validate(c):
        raise ValueError("sequence does not correspond to a braid word")
    rng = random.Random(strategy.seed) if strategy.kind == "random" else None
    items = list(c.items)
    rules: list[RewriteRule | None] = [None] * len(items)
    tags = [_NO_SITE] * len(items)
    pending: dict[int, int] = {}  # tag -> number of sites with that tag
    sites = applicable_sites(items)
    # Leftmost scans rightward and rightmost leftward, from ``cursor``: a
    # leftmost pick leaves no eligible site before its window, nor a rightmost
    # pick after it, so the next scan starts at the window's near end, until
    # the top strand falls and a lower strand's reorderings become eligible.
    stride = -1 if strategy.kind == "rightmost" else 1
    cursor = 0 if stride > 0 else len(items) - 1
    steps = top = 0
    while True:
        for p, rule in sites:
            tag = _D if rule is _CANCEL else items[p].high
            rules[p], tags[p] = rule, tag
            pending[tag] = pending.get(tag, 0) + 1
        if not pending:
            return CrossingSequence._trusted(c.strands, tuple(items))
        if steps >= max_steps:
            reached = CrossingSequence._trusted(c.strands, tuple(items))
            raise StepBudgetExceeded(max_steps, "computing residue", reached)
        last, top = top, max(pending)
        if top < last:
            cursor = 0 if stride > 0 else len(items) - 1
        if rng is None:
            p = cursor
            while tags[p] != top and tags[p] != _D:
                p += stride
        else:
            total = pending.get(_D, 0) + (pending[top] if top != _D else 0)
            eligible = compress(count(), map((top, _D).__contains__, tags))
            p = next(islice(eligible, rng.randrange(total), None))
        rule = rules[p]
        lo, end = max(p - 2, 0), p + rule.length
        for tag in tags[lo:end]:
            if tag != _NO_SITE:
                pending[tag] -= 1
                if not pending[tag]:
                    del pending[tag]
        items[p:end] = rule.replacement
        fresh = p + len(rule.replacement) - lo
        rules[lo:end] = [None] * fresh
        tags[lo:end] = [_NO_SITE] * fresh
        sites = applicable_sites(items, lo, lo + fresh)
        cursor = lo if stride > 0 else lo + fresh - 1
        steps += 1


EXCEEDED = "exceeded"


def max_chain_length(c: CrossingSequence, cap: int) -> int | str:
    """Length of the longest rewrite chain, by exhaustive search.

    Returns EXCEEDED as soon as any chain passes ``cap``.  Hard-limited to
    tiny inputs; the search is exponential.  It searches every rule
    application, ignoring the strand order that ``residue`` keeps, so it
    bounds the chains of the unrestricted rule system.
    """
    if len(c.items) > 8 or c.strands > 4:
        raise ValueError("exhaustive chain search is limited to length <= 8, N <= 4")

    memo: dict[tuple[Crossing, ...], int] = {}

    def longest(items: tuple[Crossing, ...]) -> int:
        if items in memo:
            return memo[items]
        best = 0
        for site in applicable_sites(items):
            sub = longest(_splice(items, site.position, site.rule))
            if sub == -1 or sub + 1 > cap:
                memo[items] = -1
                return -1
            best = max(best, sub + 1)
        memo[items] = best
        return best

    result = longest(c.items)
    return EXCEEDED if result == -1 else result
