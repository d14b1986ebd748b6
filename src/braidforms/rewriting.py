"""Confluent rewriting of crossing sequences.

The rules act directly on sequences of crossings: three-crossing
reorderings (I1-I4), the swap of commuting crossings (COM) and cancellation
of adjacent inverse crossings (D).  Every maximal chain of rewrites from a
valid sequence terminates in the same residue, which is the block-ordered
normal form of the underlying braid.

``residue`` rewrites in the strand order that ``normal_form`` gathers: at
each step its strategy picks among the D sites, which are always eligible,
and the reorderings of the highest strand that still has one.  Picking a
lower strand's reordering first is still a valid rewrite, but it can expand
blocks that the higher strand must then cross, and the chain can grow by
orders of magnitude.

``residue`` matches every position once, then keeps a table of sites: a
rewrite at ``p`` can only change the sites that start in
``[p - 2, p + len(replacement))``, so only that window is matched again.

COM is needed: without it, residues differ on 23 of 40 seeded B4 sequences.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, count, islice
from typing import NamedTuple

from .crossings import Crossing, CrossingSequence, validate
from .errors import DEFAULT_STEP_BUDGET, StepBudgetExceeded


@dataclass(frozen=True)
class RewriteRule:
    """A bound rule instance: template name, matched length, replacement."""

    template: str
    length: int
    replacement: tuple[Crossing, ...]


class RewriteSite(NamedTuple):
    position: int
    rule: RewriteRule


@dataclass(frozen=True)
class Strategy:
    """Site-selection policy for residue computation.

    The policy picks, in position order, among the D sites and the
    reorderings of the highest strand still pending: the leftmost, the
    rightmost or a seeded random one.
    """

    kind: str  # "leftmost", "rightmost" or "random"
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("leftmost", "rightmost", "random"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random strategy needs a seed")


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


def _match_triple(u: Crossing, v: Crossing, w: Crossing) -> RewriteRule | None:
    """I1-I4 at ``u v w``.

    Crossings are built directly: ``j`` and ``l`` lie below ``k``, and the
    crossing of ``j`` and ``l`` has ``w``'s strand pair.
    """
    if u.high != v.high:
        return None
    k = u.high
    j, l = u.low, v.low
    if j != l:
        if (w.low, w.high) != ((j, l) if j < l else (l, j)):
            return None
        a, b = w.low, w.high
        if v.sign == w.sign:
            e, d = v.sign, u.sign
            return RewriteRule(
                "I1", 3, (Crossing(a, b, e), Crossing(l, k, e), Crossing(j, k, d))
            )
        if u.sign == v.sign:
            e, d = u.sign, w.sign
            return RewriteRule(
                "I2", 3, (Crossing(a, b, d), Crossing(l, k, e), Crossing(j, k, e))
            )
        # remaining sign pattern: u and w agree, v is their inverse
        e = u.sign
        return RewriteRule(
            "I4",
            3,
            (
                Crossing(a, b, e),
                Crossing(l, k, e),
                Crossing(j, k, e),
                Crossing(j, k, e),
                Crossing(l, k, -e),
                Crossing(l, k, -e),
                Crossing(j, k, -e),
            ),
        )
    # u and v are the same crossing; same sign (opposite signs fall to D)
    if u.sign != v.sign:
        return None
    if j not in (w.low, w.high):
        return None
    l = w.low if w.high == j else w.high
    if l >= k:
        return None
    e, d = u.sign, w.sign
    return RewriteRule(
        "I3",
        3,
        (w, Crossing(l, k, d), Crossing(j, k, e), Crossing(j, k, e), Crossing(l, k, -d)),
    )


def _match_at(items: Sequence[Crossing], p: int) -> RewriteRule | None:
    """The rule at ``p``; at most one matches.

    D needs equal strand pairs with opposite signs, where ``_match_triple``
    needs equal signs; COM needs ``u.high != v.high``, where it needs equality.
    """
    if p + 1 >= len(items):
        return None
    u, v = items[p], items[p + 1]
    rule = _match_pair(u, v)
    if rule is None and u.high == v.high and p + 2 < len(items):
        return _match_triple(u, v, items[p + 2])
    return rule


def applicable_sites(
    items: Sequence[Crossing], start: int = 0, stop: int | None = None
) -> list[RewriteSite]:
    """The matching sites that start in ``[start, stop)``, in position order."""
    sites = []
    for p in range(start, len(items) if stop is None else stop):
        rule = _match_at(items, p)
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

    def note(sites: list[RewriteSite]) -> None:
        for site in sites:
            p, rule = site.position, site.rule
            tag = _D if rule.template == "D" else items[p].high
            rules[p], tags[p] = rule, tag
            pending[tag] = pending.get(tag, 0) + 1

    note(applicable_sites(items))
    # Leftmost reads from ``since`` on and rightmost back from ``until``: a
    # leftmost pick leaves no eligible site before its window, and a
    # rightmost pick none after it, until the top strand falls and a lower
    # strand's reorderings become eligible.
    since, until = 0, len(items)
    steps = top = 0
    while pending:
        if steps >= max_steps:
            reached = CrossingSequence(c.strands, tuple(items))
            raise StepBudgetExceeded(max_steps, "computing residue", reached)
        last, top = top, max(pending)
        if top < last:
            since, until = 0, len(items)
        wanted = {_D, top}
        if strategy.kind == "leftmost":
            p = since
            while tags[p] not in wanted:
                p += 1
        elif strategy.kind == "rightmost":
            p = until - 1
            while tags[p] not in wanted:
                p -= 1
        else:
            total = pending.get(_D, 0) + (pending[top] if top != _D else 0)
            eligible = compress(count(), map(wanted.__contains__, tags))
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
        note(applicable_sites(items, lo, lo + fresh))
        if strategy.kind == "leftmost":
            since = lo
        elif strategy.kind == "rightmost":
            until = lo + fresh
        steps += 1
    return CrossingSequence(c.strands, tuple(items))


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
