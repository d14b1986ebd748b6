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

COM is needed: without it, residues differ on 23 of 40 seeded B4 sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .crossings import Crossing, CrossingSequence, crossing, validate
from .errors import DEFAULT_STEP_BUDGET, StepBudgetExceeded


@dataclass(frozen=True)
class RewriteRule:
    """A bound rule instance: template name, matched length, replacement."""

    template: str
    length: int
    replacement: tuple[Crossing, ...]


@dataclass(frozen=True)
class RewriteSite:
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


def _match_pair(u: Crossing, v: Crossing) -> RewriteRule | None:
    if (u.low, u.high) == (v.low, v.high) and u.sign == -v.sign:
        return RewriteRule("D", 2, ())
    if len({u.low, u.high, v.low, v.high}) == 4 and v.high < u.high:
        return RewriteRule("COM", 2, (v, u))
    return None


def _match_triple(u: Crossing, v: Crossing, w: Crossing) -> RewriteRule | None:
    if u.high != v.high:
        return None
    k = u.high
    j, l = u.low, v.low
    if j != l:
        if {w.low, w.high} != {j, l}:
            return None
        if v.sign == w.sign:
            e, d = v.sign, u.sign
            return RewriteRule(
                "I1", 3, (crossing(l, j, e), crossing(l, k, e), crossing(j, k, d))
            )
        if u.sign == v.sign:
            e, d = u.sign, w.sign
            return RewriteRule(
                "I2", 3, (crossing(l, j, d), crossing(l, k, e), crossing(j, k, e))
            )
        # remaining sign pattern: u and w agree, v is their inverse
        e = u.sign
        return RewriteRule(
            "I4",
            3,
            (
                crossing(l, j, e),
                crossing(l, k, e),
                crossing(j, k, e),
                crossing(j, k, e),
                crossing(l, k, -e),
                crossing(l, k, -e),
                crossing(j, k, -e),
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
        (
            crossing(l, j, d),
            crossing(l, k, d),
            crossing(j, k, e),
            crossing(j, k, e),
            crossing(l, k, -d),
        ),
    )


def _match_at(items: tuple[Crossing, ...], p: int) -> RewriteRule | None:
    """The rule at ``p``; at most one matches.

    D needs equal strand pairs with opposite signs, where ``_match_triple``
    needs equal signs; COM needs ``u.high != v.high``, where it needs equality.
    """
    if p + 1 < len(items):
        rule = _match_pair(items[p], items[p + 1])
        if rule is not None:
            return rule
    if p + 2 < len(items):
        return _match_triple(items[p], items[p + 1], items[p + 2])
    return None


def applicable_sites(c: CrossingSequence) -> list[RewriteSite]:
    """All matching sites in position order."""
    sites = []
    for p in range(len(c.items)):
        rule = _match_at(c.items, p)
        if rule is not None:
            sites.append(RewriteSite(p, rule))
    return sites


def _splice(items: tuple[Crossing, ...], p: int, rule: RewriteRule) -> tuple[Crossing, ...]:
    """``items`` with the rule's replacement over its span at ``p``."""
    return items[:p] + rule.replacement + items[p + rule.length :]


def _gathering_order(
    items: tuple[Crossing, ...], sites: list[RewriteSite]
) -> list[RewriteSite]:
    """The D sites plus the reorderings of the highest strand that has one.

    A reordering (COM, I1-I4) belongs to the high strand of its first
    crossing.  One pass over ``sites``; position order is kept.
    """
    top = 0
    kept: list[RewriteSite] = []
    for site in sites:
        if site.rule.template != "D":
            k = items[site.position].high
            if k < top:
                continue
            if k > top:
                top = k
                kept = [s for s in kept if s.rule.template == "D"]
        kept.append(site)
    return kept


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
    """
    if not validate(c):
        raise ValueError("sequence does not correspond to a braid word")
    rng = random.Random(strategy.seed) if strategy.kind == "random" else None
    steps = 0
    while True:
        sites = applicable_sites(c)
        if not sites:
            return c
        if steps >= max_steps:
            raise StepBudgetExceeded(max_steps, "computing residue", c)
        sites = _gathering_order(c.items, sites)
        if strategy.kind == "leftmost":
            site = sites[0]
        elif strategy.kind == "rightmost":
            site = sites[-1]
        else:
            site = sites[rng.randrange(len(sites))]
        c = CrossingSequence(c.strands, _splice(c.items, site.position, site.rule))
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
        for p in range(len(items)):
            rule = _match_at(items, p)
            if rule is None:
                continue
            sub = longest(_splice(items, p, rule))
            if sub == -1 or sub + 1 > cap:
                memo[items] = -1
                return -1
            best = max(best, sub + 1)
        memo[items] = best
        return best

    result = longest(c.items)
    return EXCEEDED if result == -1 else result
