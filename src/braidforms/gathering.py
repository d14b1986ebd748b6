"""The gathering process: block-structured geometric normal forms.

Working strand by strand from the top strand down, every crossing that
involves the distinguished strand k ("big") is pushed to the end of the word,
leaving a prefix whose crossings all avoid strand k ("small").  Iterating for
k = N, N-1, ..., 3 yields the unique form

    x1^m . w_3(x1,x2) . w_4(x1,x2,x3) ... w_N(x1,...,x_{N-1})

where block w_k entangles strand k only.  A small letter bubbles left
through the big run by commuting or by ``patterns.pattern_rhs``; whether a
word is already in this form is ``crossings.is_normal_form``.

Worst case in B3, found by exhaustive search over the freely reduced words of
at most 9 letters (a test repeats it), not proved: n >= 2 letters take at
most (n-2)^2 steps and give at most 5n-8 letters |m| + |w_3|; 2 -1 2^(n-2)
and its sign mirror reach both.

In B4, (3 3 2 2 1 1 2 2)^p gives m = 2p, |w_3| = 8p and |w_4| = a_p with
a_1..a_3 = 32, 168, 932 and a_p = 7a_{p-1} - 7a_{p-2} + a_{p-3} - 24, found
by search (a test checks p <= 6), not proved: w_4 grows by (1 + sqrt 2)^2
per period.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby, islice
from operator import length_hint

from .errors import DEFAULT_STEP_BUDGET, StepBudgetExceeded
from .patterns import pattern_rhs
from .words import BraidWord, NormalForm, free_reduce

# (z1, z2, t) -> (rhs[0], rhs[:0:-1]) of pattern_rhs(z1, z2, t), shared by
# every gather_strand call: adjacent generators p, q admit 12 configurations,
# so it holds at most 24 entries per generator
_RULES: dict[tuple[int, int, int], tuple[int, tuple[int, ...]]] = {}

# one empty block per strand count: equal forms match them by identity
_empty = cache(lambda strands: BraidWord._trusted(strands, ()))


def gather_strand(
    w: BraidWord, k: int, max_steps: int = DEFAULT_STEP_BUDGET
) -> tuple[BraidWord, BraidWord]:
    """Gather every crossing of strand k at the end of the word.

    Returns (prefix, block): the prefix carries only small crossings and the
    block only big ones.  ``w`` must be freely reduced and use only x_1 ..
    x_{k-1}; a letter x_j with j >= k raises ValueError.

    Strand k is first crossed by the first x_{k-1}, so the letters before it
    go to the prefix by one slice.  Each later letter is read once, while
    strand k's position, the small prefix and the big run are kept
    incrementally.  A small letter that meets a nonempty big run bubbles
    left through all of it in one pass: a distant big letter commutes past
    it, and an adjacent one is rewritten with the big letter before it by
    ``pattern_rhs`` (memoized across calls), whose first letter is small and
    bubbles on while the rest is big.  Later steps keep the permutation
    before them, so what a bubble leaves behind is still big and becomes the
    run, with free cancellation only.  That cancellation can start only where
    a pattern's tail meets the letter before it: the run and each
    replacement are freely reduced, and a replacement's second letter is
    adjacent to its first, so a letter that commutes past the new bubbling
    letter never cancels the tail beside it.  Those junctions are noted as
    the tails are collected; a bubble with none goes back at C speed, and
    ``_reduce_at`` cancels only at the others.  Each commutation or pattern
    is one step, counted once per bubble as letters read minus patterns; the
    pass is cut short only when the budget left is shorter than the run.
    With ``max_steps`` = s, a budget trip's ``reached`` is the word after
    step s.  Every output letter comes from ``w`` or from ``pattern_rhs``,
    which reuses its inputs' generators, so the outputs skip the range check.
    """
    letters = w.letters
    gens = list(map(abs, letters))
    top = max(gens, default=0)
    if top >= k:
        raise ValueError(f"gathering strand {k} needs letters below x{k}, got x{top}")
    first = gens.index(k - 1) if top == k - 1 else len(gens)
    small = list(letters[:first])
    big: list[int] = []
    pos = k
    rules = _RULES
    steps = 0
    for j in range(first, len(letters)):
        t = letters[j]
        i = gens[j]
        if pos == i or pos == i + 1:
            if big and big[-1] == -t:
                big.pop()
            else:
                big.append(t)
            # toggling by i covers both branches: a cancellation undoes the
            # move the popped letter made
            pos = i if pos == i + 1 else i + 1
            continue
        if big:
            # t is small, so strand k stays put; what t leaves behind collects
            # on left, and cuts holds where a tail's first letter cancels the
            # one before it
            left: list[int] = []
            cuts: list[int] = []
            patterns = 0
            room = max_steps - steps
            run = reversed(big)
            # islice rejects a negative bound, which a negative budget gives
            for z2 in run if room >= len(big) else islice(run, max(room, 0)):
                if abs(abs(z2) - i) != 1:
                    # distant generators commute: a small letter never shares
                    # a generator with the big letter before it
                    left.append(z2)
                    continue
                # the run starts with x_{k-1}, which no small letter (x_{k-3}
                # or lower, with strand k at k-1) is adjacent to, so z1 exists
                z1 = next(run)
                key = (z1, z2, t)
                rule = rules.get(key)
                if rule is None:
                    _, rhs = pattern_rhs(z1, z2, t)
                    rule = rules[key] = (rhs[0], rhs[:0:-1])
                t, tail = rule
                i = abs(t)
                if left and left[-1] == -tail[0]:
                    cuts.append(len(left))
                left.extend(tail)
                patterns += 1
            if rest := length_hint(run):
                reached = (*small, *big[:rest], t, *left[::-1], *letters[j + 1 :])
                raise StepBudgetExceeded(
                    max_steps, f"gathering strand {k}", BraidWord._trusted(w.strands, reached)
                )
            steps += len(big) - patterns
            if cuts:
                left = _reduce_at(left, cuts)
            left.reverse()
            big = left
        if small and small[-1] == -t:
            small.pop()
        else:
            small.append(t)
    return (
        BraidWord._trusted(w.strands, tuple(small)),
        BraidWord._trusted(w.strands, tuple(big)),
    )


def _reduce_at(letters: list[int], cuts: list[int]) -> list[int]:
    """Freely reduce ``letters``, which can cancel only from the positions
    ``cuts``: copy by slice up to each cut, then cancel while the output's top
    and the next letter are inverse.  A two-letter tail can cancel at both
    ends, so the cancelling at a cut can reach back past it.  ``letters``
    gets a 0 appended as a sentinel, which no letter is the inverse of, so
    the cancelling stops at the end without a bound check."""
    letters.append(0)
    out: list[int] = []
    s = 0
    for cut in cuts:
        if cut > s:
            out += letters[s:cut]
            s = cut
        while out and out[-1] == -letters[s]:
            out.pop()
            s += 1
    out += letters[s:-1]
    return out


def normal_form(w: BraidWord, max_steps: int = DEFAULT_STEP_BUDGET) -> NormalForm:
    """Compute the unique block-structured normal form of ``w``.

    Each strand's gathering has ``max_steps`` steps; a trip's ``reached`` is
    the word of the strand being gathered followed by the blocks already
    gathered, so it is ``w`` in the group."""
    cur = free_reduce(w)
    blocks = [_empty(w.strands)] * (w.strands - 2)
    # x_i crosses positions i, i+1 only and no step raises a generator, so
    # strand k is crossed only if k <= max|letter| + 1; once strand k is
    # gathered the prefix avoids it, so it uses x_1 .. x_{k-2} only
    k = min(w.strands, max(map(abs, cur.letters), default=0) + 1)
    while k > 2:
        try:
            cur, blocks[k - 3] = gather_strand(cur, k, max_steps=max_steps)
        except StepBudgetExceeded as trip:
            rest = [t for block in blocks[k - 2 :] for t in block.letters]
            trip.reached = BraidWord._trusted(w.strands, (*trip.reached.letters, *rest))
            raise
        k = min(k - 1, max(map(abs, cur.letters), default=0) + 1)
    # what is left uses x1 only and is freely reduced, hence a single power:
    # every letter is 1 or -1
    m = sum(cur.letters)
    return NormalForm._trusted(w.strands, m, tuple(blocks))


def nf_to_word(nf: NormalForm) -> BraidWord:
    """Concatenate x1^m and the blocks; no cross-seam cancellation occurs.
    A ``NormalForm``'s letters are checked already, so they skip the check."""
    letters = [1 if nf.m >= 0 else -1] * abs(nf.m)
    for block in nf.blocks:
        letters += block.letters
    return BraidWord._trusted(nf.strands, tuple(letters))


def check_b3_parity(nf: NormalForm) -> bool:
    """Parity law for the single block of a 3-strand normal form.

    Written as x2^k1 x1^k2 x2^k3 ..., the leading exponent k1 is odd, every
    other non-terminal exponent is even, and the terminal exponent is
    unrestricted.  This is exactly what keeps the third strand involved in
    every crossing of the block: the first x2 run must park it at position 2
    (odd length) and each later non-terminal run must return it there (even
    length).
    """
    if nf.strands != 3:
        raise ValueError(f"parity check needs 3 strands, got {nf.strands}")
    letters = nf.block(3).letters
    if not letters:
        return True
    if abs(letters[0]) != 2:
        return False
    # maximal runs of one generator; a run's exponent has its length's parity
    lengths = [len(list(run)) for _, run in groupby(letters, key=abs)]
    return all((n % 2 == 1) == (r == 0) for r, n in enumerate(lengths[:-1]))
