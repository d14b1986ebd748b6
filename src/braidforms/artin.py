"""Normal forms in the Artin group <a, b | abab = baba>.

The associated finite quotient is the 8-element symmetry group of a square,
generated by the reflections attached to a and b.  Each letter of a word gets
a reflection by conjugating its generator image with the prefix image, in
direct analogy with braid crossings; letters whose reflection swaps the
vertices 1 and 3 are gathered to the front as a power of a.

Parity rule: an a-letter is gatherable iff an even number of b-letters
precede it, and a b-letter never is.  Proof: with P the prefix image,
P A_BAR P^-1 swaps P(1) and P(3), so it is A_BAR iff P keeps the diagonal
{1, 3}; A_BAR keeps both diagonals and B_BAR swaps them.  P B_BAR P^-1 moves
all four vertices.  So the gathered prefix is the leading run of a-letters.

Twelve configurations: ``gather_steps_a`` keeps its residual stack ``big``
freely reduced and pushes an a-letter onto it only at an odd b-count, so
every a-letter in ``big`` has an odd number of b-letters below it.  A
gatherable letter y meets ``big`` only at an even b-count, so its top z2 is
a b-letter, it holds at least two b-letters, and the letter z1 below z2 is
an a-letter or z2 itself.  ``_RELATIONS`` writes the six with y = a as
relations, and ``_RULES`` tables them at import, each also read with every
letter inverted for the six with y = A.  Below z1 z2 the b-count is odd when
z1 is an a-letter and even when z1 = z2, and the replacement leads with one
b-letter in the first case and none in the second.  So the a-letter that
follows is gatherable and bubbles on, and every a-letter of the tail after it
has an odd b-count before it (a test checks all twelve).  Later steps keep the
b-parity of the letters before a tail, so the tails stay residual and are laid
back onto ``big`` as they land, cancelling only.

A bubble is a finite-state transduction of the run: its state is the carried
b-letter and the letter bubbling.  So ``_GROUPS`` memoizes the steps it takes
through the ``_WINDOW`` = 6 run letters below it, process-wide, by state and
window: at most 6 * (1 + 4 + ... + 4^6) = 32,766 keys.

Worst case, found by exhaustive search over the reduced words of at most 9
letters (a test repeats it), not proved: n >= 2 letters take at most
(n-2)(3n-7)/2 steps, reached only by bb a^(n-2) and BB A^(n-2) when n >= 4;
for n >= 3 the form has at most 7n-14 letters, only from (bb|BB)(a|A)^(n-2).

Equality: since the form is unique, u = v exactly when u v^-1 normalizes to
the identity.  ``equal_a`` gathers that word, with the two words' longest
common suffix cancelled, first when the suffix is at least a quarter of their
reduced letters, and otherwise, or on a budget trip, compares the two forms.
"""

from __future__ import annotations

from operator import neg
from typing import Iterable

from .errors import DEFAULT_STEP_BUDGET, StepBudgetExceeded
from .words import BraidWord, Record, reduce_letters

# letters: +1 = a, -1 = a^-1, +2 = b, -2 = b^-1; read both ways, letter to
# code for parse_artin and code to letter for str
_ALPHABET: dict = {"a": 1, "A": -1, "b": 2, "B": -2}
_ALPHABET.update({t: ch for ch, t in _ALPHABET.items()})

# permutations of the square's vertices as image tuples, f[v-1] = f(v)
SquareReflection = tuple[int, int, int, int]

IDENT: SquareReflection = (1, 2, 3, 4)
A_BAR: SquareReflection = (3, 2, 1, 4)  # swap vertices 1 and 3
B_BAR: SquareReflection = (2, 1, 4, 3)  # swap 1-2 and 3-4


def compose(f: SquareReflection, g: SquareReflection) -> SquareReflection:
    """Standard function composition: (f o g)(v) = f(g(v))."""
    return (f[g[0] - 1], f[g[1] - 1], f[g[2] - 1], f[g[3] - 1])


def invert(f: SquareReflection) -> SquareReflection:
    out = [0, 0, 0, 0]
    for v, w in enumerate(f, start=1):
        out[w - 1] = v
    return tuple(out)


class ArtinWord(Record):
    """Word over {a, b} and inverses, stored as signed integers 1 = a, 2 = b."""

    __slots__ = ("letters",)
    letters: tuple[int, ...]

    def __new__(cls, letters: Iterable[int] = ()):
        letters = tuple(letters)
        for t in letters:
            if type(t) is not int or abs(t) not in (1, 2):
                raise ValueError(f"bad letter {t!r}; expected +-1 or +-2")
        return cls._trusted(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(_ALPHABET[t] for t in self.letters)


def parse_artin(text: str) -> ArtinWord:
    """Parse a compact word like 'abAB' (upper case = inverse)."""
    try:
        return ArtinWord(tuple(_ALPHABET[ch] for ch in text.strip()))
    except KeyError as exc:
        raise ValueError(f"bad letter {exc.args[0]!r} in Artin word") from None


class ArtinNormalForm(Record):
    """The power ``m`` of a gathered to the front and the residual word
    ``w1``: freely reduced, with an odd number of b-letters before each of
    its a-letters, so none of them is gatherable."""

    __slots__ = ("m", "w1")
    m: int
    w1: ArtinWord

    def __new__(cls, m: int, w1: ArtinWord):
        if type(m) is not int:  # bool too: True would pass as 1
            raise ValueError(f"power of a {m!r} is not an integer")
        if w1.__class__ is not ArtinWord:
            raise ValueError(f"residual word {w1!r} is not an ArtinWord")
        odd, last = False, 0
        for t in w1.letters:
            if t == -last:
                raise ValueError(f"letter {t} of w1 cancels the one before it")
            if abs(t) == 2:
                odd = not odd
            elif not odd:
                raise ValueError(f"letter {t} of w1 has an even number of b-letters before it")
            last = t
        return cls._trusted(m, w1)


def word_image(w: ArtinWord) -> SquareReflection:
    """Image of a word in the 8-element quotient group."""
    img = IDENT
    for t in w.letters:
        img = compose(img, A_BAR if abs(t) == 1 else B_BAR)
    return img


def reflection_sequence(w: ArtinWord) -> tuple[SquareReflection, ...]:
    """Reflection attached to each letter: the prefix-conjugated generator image."""
    out = []
    prefix = IDENT
    for t in w.letters:
        gen = A_BAR if abs(t) == 1 else B_BAR
        out.append(compose(prefix, compose(gen, invert(prefix))))
        prefix = compose(prefix, gen)
    return tuple(out)


def _rule(rhs: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """A replacement split for bubbling: the b-letter it leads with (0 if
    none), the gatherable letter after it, and the rest reversed."""
    if abs(rhs[0]) == 2:
        return rhs[0], rhs[1], rhs[:1:-1]
    return 0, rhs[0], rhs[:0:-1]


# the six configurations z1 z2 a of the module docstring, as relations; each
# also holds with every letter inverted (its case swapped), which gives the
# six z1 z2 A
_RELATIONS = {
    "aba": "babaB",
    "Aba": "babAB",
    "bba": "ababbAB",
    "aBa": "babaaBBAB",
    "ABa": "baBAB",
    "BBa": "abaBBAB",
}

_RULES = {
    parse_artin(lhs).letters: _rule(parse_artin(rhs).letters)
    for relation in _RELATIONS.items()
    for lhs, rhs in (relation, map(str.swapcase, relation))
}


_WINDOW = 6
_GROUPS: dict = {}  # (carried b-letter, bubbling letter, *window) -> group
_KEYS = {k: k for k in _RULES}  # so the memo's keys share _RULES's tuples


def _walk(run: list | tuple, b: int, t: int, limit: int) -> tuple:
    """The ``_RULES`` steps of a bubble in state ``(b, t)`` down ``run`` from
    its top, at most ``limit`` and each reading letters of ``run`` only: their
    keys, the length of run left unused, the new state and their tails."""
    i, keys, tails = len(run), [], []
    while i > (b == 0) and len(keys) < limit:  # z1 under a carried b-letter, else z1 z2
        j = i - (1 if b else 2)
        step = _KEYS[run[j], b or run[j + 1], t]
        nb, nt, tail = _RULES[step]
        if nb and not j:  # the new b-letter meets the letter below the run
            break
        keys.append(step)
        i, b, t = j, nb, nt
        if b and run[j - 1] == -b:
            i, b = j - 1, 0
        tails += tail
    return keys, i, b, t, tails


def _group(key: tuple) -> tuple:
    """The ``_walk`` of a bubble in state ``key[:2]`` through the window
    ``key[2:]`` below it, memoized with the letters used and its tails reduced."""
    run = key[2:]
    keys, i, b, t, tails = _walk(run, *key[:2], len(run))
    _GROUPS[key] = group = (tuple(keys), len(run) - i, b, t, reduce_letters(tails))
    return group


def gather_steps_a(w: ArtinWord, max_steps: int, small: list, big: list):
    """Gather the gatherable letters of ``w`` into the empty lists ``small``
    and ``big`` in one pass, yielding the key ``(z1, z2, t)`` before each
    step; a step past ``max_steps`` raises ``StepBudgetExceeded``.

    Each reduced letter of ``w`` is read once onto ``small`` (gathered) or
    ``big`` (residual), cancelling against the top.  A gatherable letter t
    that meets ``big`` bubbles through it by index, leaving it intact: a step
    replaces z1 z2 t by the ``_RULES`` entry of its key, whose b-letter is
    the next z2 or cancels the letter below.  The bubble advances a group of
    steps at a time, memoized in ``_GROUPS`` by its state and the
    ``_WINDOW`` run letters below it.  Each group's reduced tail is laid
    onto ``left`` as it lands, cancelling at its first letters only, and
    ``big`` becomes ``reversed(left)``.  So the step count can differ from
    that of a loop that reduces the whole word after each step; the result
    cannot.
    """
    letters = reduce_letters(w.letters)
    budget = max(max_steps, 0)
    odd = False  # an odd number of b-letters in big; small holds a-letters only
    for k, t in enumerate(letters):
        if odd or abs(t) == 2:
            if big and big[-1] == -t:
                big.pop()
            else:
                big.append(t)
            # a b-letter flips the parity whether it is pushed or cancelled
            odd ^= abs(t) == 2
            continue
        # big's b-count stays even through the bubble, so odd stays False and
        # a carried b-letter has a letter below it; left's 0 cancels nothing
        i, b, left, start, first = len(big), 0, [0], budget, t
        while i > 0:
            key = (b, t, *big[i - _WINDOW : i]) if i > _WINDOW else (b, t, *big[:i])
            keys, used, b, t, tail = _GROUPS.get(key) or _group(key)
            if len(keys) > budget:
                # reached keeps this bubble's tails uncancelled, so walk it again
                yield from keys[:budget]
                _, i, b, t, back = _walk(big, 0, first, start)
                reached = ArtinWord._trusted(
                    (*small, *big[:i], *(b,)[: b != 0], t, *back[::-1], *letters[k + 1 :])
                )
                raise StepBudgetExceeded(max_steps, "normalizing Artin word", reached)
            budget -= len(keys)
            yield from keys
            i -= used
            j, n = 0, len(tail)  # no search shows that a group's tail never cancels whole
            while j < n and left[-1] == -tail[j]:
                left.pop()
                j += 1
            left += tail[j:]
        if small and small[-1] == -t:
            small.pop()
        else:
            small.append(t)
        big[:] = left[:0:-1]


def normalize_a(w: ArtinWord, max_steps: int = DEFAULT_STEP_BUDGET) -> ArtinNormalForm:
    """Gather the 1-3 reflection letters to the front as a power of a, in at
    most ``max_steps`` gathering transformations; a budget trip's ``reached``
    is the word after step ``max_steps``."""
    small: list[int] = []
    big: list[int] = []  # starts with a b-letter: its a-letters have odd b-counts
    for _ in gather_steps_a(w, max_steps, small, big):
        pass
    return ArtinNormalForm._trusted(sum(small), ArtinWord._trusted(tuple(big)))


def embed_b3(w: ArtinWord) -> BraidWord:
    """Letterwise embedding into the 3-strand braid group: a -> x1, b -> x2^2."""
    letters: list[int] = []
    for t in w.letters:
        # the letter codes are the generators' indices: a is x1, b is x2
        letters.extend((t,) if abs(t) == 1 else (t, t))
    return BraidWord._trusted(3, tuple(letters))


def equal_a(u: ArtinWord, v: ArtinWord, max_steps: int = DEFAULT_STEP_BUDGET) -> bool:
    """Group equality: ``u`` = ``v`` exactly when ``u v^-1`` normalizes to
    the identity, or when the two normal forms are the same.

    With x, y the reduced letters of ``u``, ``v`` and s their longest common
    suffix: when 4s >= |x| + |y|, the word d = x[:-s] y[:-s]^-1, reduced
    since s is maximal and at most half as long as the pair, is gathered
    first.  A finished gather answers, since the form is unique.  On a trip,
    or when the gate fails, the forms of x and y are compared as before.
    ``max_steps`` bounds each of these gathers: d's, then each word's.  So a
    pair whose forms finish never trips, and a pair whose forms would trip
    can still answer through d.
    """
    x, y = reduce_letters(u.letters), reduce_letters(v.letters)
    n, m = len(x), len(y)
    t = (n + m + 3) // 4  # 4s >= n + m iff the last t letters agree
    if t <= n and t <= m and x[n - t :] == y[m - t :]:
        s = t
        while s < n and s < m and x[n - s - 1] == y[m - s - 1]:
            s += 1
        d = x[: n - s] + tuple(map(neg, reversed(y[: m - s])))
        try:
            form = normalize_a(ArtinWord._trusted(d), max_steps)
        except StepBudgetExceeded:
            pass
        else:
            return not form.m and not form.w1.letters
    u, v = ArtinWord._trusted(x), ArtinWord._trusted(y)
    return normalize_a(u, max_steps) == normalize_a(v, max_steps)
