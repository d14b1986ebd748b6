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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gathering
from .errors import NoRuleMatches, StepBudgetExceeded
from .gathering import DEFAULT_STEP_BUDGET
from .words import BraidWord, reduce_letters

# letters: +1 = a, -1 = a^-1, +2 = b, -2 = b^-1

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


@dataclass(frozen=True)
class ArtinWord:
    """Word over {a, b} and inverses, stored as signed integers 1 = a, 2 = b."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for t in self.letters:
            if abs(t) not in (1, 2):
                raise ValueError(f"bad letter {t}; expected +-1 or +-2")

    def __len__(self) -> int:
        return len(self.letters)

    def is_reduced(self) -> bool:
        return all(a != -b for a, b in zip(self.letters, self.letters[1:]))

    def __str__(self) -> str:
        return "".join({1: "a", -1: "A", 2: "b", -2: "B"}[t] for t in self.letters)


def parse_artin(text: str) -> ArtinWord:
    """Parse a compact word like 'abAB' (upper case = inverse)."""
    table = {"a": 1, "A": -1, "b": 2, "B": -2}
    try:
        return ArtinWord(tuple(table[ch] for ch in text.strip()))
    except KeyError as exc:
        raise ValueError(f"bad letter {exc.args[0]!r} in Artin word") from None


@dataclass(frozen=True)
class ArtinNormalForm:
    m: int
    w1: ArtinWord


def free_reduce_artin(w: ArtinWord) -> ArtinWord:
    return ArtinWord(reduce_letters(w.letters))


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


def _artin_rhs(z1: int, z2: int, y: int) -> tuple[int, ...]:
    """Replacement for a gatherable letter y preceded by z1 z2.

    z2 is always a b-letter; the five configurations below are exhaustive
    for freely reduced words.
    """
    if abs(z2) != 2 or abs(y) != 1:
        raise NoRuleMatches(f"unexpected configuration ({z1}, {z2}, {y})")
    sy = 1 if y > 0 else -1
    if abs(z1) == 2:
        if (z1 > 0) != (z2 > 0):
            raise NoRuleMatches(f"unreduced b-run in ({z1}, {z2}, {y})")
        e = 1 if z2 > 0 else -1
        d = sy
        # b^e b^e a^d -> a^d b^d a^d b^e b^e a^-d b^-d
        return (d, 2 * d, d, 2 * e, 2 * e, -d, -2 * d)
    al = 1 if z1 > 0 else -1
    be = 1 if z2 > 0 else -1
    ga = sy
    if al == be == ga:
        e = al
        # a^e b^e a^e -> b^e a^e b^e a^e b^-e
        return (2 * e, e, 2 * e, e, -2 * e)
    if al == ga and be == -al:
        e = al
        # a^e b^-e a^e -> b^e a^e b^e a^e a^e b^-e b^-e a^-e b^-e
        return (2 * e, e, 2 * e, e, e, -2 * e, -2 * e, -e, -2 * e)
    if be == ga == -al:
        e = al
        # a^e b^-e a^-e -> b^-e a^-e b^-e a^e b^e
        return (-2 * e, -e, -2 * e, e, 2 * e)
    # remaining pattern: a^-e b^-e a^e
    e = ga
    # a^-e b^-e a^e -> b^e a^e b^-e a^-e b^-e
    return (2 * e, e, -2 * e, -e, -2 * e)


def gather_steps_a(w: ArtinWord):
    """Gather the gatherable letters of ``w`` to the front in one pass.

    Letters move from ``pending`` onto ``small`` (gathered) or ``big``
    (residual), cancelling against the top of the stack, as in
    ``gathering.gather_strand``; a gatherable letter stuck behind ``big`` is
    replaced, with ``big``'s last two letters, by ``_artin_rhs``.  Yields the
    live stacks ``(small, big, pending)`` after each such transformation: the
    word is then ``small + big + reversed(pending)``, and once the generator is
    spent ``small + big`` is the gathered word.  Letters cancel as they are
    pushed, not over the whole word after each step, so the step count can
    differ from that of a globally reducing loop; the result cannot.
    """
    small: list[int] = []
    big: list[int] = []
    pending = list(reversed(reduce_letters(w.letters)))
    odd = False  # an odd number of b-letters in big; small holds a-letters only
    while pending:
        t = pending.pop()
        if odd or abs(t) == 2:
            if big and big[-1] == -t:
                big.pop()
            else:
                big.append(t)
            # a b-letter flips the parity whether it is pushed or cancelled
            odd ^= abs(t) == 2
        elif not big:
            if small and small[-1] == -t:
                small.pop()
            else:
                small.append(t)
        else:
            z2 = big.pop()
            if not big:
                raise NoRuleMatches(f"single-letter big run before gatherable letter {t}")
            z1 = big.pop()
            # big had an even count and lost z2, a b-letter, and z1
            odd = abs(z1) != 2
            pending.extend(reversed(_artin_rhs(z1, z2, t)))
            yield small, big, pending


def normalize_a(w: ArtinWord, max_steps: int = DEFAULT_STEP_BUDGET) -> ArtinNormalForm:
    """Gather the 1-3 reflection letters to the front as a power of a, in at
    most ``max_steps`` gathering transformations."""
    stacks = ((), reduce_letters(w.letters))  # the result if no step is needed
    for steps, stacks in enumerate(gather_steps_a(w)):
        if steps >= max_steps:
            raise StepBudgetExceeded(max_steps, "normalizing Artin word")
    letters = tuple(stacks[0]) + tuple(stacks[1])
    cut = next((i for i, t in enumerate(letters) if abs(t) == 2), len(letters))
    return ArtinNormalForm(sum(letters[:cut]), ArtinWord(letters[cut:]))


def embed_b3(w: ArtinWord) -> BraidWord:
    """Letterwise embedding into the 3-strand braid group: a -> x1, b -> x2^2."""
    letters: list[int] = []
    for t in w.letters:
        if abs(t) == 1:
            letters.append(1 if t > 0 else -1)
        else:
            letters.extend((2, 2) if t > 0 else (-2, -2))
    return BraidWord(3, tuple(letters))


def equal_a(u: ArtinWord, v: ArtinWord, max_steps: int = DEFAULT_STEP_BUDGET) -> bool:
    """Group equality via the braid embedding and its normal forms."""
    nf_u = gathering.normal_form(embed_b3(u), max_steps=max_steps)
    return nf_u == gathering.normal_form(embed_b3(v), max_steps=max_steps)
