"""Braid words over a fixed strand count, the normal-form record, free-group
operations and the permutation homomorphism.

A word in B_N (generators x_1 .. x_{N-1}) is stored as a sequence of signed
nonzero integers: the letter ``t`` means x_|t| raised to sign(t).  Words are
immutable values; equality is letter-for-letter, never group equality.
"""

from __future__ import annotations

from operator import add, attrgetter
from typing import Iterable


class Record:
    """Base of the immutable value types: a fixed tuple of named fields.

    A subclass names its fields, in constructor order, in ``__slots__``; its
    ``__new__`` checks its arguments and returns ``cls._trusted(...)``, which
    builds one without the checks and is the one place that sets fields.  Two
    records are equal only if they are of the same class with equal field
    tuples; the hash is the field tuple's; ``repr`` reads
    ``Name(field=value, ...)``; assigning or deleting a field raises
    ``AttributeError``.  Pickling calls the checked constructor again with
    the fields, since pickled bytes come from outside; ``copy.copy`` and
    ``copy.deepcopy`` return the record itself, as they do a tuple.  Each
    subclass gets its ``_trusted`` when it is created, a closure for its 1, 2
    or 3 fields that calls each slot's setter with no loop; a subclass with
    any other number of fields raises ``TypeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        n = len(cls.__slots__)
        if not 1 <= n <= 3:
            raise TypeError(f"{cls.__qualname__} has {n} fields; a Record has 1, 2 or 3")
        # each slot's member-descriptor setter, which bypasses __setattr__ below
        cls._trusted = _trusted_for(cls, *[getattr(cls, f).__set__ for f in cls.__slots__])
        get = attrgetter(*cls.__slots__)
        # attrgetter of a single name returns the value, not a 1-tuple
        cls._key = staticmethod(get if n > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def _trusted_for(cls, a, b=None, c=None):
    """The ``_trusted`` of the record class ``cls``, from its slots' setters."""
    new = object.__new__
    if b is None:
        def trusted(x):
            r = new(cls)
            a(r, x)
            return r
    elif c is None:
        def trusted(x, y):
            r = new(cls)
            a(r, x)
            b(r, y)
            return r
    else:
        def trusted(x, y, z):
            r = new(cls)
            a(r, x)
            b(r, y)
            c(r, z)
            return r
    return staticmethod(trusted)


def check_strands(strands: int) -> None:
    """Raise ValueError unless ``strands`` is an ``int`` (not a ``bool``,
    which would pass as 1) of at least 1."""
    if type(strands) is not int:
        raise ValueError(f"strand count {strands!r} is not an integer")
    if strands < 1:
        raise ValueError(f"strand count must be >= 1, got {strands}")


class BraidWord(Record):
    """A word in the braid group on ``strands`` strands: each letter t of
    ``letters`` stands for x_|t|^sign(t), with 1 <= |t| <= strands - 1."""

    __slots__ = ("strands", "letters")
    strands: int
    letters: tuple[int, ...]

    def __new__(cls, strands: int, letters: Iterable[int] = ()):
        check_strands(strands)
        letters = tuple(letters)
        for t in letters:
            if type(t) is not int:  # bool too: True would pass as the letter 1
                raise ValueError(f"letter {t!r} is not an integer")
            if t == 0 or abs(t) >= strands:
                raise ValueError(f"letter {t} out of range for {strands} strands")
        return cls._trusted(strands, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def is_reduced(self) -> bool:
        return reduce_letters(self.letters) == self.letters


word = BraidWord


class NormalForm(Record):
    """Exponent of the leading x1 power plus the blocks w_3 .. w_N, each a
    word on ``strands`` strands.  Walked with strand k starting at position k,
    each letter of w_k crosses strand k and does not cancel the one before."""

    __slots__ = ("strands", "m", "blocks")
    strands: int
    m: int
    blocks: tuple[BraidWord, ...]

    def __new__(cls, strands: int, m: int, blocks: Iterable[BraidWord] = ()):
        check_strands(strands)
        if type(m) is not int:  # bool too: True would pass as 1
            raise ValueError(f"x1 power {m!r} is not an integer")
        if m and strands < 2:
            raise ValueError(f"x1 power {m} on 1 strand is not 0")
        blocks = tuple(blocks)
        need = strands - 2 if strands > 2 else 0
        if len(blocks) != need:
            raise ValueError(f"need {need} blocks for {strands} strands, got {len(blocks)}")
        for k, b in enumerate(blocks, 3):
            if b.__class__ is not BraidWord or b.strands != strands:
                raise ValueError(f"block {b!r} is not a word on {strands} strands")
            p, last = k, 0  # strand k's position and the letter before
            for t in b.letters:
                i = abs(t)
                if i >= k or p - i not in (0, 1):
                    raise ValueError(f"letter {t} of block w_{k} does not cross strand {k}")
                if t == -last:
                    raise ValueError(f"letter {t} of block w_{k} cancels the one before it")
                p, last = (i + 1 if p == i else i), t
        return cls._trusted(strands, m, blocks)

    def block(self, k: int) -> BraidWord:
        """Block w_k for 3 <= k <= strands."""
        if not 3 <= k <= self.strands:
            raise ValueError(f"block index {k} not in 3..{self.strands}")
        return self.blocks[k - 3]


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence: the one test of whether letters cancel.
    A reduced sequence costs one C-speed scan, any other one stack pass."""
    x = tuple(letters)
    if 0 not in map(add, x, x[1:]):  # adjacent letters cancel iff they sum to 0
        return x
    out: list[int] = []
    for t in x:
        if out and out[-1] == -t:
            out.pop()
        else:
            out.append(t)
    return tuple(out)


def free_reduce(w: BraidWord) -> BraidWord:
    """Delete adjacent x_i^e x_i^-e pairs until none remain (``reduce_letters``).
    The letters kept are a checked word's, so they skip the check."""
    return BraidWord._trusted(w.strands, reduce_letters(w.letters))


def inverse(w: BraidWord) -> BraidWord:
    """Reverse the letters and negate the signs; a checked word's negated
    letters are in range, so they skip the check."""
    return BraidWord._trusted(w.strands, tuple(-t for t in reversed(w.letters)))


def concat(u: BraidWord, v: BraidWord) -> BraidWord:
    """Juxtapose two checked words over the same strand count."""
    if u.strands != v.strands:
        raise ValueError(f"strand count mismatch: {u.strands} vs {v.strands}")
    return BraidWord._trusted(u.strands, u.letters + v.letters)


def permutation(w: BraidWord) -> tuple[int, ...]:
    """Bottom arrangement of strand labels induced by ``w``.

    Entry at position p (0-based) is the label of the strand occupying
    position p+1 at the bottom of the diagram; strands are numbered by
    their top positions.  The empty word maps to (1, 2, ..., N).
    """
    arr = list(range(1, w.strands + 1))
    for t in w.letters:
        i = abs(t) - 1
        arr[i], arr[i + 1] = arr[i + 1], arr[i]
    return tuple(arr)


def identity_arrangement(strands: int) -> tuple[int, ...]:
    return tuple(range(1, strands + 1))


def is_pure(w: BraidWord) -> bool:
    """True iff ``w`` induces the identity permutation of strands."""
    return permutation(w) == identity_arrangement(w.strands)


def aij(i: int, j: int, strands: int) -> BraidWord:
    """Pure-braid generator entangling strand j with strand i only.

    Returns the representative x_{j-1} ... x_{i+1} x_i^2 x_{i+1}^-1 ... x_{j-1}^-1;
    for j == i + 1 this is x_i^2.
    """
    if not (1 <= i < j <= strands):
        raise ValueError(f"need 1 <= i < j <= {strands}, got i={i}, j={j}")
    left = list(range(j - 1, i, -1))
    return BraidWord(strands, tuple(left) + (i, i) + tuple(-q for q in reversed(left)))
