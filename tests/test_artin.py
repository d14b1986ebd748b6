"""Normal forms in the Artin group <a, b | abab = baba>."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidforms import (
    ArtinWord,
    embed_b3,
    equal_a,
    gather_steps_a,
    normalize_a,
    parse_artin,
    reflection_sequence,
)
from braidforms.artin import (
    A_BAR,
    B_BAR,
    IDENT,
    ArtinNormalForm,
    compose,
    free_reduce_artin,
    invert,
    word_image,
)
from braidforms.errors import StepBudgetExceeded
from braidforms.oracle import burau
from braidforms.words import concat, inverse


def rand_artin(rng, max_len=12, min_len=0):
    letters = []
    n = rng.randrange(min_len, max_len)
    while len(letters) < n:
        choices = [t for t in (1, -1, 2, -2) if not letters or t != -letters[-1]]
        letters.append(choices[rng.randrange(len(choices))])
    return ArtinWord(tuple(letters))


def artin_mutate(w, rng, moves):
    """Random relation moves: abab <-> baba (both sign variants) and free
    insertion/deletion; the group element is preserved."""
    patterns = [
        ((1, 2, 1, 2), (2, 1, 2, 1)),
        ((2, 1, 2, 1), (1, 2, 1, 2)),
        ((-1, -2, -1, -2), (-2, -1, -2, -1)),
        ((-2, -1, -2, -1), (-1, -2, -1, -2)),
    ]
    letters = w.letters
    for _ in range(moves):
        options = []
        for p in range(len(letters) - 3):
            for pat, rep in patterns:
                if letters[p : p + 4] == pat:
                    options.append(letters[:p] + rep + letters[p + 4 :])
        for p in range(len(letters) - 1):
            if letters[p] == -letters[p + 1]:
                options.append(letters[:p] + letters[p + 2 :])
        for p in range(len(letters) + 1):
            for t in (1, -1, 2, -2):
                options.append(letters[:p] + (t, -t) + letters[p:])
        letters = options[rng.randrange(len(options))]
    return ArtinWord(letters)


def as_word(nf: ArtinNormalForm) -> ArtinWord:
    lead = (1 if nf.m >= 0 else -1,) * abs(nf.m)
    return ArtinWord(lead + nf.w1.letters)


def step_words(w):
    """The word after each gathering step, built from the yielded stacks."""
    for small, big, pending in gather_steps_a(w):
        yield ArtinWord(tuple(small + big + pending[::-1]))


def long_words(seed, count=5):
    """Seeded reduced words of 100 to 300 letters."""
    rng = random.Random(seed)
    return [rand_artin(rng, max_len=301, min_len=100) for _ in range(count)]


artin_words = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=40).map(
    lambda ls: ArtinWord(tuple(ls))
)


class TestParsing:
    def test_round_trip(self):
        assert str(parse_artin("abAB")) == "abAB"
        assert parse_artin("abAB").letters == (1, 2, -1, -2)

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            parse_artin("abc")

    def test_letter_range(self):
        with pytest.raises(ValueError):
            ArtinWord((3,))


class TestQuotientGroup:
    def test_generators_are_involutions(self):
        assert compose(A_BAR, A_BAR) == IDENT
        assert compose(B_BAR, B_BAR) == IDENT

    def test_group_has_eight_elements(self):
        seen = {IDENT}
        frontier = [IDENT]
        while frontier:
            g = frontier.pop()
            for h in (A_BAR, B_BAR):
                f = compose(g, h)
                if f not in seen:
                    seen.add(f)
                    frontier.append(f)
        assert len(seen) == 8

    def test_defining_relation_holds(self):
        assert word_image(parse_artin("abab")) == word_image(parse_artin("baba"))

    def test_invert(self):
        rot = compose(A_BAR, B_BAR)
        assert compose(rot, invert(rot)) == IDENT


class TestReflectionSequence:
    def test_example(self):
        refs = reflection_sequence(parse_artin("ba"))
        assert refs[0] == B_BAR
        assert refs[1] == (1, 4, 3, 2)  # the 2-4 vertex swap

    def test_composition_recovers_image(self):
        rng = random.Random(14)
        for _ in range(80):
            w = rand_artin(rng)
            img = IDENT
            for r in reflection_sequence(w):
                img = compose(r, img)
            assert img == word_image(w)

    def test_a_letters_get_axis_reflections(self):
        """The reflection of an a-letter is |1,3| or |2,4|, never anything else."""
        swap24 = tuple({1: 1, 2: 4, 3: 3, 4: 2}[v] for v in (1, 2, 3, 4))
        rng = random.Random(15)
        for _ in range(80):
            w = rand_artin(rng)
            for t, r in zip(w.letters, reflection_sequence(w)):
                if abs(t) == 1:
                    assert r in (A_BAR, swap24)
                else:
                    assert r != A_BAR

    @given(artin_words)
    def test_parity_rule(self, w):
        """A letter is gatherable iff it is an a-letter after an even number
        of b-letters."""
        b_before = 0
        for t, r in zip(w.letters, reflection_sequence(w)):
            assert (r == A_BAR) == (abs(t) == 1 and b_before % 2 == 0)
            b_before += abs(t) == 2


class TestEmbedding:
    def test_generator_images(self):
        assert embed_b3(parse_artin("a")).letters == (1,)
        assert embed_b3(parse_artin("b")).letters == (2, 2)
        assert embed_b3(parse_artin("B")).letters == (-2, -2)

    def test_homomorphism(self):
        rng = random.Random(16)
        for _ in range(40):
            u, v = rand_artin(rng), rand_artin(rng)
            joint = embed_b3(ArtinWord(u.letters + v.letters))
            assert joint == concat(embed_b3(u), embed_b3(v))
            assert embed_b3(ArtinWord(tuple(-t for t in reversed(u.letters)))) == inverse(
                embed_b3(u)
            )

    def test_relation_preserved(self):
        assert burau(embed_b3(parse_artin("abab"))) == burau(
            embed_b3(parse_artin("baba"))
        )


class TestNormalizeA:
    def test_simple_examples(self):
        nf = normalize_a(parse_artin("ab"))
        assert (nf.m, str(nf.w1)) == (1, "b")
        nf = normalize_a(parse_artin("ba"))
        assert (nf.m, str(nf.w1)) == (0, "ba")
        nf = normalize_a(parse_artin(""))
        assert (nf.m, str(nf.w1)) == (0, "")

    def test_pure_power_of_a(self):
        nf = normalize_a(parse_artin("aaA"))
        assert (nf.m, str(nf.w1)) == (1, "")

    def test_every_step_preserves_element(self):
        rng = random.Random(18)
        for _ in range(25):
            w = rand_artin(rng)
            reference = burau(embed_b3(w))
            image = word_image(w)
            for step in step_words(w):
                assert burau(embed_b3(step)) == reference
                assert word_image(step) == image

    def test_residual_block_has_no_gatherable_letters(self):
        rng = random.Random(19)
        for _ in range(60):
            nf = normalize_a(rand_artin(rng))
            assert A_BAR not in reflection_sequence(nf.w1)
            assert free_reduce_artin(nf.w1) == nf.w1

    def test_idempotent(self):
        rng = random.Random(20)
        for _ in range(60):
            nf = normalize_a(rand_artin(rng))
            assert normalize_a(as_word(nf)) == nf

    def test_consistency_under_relation_moves(self):
        rng = random.Random(21)
        for _ in range(60):
            w = rand_artin(rng)
            v = artin_mutate(w, rng, rng.randrange(1, 6))
            assert normalize_a(v) == normalize_a(w)

    def test_long_words(self):
        rng = random.Random(23)
        for w in long_words(24):
            nf = normalize_a(w)
            assert burau(embed_b3(as_word(nf))) == burau(embed_b3(w))
            assert A_BAR not in reflection_sequence(nf.w1)
            assert normalize_a(as_word(nf)) == nf
            v = artin_mutate(w, rng, rng.randrange(1, 6))
            assert normalize_a(v) == nf
            assert equal_a(w, as_word(nf))
            assert equal_a(v, w)

    def test_budget_counts_transformations(self):
        w = parse_artin("bba")
        steps = sum(1 for _ in gather_steps_a(w))
        assert steps > 0
        with pytest.raises(StepBudgetExceeded):
            normalize_a(w, max_steps=0)
        for w in long_words(25, count=3):
            steps = sum(1 for _ in gather_steps_a(w))
            with pytest.raises(StepBudgetExceeded):
                normalize_a(w, max_steps=steps - 1)
            assert normalize_a(w, max_steps=steps) == normalize_a(w)


class TestEqualA:
    def test_defining_relation(self):
        assert equal_a(parse_artin("abab"), parse_artin("baba"))

    def test_distinct_generators(self):
        assert not equal_a(parse_artin("a"), parse_artin("b"))

    def test_central_element_commutes(self):
        delta = parse_artin("abab")
        left = ArtinWord(delta.letters + (1,))
        right = ArtinWord((1,) + delta.letters)
        assert equal_a(left, right)
        left = ArtinWord(delta.letters + (2,))
        right = ArtinWord((2,) + delta.letters)
        assert equal_a(left, right)

    def test_agrees_with_normalize(self):
        rng = random.Random(22)
        for _ in range(40):
            w = rand_artin(rng)
            v = artin_mutate(w, rng, 3)
            assert equal_a(w, v)
            assert equal_a(w, as_word(normalize_a(w)))

    def test_budget(self):
        u, v = parse_artin("ba"), parse_artin("ab")
        with pytest.raises(StepBudgetExceeded):
            equal_a(u, v, max_steps=0)
        assert not equal_a(u, v, max_steps=10)
