"""Crossing sequences: round trips, validity automaton, classification."""

import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidforms import (
    BraidWord,
    Crossing,
    InvalidCrossing,
    classify,
    crossing,
    crossings_to_word,
    materialize_automaton,
    validate,
    word,
    word_to_crossings,
)
from braidforms.crossings import CrossingSequence
from braidforms.words import permutation

from .test_words import words_strategy


def sequence(strands, pairs):
    """Build a CrossingSequence from (low, high, sign) triples."""
    return CrossingSequence(strands, tuple(crossing(a, b, s) for a, b, s in pairs))


def crossing_strategy(strands: int):
    return st.tuples(
        st.integers(1, strands), st.integers(1, strands), st.sampled_from([1, -1])
    ).filter(lambda t: t[0] != t[1]).map(lambda t: crossing(*t))


def sequences_strategy(strands: int):
    return st.lists(crossing_strategy(strands), max_size=12).map(
        lambda items: CrossingSequence(strands, tuple(items))
    )


class TestCrossingValue:
    def test_canonicalized(self):
        assert crossing(4, 2, -1) == Crossing(2, 4, -1)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            crossing(2, 2)
        with pytest.raises(ValueError):
            crossing(1, 2, 0)

    @pytest.mark.parametrize("args", [(1.0, 2), (1, 2.0), (1, 2, True), (True, 2)])
    def test_fields_must_be_int(self, args):
        # crossing(1.0, 2) would give Crossing(low=1.0, ...), True the sign +1
        with pytest.raises(ValueError, match="has a field that is not an integer"):
            crossing(*args)

    def test_inverse(self):
        assert crossing(1, 3).inverse() == Crossing(1, 3, -1)

    def test_sequence_range_checked(self):
        with pytest.raises(ValueError):
            CrossingSequence(3, (crossing(1, 4),))

    @pytest.mark.parametrize("strands", [3.5, 3.0, True, "3"])
    def test_strand_count_must_be_int(self, strands):
        with pytest.raises(ValueError, match=f"strand count {strands!r} is not an integer"):
            CrossingSequence(strands, (Crossing(1, 2, 1),))

    @pytest.mark.parametrize("strands", [0, -1])
    def test_strand_count_at_least_one(self, strands):
        # the word of an empty sequence skips BraidWord's check, so it is made here
        with pytest.raises(ValueError, match=f"strand count must be >= 1, got {strands}"):
            CrossingSequence(strands)

    def test_single_strand_round_trip(self):
        c = CrossingSequence(1)
        assert crossings_to_word(c) == BraidWord(1)
        assert word_to_crossings(BraidWord(1)) == c

    @pytest.mark.parametrize(
        "item", [Crossing(1.0, 2, 1), Crossing(1, 2.0, 1), Crossing(1, 2, True), Crossing(1, 2, 1.0)]
    )
    def test_sequence_field_types_checked(self, item):
        # 1.0 and True pass the range and sign checks like 1, and
        # crossings_to_word would then index a list with 1.0
        message = f"crossing {item} has a field that is not an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            CrossingSequence(3, (item,))

    @pytest.mark.parametrize("sign", [0, 2, -2])
    def test_sequence_sign_checked(self, sign):
        # Crossing itself does not check, unlike crossing()
        with pytest.raises(ValueError, match="bad sign in crossing"):
            CrossingSequence(3, (Crossing(1, 2, sign),))


class TestWordExample:
    """The worked example: x3 x2^-2 x1 in B4."""

    def test_forward(self):
        c = word_to_crossings(word(4, [3, -2, -2, 1]))
        assert c.items == (
            Crossing(3, 4, 1),
            Crossing(2, 4, -1),
            Crossing(2, 4, -1),
            Crossing(1, 2, 1),
        )

    def test_backward(self):
        c = sequence(
            4, [(1, 2, 1), (3, 4, 1), (1, 4, 1), (2, 4, -1), (2, 4, -1), (1, 4, -1)]
        )
        assert crossings_to_word(c).letters == (1, 3, 2, -1, -1, -2)

    def test_invalid_rejected_with_position(self):
        c = sequence(3, [(1, 3, -1)])
        with pytest.raises(InvalidCrossing) as exc:
            crossings_to_word(c)
        assert exc.value.position == 1

    def test_later_position_reported(self):
        c = sequence(3, [(1, 2, 1), (1, 2, -1), (1, 3, 1)])
        with pytest.raises(InvalidCrossing) as exc:
            crossings_to_word(c)
        assert exc.value.position == 3


class TestManyStrands:
    N = 10**5

    def test_round_trip(self):
        w = word(self.N, [self.N - 1, self.N - 2] * 500)
        assert crossings_to_word(word_to_crossings(w)) == w

    def test_invalid_position_reported(self):
        c = sequence(self.N, [(self.N - 1, self.N, 1), (self.N - 2, self.N, 1), (1, self.N, 1)])
        with pytest.raises(InvalidCrossing) as exc:
            crossings_to_word(c)
        assert exc.value.position == 3


class TestRoundTrips:
    @given(words_strategy(5))
    def test_word_crossings_word(self, w):
        assert crossings_to_word(word_to_crossings(w)) == w

    @given(words_strategy(4))
    def test_crossings_word_crossings(self, w):
        c = word_to_crossings(w)
        assert word_to_crossings(crossings_to_word(c)) == c

    @given(sequences_strategy(4))
    def test_validate_iff_no_exception(self, c):
        try:
            crossings_to_word(c)
            expected = True
        except InvalidCrossing:
            expected = False
        assert validate(c) is expected

    @given(words_strategy(4))
    def test_final_state_is_permutation(self, w):
        assert permutation(crossings_to_word(word_to_crossings(w))) == permutation(w)

    @given(words_strategy(4), st.integers(0, 40), st.sampled_from([1, -1]))
    def test_adjacent_inverse_bridging(self, w, pos, s):
        """Inserting x_i^e x_i^-e inserts adjacent inverse crossings, and back."""
        p = pos % (len(w.letters) + 1)
        i = 1 + pos % (w.strands - 1)
        letters = w.letters[:p] + (i * s, -i * s) + w.letters[p:]
        c = word_to_crossings(BraidWord(w.strands, letters))
        assert c.items[p] == c.items[p + 1].inverse()


class TestClassification:
    def test_example_relative_to_top_strand(self):
        c = word_to_crossings(word(4, [3, -2, -2, 1]))
        assert classify(c, 4) == ("big", "big", "big", "small")

    def test_range_checked(self):
        with pytest.raises(ValueError):
            classify(CrossingSequence(3), 4)


class TestAutomaton:
    @pytest.mark.parametrize("strands,states", [(2, 2), (3, 6), (4, 24)])
    def test_state_count_is_factorial(self, strands, states):
        table = materialize_automaton(strands)
        assert len(table) == states == math.factorial(strands)

    def test_materialization_capped(self):
        with pytest.raises(ValueError):
            materialize_automaton(6)

    def test_edges_agree_with_incremental_path(self):
        table = materialize_automaton(3)
        rng = random.Random(5)
        for _ in range(50):
            state = (1, 2, 3)
            items = []
            for _ in range(rng.randrange(6)):
                x = rng.choice(list(table[state]))
                items.append(x)
                state = table[state][x]
            c = CrossingSequence(3, tuple(items))
            assert validate(c)
            assert permutation(crossings_to_word(c)) == state

    def test_normal_forms_accepted_by_automaton(self):
        """Block-ordered residues stay inside the validity language (the
        regular-language view of normal forms at small strand counts)."""
        from braidforms import nf_to_word, normal_form
        from braidforms.oracle import random_word

        table = materialize_automaton(4)
        rng = random.Random(6)
        for _ in range(40):
            w = random_word(4, rng.randrange(1, 12), rng)
            c = word_to_crossings(nf_to_word(normal_form(w)))
            state = (1, 2, 3, 4)
            for x in c.items:
                assert x in table[state]
                state = table[state][x]
