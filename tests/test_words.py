"""Braid words: free reduction, permutation homomorphism, pure-braid generators."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidforms import (
    ArtinWord,
    BraidWord,
    NormalForm,
    aij,
    classify,
    concat,
    free_reduce,
    inverse,
    is_pure,
    nf_to_word,
    normal_form,
    permutation,
    word,
    word_to_crossings,
)
from braidforms.words import identity_arrangement, reduce_letters


def letters_strategy(strands: int):
    gens = [g * s for g in range(1, strands) for s in (1, -1)]
    return st.lists(st.sampled_from(gens), max_size=30).map(tuple)


def words_strategy(strands: int):
    return letters_strategy(strands).map(lambda ls: BraidWord(strands, ls))


class TestConstruction:
    def test_letters_validated(self):
        with pytest.raises(ValueError):
            BraidWord(3, (3,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))
        with pytest.raises(ValueError):
            BraidWord(0, ())

    @pytest.mark.parametrize("strands", [3.5, 3.0, True, "3"])
    def test_strand_count_must_be_int(self, strands):
        # 3.5 would construct and break normal_form with a TypeError; True would be 1
        with pytest.raises(ValueError, match=f"strand count {strands!r} is not an integer"):
            BraidWord(strands, (1, 2))

    @pytest.mark.parametrize("letters", [(1.5, 2), (True, 2, True), (1, 2.0), ("1",)])
    def test_letters_must_be_ints(self, letters):
        # 1.5 and True compare and take abs() like ints, so only the type
        # check stops them: normal_form would read 1.5 as an exponent
        bad = next(t for t in letters if type(t) is not int)
        with pytest.raises(ValueError, match=f"letter {bad!r} is not an integer"):
            BraidWord(3, letters)

    def test_value_semantics(self):
        assert word(4, [1, -2]) == word(4, (1, -2))
        assert word(4, [1]) != word(4, [2])

    def test_single_strand_admits_only_empty(self):
        assert word(1).letters == ()
        with pytest.raises(ValueError):
            BraidWord(1, (1,))

    def test_iterates_over_its_letters(self):
        w = word(4, [3, -2, -2, 1])
        assert list(w) == list(w.letters) == [3, -2, -2, 1]


class TestNormalFormConstruction:
    # each of these was accepted, and failed only later or not at all: an
    # internal TypeError in nf_to_word, an IndexError from .block(3), a
    # letter blamed for a block on the wrong strand count, an internal
    # AttributeError, and a form equal to the m = 1 form
    @pytest.mark.parametrize(
        "strands, m, blocks, message",
        [
            (3, 1.5, (BraidWord(3),), r"x1 power 1\.5 is not an integer"),
            (3, 1, (), "need 1 blocks for 3 strands, got 0"),
            (4, 1, (BraidWord(5, (4,)), BraidWord(5)), r"block BraidWord\(strands=5, .* is not a word on 4 strands"),
            (2, 0, ("x",), "need 0 blocks for 2 strands, got 1"),
            (3, True, (BraidWord(3),), "x1 power True is not an integer"),
            (1, 2, (), "x1 power 2 on 1 strand is not 0"),
            (3, 0, ("x",), "block 'x' is not a word on 3 strands"),
            (3, 0, (ArtinWord((1,)),), r"block ArtinWord\(letters=\(1,\)\) is not a word on 3 strands"),
            (4, 0, (BraidWord(4), BraidWord(4), BraidWord(4)), "need 2 blocks for 4 strands, got 3"),
        ],
        ids=["float-m", "no-block", "block-on-5", "str-on-2", "bool-m", "m-on-1", "str", "artin", "extra"],
    )
    def test_fields_validated(self, strands, m, blocks, message):
        with pytest.raises(ValueError, match=message):
            NormalForm(strands, m, blocks)

    # accepted while only the blocks' type and strand count were checked,
    # though no word normalizes to them
    @pytest.mark.parametrize(
        "blocks, message",
        [
            ((word(3, [1]),), "letter 1 of block w_3 does not cross strand 3"),
            ((word(4, [3]), word(4)), "letter 3 of block w_3 does not cross strand 3"),
            ((word(4), word(4, [3, 1])), "letter 1 of block w_4 does not cross strand 4"),
            ((word(3, [2, -2]),), "letter -2 of block w_3 cancels the one before it"),
        ],
        ids=["x1-first", "x3-in-w3", "distant", "cancel"],
    )
    def test_blocks_walked(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            NormalForm(len(blocks) + 2, 0, blocks)

    def test_accepts_exactly_the_normal_forms(self):
        """Over B4 forms with m in {0, -1}, a reduced w_3 over x1, x2 of at
        most 4 letters and a reduced w_4 over x1-x3 of at most 3, the
        constructor accepts a form iff it is the normal form of its word."""

        def reduced(gens, most):
            words, level = [()], [()]
            for _ in range(most):
                level = [
                    w + (t,)
                    for w in level
                    for g in range(1, gens + 1)
                    for t in (g, -g)
                    if not w or w[-1] != -t
                ]
                words += level
            return [BraidWord(4, w) for w in words]

        accepted = 0
        for m in (0, -1):
            for blocks in itertools.product(reduced(2, 4), reduced(3, 3)):
                nf = NormalForm._trusted(4, m, blocks)
                try:
                    NormalForm(4, m, blocks)
                except ValueError:
                    assert normal_form(nf_to_word(nf)) != nf
                else:
                    assert normal_form(nf_to_word(nf)) == nf
                    accepted += 1
        assert accepted == 1518

    @pytest.mark.parametrize("strands", [3.0, True, 0, "3"])
    def test_strand_count_validated(self, strands):
        with pytest.raises(ValueError, match="strand count"):
            NormalForm(strands, 0, ())

    def test_valid_forms(self):
        assert NormalForm(1, 0).blocks == NormalForm(2, -3).blocks == ()
        nf = NormalForm(4, -2, [word(4, [2, 1]), word(4, [3])])
        assert nf.blocks == (word(4, [2, 1]), word(4, [3]))
        assert nf_to_word(nf) == word(4, [-1, -1, 2, 1, 3])


class TestFreeReduce:
    def test_example(self):
        assert free_reduce(word(3, [1, 2, -2, -1, 2])).letters == (2,)

    @given(words_strategy(4))
    def test_idempotent(self, w):
        once = free_reduce(w)
        assert free_reduce(once) == once

    @given(words_strategy(4))
    def test_result_is_reduced(self, w):
        assert free_reduce(w).is_reduced()

    @given(words_strategy(5))
    def test_preserves_permutation(self, w):
        assert permutation(free_reduce(w)) == permutation(w)

    def test_cancellation_cascades(self):
        assert reduce_letters((1, 2, 3, -3, -2, -1)) == ()


class TestInverse:
    def test_example(self):
        w = word(4, [3, -2, -2, 1])
        assert inverse(w).letters == (-1, 2, 2, -3)

    @given(words_strategy(4))
    def test_involution(self, w):
        assert inverse(inverse(w)) == w

    @given(words_strategy(4))
    def test_concat_with_inverse_is_trivial(self, w):
        assert free_reduce(concat(w, inverse(w))).letters == ()


class TestPermutation:
    def test_identity(self):
        assert permutation(word(4)) == (1, 2, 3, 4)

    def test_single_letter(self):
        assert permutation(word(3, [1])) == (2, 1, 3)
        assert permutation(word(3, [-1])) == (2, 1, 3)

    @given(words_strategy(4), words_strategy(4))
    def test_homomorphism(self, u, v):
        combined = permutation(concat(u, v))
        pu, pv = permutation(u), permutation(v)
        # appending v permutes the arrangement of u on the right
        assert combined == tuple(pu[pv[p] - 1] for p in range(4))

    @given(words_strategy(4))
    def test_sign_irrelevant(self, w):
        flipped = BraidWord(4, tuple(-t for t in w.letters))
        assert permutation(flipped) == permutation(w)


class TestConcat:
    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            concat(word(3, [1]), word(4, [1]))

    def test_optional_reduction(self):
        u, v = word(3, [1, 2]), word(3, [-2, 1])
        assert concat(u, v).letters == (1, 2, -2, 1)
        assert free_reduce(concat(u, v)).letters == (1, 1)


class TestAij:
    @pytest.mark.parametrize(
        "i,j,strands,expected",
        [
            (1, 2, 4, (1, 1)),
            (1, 3, 4, (2, 1, 1, -2)),
            (2, 4, 4, (3, 2, 2, -3)),
            (1, 4, 5, (3, 2, 1, 1, -2, -3)),
        ],
    )
    def test_shape(self, i, j, strands, expected):
        assert aij(i, j, strands).letters == expected

    def test_range_validated(self):
        with pytest.raises(ValueError):
            aij(2, 2, 4)
        with pytest.raises(ValueError):
            aij(1, 5, 4)

    @pytest.mark.parametrize("strands", [3, 4, 5])
    def test_pure_and_entangles_j_only(self, strands):
        for i in range(1, strands):
            for j in range(i + 1, strands + 1):
                w = aij(i, j, strands)
                assert is_pure(w)
                labels = classify(word_to_crossings(w), j)
                assert set(labels) == {"big"}


def test_identity_arrangement():
    assert identity_arrangement(5) == (1, 2, 3, 4, 5)
