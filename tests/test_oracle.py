"""The verification oracles themselves: Burau arithmetic and bounded search."""

import random

import pytest

from braidforms.oracle import (
    Laurent,
    ONE,
    T,
    TINV,
    Verdict,
    ZERO,
    bfs_equal,
    burau,
    burau_identity,
    burau_mul,
    check_rule_instance,
    mutate,
    random_word,
    relation_neighbors,
)
from braidforms.words import BraidWord, concat, inverse, permutation, word


class TestLaurent:
    def test_arithmetic(self):
        assert T * TINV == ONE
        assert (ONE - T) + T == ONE
        assert T + (-T) == ZERO
        assert (T * T).coeffs == {2: 1}

    def test_zero_coefficients_dropped(self):
        assert (T - T).coeffs == {}
        assert not (T - T)

    def test_hashable(self):
        assert hash(T) == hash(Laurent.t(1))

    def test_repr(self):
        assert repr(ZERO) == repr(Laurent()) == "0"
        assert repr(Laurent({1: -3, -1: 2, 0: 0})) == "2*t^-1 + -3*t^1"


class TestBurau:
    def test_identity(self):
        assert burau(word(3)) == burau_identity(3)

    def test_inverse_letter_blocks_cancel(self):
        assert burau(word(3, [1, -1])) == burau_identity(3)
        assert burau(word(3, [-2, 2])) == burau_identity(3)

    def test_homomorphism(self):
        rng = random.Random(31)
        for _ in range(20):
            u = random_word(4, rng.randrange(1, 8), rng)
            v = random_word(4, rng.randrange(1, 8), rng)
            assert burau(concat(u, v)) == burau_mul(burau(u), burau(v))

    @pytest.mark.parametrize("strands", [3, 4, 5, 6])
    def test_respects_braid_relations(self, strands):
        for i in range(1, strands - 1):
            lhs = word(strands, [i, i + 1, i])
            rhs = word(strands, [i + 1, i, i + 1])
            assert burau(lhs) == burau(rhs)
        for i in range(1, strands - 1):
            for j in range(i + 2, strands):
                assert burau(word(strands, [i, j])) == burau(word(strands, [j, i]))

    def test_distinguishes_generators(self):
        assert burau(word(3, [1])) != burau(word(3, [2]))

    def test_row_sums_constant(self):
        """Each row of an unreduced Burau matrix sums to 1."""
        rng = random.Random(32)
        for _ in range(10):
            m = burau(random_word(4, rng.randrange(1, 10), rng))
            for row in m:
                total = ZERO
                for entry in row:
                    total = total + entry
                assert total == ONE


class TestCheckRuleInstance:
    def test_accepts_relation(self):
        assert check_rule_instance(word(3, [1, 2, 1]), word(3, [2, 1, 2]))

    def test_rejects_different_elements(self):
        assert not check_rule_instance(word(3, [1]), word(3, [2]))
        assert not check_rule_instance(word(3, [1]), word(4, [1]))

    def test_rejects_same_permutation_different_element(self):
        assert not check_rule_instance(word(3, [1, 1]), word(3, []))


class TestRelationMoves:
    def test_neighbors_preserve_element(self):
        rng = random.Random(33)
        for _ in range(20):
            w = random_word(4, rng.randrange(1, 8), rng)
            for nxt in relation_neighbors(w.letters, 4, len(w.letters) + 2):
                assert burau(BraidWord(4, nxt)) == burau(w)

    def test_mutate_preserves_element(self):
        rng = random.Random(34)
        for _ in range(30):
            w = random_word(4, rng.randrange(1, 10), rng)
            v = mutate(w, rng, rng.randrange(1, 8))
            assert burau(v) == burau(w)
            assert permutation(v) == permutation(w)


class TestBfsEqual:
    def test_relation_is_equal(self):
        assert bfs_equal(word(3, [1, 2, 1]), word(3, [2, 1, 2])) is Verdict.EQUAL

    def test_permutation_mismatch(self):
        assert bfs_equal(word(3, [1]), word(3, [2])) is Verdict.NOT_EQUAL

    def test_burau_mismatch(self):
        assert bfs_equal(word(3, [1, 1]), word(3, [])) is Verdict.NOT_EQUAL

    def test_identical_words(self):
        w = word(4, [3, -2, -2, 1])
        assert bfs_equal(w, w) is Verdict.EQUAL

    def test_unknown_on_tiny_budget(self):
        u = word(3, [1, 2, 1])
        v = word(3, [2, 1, 2])
        verdict = bfs_equal(u, v, max_states=1)
        assert verdict in (Verdict.UNKNOWN, Verdict.EQUAL)

    def test_strand_mismatch(self):
        with pytest.raises(ValueError):
            bfs_equal(word(3, [1]), word(4, [1]))


class TestRandomWord:
    def test_length_and_reduction(self):
        rng = random.Random(35)
        for _ in range(30):
            n = rng.randrange(0, 15)
            w = random_word(4, n, rng)
            assert len(w.letters) == n
            assert w.is_reduced()
