"""Random braid generation: fixed points, case-list fidelity, determinism."""

import random

import pytest

from braidforms import (
    RandomParams,
    allowed_moves,
    check_b3_parity,
    classify,
    is_normal_form,
    nf_to_word,
    normal_form,
    random_block,
    random_braid,
    random_power,
    word_to_crossings,
)


class TestParams:
    def test_probability_count(self):
        with pytest.raises(ValueError):
            RandomParams(4, (0.5, 0.5))
        RandomParams(4, (0.5, 0.5, 0.5))

    def test_probability_range(self):
        with pytest.raises(ValueError):
            RandomParams(3, (0.0, 0.5))
        with pytest.raises(ValueError):
            RandomParams(3, (0.5, 1.5))
        RandomParams(3, (1.0, 1.0))

    def test_strand_count(self):
        with pytest.raises(ValueError):
            RandomParams(0, ())

    @pytest.mark.parametrize("strands, stop", [(2.0, (0.5,)), (True, ()), (3.5, (0.5, 0.5))])
    def test_strand_count_must_be_int(self, strands, stop):
        # 2.0 would break random_braid with a TypeError, True would give
        # NormalForm(strands=True, ...) and 3.5 would ask for 2.5 probabilities
        with pytest.raises(ValueError, match=f"strand count {strands!r} is not an integer"):
            RandomParams(strands, stop)

    @pytest.mark.parametrize("seed", [None, True, 7.0, "7"])
    def test_seed_must_be_int(self, seed):
        # random.Random(None) seeds from the OS, so each sample would differ
        with pytest.raises(ValueError, match=f"seed {seed!r} is not an integer"):
            RandomParams(3, (0.5, 0.5), seed)

    @pytest.mark.parametrize("s", [True, False, "0.5", None])
    def test_stop_entries_must_be_numbers(self, s):
        # True would pass as 1.0, and "0.5" would raise a TypeError inside
        with pytest.raises(ValueError, match=f"stopping probability {s!r} is not a number"):
            RandomParams(3, (0.5, s))


class TestRandomPower:
    def test_stop_probability_validated(self):
        with pytest.raises(ValueError):
            random_power(0.0, random.Random(1))

    @pytest.mark.parametrize(
        "s, message",
        [
            (True, "stopping probability True is not a number"),
            ("0.5", "stopping probability '0.5' is not a number"),
            (None, "stopping probability None is not a number"),
            (0.0, r"stopping probability 0.0 not in \(0, 1\]"),
        ],
    )
    def test_stop_checked_as_random_params_checks_it(self, s, message):
        # True used to run as s = 1.0, and "0.5" to raise a TypeError inside
        with pytest.raises(ValueError, match=message):
            random_power(s, random.Random(1))
        with pytest.raises(ValueError, match=message):
            RandomParams(2, (s,))

    def test_always_stops_when_certain(self):
        rng = random.Random(2)
        assert all(random_power(1.0, rng) == 0 for _ in range(20))

    def test_sign_symmetry(self):
        rng = random.Random(3)
        total = sum(random_power(0.5, rng) for _ in range(100_000))
        # mean of m is 0; each |m| has variance a few units
        assert abs(total) < 3 * 600


class TestCaseLists:
    """The printed random-walk case lists for the first two blocks."""

    def test_block2_cases_a_to_h(self):
        # (realizing prefix, expected move set); distinguished strand is 3
        cases = {
            "start": ((), {2, -2}),
            "A": ((2,), {2, 1, -1}),          # l=2, m>0 odd
            "B": ((-2,), {-2, 1, -1}),        # l=2, m<0 odd
            "C": ((2, 2), {2}),               # l=2, m>0 even (leading run)
            "D": ((-2, -2), {-2}),            # l=2, m<0 even (leading run)
            "E": ((2, 1), {1}),               # l=1, m>0 odd
            "F": ((2, -1), {-1}),             # l=1, m<0 odd
            "G": ((2, -1, -1), {-1, 2, -2}),  # l=1, m<0 even
            "H": ((2, 1, 1), {1, 2, -2}),     # l=1, m>0 even
        }
        for name, (prefix, expected) in cases.items():
            assert set(allowed_moves(2, prefix)) == expected, name

    def test_block3_cases_a_to_l(self):
        cases = {
            "start": ((), {3, -3}),
            "A": ((3,), {3, 2, -2}),              # l=3, m>0 odd
            "B": ((-3,), {-3, 2, -2}),            # l=3, m<0 odd
            "C": ((3, 3), {3}),                   # l=3, m>0 even
            "D": ((-3, -3), {-3}),                # l=3, m<0 even
            "E": ((3, 2), {2, 1, -1}),            # l=2, m>0 odd
            "F": ((3, -2), {-2, 1, -1}),          # l=2, m<0 odd
            "G": ((3, 2, 2), {2, 3, -3}),         # l=2, m>0 even
            "H": ((3, -2, -2), {-2, 3, -3}),      # l=2, m<0 even
            "I": ((3, 2, 1), {1}),                # l=1, m>0 odd
            "J": ((3, 2, -1), {-1}),              # l=1, m<0 odd
            "K": ((3, 2, 1, 1), {1, 2, -2}),      # l=1, m>0 even
            "L": ((3, 2, -1, -1), {-1, 2, -2}),   # l=1, m<0 even
        }
        for name, (prefix, expected) in cases.items():
            assert set(allowed_moves(3, prefix)) == expected, name

    def test_interior_even_run_also_legal(self):
        """An even x2 run deeper in a block (reached from position 2) admits
        x1 moves; this state is outside the printed case key (l, parity) but
        required for blocks such as x2 x1^2 x2^2 x1."""
        assert set(allowed_moves(2, (2, 1, 1, 2, 2))) == {2, 1, -1}


class TestRandomBlock:
    @pytest.mark.parametrize(
        "k,s,message",
        [
            (0, 0.5, "block index must be >= 1, got 0"),
            (2, 0.0, r"stopping probability 0.0 not in \(0, 1\]"),
            (2, 1.5, r"stopping probability 1.5 not in \(0, 1\]"),
            # True would pass as the block index 1, and as s = 1.0
            (True, 0.5, "block index True is not an integer"),
            (2.0, 0.5, "block index 2.0 is not an integer"),
            (2, True, "stopping probability True is not a number"),
            (2, "0.5", "stopping probability '0.5' is not a number"),
        ],
    )
    def test_arguments_validated(self, k, s, message):
        with pytest.raises(ValueError, match=message):
            random_block(k, s, random.Random(1), 3)

    def test_every_letter_involves_distinguished_strand(self):
        rng = random.Random(7)
        for k in (2, 3, 4):
            for _ in range(60):
                block = random_block(k, 0.3, rng, k + 1)
                labels = classify(word_to_crossings(block), k + 1)
                assert set(labels) <= {"big"}

    def test_first_letter_is_outermost_generator(self):
        rng = random.Random(8)
        for _ in range(60):
            block = random_block(3, 0.4, rng, 4)
            if block.letters:
                assert abs(block.letters[0]) == 3

    def test_blocks_freely_reduced(self):
        rng = random.Random(9)
        for _ in range(60):
            assert random_block(3, 0.3, rng, 4).is_reduced()

    def test_same_samples_as_replaying_allowed_moves(self):
        # reference walk: recompute the moves from the whole prefix each time
        def replayed(k, s, rng):
            letters = []
            while rng.random() >= s:
                moves = allowed_moves(k, tuple(letters))
                letters.append(moves[rng.randrange(len(moves))])
            return tuple(letters)

        for seed in range(40):
            for k, s in ((1, 0.3), (2, 0.1), (3, 0.05), (6, 0.02)):
                fast, ref = random.Random(seed), random.Random(seed)
                assert random_block(k, s, fast, k + 1).letters == replayed(k, s, ref)
                assert fast.getstate() == ref.getstate()


class TestRandomBraid:
    def test_deterministic(self):
        p = RandomParams(4, (0.4, 0.4, 0.4), seed=12)
        assert random_braid(p) == random_braid(p)

    def test_trivial_when_always_stopping(self):
        nf = random_braid(RandomParams(4, (1.0, 1.0, 1.0), seed=1))
        assert nf_to_word(nf).letters == ()

    @pytest.mark.parametrize("strands", [3, 4, 5, 8, 64])
    def test_fixed_points_of_gathering(self, strands):
        # a normal form needs no gathering step on any strand: each strand's
        # letters before its first crossing are copied, and every later
        # small letter meets an empty big run
        stop = (0.4,) * (strands - 1)
        for seed in range(80):
            nf = random_braid(RandomParams(strands, stop, seed))
            w = nf_to_word(nf)
            assert is_normal_form(w)
            assert normal_form(w) == nf
            assert normal_form(w, max_steps=0) == nf

    def test_b3_samples_pass_parity(self):
        for seed in range(120):
            nf = random_braid(RandomParams(3, (0.4, 0.4), seed))
            assert check_b3_parity(nf)

    def test_degenerate_strand_counts(self):
        assert nf_to_word(random_braid(RandomParams(1, (), seed=0))).letters == ()
        nf = random_braid(RandomParams(2, (0.5,), seed=4))
        assert nf.blocks == ()
