"""Normal forms in the Artin group <a, b | abab = baba>."""

import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidforms import (
    ArtinWord,
    artin,
    embed_b3,
    equal_a,
    gather_steps_a,
    normalize_a,
    parse_artin,
    reflection_sequence,
)
from braidforms.artin import (
    _RULES,
    A_BAR,
    B_BAR,
    IDENT,
    ArtinNormalForm,
    compose,
    invert,
    word_image,
)
from braidforms.errors import DEFAULT_STEP_BUDGET, StepBudgetExceeded
from braidforms.oracle import burau
from braidforms.words import concat, inverse, reduce_letters


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


def keys(w, max_steps=DEFAULT_STEP_BUDGET):
    """The keys ``gather_steps_a`` yields, one per step."""
    return list(gather_steps_a(w, max_steps, [], []))


def reference_steps(w):
    """A reference for ``gather_steps_a``: the same steps as plain stack moves
    on the whole word.  Letters move from ``pending`` onto ``small`` or
    ``big``; a bubble pops z1 z2 off ``big``, pushes the entry's b-letter
    back and leaves each tail on ``pending``, and the tails go back onto
    ``big`` only when the bubble ends.  Yields the word before each step,
    ``small + big + [t] + reversed(pending)``, and the step's key."""
    small: list = []
    big: list = []
    pending = list(reversed(reduce_letters(w.letters)))
    odd = False
    while pending:
        t = pending.pop()
        if odd or abs(t) == 2:
            if big and big[-1] == -t:
                big.pop()
            else:
                big.append(t)
            odd ^= abs(t) == 2
            continue
        mark = len(pending)
        while big:
            yield ArtinWord(tuple(small + big + [t] + pending[::-1])), (big[-2], big[-1], t)
            z2 = big.pop()
            z1 = big.pop()
            b, t, tail = _RULES[z1, z2, t]
            if b:
                if big and big[-1] == -b:
                    big.pop()
                else:
                    big.append(b)
            pending.extend(tail)
        if small and small[-1] == -t:
            small.pop()
        else:
            small.append(t)
        big.extend(reduce_letters(reversed(pending[mark:])))
        del pending[mark:]


def group_walk(key):
    """A reference for an entry of ``artin._GROUPS``: the steps of a bubble
    in state ``key[:2]`` (carried b-letter, bubbling letter) through the run
    letters ``key[2:]`` below it, as ``reference_steps``'s stack moves, up
    to the first step whose b-letter would meet the letter below them.
    Returns the steps' keys, the letters used, the new state and the tails,
    freely reduced."""
    b, t, *run = key
    size = len(run)
    if b:
        run.append(b)
    steps, pending = [], []
    while len(run) >= 2:
        nb, nt, tail = _RULES[run[-2], run[-1], t]
        if nb and len(run) == 2:
            break
        steps.append((run[-2], run[-1], t))
        del run[-2:]
        b, t = 0, nt
        if nb and run[-1] == -nb:
            run.pop()
        elif nb:
            run.append(nb)
            b = nb
        pending.extend(tail)
    return tuple(steps), size - len(run) + (b != 0), b, t, reduce_letters(pending)


def step_words(w):
    """The word before each gathering step, from the reference."""
    return [word for word, _ in reference_steps(w)]


def reduced_words(max_len):
    """Every freely reduced word of at most ``max_len`` letters, shortest
    first, each length in lexicographic order of the letters 1, -1, 2, -2."""
    words, level = [ArtinWord(())], [()]
    for _ in range(max_len):
        level = [w + (t,) for w in level for t in (1, -1, 2, -2) if not w or w[-1] != -t]
        words += map(ArtinWord, level)
    return words


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

    @pytest.mark.parametrize("letters", [(1.0, True, 2), (True,), (1, -2.0)])
    def test_letters_must_be_ints(self, letters):
        # abs(1.0) and abs(True) are 1, so only the type check stops them
        bad = next(t for t in letters if type(t) is not int)
        with pytest.raises(ValueError, match=f"bad letter {bad!r}"):
            ArtinWord(letters)


class TestArtinNormalForm:
    @pytest.mark.parametrize(
        "m, w1, message",
        [
            (1.0, ArtinWord(()), "power of a 1.0 is not an integer"),
            (True, ArtinWord(()), "power of a True is not an integer"),
            (0, (2,), r"residual word \(2,\) is not an ArtinWord"),
            (0, ArtinWord((1,)), "letter 1 of w1 has an even number of b-letters before it"),
            (0, ArtinWord((2, 2, -1)), "letter -1 of w1 has an even number of b-letters"),
            (0, ArtinWord((2, -2)), "letter -2 of w1 cancels the one before it"),
            (0, ArtinWord((2, 1, -1)), "letter -1 of w1 cancels the one before it"),
        ],
        ids=["float-m", "bool-m", "tuple", "a-first", "even-b", "cancel-b", "cancel-a"],
    )
    def test_fields_validated(self, m, w1, message):
        with pytest.raises(ValueError, match=message):
            ArtinNormalForm(m, w1)

    def test_accepts_exactly_the_normal_forms(self):
        """For m in {-1, 0, 1} and every word w1 of at most 6 letters,
        reduced or not, the constructor accepts (m, w1) iff it is the normal
        form of a^m w1."""
        words, level = [()], [()]
        for _ in range(6):
            level = [w + (t,) for w in level for t in (1, -1, 2, -2)]
            words += level
        accepted = 0
        for m in (-1, 0, 1):
            for letters in words:
                w1 = ArtinWord(letters)
                form = normalize_a(ArtinWord((1 if m > 0 else -1,) * abs(m) + letters))
                try:
                    ArtinNormalForm(m, w1)
                except ValueError:
                    assert form != ArtinNormalForm._trusted(m, w1)
                else:
                    assert form == ArtinNormalForm._trusted(m, w1)
                    accepted += 1
        assert (3 * len(words), accepted) == (16383, 699)

    def test_normalize_builds_valid_forms(self):
        rng = random.Random(31)
        for _ in range(60):
            nf = normalize_a(rand_artin(rng, max_len=40))
            assert ArtinNormalForm(nf.m, nf.w1) == nf


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
        """The reference's word before each step is the input in the group,
        and the kernel takes the reference's steps, key by key."""
        rng = random.Random(18)
        for _ in range(25):
            w = rand_artin(rng)
            reference = burau(embed_b3(w))
            image = word_image(w)
            steps = list(reference_steps(w))
            assert keys(w) == [key for _, key in steps]
            for step, _ in steps:
                assert burau(embed_b3(step)) == reference
                assert word_image(step) == image

    def test_residual_block_has_no_gatherable_letters(self):
        rng = random.Random(19)
        for _ in range(60):
            nf = normalize_a(rand_artin(rng))
            assert A_BAR not in reflection_sequence(nf.w1)
            assert reduce_letters(nf.w1.letters) == nf.w1.letters

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
        """The number of yields is the least budget that does not trip."""
        w = parse_artin("bba")
        assert len(keys(w)) > 0
        with pytest.raises(StepBudgetExceeded):
            normalize_a(w, max_steps=0)
        rng = random.Random(29)
        pool = [rand_artin(rng, max_len=40) for _ in range(150)]
        assert sum(1 for w in pool if keys(w)) > 100
        for w in pool + long_words(25, count=3):
            steps = len(keys(w))
            assert len(keys(w, steps)) == steps
            assert normalize_a(w, max_steps=steps) == normalize_a(w)
            if steps:
                with pytest.raises(StepBudgetExceeded):
                    normalize_a(w, max_steps=steps - 1)

    def test_budget_trip_reaches_the_word_after_max_steps_steps(self):
        """With ``max_steps`` = s, a trip stops before step s + 1: ``reached``
        is the reduced input at s = 0, and otherwise the word after step s."""
        with pytest.raises(StepBudgetExceeded) as exc:
            normalize_a(parse_artin("bbaAabba"), max_steps=0)
        assert exc.value.reached == parse_artin("bbabba")
        for w in (parse_artin("bbabba"), *long_words(26, count=2)):
            words = step_words(w)
            for s in (*range(min(len(words), 25)), len(words) - 1):
                with pytest.raises(StepBudgetExceeded) as exc:
                    normalize_a(w, max_steps=s)
                assert exc.value.reached == words[s]
                assert str(exc.value) == (
                    f"step budget of {s} exceeded while normalizing Artin word"
                )

    @pytest.mark.parametrize(
        "text, steps, digest",
        [
            ("AAbbAbaBAAbaBBBa", 25,
             "1eb1ee59adea93d206332293c2c665a29fc3aa144a312054bfbb965828d7c4bd"),
            ("bbabba", 5, "a61d49fa9e8009b564335e009b2ae7304f1e7f316d8252b90080f9a7b5de41ae"),
            ("aabAB" * 4, 63,
             "76e9239e30f8a3a01c07bd6ce0d047306aa455b8056077f98bd767b7f71681c7"),
        ],
        ids=["AAbbAbaBAAbaBBBa", "bbabba", "aabAB^4"],
    )
    def test_every_budget_pinned(self, text, steps, digest):
        # a trip can fall anywhere inside a bubble, whose tails have not yet
        # cancelled: ``reached`` and the message at every budget up to the
        # step count, then the form, pinned by sha256
        w = parse_artin(text)
        lines = []
        for budget in range(steps + 1):
            try:
                nf = normalize_a(w, max_steps=budget)
            except StepBudgetExceeded as exc:
                lines.append(f"{budget}:{exc.reached} {exc}")
            else:
                lines.append(f"{budget}:{nf.m} {nf.w1}")
        assert len(keys(w)) == steps
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_negative_budget_trips_at_the_first_step(self):
        for text, reached in (("bba", "bba"), ("bbaAabba", "bbabba")):
            with pytest.raises(StepBudgetExceeded) as exc:
                normalize_a(parse_artin(text), max_steps=-1)
            assert str(exc.value) == "step budget of -1 exceeded while normalizing Artin word"
            assert exc.value.reached == parse_artin(reached)
        for text in ("ab", "abab"):  # no step is needed, so no budget is spent
            assert normalize_a(parse_artin(text), max_steps=-1) == normalize_a(parse_artin(text))

    def test_no_tail_cancels_whole(self):
        """A tail of one step, landing on the tails laid before it in its
        bubble, cancels only at its first letters.  A search over every
        bubble through any freely reduced ``big`` shows that no such tail
        cancels whole; ``gather_steps_a`` lands a group's tails at once,
        and bounds that cancellation since no search covers groups.  A
        state is the letter bubbling, the b-letter carried, the last letter
        of ``big`` read and the top ``depth`` letters of ``left``, below a
        ``None`` once cut; no cancellation reaches the cut."""
        depth = 8
        letters = (1, -1, 2, -2)
        start = [(t, 0, 0, ()) for t in (1, -1)]
        seen, todo, most = set(start), list(start), 0
        while todo:
            t, b, last, left = todo.pop()
            # the next letters of a freely reduced big: z1, under a carried
            # b-letter it did not cancel, or z1 z2
            if b:
                reads = [(z1, b) for z1 in letters if z1 not in (-last, -b)]
            else:
                reads = [(z1, z2) for z2 in letters if z2 != -last for z1 in letters if z1 != -z2]
            for z1, z2 in reads:
                if (z1, z2, t) not in _RULES:
                    continue
                nb, nt, tail = _RULES[z1, z2, t]
                j = 0
                while j < len(tail) and j < len(left) and left[-1 - j] == -tail[j]:
                    j += 1
                assert j < len(tail), (z1, z2, t, left)
                assert j == len(left) or left[-1 - j] is not None, (z1, z2, t, left)
                most = max(most, j)
                rest = left[: len(left) - j] + tail[j:]
                if len(rest) > depth:
                    rest = (None, *rest[-depth:])
                # the entry's b-letter is carried, or cancels the next letter of big
                nexts = [(nt, nb, z1, rest)] if nb else [(nt, 0, z1, rest)]
                if nb and nb != z1:
                    nexts.append((nt, 0, -nb, rest))
                for state in nexts:
                    if state not in seen:
                        seen.add(state)
                        todo.append(state)
        assert most == 3

    def test_group_memo_audited(self, monkeypatch):
        """From an empty memo, seeded words leave in ``_GROUPS`` only the
        steps of ``group_walk``, at least one per entry, under keys of the
        6 states and windows of at most 6 letters, within the bound of
        32,766 keys; and the kernel reads it, so one wrong entry shows."""
        monkeypatch.setattr(artin, "_GROUPS", {})
        words = [*long_words(25), *long_words(26, count=2), parse_artin("aabAB" * 20)]

        def lines():
            return [(keys(w), normalize_a(w)) for w in words]

        before = lines()
        groups = artin._GROUPS
        assert groups
        for key, group in groups.items():
            b, t, *window = key
            assert b in (0, 2, -2) and t in (1, -1) and 1 <= len(window) <= 6
            assert group == group_walk(key)
            assert group[0]
        assert len(groups) <= 6 * sum(4**n for n in range(7)) == 32766
        key, (steps, used, b, t, tail) = next(iter(groups.items()))
        groups[key] = (steps, used, b, -t, tail)
        assert lines() != before

    def test_worst_cases_by_exhaustive_search(self):
        """Every freely reduced word of n <= 9 letters takes at most
        (n-2)(3n-7)/2 steps, and for n >= 4 only bb a^(n-2) and BB A^(n-2)
        take that many, tripping a budget one short.  For n >= 3 its form
        has at most 7n - 14 letters |m| + |w1|, and only (bb|BB)(a|A)^(n-2)
        reach that.  The laws were found by this search, not proved."""
        found: dict = {}
        for w in reduced_words(9):
            small, big = [], []
            steps = sum(1 for _ in gather_steps_a(w, DEFAULT_STEP_BUDGET, small, big))
            found.setdefault(len(w), []).append((steps, abs(sum(small)) + len(big), str(w)))
        assert sorted(found) == list(range(10))
        for n, rows in found.items():
            most = max(steps for steps, _, _ in rows)
            longest = max(letters for _, letters, _ in rows)
            if n >= 2:
                assert most == (n - 2) * (3 * n - 7) // 2, n
            if n >= 4:
                costliest = sorted(text for steps, _, text in rows if steps == most)
                assert costliest == ["BB" + "A" * (n - 2), "bb" + "a" * (n - 2)]
                for text in costliest:
                    with pytest.raises(StepBudgetExceeded):
                        normalize_a(parse_artin(text), max_steps=most - 1)
            if n >= 3:
                assert longest == 7 * n - 14, n
                assert sorted(text for _, letters, text in rows if letters == longest) == sorted(
                    b + y * (n - 2) for b in ("bb", "BB") for y in "aA"
                )

    def test_short_words_meet_the_twelve_tabled_configurations(self):
        """On every reduced word of at most 8 letters, the steps meet exactly
        the twelve configurations z1 z2 y of the module docstring: z2 = b^+-1,
        y = a^+-1 and z1 in {a, A, z2}.  The forms and step counts are pinned
        by the sha256 of one line per word.  The kernel yields the keys of
        the reference's steps."""
        tabled = {(z1, z2, y) for z2 in (2, -2) for y in (1, -1) for z1 in (1, -1, z2)}
        met = set()
        lines = []
        for w in reduced_words(8):
            steps = keys(w)
            assert steps == [key for _, key in reference_steps(w)]
            met.update(steps)
            nf = normalize_a(w)
            lines.append(f"{w} {nf.m} {nf.w1} {len(steps)}")
        assert met == tabled
        assert len(lines) == 13121
        assert sum(int(line.rsplit(" ", 1)[1]) for line in lines) == 46282
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e0fe5c10d4a91ed88f26febd11b195b487726301fc07e22211c7300cd723e4b1"

    def test_tabled_tails_are_residual(self):
        """Every a-letter an entry of ``_RULES`` leaves behind is residual, so
        ``gather_steps_a`` lays the tails back onto ``big`` untested.  Below
        z1 z2, ``big``'s b-parity is odd when z1 is an a-letter and even when
        z1 = z2; counting on through the entry, each a-letter of the tail has
        an odd number of b-letters before it, and the letter that bubbles on
        an even number.  The quotient group's reflections agree."""
        assert len(_RULES) == 12
        for (z1, z2, y), (b, t, tail) in _RULES.items():
            odd = abs(z1) == 1
            below = (2,) if odd else ()
            lead = (b,) if b else ()
            rhs = (*lead, t, *reversed(tail))
            reflections = reflection_sequence(ArtinWord(below + rhs))[len(below) :]
            for n, (x, reflection) in enumerate(zip(rhs, reflections)):
                if abs(x) == 2:
                    odd = not odd
                    continue
                bubbles_on = n == len(lead)
                assert odd != bubbles_on, (z1, z2, y, n)
                assert (reflection == A_BAR) == bubbles_on, (z1, z2, y, n)

    def test_tabled_entries_are_relations(self):
        """Each entry (z1, z2, y) -> (b, t, tail) of ``_RULES``, read back as
        the words z1 z2 y and [b] t reversed(tail), is a relation of the
        group: both words have the same Burau image under ``embed_b3`` and
        the same image in the quotient group."""
        assert len(_RULES) == 12
        for lhs, (b, t, tail) in _RULES.items():
            left = ArtinWord(lhs)
            right = ArtinWord(((b,) if b else ()) + (t, *reversed(tail)))
            assert burau(embed_b3(left)) == burau(embed_b3(right)), (str(left), str(right))
            assert word_image(left) == word_image(right), (str(left), str(right))

    @pytest.mark.parametrize(
        "seed, steps, digest",
        [
            (25, [3523, 5089, 5241, 4589, 4292],
             "ea24f3337ac723b976bf41d74f33aa8a997a7e33132bf59678598a8eeba09987"),
            (26, [8427, 934, 1379, 4111, 4267],
             "da44befb6e16e30164125d2f609e444f076fc42aaa98a261e329147c26345b3a"),
        ],
        ids=["seed25", "seed26"],
    )
    def test_counted_work_is_pinned(self, seed, steps, digest):
        """``max_steps`` counts gathering transformations, so a kernel that
        changes what one step is must fail here: the step count of each long
        word, and the sha256 of the lines "m w1" of their normal forms."""
        words = long_words(seed)
        assert [len(keys(w)) for w in words] == steps
        forms = "\n".join(f"{nf.m} {nf.w1}" for nf in map(normalize_a, words))
        assert hashlib.sha256(forms.encode()).hexdigest() == digest

    def test_budget_trip_reaches_an_equal_word(self):
        for w in long_words(26, count=2):
            for budget in (0, 3, 17):
                with pytest.raises(StepBudgetExceeded) as exc:
                    normalize_a(w, max_steps=budget)
                reached = exc.value.reached
                assert isinstance(reached, ArtinWord)
                assert word_image(reached) == word_image(w)
                assert burau(embed_b3(reached)) == burau(embed_b3(w))


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
        u, v = parse_artin("baba"), parse_artin("abab")
        with pytest.raises(StepBudgetExceeded):
            equal_a(u, v, max_steps=0)
        assert equal_a(u, v, max_steps=10)

    @staticmethod
    def counted(monkeypatch):
        """Wrap the module-global ``normalize_a``, which ``equal_a`` calls,
        to count its calls."""
        calls = []

        def wrapper(w, max_steps=DEFAULT_STEP_BUDGET):
            calls.append(w)
            return normalize(w, max_steps)

        normalize = artin.normalize_a
        monkeypatch.setattr(artin, "normalize_a", wrapper)
        return calls

    def test_pairs_sharing_a_long_suffix(self, monkeypatch):
        """Seeded pairs X S and Y S, S a reduced word of 40-80 letters and X,
        Y short, Y equal to X by relation moves or unrelated: each verdict
        is Burau's of the B3 embedding, which is complete here and shares no
        code with normalize_a, and each comes from gathering X Y^-1 alone."""
        rng = random.Random(30)
        calls = self.counted(monkeypatch)
        verdicts = []
        for n in range(40):
            tail = rand_artin(rng, max_len=81, min_len=40).letters
            x = rand_artin(rng, max_len=8)
            y = artin_mutate(x, rng, rng.randrange(1, 4)) if n % 2 else rand_artin(rng, max_len=8)
            u, v = ArtinWord(x.letters + tail), ArtinWord(y.letters + tail)
            del calls[:]
            verdict = equal_a(u, v)
            assert verdict == (burau(embed_b3(u)) == burau(embed_b3(v))), (str(u), str(v))
            assert len(calls) == 1
            verdicts.append(verdict)
        assert all(verdicts[1::2])
        assert verdicts[::2].count(False) > 15

    @pytest.mark.parametrize(
        "u, v, max_steps, calls, verdict",
        [
            ("abab" + "a" * 40, "baba" + "a" * 40, DEFAULT_STEP_BUDGET, 1, True),
            ("ab", "ba", DEFAULT_STEP_BUDGET, 2, False),
            ("abab", "baba", DEFAULT_STEP_BUDGET, 2, True),
            # d = bb a^6 needs steps, while u = b^42 and v = A^6 b^40 need none
            ("bb" + "b" * 40, "AAAAAA" + "b" * 40, 0, 3, False),
        ],
        ids=["gate-passes", "gate-fails", "short-suffix", "d-trips"],
    )
    def test_normalize_calls(self, monkeypatch, u, v, max_steps, calls, verdict):
        """One normalize_a call when the gate passes and d finishes, two
        when it fails, three when d trips."""
        counted = self.counted(monkeypatch)
        assert equal_a(parse_artin(u), parse_artin(v), max_steps) is verdict
        assert len(counted) == calls

    def test_answers_where_the_forms_trip(self):
        """With S = bb a^40, the forms of X S trip a budget that the short
        word d = X Y^-1 does not, so equal_a answers; it still raises where
        the gate fails."""
        tail = "bb" + "a" * 40
        u, v, w = (parse_artin(x + tail) for x in ("abab", "baba", "aabab"))
        budget = len(keys(parse_artin("ababABAB")))
        assert len(keys(parse_artin("aababABAB"))) <= budget < len(keys(u))
        for word in (u, v, w):
            with pytest.raises(StepBudgetExceeded):
                normalize_a(word, max_steps=budget)
        assert equal_a(u, v, max_steps=budget)
        assert not equal_a(w, v, max_steps=budget)
        with pytest.raises(StepBudgetExceeded):
            equal_a(parse_artin(tail + "b"), parse_artin(tail + "B"), max_steps=budget)

    def test_unreduced_words(self):
        """Each word is reduced before its suffix is read, so cancelling
        pairs anywhere do not hide the shared suffix."""
        tail = "bb" + "a" * 40
        u = parse_artin("abab" + tail[:5] + "bB" + tail[5:] + "aA")
        v = parse_artin("Aababa" + tail)
        assert equal_a(u, v, max_steps=50)

    def test_same_partition_as_burau(self):
        """On every reduced word of at most 6 letters, normal forms split the
        words into the classes that Burau of the B3 embedding does.  Burau is
        faithful on B3 and the embedding is injective, so this is a complete
        check that shares no code with normalize_a."""
        words = reduced_words(6)
        classes: dict = {}
        for w in words:
            classes.setdefault(burau(embed_b3(w)), []).append(w)
        firsts = [cls[0] for cls in classes.values()]
        assert (len(words), len(firsts)) == (1457, 1129)
        forms = [{normalize_a(w) for w in cls} for cls in classes.values()]
        assert all(len(f) == 1 for f in forms)
        assert len(set.union(*forms)) == len(firsts)
        # equal_a itself: each word against its class and two other classes
        rng = random.Random(27)
        for i, cls in enumerate(classes.values()):
            for w in cls:
                j = (i + 1 + rng.randrange(len(firsts) - 1)) % len(firsts)
                assert equal_a(w, firsts[i])
                assert not equal_a(w, firsts[i - 1])
                assert not equal_a(w, firsts[j])
