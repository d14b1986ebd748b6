"""The gathering process: normal forms, per-step audits, block structure."""

import hashlib
import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforms import (
    BraidWord,
    NormalForm,
    StepBudgetExceeded,
    aij,
    applicable_sites,
    check_b3_parity,
    classify,
    crossings_to_word,
    free_reduce,
    gather_strand,
    is_normal_form,
    is_pure,
    nf_to_word,
    normal_form,
    permutation,
    word,
    word_to_crossings,
)
from braidforms import gathering
from braidforms.crossings import CrossingSequence
from braidforms.oracle import burau, check_rule_instance, mutate, random_word
from braidforms.words import reduce_letters


def is_big(p, t):
    """Whether letter t crosses the strand at position p."""
    return p in (abs(t), abs(t) + 1)


def move(p, t):
    """The position of a strand at p after the big letter t."""
    return abs(t) if p == abs(t) + 1 else abs(t) + 1


def pattern_runs(m):
    """Every run of m consecutive pattern steps of a bubble, up to relabelling.

    The big run ends in 2m letters, read from position 2m + 1 of the gathered
    strand, and the small letter t bubbles through all of them by patterns
    alone, with no commutation between.  Yields each run's tails in the
    order ``gather_strand`` collects them on ``left``.
    """
    gens = [i * s for i in range(1, 4 * m + 2) for s in (1, -1)]

    def runs_from(p, n, last):
        if n == 0:
            yield (), p
            return
        for z in gens:
            if is_big(p, z) and z != -last:
                for rest, q in runs_from(move(p, z), n - 1, z):
                    yield (z, *rest), q

    for zs, r in runs_from(2 * m + 1, 2 * m, 0):
        for t in gens:
            if is_big(r, t):
                continue
            big, tails = list(zs), []
            while big and abs(abs(big[-1]) - abs(t)) == 1:
                z2 = big.pop()
                _, rhs = gathering.pattern_rhs(big.pop(), z2, t)
                t = rhs[0]
                tails.append(rhs[:0:-1])
            if not big:
                yield tails


def kernel_lines(words):
    """One line per gathered strand: the word, k, prefix, block, the step
    count S, and ``reached`` (or "-" when nothing trips) at budgets 0-12,
    S - 1 and S.  S is found by bisection on ``max_steps``."""

    def trips(w, k, budget):
        try:
            gather_strand(w, k, max_steps=budget)
        except StepBudgetExceeded as exc:
            return exc.reached
        return None

    for w in words:
        cur = free_reduce(w)
        k = max(map(abs, cur.letters), default=0) + 1
        while k > 2:
            prefix, block = gather_strand(cur, k)
            # the outputs skip the range check: rebuilt with it, they are equal
            for out in (prefix, block):
                assert type(out.letters) is tuple
                assert out == BraidWord(out.strands, out.letters)
            lo, hi = -1, 1
            while trips(cur, k, hi) is not None:
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if trips(cur, k, mid) is not None else (lo, mid)
            reached = []
            for budget in sorted({*range(13), max(hi - 1, 0), hi}):
                r = trips(cur, k, budget)
                text = "-" if r is None else " ".join(map(str, r.letters))
                reached.append(f"{budget}:{text}")
            yield f"{cur} {k} | {prefix} | {block} | {hi} | {' / '.join(reached)}"
            cur = prefix
            k = max(map(abs, cur.letters), default=0) + 1


def kernel_words():
    """Seeded B3-B8 and B64 words and the blow-up family (3 3 2 2 1 1 2 2)^p,
    p = 1-5."""
    rng = random.Random(18)
    words = [
        random_word(n, rng.randrange(1, 25), rng)
        for n in (3, 4, 5, 6, 7, 8)
        for _ in range(40)
    ]
    words += [random_word(64, rng.randrange(20, 120), rng) for _ in range(6)]
    words += [BraidWord(4, (3, 3, 2, 2, 1, 1, 2, 2) * p) for p in range(1, 6)]
    return words


def budget_lines(w, k):
    """One line per budget 0 .. S of gathering strand k of ``w``: the
    ``reached`` word of each trip, then the prefix and block at S."""
    budget = 0
    while True:
        try:
            prefix, block = gather_strand(w, k, max_steps=budget)
        except StepBudgetExceeded as exc:
            yield f"{budget}:{' '.join(map(str, exc.reached.letters))}"
            budget += 1
        else:
            yield f"{budget}:{prefix} | {block}"
            return


def step_words(w, k, limit=300):
    """The word after each gathering step of strand k, then the gathered word.

    Step s is read from the ``reached`` word of the budget trip of
    ``gather_strand(w, k, max_steps=s)``.
    """
    for s in range(limit):
        try:
            prefix, block = gather_strand(w, k, max_steps=s)
        except StepBudgetExceeded as exc:
            yield exc.reached
        else:
            yield BraidWord(w.strands, prefix.letters + block.letters)
            return
    pytest.fail(f"gathering did not finish in {limit} steps")


def step_rules(w):
    """The crossing rule of each gathering step of ``w``, strand by strand.

    Word s is unreduced: reducing it first can cancel across the site.  Step
    s + 1 must be exactly one COM or I1-I4 site of the gathered strand k,
    up to free cancellation (D), and an I-rule must be the one that
    ``pattern_rhs`` names at the site's letters.
    """
    cur = free_reduce(w)
    for k in range(w.strands, 2, -1):
        words = list(step_words(cur, k))
        for before, after in zip(words, words[1:]):
            items = word_to_crossings(before).items
            target = free_reduce(after)
            found = set()
            for p, rule in applicable_sites(items):
                if rule.template == "D" or items[p].high != k:
                    continue
                moved = items[:p] + rule.replacement + items[p + rule.length :]
                seq = CrossingSequence(w.strands, moved)
                if free_reduce(crossings_to_word(seq)) != target:
                    continue
                found.add(rule.template)
                if rule.template != "COM":
                    name = gathering.pattern_rhs(*before.letters[p : p + 3])[0]
                    assert name == rule.template, (before, p)
            assert len(found) == 1, (before, after, k, found)
            yield found.pop()
        cur = gather_strand(cur, k)[0]


class TestWorkedExample:
    def test_normal_form_exact(self):
        nf = normal_form(word(4, [3, -2, -2, 1]))
        assert nf.m == 1
        assert nf.block(3).letters == ()
        assert nf.block(4).letters == (3, 2, -1, -1, -2)
        assert nf_to_word(nf).letters == (1, 3, 2, -1, -1, -2)

    def test_three_strand_example(self):
        nf = normal_form(word(3, [2, 1, 2]))
        assert nf_to_word(nf).letters == (1, 2, 1)


class TestGatherStep:
    def test_commutation_case(self):
        steps = [v.letters for v in step_words(word(4, [3, 1]), 4)]
        assert steps == [(3, 1), (1, 3)]

    @pytest.mark.parametrize("seed", range(8))
    def test_each_step_preserves_element(self, seed):
        rng = random.Random(seed)
        w = random_word(4, rng.randrange(2, 14), rng)
        for nxt in step_words(w, 4):
            assert check_rule_instance(w, nxt)
            w = nxt

    def test_each_step_is_one_crossing_rule_on_short_b4_words(self):
        gens = [g * s for g in range(1, 4) for s in (1, -1)]
        counts = Counter()
        for n in range(6):
            for letters in itertools.product(gens, repeat=n):
                w = word(4, letters)
                if w.is_reduced():
                    counts.update(step_rules(w))
        assert counts == {"COM": 4036, "I1": 1128, "I2": 660, "I3": 1072, "I4": 700}

    def test_each_step_is_one_crossing_rule_on_b5_b6_words(self):
        rng = random.Random(12)
        counts = Counter()
        for _ in range(300):
            w = random_word(rng.choice((5, 6)), rng.randrange(2, 16), rng)
            counts.update(step_rules(w))
        assert counts == {"COM": 2384, "I1": 335, "I2": 210, "I3": 270, "I4": 177}


class TestGatherStrand:
    def test_prefix_small_block_big(self):
        prefix, block = gather_strand(free_reduce(word(4, [3, -2, -2, 1])), 4)
        assert set(classify(word_to_crossings(prefix), 4)) <= {"small"}
        labels = classify(
            word_to_crossings(BraidWord(4, prefix.letters + block.letters)), 4
        )
        assert set(labels[len(prefix.letters):]) <= {"big"}

    def test_budget_guard(self):
        w = BraidWord(4, (3, 3, 2, 2, 1, 1, 2, 2) * 4)
        with pytest.raises(StepBudgetExceeded) as exc:
            gather_strand(w, 4, max_steps=10)
        assert check_rule_instance(w, exc.value.reached)

    def test_stuck_letter_stays_small_through_each_pattern(self):
        # gather_strand bubbles a small letter through the big run without
        # re-testing it, and puts the letters each pattern leaves behind
        # straight back on the big run without testing them either: both
        # hold for every stuck configuration in B9
        gens = [i * s for i in range(1, 9) for s in (1, -1)]
        stuck = []
        for p in range(1, 10):
            for z1 in (z for z in gens if is_big(p, z)):
                q = move(p, z1)
                for z2 in (z for z in gens if z != -z1 and is_big(q, z)):
                    r = move(q, z2)
                    for t in gens:
                        if is_big(r, t) or abs(abs(z2) - abs(t)) != 1:
                            continue
                        stuck.append((z1, z2, t))
                        _, rhs = gathering.pattern_rhs(z1, z2, t)
                        assert check_rule_instance(word(9, (z1, z2, t)), word(9, rhs))
                        assert not is_big(p, rhs[0])
                        s = p
                        for x in rhs[1:]:
                            assert is_big(s, x)
                            s = move(s, x)
                        assert s == r
        assert len(stuck) == 168
        # and pattern_rhs fires on those triples only, of all 4,096
        fires = {
            triple
            for triple in itertools.product(gens, repeat=3)
            if gathering.pattern_rhs(*triple) is not None
        }
        assert fires == set(stuck)

    def test_replacements_cancel_only_where_tails_meet(self):
        # every replacement is freely reduced, its second letter is adjacent
        # to its first, and its last shares the generator of the big letter
        # b it replaces: so a letter that commutes past the new bubbling
        # letter never cancels the tail collected before it, nor one that
        # commutes past the old bubbling letter the tail collected after it,
        # and a bubble's leftovers can cancel only where two tails meet
        gens = [i * s for i in range(1, 9) for s in (1, -1)]
        configurations = [
            (a, b, c)
            for a, b, c in itertools.product(gens, repeat=3)
            if abs(c) == 4 and gathering.pattern_rhs(a, b, c) is not None
        ]
        assert len(configurations) == 24
        for a, b, c in configurations:
            _, rhs = gathering.pattern_rhs(a, b, c)
            assert reduce_letters(rhs) == rhs
            assert abs(abs(rhs[1]) - abs(rhs[0])) == 1
            assert abs(rhs[-1]) == abs(b)
            for x in gens:
                if abs(abs(x) - abs(rhs[0])) != 1:
                    assert x != -rhs[1], (a, b, c, x)
                if abs(abs(x) - abs(c)) != 1:
                    assert x != -rhs[-1], (a, b, c, x)

    def test_junctions_cancel_one_pair_each(self):
        # over every run of up to four consecutive pattern steps, each
        # junction where a tail's first letter cancels the letter before it
        # cancels that one pair and no more; but a two-letter tail can lose
        # both letters to its neighbours, so tails further apart meet, and no
        # finite check bounds the depth: gather_strand keeps a general loop
        runs = {m: list(pattern_runs(m)) for m in (1, 2, 3, 4)}
        assert [len(runs[m]) for m in runs] == [24, 72, 216, 648]
        cancelling = Counter(a[-1] == -b[0] for a, b in runs[2])
        assert cancelling == {True: 48, False: 24}
        emptied = Counter(
            len(b) for a, b, c in runs[3] if a[-1] == -b[0] and b[-1] == -c[0]
        )
        assert emptied == {2: 36, 4: 48, 6: 16}
        for m in (2, 3, 4):
            for tails in runs[m]:
                left = [x for tail in tails for x in tail]
                cut = set()
                n = len(tails[0])
                for tail in tails[1:]:
                    if left[n - 1] == -tail[0]:
                        cut |= {n - 1, n}
                    n += len(tail)
                kept = tuple(x for pos, x in enumerate(left) if pos not in cut)
                assert reduce_letters(left) == kept, tails

    def test_bubble_cancelling_at_two_junctions(self):
        # the last letter bubbles through the big run by three patterns,
        # I4, I1 and I2, whose tails, as collected, are 1 2 2 -1 -1 -2, then
        # 2 -1, then 1 2: both junctions cancel, and the middle tail with them
        w = word(3, [2, 2, 1, -2, 1, -2])
        assert gather_strand(w, 3) == (word(3), word(3, [2, -1, -1, 2, 2, 1]))

    def test_kernel_pinned(self):
        """Prefix, block, step count and ``reached`` at budgets 0-12, S - 1
        and S of every strand gathered from seeded B3-B8 and B64 words and the
        blow-up family (3 3 2 2 1 1 2 2)^p, p = 1-5, pinned by sha256."""
        lines = list(kernel_lines(kernel_words()))
        assert len(lines) == 847
        assert sum(int(line.split(" | ")[3]) for line in lines) == 95670
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "13a918f31c1af1b0bb5f737654f6bcb3098e616997ff3f073fbc8964d0c4058c"

    def test_shared_memo_audited(self, monkeypatch):
        # from an empty memo, the pinned kernel words leave in it only
        # pattern_rhs's own split of each key, at most 24 keys per generator
        # of the bubbling letter (12 for each adjacent generator of the big
        # letter); and the kernel reads it, so one wrong entry shows
        monkeypatch.setattr(gathering, "_RULES", {})
        words = kernel_words()
        lines = list(kernel_lines(words))
        rules = gathering._RULES
        assert rules
        for (z1, z2, t), rule in rules.items():
            _, rhs = gathering.pattern_rhs(z1, z2, t)
            assert rule == (rhs[0], rhs[:0:-1])
        assert max(Counter(abs(t) for _, _, t in rules).values()) <= 24
        key, (t, tail) = next(iter(rules.items()))
        rules[key] = (-t, tail)
        assert any(a != b for a, b in zip(kernel_lines(words), lines))

    @pytest.mark.parametrize(
        "w, k, steps, digest",
        [
            (
                BraidWord(4, (3, 3, 2, 2, 1, 1, 2, 2) * 2),
                4,
                340,
                "b5e0f47993016093e366cedf8acccfb7921b1f933c58e34de3bce0b0a03c4244",
            ),
            (
                BraidWord(5, (4,) * 40 + (1,) * 20),
                5,
                800,
                "54cb16ddfab6603465a75267f63115da567d4da4b429615f97dcf8a97d048a83",
            ),
            (
                BraidWord(3, (2,) * 20 + (1,) * 20),
                3,
                561,
                "9f083f7f0769a9c81515e57670e78fa3ad99c333de75fdf0670f462184ac1f8d",
            ),
        ],
    )
    def test_every_budget_pinned(self, w, k, steps, digest):
        # a bubble is bounded only when the budget left is shorter than the
        # run, so a trip can fall anywhere inside a long bubble: ``reached``
        # at every budget up to the step count, pinned by sha256
        lines = list(budget_lines(w, k))
        assert len(lines) == steps + 1
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_negative_budget_trips_at_the_first_bubble(self):
        w = BraidWord(4, (3, 3, 2, 2, 1, 1, 2, 2) * 2)
        with pytest.raises(StepBudgetExceeded) as exc:
            gather_strand(w, 4, max_steps=-1)
        assert str(exc.value) == "step budget of -1 exceeded while gathering strand 4"
        assert exc.value.reached == w

    def test_letter_of_the_gathered_strand_rejected(self):
        # x3 would move strand 3 to position 4, past the block being gathered
        with pytest.raises(ValueError, match="strand 3 needs letters below x3, got x3"):
            gather_strand(word(4, [3, 2]), 3)
        with pytest.raises(ValueError, match="strand 4 needs letters below x4, got x5"):
            gather_strand(word(6, [1, -5, 2]), 4)

    def test_rules_memoized_and_steps_pinned(self, monkeypatch):
        # the memo is shared by every call: from an empty one, the first
        # gather asks pattern_rhs once per configuration and a second never
        w = free_reduce(word(4, (3, 3, 2, 2, 1, 1, 2, 2) * 4))
        calls = []
        real = gathering.pattern_rhs

        def counted(a, b, c):
            calls.append((a, b, c))
            return real(a, b, c)

        monkeypatch.setattr(gathering, "_RULES", {})
        monkeypatch.setattr(gathering, "pattern_rhs", counted)
        prefix, block = gather_strand(w, 4)
        assert len(calls) == len(set(calls)) == 21
        assert gather_strand(w, 4) == (prefix, block)
        assert len(calls) == 21
        assert (len(prefix.letters), len(block.letters)) == (24, 5356)
        with pytest.raises(StepBudgetExceeded) as exc:
            gather_strand(w, 4, max_steps=11152)
        assert check_rule_instance(w, exc.value.reached)
        assert gather_strand(w, 4, max_steps=11153) == (prefix, block)


class TestNormalForm:
    @pytest.mark.parametrize("strands", [3, 4, 5])
    def test_soundness(self, strands, word_pool):
        for w in word_pool[strands]:
            nw = nf_to_word(normal_form(w))
            assert permutation(nw) == permutation(w)
            assert burau(nw) == burau(w)

    @pytest.mark.parametrize("strands", [3, 4, 5])
    def test_idempotent_and_fixed_point(self, strands, word_pool):
        for w in word_pool[strands]:
            nf = normal_form(w)
            nw = nf_to_word(nf)
            assert is_normal_form(nw)
            assert normal_form(nw) == nf
            assert nf_to_word(normal_form(nw)) == nw

    @pytest.mark.parametrize("strands", [3, 4])
    def test_consistency_under_relation_moves(self, strands, word_pool):
        rng = random.Random(41)
        for w in word_pool[strands][:60]:
            v = mutate(w, rng, rng.randrange(1, 8))
            assert normal_form(v) == normal_form(w)

    def test_block_structure_of_pure_words(self, word_pool):
        for w in word_pool[4]:
            if not is_pure(w):
                continue
            nf = normal_form(w)
            for k in range(3, 5):
                block = nf.block(k)
                assert is_pure(block)
                assert set(classify(word_to_crossings(block), k)) <= {"big"}
            assert nf.m % 2 == 0

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_block_index_checked(self, k):
        nf = normal_form(word(5, [4, 3, 2, 1]))
        assert nf.block(5) == nf.blocks[-1] == word(5, [4, 3, 2, 1])
        with pytest.raises(ValueError, match=f"block index {k} not in 3..5"):
            nf.block(k)

    def test_degenerate_strand_counts(self):
        assert normal_form(word(2, [1, 1, -1])) == NormalForm(2, 1)
        assert normal_form(word(1)) == NormalForm(1, 0)
        assert nf_to_word(NormalForm(2, -2)).letters == (-1, -1)

    def test_budget_propagates(self):
        w = BraidWord(4, (3, 3, 2, 2, 1, 1, 2, 2) * 4)
        with pytest.raises(StepBudgetExceeded):
            normal_form(w, max_steps=10)

    def test_budget_trip_reaches_the_gathered_strand(self):
        # strand 4 needs no step, strand 3 one: the trip is on the prefix, and
        # reached is the whole braid, the strand-4 block after it
        w = word(4, [2, 1, 2, 3, 2, 1])
        prefix, block = gather_strand(w, 4, max_steps=0)
        assert block.letters == (3, 2, 1)
        with pytest.raises(StepBudgetExceeded) as exc:
            normal_form(w, max_steps=0)
        assert str(exc.value) == "step budget of 0 exceeded while gathering strand 3"
        assert exc.value.reached == word(4, prefix.letters + block.letters)

    def test_every_trip_reaches_the_input_braid(self):
        # gather_strand's reached alone, without the blocks gathered above
        # it, has another normal form on 371 of these trips
        rng = random.Random(29)
        trips = 0
        for _ in range(600):
            w = random_word(rng.choice((4, 5, 6)), rng.randrange(2, 16), rng)
            nf = normal_form(w)
            for budget in range(40):
                try:
                    normal_form(w, max_steps=budget)
                except StepBudgetExceeded as trip:
                    trips += 1
                    assert normal_form(trip.reached) == nf
        assert trips == 5448

    def test_b3_worst_cases_by_exhaustive_search(self):
        """Every freely reduced B3 word of 2 <= n <= 9 letters takes at most
        (n-2)^2 steps and gives a form of at most 5n - 8 letters |m| + |w_3|,
        and for n >= 3, 2 -1 2^(n-2) and its sign mirror reach both: they
        give 5n - 8 letters and trip a budget one short.  The laws were found
        by this search, not proved."""
        level = [()]
        for n in range(1, 10):
            level = [w + (t,) for w in level for t in (1, -1, 2, -2) if not w or w[-1] != -t]
            if n < 2:
                continue
            budget = (n - 2) ** 2
            forms = [normal_form(BraidWord(3, w), max_steps=budget) for w in level]
            assert max(abs(nf.m) + len(nf.block(3)) for nf in forms) == 5 * n - 8, n
            for s in (1, -1) if n >= 3 else ():
                worst = word(3, [2 * s, -s] + [2 * s] * (n - 2))
                nf = normal_form(worst, max_steps=budget)
                assert abs(nf.m) + len(nf.block(3)) == 5 * n - 8
                with pytest.raises(StepBudgetExceeded):
                    normal_form(worst, max_steps=budget - 1)

    def test_commutation_heavy_word_pinned(self):
        # each x1 commutes past all 400 x4: 200 * 400 steps for 600 letters
        w = word(5, [4] * 400 + [1] * 200)
        with pytest.raises(StepBudgetExceeded) as exc:
            normal_form(w, max_steps=79999)
        assert str(exc.value) == "step budget of 79999 exceeded while gathering strand 5"
        nf = normal_form(w, max_steps=80000)
        assert nf == NormalForm(5, 200, (word(5), word(5), word(5, [4] * 400)))
        with pytest.raises(StepBudgetExceeded) as exc:
            normal_form(w, max_steps=40000)
        assert len(exc.value.reached) == 600
        assert burau(exc.value.reached) == burau(w)

    def test_gathers_only_strands_the_word_reaches(self, monkeypatch):
        calls = []
        real = gathering.gather_strand

        def counted(w, k, max_steps):
            calls.append(k)
            return real(w, k, max_steps)

        monkeypatch.setattr(gathering, "gather_strand", counted)
        n = 10**5
        assert normal_form(word(n, [1])) == NormalForm(n, 1, (word(n),) * (n - 2))
        assert calls == []
        nf = normal_form(word(100, [5]))
        assert calls == [6]
        assert nf_to_word(nf) == word(100, [5])
        assert nf.block(6) == word(100, [5])
        for letters, form in (([n - 1], [n - 1]), ([n - 1, 1], [1, n - 1])):
            calls.clear()
            assert nf_to_word(normal_form(word(n, letters))) == word(n, form)
            assert calls == [n]


class TestSharedEmptyBlocks:
    """Unused blocks are one shared empty word per strand count, so that
    comparing two forms matches them by identity."""

    def test_same_strand_count_shares_one_block(self):
        # both words reach strand 3 only, so blocks w_4 .. w_6 are unused
        a = normal_form(word(6, [1, 2]))
        b = normal_form(word(6, [-2, 1, -1]))
        empty = a.blocks[1]
        assert all(block is empty for block in a.blocks[1:] + b.blocks[1:])
        assert empty == BraidWord(6)
        assert normal_form(word(6)).blocks == (empty,) * 4

    def test_other_strand_counts_have_their_own(self):
        empties = [normal_form(word(n, [1])).blocks[0] for n in (3, 4, 5)]
        assert empties == [BraidWord(3), BraidWord(4), BraidWord(5)]
        assert len({id(block) for block in empties}) == 3

    @pytest.mark.parametrize("letters", [[1, 2], [3, 3, 2, 1], []])
    def test_pickled_form_round_trips(self, letters):
        nf = normal_form(word(6, letters))
        other = pickle.loads(pickle.dumps(nf))
        assert other == nf and hash(other) == hash(nf)


@st.composite
def small_words(draw):
    """Words of at most 12 letters in B_N for N <= 6."""
    n = draw(st.integers(2, 6))
    gens = [g * s for g in range(1, n) for s in (1, -1)]
    return BraidWord(n, tuple(draw(st.lists(st.sampled_from(gens), max_size=12))))


BUDGET = 10**5


class TestNormalFormProperties:
    @settings(deadline=None)
    @given(small_words())
    def test_idempotent(self, w):
        nf = normal_form(w, max_steps=BUDGET)
        nw = nf_to_word(nf)
        assert is_normal_form(nw)
        assert normal_form(nw, max_steps=BUDGET) == nf

    @settings(deadline=None)
    @given(small_words(), st.integers(0, 2**32), st.integers(1, 6))
    def test_invariant_under_relation_moves(self, w, seed, moves):
        v = mutate(w, random.Random(seed), moves)
        assert normal_form(v, max_steps=BUDGET) == normal_form(w, max_steps=BUDGET)

    @settings(deadline=None)
    @given(small_words())
    def test_sound(self, w):
        nw = nf_to_word(normal_form(w, max_steps=BUDGET))
        assert permutation(nw) == permutation(w)
        assert burau(nw) == burau(w)

    @settings(deadline=None)
    @given(small_words(), st.integers(1, 3))
    def test_strand_embedding(self, w, j):
        n = w.strands + j
        nf = normal_form(w, max_steps=BUDGET)
        blocks = tuple(BraidWord(n, b.letters) for b in nf.blocks)
        expected = NormalForm(n, nf.m, blocks + (BraidWord(n),) * j)
        assert normal_form(BraidWord(n, w.letters), max_steps=BUDGET) == expected


class TestIsNormalForm:
    def test_accepts_block_order(self):
        assert is_normal_form(word(4, [1, 3, 2, -1, -1, -2]))
        assert is_normal_form(word(4))

    def test_rejects_unreduced(self):
        assert not is_normal_form(word(3, [1, -1]))

    def test_rejects_wrong_block_order(self):
        assert not is_normal_form(word(4, [3, 1]))


class TestAijNormalForms:
    @pytest.mark.parametrize("strands", [3, 4, 5])
    def test_aij_is_its_own_normal_form(self, strands):
        for i in range(1, strands):
            for j in range(i + 1, strands + 1):
                w = aij(i, j, strands)
                nf = normal_form(w)
                if j == 2:
                    assert nf.m == 2
                    assert all(b.letters == () for b in nf.blocks)
                else:
                    assert nf.m == 0
                    assert nf.block(j) == w
                    for k in range(3, strands + 1):
                        if k != j:
                            assert nf.block(k).letters == ()

    def test_random_aij_products_have_pure_blocks(self):
        rng = random.Random(17)
        for strands in (4, 5):
            pairs = [
                (i, j)
                for i in range(1, strands)
                for j in range(i + 1, strands + 1)
            ]
            for _ in range(25):
                w = BraidWord(strands, ())
                for _ in range(rng.randrange(1, 5)):
                    i, j = pairs[rng.randrange(len(pairs))]
                    factor = aij(i, j, strands)
                    if rng.random() < 0.5:
                        factor = BraidWord(
                            strands, tuple(-t for t in reversed(factor.letters))
                        )
                    w = BraidWord(strands, w.letters + factor.letters)
                nf = normal_form(w)
                assert is_pure(nf_to_word(nf))
                for block in nf.blocks:
                    assert is_pure(block)


class TestB3Parity:
    def test_given_examples(self):
        assert check_b3_parity(normal_form(word(3, [2, 1, 1, -2])))
        ok = NormalForm(3, 0, (word(3, [2, 1, 1, -2]),))
        assert check_b3_parity(ok)
        # no word has this form, so it is built unchecked
        bad = NormalForm._trusted(3, 0, (word(3, [2, 2, 1]),))
        assert not check_b3_parity(bad)

    def test_block_must_start_with_x2(self):
        assert not check_b3_parity(NormalForm._trusted(3, 0, (word(3, [1, 2]),)))

    def test_empty_block_passes(self):
        assert check_b3_parity(NormalForm(3, 5, (word(3),)))

    def test_interior_runs_even(self):
        # genuine normal form whose third run is even: x2 x1^2 x2^2 x1
        w = word(3, [2, 1, 1, 2, 2, 1])
        assert is_normal_form(w)
        nf = normal_form(w)
        assert nf_to_word(nf) == w
        assert check_b3_parity(nf)
        # an odd interior run cannot keep every crossing on strand 3
        odd = word(3, [2, 1, 1, 2, 1])
        assert "small" in classify(word_to_crossings(odd), 3)

    def test_strand_count_checked(self):
        with pytest.raises(ValueError):
            check_b3_parity(NormalForm(4, 0, (word(4), word(4))))

    def test_all_random_forms_pass(self, word_pool):
        for w in word_pool[3]:
            assert check_b3_parity(normal_form(w))
