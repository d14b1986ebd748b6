"""Crossing-level rewriting: termination, confluence, agreement with gathering."""

import hashlib
import random
from collections import Counter
from itertools import combinations, product

import pytest

from braidforms import (
    BraidWord,
    LEFTMOST,
    RIGHTMOST,
    StepBudgetExceeded,
    Strategy,
    applicable_sites,
    crossings_to_word,
    max_chain_length,
    nf_to_word,
    normal_form,
    permutation,
    residue,
    validate,
    word,
    word_to_crossings,
)
from braidforms import rewriting
from braidforms.crossings import Crossing, CrossingSequence, crossing
from braidforms.oracle import burau, check_rule_instance, random_word
from braidforms.rewriting import EXCEEDED, _match_pair, _match_triple, _splice

from .test_crossings import sequence
from .test_values import fresh


def apply_site(c, site):
    """Rewrite ``c`` at ``site``, as ``max_chain_length`` does."""
    return CrossingSequence(c.strands, _splice(c.items, site.position, site.rule))


def rescan_chain(c, strategy):
    """Every sequence of ``residue``'s chain, rescanning all sites at each step.

    Keeps the D sites and the reorderings of the highest strand that has
    one, then picks as the strategy does.
    """
    rng = random.Random(strategy.seed) if strategy.kind == "random" else None
    items = c.items
    while True:
        yield CrossingSequence(c.strands, items)
        sites = applicable_sites(items)
        highs = [items[s.position].high for s in sites if s.rule.template != "D"]
        top = max(highs, default=0)
        sites = [s for s in sites if s.rule.template == "D" or items[s.position].high == top]
        if not sites:
            return
        if strategy.kind == "leftmost":
            site = sites[0]
        elif strategy.kind == "rightmost":
            site = sites[-1]
        else:
            site = sites[rng.randrange(len(sites))]
        items = _splice(items, site.position, site.rule)


def arrangement_words(strands):
    """One positive word reaching each arrangement of the strands, shortest first."""
    found = {tuple(range(1, strands + 1)): ()}
    frontier = list(found.items())
    for a, letters in frontier:  # breadth first: the list grows as it is read
        for i in range(1, strands):
            nxt = a[: i - 1] + (a[i], a[i - 1]) + a[i + 1 :]
            if nxt not in found:
                found[nxt] = letters + (i,)
                frontier.append((nxt, found[nxt]))
    return list(found.values())


def random_sequences(strands, count, max_len, seed):
    rng = random.Random(seed)
    return [
        word_to_crossings(random_word(strands, rng.randrange(1, max_len + 1), rng))
        for _ in range(count)
    ]


def checked(out):
    """``out``, a sequence or word that may skip the range check, after
    asserting that it has tuple items and equals its checked rebuild."""
    if isinstance(out, CrossingSequence):
        assert type(out.items) is tuple
        assert all(type(x) is Crossing for x in out.items)
        assert out == CrossingSequence(out.strands, out.items)
    else:
        assert type(out.letters) is tuple
        assert out == BraidWord(out.strands, out.letters)
    return out


def residue_lines(sequences, strategies):
    """One line per sequence and strategy: the sequence, the strategy, the
    residue, the step count S, and ``reached`` (or "-" when nothing trips)
    at budgets 0-12, S - 1 and S.  S is found by bisection on ``max_steps``."""

    def trips(c, strategy, budget):
        try:
            residue(c, strategy, max_steps=budget)
        except StepBudgetExceeded as exc:
            return checked(exc.reached)
        return None

    def text(c):
        return " ".join(f"{x.sign * x.low},{x.high}" for x in c.items)

    for c in sequences:
        checked(crossings_to_word(checked(c)))
        for strategy in strategies:
            r = checked(residue(c, strategy))
            checked(crossings_to_word(r))
            lo, hi = -1, 1
            while trips(c, strategy, hi) is not None:
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if trips(c, strategy, mid) is not None else (lo, mid)
            reached = []
            for budget in sorted({*range(13), max(hi - 1, 0), hi}):
                trip = trips(c, strategy, budget)
                reached.append("-" if trip is None else text(trip))
            yield " | ".join(
                [text(c), f"{strategy.kind}:{strategy.seed}", text(r), str(hi), *reached]
            )


def residue_sequences():
    """Seeded B3-B8 sequences and the crossings of (3 3 2 2 1 1 2 2)^3."""
    rng = random.Random(31)
    words = [
        random_word(n, rng.randrange(1, 20), rng)
        for n in (3, 4, 5, 6, 7, 8)
        for _ in range(12)
    ]
    words.append(word(4, (3, 3, 2, 2, 1, 1, 2, 2) * 3))
    return [checked(word_to_crossings(w)) for w in words]


class TestStrategy:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            Strategy("middle")
        with pytest.raises(ValueError):
            Strategy("random")
        assert Strategy("random", 3).seed == 3


class TestWorkedExample:
    def test_residue_of_example(self):
        c = sequence(4, [(3, 4, 1), (2, 4, -1), (2, 4, -1), (1, 2, 1)])
        r = residue(c)
        assert r == sequence(
            4, [(1, 2, 1), (3, 4, 1), (1, 4, 1), (2, 4, -1), (2, 4, -1), (1, 4, -1)]
        )


class TestRuleApplication:
    def test_cancellation_rule(self):
        c = sequence(3, [(1, 2, 1), (1, 2, -1)])
        sites = applicable_sites(c.items)
        assert sites[0].rule.template == "D"
        assert apply_site(c, sites[0]).items == ()

    def test_commutation_rule(self):
        c = sequence(4, [(3, 4, 1), (1, 2, 1)])
        sites = applicable_sites(c.items)
        assert sites[0].rule.template == "COM"
        assert apply_site(c, sites[0]) == sequence(4, [(1, 2, 1), (3, 4, 1)])

    def test_commutation_only_toward_lower_high(self):
        assert applicable_sites(sequence(4, [(1, 2, 1), (3, 4, 1)]).items) == []

    def test_at_most_one_rule_per_site(self):
        items = [crossing(a, b, s) for a, b in combinations(range(1, 6), 2) for s in (1, -1)]
        for u, v, w in product(items, repeat=3):
            assert _match_pair(u, v) is None or _match_triple(u, v, w) is None

    @pytest.mark.parametrize(
        "strands, counts",
        [
            (3, {"I1": 8, "I2": 4, "I3": 8, "I4": 4}),
            (5, {"I1": 80, "I2": 40, "I3": 80, "I4": 40}),
        ],
    )
    def test_triple_rules_sound(self, strands, counts):
        """Every I-rule instance on ``strands``, audited by Burau and permutation.

        Each firing triple follows a prefix word that makes it valid; the
        audit reads words only through the crossing conversions.
        """
        pairs = combinations(range(1, strands + 1), 2)
        items = [crossing(a, b, s) for a, b in pairs for s in (1, -1)]
        prefixes = [
            word_to_crossings(word(strands, p)).items for p in arrangement_words(strands)
        ]
        fired = Counter()
        for triple in product(items, repeat=3):
            rule = _match_triple(*triple)
            if rule is None:
                continue
            prefix = next(
                p for p in prefixes if validate(CrossingSequence(strands, p + triple))
            )
            before = crossings_to_word(CrossingSequence(strands, prefix + triple))
            after = crossings_to_word(CrossingSequence(strands, prefix + rule.replacement))
            assert check_rule_instance(before, after)
            fired[rule.template] += 1
        assert fired == counts

    def test_each_application_sound(self):
        rng = random.Random(9)
        for c in random_sequences(4, 30, 10, seed=21):
            for _ in range(200):
                sites = applicable_sites(c.items)
                if not sites:
                    break
                nxt = apply_site(c, sites[rng.randrange(len(sites))])
                assert validate(nxt)
                u, v = crossings_to_word(c), crossings_to_word(nxt)
                assert permutation(u) == permutation(v)
                assert burau(u) == burau(v)
                c = nxt


class TestResidue:
    def test_requires_valid_input(self):
        with pytest.raises(ValueError):
            residue(sequence(3, [(1, 3, -1)]))

    def test_residue_has_no_sites(self):
        for c in random_sequences(4, 25, 12, seed=22):
            assert applicable_sites(residue(c).items) == []

    def test_no_adjacent_inverse_pairs(self):
        for c in random_sequences(4, 25, 12, seed=23):
            r = residue(c)
            assert all(
                a != b.inverse() for a, b in zip(r.items, r.items[1:])
            )

    @pytest.mark.parametrize("strands", [3, 4, 5])
    def test_confluence(self, strands):
        for c in random_sequences(strands, 25, 12, seed=24 + strands):
            base = residue(c, LEFTMOST)
            assert residue(c, RIGHTMOST) == base
            for s in range(5):
                assert residue(c, Strategy("random", s)) == base

    def test_rightmost_gathers_top_strand_first(self):
        """Rightmost once needed 266,837 steps here; it now keeps strand order."""
        w = word(5, (-4, -3, 2, -4, -4, -3, -2, 1, 1, -2, 3, 3, 2, 2, 3))
        c = word_to_crossings(w)
        base = residue(c, LEFTMOST)
        assert residue(c, RIGHTMOST, max_steps=1000) == base
        assert base == word_to_crossings(nf_to_word(normal_form(w)))

    def test_budget_guard(self):
        c = word_to_crossings(word(4, (3, 3, 2, 2, 1, 1, 2, 2) * 3))
        with pytest.raises(StepBudgetExceeded):
            residue(c, max_steps=5)

    @pytest.mark.parametrize("budget", [0, 5, 40])
    def test_budget_trip_reaches_an_equal_sequence(self, budget):
        w = word(4, (3, 3, 2, 2, 1, 1, 2, 2) * 3)
        with pytest.raises(StepBudgetExceeded) as exc:
            residue(word_to_crossings(w), RIGHTMOST, max_steps=budget)
        reached = exc.value.reached
        assert isinstance(reached, CrossingSequence)
        assert validate(reached)
        assert burau(crossings_to_word(reached)) == burau(w)

    def test_residue_pinned(self):
        """Residue, step count and ``reached`` at budgets 0-12, S - 1 and S of
        seeded B3-B8 sequences and the crossings of (3 3 2 2 1 1 2 2)^3 under
        leftmost, rightmost and random:0-2, pinned by sha256."""
        strategies = [LEFTMOST, RIGHTMOST] + [Strategy("random", s) for s in range(3)]
        lines = list(residue_lines(residue_sequences(), strategies))
        assert len(lines) == 365
        assert sum(int(line.split(" | ")[3]) for line in lines) == 21460
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "7c5a88bbc4d4df0172e213d93fe713fc03522b695eb813766cc7de989e76c7cd"

    @pytest.mark.parametrize("strands", [3, 4, 5])
    def test_chain_matches_full_rescan(self, strands):
        """The site table gives the chain that rescanning every step gives."""
        strategies = [LEFTMOST, RIGHTMOST] + [Strategy("random", s) for s in range(3)]
        for c in random_sequences(strands, 30, 16, seed=40 + strands):
            for strategy in strategies:
                chain = list(rescan_chain(c, strategy))
                steps = len(chain) - 1
                for budget in range(steps):
                    with pytest.raises(StepBudgetExceeded) as exc:
                        residue(c, strategy, max_steps=budget)
                    assert exc.value.reached == chain[budget]
                assert residue(c, strategy, max_steps=steps) == chain[-1]

    @pytest.mark.parametrize(
        "strategy", [LEFTMOST, RIGHTMOST, Strategy("random", 0)], ids=lambda s: s.kind
    )
    def test_matcher_work_per_rewrite_is_bounded(self, strategy, monkeypatch):
        """Each rewrite rematches a window of at most 9 sites, not the sequence.

        Every rematched position counts, whether the window memo holds it or
        not, so the positions of each ``applicable_sites`` call are summed: the
        run from an empty memo and the run after it, from a warm one, are each
        bounded.
        """
        c = sequence(3, [(2, 3, 1)] + [(1, 3, 1)] * 200 + [(1, 3, -1)] * 200)
        scans = []  # the positions each applicable_sites call matches
        sites = rewriting.applicable_sites

        def counted(items, start=0, stop=None):
            scans.append((len(items) if stop is None else stop) - start)
            return sites(items, start, stop)

        monkeypatch.setattr(rewriting, "_WINDOWS", {})
        monkeypatch.setattr(rewriting, "applicable_sites", counted)
        for memo in ("cold", "warm"):
            scans.clear()
            assert residue(c, strategy) == sequence(3, [(2, 3, 1)])
            # one scan of the sequence, then one window per cancellation
            assert scans[0] == len(c) and len(scans) == 201, memo
            assert sum(scans) <= len(c) + 9 * 200, memo
        assert rewriting._WINDOWS

    @pytest.mark.parametrize("strands", [3, 4])
    def test_agreement_with_gathering(self, strands, word_pool):
        for w in word_pool[strands][:60]:
            lhs = residue(word_to_crossings(w))
            rhs = word_to_crossings(nf_to_word(normal_form(w)))
            assert lhs == rhs


def match_fresh(u, v, w):
    """The rule the matchers give for the window ``u v w``, with no memo."""
    rule = _match_pair(u, v)
    if rule is None and u.high == v.high and w is not None:
        rule = _match_triple(u, v, w)
    return rule


class TestWindowMemo:
    STRATEGIES = [LEFTMOST, RIGHTMOST] + [Strategy("random", s) for s in range(3)]

    @pytest.fixture
    def seeded(self):
        """Seeded B3-B5 sequences under each strategy."""
        return [
            (c, strategy)
            for strands in (3, 4, 5)
            for c in random_sequences(strands, 20, 14, seed=60 + strands)
            for strategy in self.STRATEGIES
        ]

    def test_entries_are_the_matchers_results(self, seeded, monkeypatch):
        monkeypatch.setattr(rewriting, "_WINDOWS", {})
        for c, strategy in seeded:
            residue(c, strategy)
        windows = rewriting._WINDOWS
        assert len(windows) > 100
        assert None in windows.values()
        for key, rule in windows.items():
            assert rule == match_fresh(*key)

    def test_memo_is_read(self, seeded, monkeypatch):
        monkeypatch.setattr(rewriting, "_WINDOWS", {})
        base = [residue(c, strategy) for c, strategy in seeded]
        windows = rewriting._WINDOWS
        key = next(k for k, rule in windows.items() if rule is not None)
        windows[key] = None
        assert any(residue(c, strategy) != r for (c, strategy), r in zip(seeded, base))

    def test_memo_stays_within_its_cap(self, seeded, monkeypatch):
        monkeypatch.setattr(rewriting, "_WINDOWS", {})
        base = [residue(c, strategy) for c, strategy in seeded]
        monkeypatch.setattr(rewriting, "_WINDOWS", {})
        monkeypatch.setattr(rewriting, "_WINDOWS_CAP", 10)
        for (c, strategy), r in zip(seeded, base):
            assert residue(c, strategy) == r
            assert len(rewriting._WINDOWS) <= 10
        assert len(rewriting._WINDOWS) == 10

    def test_import_leaves_memo_empty(self):
        code = "from braidforms import rewriting\nprint(len(rewriting._WINDOWS))"
        assert fresh(code) == "0"


class TestCriticalPair:
    def test_com_critical_pair_splits(self):
        """Read as a string rewriting system, the rules are not locally confluent.

        ``-2,5 -3,4 -1,2`` has COM sites at 0 and 1, and they lead to two
        different irreducible sequences.  Confluence of ``residue`` is not
        broken, because the sequence is not valid from the identity
        arrangement: strands 2 and 5 are not adjacent there, so no braid word
        traces it and ``residue`` rejects it.
        """
        c = sequence(5, [(2, 5, -1), (3, 4, -1), (1, 2, -1)])
        assert not validate(c)
        with pytest.raises(ValueError):
            residue(c)
        sites = applicable_sites(c.items)
        assert [(s.position, s.rule.template) for s in sites] == [(0, "COM"), (1, "COM")]
        ends = [_splice(c.items, s.position, s.rule) for s in sites]
        assert ends == [
            sequence(5, [(3, 4, -1), (2, 5, -1), (1, 2, -1)]).items,
            sequence(5, [(2, 5, -1), (1, 2, -1), (3, 4, -1)]).items,
        ]
        assert [applicable_sites(e) for e in ends] == [[], []]


class TestMaxChainLength:
    def test_regression_pins(self):
        c = sequence(4, [(2, 3, 1), (1, 3, 1), (1, 2, 1)])
        assert max_chain_length(c, 10_000) == 1
        longer = word_to_crossings(word(4, (3, 3, -2, 1, -2, 3)))
        assert max_chain_length(longer, 10_000) == 39

    def test_cancellation_chain(self):
        c = sequence(3, [(1, 2, 1), (1, 2, -1)])
        assert max_chain_length(c, 100) == 1

    def test_cap_reported(self):
        c = sequence(3, [(1, 2, 1), (1, 2, -1)])
        assert max_chain_length(c, 0) == EXCEEDED

    def test_limits_enforced(self):
        with pytest.raises(ValueError):
            max_chain_length(CrossingSequence(5), 10)
        long = word_to_crossings(word(3, (1, 2) * 5))
        with pytest.raises(ValueError):
            max_chain_length(long, 10)
