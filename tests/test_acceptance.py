"""Acceptance suite: one test per criterion, each printing a PASS line.

The criteria pin exact worked examples, statistical behavior of the random
generator, agreement between the word-level and crossing-level engines, and
the structural theorems (block purity, three-strand parity, confluence).
"""

import random
import time

import click.testing
import pytest
import scipy.stats

from braidforms import (
    BraidWord,
    InvalidCrossing,
    RandomParams,
    aij,
    check_b3_parity,
    cli,
    crossings_to_word,
    embed_b3,
    equal_a,
    inverse,
    is_normal_form,
    is_pure,
    materialize_automaton,
    nf_to_word,
    normal_form,
    normalize_a,
    parse_artin,
    permutation,
    random_braid,
    random_power,
    residue,
    validate,
    word,
    word_to_crossings,
)
from braidforms.artin import word_image
from braidforms.crossings import CrossingSequence, crossing
from braidforms.errors import StepBudgetExceeded
from braidforms.oracle import burau, mutate, random_word
from braidforms.rewriting import LEFTMOST, RIGHTMOST, Strategy

from .test_artin import artin_mutate, as_word, rand_artin, step_words
from .test_crossings import sequence

EXAMPLE = (3, -2, -2, 1)
EXAMPLE_NF = (1, 3, 2, -1, -1, -2)


def report(n: int, detail: str) -> None:
    print(f"criterion {n:2d}: PASS — {detail}")


@pytest.fixture(scope="module")
def soundness_pool():
    """Criterion 4 inputs: 1000 seeded words per strand count, length <= 24."""
    pools = {}
    for n in (3, 4, 5):
        rng = random.Random(1000 + n)
        pools[n] = [
            random_word(n, rng.randrange(1, 25), rng) for _ in range(1000)
        ]
    return pools


@pytest.fixture(scope="module")
def mutation_pairs():
    """Criterion 5 inputs: 500 seeded (w, w') pairs per strand count."""
    pairs = {}
    for n in (3, 4):
        rng = random.Random(2000 + n)
        pairs[n] = []
        for _ in range(500):
            w = random_word(n, rng.randrange(1, 17), rng)
            pairs[n].append((w, mutate(w, rng, rng.randrange(1, 11))))
    return pairs


@pytest.fixture(scope="module")
def confluence_pool():
    """Criterion 6 inputs: 300 seeded valid crossing sequences, length <= 16."""
    rng = random.Random(3000)
    out = []
    for _ in range(300):
        n = rng.choice((3, 4, 5))
        out.append(word_to_crossings(random_word(n, rng.randrange(1, 17), rng)))
    return out


@pytest.fixture(scope="module")
def artin_pool():
    """Criterion 12 inputs: 500 seeded consistency pairs."""
    rng = random.Random(4000)
    out = []
    for _ in range(500):
        w = rand_artin(rng, max_len=12)
        out.append((w, artin_mutate(w, rng, rng.randrange(1, 6))))
    return out


def test_criterion_01_normalize_example_exact():
    w = word(4, EXAMPLE)
    assert nf_to_word(normal_form(w)).letters == EXAMPLE_NF
    normal_form(w)  # warm
    best = min(
        (lambda t0: (normal_form(w), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(20)
    )
    assert best < 0.001, f"normalize took {best * 1e6:.0f} us"
    report(1, f"exact normal form in {best * 1e6:.0f} us")


def test_criterion_02_inverse_example_exact():
    assert inverse(word(4, EXAMPLE)).letters == (-1, 2, 2, -3)
    report(2, "inverse of the worked example is exact")


def test_criterion_03_crossing_conversions_exact():
    c = word_to_crossings(word(4, EXAMPLE))
    assert c == sequence(4, [(3, 4, 1), (2, 4, -1), (2, 4, -1), (1, 2, 1)])
    back = crossings_to_word(
        sequence(4, [(1, 2, 1), (3, 4, 1), (1, 4, 1), (2, 4, -1), (2, 4, -1), (1, 4, -1)])
    )
    assert back.letters == EXAMPLE_NF
    with pytest.raises(InvalidCrossing) as exc:
        crossings_to_word(sequence(3, [(1, 3, -1)]))
    assert exc.value.position == 1
    report(3, "both conversion directions exact; |1,3|^-1 rejected at position 1")


def test_criterion_04_soundness_suite(soundness_pool):
    t0 = time.perf_counter()
    checked = 0
    for n, pool in soundness_pool.items():
        for w in pool:
            nw = nf_to_word(normal_form(w))
            assert permutation(nw) == permutation(w)
            assert burau(nw) == burau(w)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 3000
    assert elapsed < 60.0, f"soundness suite took {elapsed:.1f} s"
    report(4, f"3000/3000 words Burau- and permutation-sound in {elapsed:.1f} s")


def test_criterion_05_uniqueness_surrogate(mutation_pairs):
    checked = 0
    for n, pairs in mutation_pairs.items():
        for w, v in pairs:
            assert normal_form(w) == normal_form(v)
            checked += 1
    assert checked == 1000
    report(5, "1000/1000 mutated pairs share identical normal forms")


def test_criterion_06_confluence(confluence_pool):
    budget = 10**5
    strategies = [LEFTMOST, RIGHTMOST] + [Strategy("random", s) for s in range(5)]
    over_budget = []
    for idx, c in enumerate(confluence_pool):
        base = residue(c, LEFTMOST, max_steps=budget)
        for strat in strategies[1:]:
            try:
                assert residue(c, strat, max_steps=budget) == base
            except StepBudgetExceeded:
                # chain is longer than the budget; confirm it still converges
                assert residue(c, strat, max_steps=10**8) == base
                over_budget.append((idx, strat.kind, strat.seed))
    if over_budget:
        print(
            f"criterion  6: FAIL — residues agree for all 300 x 7 runs, but "
            f"{len(over_budget)} run(s) need more than 1e5 steps: {over_budget}"
        )
    else:
        report(6, "300 sequences x 7 strategies: identical residues within 1e5 steps")
    assert not over_budget, f"chains over 1e5 steps: {over_budget}"


def test_criterion_07_agreement(soundness_pool, mutation_pairs, confluence_pool):
    words = [w for pool in soundness_pool.values() for w in pool]
    words += [w for pairs in mutation_pairs.values() for pair in pairs for w in pair]
    checked = 0
    for w in words:
        lhs = residue(word_to_crossings(w))
        rhs = word_to_crossings(nf_to_word(normal_form(w)))
        assert lhs == rhs
        checked += 1
    for c in confluence_pool:
        w = crossings_to_word(c)
        assert residue(c) == word_to_crossings(nf_to_word(normal_form(w)))
        checked += 1
    report(7, f"residue == crossings of normal form for {checked} inputs")


def test_criterion_08_b3_parity(soundness_pool, mutation_pairs, artin_pool):
    checked = 0
    for w in soundness_pool[3]:
        assert check_b3_parity(normal_form(w))
        checked += 1
    for w, v in mutation_pairs[3]:
        assert check_b3_parity(normal_form(w))
        assert check_b3_parity(normal_form(v))
        checked += 2
    for w, v in artin_pool:
        assert check_b3_parity(normal_form(embed_b3(w)))
        checked += 1
    report(8, f"{checked} three-strand normal forms satisfy the parity law")


def test_criterion_09_pure_braid_structure():
    rng = random.Random(5000)
    for count in range(200):
        strands = 4 if count % 2 == 0 else 5
        pairs = [
            (i, j) for i in range(1, strands) for j in range(i + 1, strands + 1)
        ]
        letters = ()
        for _ in range(rng.randrange(1, 6)):
            i, j = pairs[rng.randrange(len(pairs))]
            factor = aij(i, j, strands)
            if rng.random() < 0.5:
                factor = inverse(factor)
            letters += factor.letters
        nf = normal_form(BraidWord(strands, letters))
        for block in nf.blocks:
            assert is_pure(block)
        assert nf.m % 2 == 0
    for strands in (3, 4, 5):
        for i in range(1, strands):
            for j in range(i + 1, strands + 1):
                w = aij(i, j, strands)
                nf = normal_form(w)
                if j == 2:
                    assert nf.m == 2 and nf_to_word(nf).letters == w.letters
                else:
                    assert nf_to_word(nf).letters == w.letters
    report(9, "200 pure products have pure blocks; every aij is its own normal form")


def test_criterion_10_automaton():
    assert len(materialize_automaton(3)) == 6
    rng = random.Random(6000)
    accepted = 0
    while accepted < 1000:
        n = rng.choice((3, 4, 5))
        c = word_to_crossings(random_word(n, rng.randrange(1, 13), rng))
        assert validate(c)
        accepted += 1
    rejected = 0
    while rejected < 1000:
        n = rng.choice((3, 4, 5))
        c = word_to_crossings(random_word(n, rng.randrange(2, 13), rng))
        items = list(c.items)
        p = rng.randrange(len(items))
        a = rng.randrange(1, n + 1)
        b = rng.randrange(1, n + 1)
        if a == b:
            continue
        items[p] = crossing(a, b, rng.choice((1, -1)))
        mutated = CrossingSequence(n, tuple(items))
        try:
            crossings_to_word(mutated)
            continue  # mutation happened to stay valid; resample
        except InvalidCrossing:
            pass
        assert not validate(mutated)
        rejected += 1
    report(10, "6 automaton states at N=3; 1000 accepts and 1000 rejects correct")


def test_criterion_11_random_generator():
    for n in (3, 4, 5):
        stop = (0.4,) * (n - 1)
        for seed in range(1000):
            nf = random_braid(RandomParams(n, stop, seed))
            w = nf_to_word(nf)
            assert is_normal_form(w)
            assert normal_form(w) == nf
    trivial = random_braid(RandomParams(5, (1.0,) * 4, seed=3))
    assert nf_to_word(trivial).letters == ()

    s = 0.5
    rng = random.Random(7000)
    samples = [abs(random_power(s, rng)) for _ in range(100_000)]
    tail = 12
    observed = [0] * (tail + 1)
    for m in samples:
        observed[min(m, tail)] += 1
    expected = [s * (1 - s) ** k * len(samples) for k in range(tail)]
    expected.append((1 - s) ** tail * len(samples))
    stat, p = scipy.stats.chisquare(observed, expected)
    assert p > 0.01, f"chi-square p = {p}"
    report(11, f"3000 fixed points; geometric |m| chi-square p = {p:.3f}")


def test_criterion_12_artin_module(artin_pool):
    assert equal_a(parse_artin("abab"), parse_artin("baba"))
    audited = 0
    for w, v in artin_pool:
        assert normalize_a(w) == normalize_a(v)
        reference = burau(embed_b3(w))
        image = word_image(w)
        for step in step_words(w):
            assert burau(embed_b3(step)) == reference
            assert word_image(step) == image
            audited += 1
        nf = normalize_a(w)
        assert burau(embed_b3(as_word(nf))) == reference
    report(12, f"500 consistency pairs; {audited} rewrite steps embedding-sound")


def test_criterion_13_blowup_and_budget_guard():
    base = (3, 3, 2, 2, 1, 1, 2, 2)
    lengths = []
    for p in range(1, 7):
        nf = normal_form(BraidWord(4, base * p))
        lengths.append(len(nf_to_word(nf).letters))
    ratios = [length / (p + 1) for p, length in enumerate(lengths)]
    assert all(a < b for a, b in zip(ratios, ratios[1:])), lengths

    runner = click.testing.CliRunner()
    result = runner.invoke(
        cli.main,
        ["normalize", "--strands", "4", "--max-steps", "5",
         " ".join(map(str, base * 4))],
    )
    assert result.exit_code == 2
    report(13, f"lengths {lengths} are super-linear; tiny budget exits with code 2")
