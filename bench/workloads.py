"""Seeded inputs and timed operations of the four benchmark workloads.

A workload builds a pool of operations from the seed, then a closed loop with
one client runs the pool, in order and over again, until the time is up.
Operations look library functions up through their module attribute at call
time, so that spans.py can wrap them from outside the package.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from braidforms import artin, crossings, gathering, oracle, randbraid, rewriting, words
from braidforms.artin import ArtinWord
from braidforms.crossings import CrossingSequence, InvalidCrossing, crossing
from braidforms.randbraid import RandomParams
from braidforms.rewriting import LEFTMOST, RIGHTMOST, Strategy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the B4 blow-up family (3 3 2 2 1 1 2 2)^p of ROADMAP item 2
FAMILY = (3, 3, 2, 2, 1, 1, 2, 2)


@dataclass(frozen=True)
class Op:
    """One timed operation: what to run, on what, and the answer it must give."""

    kind: str
    args: tuple
    expect: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    budget: int  # per-call step budget passed to the library
    tail: int  # latency percentile reported as op_ms_tail
    trace_ops: int  # length of the pool prefix a traced run executes
    setup: str  # code a fresh interpreter runs before its first operation
    build: Callable[[int], list[Op]]
    run: Callable[[Op], object]
    letters: Callable[[Op, object], int]


def _nf_size(nf) -> int:
    return abs(nf.m) + sum(len(b.letters) for b in nf.blocks)


# --- word_problem ---------------------------------------------------------

WP_BUDGET = 10**6
WP_CELLS = [(n, length) for n in (3, 4, 5, 8) for length in (4, 8, 16, 24, 32)]
WP_CELLS += [(4, 40), (5, 40)]  # long enough to blow up
WP_CELLS += [(64, length) for length in (4, 8, 12, 16)]  # wide, short words
WP_ROUNDTRIP_STRANDS = (3, 4, 5, 8, 64)
WP_STOP = 0.35
WP_CYCLES = 80
# two family members per cycle: p = 4 (5,396 letters) in every cycle and
# p = 1..3 in turn.  The p = 4 decisions are the slowest 1.7% of operations,
# so op_ms_p99 falls inside that group rather than on the edge of a
# heavy-tailed one.
WP_FAMILY_POWERS = ((4, 1), (4, 2), (4, 3))


def _nontrivial(rng: random.Random, strands: int) -> words.BraidWord:
    """A generator or a pure-braid generator aij with j - i <= 4: never the
    identity, and aij leaves the permutation alone."""
    if rng.random() < 0.5:
        return words.word(strands, (rng.randrange(1, strands) * rng.choice((1, -1)),))
    i = rng.randrange(1, strands)
    g = words.aij(i, rng.randrange(i + 1, min(i + 4, strands) + 1), strands)
    return words.inverse(g) if rng.random() < 0.5 else g


def _pair(rng: random.Random, u: words.BraidWord, equal: bool) -> Op:
    target = u if equal else words.concat(u, _nontrivial(rng, u.strands))
    v = oracle.mutate(target, rng, rng.randrange(1, 4))
    return Op("equal" if equal else "unequal", (u, v), equal)


def build_word_problem(seed: int) -> list[Op]:
    """Cycles of one op per cell and kind, each cycle shuffled, so that any
    prefix of the pool has close to the same mix."""
    rng = random.Random(seed)
    ops = []
    for cycle in range(WP_CYCLES):
        block = []
        for n, length in WP_CELLS:
            block.append(_pair(rng, oracle.random_word(n, length, rng), True))
            block.append(_pair(rng, oracle.random_word(n, length, rng), False))
        for n in WP_ROUNDTRIP_STRANDS:
            params = RandomParams(n, (WP_STOP,) * (n - 1), rng.randrange(2**31))
            block.append(Op("roundtrip", (params,)))
        for power in WP_FAMILY_POWERS[cycle % len(WP_FAMILY_POWERS)]:
            # one relation move: the second side costs about what the first does
            u = words.word(4, FAMILY * power)
            block.append(Op("equal", (u, oracle.mutate(u, rng, 1)), True))
        rng.shuffle(block)
        ops += block
    return ops


def run_word_problem(op: Op):
    if op.kind == "roundtrip":
        nf = randbraid.random_braid(op.args[0])
        return nf, gathering.normal_form(gathering.nf_to_word(nf), max_steps=WP_BUDGET)
    u, v = op.args
    nu = gathering.normal_form(u, max_steps=WP_BUDGET)
    nv = gathering.normal_form(v, max_steps=WP_BUDGET)
    return nu == nv, nu, nv


def letters_word_problem(op: Op, result) -> int:
    if op.kind == "roundtrip":
        return _nf_size(result[1])
    return _nf_size(result[1]) + _nf_size(result[2])


# --- rewrite --------------------------------------------------------------

# The rewrite core is criterion 6's confluence pool, drawn exactly as the
# acceptance test draws it.  Entry 21 needs 266,837 rightmost steps, so it
# trips the budget on every pass and shows up as a failed operation.
RW_CORE_SEED = 3000
RW_CORE_SIZE = 300
RW_LONG_CHAIN = 21
# three times the longest chain any strategy needs on the rest of the core
RW_BUDGET = 2000
RW_CONVERSIONS = 300


def rewrite_core() -> list[CrossingSequence]:
    rng = random.Random(RW_CORE_SEED)
    out = []
    for _ in range(RW_CORE_SIZE):
        n = rng.choice((3, 4, 5))
        out.append(crossings.word_to_crossings(oracle.random_word(n, rng.randrange(1, 17), rng)))
    return out


def _invalid_copy(rng: random.Random, c: CrossingSequence) -> tuple[CrossingSequence, int]:
    """Replace one crossing by a random strand pair until the trace breaks."""
    while True:
        items = list(c.items)
        a, b = rng.sample(range(1, c.strands + 1), 2)
        items[rng.randrange(len(items))] = crossing(a, b, rng.choice((1, -1)))
        bad = CrossingSequence(c.strands, tuple(items))
        pos = checks.first_invalid(bad)
        if pos is not None:
            return bad, pos


def build_rewrite(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for index, c in enumerate(rewrite_core()):
        for strategy in (LEFTMOST, RIGHTMOST, Strategy("random", rng.randrange(2**31))):
            ops.append(Op("residue", (index, c, strategy)))
    for _ in range(RW_CONVERSIONS):
        n = rng.choice((3, 4, 5))
        w = oracle.random_word(n, rng.randrange(2, 17), rng)
        c = CrossingSequence(n, checks.trace_crossings(n, w.letters))
        bad, pos = _invalid_copy(rng, c)
        ops.append(Op("convert", (w, c, bad), pos))
    rng.shuffle(ops)
    return ops


def run_rewrite(op: Op):
    if op.kind == "residue":
        _, c, strategy = op.args
        return rewriting.residue(c, strategy, max_steps=RW_BUDGET)
    w, c, bad = op.args
    c2 = crossings.word_to_crossings(w)
    w2 = crossings.crossings_to_word(c)
    valid = crossings.validate(c)
    bad_valid = crossings.validate(bad)
    try:
        crossings.crossings_to_word(bad)
        bad_pos = None
    except InvalidCrossing as exc:
        bad_pos = exc.position
    return c2, w2, valid, bad_valid, bad_pos


def letters_rewrite(op: Op, result) -> int:
    if op.kind == "residue":
        return len(result.items)
    return len(result[0].items) + len(result[1].letters)


# --- artin ----------------------------------------------------------------

AR_BUDGET = 10**6
# Every cycle has the same lengths, so that seeds vary letters and not
# lengths: normalize_a's cost grows about as the cube of the length.  Words
# stop at 100 letters so that a 20 s run holds some 60 normalize_a calls of
# the longest length, enough for a steady tail; at 160 letters it held 16.
AR_LENGTHS = (20, 40, 60, 80, 100)
AR_CYCLES = 120  # 1,800 operations, more than a 20 s run reaches
# appended to make an unequal pair: generators and the commutator abAB,
# whose image in the quotient is trivial
AR_EXTRA = ((1,), (-1,), (2,), (-2,), (1, 2, -1, -2))
_AR_RELATIONS = (
    ((1, 2, 1, 2), (2, 1, 2, 1)),
    ((2, 1, 2, 1), (1, 2, 1, 2)),
    ((-1, -2, -1, -2), (-2, -1, -2, -1)),
    ((-2, -1, -2, -1), (-1, -2, -1, -2)),
)


def random_artin(rng: random.Random, length: int) -> ArtinWord:
    letters: list[int] = []
    while len(letters) < length:
        choices = [t for t in (1, -1, 2, -2) if not letters or t != -letters[-1]]
        letters.append(choices[rng.randrange(len(choices))])
    return ArtinWord(tuple(letters))


def mutate_artin(w: ArtinWord, rng: random.Random, moves: int) -> ArtinWord:
    """Random relation moves (abab <-> baba, free insertion and deletion);
    the group element is preserved."""
    letters = w.letters
    for _ in range(moves):
        options = []
        for p in range(len(letters) - 3):
            for pattern, replacement in _AR_RELATIONS:
                if letters[p : p + 4] == pattern:
                    options.append(letters[:p] + replacement + letters[p + 4 :])
        for p in range(len(letters) - 1):
            if letters[p] == -letters[p + 1]:
                options.append(letters[:p] + letters[p + 2 :])
        for p in range(len(letters) + 1):
            t = rng.choice((1, -1, 2, -2))
            options.append(letters[:p] + (t, -t) + letters[p:])
        letters = options[rng.randrange(len(options))]
    return ArtinWord(letters)


def build_artin(seed: int) -> list[Op]:
    """Cycles of one normalize_a call and one equal and one unequal equal_a
    pair per length, each cycle shuffled, so that any prefix of the pool has
    close to the same mix.  The normalize_a calls are a third of the
    operations but take most of the time, and the tail falls among the
    100-letter ones."""
    rng = random.Random(seed)
    ops = []
    for _ in range(AR_CYCLES):
        block = []
        for length in AR_LENGTHS:
            block.append(Op("normalize", (random_artin(rng, length),)))
            u = random_artin(rng, length)
            block.append(Op("equal", (u, mutate_artin(u, rng, rng.randrange(1, 6))), True))
            u = random_artin(rng, length)
            g = ArtinWord(u.letters + rng.choice(AR_EXTRA))
            block.append(Op("equal", (u, mutate_artin(g, rng, rng.randrange(1, 6))), False))
        rng.shuffle(block)
        ops += block
    return ops


def run_artin(op: Op):
    if op.kind == "normalize":
        return artin.normalize_a(op.args[0], max_steps=AR_BUDGET)
    return artin.equal_a(*op.args)


def letters_artin(op: Op, result) -> int:
    if op.kind == "normalize":
        return abs(result.m) + len(result.w1.letters)
    return 0


# --- cli_oneshot ----------------------------------------------------------

CLI_BUDGET_CASE = 5  # --max-steps of the exit-2 case
CLI_ROUNDS = 16  # seeded inputs per command; a 20 s run covers about one pass
CLI_LENGTH = 16  # letters of each seeded word


def out_dir() -> Path:
    return ROOT / "bench" / "out"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def build_cli(seed: int) -> list[Op]:
    """Rounds of one call per command on independent seeded words, each round
    shuffled, and the two expected failures."""
    rng = random.Random(seed)
    fmt = checks.format_word
    ops = []
    n = 3  # output lengths vary least in B3, which keeps out_letters_per_s steady
    s = str(n)
    for r in range(CLI_ROUNDS):
        w, x, y, z = (oracle.random_word(n, CLI_LENGTH, rng) for _ in range(4))
        v = oracle.mutate(w, rng, 2)
        cx = CrossingSequence(n, checks.trace_crossings(n, x.letters))
        cz = CrossingSequence(n, checks.trace_crossings(n, z.letters))
        strategy = rng.choice(("leftmost", "rightmost", f"random:{rng.randrange(100)}"))
        kind, _, strategy_seed = strategy.partition(":")
        strat = Strategy(kind, int(strategy_seed) if strategy_seed else None)
        params = RandomParams(n, (0.5,) * (n - 1), rng.randrange(1000))
        a, b = random_artin(rng, CLI_LENGTH), random_artin(rng, CLI_LENGTH)
        svg = str(out_dir() / f"diagram-{seed}-{r}.svg")
        cases = [
            (("normalize", "--strands", s, fmt(w.letters)), ("normalize", w)),
            (("equal", "--strands", s, fmt(w.letters), fmt(v.letters)), ("equal", w, v)),
            (
                ("residue", "--strands", s, "--strategy", strategy, checks.format_crossings(cx.items)),
                ("residue", cx, strat),
            ),
            (("crossings", "--strands", s, fmt(y.letters)), ("crossings", y)),
            (
                ("from-crossings", "--strands", s, checks.format_crossings(cz.items)),
                ("from-crossings", z),
            ),
            (
                ("random", "--strands", s, "--stop", ",".join(map(str, params.stop)),
                 "--seed", str(params.seed)),
                ("random", params),
            ),
            (("artin", "normalize", str(a)), ("artin-normalize", a)),
            (("artin", "equal", str(b), str(mutate_artin(b, rng, 2))), ("artin-equal", b)),
            (("diagram", "--strands", s, "--out", svg, fmt(w.letters)), ("diagram", w, svg)),
        ]
        if r == 0:
            # expected failures: a letter out of range, and a budget trip
            cases.append((("normalize", "--strands", "3", "1 5"), ("exit", 1)))
            cases.append(
                (
                    ("normalize", "--strands", "4", "--max-steps", str(CLI_BUDGET_CASE),
                     fmt(FAMILY * 4)),
                    ("exit", 2),
                )
            )
        block = [Op("cli", argv, spec) for argv, spec in cases]
        rng.shuffle(block)
        ops += block
    return ops


def run_cli(op: Op):
    proc = subprocess.run(
        [sys.executable, "-m", "braidforms.cli", *op.args],
        cwd=ROOT,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout


def letters_cli(op: Op, result) -> int:
    """Letters or crossings printed; verdicts and diagrams count none."""
    kind = op.expect[0]
    if kind in ("equal", "artin-equal", "diagram", "exit"):
        return 0
    if kind == "artin-normalize":
        return len(result[1].strip())
    return len(result[1].split())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "word_problem",
            "decides u = v in B_N, the system's purpose; "
            "gathering, words and randbraid do the work, with wide N = 64 and blow-up words",
            WP_BUDGET,
            99,
            600,
            "from braidforms import gathering, words\n"
            "gathering.normal_form(words.word(4, (3, -2, -2, 1)))",
            build_word_problem,
            run_word_problem,
            letters_word_problem,
        ),
        Workload(
            "rewrite",
            "crossing-level residue under leftmost, rightmost and random strategies; "
            "rewriting and crossings do the work, gathering none",
            RW_BUDGET,
            99,
            1000,
            "from braidforms import crossings, rewriting, words\n"
            "rewriting.residue(crossings.word_to_crossings(words.word(4, (3, -2, -2, 1))))",
            build_rewrite,
            run_rewrite,
            letters_rewrite,
        ),
        Workload(
            "artin",
            "normal forms in <a, b | abab = baba>; "
            "normalize_a's quadratic gather_steps_a loop does most of the work",
            AR_BUDGET,
            98,
            60,
            "from braidforms import artin\n"
            "artin.normalize_a(artin.parse_artin('abAB'))",
            build_artin,
            run_artin,
            letters_artin,
        ),
        Workload(
            "cli_oneshot",
            "one CLI process per call; "
            "interpreter start-up and imports dominate, the only workload that measures the cli layer",
            CLI_BUDGET_CASE,
            90,
            20,
            "from braidforms import cli\n"
            "cli.main(['normalize', '--strands', '4', '3 -2 -2 1'], standalone_mode=False)",
            build_cli,
            run_cli,
            letters_cli,
        ),
    )
}


def run_cli_in_process(op: Op):
    """The same call through click's test runner, for the traced run."""
    from click.testing import CliRunner

    from braidforms import cli

    result = CliRunner().invoke(cli.main, list(op.args))
    return result.exit_code, result.stdout
