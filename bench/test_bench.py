"""Tests of the benchmark itself: seeded inputs, repeatable trace counts and
a verifier that notices wrong results.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from braidforms.artin import ArtinNormalForm  # noqa: E402
from braidforms.crossings import CrossingSequence  # noqa: E402
from braidforms.errors import StepBudgetExceeded  # noqa: E402
from braidforms.gathering import NormalForm  # noqa: E402
from braidforms.rewriting import RIGHTMOST, residue  # noqa: E402

NAMES = list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_inputs(name):
    build = workloads.WORKLOADS[name].build
    assert repr(build(7)) == repr(build(7))
    assert repr(build(7)) != repr(build(8))


def traced_counts(name: str, seed: int) -> dict:
    workload = workloads.WORKLOADS[name]
    is_cli = name == "cli_oneshot"
    runner = workloads.run_cli_in_process if is_cli else workload.run
    pool = workload.build(seed)[: workload.trace_ops]
    tracer = spans.Tracer()
    spans.install_layers(tracer, with_cli=is_cli)
    try:
        run.loop(runner, pool, tracer=tracer)
    finally:
        tracer.restore()
    metrics = run.per_layer(tracer, spans.Tracer(), 0.0, {})
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


@pytest.mark.parametrize(
    "name, busy",
    [
        ("word_problem", "gathering.gather_strand.calls"),
        ("rewrite", "rewriting.steps"),
        ("artin", "artin.gather_steps_a.steps"),
        ("cli_oneshot", "diagram.render_svg.calls"),
    ],
)
def test_traced_counts_repeat_exactly(name, busy):
    first = traced_counts(name, 3)
    assert first[busy] > 0
    assert traced_counts(name, 3) == first


def test_rewrite_core_keeps_the_long_rightmost_chain():
    chain = workloads.rewrite_core()[workloads.RW_LONG_CHAIN]
    word = [c.sign * p for c, p in zip(chain.items, _positions(chain))]
    assert word == [-4, -3, 2, -4, -4, -3, -2, 1, 1, -2, 3, 3, 2, 2, 3]
    with pytest.raises(StepBudgetExceeded):
        residue(chain, RIGHTMOST, max_steps=workloads.RW_BUDGET)


def _positions(c: CrossingSequence) -> list[int]:
    at = list(range(c.strands + 1))
    out = []
    for item in c.items:
        p = min(at.index(item.low), at.index(item.high))
        out.append(p)
        at[p], at[p + 1] = at[p + 1], at[p]
    return out


def _first(pool, kind):
    return next(op for op in pool if op.kind == kind)


def test_verifier_flags_corrupted_word_problem_results():
    pool = workloads.build_word_problem(5)
    op = _first(pool, "unequal")
    verdict, nu, nv = workloads.run_word_problem(op)
    assert checks.check_word_problem(op, (verdict, nu, nv)) == []
    assert checks.check_word_problem(op, (not verdict, nu, nv))
    shifted = NormalForm(nu.strands, nu.m + 1, nu.blocks)
    assert checks.check_word_problem(op, (verdict, shifted, nv))
    op = _first(pool, "roundtrip")
    sampled, again = workloads.run_word_problem(op)
    assert checks.check_word_problem(op, (sampled, again)) == []
    shifted = NormalForm(again.strands, again.m + 2, again.blocks)
    assert checks.check_word_problem(op, (sampled, shifted))


def test_verifier_flags_corrupted_rewrite_results():
    pool = workloads.build_rewrite(5)
    op = next(o for o in pool if o.kind == "residue" and len(o.args[1].items) > 2)
    result = workloads.run_rewrite(op)
    assert checks.check_rewrite(op, result, {}) == []
    flipped = (result.items[0].inverse(),) + result.items[1:]
    assert checks.check_rewrite(op, CrossingSequence(result.strands, flipped), {})
    op = _first(pool, "convert")
    c2, w2, valid, bad_valid, bad_pos = workloads.run_rewrite(op)
    assert checks.check_rewrite(op, (c2, w2, valid, bad_valid, bad_pos), {}) == []
    assert checks.check_rewrite(op, (c2, w2, valid, bad_valid, bad_pos + 1), {})
    assert checks.check_rewrite(op, (c2, w2, valid, True, bad_pos), {})


def test_verifier_flags_corrupted_artin_results():
    pool = workloads.build_artin(5)
    op = _first(pool, "normalize")
    nf = workloads.run_artin(op)
    assert checks.check_artin(op, nf) == []
    assert checks.check_artin(op, ArtinNormalForm(nf.m + 1, nf.w1))
    op = _first(pool, "equal")
    assert checks.check_artin(op, workloads.run_artin(op)) == []
    assert checks.check_artin(op, not op.expect)


def test_verifier_flags_corrupted_cli_results():
    pool = workloads.build_cli(5)
    ops = [o for o in pool if o.expect[0] in ("normalize", "exit")]
    for op in ops:
        code, out = workloads.run_cli_in_process(op)
        assert checks.check_cli(op, (code, out)) == []
        assert checks.check_cli(op, (code, out + "1\n"))
        assert checks.check_cli(op, (code + 1, out))


def test_failed_outcomes_compare_by_kind_and_message():
    a = run.Failed(StepBudgetExceeded(5))
    assert a == run.Failed(StepBudgetExceeded(5))
    assert a != run.Failed(ValueError("x"))


def test_failures_count_each_operation_once():
    pool = [workloads.Op("ok", ()), workloads.Op("trip", ())]

    def run_op(op):
        if op.kind == "trip":
            raise StepBudgetExceeded(1)
        return 1

    t = run.loop(run_op, pool, seconds=0.05)
    assert len(t.lat) > len(pool)
    assert run.failures(t) == (1, 0)
