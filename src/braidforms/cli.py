"""Command-line front end.

Words are whitespace-separated signed integers ("3 -2 -2 1" is x3 x2^-2 x1);
crossing sequences are tokens "r,s" with an optional leading minus for the
sign ("3,4 -2,4 -2,4 1,2").  Results go to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 input error, 2 step budget exceeded.
"""

from __future__ import annotations

import sys

import click

from . import artin as artin_mod
from .crossings import (
    Crossing,
    CrossingSequence,
    InvalidCrossing,
    crossing,
    crossings_to_word,
    word_to_crossings,
)
from .diagram import render_svg
from .errors import StepBudgetExceeded
from .gathering import (
    DEFAULT_STEP_BUDGET,
    nf_to_word,
    normal_form,
)
from .randbraid import RandomParams, random_braid
from .rewriting import Strategy, residue
from .words import BraidWord


def parse_word(text: str, strands: int) -> BraidWord:
    try:
        letters = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(f"cannot parse word {text!r}: expected signed integers")
    return BraidWord(strands, letters)


def format_word(w: BraidWord, pretty: bool = False) -> str:
    if pretty:
        return " ".join(
            f"x{abs(t)}" if t > 0 else f"x{abs(t)}^-1" for t in w.letters
        )
    return " ".join(str(t) for t in w.letters)


def parse_crossings(text: str, strands: int) -> CrossingSequence:
    items: list[Crossing] = []
    for tok in text.split():
        sign = 1
        body = tok
        if body.startswith("-"):
            sign = -1
            body = body[1:]
        try:
            r_str, s_str = body.split(",")
            r, s = int(r_str), int(s_str)
        except ValueError:
            raise ValueError(f"cannot parse crossing token {tok!r}")
        if not r < s:
            raise ValueError(f"crossing token {tok!r} must have r < s")
        items.append(crossing(r, s, sign))
    return CrossingSequence(strands, tuple(items))


def format_crossings(c: CrossingSequence) -> str:
    return " ".join(
        ("-" if x.sign < 0 else "") + f"{x.low},{x.high}" for x in c.items
    )


def _fail(message: str, code: int) -> None:
    click.echo(message, err=True)
    sys.exit(code)


def _parse_strategy(text: str) -> Strategy:
    if text == "leftmost":
        return Strategy("leftmost")
    if text == "rightmost":
        return Strategy("rightmost")
    if text.startswith("random:"):
        try:
            return Strategy("random", int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise ValueError(
        f"bad strategy {text!r}: expected leftmost, rightmost or random:SEED"
    )


@click.group()
def main():
    """Braid-group normal forms, crossing sequences and random braids."""


@main.command("normalize", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=int, required=True)
@click.option("--report", is_flag=True, help="also print m and every block")
@click.option("--pretty", is_flag=True, help="print x-notation instead of integers")
@click.option("--max-steps", type=int, default=DEFAULT_STEP_BUDGET, show_default=True)
@click.argument("word_text")
def cmd_normalize(strands, report, pretty, max_steps, word_text):
    """Print the normal form of WORD_TEXT."""
    try:
        w = parse_word(word_text, strands)
    except ValueError as exc:
        _fail(str(exc), 1)
    try:
        nf = normal_form(w, max_steps=max_steps)
    except StepBudgetExceeded as exc:
        _fail(str(exc), 2)
    click.echo(format_word(nf_to_word(nf), pretty=pretty))
    if report:
        click.echo(f"m = {nf.m}")
        for k in range(3, strands + 1):
            click.echo(f"w{k} = {format_word(nf.block(k), pretty=pretty)}")


@main.command("crossings", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=int, required=True)
@click.argument("word_text")
def cmd_crossings(strands, word_text):
    """Print the crossing sequence of WORD_TEXT."""
    try:
        w = parse_word(word_text, strands)
    except ValueError as exc:
        _fail(str(exc), 1)
    click.echo(format_crossings(word_to_crossings(w)))


@main.command("from-crossings", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=int, required=True)
@click.argument("crossing_text")
def cmd_from_crossings(strands, crossing_text):
    """Print the braid word of CROSSING_TEXT."""
    try:
        c = parse_crossings(crossing_text, strands)
        w = crossings_to_word(c)
    except InvalidCrossing as exc:
        _fail(f"invalid crossing at position {exc.position}", 1)
    except ValueError as exc:
        _fail(str(exc), 1)
    click.echo(format_word(w))


@main.command("residue", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=int, required=True)
@click.option("--strategy", "strategy_text", default="leftmost", show_default=True)
@click.option("--max-steps", type=int, default=DEFAULT_STEP_BUDGET, show_default=True)
@click.argument("crossing_text")
def cmd_residue(strands, strategy_text, max_steps, crossing_text):
    """Rewrite CROSSING_TEXT until no rule applies."""
    try:
        c = parse_crossings(crossing_text, strands)
        strategy = _parse_strategy(strategy_text)
    except ValueError as exc:
        _fail(str(exc), 1)
    try:
        r = residue(c, strategy, max_steps=max_steps)
    except StepBudgetExceeded as exc:
        _fail(str(exc), 2)
    except ValueError as exc:
        _fail(str(exc), 1)
    click.echo(format_crossings(r))


@main.command("random")
@click.option("--strands", type=int, required=True)
@click.option("--stop", "stop_text", required=True, help="comma-separated s_2,...,s_N")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--pretty", is_flag=True)
def cmd_random(strands, stop_text, seed, pretty):
    """Sample a random braid, printed in normal form."""
    try:
        stop = tuple(float(tok) for tok in stop_text.split(",") if tok.strip())
        params = RandomParams(strands, stop, seed)
    except ValueError as exc:
        _fail(str(exc), 1)
    click.echo(format_word(nf_to_word(random_braid(params)), pretty=pretty))


@main.command("equal", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=int, required=True)
@click.option("--max-steps", type=int, default=DEFAULT_STEP_BUDGET, show_default=True)
@click.argument("word1")
@click.argument("word2")
def cmd_equal(strands, max_steps, word1, word2):
    """Print "equal" or "not-equal" for two words."""
    try:
        u = parse_word(word1, strands)
        v = parse_word(word2, strands)
    except ValueError as exc:
        _fail(str(exc), 1)
    try:
        same = normal_form(u, max_steps=max_steps) == normal_form(v, max_steps=max_steps)
    except StepBudgetExceeded as exc:
        _fail(str(exc), 2)
    click.echo("equal" if same else "not-equal")


@main.command("artin")
@click.option("--max-steps", type=int, default=DEFAULT_STEP_BUDGET, show_default=True)
@click.argument("action", type=click.Choice(["normalize", "equal"]))
@click.argument("words", nargs=-1)
def cmd_artin(max_steps, action, words):
    """Normal form or equality in the group <a, b | abab = baba>.

    Words use letters a, b with upper case for inverses, e.g. "abAB".
    """
    try:
        parsed = [artin_mod.parse_artin(t) for t in words]
        if action == "normalize":
            if len(parsed) != 1:
                raise ValueError("normalize takes exactly one word")
        elif len(parsed) != 2:
            raise ValueError("equal takes exactly two words")
    except ValueError as exc:
        _fail(str(exc), 1)
    try:
        if action == "normalize":
            nf = artin_mod.normalize_a(parsed[0], max_steps=max_steps)
            a_part = ("a" if nf.m >= 0 else "A") * abs(nf.m)
            click.echo(a_part + str(nf.w1))
            click.echo(f"m = {nf.m}", err=True)
        else:
            same = artin_mod.equal_a(parsed[0], parsed[1], max_steps=max_steps)
            click.echo("equal" if same else "not-equal")
    except StepBudgetExceeded as exc:
        _fail(str(exc), 2)


@main.command("diagram", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=int, required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--bold", type=int, default=None, help="highlight one strand")
@click.argument("word_text")
def cmd_diagram(strands, out_path, bold, word_text):
    """Write an SVG diagram of WORD_TEXT to --out."""
    try:
        w = parse_word(word_text, strands)
        svg = render_svg(w, bold=bold)
    except ValueError as exc:
        _fail(str(exc), 1)
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        _fail(str(exc), 1)


if __name__ == "__main__":
    main()
