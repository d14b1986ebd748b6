"""Command-line front end.

Words are whitespace-separated signed integers ("3 -2 -2 1" is x3 x2^-2 x1);
crossing sequences are tokens "r,s" with an optional leading minus for the
sign ("3,4 -2,4 -2,4 1,2").  Numbers, option values too, are ASCII decimal
digits only.  Results go to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 input or usage error, 2 step budget exceeded.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager

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
from .errors import DEFAULT_STEP_BUDGET, StepBudgetExceeded
from .gathering import nf_to_word, normal_form
from .randbraid import RandomParams, random_braid
from .rewriting import Strategy, residue
from .words import BraidWord

# after the engines: importing click first raises a CLI process's peak RSS ~0.5 MB
import click

# int() alone would also take "1_0", non-ASCII digits and a sign inside "r,s"
_LETTER = re.compile(r"[+-]?[0-9]+")
_CROSSING = re.compile(r"(-?)([0-9]+),([0-9]+)")
# float() alone would also take "0.2_5", non-ASCII digits, "inf" and "nan"
_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


class _Decimal(click.IntRange):
    """click's integer option type, read from ASCII decimals only."""

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, str) and not _LETTER.fullmatch(value):
            self.fail(f"{value!r} is not a valid integer.", param, ctx)
        return super().convert(value, param, ctx)

    def _describe_range(self):
        # click would describe an unbounded range as "x<=None"
        return "" if self.min is None else super()._describe_range()


# a negative budget is a usage error
_max_steps = click.option(
    "--max-steps",
    type=_Decimal(min=0),
    default=DEFAULT_STEP_BUDGET,
    show_default=True,
)


def parse_word(text: str, strands: int) -> BraidWord:
    tokens = text.split()
    if not all(map(_LETTER.fullmatch, tokens)):
        raise ValueError(f"cannot parse word {text!r}: expected signed integers")
    return BraidWord(strands, tuple(map(int, tokens)))


def format_word(w: BraidWord, pretty: bool = False) -> str:
    if pretty:
        return " ".join(
            f"x{abs(t)}" if t > 0 else f"x{abs(t)}^-1" for t in w.letters
        )
    return " ".join(str(t) for t in w.letters)


def parse_crossings(text: str, strands: int) -> CrossingSequence:
    items: list[Crossing] = []
    for tok in text.split():
        m = _CROSSING.fullmatch(tok)
        if m is None:
            raise ValueError(f"cannot parse crossing token {tok!r}")
        minus, r, s = m[1], int(m[2]), int(m[3])
        if not r < s:
            raise ValueError(f"crossing token {tok!r} must have r < s")
        items.append(crossing(r, s, -1 if minus else 1))
    return CrossingSequence(strands, tuple(items))


def format_crossings(c: CrossingSequence) -> str:
    return " ".join(
        ("-" if x.sign < 0 else "") + f"{x.low},{x.high}" for x in c.items
    )


def _fail(message: str, code: int) -> None:
    click.echo(message, err=True)
    sys.exit(code)


def _parse_strategy(text: str) -> Strategy:
    if text in ("leftmost", "rightmost"):
        return Strategy(text)
    kind, _, seed = text.partition(":")
    if kind == "random" and _LETTER.fullmatch(seed):
        return Strategy("random", int(seed))
    raise ValueError(
        f"bad strategy {text!r}: expected leftmost, rightmost or random:SEED"
    )


@contextmanager
def _usage_errors_exit_1():
    """Click exits 2 on a usage error, the code of a budget trip here."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


class _ExitCodes(click.Group):
    """The one place where errors become exit codes and stderr lines."""

    def parse_args(self, ctx, args):
        with _usage_errors_exit_1():  # the group's own options, before invoke
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        try:
            with _usage_errors_exit_1():
                return super().invoke(ctx)
        # InvalidCrossing is a ValueError, so its clause comes first
        except InvalidCrossing as exc:
            _fail(f"invalid crossing at position {exc.position}", 1)
        except StepBudgetExceeded as exc:
            _fail(str(exc), 2)
        except BrokenPipeError:
            raise  # click exits 1 on a closed stdout, without a message
        except (ValueError, OSError) as exc:
            _fail(str(exc), 1)


@click.group(cls=_ExitCodes, no_args_is_help=False)
def main():
    """Braid-group normal forms, crossing sequences and random braids."""


@main.command("normalize", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=_Decimal(), required=True)
@click.option("--report", is_flag=True, help="also print m and every block")
@click.option("--pretty", is_flag=True, help="print x-notation instead of integers")
@_max_steps
@click.argument("word_text")
def cmd_normalize(strands, report, pretty, max_steps, word_text):
    """Print the normal form of WORD_TEXT."""
    nf = normal_form(parse_word(word_text, strands), max_steps=max_steps)
    click.echo(format_word(nf_to_word(nf), pretty=pretty))
    if report:
        click.echo(f"m = {nf.m}")
        for k in range(3, strands + 1):
            click.echo(f"w{k} = {format_word(nf.block(k), pretty=pretty)}")


@main.command("crossings", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=_Decimal(), required=True)
@click.argument("word_text")
def cmd_crossings(strands, word_text):
    """Print the crossing sequence of WORD_TEXT."""
    click.echo(format_crossings(word_to_crossings(parse_word(word_text, strands))))


@main.command("from-crossings", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=_Decimal(), required=True)
@click.argument("crossing_text")
def cmd_from_crossings(strands, crossing_text):
    """Print the braid word of CROSSING_TEXT."""
    click.echo(format_word(crossings_to_word(parse_crossings(crossing_text, strands))))


@main.command("residue", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=_Decimal(), required=True)
@click.option("--strategy", "strategy_text", default="leftmost", show_default=True)
@_max_steps
@click.argument("crossing_text")
def cmd_residue(strands, strategy_text, max_steps, crossing_text):
    """Rewrite CROSSING_TEXT until no rule applies."""
    c = parse_crossings(crossing_text, strands)
    r = residue(c, _parse_strategy(strategy_text), max_steps=max_steps)
    click.echo(format_crossings(r))


@main.command("random")
@click.option("--strands", type=_Decimal(), required=True)
@click.option("--stop", "stop_text", required=True, help="comma-separated s_2,...,s_N")
@click.option("--seed", type=_Decimal(), default=0, show_default=True)
@click.option("--pretty", is_flag=True)
def cmd_random(strands, stop_text, seed, pretty):
    """Sample a random braid, printed in normal form."""
    # a wholly blank list has no entries (B_1 takes none); an empty entry is invalid
    stop = tuple(tok.strip() for tok in stop_text.split(",")) if stop_text.strip() else ()
    if not all(map(_DECIMAL.fullmatch, stop)):
        raise ValueError(f"cannot parse --stop {stop_text!r}: expected decimal numbers")
    params = RandomParams(strands, tuple(map(float, stop)), seed)
    click.echo(format_word(nf_to_word(random_braid(params)), pretty=pretty))


@main.command("equal", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=_Decimal(), required=True)
@_max_steps
@click.argument("word1")
@click.argument("word2")
def cmd_equal(strands, max_steps, word1, word2):
    """Print "equal" or "not-equal" for two words."""
    u = parse_word(word1, strands)
    v = parse_word(word2, strands)
    same = normal_form(u, max_steps=max_steps) == normal_form(v, max_steps=max_steps)
    click.echo("equal" if same else "not-equal")


@main.command("artin")
@_max_steps
@click.argument("action", type=click.Choice(["normalize", "equal"]))
@click.argument("words", nargs=-1)
def cmd_artin(max_steps, action, words):
    """Normal form or equality in the group <a, b | abab = baba>.

    Words use letters a, b with upper case for inverses, e.g. "abAB".
    """
    parsed = [artin_mod.parse_artin(t) for t in words]
    if action == "normalize":
        if len(parsed) != 1:
            raise ValueError("normalize takes exactly one word")
        nf = artin_mod.normalize_a(parsed[0], max_steps=max_steps)
        a_part = ("a" if nf.m >= 0 else "A") * abs(nf.m)
        click.echo(a_part + str(nf.w1))
        click.echo(f"m = {nf.m}", err=True)
    else:
        if len(parsed) != 2:
            raise ValueError("equal takes exactly two words")
        same = artin_mod.equal_a(parsed[0], parsed[1], max_steps=max_steps)
        click.echo("equal" if same else "not-equal")


@main.command("diagram", context_settings={"ignore_unknown_options": True})
@click.option("--strands", type=_Decimal(), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--bold", type=_Decimal(), default=None, help="highlight one strand")
@click.argument("word_text")
def cmd_diagram(strands, out_path, bold, word_text):
    """Write an SVG diagram of WORD_TEXT to --out."""
    svg = render_svg(parse_word(word_text, strands), bold=bold)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)


if __name__ == "__main__":
    main()
