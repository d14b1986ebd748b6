"""Command-line interface: text formats, exit codes, thin-adapter behavior."""

import errno

import click.testing
import pytest

from braidforms import cli
from braidforms.cli import (
    format_crossings,
    format_word,
    parse_crossings,
    parse_word,
)
from braidforms.words import word

from .test_crossings import sequence


@pytest.fixture()
def runner():
    return click.testing.CliRunner()


def run(runner, *args):
    return runner.invoke(cli.main, list(args))


def test_engine_functions_are_module_level_names():
    """The traced ``cli_oneshot`` benchmark run (``bench/spans.py``) wraps
    these names on the ``cli`` module, and tests patch ``normal_form``
    there, so the commands must look them up at module level."""
    from braidforms import crossings, diagram, gathering, randbraid, rewriting

    homes = {
        "normal_form": gathering,
        "residue": rewriting,
        "word_to_crossings": crossings,
        "crossings_to_word": crossings,
        "random_braid": randbraid,
        "render_svg": diagram,
    }
    for name, home in homes.items():
        assert vars(cli)[name] is getattr(home, name)


NEGATIVE_BUDGET = "Error: Invalid value for '--max-steps'"


class TestUsageErrors:
    """Click's usage errors are input errors: exit 1, click's message kept."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["normalize", "1"], "Error: Missing option '--strands'."),
            (["normalize", "--strands", "x", "1"], "Error: Invalid value for '--strands'"),
            (["frob"], "Error: No such command 'frob'."),
            (["--bogus"], "Error: No such option"),
            (["artin", "frob", "a"], "Error: Invalid value for '{normalize|equal}'"),
            ([], "Error: Missing command."),
            (["normalize", "--strands", "3", "--max-steps", "-1", "1 2"], NEGATIVE_BUDGET),
            (["equal", "--strands", "3", "--max-steps", "-1", "1", "1"], NEGATIVE_BUDGET),
            (["residue", "--strands", "3", "--max-steps", "-1", "1,2 -1,2"], NEGATIVE_BUDGET),
            (["artin", "--max-steps", "-1", "normalize", "ab"], NEGATIVE_BUDGET),
        ],
    )
    def test_exits_1(self, runner, args, message):
        res = run(runner, *args)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert message in res.stderr
        assert "Usage: " in res.stderr

    def test_directory_as_out_exits_1(self, runner, tmp_path):
        res = run(runner, "diagram", "--strands", "3", "--out", str(tmp_path), "1")
        assert res.exit_code == 1
        assert "is a directory" in res.stderr

    @pytest.mark.parametrize("args", [["--help"], ["normalize", "--help"]])
    def test_help_exits_0(self, runner, args):
        res = run(runner, *args)
        assert res.exit_code == 0
        assert res.stdout.startswith("Usage: ")


class TestTextFormats:
    def test_word_round_trip(self):
        w = word(4, [3, -2, -2, 1])
        assert parse_word(format_word(w), 4) == w

    def test_pretty_format(self):
        assert format_word(word(3, [1, -2]), pretty=True) == "x1 x2^-1"

    def test_crossing_round_trip(self):
        c = sequence(4, [(3, 4, 1), (2, 4, -1), (1, 2, 1)])
        assert parse_crossings(format_crossings(c), 4) == c

    def test_crossing_token_requires_order(self):
        with pytest.raises(ValueError):
            parse_crossings("4,3", 4)

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            parse_word("x1", 3)
        with pytest.raises(ValueError):
            parse_crossings("1;2", 3)

    def test_signs_and_leading_zeros(self):
        assert parse_word("+1 -02 003", 4) == word(4, [1, -2, 3])
        assert parse_crossings("-01,2 2,03", 3) == sequence(3, [(1, 2, -1), (2, 3, 1)])


class TestPlainDecimalsOnly:
    """``int`` alone would read these, in a word, a crossing token, an
    integer option or a strategy seed: underscores, non-ASCII digits,
    spaces, a doubled sign, or a sign inside a crossing token; and
    ``float`` these, in a ``--stop`` entry."""

    @pytest.mark.parametrize(
        "strands, text", [(20, "1_0"), (4, "+1 ٢"), (4, "１"), (4, "--1"), (4, "+-1")]
    )
    def test_word_exits_1(self, runner, strands, text):
        res = run(runner, "normalize", "--strands", str(strands), text)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == f"cannot parse word {text!r}: expected signed integers\n"

    @pytest.mark.parametrize("token", ["--1,2", "1,-2", "+1,2", "1_0,2", "١,2", "-1,2,3"])
    def test_crossing_exits_1(self, runner, token):
        res = run(runner, "from-crossings", "--strands", "3", "--", f"1,2 {token}")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == f"cannot parse crossing token {token!r}\n"

    @pytest.mark.parametrize(
        "option, args",
        [
            ("--strands", ["normalize", "--strands", "1_0", "9"]),
            ("--strands", ["normalize", "--strands", "٣", "1"]),
            ("--strands", ["normalize", "--strands", "+-3", "1"]),
            ("--seed", ["random", "--strands", "3", "--stop", "0.5,0.5", "--seed", "1_0"]),
            ("--seed", ["random", "--strands", "3", "--stop", "0.5,0.5", "--seed", "--1"]),
            ("--bold", ["diagram", "--strands", "3", "--out", "x.svg", "--bold", "１", "1"]),
            ("--max-steps", ["normalize", "--strands", "3", "--max-steps", "1_0", "1"]),
        ],
    )
    def test_option_exits_1(self, runner, option, args):
        res = run(runner, *args)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert f"Error: Invalid value for '{option}'" in res.stderr

    @pytest.mark.parametrize("strategy", ["random:٧", "random: 7", "random:--7"])
    def test_strategy_seed_exits_1(self, runner, strategy):
        res = run(runner, "residue", "--strands", "3", "--strategy", strategy, "1,2")
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith(f"bad strategy {strategy!r}")

    @pytest.mark.parametrize(
        "stop",
        [
            "٠.٥,0.5", "0.2_5,0.5", "0.5,１", "inf,0.5", "nan,0.5", "-0.5,0.5", ".5,0.5",
            "0.4,,0.4", ",0.4,0.4", "0.4,0.4,", "0.4, ,0.4",
        ],
    )
    def test_stop_exits_1(self, runner, stop):
        # float() reads each of the first seven, and RandomParams takes
        # "0.2_5" and the Arabic-Indic "٠.٥" as 0.25 and 0.5; the last four
        # hold an empty entry, which is no decimal number either
        res = run(runner, "random", "--strands", "3", "--stop", stop)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr == f"cannot parse --stop {stop!r}: expected decimal numbers\n"

    @pytest.mark.parametrize("stop", ["1.0,1", "0.4, 0.4", "0.00003,3e-05", "1E0,0.5e+0"])
    def test_stop_decimals_read(self, runner, stop):
        res = run(runner, "random", "--strands", "3", "--stop", stop, "--seed", "2")
        assert res.exit_code == 0, res.stderr


class TestNormalize:
    def test_example(self, runner):
        res = run(runner, "normalize", "--strands", "4", "3 -2 -2 1")
        assert res.exit_code == 0
        assert res.output.strip() == "1 3 2 -1 -1 -2"

    def test_report(self, runner):
        res = run(runner, "normalize", "--strands", "4", "--report", "3 -2 -2 1")
        assert "m = 1" in res.output
        assert "w4 = 3 2 -1 -1 -2" in res.output

    def test_pretty(self, runner):
        res = run(runner, "normalize", "--strands", "4", "--pretty", "3 -2 -2 1")
        assert res.output.strip() == "x1 x3 x2 x1^-1 x1^-1 x2^-1"

    def test_bad_input_exits_1(self, runner):
        res = run(runner, "normalize", "--strands", "3", "1 x")
        assert res.exit_code == 1

    def test_budget_exceeded_exits_2(self, runner):
        blowup = " ".join(map(str, (3, 3, 2, 2, 1, 1, 2, 2) * 4))
        res = run(runner, "normalize", "--strands", "4", "--max-steps", "5", blowup)
        assert res.exit_code == 2

    def test_closed_stdout_exits_1_quietly(self, runner, monkeypatch):
        def closed(*args, **kwargs):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(cli, "normal_form", closed)
        res = run(runner, "normalize", "--strands", "3", "1")
        assert res.exit_code == 1
        assert res.stderr == ""


class TestCrossings:
    def test_forward(self, runner):
        res = run(runner, "crossings", "--strands", "4", "3 -2 -2 1")
        assert res.output.strip() == "3,4 -2,4 -2,4 1,2"

    def test_backward(self, runner):
        res = run(runner, "from-crossings", "--strands", "4",
                  "1,2 3,4 1,4 -2,4 -2,4 -1,4")
        assert res.output.strip() == "1 3 2 -1 -1 -2"

    def test_invalid_crossing_message_and_code(self, runner):
        res = run(runner, "from-crossings", "--strands", "3", "-1,3")
        assert res.exit_code == 1
        assert "invalid crossing at position 1" in res.output

    def test_round_trip_via_pipe(self, runner):
        first = run(runner, "crossings", "--strands", "4", "3 -2 -2 1")
        second = run(runner, "from-crossings", "--strands", "4", first.output.strip())
        assert second.output.strip() == "3 -2 -2 1"


class TestResidue:
    def test_example(self, runner):
        res = run(runner, "residue", "--strands", "4", "3,4 -2,4 -2,4 1,2")
        assert res.output.strip() == "1,2 3,4 1,4 -2,4 -2,4 -1,4"

    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost", "random:3"])
    def test_strategies_agree(self, runner, strategy):
        res = run(runner, "residue", "--strands", "4", "--strategy", strategy,
                  "3,4 -2,4 -2,4 1,2")
        assert res.output.strip() == "1,2 3,4 1,4 -2,4 -2,4 -1,4"

    def test_bad_strategy(self, runner):
        for strategy in ("bogus", "random:x"):
            res = run(runner, "residue", "--strands", "3", "--strategy", strategy, "1,2")
            assert res.exit_code == 1
            assert res.stdout == ""
            assert res.stderr == (
                f"bad strategy {strategy!r}: expected leftmost, rightmost or random:SEED\n"
            )

    def test_invalid_sequence(self, runner):
        res = run(runner, "residue", "--strands", "3", "-1,3")
        assert res.exit_code == 1


class TestRandom:
    def test_trivial_when_stop_certain(self, runner):
        res = run(runner, "random", "--strands", "2", "--stop", "1.0", "--seed", "7")
        assert res.exit_code == 0
        assert res.output.strip() == ""

    def test_deterministic(self, runner):
        args = ("random", "--strands", "4", "--stop", "0.4,0.4,0.4", "--seed", "5")
        assert run(runner, *args).output == run(runner, *args).output

    def test_output_is_normalize_fixed_point(self, runner):
        for seed in range(5):
            res = run(runner, "random", "--strands", "4", "--stop", "0.4,0.4,0.4",
                      "--seed", str(seed))
            out = res.output.strip()
            res2 = run(runner, "normalize", "--strands", "4", "--", out or " ")
            assert res2.output.strip() == out

    def test_bad_stop_list(self, runner):
        res = run(runner, "random", "--strands", "3", "--stop", "0.4")
        assert res.exit_code == 1

    def test_blank_stop_lists_no_entries(self, runner):
        res = run(runner, "random", "--strands", "1", "--stop", "")
        assert res.exit_code == 0, res.stderr
        assert res.output.strip() == ""


class TestEqual:
    def test_braid_relation(self, runner):
        res = run(runner, "equal", "--strands", "3", "1 2 1", "2 1 2")
        assert res.output.strip() == "equal"

    def test_distinct_generators(self, runner):
        res = run(runner, "equal", "--strands", "3", "1", "2")
        assert res.output.strip() == "not-equal"

    def test_word_with_itself(self, runner):
        res = run(runner, "equal", "--strands", "4", "3 -2 1", "3 -2 1")
        assert res.output.strip() == "equal"


class TestArtin:
    def test_equal_relation(self, runner):
        res = run(runner, "artin", "equal", "abab", "baba")
        assert res.output.strip() == "equal"

    def test_normalize(self, runner):
        res = run(runner, "artin", "normalize", "ab")
        assert res.output.splitlines()[0] == "ab"
        assert "m = 1" in res.output

    def test_normalize_empty(self, runner):
        res = run(runner, "artin", "normalize", "")
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == ""

    def test_arity_checked(self, runner):
        assert run(runner, "artin", "normalize", "a", "b").exit_code == 1
        assert run(runner, "artin", "equal", "a").exit_code == 1

    def test_bad_letters(self, runner):
        assert run(runner, "artin", "normalize", "xyz").exit_code == 1

    def test_normalize_budget_exceeded_exits_2(self, runner):
        res = run(runner, "artin", "normalize", "--max-steps", "1", "bbabba")
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_equal_budget_exceeded_exits_2(self, runner):
        res = run(runner, "artin", "equal", "--max-steps", "1", "bbabba", "abab")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "step budget of 1 exceeded while normalizing Artin word\n"


class TestDiagram:
    def test_renders_file(self, runner, tmp_path):
        out = tmp_path / "braid.svg"
        res = run(runner, "diagram", "--strands", "4", "--out", str(out), "3 -2 -2 1")
        assert res.exit_code == 0
        text = out.read_text()
        assert text.startswith("<svg")

    def test_deterministic_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(runner, "diagram", "--strands", "3", "--out", str(a), "1 -2")
        run(runner, "diagram", "--strands", "3", "--out", str(b), "1 -2")
        assert a.read_bytes() == b.read_bytes()

    def test_bold_range_checked(self, runner, tmp_path):
        out = tmp_path / "x.svg"
        res = run(runner, "diagram", "--strands", "3", "--bold", "9",
                  "--out", str(out), "1")
        assert res.exit_code == 1
