"""Command-line interface: text formats, exit codes, thin-adapter behavior."""

import click.testing
import pytest

from braidforms import cli
from braidforms.cli import (
    format_crossings,
    format_word,
    parse_crossings,
    parse_word,
)
from braidforms.crossings import sequence
from braidforms.words import word


@pytest.fixture()
def runner():
    return click.testing.CliRunner()


def run(runner, *args):
    return runner.invoke(cli.main, list(args))


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
        res = run(runner, "residue", "--strands", "3", "--strategy", "magic", "1,2")
        assert res.exit_code == 1

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
