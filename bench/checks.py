"""Verification of benchmark results, run outside the timed region.

Each checker compares one operation's result with an answer that does not
come from the engine the workload times: verdicts fixed by how the inputs
were built, the strand permutation and crossing trace recomputed here, the
Burau oracle, and, for the rewriting engine, the gathering engine.  A checker
returns a list of problems; an empty list means the result is right.
"""

from __future__ import annotations

from braidforms import artin, gathering, oracle, randbraid, rewriting
from braidforms.crossings import CrossingSequence, crossing
from braidforms.words import BraidWord

# Burau matrices cost O(N * L^2) Laurent-polynomial work; words longer than
# this (in letters) are checked by permutation only.
BURAU_CAP = 32


def nf_letters(nf) -> tuple[int, ...]:
    """x1^m followed by the blocks, flattened without calling the engine."""
    out = (1 if nf.m >= 0 else -1,) * abs(nf.m)
    for block in nf.blocks:
        out += block.letters
    return out


def perm(strands: int, letters) -> tuple[int, ...]:
    arr = list(range(1, strands + 1))
    for t in letters:
        i = abs(t) - 1
        arr[i], arr[i + 1] = arr[i + 1], arr[i]
    return tuple(arr)


def trace_crossings(strands: int, letters) -> tuple:
    """Crossing items of a word, from a direct trace of the arrangement."""
    arr = list(range(1, strands + 1))
    items = []
    for t in letters:
        i = abs(t) - 1
        items.append(crossing(arr[i], arr[i + 1], 1 if t > 0 else -1))
        arr[i], arr[i + 1] = arr[i + 1], arr[i]
    return tuple(items)


def first_invalid(c: CrossingSequence) -> int | None:
    """1-based position of the first crossing of non-adjacent strands."""
    where = list(range(c.strands + 1))  # where[s] = position of strand s
    at = list(range(c.strands + 1))  # at[p] = strand at position p
    for pos, item in enumerate(c.items, start=1):
        p, q = where[item.low], where[item.high]
        if abs(p - q) != 1:
            return pos
        at[p], at[q] = at[q], at[p]
        where[at[p]], where[at[q]] = p, q
    return None


def _sound(strands: int, word_letters, nf) -> list[str]:
    out = nf_letters(nf)
    if perm(strands, out) != perm(strands, word_letters):
        return ["normal form changes the strand permutation"]
    if len(out) <= BURAU_CAP and oracle.burau(
        BraidWord(strands, out)
    ) != oracle.burau(BraidWord(strands, word_letters)):
        return ["normal form changes the Burau matrix"]
    return []


def check_word_problem(op, result) -> list[str]:
    if op.kind == "roundtrip":
        sampled, again = result
        return [] if again == sampled else ["sampled normal form is not a fixed point"]
    u, v = op.args
    verdict, nu, nv = result
    problems = []
    if verdict != op.expect:
        problems.append(f"verdict {verdict}, built as {op.expect}")
    problems += _sound(u.strands, u.letters, nu)
    if not op.expect:
        problems += _sound(v.strands, v.letters, nv)
    return problems


def residue_reference(c: CrossingSequence) -> tuple:
    """Crossings of the gathering normal form of the sequence's braid."""
    at = list(range(c.strands + 1))
    where = list(range(c.strands + 1))
    letters = []
    for item in c.items:
        p = min(where[item.low], where[item.high])
        letters.append(p * item.sign)
        at[p], at[p + 1] = at[p + 1], at[p]
        where[at[p]], where[at[p + 1]] = p, p + 1
    nf = gathering.normal_form(BraidWord(c.strands, tuple(letters)))
    return trace_crossings(c.strands, nf_letters(nf))


def check_rewrite(op, result, agreed: dict) -> list[str]:
    """``agreed`` maps a core index to the first residue seen for it, so
    residues of one input under different strategies are compared."""
    if op.kind == "residue":
        index, c, _ = op.args
        items = result.items
        problems = []
        if index not in agreed:
            agreed[index] = items
            if items != residue_reference(c):
                problems.append("residue differs from the gathering normal form")
        elif items != agreed[index]:
            problems.append("residue depends on the strategy")
        return problems
    w, c, bad = op.args
    c2, w2, valid, bad_valid, bad_pos = result
    problems = []
    if c2.items != trace_crossings(w.strands, w.letters):
        problems.append("word_to_crossings differs from the arrangement trace")
    if w2.letters != w.letters:
        problems.append("crossings_to_word does not invert word_to_crossings")
    if valid is not True or bad_valid is not False:
        problems.append("validate gives the wrong verdict")
    if bad_pos != op.expect:
        problems.append(f"invalid crossing reported at {bad_pos}, expected {op.expect}")
    return problems


def artin_letters(nf) -> tuple[int, ...]:
    return (1 if nf.m >= 0 else -1,) * abs(nf.m) + nf.w1.letters


def check_artin(op, result) -> list[str]:
    if op.kind == "equal":
        return [] if result == op.expect else [f"verdict {result}, built as {op.expect}"]
    (w,) = op.args
    as_word = artin.ArtinWord(artin_letters(result))
    problems = []
    if not artin.equal_a(w, as_word):
        problems.append("normal form is not equal to its input by equal_a")
    if oracle.burau(artin.embed_b3(as_word)) != oracle.burau(artin.embed_b3(w)):
        problems.append("normal form changes the Burau matrix of the B3 embedding")
    return problems


def format_word(letters) -> str:
    return " ".join(str(t) for t in letters)


def format_crossings(items) -> str:
    return " ".join(("-" if x.sign < 0 else "") + f"{x.low},{x.high}" for x in items)


def cli_expected(spec) -> tuple[int, str, str | None]:
    """(exit code, stdout, diagram text) the CLI must produce for ``spec``,
    computed in process from the library."""
    kind, *data = spec
    if kind == "normalize":
        (w,) = data
        return 0, format_word(nf_letters(gathering.normal_form(w))) + "\n", None
    if kind in ("equal", "artin-equal"):
        return 0, "equal\n", None  # the second word is a relation-move copy
    if kind == "residue":
        c, strategy = data
        return 0, format_crossings(rewriting.residue(c, strategy).items) + "\n", None
    if kind == "crossings":
        (w,) = data
        return 0, format_crossings(trace_crossings(w.strands, w.letters)) + "\n", None
    if kind == "from-crossings":
        (w,) = data  # the crossings on the command line are those of w
        return 0, format_word(w.letters) + "\n", None
    if kind == "random":
        (params,) = data
        return 0, format_word(nf_letters(randbraid.random_braid(params))) + "\n", None
    if kind == "artin-normalize":
        (w,) = data
        nf = artin.normalize_a(w)
        return 0, ("a" if nf.m >= 0 else "A") * abs(nf.m) + str(nf.w1) + "\n", None
    if kind == "diagram":
        w, _path = data
        from braidforms import diagram

        return 0, "", diagram.render_svg(w)
    if kind == "exit":
        (code,) = data
        return code, "", None
    raise ValueError(f"unknown CLI spec {kind!r}")


def check_cli(op, result) -> list[str]:
    code, stdout = result
    want_code, want_out, want_svg = cli_expected(op.expect)
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if stdout != want_out:
        problems.append(f"stdout {stdout!r}, expected {want_out!r}")
    if want_svg is not None:
        path = op.expect[2]
        try:
            with open(path, encoding="utf-8") as fh:
                if fh.read() != want_svg:
                    problems.append("diagram file differs from render_svg")
        except OSError as exc:
            problems.append(f"diagram file unreadable: {exc}")
    return problems
