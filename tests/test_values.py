"""Value semantics of the immutable record types, and what importing the
package costs."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from braidforms import (
    ArtinNormalForm,
    ArtinWord,
    BraidWord,
    CrossingSequence,
    NormalForm,
    RandomParams,
    RewriteRule,
    Strategy,
    crossing,
)

# (value, its fields in constructor order, its repr)
VALUES = [
    (
        BraidWord(4, (3, -2, -2, 1)),
        (4, (3, -2, -2, 1)),
        "BraidWord(strands=4, letters=(3, -2, -2, 1))",
    ),
    (
        NormalForm(4, 1, (BraidWord(4), BraidWord(4, (3, 2, -1)))),
        (4, 1, (BraidWord(4), BraidWord(4, (3, 2, -1)))),
        "NormalForm(strands=4, m=1, blocks=(BraidWord(strands=4, letters=()), "
        "BraidWord(strands=4, letters=(3, 2, -1))))",
    ),
    (
        CrossingSequence(4, (crossing(3, 4), crossing(2, 4, -1))),
        (4, (crossing(3, 4), crossing(2, 4, -1))),
        "CrossingSequence(strands=4, items=(Crossing(low=3, high=4, sign=1), "
        "Crossing(low=2, high=4, sign=-1)))",
    ),
    (ArtinWord((1, -2)), ((1, -2),), "ArtinWord(letters=(1, -2))"),
    (
        ArtinNormalForm(2, ArtinWord((2, -1))),
        (2, ArtinWord((2, -1))),
        "ArtinNormalForm(m=2, w1=ArtinWord(letters=(2, -1)))",
    ),
    (
        RandomParams(3, (0.5, 0.25), 7),
        (3, (0.5, 0.25), 7),
        "RandomParams(strands=3, stop=(0.5, 0.25), seed=7)",
    ),
    (
        RewriteRule("I1", 3, (crossing(1, 2), crossing(1, 3, -1))),
        ("I1", 3, (crossing(1, 2), crossing(1, 3, -1))),
        "RewriteRule(template='I1', length=3, replacement=(Crossing(low=1, high=2, "
        "sign=1), Crossing(low=1, high=3, sign=-1)))",
    ),
    (Strategy("leftmost"), ("leftmost", None), "Strategy(kind='leftmost', seed=None)"),
    (Strategy("random", 7), ("random", 7), "Strategy(kind='random', seed=7)"),
]
IDS = [type(v).__name__ for v, _, _ in VALUES]
FIELD_NAMES = {
    BraidWord: ("strands", "letters"),
    NormalForm: ("strands", "m", "blocks"),
    CrossingSequence: ("strands", "items"),
    ArtinWord: ("letters",),
    ArtinNormalForm: ("m", "w1"),
    RandomParams: ("strands", "stop", "seed"),
    RewriteRule: ("template", "length", "replacement"),
    Strategy: ("kind", "seed"),
}


@pytest.mark.parametrize("value, fields, text", VALUES, ids=IDS)
class TestValueSemantics:
    def test_repr(self, value, fields, text):
        assert repr(value) == text

    def test_keyword_construction(self, value, fields, text):
        names = FIELD_NAMES[type(value)]
        assert type(value)(**dict(zip(names, fields))) == value

    def test_equality_needs_the_same_class(self, value, fields, text):
        assert value == type(value)(*fields)
        assert value != fields
        assert fields != value

    def test_hash_is_the_field_tuples(self, value, fields, text):
        assert hash(value) == hash(fields)

    def test_fields_cannot_be_assigned(self, value, fields, text):
        for name in FIELD_NAMES[type(value)]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        assert repr(value) == text

    @pytest.mark.parametrize(
        "clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy]
    )
    def test_round_trips(self, value, fields, text, clone):
        other = clone(value)
        assert type(other) is type(value)
        assert other == value
        assert hash(other) == hash(value)


def test_import_pulls_in_neither_dataclasses_nor_inspect():
    """Importing ``dataclasses`` (and the ``inspect``, ``ast`` and ``dis`` it
    brings) used to be about half of the package's import time.  ``-S`` keeps
    whatever the site-packages hooks import out of the check."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, braidforms\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"
