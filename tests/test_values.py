"""Value semantics of the immutable record types and the library's
exceptions, and what importing the package costs."""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import braidforms
from braidforms import (
    ArtinNormalForm,
    ArtinWord,
    BraidWord,
    CrossingSequence,
    InvalidCrossing,
    NormalForm,
    RandomParams,
    RewriteRule,
    StepBudgetExceeded,
    Strategy,
    crossing,
)
from braidforms.words import Record

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
CLONES = [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy]
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

    def test_trusted_builds_the_same_value(self, value, fields, text):
        other = type(value)._trusted(*fields)
        assert other == value
        assert hash(other) == hash(value)
        assert repr(other) == text
        for name in FIELD_NAMES[type(value)]:
            with pytest.raises(AttributeError):
                setattr(other, name, None)

    def test_every_slot_is_set(self, value, fields, text):
        names = FIELD_NAMES[type(value)]
        assert type(value).__slots__ == names
        for built in (value, type(value)._trusted(*fields)):
            assert tuple(getattr(built, name) for name in names) == fields

    @pytest.mark.parametrize("clone", CLONES)
    def test_round_trips(self, value, fields, text, clone):
        other = clone(value)
        assert type(other) is type(value)
        assert other == value
        assert hash(other) == hash(value)

    @pytest.mark.parametrize("clone", CLONES)
    def test_trusted_round_trips(self, value, fields, text, clone):
        other = clone(type(value)._trusted(*fields))
        assert type(other) is type(value)
        assert other == value
        assert hash(other) == hash(value)
        assert repr(other) == text


def test_every_record_class_is_audited():
    """``VALUES`` and ``FIELD_NAMES`` cover every ``Record`` subclass the
    package defines, found after importing each of its modules."""
    for module in pkgutil.iter_modules(braidforms.__path__):
        importlib.import_module(f"braidforms.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("braidforms."):
                found.add(cls)
    assert found == set(FIELD_NAMES) == {type(v) for v, _, _ in VALUES}


@pytest.mark.parametrize("names", [(), ("a", "b", "c", "d")], ids=["none", "four"])
def test_records_of_other_arities_are_refused_at_class_creation(names):
    """Each record class gets constructors made for 1, 2 or 3 fields, the
    arities the package uses."""
    with pytest.raises(TypeError, match=rf"\.Other has {len(names)} fields; a Record has 1, 2 or 3$"):

        class Other(Record):
            __slots__ = names


# (error, its message, the attributes it carries)
ERRORS = [
    (
        StepBudgetExceeded(5, "gathering strand 4", BraidWord(5, (4, 4, 3))),
        "step budget of 5 exceeded while gathering strand 4",
        ("budget", "context", "reached"),
    ),
    (StepBudgetExceeded(7), "step budget of 7 exceeded", ("budget", "context", "reached")),
    (
        InvalidCrossing(2, crossing(1, 3, -1)),
        "invalid crossing at position 2: Crossing(low=1, high=3, sign=-1)",
        ("position", "item"),
    ),
]


@pytest.mark.parametrize("error, message, names", ERRORS, ids=["budget", "bare", "crossing"])
@pytest.mark.parametrize("clone", CLONES, ids=["pickle", "copy", "deepcopy"])
def test_errors_round_trip(error, message, names, clone):
    """Pickling is how an error crosses a process boundary, as from a
    ``concurrent.futures`` worker."""
    other = clone(error)
    assert type(other) is type(error)
    assert str(other) == str(error) == message
    assert other.args == error.args
    for name in names:
        assert getattr(other, name) == getattr(error, name)


def fresh(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter that imports braidforms
    from this checkout.  ``-S`` keeps whatever the site-packages hooks import
    out of the check."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return out.stdout.strip()


def loaded_after(statement: str) -> list:
    """The braidforms modules that ``statement`` loads in a fresh interpreter."""
    listing = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'braidforms'))"
    return fresh(f"import sys\n{statement}\n{listing}").split()


def test_import_pulls_in_neither_dataclasses_nor_inspect():
    """Importing ``dataclasses`` (and the ``inspect``, ``ast`` and ``dis`` it
    brings) used to be about half of the package's import time."""
    code = (
        "import sys, braidforms\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert fresh(code) == "[]"


def package(*names: str) -> list:
    return sorted(["braidforms", *(f"braidforms.{name}" for name in names)])


ARTIN_ONLY = package("artin", "errors", "words")
CROSSINGS_ONLY = package("crossings", "words")
GATHERING_ONLY = package("errors", "gathering", "patterns", "words")


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import braidforms", ["braidforms"]),
        ("import braidforms; dir(braidforms); braidforms.__all__", ["braidforms"]),
        ("from braidforms import artin", ARTIN_ONLY),
        ("from braidforms import normalize_a", ARTIN_ONLY),
        # the table, not the gathering engine, is what residue reads
        (
            "from braidforms import rewriting",
            package("crossings", "errors", "patterns", "rewriting", "words"),
        ),
        ("from braidforms import crossings", CROSSINGS_ONLY),
        ("from braidforms import is_normal_form", CROSSINGS_ONLY),
        # the sampler emits normal forms without gathering
        ("from braidforms import randbraid", package("randbraid", "words")),
        ("from braidforms import diagram", package("diagram", "words")),
        ("from braidforms import patterns", package("patterns")),
        ("from braidforms import NormalForm", package("words")),
    ],
)
def test_import_loads_only_the_engines_used(statement, loaded):
    assert loaded_after(statement) == loaded


def test_gathering_loads_no_other_engine():
    """Not even ``crossings``: the gathering kernel never reads crossings."""
    assert loaded_after("from braidforms import gathering") == GATHERING_ONLY


def test_public_names_are_their_submodules_objects():
    """Each name is read through the package first, then compared with the
    module its value says it comes from."""
    code = (
        "import sys, braidforms\n"
        "listed = dir(braidforms)\n"
        "for name in braidforms.__all__:\n"
        "    value = getattr(braidforms, name)\n"
        "    home = sys.modules[value.__module__]\n"
        "    if name not in listed or home is braidforms or getattr(home, name) is not value:\n"
        "        print(name)\n"
    )
    assert fresh(code) == ""


def test_star_import_binds_exactly_all():
    code = (
        "import braidforms\n"
        "ns = {}\n"
        "exec('from braidforms import *', ns)\n"
        "print(len(braidforms.__all__), sorted(set(ns) - {'__builtins__'} ^ set(braidforms.__all__)))"
    )
    assert fresh(code) == "45 []"


def test_submodules_are_attributes_after_a_bare_import():
    """The seven engines are package attributes; other submodules, such as
    ``diagram`` (or ``cli``, which needs click from site-packages), are
    imported only by name."""
    code = (
        "import braidforms\n"
        "names = 'artin crossings errors gathering randbraid rewriting words'.split()\n"
        "print(all(hasattr(braidforms, name) for name in names))\n"
        "print(braidforms.gathering.normal_form(braidforms.word(4, [3, -2, -2, 1])).m)\n"
        "print(hasattr(braidforms, 'diagram'))\n"
        "from braidforms import diagram\n"
        "print(diagram.__name__)"
    )
    assert fresh(code).split() == ["True", "1", "False", "braidforms.diagram"]


def test_unknown_names_raise_attribute_error():
    import braidforms

    with pytest.raises(AttributeError, match=r"^module 'braidforms' has no attribute 'nope'$"):
        braidforms.nope
    assert not hasattr(braidforms, "nope")
