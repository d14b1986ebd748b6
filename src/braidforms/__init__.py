"""Geometric normal forms in Artin braid groups.

Core objects are immutable braid words and crossing sequences; the gathering
engine computes the block-structured normal form, the rewriting engine does
the same at crossing level, and the random generator emits braids already in
normal form.

``import braidforms`` loads no engine.  Each public name below, and each of
the seven submodules that define them, is imported on first use (PEP 562),
so ``from braidforms import artin`` loads ``artin`` and what it imports, and
nothing else.
"""

import sys

# Each public name and the submodule that defines it.
_EXPORTS = {
    "ArtinNormalForm": "artin",
    "ArtinWord": "artin",
    "embed_b3": "artin",
    "equal_a": "artin",
    "gather_steps_a": "artin",
    "normalize_a": "artin",
    "parse_artin": "artin",
    "reflection_sequence": "artin",
    "Crossing": "crossings",
    "CrossingSequence": "crossings",
    "InvalidCrossing": "crossings",
    "classify": "crossings",
    "crossing": "crossings",
    "crossings_to_word": "crossings",
    "is_normal_form": "crossings",
    "materialize_automaton": "crossings",
    "validate": "crossings",
    "word_to_crossings": "crossings",
    "StepBudgetExceeded": "errors",
    "check_b3_parity": "gathering",
    "gather_strand": "gathering",
    "nf_to_word": "gathering",
    "normal_form": "gathering",
    "RandomParams": "randbraid",
    "allowed_moves": "randbraid",
    "random_block": "randbraid",
    "random_braid": "randbraid",
    "random_power": "randbraid",
    "LEFTMOST": "rewriting",
    "RIGHTMOST": "rewriting",
    "RewriteRule": "rewriting",
    "RewriteSite": "rewriting",
    "Strategy": "rewriting",
    "applicable_sites": "rewriting",
    "max_chain_length": "rewriting",
    "residue": "rewriting",
    "BraidWord": "words",
    "NormalForm": "words",
    "aij": "words",
    "concat": "words",
    "free_reduce": "words",
    "inverse": "words",
    "is_pure": "words",
    "permutation": "words",
    "word": "words",
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def _submodule(name):
    # __import__, unlike importlib.import_module, shows in -X importtime;
    # importing a submodule also binds it on the package
    qualified = f"{__name__}.{name}"
    __import__(qualified)
    return sys.modules[qualified]


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
