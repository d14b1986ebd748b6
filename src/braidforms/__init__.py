"""Geometric normal forms in Artin braid groups.

Core objects are immutable braid words and crossing sequences; the gathering
engine computes the block-structured normal form, the rewriting engine does
the same at crossing level, and the random generator emits braids already in
normal form.
"""

from .artin import (
    ArtinNormalForm,
    ArtinWord,
    embed_b3,
    equal_a,
    gather_steps_a,
    normalize_a,
    parse_artin,
    reflection_sequence,
)
from .crossings import (
    Crossing,
    CrossingSequence,
    InvalidCrossing,
    classify,
    crossing,
    crossings_to_word,
    materialize_automaton,
    validate,
    word_to_crossings,
)
from .errors import StepBudgetExceeded
from .gathering import (
    NormalForm,
    check_b3_parity,
    gather_strand,
    is_normal_form,
    nf_to_word,
    normal_form,
)
from .randbraid import (
    RandomParams,
    allowed_moves,
    random_block,
    random_braid,
    random_power,
)
from .rewriting import (
    LEFTMOST,
    RIGHTMOST,
    RewriteRule,
    RewriteSite,
    Strategy,
    applicable_sites,
    max_chain_length,
    residue,
)
from .words import (
    BraidWord,
    aij,
    concat,
    free_reduce,
    inverse,
    is_pure,
    permutation,
    word,
)

__all__ = [
    "ArtinNormalForm",
    "ArtinWord",
    "BraidWord",
    "Crossing",
    "CrossingSequence",
    "InvalidCrossing",
    "LEFTMOST",
    "NormalForm",
    "RIGHTMOST",
    "RandomParams",
    "RewriteRule",
    "RewriteSite",
    "StepBudgetExceeded",
    "Strategy",
    "aij",
    "allowed_moves",
    "applicable_sites",
    "check_b3_parity",
    "classify",
    "concat",
    "crossing",
    "crossings_to_word",
    "embed_b3",
    "equal_a",
    "free_reduce",
    "gather_steps_a",
    "gather_strand",
    "inverse",
    "is_normal_form",
    "is_pure",
    "materialize_automaton",
    "max_chain_length",
    "nf_to_word",
    "normal_form",
    "normalize_a",
    "parse_artin",
    "permutation",
    "random_block",
    "random_braid",
    "random_power",
    "reflection_sequence",
    "residue",
    "validate",
    "word",
    "word_to_crossings",
]
