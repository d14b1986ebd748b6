"""The step-budget exception and the default step budget."""

DEFAULT_STEP_BUDGET = 10**6


class StepBudgetExceeded(RuntimeError):
    """A rewrite loop passed its step budget.

    Signals pathological length blowup, not incorrectness; callers may retry
    with a larger budget.  ``reached`` equals the loop's input in the group:
    the word of the strand being gathered (``gather_strand``, ``normal_form``),
    the ``CrossingSequence`` (``residue``) or the ``ArtinWord`` (``normalize_a``).
    """

    def __init__(self, budget: int, context: str = "", reached=None):
        self.budget = budget
        self.reached = reached
        msg = f"step budget of {budget} exceeded"
        if context:
            msg += f" while {context}"
        super().__init__(msg)
