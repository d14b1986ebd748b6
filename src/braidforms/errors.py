"""The step-budget exception and the default step budget."""

DEFAULT_STEP_BUDGET = 10**6


class StepBudgetExceeded(RuntimeError):
    """A rewrite loop passed its step budget.

    Signals pathological length blowup, not incorrectness; callers may retry
    with a larger budget.  ``reached`` equals the loop's input in the group:
    the word of the strand being gathered (``gather_strand``), that word
    followed by the blocks already gathered (``normal_form``), the
    ``CrossingSequence`` (``residue``) or the ``ArtinWord`` (``normalize_a``).
    ``context`` is what the message says the loop was doing.
    """

    def __init__(self, budget: int, context: str = "", reached=None):
        self.budget = budget
        self.context = context
        self.reached = reached
        msg = f"step budget of {budget} exceeded"
        if context:
            msg += f" while {context}"
        super().__init__(msg)

    def __reduce__(self):
        # pickle and copy rebuild from the constructor's arguments, not the message
        return type(self), (self.budget, self.context, self.reached), self.__dict__
