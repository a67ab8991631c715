"""Exception types shared across the package, and the kind each one names."""


class ParameterError(ValueError):
    """A parameter is outside its admissible range."""


class QuadratureBudgetError(RuntimeError):
    """The subdivision budget was exhausted before reaching the tolerance.

    Carries the partial result so callers can decide whether it is usable.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class IndeterminateError(RuntimeError):
    """A sweep gave no verdict: its fitted m1 rate lies within
    phasescan.RATE_SIGN_CUTOFF of 0.

    Carries the sweep series that led to the tie.
    """

    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series


# the kind of each error class: what a phase point records in its place and
# what the command line maps to an exit code
KINDS = {
    ParameterError: "parameter",
    QuadratureBudgetError: "budget",
    IndeterminateError: "indeterminate",
}
