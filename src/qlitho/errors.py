"""Shared exception types."""


class ToleranceError(RuntimeError):
    """An internal numerical consistency check exceeded its tolerance.

    Raised when two results that must agree (for example a simulated
    fringe against its analytic form, or the optimizer's fitness against
    that of the dose it emits) drift apart by more than the advertised
    bound.  The command-line driver maps this to exit
    status 4.
    """
