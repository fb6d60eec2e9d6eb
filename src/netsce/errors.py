"""Exceptions and warnings shared across the package."""


class NetsceError(Exception):
    """Base class for package errors."""


class UsageError(NetsceError):
    """Bad inputs: malformed scenarios, invalid parameters, wrong mode.

    The command-line driver maps this to exit code 1.
    """


class NumericError(NetsceError):
    """Numerical failure: singular solve, non-convergence, overflow.

    The command-line driver maps this to exit code 2.
    """


class NotSymmetrizableError(NetsceError):
    """Raised when no positive diagonal rescaling symmetrizes the matrix.

    ``reason`` is one of ``"sign"`` (an asymmetric sign pattern) or
    ``"cycle"`` (inconsistent weight-ratio product around a cycle);
    ``detail`` carries the offending index pair or cycle.
    """

    def __init__(self, reason, detail):
        self.reason = reason
        self.detail = detail
        super().__init__(f"not symmetrizable ({reason}): {detail}")


class CapBindingWarning(UserWarning):
    """An action came within 1e-6 of its upper bound.

    Results that push against the action cap usually mean the cap was set
    too small for the game at hand and the reported values are artifacts of
    the truncation.
    """
