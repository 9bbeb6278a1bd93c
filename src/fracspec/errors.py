"""Exception types raised when a numerical guarantee cannot be met.

Parameter mistakes (bad shapes, out-of-range values) raise plain ValueError
or TypeError.  The classes below mark runtime violations of the solver's
numerical contracts and map to exit code 2 in the command line tool.
"""


class NumericalContractError(Exception):
    """Base class for violations of the solver's numerical guarantees."""


class PositiveEigenvalue(NumericalContractError):
    """An eigenvalue outside the kernel mode is not strictly negative."""


class SingularMatrix(NumericalContractError):
    """Condition number requested for a singular matrix."""


class PositiveEntry(NumericalContractError):
    """An entry expected to be nonpositive exceeded the tolerance band."""


class PoleError(NumericalContractError):
    """Evaluation requested at or too close to a gamma-function pole."""


class NoConvergence(NumericalContractError):
    """A series evaluation failed to meet its convergence bound."""


class QuadratureError(NumericalContractError):
    """A reference quadrature failed its internal self-consistency check."""


class DegenerateExponent(NumericalContractError):
    """Self-similar exponents are undefined for this (n, s, p) combination."""


class NonFiniteState(NumericalContractError):
    """The evolved state picked up NaN or infinite entries."""
