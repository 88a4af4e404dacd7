"""Exception types raised across the package."""


class PairhullError(Exception):
    """Base class for all package-specific errors."""


class NegativeDenominator(PairhullError):
    """Closed fraction evaluated with a denominator below the zero band."""


class NotInAmbientBox(PairhullError):
    """Point violates the ambient domain x >= 0, X diag >= 0, X12 >= 0, z in [0,1]^2."""


class InputOutsideCtilde(PairhullError):
    """Separation query does not satisfy the relaxation the algorithm expects."""


class DegenerateGradient(PairhullError):
    """Supporting-cut gradient vanished or could not be stabilized."""


class NumericallyDegenerate(PairhullError):
    """Closed-form piece is numerically ill-posed at this point (e.g. W ~ 0)."""


class EmptyFeasibleSet(PairhullError):
    """The disjunction-weight interval of the witness problem is empty."""


class InfeasibleWitness(PairhullError):
    """Witness triple violates the witness-problem constraints beyond tolerance."""


class SeparationInvariantError(PairhullError):
    """A region that should never carry a violated system did; numeric diagnostic."""
