"""Exception hierarchy.

ValidationError covers violated hypotheses and malformed inputs (CLI exit
code 2).  NumericalError covers failures of the numerical machinery itself
(CLI exit code 3).
"""


class BeamspecError(Exception):
    pass


class ValidationError(BeamspecError):
    pass


class NumericalError(BeamspecError):
    pass


class TooCoarse(ValidationError):
    """Grid has fewer interior nodes than the minimum supported."""


class GridMismatch(ValidationError):
    """Operands sampled on different grids."""


class NotInWeightClass(ValidationError):
    """Weight lacks the sign content required for the requested spectrum."""


class TrivialFunction(ValidationError):
    """Operation requires a nontrivial function."""


class OutOfDomain(ValidationError):
    """Point lies outside the open interval (0, 1)."""


class BoundaryViolation(ValidationError):
    """Function does not satisfy the simply supported boundary conditions."""


class AsymptoticMismatch(ValidationError):
    """Declared asymptotic slopes disagree with sampled behaviour."""


class GammaNotAdmissible(ValidationError):
    """Coupling parameter lies outside both admissible intervals."""


class NoSignChange(ValidationError):
    """Bracket endpoints do not straddle a root."""


class HypothesisViolated(ValidationError):
    """Comparison-theorem hypotheses fail on the supplied data."""


class OnEigenvalue(NumericalError):
    """Requested shift is numerically indistinguishable from an eigenvalue."""


class NodalMismatch(NumericalError):
    """Computed eigenfunction has zeros the grid cannot certify (grid too
    coarse, or an amplitude below the float floor)."""


class NoConvergence(NumericalError):
    """Newton iteration exhausted its budget."""


class SingularJacobian(NumericalError):
    """Linearization is numerically singular (parameter at a bifurcation)."""


class StartFailure(NumericalError):
    """Could not polish a branch start point even after shrinking amplitude."""


class StepFailure(NumericalError):
    """Continuation step failed at the minimum step size."""


class NoCrossing(NumericalError):
    """Branch never reached the target parameter plane within budget."""
