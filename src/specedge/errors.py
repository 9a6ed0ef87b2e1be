"""Exception hierarchy for the specedge library.

Every library-raised error derives from SpecEdgeError so callers (and the
CLI) can map failures to exit codes: input/validation problems, numerical
failures, and violated test preconditions are distinct subtrees.
"""


class SpecEdgeError(Exception):
    """Base class for all specedge errors."""


class InputError(SpecEdgeError):
    """Invalid inputs: bad populations, designs, shapes, or domains."""


class PopulationError(InputError):
    """A population spec violates its invariants."""


class DesignError(InputError):
    """A MANOVA design violates its invariants."""


class ShapeError(InputError):
    """Matrix arguments with non-conforming shapes."""


class DomainError(InputError):
    """Scalar argument outside its mathematical domain."""


class UndefinedAtZero(DomainError):
    """The density is not defined at 0 unless rank(T) exceeds N."""


class NumericalError(SpecEdgeError):
    """Numerical failures: non-convergence, lost brackets, ambiguity."""


class PoleProximity(NumericalError):
    """Evaluation point too close to a pole; caller must re-bracket."""


class NonConvergence(NumericalError):
    """An iteration ran out of budget or could not certify its root."""


class BracketFailure(NumericalError):
    """Extremum search could not certify the number of edges."""


class ClusterAmbiguity(NumericalError):
    """Eigenvalue clustering unstable at the requested tolerance."""


class PreconditionError(SpecEdgeError):
    """A hypothesis-test precondition does not hold for these inputs."""


class DegeneratePopulation(PreconditionError):
    """All diagonal values are zero; the spectral law has no edges."""


class NoSuchEdge(PreconditionError):
    """No edge matches the requested selector."""


class IrregularEdge(PreconditionError):
    """Edge fails the regularity gate; the TW limit is unjustified."""


class EmptyWindow(PreconditionError):
    """No eigenvalue inside the edge window; nothing to standardize."""


class SwapRejected(PreconditionError):
    """A single-entry swap could not be tracked to a nearby edge."""


class RegularityLost(PreconditionError):
    """A tracked edge's regularity margin fell below the floor."""


class NotSwappable(PreconditionError):
    """A pair of interpolation states violates a swappability bound."""
