"""Exception hierarchy shared by all modules."""


class IsomonodromyError(Exception):
    """Base class for all library errors."""


class MalformedInputError(IsomonodromyError):
    """Input data violates a structural invariant (inconsistent multiplicities,
    bad JSON, mismatched shapes)."""


class PoleDomainError(IsomonodromyError):
    """Evaluation requested at (or too close to) a pole."""


class PreconditionError(IsomonodromyError):
    """A documented operation precondition does not hold (overlapping supports,
    clearance violation, enclosed extra pole, ...)."""


class RegularityError(IsomonodromyError):
    """Leading polar coefficient is not regular (clustered or resonant
    eigenvalues, nilpotent leading term)."""


class DegenerateChartError(IsomonodromyError):
    """The symplectic Gram matrix is singular beyond tolerance at this state
    (``hamiltonian_vector_field``'s guard), or exactly singular at a flow's
    stage.  Along a flow the guard's measure ends a trajectory instead, as
    ``Trajectory.abort_kind`` ``degenerate_chart``."""


class IntegrationAbort(IsomonodromyError):
    """Adaptive integration could not continue (``solve_ivp`` failed, in
    ``flows._integrate`` or ``monodromy.transport``); ``kind`` is always
    ``'stiffness'``.  A pole collision, movable singularity or degenerate
    chart ends a trajectory instead, as ``Trajectory.abort_kind``."""

    kind = "stiffness"
