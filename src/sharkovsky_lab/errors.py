"""Exception hierarchy.

Two families matter to callers: precondition violations (bad inputs, an
operation asked outside its contract) and budget exhaustion (an exact
enumeration grew past its configured cap).  The CLI maps the first family
to exit code 2 and the second to exit code 3.
"""


class SharkovskyLabError(Exception):
    """Base class for all library errors."""


class PreconditionError(SharkovskyLabError):
    """An operation was invoked outside its stated contract."""


class BudgetError(SharkovskyLabError):
    """An exact enumeration exceeded its configured budget."""


class CertificationFailed(SharkovskyLabError):
    """A computed result failed its exact certificate; this is a bug."""


# -- map construction and evaluation ----------------------------------------

class NonMonotoneBreakpoints(PreconditionError):
    """Breakpoint x-values are not strictly increasing (or too few)."""


class NotSelfMap(PreconditionError):
    """Some breakpoint value falls outside the map's own domain."""


class OutOfDomain(PreconditionError):
    """A point or interval lies outside the map's domain."""


class BadClampBounds(PreconditionError):
    """Clamp bounds are not nested inside the domain, or out of order."""


class NotCovering(PreconditionError):
    """The image of the source interval does not contain the target."""


class PieceBudgetExceeded(BudgetError):
    """Composing maps produced more breakpoints than the piece budget."""


# -- patterns, graphs and walks ----------------------------------------------

class InvalidPattern(PreconditionError):
    """The pattern text does not parse, or is not a single cycle on 1..m, m >= 2."""


class NotAWalk(PreconditionError):
    """The node sequence is not a closed walk of the covering graph."""


class NotOddPeriod(PreconditionError):
    """The pattern's period is even (or below 3) where odd is required."""


class WalkBudgetExceeded(BudgetError):
    """Closed-walk enumeration or counting outran the walk budget."""


# -- orbits and witnesses -----------------------------------------------------

class NotAnOrbit(PreconditionError):
    """The point set is not a single periodic orbit of the given map."""


class PeriodTooSmall(PreconditionError):
    """The orbit's period is too small for the requested construction."""


class EvenPeriod(PreconditionError):
    """The orbit's period is even where an odd period is required."""


class PreconditionViolated(PreconditionError):
    """A witness's input is not what it requires.

    The crossed pair c, d lies outside the domain or fails
    f(d) <= c < d <= f(c), or a trace was analysed on another map.
    """


class NotACycle(PreconditionError):
    """Some interval in the chain fails to cover its successor."""


class NoLeastPeriodWitness(SharkovskyLabError):
    """Every branch of the chain yields only points of smaller period."""


class UnsupportedPeriodForCase(PreconditionError):
    """The requested period is not produced by this trace's construction."""


class NoSuchOrbit(PreconditionError):
    """The map has no isolated orbit of the requested least period."""
