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

class InvalidMap(PreconditionError):
    """Breakpoint x-values do not increase (or are too few), or a value leaves the domain."""


class OutOfDomain(PreconditionError):
    """A point, interval or pair of clamp bounds lies outside the map's domain."""


class NotCovering(PreconditionError):
    """The image of an interval, alone or in a cycle, does not contain the next."""


class PieceBudgetExceeded(BudgetError):
    """Composing maps produced more breakpoints than the piece budget."""


# -- patterns, graphs and walks ----------------------------------------------

class InvalidPattern(PreconditionError):
    """The pattern text does not parse, or is not a single cycle on 1..m, m >= 2."""


class NotAWalk(PreconditionError):
    """The node sequence is not a closed walk of the covering graph."""


class WalkBudgetExceeded(BudgetError):
    """Closed-walk enumeration or counting outran the walk budget."""


# -- orbits and witnesses -----------------------------------------------------

class NotAnOrbit(PreconditionError):
    """The point set is not a single periodic orbit of the given map."""


class UnsupportedPeriod(PreconditionError):
    """The period is even or too small for the construction, or not one it yields."""


class NoLeastPeriodWitness(SharkovskyLabError):
    """Every branch of the chain yields only points of smaller period."""


class NoSuchOrbit(PreconditionError):
    """The map has no isolated orbit of the requested least period."""
