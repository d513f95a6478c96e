"""Exact combinatorial dynamics of piecewise-linear interval maps.

The library computes, in exact rational arithmetic, the objects behind
period forcing on the interval: the Sharkovsky order, piecewise-linear
maps and their periodic points, covering graphs of orbit patterns,
constructive periodic-point witnesses, and truncated tent maps realizing
each tail of the forcing order.
"""

from .errors import (
    BudgetError,
    CertificationFailed,
    InvalidMap,
    InvalidPattern,
    NoLeastPeriodWitness,
    NoSuchOrbit,
    NotAnOrbit,
    NotAWalk,
    NotCovering,
    OutOfDomain,
    PieceBudgetExceeded,
    PreconditionError,
    SharkovskyLabError,
    UnsupportedPeriod,
    WalkBudgetExceeded,
)
from .exact_pwl import (
    DEFAULT_PIECE_BUDGET,
    DEFAULT_WALK_BUDGET,
    FixedPoints,
    Interval,
    IntervalLoop,
    MarkovGraph,
    Orbit,
    PeriodicOrbits,
    PwlMap,
    as_fraction,
    budgets,
    fixed_points_of_iterate,
    highest_orbit_below,
    is_orbit_of,
    iter_closed_walks,
    least_period,
    markov_partition,
    orbit_of,
    periodic_orbits,
    periodic_orbits_upto,
    point_of_least_period_in_lap,
)
from .pattern_dynamics import (
    CyclicPattern,
    all_patterns,
    connect_the_dots,
    is_stefan_pattern,
    loop_to_intervals,
    markov_graph,
    random_pattern,
    realized_periods,
    stefan_pattern,
)
from .serialize import (
    SCHEMA,
    format_rational,
    orbit_from_list,
    orbit_to_list,
    parse_rational,
    pwlmap_from_obj,
    pwlmap_to_obj,
)
from .sharkovsky_order import (
    Ordering,
    SharkovskyKey,
    decompose,
    divisors,
    forced_periods_upto,
    forces,
    iterate_least_period,
    lift_least_periods,
    sharkovsky_compare,
    sort_key,
)
from .tent_constructions import (
    DoublingChain,
    SpectrumEntry,
    TruncatedMap,
    doubling_chain,
    minimal_diameter_orbit,
    narrowest_tent_orbit,
    period_spectrum,
    t_infinity_level,
    tent_map,
    truncate_at_orbit,
)
from .witnesses import (
    CrossingCase,
    OddOrbitTrace,
    PeriodTwoWitness,
    TraceCase,
    analyze_odd_orbit,
    forcing_cycle,
    odd_period_witness,
    period_two_from_crossing,
    period_two_from_orbit,
    periodic_point_from_cycle,
    witness_from_trace,
)

__version__ = "0.1.0"
