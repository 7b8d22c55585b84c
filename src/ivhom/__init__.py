"""Interval-valued functions on I([0,1]) with exhaustive homogeneity checks."""

from .interval import (
    EXACT,
    FLOAT,
    Interval,
    IntervalError,
    NumericMode,
    Ordering,
    compare,
    complement,
    format_interval,
    join,
    meet,
    parse_interval,
    prob_sum,
    product,
)
from .functions import (
    IDENTITY,
    IVFunction,
    OrderIso,
    P,
    P_NS,
    PI2,
    SQUARE,
    ScalingFunction,
    dual_ns,
    dual_scaling_ns,
    registry_get,
)
from .expr import ExprError, parse_expr
from .homogeneity import (
    BudgetExceededError,
    CheckReport,
    Counterexample,
    Grid,
    PipelineReport,
    UnsupportedModeError,
    check_homogeneity,
    check_idempotency,
    check_section_bijective,
    make_grid,
    run_prop2,
    run_theorem1,
)
from .report import emit_report, parse_check_report, to_csv, to_json, to_text

__version__ = "0.1.0"
