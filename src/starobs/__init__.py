"""Exact-arithmetic workbench for deformation obstructions of commuting systems.

Everything is built on rational-coefficient polynomials: polyvector
fields with the Schouten bracket, Hochschild cochains as
polydifferential operators, truncated star products with gauge actions,
and the order-by-order procedure that either trivializes a product on a
commutative subalgebra or certifies the obstruction class blocking it.
"""

from .linsolve import LinearSolveResult, solve_sparse
from .multivec import (
    Polyvector,
    RelativeClass,
    d_hor,
    jacobi_check,
    poisson_bracket,
    schouten_bracket,
)
from .obstruction import (
    OBSTRUCTED,
    TRIVIALIZED,
    UNDECIDED,
    Bounds,
    CascadeReport,
    ExactnessResult,
    GaugeStepResult,
    IntegrableSystem,
    ObstructionReport,
    OrderRecord,
    ValidationReport,
    cocycle_cascade_check,
    eliminate_to_order,
    exactness_solve,
    lift_witness,
    validate_system,
)
from .poly import Polynomial, PolynomialParseError, parse_polynomial
from .polydiff import (
    PolyDiffOp,
    hochschild_d,
    restricted_values,
    vanishes_on_generators,
)
from .star import (
    ExtensionResult,
    FormalDiffeo,
    StarProduct,
    compose_diffeo,
    extend_one_order,
    gauge_transform,
    moyal_star,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "CascadeReport",
    "ExactnessResult",
    "ExtensionResult",
    "FormalDiffeo",
    "GaugeStepResult",
    "IntegrableSystem",
    "LinearSolveResult",
    "OBSTRUCTED",
    "ObstructionReport",
    "OrderRecord",
    "PolyDiffOp",
    "Polynomial",
    "PolynomialParseError",
    "Polyvector",
    "RelativeClass",
    "StarProduct",
    "TRIVIALIZED",
    "UNDECIDED",
    "ValidationReport",
    "cocycle_cascade_check",
    "compose_diffeo",
    "d_hor",
    "eliminate_to_order",
    "exactness_solve",
    "extend_one_order",
    "gauge_transform",
    "hochschild_d",
    "jacobi_check",
    "lift_witness",
    "moyal_star",
    "parse_polynomial",
    "poisson_bracket",
    "restricted_values",
    "schouten_bracket",
    "solve_sparse",
    "validate_system",
    "vanishes_on_generators",
]
