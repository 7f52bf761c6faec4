"""orbitheight: exact height-growth experiments for rational-map orbits over Q.

Subpackages by concern:

- exact: rationals, primitive projective coordinates, Weil heights
- poly: multivariate polynomials, rational functions/maps, the expression parser
- orbit: orbit traces, window-repeat detection, gap diagnostics, epsilon bounds
- commuting: commuting-map grids and norm-sliced diagnostics
- dfinite: P-recursive sequences, growth classification, dynamical encoding
- density: eventually-periodic subsets of N, exact densities and shift sets
- schanuel: exact point counting of bounded height by Moebius inversion
- dml: return sets and arithmetic-progression decomposition
- cli: the `orbitheight` batch front-end
"""

from .exact import (
    P1Value,
    PrimitiveVector,
    Rational,
    height_projective,
    height_rational,
    normalize_projective,
    segre_product,
)
from .poly import (
    INDETERMINATE,
    Polynomial,
    RationalFunction,
    RationalMap,
    compose,
    evaluate,
    parse_expression,
    rf_equal,
)

__version__ = "0.1.0"

__all__ = [
    "P1Value",
    "PrimitiveVector",
    "Rational",
    "height_projective",
    "height_rational",
    "normalize_projective",
    "segre_product",
    "INDETERMINATE",
    "Polynomial",
    "RationalFunction",
    "RationalMap",
    "compose",
    "evaluate",
    "parse_expression",
    "rf_equal",
    "__version__",
]
