"""orbitheight: exact height-growth experiments for rational-map orbits over Q.

Subpackages by concern:

- exact: rationals, primitive projective coordinates, Weil heights
- poly: multivariate polynomials, rational functions/maps, the expression parser
- orbit: orbit traces, window-repeat detection, gap diagnostics, epsilon bounds
- commuting: commuting-map grids and norm-sliced diagnostics
- dfinite: P-recursive sequences, growth classification, dynamical encoding
- density: eventually-periodic subsets of N, exact densities and shift sets
- schanuel: exact point counts of bounded height, by a recursion over floor(B/g)
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
    Polynomial,
    RationalFunction,
    RationalMap,
    compose,
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
    "Polynomial",
    "RationalFunction",
    "RationalMap",
    "compose",
    "parse_expression",
    "rf_equal",
    "__version__",
]
