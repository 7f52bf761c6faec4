"""Exception hierarchy shared across the package.

Two families matter to the CLI: `ValidationError` subclasses signal bad
input (job schema, expression syntax, unknown variables) and map to exit
code 2; everything else derived from `OrbitHeightError` is a runtime
failure (indeterminacy, budget, missing data) and maps to exit code 3.
"""

from __future__ import annotations


class OrbitHeightError(Exception):
    """Base class for all package-specific failures."""


class ValidationError(OrbitHeightError):
    """Input rejected before any computation ran."""


# --- exact / projective coordinates ---

class AllZero(ValidationError):
    """Every coordinate of a projective point is zero."""


class ValueTooLarge(OrbitHeightError):
    """An exact value is past the interpreter's int-to-str limit for reports."""


# --- expression parsing ---

class ExpressionSyntaxError(ValidationError):
    """Malformed expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ValidationError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable '{name}' (at position {position})")
        self.name = name
        self.position = position


class ZeroDenominator(OrbitHeightError):
    """A rational function with identically-zero denominator."""


class DimensionMismatch(ValidationError):
    """Point/variable/component counts disagree."""


# --- orbits and diagnostics ---

class HorizonTooShort(OrbitHeightError):
    """Not enough trace rows for the requested analysis."""


class EmptyTail(OrbitHeightError):
    """The diagnostic tail window contains no indices."""


class InvalidParameter(ValidationError):
    pass


class OrbitUndefined(OrbitHeightError):
    """Orbit iteration left the affine chart before the horizon."""

    def __init__(self, n: int, detail: str = ""):
        msg = f"orbit undefined at step {n}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.n = n


# --- commuting grids ---

class NotCommuting(OrbitHeightError):
    """A pair of maps fails the symbolic commutation check."""

    def __init__(self, pair: tuple[int, int], component: int):
        super().__init__(
            f"maps {pair[0]} and {pair[1]} do not commute (component {component})"
        )
        self.pair = pair
        self.component = component


class EmptyIntersection(OrbitHeightError):
    """No norms of the requested set fall inside the diagnostic range."""


# --- recurrences ---

class MissingInitialTerm(OrbitHeightError):
    def __init__(self, n: int):
        super().__init__(f"initial term a_{n} not supplied")
        self.n = n


class MissingSingularTerm(OrbitHeightError):
    """The trailing coefficient vanishes and no replacement term was given."""

    def __init__(self, n: int):
        super().__init__(
            f"trailing coefficient vanishes at n={n}; supply the term it would define"
        )
        self.n = n


# --- density lemma checker ---

class HypothesisViolated(ValidationError):
    """Caller passed arguments outside the lemma's hypotheses."""


# --- point counting ---

class BudgetExceeded(OrbitHeightError):
    def __init__(self, budget: int):
        try:
            text = f"{budget} vectors"
        except ValueError:  # past the int-to-str limit
            text = f"a {budget.bit_length()}-bit number of vectors"
        super().__init__(f"box (2B+1)^(n+1) has more than the budget of {text}")
        self.budget = budget
