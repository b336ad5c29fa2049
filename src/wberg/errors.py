"""Exception and warning types shared across the library."""

from __future__ import annotations


class WbergError(Exception):
    """Base class for all library errors."""


# --- weight / series errors -------------------------------------------------

class BadBeta(WbergError):
    """Bergman-type weight parameter must be >= 1."""


class NonDecreasingWeights(WbergError):
    """Explicit weight sequences must be decreasing."""


class InvalidWeights(WbergError):
    """Weight sequence violates positivity or normalization."""


class ZeroConstantTerm(WbergError):
    """Series with vanishing constant term cannot be inverted."""


# --- linear-algebra errors --------------------------------------------------

class NotHermitian(WbergError):
    pass


class NotPsd(WbergError):
    pass


class NotSubordinate(WbergError):
    """Douglas-type solve requires F*F <= G*G up to tolerance."""


class NotIsometry(WbergError):
    pass


class NotUnitaryInput(WbergError):
    pass


# --- operator tuple / classification errors ---------------------------------

class ArityMismatch(WbergError):
    pass


class NotContractive(WbergError):
    """Operator tuple entries must be contractions."""


class NotCommuting(WbergError):
    pass


class NotHypercontractive(WbergError):
    pass


class NotPure(WbergError):
    pass


class EquivalenceViolation(WbergError):
    """The two equivalent positivity criteria returned different verdicts."""


# --- dilation / model errors -------------------------------------------------

class IsometryResidualTooLarge(WbergError):
    pass


class DouglasPreconditionFailed(WbergError):
    pass


class LiftConditionFailed(WbergError):
    """Co-isometry lift condition failed for a block; carries the block index set."""

    def __init__(self, lam, residual):
        super().__init__(f"lift condition failed for block {tuple(lam)} (residual {residual:.3e})")
        self.lam = tuple(lam)
        self.residual = residual


class BlockBudgetExceeded(WbergError):
    """A model too large to build: a dilation map and a residual of its size
    do not fit in memory."""


# --- characteristic function errors ------------------------------------------

class HorizonTooShort(WbergError):
    """Truncation horizon loses mass of the column contraction."""


# --- CLI ----------------------------------------------------------------------

class ConfigError(WbergError):
    """Malformed case configuration."""


# --- warnings -------------------------------------------------------------------

class SeriesTailTooLarge(UserWarning):
    """Reported when a truncated fractional-power series has a non-negligible tail."""


class TailUnconverged(UserWarning):
    """Reported when a tail limit ``lim T^k S T*^k`` read by a purity test,
    a tail split or a joint tail stopped before its doublings converged."""
