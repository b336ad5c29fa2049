"""Truncated vector-valued weighted Bergman spaces over the polydisc.

A space is the span of monomials ``z^a e_p`` with multi-index below a
per-variable cutoff and coefficients in a ``coeff_dim``-dimensional space,
under the weighted inner product

    <z^a e_p, z^b e_q> = delta_ab delta_pq * w^(1)_{a_1} ... w^(n)_{a_n}.

Operator matrices are expressed in the orthonormalized monomial basis
``z^a e_p / sqrt(w_a)`` so that the matrix adjoint is the Hilbert-space
adjoint.  Basis vectors are ordered graded-lexicographically in ``a`` with
the coefficient index fastest; converters to and from raw monomial
coefficient arrays are provided for tests against the weighted formulas.
The coordinate shifts are held as index maps (:class:`~wberg.hyper.ShiftAction`,
re-exported here) that act on row-stacked maps without forming their ``dim x
dim`` matrices; :func:`shift_matrix` is the dense copy of the same map, and an
:class:`~wberg.hyper.OperatorTuple` of such copies recognises them as
weighted shifts and multiplies them by the same gather.

Truncation makes the coordinate shifts jointly nilpotent, which is the
canonical pure example: every hereditary series on these spaces is a finite
sum.  Edge effects live only in the top-degree rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .hyper import OperatorTuple, ShiftAction, defect_series
from .linalg import Operator, hermitian_norm
from .series import MultiWeightSpec, _normalize_grid, quotient_coeffs

__all__ = [
    "TruncatedSpace",
    "ShiftAction",
    "shift_matrix",
    "multishift_tuple",
    "multishift_purity_and_positivity",
    "MultishiftReport",
    "graded_indices",
]

# Bound on the diagonal-formula residual of the defect series in the
# multishift check.
MULTISHIFT_TOL = 1e-10


def graded_indices(degrees: Sequence[int]) -> list[tuple[int, ...]]:
    """Multi-indices below the cutoff in graded lexicographic order."""
    all_idx = list(np.ndindex(*tuple(int(d) for d in degrees)))
    return sorted(all_idx, key=lambda a: (sum(a), a))


@dataclass(frozen=True)
class TruncatedSpace:
    """Descriptor of a truncated weighted Bergman space."""

    weights: MultiWeightSpec
    degrees: tuple[int, ...]
    coeff_dim: int = 1

    def __post_init__(self) -> None:
        degs = tuple(int(d) for d in self.degrees)
        object.__setattr__(self, "degrees", degs)
        if len(degs) != self.weights.n:
            raise ValueError(f"degree arity {len(degs)} != weight arity {self.weights.n}")
        if any(d < 1 for d in degs) or self.coeff_dim < 0:
            raise ValueError("degrees must be positive and coeff_dim nonnegative")

    @property
    def n_vars(self) -> int:
        return self.weights.n

    @cached_property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(graded_indices(self.degrees))

    @cached_property
    def index_position(self) -> dict[tuple[int, ...], int]:
        return {a: i for i, a in enumerate(self.indices)}

    @property
    def dim(self) -> int:
        return len(self.indices) * self.coeff_dim

    @cached_property
    def _weight_rows(self) -> list[np.ndarray]:
        return [self.weights[i].values(self.degrees[i]) for i in range(self.n_vars)]

    @cached_property
    def _index_array(self) -> np.ndarray:
        """``indices`` as an integer array of shape ``(len(indices), n_vars)``."""
        return np.array(self.indices, dtype=np.intp).reshape(len(self.indices), self.n_vars)

    @cached_property
    def position_box(self) -> np.ndarray:
        """Basis position of every multi-index, as an array over the index box."""
        box = np.empty(self.degrees, dtype=np.intp)
        box[tuple(self._index_array.T)] = np.arange(len(self.indices))
        return box

    def monomial_weight(self, alpha: Sequence[int]) -> float:
        """Squared norm ``w_a`` of the monomial ``z^a``."""
        return float(np.prod([self._weight_rows[i][a] for i, a in enumerate(alpha)]))

    @cached_property
    def index_weights(self) -> np.ndarray:
        """``w_a`` per multi-index in basis order, multiplied in variable order
        as :meth:`monomial_weight` does."""
        idx = self._index_array
        out = self._weight_rows[0][idx[:, 0]]
        for i in range(1, self.n_vars):
            out = out * self._weight_rows[i][idx[:, i]]
        return out

    @cached_property
    def weight_vector(self) -> np.ndarray:
        """``w_a`` per basis slot (coefficient index fastest)."""
        return np.repeat(self.index_weights, self.coeff_dim)

    @cached_property
    def shifts(self) -> tuple[ShiftAction, ...]:
        """The coordinate shifts ``z_i``, one index map per variable."""
        idx = self._index_array
        out = []
        for i in range(self.n_vars):
            row = self._weight_rows[i]
            src = np.flatnonzero(idx[:, i] + 1 < self.degrees[i])
            moved = idx[src]
            ratio = np.sqrt(row[moved[:, i] + 1] / row[moved[:, i]])
            moved[:, i] += 1
            dst = self.position_box[tuple(moved.T)]
            out.append(ShiftAction(len(self.indices), self.coeff_dim, src, dst, ratio))
        return tuple(out)

    # -- coefficient-space converters -----------------------------------------

    def slot(self, alpha: Sequence[int], p: int = 0) -> int:
        return self.index_position[tuple(alpha)] * self.coeff_dim + p


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

def shift_matrix(space: TruncatedSpace, i: int) -> Operator:
    """Multiplication by ``z_i`` on the truncated basis, as a dense matrix.

    Top-degree monomials in variable ``i`` map to zero.  In the orthonormal
    basis the nonzero entries are ``sqrt(w_{a_i+1} / w_{a_i})``, which gives
    exactly the weighted-adjoint action on coefficient arrays.  This is the
    dense copy of ``space.shifts[i]``.
    """
    if not (0 <= i < space.n_vars):
        raise ValueError(f"variable index {i} out of range")
    return Operator(space.shifts[i].to_matrix())


def multishift_tuple(space: TruncatedSpace) -> OperatorTuple:
    """The tuple of coordinate shifts on a truncated space."""
    return OperatorTuple(tuple(shift_matrix(space, i) for i in range(space.n_vars)))


# ---------------------------------------------------------------------------
# the multi-shift as the canonical pure example
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultishiftReport:
    diagonal_ok: bool
    max_diagonal_residual: float


def multishift_purity_and_positivity(
    space: TruncatedSpace,
    shifts: OperatorTuple,
    r_grid: Sequence,
) -> MultishiftReport:
    """Verify the diagonal defect formula of the truncated shifts.

    ``shifts`` is the caller's ``multishift_tuple(space)``, so the defect
    series are summed over the power stacks that tuple already holds.  In
    the weighted quadratic form the defect series acts diagonally on
    monomials with entries ``w_a^2 * a_a(1, r)`` built from the quotient
    coefficients.  Grid positivity is what
    :func:`~wberg.hyper.is_W_hypercontraction` certifies and purity is
    :func:`~wberg.hyper.is_pure`; the caller reads both there.
    """
    if shifts.n != space.n_vars or shifts.dim != space.dim:
        raise ValueError(
            f"shift tuple of arity {shifts.n} on dimension {shifts.dim} does not act on "
            f"a space of {space.n_vars} variables and dimension {space.dim}"
        )
    w = space.weights
    max_resid = 0.0
    for point in _normalize_grid(r_grid, space.n_vars):
        ds = defect_series(shifts, w, point)
        quot = [
            quotient_coeffs(w[i], 1.0, point[i], space.degrees[i])
            for i in range(space.n_vars)
        ]
        # diagonal entries in the orthonormal basis are w_a * a_a(1, r);
        # against the monomial quadratic form that is w_a^2 * a_a(1, r)
        diag = np.real(np.diag(ds))
        for idx, a in enumerate(space.indices):
            expected = space.monomial_weight(a) * float(
                np.prod([quot[i][a[i]] for i in range(space.n_vars)])
            )
            for p in range(space.coeff_dim):
                got = diag[idx * space.coeff_dim + p]
                max_resid = max(max_resid, abs(got - expected))
        off = ds - np.diag(np.diag(ds))
        max_resid = max(max_resid, hermitian_norm(off))
    return MultishiftReport(
        diagonal_ok=bool(max_resid <= MULTISHIFT_TOL),
        max_diagonal_residual=max_resid,
    )
