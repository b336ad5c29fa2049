"""Hereditary-calculus defect operators and positivity classification.

For a commuting tuple of contractions ``T`` and a multi-weight ``W`` the
central object is the defect series

    D(r) = sum_a c_a r^a T^a T*^a,

where ``c`` are the reciprocal coefficients of the associated function.  It
is separable, so it is evaluated as one level per variable, nested from the
last variable, whose level starts at ``X = I``, outwards (:func:`_level`).
For the presets ``1/k = (1 - z)^p`` (``bergman:beta``, Hardy ``p = 1``) the
calculus is multiplicative and the level is the factored ``(I - r
C_{T_i})^p``, ``C_A(X) = A X A*``, as in :func:`delta_power`: with ``p =
whole + f``, the fractional factor ``I - sum_{k>=1} b_k r^k C^k`` (``b_k >=
0``, summing to 1) and then ``whole`` differences ``X - r T X T*``.  Neither
cancels more than the defect itself, where the expanded sum ``sum_k c_k r^k
T^k X T*^k`` loses ``eps * sum_k |c_k| ||T^k||^2`` per level (Higham, ch. 4);
that sum is left to explicit weight lists and to the test reference
:func:`hereditary_apply`.

Each expanded sum (a fractional factor or an explicit list) stops at the
first of three cutoffs (see ``_effective_degree``): the support of its
coefficients, the nilpotency order of ``T_i``, or the numerical support, the
first of ``FIRST_CUT, 2 FIRST_CUT, ...`` below ``DEGREE_CAP`` whose remainder
``||T_i^m||^2 sum_{k >= m} |c_k|`` is at most ``UNIT_ROUNDOFF * |c_0|``.  That
remainder bounds every dropped term at every ``r <= 1`` and nesting level,
since power norms of a contraction do not increase, and it is below the
rounding the kept sum carries, so the cut changes no verdict.  The tail
estimate of a defect limit reads the same remainder (``_remainder``) at the
cut actually summed, with the exact dropped mass (``_abs_mass``), times the
norm bounds of the other levels.

The :class:`OperatorTuple` is the one owner of its entries' powers: the
power and Gram stacks, one pair per variable, the nilpotency orders and the
tail limits ``lim_k T_i^k T_i*^k`` are formed here and nowhere else in the
package.  The stacks grow only when a longer prefix is asked for; every
swap-family member, grid point and vertex value of a tuple, every
classification run on it, and the dilations and characteristic functions
built from it read them.  No stack of adjoint powers is formed: a sum reads
``T*^k`` as ``(T^k)*``, and the rows ``A T*^k`` of a dilation map or a
column map are a row chain (:meth:`OperatorTuple.row_chain`), one right
multiplication by ``T*`` per power.  A tail limit is formed once, at
``LIMIT_TOL``, by one route that the entry alone decides: a weighted shift
is scanned and a nilpotent one's tail is exactly zero, any other entry
doubles (:func:`conjugation_limit`, which stops at its first exactly zero
power).  The purity test, the tail split of a dilation, the joint tail of a
check and the block defects of a model read it through :func:`joint_tail`,
which warns of an unconverged limit.  An entry that is a weighted shift
(each coordinate shift of a multi-shift) is held with its index map
(:class:`ShiftAction`), observed when the tuple validates it: its norm is
the index map's, exactly, and its commutator with another weighted shift is
formed by gathers.  It is multiplied by gather and scale, with the bits of
the dense products, and every diagonal quantity of it (its Gram stack, each
level of a diagonal ``X``, each defect of a tuple of weighted shifts) is
held as a real ``d``-vector, the diagonal of the matrix it stands for: one
route per representation, a vector becoming a matrix only where a dense
entry or a report field needs one.
A tuple and its sub-tuples share one store of classification facts
(:func:`_held`), keyed by the root indices of the entries they are about: the
defect certificates per weight levels (:func:`_levels`), grid and tolerance,
the lattice report per ``gamma`` and tolerance, and the vertex value per
weight levels.  A fact proved once is read by every later pipeline step and
every sub-tuple on the same entries.

Classification routines sample ``D(r)`` over an ``r``-grid (any finite grid
under-approximates the continuum; reports say so), add the ``r -> 1`` limit
when coefficient tails certify it, and for integer binomial-type weights also
check the implied lattice of alternating-sum positivity conditions so the two
equivalent criteria below always see the same evidence.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    EquivalenceViolation,
    NotCommuting,
    NotContractive,
    SeriesTailTooLarge,
    TailUnconverged,
)
from .linalg import (
    POSITIVITY_TOL,
    UNIT_ROUNDOFF,
    Operator,
    _as_matrix,
    _eigvalsh,
    _is_diagonal,
    hermitian_norm,
    psd_check,
    spectral_norm,
    threshold_norm,
)
from .series import (
    MultiWeightSpec,
    WeightSpec,
    _one_minus_z_power,
    _normalize_grid,
    _normalize_point,
)

__all__ = [
    "OperatorTuple",
    "ShiftAction",
    "DefectResult",
    "GRID_CAVEAT",
    "defect_series",
    "defect_limit",
    "conjugation_limit",
    "hereditary_apply",
    "is_W_hypercontraction",
    "is_pure",
    "joint_tail",
    "delta_power",
    "is_gamma_contractive",
    "equivalence_crosscheck",
    "subtuple",
    "subtuple_inheritance_check",
    "two_parameter_monotonicity_check",
    "dyadic_grid",
    "Witness",
    "WHyperReport",
    "GammaReport",
    "CrosscheckReport",
    "SubtupleReport",
    "MonotonicityReport",
]

GRID_CAVEAT = (
    "positivity verified on a finite r-grid (plus limit points when the "
    "coefficient tail certifies them); the continuum condition is sampled, "
    "not certified"
)

LIMIT_TOL = 1e-9
# Slack of the contractivity and commutation checks of a tuple's entries.
COMMUTATION_TOL = 1e-10
# Longest one-variable defect series summed; the numerical-support search
# usually stops well before it.
DEGREE_CAP = 256
# First cutoff the numerical-support search tries; it doubles from here.
FIRST_CUT = 8
# Doublings of the power before a conjugation limit is given up as unconverged.
MAX_DOUBLINGS = 60
# Points ``r_j = 1 - 2^-j`` of the default classification grid.
DYADIC_LEVELS = 3
# Distance from an integer below which a real exponent counts as that integer.
EXPONENT_SNAP = 1e-12


# ---------------------------------------------------------------------------
# operator tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShiftAction:
    """A weighted shift held as an index map: a real matrix with at most one
    nonzero in every row and every column.

    The shift sends the basis block at position ``src[k]`` to the one at
    position ``dst[k]``, scaled by ``ratio[k]``; blocks not in ``src`` map
    to zero.  The actions take a row-stacked map ``x`` of ``n_idx *
    coeff_dim`` rows, viewed as ``(n_idx, coeff_dim, cols)``, with one
    gather and one scale (:meth:`_moved`) and no ``dim x dim`` matrix.

    Multiplication by ``z_i`` on a truncated Bergman space is one
    (``wberg.bergman.TruncatedSpace.shifts``): the block of a multi-index
    goes to that of its successor in variable ``i``, scaled by ``sqrt(w_{a_i
    + 1} / w_{a_i})``.  An :class:`OperatorTuple` entry that is a weighted
    shift (:func:`_weighted_shift`, with ``coeff_dim = 1``) is multiplied
    through one as well.
    """

    n_idx: int
    coeff_dim: int
    src: np.ndarray
    dst: np.ndarray
    ratio: np.ndarray

    @property
    def dim(self) -> int:
        return self.n_idx * self.coeff_dim

    def _moved(self, x: np.ndarray, frm: np.ndarray, to: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        blocks = x.reshape(self.n_idx, self.coeff_dim, x.shape[1])
        out = np.zeros(blocks.shape, dtype=np.result_type(x.dtype, self.ratio.dtype))
        moved = blocks[frm].astype(out.dtype, copy=False)
        moved *= self.ratio[:, None, None]
        out[to] = moved
        return out.reshape(x.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``S x``."""
        return self._moved(x, self.src, self.dst)

    def adjoint_apply(self, x: np.ndarray) -> np.ndarray:
        """``S* x``."""
        return self._moved(x, self.dst, self.src)

    def norm(self) -> float:
        """Spectral norm, exactly: the largest ratio in modulus.

        Every column of ``S`` holds at most one nonzero and distinct columns
        have theirs in distinct rows, so ``S* S`` is diagonal with entries
        ``ratio**2`` (and zeros), and ``||S||^2 = ||S* S||`` is the largest
        of them.
        """
        return float(np.abs(self.ratio).max()) if self.ratio.size else 0.0

    def to_matrix(self) -> np.ndarray:
        """Dense ``dim x dim`` copy: what ``wberg.bergman.shift_matrix``
        returns, and the reference the actions are tested against."""
        e = self.coeff_dim
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        p = np.arange(e)
        mat[(self.dst[:, None] * e + p).ravel(), (self.src[:, None] * e + p).ravel()] = (
            np.repeat(self.ratio, e))
        return mat


def _weighted_shift(mat: np.ndarray) -> ShiftAction | None:
    """The index map of ``mat`` when it is a weighted shift, else None.

    A weighted shift here is a square matrix of at least two rows whose
    entries are exactly real, with at most one nonzero in every row and every
    column.  Row 0 is counted first, so a dense matrix is rejected after
    ``O(d)`` work; only a matrix that passes is scanned in full.  Smaller
    matrices gain nothing from the index map and keep the dense route.
    """
    d = mat.shape[0]
    if d < 2 or np.count_nonzero(mat[0]) > 1 or mat.imag.any():
        return None
    re = mat.real
    if np.count_nonzero(re, axis=0).max() > 1 or np.count_nonzero(re, axis=1).max() > 1:
        return None
    dst, src = np.nonzero(re)
    return ShiftAction(d, 1, src, dst, re[dst, src])


class _OperatorStacks:
    """Power and Gram stacks of one matrix, built lazily and grown on demand.

    The stacks only ever grow, and a request returns a read-only prefix, so
    a short request after a long one gives the bits of a fresh build.  The
    nilpotency order is cached with the depth it was scanned to, the norm of
    each power asked for by exponent, and the tail limit once (:meth:`tail`).

    Whether the matrix is a weighted shift (:func:`_weighted_shift`) is
    observed once, when the tuple validates it, and held as its index map.
    A weighted shift ``T`` is multiplied by gather and scale, never by a
    dense product, and every diagonal quantity of it is held as a real
    ``d``-vector, the diagonal of the matrix it stands for: ``T^k X T*^k``
    with a diagonal ``X`` is diagonal, since ``T^k`` holds at most one
    nonzero per row and per column.  Its power values are the table of
    :meth:`paths`, multiplied in the order of :func:`_power_stack`; the Gram
    stack ``T^k T*^k`` is their squares, each power's norm their largest
    modulus, ``T X T*`` with a diagonal ``X`` a gather (:func:`_conjugate`),
    the nilpotency scan :func:`_nilpotency_order` on the held index map and
    ``A T*`` :meth:`adjoint_step`, which forms each power of a row chain
    (:meth:`OperatorTuple.row_chain`).  Every sum the dense route forms
    there has one nonzero term, so each value has the bits of the dense
    product.  Every zero is written as ``+0`` (``0.0`` is added as the
    result is stored), the sign a BLAS sum started from ``+0`` gives it; on
    a multi-shift, whose weights are positive, the dense route signs no
    zero otherwise.  The dense power stack (:meth:`powers`) is formed only
    when asked for: by a caller of :meth:`OperatorTuple.power_stack`, or by
    a sum whose middle factor ``X`` is a dense matrix.
    """

    __slots__ = ("mat", "_shift", "_powers", "_paths", "_grams", "_nil", "_power_norms",
                 "_tail")

    def __init__(self, mat: np.ndarray) -> None:
        self.mat = mat
        self._shift: ShiftAction | None | bool = False  # False: not observed yet
        self._powers = self._paths = self._grams = self._tail = None
        self._nil: tuple[int, int | None] = (0, None)
        self._power_norms: dict[int, float] = {}

    @property
    def shift(self) -> ShiftAction | None:
        """The index map of a weighted-shift matrix, or None; observed once."""
        if self._shift is False:
            self._shift = _weighted_shift(self.mat)
        return self._shift

    def powers(self, count: int) -> np.ndarray:
        """``[I, T, ..., T^(count-1)]``."""
        if self._powers is None or len(self._powers) < count:
            factor = self.mat if self.shift is None else self.shift
            self._powers = _power_stack(factor, count, self._powers)
            self._powers.flags.writeable = False
        return self._powers[:count]

    def paths(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The powers ``T^k``, ``k < count``, of a weighted shift as a table
        ``(value, col)`` of two ``(count, d)`` arrays: row ``i`` of ``T^k``
        holds ``value[k, i]`` in column ``col[k, i]`` and nothing else (a
        zero row holds ``value`` 0).

        ``T^k = T^(k-1) T`` has the one nonzero term ``T^(k-1)[i, l] T[l,
        col[k, i]]``, ``l = col[k-1, i]``, so the table grows by one gather
        and one product per power, in the order of :func:`_power_stack`, and
        every value has the bits of the dense power.
        """
        have = 0 if self._paths is None else len(self._paths[0])
        if have < count:
            s = self.shift
            d = s.dim
            step_val, step_col = np.zeros(d), np.zeros(d, dtype=np.intp)
            step_val[s.dst], step_col[s.dst] = s.ratio, s.src
            value, col = np.empty((count, d)), np.empty((count, d), dtype=np.intp)
            if have:
                value[:have], col[:have] = self._paths
            else:
                value[0], col[0] = 1.0, np.arange(d)
            for k in range(max(have, 1), count):
                value[k] = value[k - 1] * step_val[col[k - 1]]
                col[k] = step_col[col[k - 1]]
            value.flags.writeable = col.flags.writeable = False
            self._paths = (value, col)
        return self._paths[0][:count], self._paths[1][:count]

    def grams(self, count: int) -> np.ndarray:
        """``[T^k T*^k for k < count]``: ``(count, d, d)``, or for a weighted
        shift the ``(count, d)`` diagonals, the squares of :meth:`paths`
        (the one term of each diagonal entry)."""
        have = 0 if self._grams is None else len(self._grams)
        if have < count:
            if self.shift is None:
                new = self.powers(count)[have:]
                new = new @ new.conj().transpose(0, 2, 1)
            else:
                value = self.paths(count)[0][have:]
                new = value * value + 0.0
            self._grams = new if have == 0 else np.concatenate([self._grams, new])
            self._grams.flags.writeable = False
        return self._grams[:count]

    def adjoint_step(self):
        """The step ``(A, out) -> A T*``, written into ``out``, with ``T*``
        taken once: a dense product, or one gather for a weighted shift."""
        if self.shift is None:
            t_adj = self.mat.conj().T
            return lambda a, out: np.matmul(a, t_adj, out=out)
        # ``A T* = (T A^T)^T`` for a real ``T``
        return lambda a, out: np.add(self.shift.apply(a.T).T, 0.0, out=out)

    def nilpotency_order(self, cap: int) -> int | None:
        """Smallest ``k <= cap`` with ``T^k = 0`` exactly, or None."""
        depth, order = self._nil
        if order is None and depth < cap:
            order = _nilpotency_order(self.mat if self.shift is None else self.shift, cap)
            self._nil = (cap, order)
        return order if order is not None and order <= cap else None

    def power_norm(self, k: int) -> float:
        """``||T^k||``, computed once per exponent: the SVD norm of the power
        stack's entry (which then holds one power past it), or for a
        weighted shift exactly the largest modulus of its power values, as
        in :meth:`ShiftAction.norm`."""
        if k not in self._power_norms:
            if self.shift is None:
                self._power_norms[k] = spectral_norm(self.powers(k + 1)[k])
            else:
                self._power_norms[k] = float(np.abs(self.paths(k + 1)[0][k]).max())
        return self._power_norms[k]

    def tail(self) -> tuple[np.ndarray, bool]:
        """Read-only ``lim T^k T*^k`` and its ``converged`` flag, formed once.

        A weighted shift is scanned to its dimension first, at ``O(d)`` per
        power, and a nilpotent one has the exact zero tail; any other matrix
        doubles in :func:`conjugation_limit`, which stops at an exact zero
        at its first exactly zero power.  The route depends on the matrix
        alone, so the tail has the same bits whichever step asks first.
        """
        if self._tail is None:
            d = self.mat.shape[0]
            if self.shift is not None and self.nilpotency_order(d) is not None:
                limit, converged = np.zeros((d, d), dtype=complex), True
            else:
                limit, converged, _ = conjugation_limit(np.eye(d, dtype=complex), self.mat)
            limit.flags.writeable = False
            self._tail = (limit, converged)
        return self._tail


def _commutator(a: _OperatorStacks, b: _OperatorStacks) -> np.ndarray:
    """``A B - B A``: by two gathers when both are weighted shifts (each
    product ``S M`` moves and scales the rows of ``M``, the one nonzero term
    of each dense sum), else by dense products."""
    if a.shift is not None and b.shift is not None:
        return a.shift.apply(b.mat) - b.shift.apply(a.mat)
    return a.mat @ b.mat - b.mat @ a.mat


@dataclass(frozen=True)
class OperatorTuple:
    """Commuting contractions on a shared finite-dimensional space.

    Entries are validated :class:`Operator` objects, so they are read-only;
    an ``ndarray`` entry is wrapped here.  The tuple owns the power and Gram
    stacks, the nilpotency orders and the tail limits of its entries (see
    :meth:`power_stack` and :meth:`tail_limit`), forms the row chains ``A
    T_i*^k`` (:meth:`row_chain`), and holds the store of classification
    facts it shares with its sub-tuples.
    """

    ops: tuple[Operator, ...]
    _stacks: tuple[_OperatorStacks, ...] = field(init=False, repr=False, compare=False)
    _facts: dict = field(init=False, repr=False, compare=False)
    _index: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.ops:
            raise ArityMismatch("operator tuple needs at least one entry")
        ops = tuple(t if isinstance(t, Operator) else Operator(t) for t in self.ops)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "_stacks", tuple(_OperatorStacks(t.mat) for t in ops))
        object.__setattr__(self, "_facts", {})
        object.__setattr__(self, "_index", tuple(range(len(ops))))
        d = ops[0].rows
        bound = 1.0 + COMMUTATION_TOL
        for t, stacks in zip(ops, self._stacks):
            if t.rows != t.cols or t.rows != d:
                raise ArityMismatch("tuple entries must be square on a shared space")
            # a weighted shift's norm is exact; any other entry's is decided at the bound
            shift = stacks.shift
            if (threshold_norm(t.mat, bound) if shift is None else shift.norm()) > bound:
                norm = t.norm() if shift is None else shift.norm()
                raise NotContractive(f"entry norm {norm:.6f} exceeds 1")
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                comm = _commutator(self._stacks[i], self._stacks[j])
                if threshold_norm(comm, COMMUTATION_TOL) > COMMUTATION_TOL:
                    raise NotCommuting(
                        f"entries {i} and {j} fail to commute (norm {spectral_norm(comm):.3e})"
                    )

    @staticmethod
    def of(*ops) -> "OperatorTuple":
        return OperatorTuple(ops)

    @property
    def n(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].rows

    def __getitem__(self, i: int) -> Operator:
        return self.ops[i]

    def __iter__(self):
        return iter(self.ops)

    def power_stack(self, i: int, count: int) -> np.ndarray:
        """Read-only ``[I, T_i, ..., T_i^(count-1)]``, shared by every sum over this tuple."""
        return self._stacks[i].powers(count)

    def gram_stack(self, i: int, count: int) -> np.ndarray:
        """Read-only ``[T_i^k T_i*^k for k < count]``: ``d``-square, or the
        ``d``-vectors of their diagonals when ``T_i`` is a weighted shift."""
        return self._stacks[i].grams(count)

    def nilpotency_order(self, i: int, cap: int) -> int | None:
        """Smallest ``k <= cap`` with ``T_i^k = 0`` exactly, or None; scanned once."""
        return self._stacks[i].nilpotency_order(cap)

    def times_adjoint(self, i: int, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``A T_i*`` written into ``out``, by gather and scale when ``T_i`` is
        a weighted shift (see :class:`_OperatorStacks`)."""
        return self._stacks[i].adjoint_step()(a, out)

    def row_chain(self, i: int, a: np.ndarray, count: int) -> np.ndarray:
        """``[A, A T_i*, ..., A T_i*^(count-1)]`` as ``(count, *A.shape)``,
        ``count >= 1``: one :meth:`_OperatorStacks.adjoint_step` per power, a
        gather for a weighted shift, with ``T_i*`` taken once."""
        step = self._stacks[i].adjoint_step()
        out = np.empty((count, *a.shape), dtype=complex)
        out[0] = a
        for k in range(1, count):
            step(out[k - 1], out[k])
        return out

    def tail_limit(self, i: int) -> tuple[np.ndarray, bool]:
        """Read-only tail ``lim_k T_i^k T_i*^k`` and whether its doublings
        converged; formed once, by the route of :meth:`_OperatorStacks.tail`."""
        return self._stacks[i].tail()


def subtuple(t: OperatorTuple, lam: Sequence[int]) -> OperatorTuple:
    """Sub-tuple at the (0-based) sorted index subset ``lam``; it shares the
    parent's stacks and its store of classification facts.

    The entries were validated as part of ``t`` (square on one space,
    contractive, pairwise commuting), and each property passes to a subset,
    so the sub-tuple is assembled without ``__post_init__``'s checks.  Its
    ``_index`` holds the root indices of its entries, so a subset reached
    twice reads one fact.  The subset of every index gives ``t`` itself.
    """
    lam = _check_subset(lam, t.n)
    if len(lam) == t.n:
        return t
    sub = object.__new__(OperatorTuple)
    for name, value in (("ops", tuple(t.ops[i] for i in lam)),
                        ("_stacks", tuple(t._stacks[i] for i in lam)),
                        ("_facts", t._facts), ("_index", tuple(t._index[i] for i in lam))):
        object.__setattr__(sub, name, value)
    return sub


def _held(t: OperatorTuple, key: tuple, make, hold: bool = True):
    """The fact ``key`` about ``t``'s entries, read from the family's store,
    or formed by ``make()`` and held there when ``hold`` is set."""
    key = (t._index, *key)
    fact = t._facts.get(key)
    if fact is None:
        fact = make()
        if hold:
            t._facts[key] = fact
    return fact


def _check_subset(lam: Sequence[int], n: int) -> tuple[int, ...]:
    lam = tuple(sorted(set(int(i) for i in lam)))
    if not lam:
        raise ArityMismatch("index subset must be nonempty")
    if lam[0] < 0 or lam[-1] >= n:
        raise ArityMismatch(f"index subset {lam} out of range for arity {n}")
    return lam


# ---------------------------------------------------------------------------
# hereditary evaluation
# ---------------------------------------------------------------------------

def _power_stack(mat, count: int, prefix: np.ndarray | None = None) -> np.ndarray:
    """Stack ``[I, T, T^2, ...]`` with ``count`` entries; the one stack of
    powers, as adjoint powers are read off it or chained onto rows
    (:meth:`OperatorTuple.row_chain`).

    ``mat`` is the matrix ``T``, or the :class:`ShiftAction` of a weighted
    shift (what :class:`_OperatorStacks` passes for one).  A matrix is
    multiplied by dense products ``T^k = T^(k-1) @ T``.  An index map forms
    the same product by one gather and one scale, ``A T = (T^T A^T)^T =
    (T* A^T)^T``: column ``src[j]`` of ``A T`` is column ``dst[j]`` of ``A``
    times ``ratio[j]``, the one nonzero term of the dense sum, so the entries
    have the dense product's bits (zeros written as ``+0``, as BLAS sums
    them).  A shorter ``prefix`` of the same stack is copied and continued
    with the same sequential products, so a grown stack has the bits of a
    fresh one.
    """
    d = mat.dim if isinstance(mat, ShiftAction) else mat.shape[0]
    out = np.empty((count, d, d), dtype=complex)
    if prefix is None:
        out[0] = np.eye(d)
        start = 1
    else:
        start = len(prefix)
        out[:start] = prefix
    for k in range(start, count):
        if isinstance(mat, ShiftAction):
            np.add(mat.adjoint_apply(out[k - 1].T).T, 0.0, out=out[k])
        else:
            out[k] = out[k - 1] @ mat
    return out


def _hereditary_sum(
    coeffs: np.ndarray, stacks: _OperatorStacks, x: np.ndarray | None
) -> np.ndarray:
    """``sum_k coeffs[k] T^k X T*^k`` over the stacks of ``T``; ``x=None``
    means ``X = I`` and a 1-D ``x`` the diagonal ``X`` it holds.

    For a weighted shift and a diagonal ``X`` each term is the diagonal
    ``(v x[c]) v`` of the power table (:meth:`_OperatorStacks.paths`), the
    rounding of ``(T^k X) T*^k``, and the sum is a vector, summed by
    :func:`_diagonal_sum` with the bits of the dense diagonal.  A dense
    ``T`` takes a diagonal ``X`` as its matrix.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    nz = np.nonzero(coeffs)[0]
    vector = stacks.shift is not None and (x is None or x.ndim == 1)
    if nz.size == 0:
        return np.zeros(len(stacks.mat)) if vector else np.zeros_like(
            stacks.mat if x is None else x)
    count = int(nz[-1]) + 1
    if x is None:
        terms = stacks.grams(count)
    elif vector:
        value, col = stacks.paths(count)
        terms = value * x[col] * value + 0.0
    else:
        powers = stacks.powers(count)
        terms = (powers @ _as_matrix(x)) @ powers.conj().transpose(0, 2, 1)
    if vector:
        return _diagonal_sum(coeffs[:count], terms)
    return np.tensordot(coeffs[:count], terms, axes=1)


def _diagonal_sum(coeffs: np.ndarray, diags: np.ndarray) -> np.ndarray:
    """``coeffs @ diags`` over the stacked diagonals ``(count, d)``, with the
    bits of the diagonal of the dense route's sum over ``(count, d, d)``.

    That sum is one complex matrix-vector product with ``d^2`` output rows.
    OpenBLAS rounds the last ``m % 4`` of its ``m`` output rows in a
    remainder loop and every other row in the blocked kernel, which round
    alike whatever the row; a row's bits depend only on which of the two it
    falls in.  Of the ``d^2`` rows, diagonal entry ``j`` sits at ``j (d +
    1)``, so only the last, when ``d`` is odd (``d^2 % 4 = 1``), is a
    remainder row.  The diagonals are laid out so that each falls in the
    same class: the first ``d - 1`` (all ``d`` for even ``d``) padded with
    zero columns to a multiple of 4, the last of an odd ``d`` after them as
    the one remainder row, and summed by the same complex product.  A
    product large enough to be split over BLAS threads splits its rows into
    other classes, on either route, so the bits hold at one BLAS thread.
    """
    count, d = diags.shape
    body = d - d % 2
    width = -(-body // 4) * 4
    padded = np.zeros((count, width + d % 2), dtype=complex)
    padded[:, :body] = diags[:, :body]
    if d % 2:
        padded[:, width] = diags[:, body]
    out = np.tensordot(coeffs, padded, axes=1).real
    return np.concatenate([out[:body], out[width:]]) if d % 2 else out[:d].copy()


def hereditary_apply(coeffs: np.ndarray, t, x: np.ndarray) -> np.ndarray:
    """One-variable hereditary sum ``sum_k coeffs[k] T^k X T*^k``, expanded.

    This one-shot form builds the powers of the matrix ``T`` for this call
    alone.  It is the reference the tuple's levels are tested against: with
    the coefficients of an explicit weight list it is bit for bit the level
    :func:`defect_series` sums, and with those of ``(1 - z)^p`` it is the
    expanded form of the factored preset level, exact up to its cancellation
    ``eps * sum_k |c_k| ||T^k||^2 ||X||``.
    """
    return _hereditary_sum(coeffs, _OperatorStacks(np.asarray(t, dtype=complex)), x)


def _nilpotency_order(mat, cap: int) -> int | None:
    """Smallest ``k <= cap`` with ``T^k = 0`` exactly, or None.

    ``mat`` is the matrix ``T``, or the :class:`ShiftAction` of a weighted
    shift, as for :func:`_power_stack`.  The scan of a matrix forms ``T^k =
    T^(k-1) @ T`` and stops at the first exact zero.  Every column of a
    weighted shift's ``T^k`` holds at most one nonzero, so the row vector
    ``1^T T^k`` of column sums holds exactly those values, and ``1^T T^k =
    (1^T T^(k-1)) T`` is one gather and one scale of a ``d``-vector: each
    value is the product the dense step rounds, so the first zero power is
    the same.
    """
    if isinstance(mat, ShiftAction):
        sums = np.ones((mat.dim, 1))
        for k in range(1, cap + 1):
            sums = mat.adjoint_apply(sums)  # transposed: T^T sums, and T^T = T* here
            if not sums.any():
                return k
        return None
    p = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, cap + 1):
        p = p @ mat
        if not np.any(p):
            return k
    return None


def _split(p: float) -> tuple[int, float]:
    """``p = whole + frac``, ``frac`` in ``[0, 1)`` and 0 within ``EXPONENT_SNAP``."""
    whole = int(math.floor(p + EXPONENT_SNAP))
    frac = p - whole
    return whole, frac if frac >= EXPONENT_SNAP else 0.0


def _levels(w: MultiWeightSpec) -> tuple:
    """One level per variable: a preset's exponent, or an explicit weight list."""
    return tuple(spec if spec.exponent is None else spec.exponent for spec in w)


def _row(level) -> np.ndarray | None:
    """Coefficients a level sums in expanded form: an explicit list's
    reciprocal, or the fractional factor of an exponent, up to ``DEGREE_CAP``;
    None for an integer exponent, whose level is differences only."""
    if isinstance(level, WeightSpec):
        return level.inverse_coeffs(min(DEGREE_CAP, level.max_terms))
    frac = _split(level)[1]
    return _one_minus_z_power(frac, DEGREE_CAP) if frac else None


def _level(t: OperatorTuple, i: int, level, r: float, x: np.ndarray | None) -> np.ndarray:
    """Apply variable ``i``'s level at radius ``r`` to ``X``; ``x=None``
    means ``X = I`` and a 1-D ``x`` the diagonal ``X`` it holds.

    An exponent ``p = whole + f`` is the factored ``(I - r C_{T_i})^p``: the
    fractional factor ``sum_k c_k(f) r^k T^k X T*^k`` (``c_0 = 1``, every
    other ``c_k <= 0``), cut at :func:`_effective_degree`, then ``whole``
    differences ``X - r T X T*``, the first read off the Gram stack when
    ``X = I``, each later one by :func:`_conjugate`.  An explicit list is its
    expanded sum, cut the same way.  On a weighted shift ``T_i`` a diagonal
    ``X`` stays a vector, so the level of ``I`` or of a vector is a vector;
    a dense ``T_i`` takes a vector as its matrix first.
    """
    stacks = t._stacks[i]
    if stacks.shift is None and x is not None and x.ndim == 1:
        x = _as_matrix(x)
    row = _row(level)
    if row is not None:
        c = row[:_effective_degree(t, i, row)]
        x = _hereditary_sum(c * r ** np.arange(len(c)), stacks, x)
    if isinstance(level, WeightSpec):
        return x
    for _ in range(_split(level)[0]):
        if x is None:
            eye = 1.0 if stacks.shift is not None else np.eye(t.dim, dtype=complex)
            x = eye - r * stacks.grams(2)[1]
        else:
            x = x - r * _conjugate(stacks.mat, x, stacks.shift)
    return x


def _conjugate(t: np.ndarray, x: np.ndarray, shift: ShiftAction | None = None) -> np.ndarray:
    """``T X T*``; a 1-D ``x`` is the diagonal of ``X`` with ``shift`` the
    index map of the weighted shift ``T``, and the result is the diagonal.

    Row ``dst[j]`` of ``T X`` then holds the one nonzero ``ratio[j]
    x[src[j]]`` and ``T X T*`` is diagonal with entries ``(ratio[j]
    x[src[j]]) ratio[j]``, the rounding of the dense products, formed in
    ``O(d)`` (zeros ``+0``, as BLAS sums them).  A matrix ``X`` that is
    diagonal with an exactly real diagonal takes one product ``(T *
    diag(X)) @ T*``: each entry of ``T X`` is the one nonzero term of its
    sum, a complex times a real number, so the product has the bits of the
    two-product form.  A diagonal with a nonzero imaginary part keeps both
    products: each term is then a full complex product, which BLAS and
    numpy's elementwise product need not round alike.
    """
    if x.ndim == 1:
        out = np.zeros(x.shape)
        out[shift.dst] = shift.ratio * x[shift.src] * shift.ratio + 0.0
        return out
    d = np.diagonal(x)
    if _is_diagonal(x) and not d.imag.any():
        return (t * d.real) @ t.conj().T
    return t @ x @ t.conj().T


def _effective_degree(t: OperatorTuple, i: int, c: np.ndarray) -> int:
    """Terms of the row ``c`` (its length the cap) that a sum over ``T_i`` keeps.

    The first of three cutoffs.  *Support*: ``c_k = 0`` from here on (short
    explicit lists).  *Nilpotency*: ``T_i^k = 0`` from here on.  *Numerical
    support*: below those, the first ``m`` of ``FIRST_CUT, 2 FIRST_CUT, ...``
    whose remainder (:func:`_remainder`) ``||T_i^m||^2 sum_{m <= k < deg}
    |c_k|`` is at most ``UNIT_ROUNDOFF * |c_0|``.  At each nesting level the
    kept sum holds ``c_0 X``, so what is dropped is below its a-priori
    rounding (Higham, ch. 4) and no verdict can see the cut.
    """
    nz = np.flatnonzero(c)
    deg = int(nz[-1]) + 1 if nz.size else 1
    nil = t.nilpotency_order(i, min(len(c), t.dim))
    if nil is not None:
        deg = min(deg, nil)
    a = np.abs(c[:deg])
    m = FIRST_CUT
    while m < deg:
        if _remainder(t, i, float(np.sum(a[m:])), m) <= UNIT_ROUNDOFF * a[0]:
            return m
        m *= 2
    return deg


def _remainder(t: OperatorTuple, i: int, mass: float, m: int) -> float:
    """Certified bound ``mass * ||T_i^m||^2`` on the terms ``k >= m`` of a
    one-variable sum ``sum_k c_k r^k T_i^k X T_i*^k`` per unit of ``||X||``,
    where ``mass`` bounds ``sum_{k >= m} |c_k| r^k``: power norms of a
    contraction do not increase.  A zero mass takes no power norm.
    """
    if mass == 0.0:
        return 0.0
    return mass * t._stacks[i].power_norm(m) ** 2


def _abs_mass(level, m: int) -> tuple[float, float]:
    """Mass a level drops beyond ``m`` expanded terms, and the level's norm bound.

    For an exponent ``p = whole + f`` the fractional factor's ``c_k(f)``
    share one sign from ``k = 1`` on and sum to ``(1 - 1)^f = 0``, so the
    terms from ``m >= 1`` on sum to ``|sum_{k < m} c_k(f)|``; the ``whole``
    differences after it scale that by at most ``2^whole``.  The factor and
    each difference have norm at most 2, so the level's bound is
    ``2^ceil(p)``, and an integer exponent drops nothing.  An explicit list
    drops the rest of its reciprocal and is bounded by its absolute sum.
    """
    if isinstance(level, WeightSpec):
        c = np.abs(level.inverse_coeffs(level.max_terms))
        return float(np.sum(c[m:])), float(np.sum(c))
    whole, frac = _split(level)
    if not frac:
        return 0.0, 2.0**whole
    return 2.0**whole * abs(float(np.sum(_row(level)[:m]))), 2.0 ** (whole + 1)


def _tail_estimate(t: OperatorTuple, levels: Sequence) -> float:
    """Upper estimate, per unit of ``||X||``, of the mass the levels drop
    beyond their cutoffs at ``r = 1``: each level's remainder
    (:func:`_remainder`) times the norm bounds of the other levels."""
    parts = []
    for i, level in enumerate(levels):
        row = _row(level)
        m = 0 if row is None else _effective_degree(t, i, row)
        tail, bound = _abs_mass(level, m)
        parts.append((_remainder(t, i, tail, m), bound))
    return sum(rem * math.prod(bound for j, (_, bound) in enumerate(parts) if j != i)
               for i, (rem, _) in enumerate(parts))


def dyadic_grid(n: int) -> list[tuple[float, ...]]:
    """Diagonal grid ``r_j = 1 - 2^-j`` repeated across coordinates."""
    return [((1.0 - 0.5**j),) * n for j in range(1, DYADIC_LEVELS + 1)]


# ---------------------------------------------------------------------------
# defect series, limits, defect operators and purity
# ---------------------------------------------------------------------------

def defect_series(t: OperatorTuple, w: MultiWeightSpec, r) -> np.ndarray:
    """The defect ``D(r) = sum_a c_a r^a T^a T*^a`` (Hermitian), one level per variable.

    The nesting runs from the last variable, whose level starts at ``X = I``
    and reads the tuple's Gram stack, outwards through its power stacks
    (:func:`_level`).  A preset variable takes the factored ``(I - r
    C_{T_i})^p``, which rounds at about ``eps`` times its norm bound
    ``2^ceil(p)``, where the expanded sum rounds at ``eps * sum_k |c_k|
    ||T^k||^2``; at ``r = 1`` it is :func:`delta_power` of ``I`` bit for bit.
    An explicit list takes its expanded sum, nesting :func:`_hereditary_sum`;
    :func:`hereditary_apply` is only the reference tests compare a level with.

    On a tuple of weighted shifts every level keeps ``X`` diagonal, and the
    value is held as a real ``d``-vector, its diagonal, with the bits of the
    dense route's diagonal (``wberg.linalg._as_matrix`` forms the matrix);
    any other tuple gives the Hermitian part of the nested levels.
    """
    if w.n != t.n:
        raise ArityMismatch(f"weight arity {w.n} != tuple arity {t.n}")
    point = _normalize_point(r, t.n)
    x = None
    for i, level in reversed(list(enumerate(_levels(w)))):
        x = _level(t, i, level, point[i], x)
    return x if x.ndim == 1 else 0.5 * (x + x.conj().T)


def _warn_floor(floor: float, tol: float) -> None:
    warnings.warn(f"defect limit accuracy floor {floor:.1e} exceeds the requested "
                  f"tolerance {tol:.1e}", SeriesTailTooLarge, stacklevel=3)


@dataclass(frozen=True)
class DefectResult:
    """Limit of the defect series as ``r`` increases to the vertex.

    ``value`` is the read-only truncated series evaluated at ``r = 1``
    (:func:`defect_series`: a real ``d``-vector, its diagonal, on a tuple of
    weighted shifts), and ``limit`` the same as a matrix; ``tail_estimate``
    bounds the mass dropped beyond the cutoffs and is the accuracy floor of
    that value.  ``converged`` says the floor is below the requested
    tolerance.  ``r_trace`` lists the evaluated points with their step sizes.
    """

    value: np.ndarray
    r_trace: tuple[tuple[float, float], ...]
    converged: bool
    tail_estimate: float

    @property
    def limit(self) -> np.ndarray:
        """``value`` as a read-only matrix: itself, or formed from its diagonal."""
        if self.value.ndim == 2:
            return self.value
        mat = _as_matrix(self.value)
        mat.flags.writeable = False
        return mat

    def warn_unconverged(self, tol: float) -> None:
        """Warn :class:`SeriesTailTooLarge` naming the floor when the limit,
        asked for at ``tol``, did not converge."""
        if not self.converged:
            _warn_floor(self.tail_estimate, tol)


def defect_limit(t: OperatorTuple, w: MultiWeightSpec, tol: float = LIMIT_TOL) -> DefectResult:
    """Evaluate ``lim_{r -> 1} D(r)``.

    At fixed cutoffs ``D(r)`` is a matrix polynomial in ``r``, so its limit
    at the vertex is its value there; the truncation error is reported as
    the tail estimate.  Integer presets are exact finite differences, so
    only fractional factors and explicit lists carry one.  The read-only
    value and its estimate are held in ``t``'s store (:func:`_held`);
    ``converged`` is judged at each ``tol``.
    """
    value, est = _held(t, ("limit", _levels(w)), lambda: _vertex_value(t, w))
    return DefectResult(value, ((1.0, 0.0),), est < tol, est)


def _vertex_value(t: OperatorTuple, w: MultiWeightSpec) -> tuple[np.ndarray, float]:
    """Read-only ``D(1)`` (:func:`defect_series`) and its tail estimate."""
    value = defect_series(t, w, (1.0,) * t.n)
    value.flags.writeable = False
    return value, _tail_estimate(t, _levels(w))


def conjugation_limit(s, t) -> tuple[np.ndarray, bool, int]:
    """Limit of ``T^k S T*^k`` along doubling powers (monotone for contractions),
    converged when a doubling moves it by less than ``LIMIT_TOL``, and the
    number of conjugations formed.  A zero ``S``, or a power ``T^(2^j)``
    that is exactly zero, gives the exact zero limit at once, with no
    further product."""
    s = np.asarray(s, dtype=complex)
    m = np.asarray(t, dtype=complex)
    if not (s.any() and m.any()):
        return np.zeros(s.shape, dtype=complex), True, 0
    prev = m @ s @ m.conj().T
    steps = 1
    for _ in range(MAX_DOUBLINGS):
        m = m @ m
        if not m.any():
            return np.zeros(s.shape, dtype=complex), True, steps
        cur = m @ s @ m.conj().T
        steps += 1
        if threshold_norm(cur - prev, LIMIT_TOL) < LIMIT_TOL:
            return 0.5 * (cur + cur.conj().T), True, steps
        prev = cur
    return 0.5 * (prev + prev.conj().T), False, steps


def _read(limit: tuple[np.ndarray, bool], what: str) -> np.ndarray:
    """A limit's value; an unconverged one warns :class:`TailUnconverged`."""
    if not limit[1]:
        warnings.warn(f"{what} did not converge in {MAX_DOUBLINGS} doublings",
                      TailUnconverged, stacklevel=3)
    return limit[0]


def joint_tail(t: OperatorTuple, outside: Sequence[int], start=None) -> np.ndarray:
    """``lim_b T^b X T*^b`` over the entries ``outside``, one entry at a time.

    ``X`` is ``start()``; with no ``start`` it is ``I``, whose limit over
    the first outside entry is that entry's held tail (:meth:`OperatorTuple.tail_limit`).
    An outside tail that is exactly zero makes the limit exactly zero, with
    ``start`` never called and no product formed: for Hermitian ``X`` and
    commuting contractions, ``-||X|| P <= T^b X T*^b <= ||X|| P`` with ``P =
    T_i^(b_i) T_i*^(b_i)``.
    Each tail or limit read unconverged warns :class:`TailUnconverged`.
    """
    outside = list(outside)
    for i in outside:
        if not _read(t.tail_limit(i), f"the tail of entry {i}").any():
            return np.zeros((t.dim, t.dim), dtype=complex)
    cur = t.tail_limit(outside.pop(0))[0] if start is None else start()
    for i in outside:
        cur = _read(conjugation_limit(cur, t[i])[:2], f"the limit through entry {i}")
    return cur


def is_pure(t: OperatorTuple) -> bool:
    """True when every coordinate's tail limit vanishes within ``LIMIT_TOL``;
    an unconverged tail warns :class:`TailUnconverged`."""
    return all(threshold_norm(joint_tail(t, (i,)), LIMIT_TOL) <= LIMIT_TOL for i in range(t.n))


# ---------------------------------------------------------------------------
# classification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """One positivity certificate: which member, which point, smallest eigenvalue."""

    mask: int
    kind: str  # "grid" | "limit" | "lattice"
    point: tuple
    min_eig: float

    def to_dict(self) -> dict:
        return {
            "mask": self.mask,
            "kind": self.kind,
            "point": list(self.point),
            "min_eig": self.min_eig,
        }


@dataclass(frozen=True)
class WHyperReport:
    verdict: bool
    certificates: tuple[Witness, ...]
    first_failure: Witness | None
    caveat: str = GRID_CAVEAT


def is_W_hypercontraction(
    t: OperatorTuple,
    w: MultiWeightSpec,
    r_grid: Sequence | None = None,
    tol: float = POSITIVITY_TOL,
    lattice_e_points: bool = True,
) -> WHyperReport:
    """Test defect positivity for every member of the constant-swap family.

    Every grid point is checked for all ``2^n`` members.  Vertex limits are
    added per member when the coefficient tail certifies them.  For integer
    binomial-type weights the implied lattice of alternating-sum conditions
    (:func:`is_gamma_contractive`, with integer points) is checked as well
    unless ``lattice_e_points`` is False, so the verdict matches the
    equivalent finite criterion exactly.  The defect certificates and the
    lattice report are separate facts of ``t``'s store (:func:`_held`), so a
    report with the lattice also answers the query without it.  Of the
    vertex limits only the weights' own is held.
    """
    if w.n != t.n:
        raise ArityMismatch(f"weight arity {w.n} != tuple arity {t.n}")
    grid = _normalize_grid(dyadic_grid(t.n) if r_grid is None else r_grid, t.n)
    certs = _held(t, ("defect", _levels(w), grid, float(tol)),
                  lambda: _defect_certificates(t, w, grid, tol))
    gamma = w.integer_betas()
    if lattice_e_points and gamma is not None:
        certs += tuple(Witness((1 << t.n) - 1, "lattice", tuple(map(int, beta)), min_eig)
                       for beta, min_eig in is_gamma_contractive(t, gamma, tol).witnesses)
    failure = next((wit for wit in certs if wit.min_eig < -tol), None)
    return WHyperReport(failure is None, certs, failure)


def _defect_certificates(t: OperatorTuple, w: MultiWeightSpec, grid, tol: float) -> tuple:
    """Grid and vertex-limit certificates of every swap-family member of ``w``."""
    certs: list[Witness] = []
    # a member that recurs (a constant weight swapped for itself) reads its vertex value here
    limits: dict[tuple, tuple[np.ndarray, float]] = {}
    for mask, member in w.swap_family():
        for point in grid:
            value = defect_series(t, member, point)
            certs.append(Witness(mask, "grid", point, psd_check(value, tol).min_eigenvalue))
        levels = _levels(member)
        if levels not in limits:
            limits[levels] = _held(t, ("limit", levels), lambda: _vertex_value(t, member),
                                   levels == _levels(w))
        value, est = limits[levels]
        if est < tol:
            certs.append(Witness(mask, "limit", (1.0,) * t.n, psd_check(value, tol).min_eigenvalue))
    return tuple(certs)


# ---------------------------------------------------------------------------
# integer/real exponent calculus
# ---------------------------------------------------------------------------

def delta_power(
    t: OperatorTuple,
    beta: Sequence[float],
    x,
    tol: float = POSITIVITY_TOL,
) -> np.ndarray:
    """Apply ``prod_i (I - C_{T_i})^{beta_i}`` to a Hermitian ``X``, ``C_A(X) = A X A*``.

    These are the factored levels of :func:`defect_series` at ``r = 1``, so
    for preset weights ``delta_power(t, gamma, I)`` is ``defect_series(t, w,
    1)`` bit for bit.  ``x=None`` means ``X = I``, and the value is then held
    as :func:`defect_series` holds it: a real ``d``-vector, its diagonal, on
    a tuple of weighted shifts (and, with every exponent 0, on any tuple:
    the diagonal of ``I``).  A matrix ``X`` gives the Hermitian part of
    the matrix.  When ``||X||`` times the tail estimate of the fractional
    factors reaches ``tol``, :class:`SeriesTailTooLarge` names it.
    """
    beta = tuple(float(b) for b in beta)
    if len(beta) != t.n:
        raise ArityMismatch(f"exponent arity {len(beta)} != tuple arity {t.n}")
    if any(b < 0 for b in beta):
        raise ValueError("exponents must be nonnegative")
    mat = None if x is None else np.asarray(x, dtype=complex)
    floor = _tail_estimate(t, beta)
    norm = 1.0 if mat is None else hermitian_norm(mat)
    if floor and floor * norm >= tol:
        _warn_floor(floor * norm, tol)
    for i in reversed(range(t.n)):
        mat = _level(t, i, beta[i], 1.0, mat)
    if mat is None:  # every exponent 0
        return np.ones(t.dim)
    return mat if mat.ndim == 1 else 0.5 * (mat + mat.conj().T)


@dataclass(frozen=True)
class GammaReport:
    verdict: bool
    witnesses: tuple[tuple[tuple[float, ...], float], ...]
    first_failure: tuple[float, ...] | None


def is_gamma_contractive(
    t: OperatorTuple,
    gamma: Sequence[float],
    tol: float = POSITIVITY_TOL,
) -> GammaReport:
    """Check ``Delta^beta(I) >= 0`` over the finite exponent set below ``gamma``.

    Integer ``gamma`` scans the full lattice ``0 <= beta <= gamma``.  Real
    ``gamma`` scans the integer lattice of the floor plus the fractional
    corner values ``gamma_i`` themselves.  This is the one lattice loop; its
    report is held in ``t``'s store (:func:`_held`).
    """
    gamma = tuple(float(g) for g in gamma)
    if len(gamma) != t.n:
        raise ArityMismatch(f"gamma arity {len(gamma)} != tuple arity {t.n}")
    if any(g < 1.0 for g in gamma):
        raise ValueError("gamma must be at least 1 in every coordinate")
    return _held(t, ("lattice", gamma, float(tol)), lambda: _lattice_report(t, gamma, tol))


def _lattice_report(t: OperatorTuple, gamma: tuple[float, ...], tol: float) -> GammaReport:
    """Smallest eigenvalue of ``Delta^beta(I)`` at each ``beta`` of the set below ``gamma``."""
    axes = []
    for g in gamma:
        whole, frac = _split(g)
        axes.append([float(k) for k in range(whole + 1)] + ([g] if frac else []))
    witnesses = tuple((beta, psd_check(delta_power(t, beta, None, tol=tol), tol).min_eigenvalue)
                      for beta in itertools.product(*axes))
    failure = next((beta for beta, min_eig in witnesses if min_eig < -tol), None)
    return GammaReport(failure is None, witnesses, failure)


@dataclass(frozen=True)
class CrosscheckReport:
    gamma_report: GammaReport
    w_report: WHyperReport
    agree: bool


def equivalence_crosscheck(
    t: OperatorTuple,
    gamma: Sequence[int],
    r_grid: Sequence | None = None,
    tol: float = POSITIVITY_TOL,
) -> CrosscheckReport:
    """Run both equivalent finite criteria and insist the verdicts match.

    The defect verdict is the grid and vertex verdict alone
    (``lattice_e_points=False``): with the lattice witnesses in it, a failing
    lattice would fail both verdicts and read as agreement.
    """
    gamma = tuple(int(g) for g in gamma)
    gr = is_gamma_contractive(t, gamma, tol=tol)
    w = MultiWeightSpec(tuple(WeightSpec.bergman(g) for g in gamma))
    wr = is_W_hypercontraction(t, w, r_grid=r_grid, tol=tol, lattice_e_points=False)
    agree = gr.verdict == wr.verdict
    if not agree:
        raise EquivalenceViolation(
            f"criteria disagree: lattice verdict {gr.verdict}, defect verdict {wr.verdict}"
        )
    return CrosscheckReport(gr, wr, agree)


# ---------------------------------------------------------------------------
# subtuples and monotonicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubtupleReport:
    lam: tuple[int, ...]
    parent: WHyperReport
    sub: WHyperReport
    consistent: bool


def subtuple_inheritance_check(
    t: OperatorTuple,
    w: MultiWeightSpec,
    lam: Sequence[int],
    r_grid: Sequence | None = None,
    tol: float = POSITIVITY_TOL,
) -> SubtupleReport:
    """Verify that a hypercontractive verdict passes to the sub-tuple."""
    lam = _check_subset(lam, t.n)
    parent = is_W_hypercontraction(t, w, r_grid=r_grid, tol=tol)
    sub_grid = None if r_grid is None else [tuple(p[i] for i in lam) for p in
                                            (_normalize_point(q, t.n) for q in r_grid)]
    sub = is_W_hypercontraction(subtuple(t, lam), w.subset(lam), r_grid=sub_grid, tol=tol)
    consistent = (not parent.verdict) or sub.verdict
    return SubtupleReport(lam, parent, sub, consistent)


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    min_gap_eig: float
    pairs_checked: int


def two_parameter_monotonicity_check(
    t: OperatorTuple,
    w: MultiWeightSpec,
    lam: Sequence[int],
    r_points: Sequence,
    beta_points: Sequence[Sequence[int]],
    tol: float = POSITIVITY_TOL,
) -> MonotonicityReport:
    """Two-parameter monotonicity of ``T_c^b D(r') T_c*^b`` on finite grids.

    For ``r' <= s'`` and ``a <= b`` the value at the larger parameters must be
    dominated in the semidefinite order, within ``tol``.
    """
    lam = _check_subset(lam, t.n)
    comp = tuple(i for i in range(t.n) if i not in lam)
    t_sub = subtuple(t, lam)
    w_sub = w.subset(lam)
    points = [_normalize_point(p, len(lam)) for p in r_points]
    betas = [tuple(int(b) for b in bp) for bp in beta_points]
    for bp in betas:
        if len(bp) != len(comp):
            raise ArityMismatch(f"exponent arity {len(bp)} != complement size {len(comp)}")
    values: dict[tuple, np.ndarray] = {}
    for p in points:
        base = _as_matrix(defect_series(t_sub, w_sub, p))
        for bp in betas:
            left = np.eye(t.dim, dtype=complex)
            for idx, power in zip(comp, bp):
                left = left @ t.power_stack(idx, power + 1)[power]
            values[(p, bp)] = left @ base @ left.conj().T
    min_gap = math.inf
    pairs = 0
    for (p1, b1), v1 in values.items():
        for (p2, b2), v2 in values.items():
            if (p1, b1) == (p2, b2):
                continue
            if all(a <= b for a, b in zip(p1, p2)) and all(a <= b for a, b in zip(b1, b2)):
                gap = v1 - v2  # smaller parameters dominate
                eig = float(_eigvalsh(gap)[0])
                min_gap = min(min_gap, eig)
                pairs += 1
    if pairs == 0:
        min_gap = 0.0
    return MonotonicityReport(bool(min_gap >= -tol), min_gap, pairs)
