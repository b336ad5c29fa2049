"""Hereditary-calculus defect operators and positivity classification.

For a commuting tuple of contractions ``T`` and a multi-weight ``W`` the
central object is the defect series

    D(r) = sum_a c_a r^a T^a T*^a,

where ``c`` are the reciprocal coefficients of the associated function.  The
series is separable across variables, so it is evaluated as a nested
one-variable hereditary sum: each level is one batched pass
``X -> sum_k c_k T^k X T*^k``, and the innermost level, where ``X = I``, is
one weighted sum of the Gram stack ``[T^k T*^k]_k``.

Each variable's sum stops at the first of three cutoffs (see
``_effective_degree``): the support of ``c`` (finite for integer ``beta`` and
Hardy), the nilpotency order of ``T_i``, or the numerical support, the first
of ``FIRST_CUT, 2 FIRST_CUT, ...`` below ``DEGREE_CAP`` whose remainder
``||T_i^m||^2 sum_{k >= m} |c_k|`` is at most ``UNIT_ROUNDOFF * |c_0|``.  That
remainder bounds every dropped term at every ``r <= 1`` and nesting level,
since power norms of a contraction do not increase, and it is below the
rounding the kept sum carries, so the cut changes no verdict.  The tail
estimate of a defect limit reads the same remainder (``_remainder``) at the
cut actually summed, with the exact dropped coefficient mass (``_abs_mass``).

The :class:`OperatorTuple` is the one owner of its entries' powers: the
power, adjoint-power and Gram stacks, one set per variable, the nilpotency
orders and the tail limits ``lim_k T_i^k T_i*^k`` are formed here and
nowhere else in the package.  The stacks grow only when a longer prefix is
asked for; every swap-family member, grid point and vertex value of a tuple,
every classification run on it, and the dilations and characteristic
functions built from it read them.  A tail limit is formed once, at
``LIMIT_TOL``: the purity test, the tail split of a dilation and the joint
tail of a check all read it.
Next to the stacks the tuple holds its classification reports, one per
(weights, grid, tolerance, cutoffs, lattice) key, so a fact proved once is
not proved again by a later pipeline step; the sub-tuple on every index is
the tuple itself and reads the same reports.

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
    NotPsd,
    SeriesTailTooLarge,
)
from .linalg import (
    POSITIVITY_TOL,
    Operator,
    hermitian_norm,
    psd_check,
    psd_sqrt,
    spectral_norm,
    threshold_norm,
)
from .series import (
    MultiWeightSpec,
    WeightSpec,
    _normalize_degrees,
    _one_minus_z_power,
    _normalize_grid,
    _normalize_point,
)

__all__ = [
    "OperatorTuple",
    "DefectResult",
    "GRID_CAVEAT",
    "defect_series",
    "defect_limit",
    "defect_operator",
    "conjugation_limit",
    "hereditary_apply",
    "is_W_hypercontraction",
    "is_pure",
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
COMMUTATION_TOL = 1e-10
# Longest one-variable defect series summed; the numerical-support search
# usually stops well before it.
DEGREE_CAP = 256
# First cutoff the numerical-support search tries; it doubles from here.
FIRST_CUT = 8
# Unit roundoff of double precision: a certified remainder below
# ``UNIT_ROUNDOFF * |c_0|`` is below the rounding the kept sum already carries.
UNIT_ROUNDOFF = np.finfo(float).eps / 2
# Deepest power whose norm bounds a remainder (with the dimension, when that is
# larger): deep enough to see the decay of a strict contraction.
NORM_DEPTH = 64
# Doublings of the power before a conjugation limit is given up as unconverged.
MAX_DOUBLINGS = 60
# Terms of the nonnegative expansion of a fractional power ``(1 - x)^d``.
FRACTIONAL_TERMS = 200
# Points ``r_j = 1 - 2^-j`` of the default classification grid.
DYADIC_LEVELS = 3
# Distance from an integer below which a real exponent counts as that integer.
EXPONENT_SNAP = 1e-12


# ---------------------------------------------------------------------------
# operator tuples
# ---------------------------------------------------------------------------

class _OperatorStacks:
    """Power, adjoint-power and Gram stacks of one matrix, built lazily and grown on demand.

    The stacks only ever grow, and a request returns a read-only prefix, so
    a short request after a long one gives the bits of a fresh build.  The
    nilpotency order is cached with the depth it was scanned to, the norm of
    each power asked for by exponent, and the tail limit once.
    """

    __slots__ = ("mat", "_powers", "_adjoints", "_grams", "_nil", "_power_norms", "_tail")

    def __init__(self, mat: np.ndarray) -> None:
        self.mat = mat
        self._powers = self._adjoints = self._grams = self._tail = None
        self._nil: tuple[int, int | None] = (0, None)
        self._power_norms: dict[int, float] = {}

    def powers(self, count: int) -> np.ndarray:
        """``[I, T, ..., T^(count-1)]``."""
        if self._powers is None or len(self._powers) < count:
            self._powers = _power_stack(self.mat, count, self._powers)
            self._powers.flags.writeable = False
        return self._powers[:count]

    def adjoints(self, count: int) -> np.ndarray:
        """``[I, T*, ..., T*^(count-1)]``, by sequential products with ``T*``
        (conjugating :meth:`powers` instead would move the last bits)."""
        if self._adjoints is None or len(self._adjoints) < count:
            self._adjoints = _power_stack(self.mat.conj().T, count, self._adjoints)
            self._adjoints.flags.writeable = False
        return self._adjoints[:count]

    def grams(self, count: int) -> np.ndarray:
        """``[T^k T*^k for k < count]``."""
        have = 0 if self._grams is None else len(self._grams)
        if have < count:
            new = self.powers(count)[have:]
            new = new @ new.conj().transpose(0, 2, 1)
            self._grams = new if have == 0 else np.concatenate([self._grams, new])
            self._grams.flags.writeable = False
        return self._grams[:count]

    def nilpotency_order(self, cap: int) -> int | None:
        """Smallest ``k <= cap`` with ``T^k = 0`` exactly, or None."""
        depth, order = self._nil
        if order is None and depth < cap:
            order = _nilpotency_order(self.mat, cap)
            self._nil = (cap, order)
        return order if order is not None and order <= cap else None

    def power_norm(self, k: int) -> float:
        """``||T^k||``, computed once per exponent."""
        if k not in self._power_norms:
            self._power_norms[k] = spectral_norm(np.linalg.matrix_power(self.mat, k))
        return self._power_norms[k]

    def tail(self) -> tuple[np.ndarray, bool]:
        """Read-only ``lim T^k T*^k`` of :func:`conjugation_limit` and its
        ``converged`` flag, formed once."""
        if self._tail is None:
            eye = np.eye(self.mat.shape[0], dtype=complex)
            limit, converged, _ = conjugation_limit(eye, self.mat)
            limit.flags.writeable = False
            self._tail = (limit, converged)
        return self._tail


@dataclass(frozen=True)
class OperatorTuple:
    """Commuting contractions on a shared finite-dimensional space.

    Entries are validated :class:`Operator` objects, so they are read-only;
    an ``ndarray`` entry is wrapped here.  The tuple owns the power,
    adjoint-power and Gram stacks, the nilpotency orders and the tail limits
    of its entries (see :meth:`power_stack` and :meth:`tail_limit`) and the
    reports of :func:`is_W_hypercontraction` run on it.
    """

    ops: tuple[Operator, ...]
    commutation_tol: float = COMMUTATION_TOL
    _stacks: tuple[_OperatorStacks, ...] = field(init=False, repr=False, compare=False)
    _reports: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.ops:
            raise ArityMismatch("operator tuple needs at least one entry")
        ops = tuple(t if isinstance(t, Operator) else Operator(t) for t in self.ops)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "_stacks", tuple(_OperatorStacks(t.mat) for t in ops))
        object.__setattr__(self, "_reports", {})
        d = ops[0].rows
        bound = 1.0 + self.commutation_tol
        for t in ops:
            if t.rows != t.cols or t.rows != d:
                raise ArityMismatch("tuple entries must be square on a shared space")
            if threshold_norm(t.mat, bound) > bound:
                raise NotContractive(f"entry norm {t.norm():.6f} exceeds 1")
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                comm = ops[i].mat @ ops[j].mat - ops[j].mat @ ops[i].mat
                if threshold_norm(comm, self.commutation_tol) > self.commutation_tol:
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

    def adjoint_stack(self, i: int, count: int) -> np.ndarray:
        """Read-only ``[I, T_i*, ..., T_i*^(count-1)]``, shared like :meth:`power_stack`."""
        return self._stacks[i].adjoints(count)

    def gram_stack(self, i: int, count: int) -> np.ndarray:
        """Read-only ``[T_i^k T_i*^k for k < count]``, built from :meth:`power_stack`."""
        return self._stacks[i].grams(count)

    def nilpotency_order(self, i: int, cap: int) -> int | None:
        """Smallest ``k <= cap`` with ``T_i^k = 0`` exactly, or None; scanned once."""
        return self._stacks[i].nilpotency_order(cap)

    def tail_limit(self, i: int) -> tuple[np.ndarray, bool]:
        """Read-only tail ``lim_k T_i^k T_i*^k`` (zero exactly for a pure
        contraction) and whether its doublings converged; formed once."""
        return self._stacks[i].tail()


def subtuple(t: OperatorTuple, lam: Sequence[int]) -> OperatorTuple:
    """Sub-tuple at the (0-based) sorted index subset ``lam``; it shares the parent's stacks.

    The subset of every index gives ``t`` itself, with its held reports.
    """
    lam = _check_subset(lam, t.n)
    if len(lam) == t.n:
        return t
    sub = OperatorTuple(tuple(t.ops[i] for i in lam), t.commutation_tol)
    object.__setattr__(sub, "_stacks", tuple(t._stacks[i] for i in lam))
    return sub


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

def _power_stack(mat: np.ndarray, count: int, prefix: np.ndarray | None = None) -> np.ndarray:
    """Stack ``[I, T, T^2, ...]`` with ``count`` entries.

    A shorter ``prefix`` of the same stack is copied and continued with the
    same sequential products, so a grown stack has the bits of a fresh one.
    """
    d = mat.shape[0]
    out = np.empty((count, d, d), dtype=complex)
    if prefix is None:
        out[0] = np.eye(d)
        start = 1
    else:
        start = len(prefix)
        out[:start] = prefix
    for k in range(start, count):
        out[k] = out[k - 1] @ mat
    return out


def _hereditary_sum(
    coeffs: np.ndarray, stacks: _OperatorStacks, x: np.ndarray | None
) -> np.ndarray:
    """``sum_k coeffs[k] T^k X T*^k`` over the stacks of ``T``; ``x=None`` means ``X = I``."""
    coeffs = np.asarray(coeffs, dtype=float)
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        return np.zeros_like(stacks.mat if x is None else x)
    count = int(nz[-1]) + 1
    if x is None:
        terms = stacks.grams(count)
    else:
        powers = stacks.powers(count)
        terms = (powers @ x) @ powers.conj().transpose(0, 2, 1)
    return np.tensordot(coeffs[:count], terms, axes=1)


def hereditary_apply(coeffs: np.ndarray, t, x: np.ndarray) -> np.ndarray:
    """One-variable hereditary sum ``sum_k coeffs[k] T^k X T*^k``.

    This one-shot form builds the powers of ``T`` for this call alone and is
    the reference the tuple's sums are tested against; sums over the entries
    of an :class:`OperatorTuple` read the tuple's stacks through
    :func:`defect_series` and :func:`delta_power` instead.
    """
    return _hereditary_sum(coeffs, _OperatorStacks(np.asarray(t, dtype=complex)), x)


def _nilpotency_order(mat: np.ndarray, cap: int) -> int | None:
    """Smallest ``k <= cap`` with ``T^k = 0`` exactly, or None."""
    p = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, cap + 1):
        p = p @ mat
        if not np.any(p):
            return k
    return None


def _effective_degree(t: OperatorTuple, i: int, w: WeightSpec) -> int:
    """Truncation level for variable ``i``: the first of three cutoffs.

    *Support*: ``c_k = 0`` from here on (integer ``beta``, Hardy, short
    explicit lists), else ``DEGREE_CAP``.  *Nilpotency*: ``T_i^k = 0`` from
    here on.  *Numerical support*: below those, the first ``m`` of
    ``FIRST_CUT, 2 FIRST_CUT, ...`` whose remainder (:func:`_remainder`)
    ``||T_i^m||^2 sum_{m <= k < deg} |c_k|`` is at most
    ``UNIT_ROUNDOFF * |c_0|``.

    That remainder bounds the dropped terms at every ``r <= 1``, and at each
    nesting level the kept sum holds ``c_0 X``, so what is dropped is below
    the a-priori rounding of the kept sum (Higham, ch. 4) and no verdict can
    see the cut.  Supports and nilpotency orders of at most ``FIRST_CUT``
    terms (integer ``beta <= 7``, Hardy) never enter the search.
    """
    cap = min(DEGREE_CAP, w.max_terms or DEGREE_CAP)
    support = w.inverse_support(cap)
    nil = t.nilpotency_order(i, min(cap, t.dim))
    deg = max(1, min(support if nil is None else min(support, nil), cap))
    c = np.abs(w.inverse_coeffs(cap)[:deg])
    m = FIRST_CUT
    while m < deg:
        if _remainder(t, i, float(np.sum(c[m:])), m) <= UNIT_ROUNDOFF * c[0]:
            return m
        m *= 2
    return deg


def _remainder(t: OperatorTuple, i: int, mass: float, m: int) -> float:
    """Certified bound ``mass * ||T_i^p||^2`` on the terms ``k >= m`` of a
    one-variable sum ``sum_k c_k r^k T_i^k X T_i*^k`` per unit of ``||X||``,
    where ``mass`` bounds ``sum_{k >= m} |c_k| r^k``.

    ``p = min(m, max(dim, NORM_DEPTH))``: power norms of a contraction do not
    increase, so ``||T_i^p||`` bounds ``||T_i^k||`` for every ``k >= m``.  A
    zero mass takes no power norm.
    """
    if mass == 0.0:
        return 0.0
    return mass * t._stacks[i].power_norm(min(m, max(t.dim, NORM_DEPTH))) ** 2


def _abs_mass(w: WeightSpec, m: int) -> tuple[float, float]:
    """``sum_{k >= m} |c_k|`` and ``sum_k |c_k|``, exact up to rounding.

    For the presets ``c`` are the coefficients of ``(1 - z)^p``: from ``s =
    floor(p) + 1`` on they share one sign and ``sum_k c_k = (1 - 1)^p = 0``,
    so ``sum_{k >= j} |c_k| = |sum_{k < j} c_k|`` for ``j >= s``.  An
    explicit list's reciprocal ends with the list.
    """
    if w.exponent is None:
        c = np.abs(w.inverse_coeffs(w.max_terms))
        return float(np.sum(c[m:])), float(np.sum(c))
    s = int(math.floor(w.exponent)) + 1
    c = w.inverse_coeffs(max(m, s))
    a = np.abs(c)
    tail = float(np.sum(a[m:])) + abs(float(np.sum(c)))
    return tail, float(np.sum(a[:s])) + abs(float(np.sum(c[:s])))


def _tail_estimate(t: OperatorTuple, w: MultiWeightSpec, degrees: Sequence[int]) -> float:
    """Upper estimate of the mass dropped beyond the per-variable cutoffs at
    ``r = 1``: each variable's remainder (:func:`_remainder`) times the
    total absolute mass of the others."""
    masses = [_abs_mass(w[i], degrees[i]) for i in range(t.n)]
    return sum(_remainder(t, i, masses[i][0], degrees[i])
               * math.prod(total for j, (_, total) in enumerate(masses) if j != i)
               for i in range(t.n))


def dyadic_grid(n: int) -> list[tuple[float, ...]]:
    """Diagonal grid ``r_j = 1 - 2^-j`` repeated across coordinates."""
    return [((1.0 - 0.5**j),) * n for j in range(1, DYADIC_LEVELS + 1)]


def _resolve_degrees(t: OperatorTuple, w: MultiWeightSpec, degrees) -> tuple[int, ...]:
    if degrees is None:
        return tuple(_effective_degree(t, i, w[i]) for i in range(t.n))
    return _normalize_degrees(degrees, t.n)


# ---------------------------------------------------------------------------
# defect series, limits, defect operators and purity
# ---------------------------------------------------------------------------

def defect_series(
    t: OperatorTuple,
    w: MultiWeightSpec,
    r,
    degrees: Sequence[int] | int | None = None,
) -> np.ndarray:
    """Finite hereditary sum ``sum_{a < degrees} c_a r^a T^a T*^a`` (Hermitian).

    The nesting runs from the last variable, whose level is a weighted sum of
    the tuple's Gram stack, outwards through the tuple's power stacks; the
    result equals nesting :func:`hereditary_apply` from ``X = I`` bit for bit.
    """
    if w.n != t.n:
        raise ArityMismatch(f"weight arity {w.n} != tuple arity {t.n}")
    point = _normalize_point(r, t.n)
    degs = _resolve_degrees(t, w, degrees)
    x = None
    for i in reversed(range(t.n)):
        coeffs = w[i].inverse_coeffs(degs[i]) * point[i] ** np.arange(degs[i])
        x = _hereditary_sum(coeffs, t._stacks[i], x)
    return 0.5 * (x + x.conj().T)


@dataclass(frozen=True)
class DefectResult:
    """Limit of the defect series as ``r`` increases to the vertex.

    ``limit`` is the truncated series evaluated at ``r = 1``; ``tail_estimate``
    bounds the mass dropped beyond the cutoffs and is the accuracy floor of
    that value.  ``converged`` says the floor is below the requested
    tolerance.  ``r_trace`` lists the evaluated points with their step sizes.
    """

    limit: np.ndarray
    r_trace: tuple[tuple[float, float], ...]
    converged: bool
    tail_estimate: float

    def warn_unconverged(self, tol: float) -> None:
        """Warn :class:`SeriesTailTooLarge` naming the floor when the limit,
        asked for at ``tol``, did not converge."""
        if not self.converged:
            warnings.warn(f"defect limit accuracy floor {self.tail_estimate:.1e} exceeds the "
                          f"requested tolerance {tol:.1e}", SeriesTailTooLarge, stacklevel=2)


def defect_limit(
    t: OperatorTuple,
    w: MultiWeightSpec,
    tol: float = LIMIT_TOL,
    degrees: Sequence[int] | int | None = None,
) -> DefectResult:
    """Evaluate ``lim_{r -> 1} D(r)``.

    At fixed cutoffs ``D(r)`` is a matrix polynomial in ``r``, so its limit
    at the vertex is its value there; the truncation error is reported as
    the tail estimate.
    """
    degs = _resolve_degrees(t, w, degrees)
    ones = (1.0,) * t.n
    value = defect_series(t, w, ones, degs)
    est = _tail_estimate(t, w, degs)
    return DefectResult(value, ((1.0, 0.0),), est < tol, est)


def defect_operator(
    t: OperatorTuple,
    w: MultiWeightSpec,
    tol: float = LIMIT_TOL,
) -> np.ndarray:
    """PSD square root of the defect-series limit."""
    res = defect_limit(t, w, tol=tol)
    res.warn_unconverged(tol)
    cert = psd_check(res.limit, max(tol, POSITIVITY_TOL))
    if not cert.verdict:
        raise NotPsd(
            f"defect limit has eigenvalue {cert.min_eigenvalue:.3e}; tuple is not "
            "hypercontractive at this weight"
        )
    return psd_sqrt(res.limit, max(tol, POSITIVITY_TOL))


def conjugation_limit(s, t) -> tuple[np.ndarray, bool, int]:
    """Limit of ``T^k S T*^k`` along doubling powers (monotone for contractions),
    converged when a doubling moves it by less than ``LIMIT_TOL``."""
    s = np.asarray(s, dtype=complex)
    m = np.asarray(t, dtype=complex)
    if s.size == 0 or m.size == 0:
        return s.copy(), True, 0
    prev = m @ s @ m.conj().T
    steps = 1
    for _ in range(MAX_DOUBLINGS):
        m = m @ m
        cur = m @ s @ m.conj().T
        steps += 1
        if threshold_norm(cur - prev, LIMIT_TOL) < LIMIT_TOL:
            return 0.5 * (cur + cur.conj().T), True, steps
        prev = cur
    return 0.5 * (prev + prev.conj().T), False, steps


def is_pure(t: OperatorTuple) -> bool:
    """True when every coordinate's tail limit vanishes within ``LIMIT_TOL``."""
    for i in range(t.n):
        if threshold_norm(t.tail_limit(i)[0], LIMIT_TOL) > LIMIT_TOL:
            return False
    return True


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

    @property
    def ok(self) -> bool:
        return bool(self.min_eig >= -POSITIVITY_TOL)

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
    degrees: Sequence[int] | int | None = None,
    lattice_e_points: bool | str = "auto",
) -> WHyperReport:
    """Test defect positivity for every member of the constant-swap family.

    Every grid point is checked for all ``2^n`` members.  Vertex limits are
    added per member when the coefficient tail certifies them.  For integer
    binomial-type weights the implied lattice of alternating-sum conditions
    is checked as well (``lattice_e_points="auto"``), so the verdict matches
    the equivalent finite criterion exactly.

    The report is held on ``t``, keyed by the weights, the normalized grid,
    ``tol``, the normalized cutoffs and the resolved lattice flag (``"auto"``
    becomes True or False), and a later call with the same key returns it.
    """
    if w.n != t.n:
        raise ArityMismatch(f"weight arity {w.n} != tuple arity {t.n}")
    grid = _normalize_grid(dyadic_grid(t.n) if r_grid is None else r_grid, t.n)
    gamma = w.integer_betas()
    lattice = lattice_e_points is True or (lattice_e_points == "auto" and gamma is not None)
    if lattice and gamma is None:
        raise ValueError("lattice points require integer binomial-type weights")
    key = (w, grid, float(tol), None if degrees is None else _normalize_degrees(degrees, t.n),
           lattice)
    held = t._reports.get(key)
    if held is not None:
        return held
    certs: list[Witness] = []
    failure = None
    for mask, member in w.swap_family():
        degs = _resolve_degrees(t, member, degrees)
        for point in grid:
            value = defect_series(t, member, point, degs)
            min_eig = psd_check(value, tol).min_eigenvalue
            wit = Witness(mask, "grid", point, min_eig)
            certs.append(wit)
            if min_eig < -tol:
                failure = failure or wit
        lim = defect_limit(t, member, tol, degs)
        if lim.converged:
            min_eig = psd_check(lim.limit, tol).min_eigenvalue
            wit = Witness(mask, "limit", (1.0,) * t.n, min_eig)
            certs.append(wit)
            if min_eig < -tol:
                failure = failure or wit
    if lattice:
        eye = np.eye(t.dim, dtype=complex)
        for beta in itertools.product(*(range(g + 1) for g in gamma)):
            value = delta_power(t, beta, eye)
            min_eig = psd_check(value, tol).min_eigenvalue
            wit = Witness((1 << t.n) - 1, "lattice", beta, min_eig)
            certs.append(wit)
            if min_eig < -tol:
                failure = failure or wit
    report = t._reports[key] = WHyperReport(failure is None, tuple(certs), failure)
    return report


# ---------------------------------------------------------------------------
# integer/real exponent calculus
# ---------------------------------------------------------------------------

def delta_power(
    t: OperatorTuple,
    beta: Sequence[float],
    x,
    tol: float = POSITIVITY_TOL,
) -> np.ndarray:
    """Apply ``prod_i (I - C_{T_i})^{beta_i}`` to a Hermitian ``X``.

    ``C_A(X) = A X A*``.  Integer exponents are applied exactly; a fractional
    remainder ``d`` uses the nonnegative-coefficient expansion
    ``(1-x)^d = 1 - sum b_k x^k``, the coefficients of ``(1 - z)^d`` with
    ``b_k = -c_k``, truncated at ``FRACTIONAL_TERMS`` (the dropped mass
    ``sum_{k > FRACTIONAL_TERMS} b_k = |sum_{k <= FRACTIONAL_TERMS} c_k|`` is
    reported via :class:`SeriesTailTooLarge`).
    The fractional sum and its tail power read the tuple's power stacks.
    """
    beta = tuple(float(b) for b in beta)
    if len(beta) != t.n:
        raise ArityMismatch(f"exponent arity {len(beta)} != tuple arity {t.n}")
    if any(b < 0 for b in beta):
        raise ValueError("exponents must be nonnegative")
    mat = np.asarray(x, dtype=complex)
    for i, b in enumerate(beta):
        whole = int(math.floor(b + EXPONENT_SNAP))
        frac = b - whole
        if frac < EXPONENT_SNAP:
            frac = 0.0
        ti = t[i].mat
        for _ in range(whole):
            mat = mat - ti @ mat @ ti.conj().T
        if frac:
            coeffs = _one_minus_z_power(frac, FRACTIONAL_TERMS + 1)
            new = _hereditary_sum(coeffs, t._stacks[i], mat)
            pk = t.power_stack(i, FRACTIONAL_TERMS + 1)[FRACTIONAL_TERMS]
            last = pk @ mat @ pk.conj().T
            # the dropped b_k sum to (1 - 1)^frac minus the kept coefficients
            est = abs(float(np.sum(coeffs))) * hermitian_norm(last)
            if est > tol:
                warnings.warn(
                    f"fractional-power tail estimate {est:.3e} exceeds {tol:.1e}",
                    SeriesTailTooLarge,
                )
            mat = new
    return 0.5 * (mat + mat.conj().T)


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
    corner values ``gamma_i`` themselves.
    """
    gamma = tuple(float(g) for g in gamma)
    if len(gamma) != t.n:
        raise ArityMismatch(f"gamma arity {len(gamma)} != tuple arity {t.n}")
    if any(g < 1.0 for g in gamma):
        raise ValueError("gamma must be at least 1 in every coordinate")
    axes = []
    for g in gamma:
        vals = [float(k) for k in range(int(math.floor(g + EXPONENT_SNAP)) + 1)]
        if not float(g).is_integer():
            vals.append(g)
        axes.append(vals)
    eye = np.eye(t.dim, dtype=complex)
    witnesses = []
    verdict = True
    failure = None
    for beta in itertools.product(*axes):
        value = delta_power(t, beta, eye, tol=tol)
        min_eig = psd_check(value, tol).min_eigenvalue
        witnesses.append((beta, min_eig))
        if min_eig < -tol:
            verdict = False
            failure = failure or beta
    return GammaReport(bool(verdict), tuple(witnesses), failure)


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
    """Run both equivalent finite criteria and insist the verdicts match."""
    gamma = tuple(int(g) for g in gamma)
    if any(g < 1 for g in gamma):
        raise ValueError("gamma must be at least 1 in every coordinate")
    w = MultiWeightSpec(tuple(WeightSpec.bergman(g) for g in gamma))
    gr = is_gamma_contractive(t, gamma, tol=tol)
    wr = is_W_hypercontraction(t, w, r_grid=r_grid, tol=tol, lattice_e_points=True)
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
        base = defect_series(t_sub, w_sub, p)
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
                eig = float(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))[0])
                min_gap = min(min_gap, eig)
                pairs += 1
    if pairs == 0:
        min_gap = 0.0
    return MonotonicityReport(bool(min_gap >= -tol), min_gap, pairs)
