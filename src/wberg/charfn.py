"""Characteristic triples and characteristic functions of pure hypercontractions.

For a pure hypercontraction ``T`` with defect square root ``D`` the column
map

    C h = ( sqrt(rho_n) D T*^n h )_{n >= 0},   rho_0 = 1,
    rho_n = 1/w_n - 1/w_{n-1},

stacks with ``T*`` into an isometry; completing that isometry to a unitary
block matrix ``[[T*, B], [C, D-blocks]]`` yields a characteristic triple
``(E, B, {D_n})``, unique up to a right unitary.  The characteristic
function

    theta(z) = sum_n sqrt(rho_n) D_n z^n + z D K(z, T*) B,
    K(z, A) = sum_n z^n A^n / w_n,

is a partially isometric multiplier from a Hardy space into the weighted
Bergman space of the defect, complementary to the dilation map, and a
complete unitary invariant.  Every identity is checkable at the truncation
level and the checks below return the residuals.

The completion ``Y = [B; D]`` is held as the compact WY factors of the
Householder QR of ``X = [T*; C]``: ``Y = E - V S W*`` with ``E = [0; I_e]``
and ``W`` the last ``e`` rows of ``V`` (:class:`CharTriple`), an identity
plus a term of rank ``d``, the operator's dimension, where ``e`` is the
completion's dimension and far larger.  Each residual is computed at the
size where it lives, from ``r x e`` and ``d x e`` arrays at most (``r`` the
defect's dimension); no ``e``-square matrix is formed on the accepting
path.  The coefficients are ``Theta_k = sqrt(rho_k) J_k + Lambda_k W*``,
with ``J_k`` the selector of block ``k`` and ``Lambda_k`` of size ``r x
d``, so ``theta(z) = kron(a(z), I_r) + L(z) W*``.  The orthogonality defect
``Y* Y - I = W Delta W*`` is read off ``d``-square products
(:attr:`CharTriple.orthogonality`).  The unitarity of the completed block
matrix is read off a ``(d + min(e, d))``-square matrix
(:func:`block_unitarity`, held on the function), the range orthogonality
``pi* M = 0`` off a ``d``-square Gram matrix.  The split ``pi pi* + M M* =
I`` factors exactly through ``U U* - I`` of the completed block matrix
``U``, so it is certified by a proved bound from the block unitarity, the
orthogonality defect and the ``d``-sized blocks ``D T*^j``
(:func:`partial_isometry_check`); no eigensolve runs on the completion
space, and the split is assembled only when that bound cannot decide.  The
transport ``tau`` between the completions of ``T`` and ``u T u*`` is
applied through its factors and certified unitary by a proved bound from a
``d``-square Gram matrix and both orthogonality defects
(:func:`coincidence_verify`); it is formed only when that bound cannot
decide.  Every bound carries a rounding allowance derived from the sizes of
its formed products (:func:`_gamma`).  Evaluations take a whole point set
at once: one Vandermonde product per coefficient stack.  The kernel identity
is read off the factors ``a(z)``, ``L(z)`` and ``K = W* W``, with no value
``theta(z)`` formed and no product of inner dimension ``e`` beyond ``K``
(:func:`key_identity_check`).  Its scalar kernel ``k(eta conj(zeta))`` is,
for a preset weight, the closed form ``(1 - x)^-p``, and for an explicit
list the whole list's sum (:func:`_kernel_scalar`).

The rows ``R_j = D T*^j`` are formed once, by one right multiplication by
``T*`` per term (``OperatorTuple.row_chain``).  The column map, the
coefficients, the kernel term ``D K(z, T*)`` and the split bound all read
them, and no stack of ``T*^j`` is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dilation import _defect_sqrt_pieces, _one_tuple, _pure_horizon
from .errors import HorizonTooShort, NotPure, NotUnitaryInput
from .hyper import OperatorTuple, is_pure
from .linalg import (
    UNIT_ROUNDOFF,
    complement_columns,
    complete_to_unitary,
    hermitian_norm,
    threshold_norm,
)
from .series import WeightSpec

__all__ = [
    "rho_sequence",
    "CharTriple",
    "CharFunction",
    "char_function",
    "block_unitarity",
    "char_function_eval",
    "key_identity_check",
    "partial_isometry_check",
    "coincidence_verify",
    "uniqueness_unitary",
    "kernel_poly",
]

CHAR_TOL = 1e-9

# Extra slots beyond the purity horizon: the evaluation-grid tail of the
# function decays like (|eta zeta|)^n_terms, so two dozen terms push it to
# machine level on grids of radius up to ~0.6.
MIN_CHAR_TERMS = 24
# The last term of an explicit list's scalar kernel sum must be this small
# relative to the sum: the list ends there, and no later term can be added.
KERNEL_CHUNK_RTOL = 1e-18


def rho_sequence(omega: WeightSpec, n: int) -> np.ndarray:
    """``rho_0 = 1`` and ``rho_k = 1/w_k - 1/w_{k-1}`` (nonnegative for decreasing weights)."""
    inv = omega.inverse_weight_values(n)
    out = np.empty(n)
    out[0] = 1.0
    out[1:] = inv[1:] - inv[:-1]
    return out


def _gamma(n: int) -> float:
    """``gamma_n = n u / (1 - n u)``: the relative rounding of an inner product
    of ``n`` real terms, entrywise for a matrix product of inner dimension
    ``n`` (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., sections 3.1 and 3.5).  A complex product of inner dimension ``n``
    counts as ``n + 2``, since a complex multiplication is exact to ``sqrt(2)
    gamma_2 <= gamma_3`` (section 3.6), and a sum or difference as 1.  A
    chain of these is within ``gamma`` of the summed counts, times the
    product of the absolute values, as ``gamma_a + gamma_b + gamma_a gamma_b
    <= gamma_(a + b)``."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


@dataclass(frozen=True)
class CharTriple:
    """Completion data ``(dim E, B, {D_n})``, held as the factors of ``Y = [B; D]``.

    ``Y = E - V S W*`` (``N x e``, ``e = e_dim``) with ``E = [0; I_e]``,
    ``V`` of size ``N x k``, ``S`` of size ``k x k`` and ``W`` the last
    ``e`` rows of ``V``: ``B = -V_top S W*`` is the first ``d = N - e`` rows
    and ``D = I_e - W S W*`` the rest, stacked from the blocks ``D_n`` of
    equal height, one per term (:attr:`CharFunction.n_terms`).  A completed
    triple holds the Householder factors of
    :func:`linalg.complete_to_unitary` (``k = d``), so no
    ``e``-square matrix is held; the same form holds any ``N x e`` matrix
    ``Y``, for instance with ``V = I_N`` and ``S = [0 | E - Y]``.
    :meth:`completion` forms ``Y``.
    """

    e_dim: int
    v: np.ndarray
    s: np.ndarray

    @property
    def v_top(self) -> np.ndarray:
        """The first ``N - e`` rows of ``V``, from which ``B`` is made."""
        return self.v[:self.v.shape[0] - self.e_dim]

    @property
    def w(self) -> np.ndarray:
        """``W``, the last ``e`` rows of ``V``."""
        return self.v[self.v.shape[0] - self.e_dim:]

    @cached_property
    def gram(self) -> np.ndarray:
        """``K = W* W``, read by the orthogonality defect and the kernel identity."""
        return self.w.conj().T @ self.w

    def completion(self) -> np.ndarray:
        """``Y = [B; D]``, formed (:func:`linalg.complement_columns`).

        The one route to the dense blocks; only the routes that form an
        ``e``-square matrix read it: the transition of
        :func:`uniqueness_unitary` and the formed transport of
        :func:`coincidence_verify`.
        """
        return complement_columns(self.v, self.s, self.e_dim)

    @cached_property
    def orthogonality(self) -> tuple[float, float]:
        """``||Y* Y - I||_F`` of the held ``Y``, from ``k``-square products,
        and a bound on how far rounding can have moved it.

        Expanding ``Y* Y`` with ``E* V = W`` gives, exactly,

            Y* Y - I = W Delta W*,   Delta = S* G S - S - S*,   G = V* V,

        so ``||Y* Y - I||_F^2 = tr(Delta K Delta* K)`` with ``K = W* W``.
        ``Delta`` is a rounding-level residual; it is formed before it is
        normed, so its size is not lost in a Gram of ``O(1)`` pieces.

        Rounding (:func:`_gamma`): ``G`` has inner dimension ``N``, the
        products of ``Delta`` inner dimension ``k``, and two subtractions
        follow, so the formed ``Delta~`` is within ``gamma_(N + 2k + 8)
        (|S|^T |V|^T |V| |S| + |S| + |S|^T)`` of ``Delta``, entrywise.  That
        moves ``||W Delta W*||_F`` by at most ``||K||`` times its Frobenius
        norm, with ``||K|| <= ||K~|| + gamma_(e+2) ||W||_F^2`` for the
        formed ``K~``.  The trace, a chain of inner dimensions ``e``, ``k``,
        ``k`` and ``k^2``, is off by at most ``4 gamma_(e + 2k + k^2 + 8)
        ||Delta~||_F^2 ||W||_F^4``, which its square root turns into ``2
        sqrt(gamma) ||Delta~||_F ||W||_F^2``: a relative error on
        ``Delta~``'s own size.  The allowance is the sum of both terms.
        """
        v, s, w = self.v, self.s, self.w
        rows, k = v.shape
        e = self.e_dim
        g = v.conj().T @ v
        k_w = self.gram
        delta = s.conj().T @ g @ s - s - s.conj().T
        value = math.sqrt(max(np.vdot(k_w @ delta, delta @ k_w).real, 0.0))
        w_fro2 = float(np.linalg.norm(w)) ** 2
        k_norm = hermitian_norm(k_w) + _gamma(e + 2) * w_fro2
        abs_s = np.abs(s)
        size = float(np.linalg.norm(np.abs(v) @ abs_s)) ** 2 + 2.0 * float(np.linalg.norm(abs_s))
        trace = 2.0 * math.sqrt(_gamma(e + 2 * k + k * k + 8)) * w_fro2
        trace *= float(np.linalg.norm(delta))
        return value, k_norm * _gamma(rows + 2 * k + 8) * size + trace


def _cross(triple: CharTriple, top: np.ndarray, bottom: np.ndarray) -> tuple[np.ndarray, float]:
    """``Y* x`` for ``x = [top; bottom]`` (``N x d``), formed from the
    factors as ``bottom - W S* (V* x)``, ``e x d``, and a bound on the
    Frobenius norm of its rounding.

    The products have inner dimensions ``N``, ``k`` and ``k``, and one
    subtraction follows, so entrywise the formed value is within
    ``gamma_(N + 2k + 7) (|bottom| + |W| |S|^T |V|^T |x|)`` of the exact one
    (:func:`_gamma`); the bound is that matrix's Frobenius norm, formed in
    real arithmetic from the right.  No ``e``-square product is taken.
    """
    v_top, w, s = triple.v_top, triple.w, triple.s
    vx = v_top.conj().T @ top + w.conj().T @ bottom
    cross = bottom - w @ (s.conj().T @ vx)
    abs_w = np.abs(w)
    size = np.abs(v_top).T @ np.abs(top) + abs_w.T @ np.abs(bottom)
    size = np.abs(bottom) + abs_w @ (np.abs(s).T @ size)
    rows, k = triple.v.shape
    return cross, _gamma(rows + 2 * k + 7) * float(np.linalg.norm(size))


def _add_selectors(theta: np.ndarray, a: np.ndarray) -> None:
    """Add ``kron(a[p], I_r)`` to each ``r x n r`` slice ``theta[p]``, in place.

    ``a`` is ``(P, n)``: ``a[p, j]`` goes on the diagonal of block ``j``.
    """
    p, r, e = theta.shape
    diag = np.arange(r)
    theta.reshape(p, r, e // r, r)[:, diag, :, diag] += a


@dataclass(frozen=True)
class CharFunction:
    """A characteristic triple bound to its operator, weight and truncation.

    It keeps the defect coordinates, their range basis, the rows ``R_j = D
    T*^j`` and the column map ``C = (sqrt(rho_j) R_j)_j`` it was completed
    from, with the residual ``||I - C*C - T T*||`` that certified the map,
    so nothing downstream recomputes any of them.
    """

    tup: OperatorTuple  # the one-entry tuple of T, whose power stack holds T^a
    omega: WeightSpec
    n_terms: int
    triple: CharTriple
    defect_min: np.ndarray  # H -> defect-space coordinates
    defect_basis: np.ndarray  # columns span ran(D)
    rows: np.ndarray  # R_j = D T*^j, (n_terms, defect_dim, d), which every evaluation sums over
    column_map: np.ndarray  # the stacked contraction C, sqrt(rho_j) R_j
    column_identity: float  # ||I - C*C - T T*||

    @property
    def t(self) -> np.ndarray:
        return self.tup[0].mat

    @property
    def defect_dim(self) -> int:
        return self.defect_min.shape[0]

    @cached_property
    def unitarity(self) -> tuple[float, float]:
        """The residual of :func:`block_unitarity` and a bound on its
        rounding, formed once per function (the reduction is proved there)
        and read by every check."""
        t_adj = self.t.conj().T
        c = self.column_map
        d = self.t.shape[0]
        gap = self.t @ t_adj + c.conj().T @ c - np.eye(d)
        cross, cross_rounding = _cross(self.triple, t_adj, c)
        s = np.linalg.qr(cross, mode="r")
        k = s.shape[0]
        small = np.block([[gap, s.conj().T], [s, np.zeros((k, k))]])
        size = float(np.linalg.norm(self.t)) ** 2 + float(np.linalg.norm(c)) ** 2 + math.sqrt(d)
        return hermitian_norm(small), _gamma(d + self.triple.e_dim + 6) * size + cross_rounding

    @cached_property
    def coefficient_factors(self) -> np.ndarray:
        """``Lambda_j`` of ``Theta_j = sqrt(rho_j) J_j + Lambda_j W*``, ``j = 0 .. n_terms``,
        stacked as ``(n_terms + 1, defect_dim, k)``.

        ``Theta_j = sqrt(rho_j) D_j + v_(j-1) R_(j-1) B`` with ``D_j = J_j -
        W_j S W*``, ``B = -V_top S W*`` and ``v_j = 1 / w_j`` gives
        ``Lambda_j = -(sqrt(rho_j) W_j + v_(j-1) R_(j-1) V_top) S``; the
        ``W_j`` term is absent for ``j = n_terms`` and the ``R`` term for
        ``j = 0``.
        """
        n, r = self.n_terms, self.defect_dim
        triple = self.triple
        k = triple.s.shape[0]
        lam = np.zeros((n + 1, r, k), dtype=complex)
        lam[:n] = np.sqrt(rho_sequence(self.omega, n))[:, None, None] * triple.w.reshape(n, r, k)
        lam[1:] += self.omega.inverse_weight_values(n)[:, None, None] * (self.rows @ triple.v_top)
        return -(lam @ triple.s)

    def coefficients(self) -> np.ndarray:
        """Polynomial coefficients of degree 0 .. n_terms, formed from their
        factors and stacked along axis 0: ``(n_terms + 1)`` blocks of size
        ``defect_dim x e_dim``, which only the formed split reads."""
        n, r = self.n_terms, self.defect_dim
        lam = self.coefficient_factors
        out = (lam.reshape((n + 1) * r, -1) @ self.triple.w.conj().T).reshape(n + 1, r, -1)
        _add_selectors(out[:n], np.diag(np.sqrt(rho_sequence(self.omega, n))))
        return out


def _resolve_terms(t: OperatorTuple, omega: WeightSpec, n_terms: int | None) -> int:
    if n_terms is None:
        # an explicit weight list shorter than MIN_CHAR_TERMS lends all its entries
        floor = min(MIN_CHAR_TERMS, omega.max_terms or MIN_CHAR_TERMS)
        return max(_pure_horizon(t, 0, omega), floor)
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    return n_terms


def char_function(t, omega: WeightSpec, n_terms: int | None = None) -> CharFunction:
    """Characteristic function of a pure hypercontraction ``T``, a matrix or a
    one-entry tuple.

    The column contraction ``C h = (sqrt(rho_n) D T*^n h)_n`` is certified by
    the exact identity ``I - C*C = T T*`` to ``10 CHAR_TOL`` (a horizon too
    short to keep the column mass raises :class:`HorizonTooShort`), then
    ``[T*; C]`` is completed to a unitary, from which ``(E, B, {D_n})`` split
    off.
    """
    tup = _one_tuple(t)
    mat = tup[0].mat
    n_terms = _resolve_terms(tup, omega, n_terms)
    if not is_pure(tup):
        raise NotPure("tail operator does not vanish; no characteristic function")
    basis, d_min = _defect_sqrt_pieces(tup, omega)
    rho = rho_sequence(omega, n_terms)
    t_adj = mat.conj().T
    rows = tup.row_chain(0, d_min, n_terms)
    d = mat.shape[0]
    c = (np.sqrt(rho)[:, None, None] * rows).reshape(-1, d)
    res = hermitian_norm(np.eye(d) - c.conj().T @ c - mat @ t_adj)
    if res > CHAR_TOL * 10:
        raise HorizonTooShort(
            f"truncation loses column mass (identity residual {res:.3e}); "
            "increase the number of terms"
        )
    v, s = complete_to_unitary(np.vstack([t_adj, c]), CHAR_TOL)
    triple = CharTriple(c.shape[0], v, s)
    return CharFunction(tup, omega, n_terms, triple, d_min, basis, rows, c, res)


def block_unitarity(cf: CharFunction) -> float:
    """Residual ``||U* U - I||`` of the completed block matrix, taken on the small side.

    With ``X = [T*; C]`` the ``N x d`` column isometry and ``Y = [B; D]`` its
    ``N x e`` completion (``N = d + e``), ``U = [X Y]`` and

        U* U - I = [[X* X - I, (Y* X)*], [Y* X, Y* Y - I]].

    ``Y = E - V S W*`` is held as the Householder factors of ``X``, so
    ``Y* Y - I = W Delta W*`` is only that factorization's orthogonality
    error, a rounding-level quantity (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 19) that says nothing about ``T``.
    Write ``U* U - I = H + F`` with ``F = diag(0, Y* Y - I)``; by Weyl's
    inequality ``||U* U - I||`` and ``||H||`` differ by at most
    ``||Y* Y - I||``, so ``||H||`` is returned.  The held defect
    :attr:`CharTriple.orthogonality` caps the difference;
    :func:`partial_isometry_check` and the transport bound of
    :func:`coincidence_verify` add it back.  With the thin QR ``Y* X = P R``
    (``P`` of size ``e x k`` with orthonormal columns, ``R`` of size ``k x
    d``, ``k = min(e, d)``),

        H = Q K Q*,   Q = diag(I_d, P),   K = [[X* X - I, R*], [R, 0]].

    ``Q`` is an isometry, so the nonzero eigenvalues of ``H`` are those of
    the ``(d + k)``-square Hermitian ``K``, and ``||H|| = ||K||``.  The cost
    is ``Y* X = C - W S* (V* X)``, formed ``e x d`` from the factors with
    products of inner dimension ``d`` past ``V* X``, and one thin QR; no
    ``N``-square matrix is formed.  The value is held on the function
    (:attr:`CharFunction.unitarity`, with the rounding allowance
    ``gamma_(N+6) (||T||_F^2 + ||C||_F^2 + sqrt(d))`` of ``X* X - I`` plus
    that of the cross term, :func:`_gamma`), so the report, :func:`partial_isometry_check`
    and :func:`coincidence_verify` read one factorization.  The eigenvalue
    solver and the QR are backward stable on matrices of norm far below 1,
    so their errors sit below that allowance.
    """
    return cf.unitarity[0]


def _vandermonde(z: np.ndarray, n: int) -> np.ndarray:
    """Rows ``[1, z, ..., z^(n-1)]`` of each point, by running products."""
    out = np.empty((len(z), n), dtype=complex)
    out[:, :1] = 1.0
    out[:, 1:] = z[:, None]
    return np.cumprod(out, axis=1, out=out)


def kernel_poly(omega: WeightSpec, points, stack: np.ndarray) -> np.ndarray:
    """Series ``sum_n z^n X_n / w_n`` over a stack ``[X_0, X_1, ...]``.

    Over the powers ``X_n = A^n`` it is the kernel ``K(z, A)``, and over the
    rows ``R_n = D T*^n`` of a function it is ``D K(z, T*)``.  The values at
    every point ``z`` of ``points`` come from one Vandermonde product with
    the stack, stacked along axis 0.
    """
    z = np.asarray(points, dtype=complex)
    n = len(stack)
    vander = omega.inverse_weight_values(n) * _vandermonde(z, n)
    return (vander @ stack.reshape(n, -1)).reshape(len(z), *stack.shape[1:])


def _kernel_scalar(omega: WeightSpec, x) -> np.ndarray:
    """Scalar kernel values ``k(x) = sum_n x^n / w_n`` of an array (or a number) of points.

    A preset weight takes its closed form ``k(x) = (1 - x)^-p``, ``p`` its
    exponent (:attr:`WeightSpec.exponent`), as ``exp(-p log(1 - x))``.  An
    explicit list is summed whole, as one product of the points' Vandermonde
    rows with its inverse weights; a sum whose last term is not below
    ``KERNEL_CHUNK_RTOL`` relative to it (at least 1) raises
    :class:`HorizonTooShort`, naming the list's length and the largest such
    ``|x|``, instead of returning a partial sum.
    """
    x = np.asarray(x, dtype=complex)
    p = omega.exponent
    if p is not None:
        return np.exp(-p * np.log(1.0 - x))
    length = omega.max_terms
    v = omega.inverse_weight_values(length)
    vander = _vandermonde(x.ravel(), length)
    total = vander @ v
    short = np.abs(v[-1] * vander[:, -1]) >= KERNEL_CHUNK_RTOL * np.maximum(1.0, np.abs(total))
    if np.any(short):
        raise HorizonTooShort(
            f"scalar kernel at |x| = {np.max(np.abs(x.ravel()[short])):.6g} has not "
            f"converged at the end of the {length}-entry explicit weight list"
        )
    return total.reshape(x.shape)


def _disc_points(points: Sequence[complex]) -> np.ndarray:
    """The points as a complex array; ``ValueError`` unless each lies in the open disc."""
    z = np.array([complex(p) for p in points], dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("evaluation points must lie in the open disc")
    return z


def _factors_at(cf: CharFunction, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a(z)`` and ``L(z)`` at each point, stacked as ``(P, n)`` and ``(P, r, d)``.

    ``a(z)_j = sqrt(rho_j) z^j`` and ``L(z) = sum_j z^j Lambda_j``
    (:attr:`CharFunction.coefficient_factors`), from one Vandermonde matrix,
    so that ``theta(z) = kron(a(z), I_r) + L(z) W*``.
    """
    n = cf.n_terms
    lam = cf.coefficient_factors
    vander = _vandermonde(z, n + 1)
    a = np.sqrt(rho_sequence(cf.omega, n)) * vander[:, :n]
    big_l = (vander @ lam.reshape(n + 1, -1)).reshape(len(z), *lam.shape[1:])
    return a, big_l


def char_function_eval(cf: CharFunction, points: Sequence[complex]) -> np.ndarray:
    """The function at each point of the open disc, stacked as ``(len(points), r, e)``.

    ``theta(z) = kron(a(z), I_r) + L(z) W*`` from the factors
    (:func:`_factors_at`) and one product with ``W*``.  A single point is a
    one-element list.
    """
    a, big_l = _factors_at(cf, _disc_points(points))
    theta = (big_l.reshape(-1, big_l.shape[2]) @ cf.triple.w.conj().T)
    theta = theta.reshape(len(a), cf.defect_dim, cf.triple.e_dim)
    _add_selectors(theta, a)
    return theta


def _key_gaps(cf: CharFunction, zetas: np.ndarray, etas: np.ndarray) -> tuple[np.ndarray, float]:
    """The pair residuals of :func:`key_identity_check`, stacked as ``(eta,
    zeta, r, r)``, and their rounding allowance, formed from the factors."""
    n, r, e = cf.n_terms, cf.defect_dim, cf.triple.e_dim
    k = cf.triple.s.shape[0]
    v = cf.omega.inverse_weight_values(n)
    lam, w = cf.coefficient_factors, cf.triple.w
    x = etas[:, None] * zetas.conj()[None, :]
    t = float(np.max(np.abs(x)))
    kernel = float(_kernel_scalar(cf.omega, t).real)
    tail = kernel - float(v @ t ** np.arange(n)) - v[n - 1] * t**n / (1.0 - t)
    if tail > CHAR_TOL:
        raise HorizonTooShort(f"scalar kernel tail {tail:.3e} at |eta zeta| = {t:.6g} past the "
                              f"function's {n} terms; increase the number of terms")
    where = {p: i for i, p in enumerate(dict.fromkeys([*zetas, *etas]))}
    z = np.array(list(where), dtype=complex)
    rows_e = [where[p] for p in etas]
    rows_z = [where[p] for p in zetas]
    a, big_l = _factors_at(cf, z)
    big_a = (a @ w.reshape(n, -1)).reshape(big_l.shape)
    # theta(eta) theta(zeta)* = <a(eta), a(zeta)> I + [A | L](eta) [L | A + L K](zeta)*
    left = np.concatenate([big_a, big_l], axis=2)[rows_e].reshape(-1, 2 * k)
    right = np.concatenate([big_l, big_a + big_l @ cf.triple.gram], axis=2)[rows_z]
    gaps = (left @ right.reshape(-1, 2 * k).conj().T).reshape(len(etas), r, len(zetas), r)
    _add_selectors(gaps.reshape(len(etas), r, -1), a[rows_e] @ a[rows_z].conj().T)
    gaps /= (x - 1.0)[:, None, :, None]
    dk = kernel_poly(cf.omega, z, cf.rows)
    gaps -= (dk[rows_e].reshape(-1, k) @ dk[rows_z].reshape(-1, k).conj().T).reshape(gaps.shape)
    _add_selectors(gaps.reshape(len(etas), r, -1), _kernel_scalar(cf.omega, x))
    # Frobenius bounds of the absolute-value chains at rho = max |z|
    powers = float(np.max(np.abs(z))) ** np.arange(n + 1)
    s_theta = (math.sqrt(r * float(rho_sequence(cf.omega, n) @ powers[:n] ** 2))
               + float(powers @ np.linalg.norm(lam, axis=(1, 2))) * float(np.linalg.norm(w)))
    s_d = float(v * powers[:n] @ np.linalg.norm(cf.rows, axis=(1, 2)))
    m = 8 * n + e + 3 * k + 32 + math.ceil(3.0 / (1.0 - t))
    p = cf.omega.exponent
    c = 7 * cf.omega.max_terms + 2 if p is None else p * (20 - 5 * math.log1p(-t) + 3 / (1 - t)) + 4
    allowance = (_gamma(math.ceil(c)) * math.sqrt(r) * kernel
                 + _gamma(m) * (s_theta**2 / (1.0 - t) + s_d**2))
    return gaps.transpose(0, 2, 1, 3), allowance


def key_identity_check(
    cf: CharFunction, zetas: Sequence[complex], etas: Sequence[complex]
) -> float:
    """Largest residual of the kernel identity over all pairs ``(zeta, eta)``.

    ``K(eta, zeta) I - theta(eta) theta(zeta)* / (1 - eta conj(zeta))``
    must equal ``D K(eta, T*) K(conj(zeta), T) D`` in the defect coordinates,
    where ``K(conj(zeta), T) = K(zeta, T*)*``.  With ``A(z) = sum_j a_j(z)
    W_j`` (``r x d``) and ``K = W* W`` (:attr:`CharTriple.gram`), ``theta(z)
    = kron(a(z), I_r) + L(z) W*`` gives ``theta(eta) theta(zeta)* = <a(eta),
    a(zeta)> I + A(eta) L(zeta)* + L(eta) (A(zeta) + L(zeta) K)*``.  The
    factors are evaluated once, at the distinct points of ``zetas`` and
    ``etas`` together (:func:`_factors_at`); all pair products come from one
    matrix product of inner dimension ``2d``, and all ``D K(eta, T*) (D
    K(zeta, T*))*`` from one of inner dimension ``d``.  A single pair is
    checked by passing one-element lists.

    With ``x = eta conj(zeta)`` and ``n = n_terms``, ``<a(eta), a(zeta)> /
    (1 - x) = sum_k x^k / w_min(k, n-1)``, so the function misses ``sum_(k
    >= n) (1/w_k - 1/w_(n-1)) x^k`` of the scalar kernel (nothing for Hardy
    weights).  That tail, taken at ``t = max |x|``, is a truncation, not a
    failed identity: above ``CHAR_TOL`` it raises :class:`HorizonTooShort`
    before any pair is formed.

    The largest Frobenius norm of a pair residual is reported when, with the
    allowance ``gamma_m (s_theta^2 / (1 - t) + s_D^2) + gamma_c sqrt(r)
    k(t)`` (:func:`_gamma`, ``k(t) = sum_k t^k / w_k``) added, it is below
    ``CHAR_TOL``; otherwise one batched SVD norms the residuals and the
    largest is reported.  At ``rho = max |z|``, ``s_theta = sqrt(r sum_j
    rho_j rho^(2j)) + ||W||_F sum_j rho^j ||Lambda_j||_F`` and ``s_D = sum_j
    rho^j ||R_j||_F / w_j`` bound the absolute-value chains of ``theta`` and
    ``D K``; ``m = 8n + e + 3d + 32 + 3 / (1 - t)`` sums the counts along a
    chain (``3n`` Vandermonde rows, ``n + 3`` per factor, ``e + 2`` for
    ``K``, ``d + 2`` and ``2d + 2`` for the products, ``11 + 3 / (1 - t)``
    for the division (Higham, section 3.6), 2 for the subtractions).

    ``gamma_c k(t)`` bounds the rounding of each scalar kernel value
    (:func:`_kernel_scalar`), ``|k(x)| <= k(t)``, and ``x`` itself is a
    complex product, exact to ``gamma_3`` relative.  For a preset of
    exponent ``p``, ``l = log(1 - x)`` has modulus at most ``lambda =
    log(1 / (1 - t)) + 3`` (real part in ``[log(1 - t), log 2]``, imaginary
    part below ``pi / 2``).  The subtraction ``1 - x`` is exact to ``u`` and
    so moves ``l`` by ``gamma_1``; with the library's complex log and exp
    each exact to ``gamma_3`` (a few units in the last place) and the
    product with ``p`` to ``u``, the exponent ``-p l`` is off by at most ``p
    gamma_5 (lambda + 1)``, and the exp and the second order add ``gamma_4``.
    The rounding of ``x`` moves ``k`` by at most ``p t / (1 - t)`` times
    ``gamma_3`` relative, so ``c = p (20 + 5 log(1 / (1 - t)) + 3 / (1 - t))
    + 4`` (Higham, chapter 3).  For a list of ``L`` weights, the power
    ``x^j`` is a running product exact to ``gamma_(3j)``, the rounding of
    ``x`` moves it by ``gamma_(3j)`` more, and the sum of ``L`` complex
    products counts ``L + 2``: ``c = 7L + 2``.
    """
    zetas = _disc_points(zetas)
    etas = _disc_points(etas)
    if not cf.defect_dim or not zetas.size or not etas.size:
        return 0.0
    gaps, allowance = _key_gaps(cf, zetas, etas)
    worst = float(np.max(np.linalg.norm(gaps, axis=(2, 3))))
    if worst + allowance < CHAR_TOL:
        return worst
    return float(np.max(np.linalg.svd(gaps, compute_uv=False)))


def _psi2(cf: CharFunction, rows: np.ndarray) -> float:
    """Upper bound on ``||Psi||^2`` from the stack ``rows`` of ``R_j = D T*^j``:
    the smaller of the Frobenius and block-shift bounds of
    :func:`partial_isometry_check`."""
    w = cf.omega.values(cf.n_terms)
    v = cf.omega.inverse_weight_values(cf.n_terms)
    tail_sums, tail_max = np.cumsum(w[::-1])[::-1], np.maximum.accumulate(w[::-1])[::-1]
    frobenius = np.sum(v**2 * np.sum(np.abs(rows) ** 2, axis=(1, 2)) * tail_sums)
    spectral = np.linalg.svd(rows, compute_uv=False)[:, 0]
    shift = np.sum(v * spectral * np.sqrt(tail_max)) ** 2
    return float(min(frobenius, shift))


def _split_bound(cf: CharFunction, rows: np.ndarray) -> tuple[float, float]:
    """``(1 + psi2) (beta + ||Y* Y - I||_F)``, the bound on ``||pi pi* + M M* - I||``
    of :func:`partial_isometry_check`, and the same bound with the rounding
    allowances of ``beta`` and of the orthogonality defect added; ``rows`` is
    the stack of ``R_j = D T*^j``."""
    scale = 1.0 + _psi2(cf, rows)
    beta, beta_rounding = cf.unitarity
    defect, defect_rounding = cf.triple.orthogonality
    measured = beta + defect
    return scale * measured, scale * (measured + beta_rounding + defect_rounding)


def _formed_split(cf: CharFunction, theta: np.ndarray, rows: np.ndarray) -> float:
    """``||pi pi* + M M* - I||`` from the assembled ``n r``-square matrix."""
    n, r = cf.n_terms, cf.defect_dim
    flat = theta.reshape(n * r, -1)
    gram = (flat @ flat.conj().T).reshape(n, r, n, r)
    for b in range(1, n):
        gram[b, :, 1:] += gram[b - 1, :, :-1]
    sqrt_w = np.repeat(np.sqrt(cf.omega.values(n)), r)
    mm = sqrt_w[:, None] * gram.reshape(n * r, n * r) * sqrt_w[None, :]
    pi = (rows / sqrt_w.reshape(n, r, 1)).reshape(n * r, -1)
    total = pi @ pi.conj().T + mm
    return hermitian_norm(total - np.eye(n * r))


def partial_isometry_check(cf: CharFunction) -> dict[str, float]:
    """Check that the multiplier and the dilation map split the identity.

    Both maps go into the weighted Bergman space of the defect truncated at
    ``n = n_terms``: the dilation map ``pi`` with block rows
    ``R_b / sqrt(w_b)``, ``R_b = D T*^b``, and the multiplier ``M`` of the
    function from the equally truncated Hardy space of ``E``, which is block
    Toeplitz: ``M[b, a] = sqrt(w_b) Theta_(b-a)``.  Returns the residuals of
    ``pi pi* + M M* = I`` and of the range orthogonality ``pi* M = 0``.

    The split is certified through the unitarity of the completed block
    matrix ``U = [X Y]``, ``X = [T*; C]``, ``Y = [B; D-stack]`` (``N = d + e``
    rows), and not assembled.  With ``v_j = 1 / w_j``, each coefficient is
    ``Theta_j = Phi_j Y``, ``Phi_j = [v_(j-1) R_(j-1) | sqrt(rho_j) E_j]``,
    where ``E_j`` picks block ``j`` of the D-stack and the ``R`` term is
    absent for ``j = 0``; ``rho_j = v_j - v_(j-1)`` gives
    ``Phi_j X = v_j R_j``.  Let ``S_a`` (``n r x N``) have block row
    ``sqrt(w_b) Phi_(b-a)`` for ``b >= a`` and zeros above, so that
    ``M M* = sum_a S_a Y Y* S_a*``, and put ``Y Y* = I - X X* + (U U* - I)``.
    Then ``sum_a S_a X X* S_a* = Psi Psi*`` with block
    ``Psi[b, a] = sqrt(w_b) v_(b-a) R_(b-a)``.  In ``sum_a S_a S_a*`` the
    ``E`` blocks, orthogonal for distinct ``j``, telescope to
    ``w_b sum_(j <= b) rho_j = w_b v_b = 1`` on the diagonal, and the ``R``
    blocks are the terms of ``Psi Psi*`` shifted by one step of ``a``, short
    of its ``a = 0`` term, which is ``pi pi*``.  So, exactly at the
    truncation and with no tail term,

        sum_a S_a S_a* = I - pi pi* + Psi Psi*,
        pi pi* + M M* - I = sum_a S_a (U U* - I) S_a*.

    As ``pi pi* >= 0`` and ``||U U* - I|| = ||U* U - I||`` for square ``U``,

        ||pi pi* + M M* - I|| <= (1 + ||Psi||^2) ||U* U - I||,
        ||U* U - I|| <= beta + ||Y* Y - I||_F,

    with ``beta`` the :func:`block_unitarity` residual and the second step
    Weyl's inequality, as proved there.  ``||Psi||^2`` is bounded by the
    smaller of the Frobenius bound
    ``sum_j v_j^2 ||R_j||_F^2 sum_(b >= j) w_b`` and the block-shift bound
    ``(sum_j v_j ||R_j|| max_(b >= j) sqrt(w_b))^2``: ``Psi`` is the sum over
    ``j`` of its ``j``-th block diagonal, a block shift of norm at most
    ``v_j ||R_j|| max_(b >= j) sqrt(w_b)``, which is ``sqrt(v_j) ||R_j||``
    for nonincreasing weights.  The work is the orthogonality defect of the
    triple, from ``d``-square products (:attr:`CharTriple.orthogonality`),
    and the norms of the ``n`` ``r x d`` blocks ``R_j``; no eigensolve runs
    on the completion space and no ``e``-square matrix is formed.

    The residual reported is the bound ``(1 + psi2) (beta + ||Y* Y -
    I||_F)`` when, with the rounding allowances of its formed parts added,
    it stays below ``10 CHAR_TOL``: that of ``beta`` (:func:`block_unitarity`)
    and that of the orthogonality defect, both derived from the sizes of
    the formed products (:func:`_gamma`).  The norms and ``psi2`` carry only
    relative errors, of order ``N^2 u`` at most; on a bound near ``10
    CHAR_TOL`` that is far below the allowance, which is at least
    ``gamma_N d``.  Otherwise the split is formed: the Gram matrix of the
    coefficient blocks summed along block diagonals and rescaled by
    ``sqrt(w_b w_b')``, plus ``pi pi*``, and its residual, read off its
    extreme eigenvalues, is reported, so every verdict is the one the formed
    residual gives.

    Block column ``a`` of ``pi* M`` is the correlation ``sum_(j < n - a)
    T^(a+j) D* Theta_j``, in which the weights cancel: ``T^a P_(n-1-a)``
    with the prefix sums ``P_m = sum_(j <= m) R_j* Theta_j``.  Through the
    factors, ``P_m = A_m + Q_m W*`` with ``A_m`` holding ``sqrt(rho_j)
    R_j*`` in block column ``j <= m`` and ``Q_m = sum_(j <= m) R_j*
    Lambda_j`` (``d x d``), and ``T^a A_m`` holds ``sqrt(rho_j)
    R_(a+j)*``.  So block ``a`` is formed, ``d x e``, from the ``R`` stack,
    one ``cumsum`` of the ``Q_m`` and one product with ``W*``; the blocks
    are a residual and are formed before they are normed.  They are taken
    in runs of about ``sqrt(n)``, so that both the memory held and the
    number of batched products grow like ``sqrt(n)``.  The ``d x n e``
    matrix ``pi* M`` has the norm ``sqrt(lambda_max)`` of its ``d``-square
    Gram matrix ``sum_a block_a block_a*``; a largest singular value taken
    from the Gram matrix carries a relative error of about ``eps``.
    """
    rows = cf.rows
    bound, proved = _split_bound(cf, rows)
    split = (bound if proved < CHAR_TOL * 10
             else _formed_split(cf, cf.coefficients()[:cf.n_terms], rows))
    return {"partial_isometry": split, "range_orthogonality": _range_orthogonality(cf)}


def _range_orthogonality(cf: CharFunction) -> float:
    """``||pi* M||`` from its blocks ``T^a P_(n-1-a)``, formed run by run
    (:func:`partial_isometry_check`), with ``T^a`` from the tuple's power stack."""
    n, r, d = cf.n_terms, cf.defect_dim, cf.t.shape[0]
    r_adj = cf.rows.conj().transpose(0, 2, 1)  # R_j*
    # Theta_n only reaches degrees beyond the cutoff
    q = np.cumsum(r_adj @ cf.coefficient_factors[:n], axis=0)
    tq = cf.tup.power_stack(0, n) @ q[::-1]  # T^a Q_(n-1-a)
    padded = np.concatenate([r_adj, np.zeros_like(r_adj[:1])])  # R_(a+j)* is zero past the stack
    sqrt_rho = np.sqrt(rho_sequence(cf.omega, n))[None, None, :, None]
    w_adj = cf.triple.w.conj().T
    j = np.arange(n)
    gram = np.zeros((d, d), dtype=complex)
    step = math.isqrt(n - 1) + 1
    for start in range(0, n, step):
        a = np.arange(start, min(start + step, n))
        blocks = (tq[a] @ w_adj).reshape(len(a), d, n, r)
        blocks += sqrt_rho * padded[np.minimum(a[:, None] + j, n)].transpose(0, 2, 1, 3)
        gram += np.tensordot(blocks, blocks.conj(), axes=([0, 2, 3], [0, 2, 3]))
    return math.sqrt(hermitian_norm(gram))


def _transition(t1: CharTriple, t2: CharTriple) -> np.ndarray:
    """Gram product ``Y1* Y2`` of the two completions ``[B; D-stack]``, formed."""
    if t1.e_dim != t2.e_dim:
        raise NotUnitaryInput("triples have different completion dimensions")
    return t1.completion().conj().T @ t2.completion()


def _require_unitary(u: np.ndarray, message: str) -> float:
    """Raise :class:`NotUnitaryInput` unless ``||u* u - I|| <= 10 CHAR_TOL``.

    The decision is :func:`threshold_norm`'s, from the Frobenius norm of the
    gap; the exact :func:`hermitian_norm` is taken only to quote the residual
    of a rejected input.  An accepted input returns the decision's value,
    which is at least the residual (the Frobenius norm or the SVD norm).
    """
    gap = u.conj().T @ u - np.eye(u.shape[1])
    bound = CHAR_TOL * 10
    value = threshold_norm(gap, bound)
    if value > bound:
        raise NotUnitaryInput(f"{message} (residual {hermitian_norm(gap):.3e})")
    return value


def uniqueness_unitary(t1: CharTriple, t2: CharTriple) -> np.ndarray:
    """Unitary ``U`` with ``B2 = B1 U`` and ``D2 = D1 U`` between two triples.

    Both completions are isometries with the same range, so the transition
    is just the Gram product of the two, formed from their dense blocks
    (:meth:`CharTriple.completion`).  Its unitarity (``||U* U - I|| <= 10
    CHAR_TOL``) is decided by Frobenius bounds; a rejection quotes the exact
    residual.
    """
    u = _transition(t1, t2)
    _require_unitary(u, "triples are not related by a unitary")
    return u


def _transport_bound(
    theta1: CharFunction, theta2: CharFunction, u: np.ndarray, tau_star: np.ndarray, eps: float
) -> float:
    """Upper bound on ``||tau* tau - I||`` for ``tau = Yt* Y2``, from d-sized work.

    ``Yt = W Y1`` is the first completion transported by ``W = diag(u, I (x)
    tau_*)``, ``X2 = [T2*; C2]`` and ``Y2`` the second function's column
    isometry and completion, ``U2 = [X2 Y2]`` (square, ``N = d + e``), and
    ``eps`` bounds ``||u* u - I||`` and ``||tau_*^* tau_* - I||``.  ``tau``
    is square, so ``tau* tau - I`` and ``tau tau* - I`` have the same norm,
    and with ``Y2 Y2* = U2 U2* - X2 X2*``

        tau tau* - I = -G* G + Yt* (U2 U2* - I) Yt + (Yt* Yt - I),
        G = X2* Yt = (W* X2)* Y1   (d x e).

    Each term is bounded without an ``e``-square product:

    - ``||G* G|| = ||G G*||``, a ``d``-square Gram matrix; ``G*`` is the
      cross of the first completion with ``W* X2 = [u* T2*; (I (x)
      tau_*^*) C2]``, formed from the factors ``e x d`` (:func:`_cross`);
    - ``||U2 U2* - I|| = ||U2* U2 - I|| <= beta2 + delta2``, with ``beta2``
      the :func:`block_unitarity` residual of ``theta2`` and ``delta2`` the
      held orthogonality defect ``||Y2* Y2 - I||_F`` of its completion
      (:attr:`CharTriple.orthogonality`), which ``block_unitarity`` leaves
      out by Weyl's inequality;
    - ``Yt* Yt - I = (Y1* Y1 - I) + Y1* (W* W - I) Y1``, and ``W* W - I``
      is ``diag(u* u - I, I (x) (tau_*^* tau_* - I))``, so
      ``||Yt* Yt - I|| <= delta_t = delta1 + (1 + delta1) eps``, and
      ``||Yt||^2 <= 1 + delta_t``.

    Together ``||tau* tau - I|| <= ||G||^2 + (1 + delta_t)(beta2 + delta2) +
    delta_t``.  Both defects are a-posteriori, each with its own rounding
    allowance.  Rounding of the rest (:func:`_gamma`): ``G`` carries that of
    :func:`_cross` plus, through ``||Y1|| <= sqrt(1 + delta1)``, that of
    ``W* X2`` (inner dimensions ``d`` and ``r``, so at most
    ``gamma_(max(d, r) + 2) (||u||_F ||T2||_F + ||tau_*||_F ||C2||_F)``);
    ``beta2`` carries its held allowance; the gaps of ``u`` and ``tau_*``
    carry ``gamma_(m+3) (||x||_F^2 + sqrt(m))`` each, ``m`` their size.  The
    eigenvalue solvers behind ``||G||^2`` and ``beta2`` are backward stable
    on matrices of norm far below 1, so their errors sit below those
    allowances.
    """
    d, r = theta2.t.shape[0], tau_star.shape[0]
    c2 = theta2.column_map
    top = u.conj().T @ theta2.t.conj().T
    bottom = (tau_star.conj().T @ c2.reshape(-1, r, d)).reshape(c2.shape)
    g_adj, cross_rounding = _cross(theta1.triple, top, bottom)
    delta1 = sum(theta1.triple.orthogonality)
    delta2 = sum(theta2.triple.orthogonality)
    beta2, beta_rounding = theta2.unitarity

    def fro(x: np.ndarray) -> float:
        return float(np.linalg.norm(x))

    formed = _gamma(max(d, r) + 2) * (fro(u) * fro(theta2.t) + fro(tau_star) * fro(c2))
    g_norm = math.sqrt(hermitian_norm(g_adj.conj().T @ g_adj)) + cross_rounding
    g_norm += math.sqrt(1.0 + delta1) * formed
    gaps = (_gamma(d + 3) * (fro(u) ** 2 + math.sqrt(d))
            + _gamma(r + 3) * (fro(tau_star) ** 2 + math.sqrt(r)))
    delta_t = delta1 + (1.0 + delta1) * (eps + gaps)
    return g_norm**2 + (1.0 + delta_t) * (beta2 + beta_rounding + delta2) + delta_t


def coincidence_verify(
    theta1: CharFunction,
    theta2: CharFunction,
    u,
    z_grid: Sequence[complex],
) -> tuple[bool, float]:
    """Check ``theta2(z) = tau_* theta1(z) tau`` on a grid of disc points,
    for ``theta2`` the function of ``u T1 u*``.

    The defect of ``u T1 u*`` is the conjugated defect, so the transport
    between defect coordinates is ``tau_* = basis2* u basis1`` (r-sized),
    and the first completion ``Y1 = [B1; D1]`` transported by
    ``W = diag(u, I (x) tau_*)`` is ``Yt = W Y1``, which spans the
    complement of the second column isometry.  The transport between the
    completions is ``tau = Yt* Y2 = Y1* W* Y2``, the transition of triple
    uniqueness; it is never formed on the accepted path.  The right-hand
    side is ``tau_* ((theta1(z) Y1*) W* Y2)``, taken for all points at once
    through the factors: ``theta1(z) Y1* = [0 | theta1(z)] - (theta1(z) W1)
    S1* V1*`` is ``r x N``, ``W*`` acts on its blocks, and ``Y2 = E - V2 S2
    W2*`` is applied as its factors, so no ``e``-square product is taken.

    ``u`` and ``tau_*`` must be unitary within ``10 CHAR_TOL`` (decided by
    Frobenius bounds, as in :func:`uniqueness_unitary`) or
    :class:`NotUnitaryInput` is raised.  The unitarity of ``tau`` is
    accepted when the upper bound of :func:`_transport_bound`, from
    ``d``-sized work and the held orthogonality defects of both completions,
    is at most ``10 CHAR_TOL``.  Otherwise ``tau`` is formed from the dense
    completions (:meth:`CharTriple.completion`) and decided on its exact
    residual, which a rejection quotes, so every decision is the one the
    formed ``tau`` would give.  The identity holds when its residual is at
    most ``CHAR_TOL``.
    """
    z = _disc_points(z_grid)
    u = np.asarray(u, dtype=complex)
    d, e, r = theta1.t.shape[0], theta1.triple.e_dim, theta1.defect_dim
    if u.shape != (d, d) or theta2.t.shape != (d, d):
        raise NotUnitaryInput("the conjugating map must be square, of the operators' size")
    if theta2.triple.e_dim != e or theta2.defect_dim != r:
        raise NotUnitaryInput("the functions have different defect or completion dimensions")
    tau_star = theta2.defect_basis.conj().T @ u @ theta1.defect_basis
    eps = max(_require_unitary(u, "the conjugating map must be unitary"),
              _require_unitary(tau_star, "coincidence transports must be unitary"))
    t1, t2 = theta1.triple, theta2.triple
    if _transport_bound(theta1, theta2, u, tau_star, eps) > CHAR_TOL * 10:
        y1, y2 = t1.completion(), t2.completion()
        bt = u @ y1[:d]
        dt = (tau_star @ y1[d:].reshape(-1, r, e)).reshape(-1, e)
        _require_unitary(bt.conj().T @ y2[:d] + dt.conj().T @ y2[d:],
                         "coincidence transports must be unitary")
    # theta1(z) Y1* as [top | bottom], r x d and r x e per point
    th1 = char_function_eval(theta1, z).reshape(-1, e)
    lead = (th1 @ t1.w) @ t1.s.conj().T
    top = -(lead @ t1.v_top.conj().T)
    bottom = th1 - lead @ t1.w.conj().T
    # times W* = diag(u*, I (x) tau_*^*), then times Y2 = E - V2 S2 W2*
    top = top @ u.conj().T
    bottom = (bottom.reshape(-1, r) @ tau_star.conj().T).reshape(bottom.shape)
    right = bottom - ((top @ t2.v_top + bottom @ t2.w) @ t2.s) @ t2.w.conj().T
    gap = char_function_eval(theta2, z) - tau_star @ right.reshape(len(z), r, e)
    worst = float(np.max(np.linalg.svd(gap, compute_uv=False))) if gap.size else 0.0
    return worst <= CHAR_TOL, worst
