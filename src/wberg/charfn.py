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

Each residual is computed at the size where it lives.  The unitarity of the
completed block matrix is read off a ``(d + min(e, d))``-square matrix
(:func:`block_unitarity`, held on the function), the range orthogonality
``pi* M = 0`` off a ``d``-square Gram matrix, with ``d`` the operator's
dimension and ``e`` the completion's.  The split ``pi pi* + M M* = I``
factors exactly through ``U U* - I`` of the completed block matrix ``U``, so
it is certified by a proved bound from the block unitarity, the
``e``-square Gram matrix of the completion and the ``d``-sized blocks
``D T*^j`` (:func:`partial_isometry_check`); no eigensolve runs on the
completion space, and the split is assembled only when that bound cannot
decide.  The transport ``tau`` between the completions of ``T`` and
``u T u*`` is applied through its factors and certified unitary by a proved
bound from a ``d``-square Gram matrix (:func:`coincidence_verify`); it is
formed only when that bound cannot decide.  Evaluations take a whole point
set at once: one Vandermonde product per coefficient stack.
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
    complete_to_unitary,
    completion_orthogonality,
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
# A chunk of the scalar kernel sum this small relative to the running total
# ends the sum: later chunks are smaller still for a point inside the disc.
KERNEL_CHUNK_RTOL = 1e-18
# Most terms of the scalar kernel sum before it is declared unconverged.
KERNEL_CAP = 4096


def rho_sequence(omega: WeightSpec, n: int) -> np.ndarray:
    """``rho_0 = 1`` and ``rho_k = 1/w_k - 1/w_{k-1}`` (nonnegative for decreasing weights)."""
    inv = omega.inverse_weight_values(n)
    out = np.empty(n)
    out[0] = 1.0
    out[1:] = inv[1:] - inv[:-1]
    return out


@dataclass(frozen=True)
class CharTriple:
    """Completion data ``(dim E, B, {D_n})`` of the stacked column isometry.

    ``d_stack`` holds the rows of the blocks ``D_0, D_1, ...`` once, stacked
    into one column (for a completed triple, a view of the completion), and
    :attr:`d_blocks` are its ``n_blocks`` views of equal height.
    """

    e_dim: int
    b: np.ndarray
    d_stack: np.ndarray
    n_blocks: int

    @property
    def d_blocks(self) -> tuple[np.ndarray, ...]:
        """The blocks ``D_n``, views of :attr:`d_stack`."""
        return tuple(np.split(self.d_stack, self.n_blocks))


@dataclass(frozen=True)
class CharFunction:
    """A characteristic triple bound to its operator, weight and truncation.

    It keeps the defect coordinates, their range basis and the column map
    it was completed from, with the residual ``||I - C*C - T T*||`` that
    certified the map, so nothing downstream recomputes either.
    """

    t: np.ndarray
    omega: WeightSpec
    n_terms: int
    triple: CharTriple
    defect_min: np.ndarray  # H -> defect-space coordinates
    defect_basis: np.ndarray  # columns span ran(D)
    column_map: np.ndarray  # the stacked contraction C
    column_identity: float  # ||I - C*C - T T*||
    star_powers: np.ndarray  # [I, T*, ..., T*^(n_terms - 1)], which every evaluation sums over

    @property
    def defect_dim(self) -> int:
        return self.defect_min.shape[0]

    @cached_property
    def block_unitarity(self) -> float:
        """The residual of :func:`block_unitarity`, formed once per function
        (the reduction is proved there) and read by every check."""
        t_adj = self.t.conj().T
        c = self.column_map
        gap = self.t @ t_adj + c.conj().T @ c - np.eye(self.t.shape[0])
        cross = (self.t @ self.triple.b + c.conj().T @ self.triple.d_stack).conj().T
        s = np.linalg.qr(cross, mode="r")
        k = s.shape[0]
        small = np.block([[gap, s.conj().T], [s, np.zeros((k, k))]])
        return hermitian_norm(small)

    @cached_property
    def scaled_d_blocks(self) -> np.ndarray:
        """``sqrt(rho_n) D_n`` stacked as ``(n_terms, defect_dim, e_dim)``."""
        rho = rho_sequence(self.omega, self.n_terms)
        d = self.triple.d_stack.reshape(self.n_terms, self.defect_dim, self.triple.e_dim)
        return np.sqrt(rho)[:, None, None] * d

    def coefficients(self) -> np.ndarray:
        """Polynomial coefficients of degree 0 .. n_terms, stacked along axis 0."""
        inv_w = self.omega.inverse_weight_values(self.n_terms)
        kernel_part = self.defect_min @ self.star_powers @ self.triple.b
        out = np.zeros((self.n_terms + 1, self.defect_dim, self.triple.e_dim), dtype=complex)
        out[:-1] = self.scaled_d_blocks
        out[1:] += inv_w[:, None, None] * kernel_part
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
    _, basis, d_min = _defect_sqrt_pieces(tup, omega)
    rho = rho_sequence(omega, n_terms)
    t_adj = mat.conj().T
    stars = tup.adjoint_stack(0, n_terms)
    c = np.vstack([math.sqrt(rho[k]) * (d_min @ stars[k]) for k in range(n_terms)])
    d = mat.shape[0]
    res = hermitian_norm(np.eye(d) - c.conj().T @ c - mat @ t_adj)
    if res > CHAR_TOL * 10:
        raise HorizonTooShort(
            f"truncation loses column mass (identity residual {res:.3e}); "
            "increase the number of terms"
        )
    e_dim, y = complete_to_unitary(np.vstack([t_adj, c]), CHAR_TOL)
    triple = CharTriple(e_dim, y[:d, :], y[d:, :], n_terms)
    return CharFunction(mat, omega, n_terms, triple, d_min, basis, c, res, stars)


def block_unitarity(cf: CharFunction) -> float:
    """Residual ``||U* U - I||`` of the completed block matrix, taken on the small side.

    With ``X = [T*; C]`` the ``N x d`` column isometry and ``Y = [B; D]`` its
    ``N x e`` completion (``N = d + e``), ``U = [X Y]`` and

        U* U - I = [[X* X - I, (Y* X)*], [Y* X, Y* Y - I]].

    ``Y`` is the trailing block of the complete Householder QR of ``X``, so
    ``Y* Y - I`` is only that factorization's orthogonality error, a
    rounding-level quantity (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 19) that says nothing about ``T``.  Write
    ``U* U - I = H + E`` with ``E = diag(0, Y* Y - I)``; by Weyl's
    inequality ``||U* U - I||`` and ``||H||`` differ by at most
    ``||Y* Y - I||``, so ``||H||`` is returned.  The a-priori bound of
    :func:`linalg.completion_orthogonality` caps the difference; the
    transport bound of :func:`coincidence_verify` adds it back.  With the thin QR
    ``Y* X = P S`` (``P`` of size ``e x k`` with orthonormal columns, ``S``
    of size ``k x d``, ``k = min(e, d)``),

        H = V K V*,   V = diag(I_d, P),   K = [[X* X - I, S*], [S, 0]].

    ``V`` is an isometry, so the nonzero eigenvalues of ``H`` are those of
    the ``(d + k)``-square Hermitian ``K``, and ``||H|| = ||K||``.  The cost
    is ``Y* X``, formed as the adjoint of ``X* Y = T B + C* D`` so that only
    the ``d``-wide factors are conjugated, and one thin QR; no ``N``-square
    matrix is formed.  The value is held on the function
    (:attr:`CharFunction.block_unitarity`), so the report,
    :func:`partial_isometry_check` and :func:`coincidence_verify` read one
    factorization.
    """
    return cf.block_unitarity


def _vandermonde(z: np.ndarray, n: int) -> np.ndarray:
    """Rows ``[1, z, ..., z^(n-1)]`` of each point, by running products."""
    out = np.empty((len(z), n), dtype=complex)
    out[:, :1] = 1.0
    out[:, 1:] = z[:, None]
    return np.cumprod(out, axis=1, out=out)


def kernel_poly(omega: WeightSpec, points, powers: np.ndarray) -> np.ndarray:
    """Operator series ``sum_n z^n A^n / w_n`` over a power stack ``[I, A, A^2, ...]``.

    The values at every point ``z`` of ``points`` come from one Vandermonde
    product with the stack, stacked along axis 0.
    """
    z = np.asarray(points, dtype=complex)
    n = len(powers)
    vander = omega.inverse_weight_values(n) * _vandermonde(z, n)
    return (vander @ powers.reshape(n, -1)).reshape(len(z), *powers.shape[1:])


def _kernel_scalar(omega: WeightSpec, x) -> np.ndarray:
    """Scalar kernel values ``sum_n x^n / w_n``, each summed to machine convergence.

    ``x`` is an array (or a number); every entry is summed by 64-term chunks
    until a chunk is below ``KERNEL_CHUNK_RTOL`` relative to its running
    total, and entries that have converged take no further chunk.  Raises
    :class:`HorizonTooShort` when ``KERNEL_CAP`` terms do not converge, as
    they do not for ``|x|`` close to 1, instead of returning a partial sum.
    An explicit weight list caps the sum at its length.  No chunk follows
    the one its end cuts short, so there the sum is accepted when the last
    term alone passes the chunk test; otherwise the error names the list's
    length.
    """
    x = np.asarray(x, dtype=complex)
    flat = x.ravel()
    length = omega.max_terms
    cap = min(KERNEL_CAP, length or KERNEL_CAP)
    total = np.zeros(flat.shape, dtype=complex)
    unconverged = np.arange(flat.size)
    block = 64
    n0 = 0
    while unconverged.size and n0 < cap:
        n1 = min(n0 + block, cap)
        terms = omega.inverse_weight_values(n1)[n0:] * flat[unconverged, None] ** np.arange(n0, n1)
        chunk = terms.sum(axis=1)
        total[unconverged] += chunk
        small = KERNEL_CHUNK_RTOL * np.maximum(1.0, np.abs(total[unconverged]))
        done = np.abs(chunk) < small
        if n1 == length:
            done |= np.abs(terms[:, -1]) < small
        unconverged = unconverged[~done]
        n0 = n1
    if unconverged.size:
        ending = f" at the end of the {length}-entry explicit weight list" if n0 == length else ""
        raise HorizonTooShort(
            f"scalar kernel at |x| = {np.max(np.abs(flat[unconverged])):.6g} has not "
            f"converged after {n0} terms{ending}"
        )
    return total.reshape(x.shape)


def _disc_points(points: Sequence[complex]) -> np.ndarray:
    """The points as a complex array; ``ValueError`` unless each lies in the open disc."""
    z = np.array([complex(p) for p in points], dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("evaluation points must lie in the open disc")
    return z


def _evaluate(cf: CharFunction, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``theta(z)`` and ``D K(z, T*)`` at each point, stacked as ``(P, r, e)`` and ``(P, r, d)``.

    One Vandermonde product against ``scaled_d_blocks`` gives the Taylor
    part, one against ``star_powers`` (:func:`kernel_poly`) the kernels.
    """
    n = cf.n_terms
    theta = _vandermonde(z, n) @ cf.scaled_d_blocks.reshape(n, -1)
    theta = theta.reshape(len(z), cf.defect_dim, cf.triple.e_dim)
    dk = cf.defect_min @ kernel_poly(cf.omega, z, cf.star_powers)
    theta += z[:, None, None] * (dk @ cf.triple.b)
    return theta, dk


def char_function_eval(cf: CharFunction, points: Sequence[complex]) -> np.ndarray:
    """The function at each point of the open disc, stacked as ``(len(points), r, e)``.

    A single point is a one-element list.
    """
    return _evaluate(cf, _disc_points(points))[0]


def key_identity_check(
    cf: CharFunction, zetas: Sequence[complex], etas: Sequence[complex]
) -> float:
    """Largest residual of the kernel identity over all pairs ``(zeta, eta)``.

    ``K(eta, zeta) I - theta(eta) theta(zeta)* / (1 - eta conj(zeta))``
    must equal ``D K(eta, T*) K(conj(zeta), T) D`` in the defect coordinates,
    where ``K(conj(zeta), T) = K(zeta, T*)*``.  ``theta`` and ``D K(., T*)``
    are evaluated once, at the distinct points of ``zetas`` and ``etas``
    together; all products ``theta(eta) theta(zeta)*`` come from one matrix
    product of the stacked values, and so do all ``D K(eta, T*) (D K(zeta,
    T*))*``.  The pair residuals are normed together by one batched SVD.  A
    single pair is checked by passing one-element lists.
    """
    zetas = _disc_points(zetas)
    etas = _disc_points(etas)
    r = cf.defect_dim
    if not r or not zetas.size or not etas.size:
        return 0.0
    where = {p: i for i, p in enumerate(dict.fromkeys([*zetas, *etas]))}
    theta, dk = _evaluate(cf, np.array(list(where), dtype=complex))
    rows_e = [where[p] for p in etas]
    rows_z = [where[p] for p in zetas]

    def pair_products(stack: np.ndarray) -> np.ndarray:
        """``stack[eta] stack[zeta]*`` of every pair, from one product, as ``(eta, r, zeta, r)``."""
        left = stack[rows_e].reshape(len(etas) * r, -1)
        right = stack[rows_z].reshape(len(zetas) * r, -1)
        return (left @ right.conj().T).reshape(len(etas), r, len(zetas), r)

    x = etas[:, None] * zetas.conj()[None, :]
    k_scalar = _kernel_scalar(cf.omega, x)
    gaps = (k_scalar[:, None, :, None] * np.eye(r)[None, :, None, :]
            - pair_products(theta) / (1.0 - x)[:, None, :, None] - pair_products(dk))
    return float(np.max(np.linalg.svd(gaps.transpose(0, 2, 1, 3), compute_uv=False)))


def _product_rounding(d: int, e: int) -> tuple[float, float]:
    """``gamma_N = N u / (1 - N u)`` for ``N = d + e``, and ``rho = gamma_N (d + sqrt(d e))``.

    ``gamma_N`` bounds the relative rounding of a product with inner
    dimension at most ``N`` entrywise (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., section 3.5); ``rho`` bounds the
    rounding, in norm, of such a product of factors with Frobenius norms at
    most ``sqrt(d)`` and ``sqrt(e)``, as the ``d``- and ``e``-wide blocks of
    a completed block matrix have.
    """
    rows = d + e
    gamma = rows * UNIT_ROUNDOFF / (1.0 - rows * UNIT_ROUNDOFF)
    return gamma, gamma * (d + math.sqrt(d * e))


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
    of its formed parts added; ``rows`` is the stack of ``R_j = D T*^j``."""
    d, e = cf.t.shape[0], cf.triple.e_dim
    scale = 1.0 + _psi2(cf, rows)
    b, d_stack = cf.triple.b, cf.triple.d_stack
    gram = b.conj().T @ b + d_stack.conj().T @ d_stack
    gram_trace = float(np.trace(gram).real)
    gram[np.diag_indices(e)] -= 1.0
    measured = cf.block_unitarity + float(np.linalg.norm(gram))
    gamma, rho = _product_rounding(d, e)
    return scale * measured, scale * (measured + rho + gamma * gram_trace)


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
    for nonincreasing weights.  The work is the ``e``-square Gram matrix
    ``Y* Y = B* B + D* D``, its Frobenius norm and the norms of the ``n``
    ``r x d`` blocks ``R_j``; no eigensolve runs on the completion space.

    The residual reported is the bound ``(1 + psi2) (beta + ||Y* Y - I||_F)``
    when, with the worst-case rounding of its formed parts added, it stays
    below ``10 CHAR_TOL``: ``rho`` for ``beta``, as in
    :func:`_transport_bound`, and ``gamma_N ||Y||_F^2`` for the Gram matrix
    (:func:`_product_rounding`).  The norms, the subtraction of ``I`` and
    ``psi2`` carry only relative errors, of order ``N^2 u`` at most; on a
    bound near ``10 CHAR_TOL`` that is far below the allowance, which is at
    least ``gamma_N e``.  Otherwise the split is formed: the Gram matrix of
    the coefficient blocks summed along block diagonals and rescaled by
    ``sqrt(w_b w_b')``, plus ``pi pi*``, and its residual, read off its
    extreme eigenvalues, is reported, so every verdict is the one the formed
    residual gives.

    Block column ``a`` of ``pi* M`` is the correlation
    ``sum_(j < n - a) T^(a+j) D* Theta_j``, in which the weights cancel.
    Factoring out ``T^a``, it is ``T^a P_(n-1-a)`` with the prefix sums
    ``P_m = sum_(j <= m) T^j D* Theta_j``, so all ``n`` blocks come from one
    batched product, one ``cumsum`` and one batched product with the powers.
    The ``d x n e`` matrix ``pi* M`` has the norm ``sqrt(lambda_max)`` of its
    ``d``-square Gram matrix ``sum_a block_a block_a*``; a largest singular
    value taken from the Gram matrix carries a relative error of about
    ``eps``.
    """
    theta = cf.coefficients()[:cf.n_terms]  # Theta_n only reaches degrees beyond the cutoff
    rows = cf.defect_min @ cf.star_powers
    bound, proved = _split_bound(cf, rows)
    split = bound if proved < CHAR_TOL * 10 else _formed_split(cf, theta, rows)
    prefix = np.cumsum(rows.conj().transpose(0, 2, 1) @ theta, axis=0)
    blocks = cf.star_powers.conj().transpose(0, 2, 1) @ prefix[::-1]
    gram_cross = np.tensordot(blocks, blocks.conj(), axes=([0, 2], [0, 2]))
    return {"partial_isometry": split, "range_orthogonality": math.sqrt(hermitian_norm(gram_cross))}


def _transition(t1: CharTriple, t2: CharTriple) -> np.ndarray:
    """Gram product ``Y1* Y2`` of the two completion columns ``[B; D-stack]``."""
    if t1.e_dim != t2.e_dim:
        raise NotUnitaryInput("triples have different completion dimensions")
    y1 = np.vstack([t1.b, t1.d_stack])
    y2 = np.vstack([t2.b, t2.d_stack])
    return y1.conj().T @ y2


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

    Both completion columns are isometries with the same range, so the
    transition is just the Gram product of the two.  Its unitarity
    (``||U* U - I|| <= 10 CHAR_TOL``) is decided by Frobenius bounds; a
    rejection quotes the exact residual.
    """
    u = _transition(t1, t2)
    _require_unitary(u, "triples are not related by a unitary")
    return u


def _transport_bound(
    theta1: CharFunction, theta2: CharFunction, bt: np.ndarray, dt: np.ndarray, eps: float
) -> float:
    """Upper bound on ``||tau* tau - I||`` for ``tau = Yt* Y2``, from d-sized work.

    ``Yt = [bt; dt] = W Y1`` is the first completion transported by
    ``W = diag(u, I (x) tau_*)``, ``X2 = [T2*; C2]`` and ``Y2`` the second
    function's column isometry and completion, ``U2 = [X2 Y2]`` (square,
    ``N = d + e``), and ``eps`` bounds ``||u* u - I||`` and
    ``||tau_*^* tau_* - I||``.  ``tau`` is square, so ``tau* tau - I`` and
    ``tau tau* - I`` have the same norm, and with ``Y2 Y2* = U2 U2* - X2 X2*``

        tau tau* - I = -G* G + Yt* (U2 U2* - I) Yt + (Yt* Yt - I),
        G = X2* Yt = T2 bt + C2* dt   (d x e).

    Each term is bounded without an ``e``-square product:

    - ``||G* G|| = ||G G*||``, a ``d``-square Gram matrix;
    - ``||U2 U2* - I|| = ||U2* U2 - I|| <= beta2 + delta``, with ``beta2``
      the :func:`block_unitarity` residual of ``theta2`` and ``delta`` the
      a-priori orthogonality error ``||Y* Y - I||`` of a completion
      (:func:`linalg.completion_orthogonality`), which ``block_unitarity``
      leaves out by Weyl's inequality;
    - ``Yt* Yt - I = (Y1* Y1 - I) + Y1* (W* W - I) Y1``, and ``W* W - I``
      is ``diag(u* u - I, I (x) (tau_*^* tau_* - I))``, so
      ``||Yt* Yt - I|| <= delta_t = delta + (1 + delta) eps``, and
      ``||Yt||^2 <= 1 + delta_t``.

    Together ``||tau* tau - I|| <= ||G||^2 + (1 + delta_t)(beta2 + delta) +
    delta_t``.  Rounding: each formed product (``G``, ``Yt``, the gaps of
    ``u``, ``tau_*`` and ``block_unitarity``) has inner dimension at most
    ``N`` and factors of Frobenius norm at most ``sqrt(d)`` and ``sqrt(e)``
    (up to ``1 + delta``), so it is off by at most
    ``rho = gamma_N (d + sqrt(d e))``, ``gamma_N = N u / (1 - N u)``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    section 3.5).  ``rho`` is added once to ``||G||``, to ``beta2``, to
    ``eps`` and to ``delta_t``.  The eigenvalue solvers behind ``||G||^2``
    and ``beta2`` are backward stable on matrices of norm far below 1, so
    their errors sit below ``rho`` as well.
    """
    d, e = theta2.t.shape[0], theta2.triple.e_dim
    _, rho = _product_rounding(d, e)
    delta = completion_orthogonality(d + e, d)
    g = theta2.t @ bt + theta2.column_map.conj().T @ dt
    g_norm = math.sqrt(hermitian_norm(g @ g.conj().T)) + rho
    delta_t = delta + (1.0 + delta) * (eps + rho) + rho
    return g_norm**2 + (1.0 + delta_t) * (theta2.block_unitarity + rho + delta) + delta_t


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
    completions is ``tau = Yt* Y2``, the transition of triple uniqueness;
    it is never formed on the accepted path: the right-hand side is
    ``tau_* ((theta1(z) Yt*) Y2)``, taken for all points at once.

    ``u`` and ``tau_*`` must be unitary within ``10 CHAR_TOL`` (decided by
    Frobenius bounds, as in :func:`uniqueness_unitary`) or
    :class:`NotUnitaryInput` is raised.  The unitarity of ``tau`` is
    accepted when the upper bound of :func:`_transport_bound`, from
    ``d``-sized work, is at most ``10 CHAR_TOL``.  Otherwise ``tau`` is
    formed and decided on its exact residual, which a rejection quotes, so
    every decision is the one the formed ``tau`` would give.  The bound's
    orthogonality term is the a-priori one of the Householder completion
    that :func:`char_function` makes; a function whose triple was replaced
    by other means is outside it.  The identity holds when its residual is
    at most ``CHAR_TOL``.
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
    bt = u @ theta1.triple.b
    dt = (tau_star @ theta1.triple.d_stack.reshape(-1, r, e)).reshape(-1, e)
    b2, d2 = theta2.triple.b, theta2.triple.d_stack
    if _transport_bound(theta1, theta2, bt, dt, eps) > CHAR_TOL * 10:
        _require_unitary(bt.conj().T @ b2 + dt.conj().T @ d2,
                         "coincidence transports must be unitary")
    # theta1(z) Yt* as (Yt theta1(z)*)*, so that no e-square conjugate is copied
    th1_adj = char_function_eval(theta1, z).reshape(-1, e).conj().T
    right = (bt @ th1_adj).conj().T @ b2 + (dt @ th1_adj).conj().T @ d2
    gap = char_function_eval(theta2, z) - tau_star @ right.reshape(len(z), r, e)
    worst = float(np.max(np.linalg.svd(gap, compute_uv=False))) if gap.size else 0.0
    return worst <= CHAR_TOL, worst
