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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dilation import _pure_horizon, _defect_sqrt_pieces
from .errors import HorizonTooShort, NotPure, NotUnitaryInput
from .hyper import _power_stack, is_pure
from .linalg import Operator, as_operator, complete_to_unitary, hermitian_norm
from .series import WeightSpec

__all__ = [
    "rho_sequence",
    "CharTriple",
    "CharFunction",
    "contraction_C",
    "build_char_triple",
    "char_function",
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


def _char_horizon(t: Operator, omega: WeightSpec, tol: float) -> int:
    return max(_pure_horizon(t, omega, tol), MIN_CHAR_TERMS)


def rho_sequence(omega: WeightSpec, n: int) -> np.ndarray:
    """``rho_0 = 1`` and ``rho_k = 1/w_k - 1/w_{k-1}`` (nonnegative for decreasing weights)."""
    inv = omega.inverse_weight_values(n)
    out = np.empty(n)
    out[0] = 1.0
    out[1:] = inv[1:] - inv[:-1]
    return out


@dataclass(frozen=True)
class CharTriple:
    """Completion data ``(dim E, B, {D_n})`` of the stacked column isometry."""

    e_dim: int
    b: Operator
    d_blocks: tuple[Operator, ...]

    @property
    def d_stack(self) -> Operator:
        if not self.d_blocks:
            return Operator(np.zeros((0, self.e_dim)))
        return Operator(np.vstack([blk.mat for blk in self.d_blocks]))


@dataclass(frozen=True)
class CharFunction:
    """A characteristic triple bound to its operator, weight and truncation.

    It keeps the defect coordinates, their range basis and the column map
    it was completed from, with the residual ``||I - C*C - T T*||`` that
    certified the map, so nothing downstream recomputes either.
    """

    t: Operator
    omega: WeightSpec
    n_terms: int
    triple: CharTriple
    defect_min: Operator  # H -> defect-space coordinates
    defect_basis: Operator  # columns span ran(D)
    column_map: Operator  # the stacked contraction C
    column_identity: float  # ||I - C*C - T T*||

    @property
    def defect_dim(self) -> int:
        return self.defect_min.rows

    @cached_property
    def star_powers(self) -> np.ndarray:
        """The stack ``[I, T*, ..., T*^(n_terms - 1)]`` every evaluation sums over."""
        return _power_stack(self.t.mat.conj().T, self.n_terms)

    @cached_property
    def scaled_d_blocks(self) -> np.ndarray:
        """``sqrt(rho_n) D_n`` stacked as ``(n_terms, defect_dim, e_dim)``."""
        rho = rho_sequence(self.omega, self.n_terms)
        d = self.triple.d_stack.mat.reshape(self.n_terms, self.defect_dim, self.triple.e_dim)
        return np.sqrt(rho)[:, None, None] * d

    def coefficients(self) -> np.ndarray:
        """Polynomial coefficients of degree 0 .. n_terms, stacked along axis 0."""
        inv_w = self.omega.inverse_weight_values(self.n_terms)
        kernel_part = self.defect_min.mat @ self.star_powers @ self.triple.b.mat
        out = np.zeros((self.n_terms + 1, self.defect_dim, self.triple.e_dim), dtype=complex)
        out[:-1] = self.scaled_d_blocks
        out[1:] += inv_w[:, None, None] * kernel_part
        return out


def _resolve_terms(t: Operator, omega: WeightSpec, n_terms: int | None, tol: float) -> int:
    if n_terms is None:
        return _char_horizon(t, omega, tol)
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    return n_terms


def _column_pieces(
    t: Operator, omega: WeightSpec, n_terms: int, tol: float
) -> tuple[Operator, Operator, Operator, float]:
    """Defect range basis, defect coordinates, column map of a pure ``T`` and
    the residual of ``I - C*C = T T*``."""
    if not is_pure(t):
        raise NotPure("tail operator does not vanish; no characteristic function")
    _, basis, d_min = _defect_sqrt_pieces(t, omega, tol)
    rho = rho_sequence(omega, n_terms)
    stars = _power_stack(t.mat.conj().T, n_terms)
    c = Operator(np.vstack([math.sqrt(rho[k]) * (d_min.mat @ stars[k]) for k in range(n_terms)]))
    gap = np.eye(t.rows) - (c.H @ c).mat - (t @ t.H).mat
    res = hermitian_norm(gap)
    if res > tol * 10:
        raise HorizonTooShort(
            f"truncation loses column mass (identity residual {res:.3e}); "
            "increase the number of terms"
        )
    return basis, d_min, c, res


def contraction_C(
    t: Operator, omega: WeightSpec, n_terms: int | None = None, tol: float = CHAR_TOL
) -> Operator:
    """The stacked column contraction ``h -> (sqrt(rho_n) D T*^n h)_n``.

    Requires a pure input and a horizon long enough that no column mass is
    lost; the internal witness is the exact algebraic identity
    ``I - C*C = T T*``.
    """
    t = as_operator(t)
    n_terms = _resolve_terms(t, omega, n_terms, tol)
    return _column_pieces(t, omega, n_terms, tol)[2]


def build_char_triple(
    t: Operator, omega: WeightSpec, n_terms: int | None = None, tol: float = CHAR_TOL
) -> CharTriple:
    """Complete ``[T*; C]`` to a unitary and split off ``(E, B, {D_n})``."""
    return char_function(t, omega, n_terms, tol).triple


def char_function(
    t: Operator, omega: WeightSpec, n_terms: int | None = None, tol: float = CHAR_TOL
) -> CharFunction:
    t = as_operator(t)
    n_terms = _resolve_terms(t, omega, n_terms, tol)
    basis, d_min, c, res = _column_pieces(t, omega, n_terms, tol)
    e_dim, y = complete_to_unitary(Operator(np.vstack([t.H.mat, c.mat])), tol)
    d = t.rows
    r = c.rows // n_terms
    blocks = tuple(
        Operator(y.mat[d + k * r: d + (k + 1) * r, :]) for k in range(n_terms)
    )
    triple = CharTriple(e_dim, Operator(y.mat[:d, :]), blocks)
    return CharFunction(t, omega, n_terms, triple, d_min, basis, c, res)


def kernel_poly(omega: WeightSpec, z: complex, powers: np.ndarray) -> np.ndarray:
    """Operator series ``sum_n z^n A^n / w_n`` over a power stack ``[I, A, A^2, ...]``."""
    n = len(powers)
    return np.tensordot(omega.inverse_weight_values(n) * complex(z) ** np.arange(n), powers, 1)


def _kernel_scalar(omega: WeightSpec, x: complex, cap: int = 4096) -> complex:
    """Scalar kernel value ``sum_n x^n / w_n`` summed to machine convergence.

    Raises :class:`HorizonTooShort` when ``cap`` terms do not converge, as
    they do not for ``|x|`` close to 1, instead of returning a partial sum.
    """
    total = 0.0 + 0.0j
    block = 64
    n0 = 0
    while n0 < cap:
        inv_w = omega.inverse_weight_values(n0 + block)[n0:]
        powers = x ** (n0 + np.arange(block))
        chunk = np.sum(inv_w * powers)
        total += chunk
        if abs(chunk) < 1e-18 * max(1.0, abs(total)):
            return complex(total)
        n0 += block
    raise HorizonTooShort(
        f"scalar kernel at |x| = {abs(x):.6g} has not converged after {n0} terms"
    )


def char_function_eval(cf: CharFunction, z: complex) -> Operator:
    """Evaluate the characteristic function at a point of the open disc."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("evaluation point must lie in the open disc")
    out = np.tensordot(z ** np.arange(cf.n_terms), cf.scaled_d_blocks, 1)
    series = kernel_poly(cf.omega, z, cf.star_powers)
    out += z * (cf.defect_min.mat @ series @ cf.triple.b.mat)
    return Operator(out)


def key_identity_check(
    cf: CharFunction, zetas: Sequence[complex], etas: Sequence[complex]
) -> float:
    """Largest residual of the kernel identity over all pairs ``(zeta, eta)``.

    ``K(eta, zeta) I - theta(eta) theta(zeta)* / (1 - eta conj(zeta))``
    must equal ``D K(eta, T*) K(conj(zeta), T) D`` in the defect coordinates,
    where ``K(conj(zeta), T) = K(zeta, T*)*``.  ``theta`` and ``K(., T*)`` are
    evaluated once per distinct point of ``zetas`` and ``etas``; each pair
    then costs a few products of defect-sized matrices.  A single pair is
    checked by passing one-element lists.
    """
    zetas = [complex(z) for z in zetas]
    etas = [complex(e) for e in etas]
    if any(abs(p) >= 1.0 for p in zetas + etas):
        raise ValueError("evaluation points must lie in the open disc")
    r = cf.defect_dim
    if not r:
        return 0.0
    points = dict.fromkeys(zetas + etas)
    theta = {p: char_function_eval(cf, p).mat for p in points}
    kernel = {p: kernel_poly(cf.omega, p, cf.star_powers) for p in points}
    dmin = cf.defect_min.mat
    eye = np.eye(r)
    worst = 0.0
    for zeta in zetas:
        th_zeta_adj = theta[zeta].conj().T
        k_right = kernel[zeta].conj().T
        for eta in etas:
            x = eta * np.conj(zeta)
            k_scalar = _kernel_scalar(cf.omega, x)
            lhs = k_scalar * eye - (theta[eta] @ th_zeta_adj) / (1.0 - x)
            rhs = dmin @ kernel[eta] @ k_right @ dmin.conj().T
            worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return worst


def partial_isometry_check(cf: CharFunction) -> dict[str, float]:
    """Check that the multiplier and the dilation map split the identity.

    Both maps go into the weighted Bergman space of the defect truncated at
    ``n_terms``: the dilation map ``pi`` with block rows ``D T*^b / sqrt(w_b)``,
    and the multiplier ``M`` of the function from the equally truncated Hardy
    space of ``E``, which is block Toeplitz: ``M[b, a] = sqrt(w_b) Theta_{b-a}``.
    So ``M M*`` is the Gram matrix of the coefficient blocks summed along
    block diagonals and rescaled by ``sqrt(w_b w_b')``, and block column ``a``
    of ``pi* M`` is the correlation ``sum_j T^(a+j) D* Theta_j``, in which the
    weights cancel.  Returns the residuals of ``pi pi* + M M* = I`` and of the
    range orthogonality ``pi* M = 0``.
    """
    n, r = cf.n_terms, cf.defect_dim
    theta = cf.coefficients()[:n]  # Theta_n only reaches degrees beyond the cutoff
    flat = theta.reshape(n * r, -1)
    gram = (flat @ flat.conj().T).reshape(n, r, n, r)
    for b in range(1, n):
        gram[b, :, 1:] += gram[b - 1, :, :-1]
    sqrt_w = np.repeat(np.sqrt(cf.omega.values(n)), r)
    mm = sqrt_w[:, None] * gram.reshape(n * r, n * r) * sqrt_w[None, :]
    rows = cf.defect_min.mat @ cf.star_powers
    pi = (rows / sqrt_w.reshape(n, r, 1)).reshape(n * r, -1)
    total = pi @ pi.conj().T + mm
    res = hermitian_norm(total - np.eye(n * r))
    adj = rows.conj().transpose(0, 2, 1)
    cross = np.concatenate(
        [np.tensordot(adj[a:], theta[:n - a], axes=([0, 2], [0, 1])) for a in range(n)], axis=1
    )
    return {"partial_isometry": res, "range_orthogonality": float(np.linalg.norm(cross, 2))}


def uniqueness_unitary(t1: CharTriple, t2: CharTriple, tol: float = CHAR_TOL) -> Operator:
    """Unitary ``U`` with ``B2 = B1 U`` and ``D2 = D1 U`` between two triples.

    Both completion columns are isometries with the same range, so the
    transition is just the Gram product of the two.
    """
    if t1.e_dim != t2.e_dim:
        raise NotUnitaryInput("triples have different completion dimensions")
    y1 = np.vstack([t1.b.mat, t1.d_stack.mat])
    y2 = np.vstack([t2.b.mat, t2.d_stack.mat])
    u = y1.conj().T @ y2
    res = hermitian_norm(u.conj().T @ u - np.eye(t2.e_dim))
    if res > tol * 10:
        raise NotUnitaryInput(f"triples are not related by a unitary (residual {res:.3e})")
    return Operator(u)


def coincidence_verify(
    theta1: CharFunction,
    theta2: CharFunction,
    tau: Operator,
    tau_star: Operator,
    z_grid: Sequence[complex],
    tol: float = CHAR_TOL,
) -> tuple[bool, float]:
    """Check ``theta2(z) = tau_star theta1(z) tau`` on a grid of disc points."""
    tau = as_operator(tau)
    tau_star = as_operator(tau_star)
    for u in (tau, tau_star):
        if u.rows != u.cols:
            raise NotUnitaryInput("coincidence unitaries must be square")
        if hermitian_norm((u.H @ u).mat - np.eye(u.cols)) > tol * 10:
            raise NotUnitaryInput("coincidence transports must be unitary")
    worst = 0.0
    for z in z_grid:
        lhs = char_function_eval(theta2, z).mat
        rhs = tau_star.mat @ char_function_eval(theta1, z).mat @ tau.mat
        worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)) if lhs.size else 0.0)
    return worst <= tol, worst
