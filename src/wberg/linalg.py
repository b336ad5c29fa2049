"""Dense complex linear algebra for finite-dimensional Hilbert-space maps.

Everything downstream manipulates one concrete object: a dense complex
matrix with explicit row/column dimensions, wrapped as :class:`Operator`.
The module provides the handful of spectral primitives the constructions
need: Hermitian PSD certification, PSD square roots, Kronecker products,
range bases, Douglas-type factorization solves, and completion of an
isometry to a unitary.

Hermitian eigendecomposition is the single spectral primitive for square
roots; SVD handles ranges and a complete QR handles completions.  Rank decisions use the relative
threshold ``sigma <= tol * sigma_max`` with ``tol = 1e-9`` by default.

Norms have two primitives besides the SVD norm of :meth:`Operator.norm`:
:func:`hermitian_norm` reads the norm of a Hermitian matrix (every reported
residual of a Gram or projector identity) off its extreme eigenvalues, and
:func:`threshold_norm` decides ``||M|| < bound`` style tests from the
Frobenius norm, falling back to the SVD only when ``F / sqrt(min(shape)) <=
bound <= F`` leaves the answer open.  Its value only serves comparisons with
``bound`` and is never reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotIsometry, NotPsd, NotSubordinate

__all__ = [
    "Operator",
    "PsdCertificate",
    "adjoint",
    "psd_check",
    "psd_sqrt",
    "douglas_solve",
    "complete_to_unitary",
    "kron",
    "range_basis",
    "hermitian_norm",
    "threshold_norm",
    "RANK_TOL",
]

RANK_TOL = 1e-9

# Relative slack, per unit of the smaller dimension, between a computed
# Frobenius bound and ``bound`` before threshold_norm trusts it, so that a
# comparison that rounding in F could tip goes to the SVD instead.
_FRO_SLACK = 16 * np.finfo(float).eps


def hermitian_norm(h: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, ``max(|lambda_min|, |lambda_max|)``.

    The matrix is symmetrized first, as :func:`psd_check` does, so rounding
    that breaks exact hermiticity does not reach the eigensolver.  Backward
    stability of ``eigvalsh`` puts the value within ``O(n eps ||H||)`` of the
    SVD norm at a fraction of its cost.
    """
    if h.size == 0:
        return 0.0
    sym = h + h.conj().T
    sym *= 0.5
    eigs = np.linalg.eigvalsh(sym)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def threshold_norm(mat: np.ndarray, bound: float) -> float:
    """A value that compares with ``bound`` exactly as the spectral norm does.

    With ``F`` the Frobenius norm and ``k = min(shape)``,
    ``F / sqrt(k) <= ||M|| <= F``.  So ``F`` is returned when it is already
    below ``bound``, ``F / sqrt(k)`` when that is already above it, and the
    SVD norm only in the window between.  Callers keep their own ``<``,
    ``<=`` or ``>``; the value is a decision aid, not a reported residual.
    """
    if mat.size == 0:
        return 0.0
    k = min(mat.shape)
    slack = _FRO_SLACK * k
    fro = float(np.linalg.norm(mat))
    if fro * (1.0 + slack) < bound:
        return fro
    low = fro / np.sqrt(k)
    if low * (1.0 - slack) > bound:
        return low
    return float(np.linalg.norm(mat, 2))


class Operator:
    """A dense complex matrix acting between finite-dimensional spaces."""

    __slots__ = ("mat",)

    def __init__(self, mat) -> None:
        arr = np.array(mat, dtype=complex, copy=True, order="C")
        if arr.ndim != 2:
            raise ValueError(f"operator entries must form a matrix, got ndim={arr.ndim}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        self.mat = arr

    # -- shape ----------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.mat.shape[0]

    @property
    def cols(self) -> int:
        return self.mat.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Operator":
        return Operator(np.eye(n, dtype=complex))

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "Operator":
        return Operator(np.zeros((rows, rows if cols is None else cols), dtype=complex))

    @staticmethod
    def scalar(value: complex) -> "Operator":
        return Operator(np.array([[value]], dtype=complex))

    # -- algebra ----------------------------------------------------------------

    @property
    def H(self) -> "Operator":
        """Adjoint (conjugate transpose)."""
        return Operator(self.mat.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        return Operator(self.mat @ other.mat)

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.mat - other.mat)

    def __neg__(self) -> "Operator":
        return Operator(-self.mat)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.mat * scalar)

    __rmul__ = __mul__

    def power(self, k: int) -> "Operator":
        if not self.is_square:
            raise ValueError("powers need a square operator")
        return Operator(np.linalg.matrix_power(self.mat, k))

    def norm(self) -> float:
        """Operator (spectral) norm."""
        if self.mat.size == 0:
            return 0.0
        return float(np.linalg.norm(self.mat, 2))

    def is_hermitian(self, tol: float) -> bool:
        """``||A - A*|| <= tol * max(1, ||A||)``; ``||A||`` is taken only when
        the skew part is not already within ``tol``."""
        skew = self.mat - self.mat.conj().T
        if threshold_norm(skew, tol) <= tol:
            return True
        bound = tol * max(1.0, self.norm())
        return threshold_norm(skew, bound) <= bound

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "re": [float(v) for v in self.mat.real.ravel(order="C")],
            "im": [float(v) for v in self.mat.imag.ravel(order="C")],
        }

    @staticmethod
    def from_dict(data: dict) -> "Operator":
        rows, cols = int(data["rows"]), int(data["cols"])
        re = np.asarray(data["re"], dtype=float).reshape(rows, cols)
        im = np.asarray(data["im"], dtype=float).reshape(rows, cols)
        return Operator(re + 1j * im)

    def __repr__(self) -> str:
        return f"Operator({self.rows}x{self.cols})"


def as_operator(value) -> Operator:
    return value if isinstance(value, Operator) else Operator(value)


def adjoint(a: Operator) -> Operator:
    return as_operator(a).H


@dataclass(frozen=True)
class PsdCertificate:
    """Verdict plus the witness eigenvalue of a positivity test."""

    min_eigenvalue: float
    tolerance: float
    verdict: bool


def psd_check(a: Operator, tol: float = 1e-8) -> PsdCertificate:
    """Certify positive semidefiniteness of a Hermitian operator.

    The verdict compares the smallest eigenvalue of the Hermitian
    symmetrization against ``-tol``.
    """
    a = as_operator(a)
    if not a.is_square:
        raise NotHermitian("psd check needs a square operator")
    if a.mat.size == 0:
        return PsdCertificate(0.0, tol, True)
    if not a.is_hermitian(tol):
        raise NotHermitian("operator is not Hermitian within tolerance")
    herm = 0.5 * (a.mat + a.mat.conj().T)
    eigs = np.linalg.eigvalsh(herm)
    min_eig = float(eigs[0])
    return PsdCertificate(min_eig, tol, min_eig >= -tol)


def psd_sqrt(a: Operator, tol: float = 1e-8) -> Operator:
    """Hermitian PSD square root; eigenvalues within ``-tol`` of zero are clamped."""
    a = as_operator(a)
    cert = psd_check(a, tol)
    if not cert.verdict:
        raise NotPsd(f"smallest eigenvalue {cert.min_eigenvalue:.3e} below -{tol:.1e}")
    if a.mat.size == 0:
        return Operator(a.mat.copy())
    herm = 0.5 * (a.mat + a.mat.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    vals = np.where(vals > 0.0, vals, 0.0)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return Operator(0.5 * (root + root.conj().T))


def douglas_solve(g: Operator, f: Operator, tol: float = RANK_TOL) -> Operator:
    """Solve ``A* G = F`` for a contraction ``A``.

    ``G`` and ``F`` must act on the same domain, and ``F* F <= G* G`` up to
    ``tol`` (relative to ``||G* G||``); otherwise :class:`NotSubordinate` is
    raised.  ``A*`` agrees with ``F`` composed with the pseudo-inverse of
    ``G`` on ``ran G`` and vanishes on the orthogonal complement, which pins
    ``||A|| <= 1`` up to the tolerance.
    """
    g = as_operator(g)
    f = as_operator(f)
    if g.cols != f.cols:
        raise ValueError("douglas solve needs maps with a common domain")
    gram_g = g.mat.conj().T @ g.mat
    gram_f = f.mat.conj().T @ f.mat
    gap = gram_g - gram_f
    scale = max(1.0, hermitian_norm(gram_g))
    if gap.size:
        min_eig = float(np.linalg.eigvalsh(0.5 * (gap + gap.conj().T))[0])
        if min_eig < -tol * scale:
            raise NotSubordinate(
                f"subordination failed: min eig {min_eig:.3e} < -{tol:.1e} * {scale:.3e}"
            )
    if g.mat.size == 0 or f.mat.size == 0:
        return Operator(np.zeros((g.rows, f.rows), dtype=complex))
    a_adj = f.mat @ np.linalg.pinv(g.mat, rcond=RANK_TOL)
    return Operator(a_adj.conj().T)


def complete_to_unitary(x: Operator, tol: float = RANK_TOL) -> tuple[int, Operator]:
    """Extend an isometry ``X`` to a unitary ``[X Y]``.

    Returns ``(e_dim, Y)`` where the ``e_dim = rows - cols`` columns of ``Y``
    form an orthonormal basis of the orthogonal complement of ``ran X``: the
    trailing columns of the complete QR factor of ``X``.
    """
    x = as_operator(x)
    if x.rows < x.cols:
        raise NotIsometry("isometry must not decrease dimension")
    gram = x.mat.conj().T @ x.mat
    res = hermitian_norm(gram - np.eye(x.cols))
    if res > tol:
        raise NotIsometry(f"columns are not orthonormal (residual {res:.3e})")
    e_dim = x.rows - x.cols
    if e_dim == 0:
        return 0, Operator(np.zeros((x.rows, 0), dtype=complex))
    q, _ = np.linalg.qr(x.mat, mode="complete")
    return e_dim, Operator(q[:, x.cols:])


def kron(a: Operator, b: Operator) -> Operator:
    """Kronecker (tensor) product."""
    return Operator(np.kron(as_operator(a).mat, as_operator(b).mat))


def psd_root_pieces(
    s: Operator, tol: float = 1e-8, rank_tol: float = RANK_TOL
) -> tuple[Operator, Operator]:
    """Square root plus range basis of a Hermitian PSD operator.

    Rank is decided on the eigenvalues of ``S`` itself (threshold
    ``rank_tol * max(1, lambda_max)``), not of the root: taking the root
    first would amplify eigenvalue noise ``eps`` to ``sqrt(eps)`` and
    manufacture spurious range directions.  Basis columns are ordered by
    descending eigenvalue.
    """
    s = as_operator(s)
    cert = psd_check(s, tol)
    if not cert.verdict:
        raise NotPsd(f"smallest eigenvalue {cert.min_eigenvalue:.3e} below -{tol:.1e}")
    if s.mat.size == 0:
        return Operator(s.mat.copy()), Operator(np.zeros((s.rows, 0), dtype=complex))
    herm = 0.5 * (s.mat + s.mat.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    cutoff = rank_tol * max(1.0, float(vals[0]) if vals.size else 0.0)
    keep = vals > cutoff
    rank = int(np.sum(keep))
    cleaned = np.where(keep, vals, 0.0)
    root = (vecs * np.sqrt(cleaned)) @ vecs.conj().T
    root = 0.5 * (root + root.conj().T)
    return Operator(root), Operator(vecs[:, :rank])


def range_basis(a: Operator, tol: float = RANK_TOL) -> Operator:
    """Orthonormal basis of ``ran A`` as columns, via SVD rank truncation.

    The rank threshold is ``tol * max(sigma_max, 1)``: relative for large
    operators, but floored absolutely so numerically-zero defect operators
    get an empty range instead of a spurious full-rank one.
    """
    a = as_operator(a)
    if a.mat.size == 0:
        return Operator(np.zeros((a.rows, 0), dtype=complex))
    u, s, _ = np.linalg.svd(a.mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return Operator(np.zeros((a.rows, 0), dtype=complex))
    rank = int(np.sum(s > tol * max(s[0], 1.0)))
    return Operator(u[:, :rank])
