"""Dense complex linear algebra for finite-dimensional Hilbert-space maps.

Matrices enter the package as :class:`Operator`: a validated, read-only,
C-ordered complex array.  Inside the package every computed matrix is a plain
``np.ndarray``; the functions here take either, through ``np.asarray``, and
return arrays.  The module provides the handful of spectral primitives the
constructions need: Hermitian PSD certification, PSD square roots with range
bases, Douglas-type factorization solves, and completion of an isometry to a
unitary.

Hermitian eigendecomposition is the spectral primitive for square roots and
their ranges, the pseudo-inverse for Douglas solves and a Householder QR,
held as its compact WY factors, for completions.  Rank decisions are
relative with ``RANK_TOL``: to ``max(1, lambda_max)`` for ranges, to
``sigma_max`` in the pseudo-inverse.  Positivity verdicts allow eigenvalues
down to ``-POSITIVITY_TOL``.  Eigenvalues alone
come from one helper, ``_eigvalsh``, the eigenvalues of the Hermitian part of
a matrix: it reads a diagonal matrix (every defect of a multi-shift in its
monomial basis) off its diagonal and sends any other, symmetrized, to LAPACK.

Norms have two primitives besides the SVD norm of :func:`spectral_norm`:
:func:`hermitian_norm` reads the norm of a Hermitian matrix (every reported
residual of a Gram or projector identity) off its extreme eigenvalues, and
:func:`threshold_norm` decides ``||M|| < bound`` style tests from the
Frobenius norm, falling back to the SVD only when ``F / sqrt(min(shape)) <=
bound <= F`` leaves the answer open.  Its value only serves comparisons with
``bound`` and is never reported.  It decides the hermiticity test of
:func:`psd_check`, the contraction and commutation tests of
``hyper.OperatorTuple``, the convergence test of
``hyper.conjugation_limit``, the purity test of ``hyper.is_pure`` on the
tail limits ``hyper.OperatorTuple.tail_limit`` holds (the multi-shift
report's purity too), the unitarity of the transition in
``charfn.uniqueness_unitary``, and in ``charfn.coincidence_verify`` the
unitarity of the conjugating map and of the defect transport (whose values
enter its transport bound) and, when that bound cannot decide, of the
formed completion transport; a rejection there quotes the exact
:func:`hermitian_norm` residual.

:func:`complete_to_unitary` returns the complement of an isometry's range as
the factors ``(V, S)`` of ``Y = E - V S W*``; :func:`complement_columns` is
the one route that forms ``Y``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotIsometry, NotPsd, NotSubordinate

__all__ = [
    "Operator",
    "PsdCertificate",
    "psd_check",
    "psd_sqrt",
    "psd_root_pieces",
    "douglas_solve",
    "complete_to_unitary",
    "complement_columns",
    "spectral_norm",
    "hermitian_norm",
    "threshold_norm",
    "POSITIVITY_TOL",
    "RANK_TOL",
    "UNIT_ROUNDOFF",
]

# Smallest eigenvalue a positivity verdict accepts is -POSITIVITY_TOL: the
# default slack of every PSD certificate, square root and classification.
POSITIVITY_TOL = 1e-8
# Relative eigenvalue threshold below which a direction is outside the range.
RANK_TOL = 1e-9

# Unit roundoff ``u`` of double precision.
UNIT_ROUNDOFF = np.finfo(float).eps / 2

# Relative slack, per unit of the smaller dimension, between a computed
# Frobenius bound and ``bound`` before threshold_norm trusts it, so that a
# comparison that rounding in F could tip goes to the SVD instead.
_FRO_SLACK = 16 * np.finfo(float).eps


def hermitian_norm(h: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, ``max(|lambda_min|, |lambda_max|)``.

    The eigenvalues are those of the Hermitian part (:func:`_eigvalsh`), as
    in :func:`psd_check`, so rounding that breaks exact hermiticity does not
    reach the eigensolver, and a diagonal matrix, the zero matrix included,
    is read off its diagonal.  Backward stability of ``eigvalsh`` puts the
    value within ``O(n eps ||H||)`` of the SVD norm at a fraction of its
    cost.
    """
    if h.size == 0:
        return 0.0
    eigs = _eigvalsh(h)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def _is_diagonal(mat: np.ndarray) -> bool:
    """True when the square ``mat`` has no nonzero entry off its diagonal.

    The entry below the first diagonal one is read first, so a dense matrix
    is rejected at once; only a matrix that passes is scanned in full.  In
    the flattened matrix, C- or Fortran-ordered, the off-diagonal entries
    are the first ``n`` of each run of ``n + 1`` after the first diagonal
    entry.
    """
    n = mat.shape[0]
    if n < 2:
        return True
    if mat[1, 0] != 0:
        return False
    return not mat.ravel(order="K")[1:].reshape(n - 1, n + 1)[:, :n].any()


def _eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part ``(H + H*) / 2`` of a square matrix.

    The one route to ``np.linalg.eigvalsh`` in the package.  A diagonal
    ``H`` (:func:`_is_diagonal`), the zero matrix included, skips the
    symmetrization and the eigensolve: the eigenvalues are the real parts of
    its diagonal, sorted, the values LAPACK returns for it.  Signed zeros:
    the sort is stable, so tied values keep their order along the diagonal,
    and a ``-0.0`` that comes before a ``+0.0`` there comes before it in the
    result.  LAPACK sorts the same way up to 20 eigenvalues (insertion sort)
    but may order tied signed zeros otherwise above that (quicksort).
    LAPACK also rescales a matrix whose largest entry lies outside about
    ``[1e-146, 1e146]``, which can move its last bits; the diagonal is
    returned exactly.
    """
    if _is_diagonal(h):
        return np.sort(np.diagonal(h).real, kind="stable")
    sym = h + h.conj().T
    sym *= 0.5
    return np.linalg.eigvalsh(sym)


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
    """A validated dense complex matrix: the type in which matrices enter the package.

    The constructor copies its input to a C-ordered complex array, checks that
    it is a finite matrix and stores it read-only.  ``np.asarray(op)`` returns
    that array without a copy, so every function that takes a matrix accepts
    an ``Operator`` or an ``ndarray`` alike; computed results are plain arrays.
    A matrix the package built itself and hands over (a dilation map) enters
    through :meth:`_adopt`, checked and frozen the same way but not copied.
    """

    __slots__ = ("mat",)

    def __init__(self, mat) -> None:
        self.mat = _frozen_matrix(np.array(mat, dtype=complex, copy=True, order="C"))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> "Operator":
        """An operator on ``arr`` itself, a C-ordered complex array the
        package built and hands over: checked and made read-only as the
        constructor's copy is, but not copied."""
        op = cls.__new__(cls)
        op.mat = _frozen_matrix(arr)
        return op

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy or (dtype is not None and np.dtype(dtype) != self.mat.dtype):
            return self.mat.astype(self.mat.dtype if dtype is None else dtype)
        return self.mat

    @property
    def rows(self) -> int:
        return self.mat.shape[0]

    @property
    def cols(self) -> int:
        return self.mat.shape[1]

    def norm(self) -> float:
        """Operator (spectral) norm."""
        return spectral_norm(self.mat)

    def is_hermitian(self, tol: float) -> bool:
        """``||A - A*|| <= tol * max(1, ||A||)``, as :func:`psd_check` tests it."""
        return _is_hermitian(self.mat, tol)

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "re": self.mat.real.ravel(order="C").tolist(),
            "im": self.mat.imag.ravel(order="C").tolist(),
        }

    @staticmethod
    def from_dict(data: dict) -> "Operator":
        rows, cols = int(data["rows"]), int(data["cols"])
        re = np.asarray(data["re"], dtype=float).reshape(rows, cols)
        im = np.asarray(data["im"], dtype=float).reshape(rows, cols)
        return Operator(re + 1j * im)

    def __repr__(self) -> str:
        return f"Operator({self.rows}x{self.cols})"


def _frozen_matrix(arr: np.ndarray) -> np.ndarray:
    """``arr``, checked to be a finite matrix, made read-only."""
    if arr.ndim != 2:
        raise ValueError(f"operator entries must form a matrix, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("operator entries must be finite")
    arr.flags.writeable = False
    return arr


def spectral_norm(mat: np.ndarray) -> float:
    """Operator (spectral) norm by SVD; zero for an empty matrix."""
    if mat.size == 0:
        return 0.0
    return float(np.linalg.norm(mat, 2))


def _is_hermitian(mat: np.ndarray, tol: float) -> bool:
    """``||A - A*|| <= tol * max(1, ||A||)``; ``||A||`` is taken only when
    the skew part is not already within ``tol``."""
    skew = mat - mat.conj().T
    if threshold_norm(skew, tol) <= tol:
        return True
    bound = tol * max(1.0, spectral_norm(mat))
    return threshold_norm(skew, bound) <= bound


@dataclass(frozen=True)
class PsdCertificate:
    """Verdict plus the witness eigenvalue of a positivity test."""

    min_eigenvalue: float
    tolerance: float
    verdict: bool


def psd_check(a, tol: float = POSITIVITY_TOL) -> PsdCertificate:
    """Certify positive semidefiniteness of a Hermitian matrix.

    The verdict compares the smallest eigenvalue of the Hermitian part
    against ``-tol``; a diagonal matrix, the zero matrix included, gives its
    smallest diagonal entry with no eigensolve (:func:`_eigvalsh`).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitian("psd check needs a square operator")
    if a.size == 0:
        return PsdCertificate(0.0, tol, True)
    if not _is_hermitian(a, tol):
        raise NotHermitian("operator is not Hermitian within tolerance")
    min_eig = float(_eigvalsh(a)[0])
    return PsdCertificate(min_eig, tol, min_eig >= -tol)


def psd_sqrt(a, tol: float = POSITIVITY_TOL) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues within ``-tol`` of zero are clamped."""
    a = np.asarray(a, dtype=complex)
    cert = psd_check(a, tol)
    if not cert.verdict:
        raise NotPsd(f"smallest eigenvalue {cert.min_eigenvalue:.3e} below -{tol:.1e}")
    if a.size == 0:
        return a.copy()
    herm = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    vals = np.where(vals > 0.0, vals, 0.0)
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    return 0.5 * (root + root.conj().T)


def douglas_solve(g, f, tol: float = RANK_TOL) -> np.ndarray:
    """Solve ``A* G = F`` for a contraction ``A``.

    ``G`` and ``F`` must act on the same domain, and ``F* F <= G* G`` up to
    ``tol`` (relative to ``||G* G||``); otherwise :class:`NotSubordinate` is
    raised.  ``A*`` agrees with ``F`` composed with the pseudo-inverse of
    ``G`` on ``ran G`` and vanishes on the orthogonal complement, which pins
    ``||A|| <= 1`` up to the tolerance.  The subordination gap ``G* G - F*
    F`` takes its smallest eigenvalue from :func:`_eigvalsh`, so a diagonal
    gap needs no eigensolve.
    """
    g = np.asarray(g, dtype=complex)
    f = np.asarray(f, dtype=complex)
    if g.shape[1] != f.shape[1]:
        raise ValueError("douglas solve needs maps with a common domain")
    if f.shape[0] == 0:  # F* F = 0 is below any G* G
        return np.zeros((g.shape[0], 0), dtype=complex)
    gram_g = g.conj().T @ g
    gram_f = f.conj().T @ f
    gap = gram_g - gram_f
    scale = max(1.0, hermitian_norm(gram_g))
    if gap.size:
        min_eig = float(_eigvalsh(gap)[0])
        if min_eig < -tol * scale:
            raise NotSubordinate(
                f"subordination failed: min eig {min_eig:.3e} < -{tol:.1e} * {scale:.3e}"
            )
    if g.size == 0 or f.size == 0:
        return np.zeros((g.shape[0], f.shape[0]), dtype=complex)
    a_adj = f @ np.linalg.pinv(g, rcond=RANK_TOL)
    return a_adj.conj().T


def complete_to_unitary(x, tol: float = RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Extend an isometry ``X`` (``rows x cols``) to a unitary ``[X Y]``, ``Y`` held as factors.

    Returns ``(V, S)``, the compact WY form ``Q = I - V S V*`` of the
    Householder QR of ``X`` (Schreiber & Van Loan, *SIAM J. Sci. Stat.
    Comput.* 10, 1989): ``V`` is the ``rows x cols`` unit lower trapezoidal
    matrix of the reflectors of ``np.linalg.qr(x, mode="raw")`` and ``S``
    the upper triangular ``cols``-square matrix of LAPACK's ``zlarft``
    recurrence over ``G = V* V`` and the reflector scalars ``tau``:
    ``S[i, i] = tau_i`` and ``S[:i, i] = -tau_i S[:i, :i] G[:i, i]``.  The
    trailing ``e = rows - cols`` columns of ``Q``,

        Y = E - V S W*,   E = [0; I_e],   W = V[cols:],

    are an orthonormal basis of the orthogonal complement of ``ran X``: the
    columns a complete QR would return, never formed here
    (:func:`complement_columns` forms them).  The cost is the ``cols``-wide
    QR and ``G``; no ``rows``-square matrix is made.
    """
    x = np.asarray(x, dtype=complex)
    rows, cols = x.shape
    if rows < cols:
        raise NotIsometry("isometry must not decrease dimension")
    gram = x.conj().T @ x
    res = hermitian_norm(gram - np.eye(cols))
    if res > tol:
        raise NotIsometry(f"columns are not orthonormal (residual {res:.3e})")
    h, tau = np.linalg.qr(x, mode="raw")
    v = np.tril(h.T, -1)  # h is LAPACK's array, transposed
    v[np.diag_indices(cols)] = 1.0
    g = v.conj().T @ v
    s = np.zeros((cols, cols), dtype=complex)
    for i in range(cols):
        s[i, i] = tau[i]
        s[:i, i] = -tau[i] * (s[:i, :i] @ g[:i, i])
    return v, s


def complement_columns(v: np.ndarray, s: np.ndarray, e_dim: int) -> np.ndarray:
    """The ``rows x e_dim`` matrix ``Y = E - V S W*`` of factors ``(V, S)``, formed.

    ``E = [0; I_e]`` and ``W`` is the last ``e_dim`` rows of ``V``; for the
    factors of :func:`complete_to_unitary` this is the orthonormal
    complement it stands for.  The identity is added on the diagonal of the
    trailing block, so no ``e``-square identity is made.
    """
    rows = v.shape[0]
    w = v[rows - e_dim:]
    y = -(v @ (s @ w.conj().T))
    y[np.arange(rows - e_dim, rows), np.arange(e_dim)] += 1.0
    return y


def psd_root_pieces(s) -> tuple[np.ndarray, np.ndarray]:
    """Square root plus range basis of a Hermitian PSD matrix.

    Eigenvalues down to ``-POSITIVITY_TOL`` are accepted.  Rank is decided
    on the eigenvalues of ``S`` itself (threshold
    ``RANK_TOL * max(1, lambda_max)``), not of the root: taking the root
    first would amplify eigenvalue noise ``eps`` to ``sqrt(eps)`` and
    manufacture spurious range directions.  Basis columns are ordered by
    descending eigenvalue.
    """
    s = np.asarray(s, dtype=complex)
    cert = psd_check(s)
    if not cert.verdict:
        raise NotPsd(f"smallest eigenvalue {cert.min_eigenvalue:.3e} below -{POSITIVITY_TOL:.1e}")
    if not s.any():  # empty or zero: no range
        return np.zeros_like(s), np.zeros((s.shape[0], 0), dtype=complex)
    herm = 0.5 * (s + s.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    cutoff = RANK_TOL * max(1.0, float(vals[0]) if vals.size else 0.0)
    keep = vals > cutoff
    rank = int(np.sum(keep))
    cleaned = np.where(keep, vals, 0.0)
    root = (vecs * np.sqrt(cleaned)) @ vecs.conj().T
    root = 0.5 * (root + root.conj().T)
    return root, vecs[:, :rank]
