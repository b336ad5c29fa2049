"""Dilations of hypercontractive tuples onto truncated weighted Bergman models.

The one-variable dilation embeds ``H`` isometrically into
``A^2_w(defect space) (+) tail space`` by

    h  |->  ( sum_k (D T*^k h / w_k) z^k ,  Q h ),

intertwining ``T*`` with the adjoint of ``shift (+) U`` where ``U`` is the
co-isometry with ``U* Q = Q T*``.  The commutant lift transports the other
coordinates onto the model, one Douglas solve per coordinate.  Iterating the
pure branch variable by variable produces the multi-shift model of a pure
tuple; the general model keeps, for every subset ``L`` of coordinates, a
block ``A^2_{W_L}(E_L)`` whose defect map ``Delta_L`` solves a double limit
(series limit inside ``L``, power conjugation outside).

All model operators live in the orthonormalized graded-lex bases from
:mod:`wberg.bergman`, and every identity the construction promises is
re-verified numerically; the residuals travel with the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bergman import TruncatedSpace, shift_matrix
from .errors import (
    BlockBudgetExceeded,
    DouglasPreconditionFailed,
    IsometryResidualTooLarge,
    LiftConditionFailed,
    NotHypercontractive,
    NotPsd,
    NotPure,
    NotSubordinate,
)
from .hyper import (
    LIMIT_TOL,
    OperatorTuple,
    _nilpotency_order,
    _power_stack,
    conjugation_limit,
    defect_limit,
    is_omega_hypercontraction,
    is_pure,
    is_W_hypercontraction,
    subtuple,
    tail_operator,
)
from .linalg import (
    POSITIVITY_TOL,
    Operator,
    douglas_solve,
    hermitian_norm,
    psd_root_pieces,
    spectral_norm,
)
from .series import MultiWeightSpec, WeightSpec, _normalize_degrees

__all__ = [
    "DilationResult",
    "OneVarDilation",
    "CommutantLift",
    "LambdaBlock",
    "one_var_dilation",
    "isometry_identity_check",
    "commutant_lift",
    "pure_dilation",
    "general_model",
    "model_colift",
    "transport_identities_check",
]

ISO_TOL = 1e-8
HORIZON_CAP = 512
# Commutation slack of the lifted tuples ``(A_i)`` and ``(X_i)``, which carry
# the rounding of a Douglas solve and commute only to that accuracy.
LIFT_COMMUTATION_TOL = 1e-8


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class LambdaBlock:
    """One direct summand of the general model.

    ``delta`` maps ``H`` into orthonormal coordinates of the block's
    coefficient space; ``v`` holds the block co-isometries for coordinates
    outside ``lam``.
    """

    lam: tuple[int, ...]
    delta: np.ndarray
    e_dim: int
    v: dict[int, np.ndarray]
    space: TruncatedSpace | None

    @property
    def mask(self) -> int:
        return sum(1 << i for i in self.lam)

    @property
    def block_dim(self) -> int:
        return self.e_dim if self.space is None else self.space.dim


@dataclass
class DilationResult:
    """The dilation map as an :class:`Operator`, the model operators as
    arrays, and the residual of every identity the construction promises."""

    map: Operator
    model_ops: list[np.ndarray]
    residuals: dict[str, float]
    block_layout: list[LambdaBlock] | None = None


@dataclass
class OneVarDilation(DilationResult):
    omega: WeightSpec | None = None
    n_terms: int = 0
    defect: np.ndarray | None = None          # PSD square root on H
    defect_basis: np.ndarray | None = None    # columns span ran(defect)
    defect_min: np.ndarray | None = None      # coordinates H -> defect space
    q: np.ndarray | None = None
    q_basis: np.ndarray | None = None
    q_min: np.ndarray | None = None
    u: np.ndarray | None = None               # co-isometry on the tail coordinates
    space: TruncatedSpace | None = None


@dataclass
class CommutantLift:
    base: OneVarDilation
    a_ops: list[np.ndarray]  # on the defect coordinates
    x_ops: list[np.ndarray]  # on the tail coordinates
    v_ops: list[np.ndarray]  # on the model space
    residuals: dict[str, float]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _pure_horizon(t: np.ndarray, omega: WeightSpec, tol: float, cap: int = HORIZON_CAP) -> int:
    """Truncation level after which the dilation rows carry no mass.

    Row norms scale like the square root of the dropped tail, so the tail
    sum is pushed below ``tol**2`` to keep amplitude-level residuals
    (intertwinings) within ``tol``.
    """
    nil = _nilpotency_order(t, min(cap, t.shape[0]))
    if nil is not None:
        return nil
    sigma = spectral_norm(t)
    if sigma < 1.0:
        target = tol * tol
        inv_w = omega.inverse_weight_values(cap)
        total = 0.0
        for k in range(cap - 1, 0, -1):
            total += inv_w[k] * sigma ** (2 * k)
            if total > target:
                return min(k + 1, cap)
        return 2
    return cap


def _douglas(g: np.ndarray, f: np.ndarray, tol: float, what: str) -> np.ndarray:
    try:
        return douglas_solve(g, f, tol)
    except NotSubordinate as exc:
        raise DouglasPreconditionFailed(f"{what}: {exc}") from exc


def _block_diag(mats: Sequence[np.ndarray]) -> np.ndarray:
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def _defect_sqrt_pieces(
    t, omega: WeightSpec, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Defect square root on ``H`` plus range basis and minimal coordinates.

    ``t`` is an :class:`Operator` or an array; an array is validated as the
    entry of the one-variable tuple the defect limit is taken on.
    """
    limit = defect_limit(OperatorTuple.of(t), MultiWeightSpec.of(omega), tol=tol).limit
    try:
        defect, basis = psd_root_pieces(limit, max(tol, POSITIVITY_TOL))
    except NotPsd as exc:
        raise NotHypercontractive(f"defect limit is not positive: {exc}") from exc
    return defect, basis, basis.conj().T @ defect


# ---------------------------------------------------------------------------
# one-variable dilation
# ---------------------------------------------------------------------------

def one_var_dilation(
    t,
    omega: WeightSpec,
    n_terms: int | None = None,
    tol: float = LIMIT_TOL,
    iso_tol: float = ISO_TOL,
    validate: bool = True,
) -> OneVarDilation:
    """Dilate a single hypercontraction onto ``A^2_w(defect) (+) tail``."""
    if validate:
        report = is_omega_hypercontraction(t, omega)
        if not report.verdict:
            raise NotHypercontractive("operator fails the weighted positivity test")
    defect, d_basis, d_min = _defect_sqrt_pieces(t, omega, tol)
    t = np.asarray(t, dtype=complex)
    t_adj = t.conj().T
    tail = tail_operator(t, tol)
    q, q_basis = psd_root_pieces(tail.q_squared, max(tol, POSITIVITY_TOL))
    q_min = q_basis.conj().T @ q
    if n_terms is None:
        n_terms = _pure_horizon(t, omega, tol)
    dim = t.shape[0]
    space = TruncatedSpace(MultiWeightSpec.of(omega), (n_terms,), coeff_dim=d_min.shape[0])
    inv_sqrt_w = 1.0 / np.sqrt(omega.values(n_terms))
    stars = _power_stack(t_adj, n_terms)
    rows = [inv_sqrt_w[k] * (d_min @ stars[k]) for k in range(n_terms)]
    pi = np.vstack(rows) if rows else np.zeros((0, dim), dtype=complex)
    u = _douglas(q_min, q_min @ t_adj, tol, "tail co-isometry")
    full_map = np.vstack([pi, q_min])
    model_op = _block_diag([shift_matrix(space, 0).mat, u])
    eye = np.eye(dim)
    gram = full_map.conj().T @ full_map
    iso_res = hermitian_norm(gram - eye)
    inter_res = spectral_norm(full_map @ t_adj - model_op.conj().T @ full_map)
    u_coiso = hermitian_norm(u @ u.conj().T - np.eye(q_min.shape[0]))
    omega_iso = float(np.max(np.abs(np.diag(gram - eye)))) if dim else 0.0
    if iso_res > iso_tol:
        raise IsometryResidualTooLarge(
            f"dilation map is not isometric (residual {iso_res:.3e}); "
            "raise the truncation level"
        )
    return OneVarDilation(
        map=Operator(full_map),
        model_ops=[model_op],
        residuals={
            "isometry": iso_res,
            "intertwining": inter_res,
            "tail_coisometry": u_coiso,
            "norm_identity": omega_iso,
        },
        block_layout=None,
        omega=omega,
        n_terms=n_terms,
        defect=defect,
        defect_basis=d_basis,
        defect_min=d_min,
        q=q,
        q_basis=q_basis,
        q_min=q_min,
        u=u,
        space=space,
    )


def isometry_identity_check(t, omega: WeightSpec, n_terms: int | None = None) -> float:
    """Residual of ``|h|^2 = sum_k |D T*^k h|^2 / w_k + |Q h|^2`` over a basis."""
    defect, _, _ = _defect_sqrt_pieces(t, omega, LIMIT_TOL)
    t = np.asarray(t, dtype=complex)
    tail = tail_operator(t)
    if n_terms is None:
        n_terms = _pure_horizon(t, omega, LIMIT_TOL)
    inv_w = omega.inverse_weight_values(n_terms)
    stars = _power_stack(t.conj().T, n_terms)
    worst = 0.0
    d2 = defect @ defect
    q2 = tail.q_squared
    dim = t.shape[0]
    for j in range(dim):
        h = np.zeros(dim, dtype=complex)
        h[j] = 1.0
        acc = 0.0
        for k in range(n_terms):
            v = stars[k] @ h
            acc += inv_w[k] * float(np.real(np.vdot(v, d2 @ v)))
        acc += float(np.real(np.vdot(h, q2 @ h)))
        worst = max(worst, abs(1.0 - acc))
    return worst


# ---------------------------------------------------------------------------
# commutant lift
# ---------------------------------------------------------------------------

def commutant_lift(
    t: OperatorTuple,
    w: MultiWeightSpec,
    tol: float = LIMIT_TOL,
    n_terms: int | None = None,
    validate: bool = True,
    classify_lifts: bool = True,
) -> CommutantLift:
    """Lift the remaining coordinates through the first variable's dilation.

    Produces commuting contractions ``A_i`` on the defect coordinates with
    ``A_i* D = D T_i*`` and ``X_i`` on the tail coordinates with
    ``X_i* Q = Q T_i*``, then ``V_i = (I (x) A_i) (+) X_i`` on the model with
    ``Pi T_i* = V_i* Pi``.
    """
    if w.n != t.n:
        raise DouglasPreconditionFailed(f"weight arity {w.n} != tuple arity {t.n}")
    if validate:
        if not is_W_hypercontraction(t, w, lattice_e_points=False).verdict:
            raise NotHypercontractive("tuple fails the weighted positivity tests")
    base = one_var_dilation(t[0], w[0], n_terms=n_terms, tol=tol, validate=False)
    d_min, q_min = base.defect_min, base.q_min
    a_ops, x_ops, v_ops = [], [], []
    residuals: dict[str, float] = dict(base.residuals)
    n_slots = base.n_terms
    pi, model_op = base.map.mat, base.model_ops[0]
    for i in range(1, t.n):
        t_adj = t[i].mat.conj().T
        a_i = _douglas(d_min, d_min @ t_adj, tol, f"defect intertwiner {i}")
        x_i = _douglas(q_min, q_min @ t_adj, tol, f"tail intertwiner {i}")
        v_i = _block_diag([np.kron(np.eye(n_slots), a_i), x_i])
        residuals[f"defect_intertwine_{i}"] = spectral_norm(
            a_i.conj().T @ d_min - d_min @ t_adj)
        residuals[f"tail_intertwine_{i}"] = spectral_norm(x_i.conj().T @ q_min - q_min @ t_adj)
        residuals[f"model_intertwine_{i}"] = spectral_norm(pi @ t_adj - v_i.conj().T @ pi)
        residuals[f"model_commute_{i}"] = spectral_norm(v_i @ model_op - model_op @ v_i)
        a_ops.append(a_i)
        x_ops.append(x_i)
        v_ops.append(v_i)
    if classify_lifts and t.n > 1:
        rest = w.subset(range(1, t.n))
        if a_ops and a_ops[0].shape[0] > 0:
            rep = is_W_hypercontraction(
                OperatorTuple(tuple(a_ops), commutation_tol=LIFT_COMMUTATION_TOL), rest,
                lattice_e_points=False,
            )
            residuals["a_tuple_hyper_min_eig"] = min(
                (c.min_eig for c in rep.certificates), default=0.0
            )
        if x_ops and x_ops[0].shape[0] > 0:
            rep = is_W_hypercontraction(
                OperatorTuple(tuple(x_ops), commutation_tol=LIFT_COMMUTATION_TOL), rest,
                lattice_e_points=False,
            )
            residuals["x_tuple_hyper_min_eig"] = min(
                (c.min_eig for c in rep.certificates), default=0.0
            )
    return CommutantLift(base, a_ops, x_ops, v_ops, residuals)


# ---------------------------------------------------------------------------
# pure multi-variable dilation
# ---------------------------------------------------------------------------

def pure_dilation(
    t: OperatorTuple,
    w: MultiWeightSpec,
    degrees: Sequence[int] | int | None = None,
    tol: float = LIMIT_TOL,
    iso_tol: float = ISO_TOL,
    validate: bool = True,
) -> DilationResult:
    """Dilate a pure tuple onto the truncated multi-shift, one variable at a time.

    The stages produce defect maps ``Dmin_j`` and lifted tuples; the rows of
    the final isometry at multi-index ``a`` are

        Dmin_n A_n*^{a_n} ... Dmin_2 A_2*^{a_2} Dmin_1 T_1*^{a_1} / sqrt(w_a).
    """
    if w.n != t.n:
        raise NotHypercontractive(f"weight arity {w.n} != tuple arity {t.n}")
    if validate:
        if not is_pure(t):
            raise NotPure("tuple has a non-vanishing tail; use the general model")
        if not is_W_hypercontraction(t, w, lattice_e_points=False).verdict:
            raise NotHypercontractive("tuple fails the weighted positivity tests")
    if degrees is None:
        degs = tuple(_pure_horizon(t[i].mat, w[i], tol) for i in range(t.n))
    else:
        degs = _normalize_degrees(degrees, t.n)
    # cascade of one-variable defects; the first stage reads the tuple's entries
    cur_ops = list(t.ops)
    stages: list[tuple[np.ndarray, np.ndarray]] = []  # (Dmin_j, stage operator)
    for j in range(t.n):
        _, _, d_min = _defect_sqrt_pieces(cur_ops[0], w[j], tol)
        stages.append((d_min, np.asarray(cur_ops[0])))
        cur_ops = [
            _douglas(d_min, d_min @ np.asarray(op).conj().T, tol, f"stage {j} lift")
            for op in cur_ops[1:]
        ]
    e_dim = stages[-1][0].shape[0]
    space = TruncatedSpace(w, degs, coeff_dim=e_dim)
    star_stacks = [_power_stack(stages[j][1].conj().T, degs[j]) for j in range(t.n)]
    rows = []
    for alpha in space.indices:
        mat = stages[0][0] @ star_stacks[0][alpha[0]]
        for j in range(1, t.n):
            mat = stages[j][0] @ star_stacks[j][alpha[j]] @ mat
        rows.append(mat / math.sqrt(space.monomial_weight(alpha)))
    p = np.vstack(rows) if rows else np.zeros((0, t.dim), dtype=complex)
    model_ops = [shift_matrix(space, i).mat for i in range(t.n)]
    eye = np.eye(t.dim)
    residuals = {"isometry": hermitian_norm(p.conj().T @ p - eye)}
    for i in range(t.n):
        m, ti = model_ops[i], t[i].mat
        residuals[f"intertwining_{i}"] = spectral_norm(p @ ti.conj().T - m.conj().T @ p)
        residuals[f"compression_{i}"] = spectral_norm(p.conj().T @ m @ p - ti)
    if residuals["isometry"] > iso_tol:
        raise IsometryResidualTooLarge(
            f"pure dilation not isometric (residual {residuals['isometry']:.3e})"
        )
    return DilationResult(map=Operator(p), model_ops=model_ops, residuals=residuals,
                          block_layout=None)


# ---------------------------------------------------------------------------
# the general 2^n-block model
# ---------------------------------------------------------------------------

def _recursive_blocks(
    ops: list,
    weights: list[WeightSpec],
    labels: list[int],
    dim: int,
    tol: float,
    diagnostics: dict[str, float],
) -> list[tuple[tuple[int, ...], np.ndarray, dict[int, np.ndarray]]]:
    """Blocks ``(lam, delta, v)`` over subsets of ``labels`` on a ``dim``-space.

    ``ops`` are :class:`Operator` entries at the top level and lifted arrays below.
    """
    if not ops:
        return [((), np.eye(dim, dtype=complex), {})]
    lab1 = labels[0]
    _, _, d_min = _defect_sqrt_pieces(ops[0], weights[0], tol)
    t1 = np.asarray(ops[0])
    tail = tail_operator(t1, tol)
    q_op, q_basis = psd_root_pieces(tail.q_squared, max(tol, POSITIVITY_TOL))
    q_min = q_basis.conj().T @ q_op
    u = _douglas(q_min, q_min @ t1.conj().T, tol, f"tail co-isometry at {lab1}")
    a_next, x_next = [], []
    for op, lab in zip(ops[1:], labels[1:]):
        op_adj = np.asarray(op).conj().T
        a_next.append(_douglas(d_min, d_min @ op_adj, tol, f"defect intertwiner {lab}"))
        x_next.append(_douglas(q_min, q_min @ op_adj, tol, f"tail intertwiner {lab}"))
    a_blocks = _recursive_blocks(a_next, weights[1:], labels[1:], d_min.shape[0], tol,
                                 diagnostics)
    x_blocks = _recursive_blocks(x_next, weights[1:], labels[1:], q_min.shape[0], tol,
                                 diagnostics)
    out = []
    for lam, delta, v in a_blocks:
        out.append(((lab1,) + lam, delta @ d_min, dict(v)))
    for lam, delta, v in x_blocks:
        gram = delta.conj().T @ delta
        moved = u @ gram @ u.conj().T
        cond = hermitian_norm(moved - gram)
        scale = max(1.0, hermitian_norm(gram))
        key = "lift_condition_" + "_".join(str(i) for i in (lab1,) + lam) if lam else f"lift_condition_{lab1}"
        diagnostics[key] = cond
        if cond > tol * 100 * scale:
            raise LiftConditionFailed((lab1,) + lam, cond)
        w_lift = _douglas(delta, delta @ u.conj().T, tol, f"co-isometry lift at {lab1}")
        v2 = dict(v)
        v2[lab1] = w_lift
        out.append((lam, delta @ q_min, v2))
    return out


def general_model(
    t: OperatorTuple,
    w: MultiWeightSpec,
    degrees: Sequence[int] | int | None = None,
    tol: float = LIMIT_TOL,
    iso_tol: float = ISO_TOL,
    validate: bool = True,
    max_model_dim: int = 8192,
) -> DilationResult:
    """Model of a (not necessarily pure) hypercontractive tuple.

    One block per coordinate subset: the block at ``lam`` is a truncated
    Bergman space over the ``lam``-variables with coefficient space the range
    of the block defect ``Delta_lam``; coordinates outside ``lam`` act as
    lifted co-isometries, coordinates inside as shifts.

    ``residuals["model_norm_i"]`` is the spectral norm of ``model_ops[i]``,
    taken from the block factors instead of an SVD of the assembled matrix:
    the norm of a block diagonal is the largest block norm; the lifted part
    ``I (x) V`` has the norm of ``V``; and the block shift in variable ``i``
    is ``S (x) I_e`` with ``S`` permutation-similar to ``I (x) S_1 (x) I`` on
    the full index box, so its norm is that of the one-variable shift ``S_1``
    on ``w[i]`` truncated at ``degs[i]``.
    """
    if w.n != t.n:
        raise NotHypercontractive(f"weight arity {w.n} != tuple arity {t.n}")
    if validate:
        if not is_W_hypercontraction(t, w, lattice_e_points=False).verdict:
            raise NotHypercontractive("tuple fails the weighted positivity tests")
    if degrees is None:
        degs = tuple(_pure_horizon(t[i].mat, w[i], tol) for i in range(t.n))
    else:
        degs = _normalize_degrees(degrees, t.n)
    diagnostics: dict[str, float] = {}
    raw = _recursive_blocks(
        list(t.ops), list(w.weights), list(range(t.n)), t.dim, tol, diagnostics
    )
    raw.sort(key=lambda item: sum(1 << i for i in item[0]))
    blocks: list[LambdaBlock] = []
    star_stacks = [_power_stack(t[i].mat.conj().T, degs[i]) for i in range(t.n)]
    pi_parts: list[np.ndarray] = []
    op_parts: list[list[np.ndarray]] = [[] for _ in range(t.n)]
    model_norms = [0.0] * t.n
    shift_norms: dict[int, float] = {}
    total_dim = 0
    for lam, delta, v in raw:
        e_dim = delta.shape[0]
        space = None
        if lam and e_dim > 0:
            space = TruncatedSpace(
                w.subset(lam), tuple(degs[i] for i in lam), coeff_dim=e_dim
            )
        block = LambdaBlock(lam=lam, delta=delta, e_dim=e_dim, v=v, space=space)
        blocks.append(block)
        total_dim += block.block_dim
        if total_dim > max_model_dim:
            raise BlockBudgetExceeded(
                f"model dimension exceeds the budget {max_model_dim}"
            )
        # rows of the block map
        if space is None:
            pi_parts.append(delta if e_dim else np.zeros((0, t.dim), dtype=complex))
        else:
            rows = []
            for alpha in space.indices:
                mat = delta
                for pos, i in enumerate(lam):
                    mat = mat @ star_stacks[i][alpha[pos]]
                rows.append(mat / math.sqrt(space.monomial_weight(alpha)))
            pi_parts.append(np.vstack(rows))
        # block operators
        for i in range(t.n):
            if i in lam:
                if space is None:
                    op_parts[i].append(np.zeros((0, 0), dtype=complex))
                    continue
                op_parts[i].append(shift_matrix(space, lam.index(i)).mat)
                if i not in shift_norms:
                    one_var = TruncatedSpace(w.subset((i,)), (degs[i],))
                    shift_norms[i] = spectral_norm(shift_matrix(one_var, 0).mat)
                model_norms[i] = max(model_norms[i], shift_norms[i])
            else:
                vmat = v[i]
                if space is None:
                    op_parts[i].append(vmat)
                else:
                    op_parts[i].append(np.kron(np.eye(len(space.indices)), vmat))
                model_norms[i] = max(model_norms[i], spectral_norm(vmat))
    p = np.vstack(pi_parts)
    model_ops = [_block_diag(parts) for parts in op_parts]
    eye = np.eye(t.dim)
    residuals = dict(diagnostics)
    residuals["isometry"] = hermitian_norm(p.conj().T @ p - eye)
    for i in range(t.n):
        m = model_ops[i]
        residuals[f"intertwining_{i}"] = spectral_norm(p @ t[i].mat.conj().T - m.conj().T @ p)
        residuals[f"model_norm_{i}"] = model_norms[i]
    for block in blocks:
        tag = "_".join(str(i) for i in block.lam) if block.lam else "empty"
        delta = block.delta
        brute = _double_limit(t, w, block.lam, degs, tol)
        residuals[f"delta_formula_{tag}"] = hermitian_norm(delta.conj().T @ delta - brute)
        worst_int = 0.0
        worst_co = 0.0
        for i in range(t.n):
            if i in block.lam:
                continue
            vi = block.v[i]
            worst_int = max(
                worst_int, spectral_norm(delta @ t[i].mat.conj().T - vi.conj().T @ delta)
            )
            if block.e_dim:
                worst_co = max(
                    worst_co, hermitian_norm(vi @ vi.conj().T - np.eye(block.e_dim))
                )
        residuals[f"delta_intertwine_{tag}"] = worst_int
        residuals[f"v_coisometry_{tag}"] = worst_co
    if residuals["isometry"] > iso_tol:
        raise IsometryResidualTooLarge(
            f"general model not isometric (residual {residuals['isometry']:.3e})"
        )
    return DilationResult(map=Operator(p), model_ops=model_ops, residuals=residuals,
                          block_layout=blocks)


def _double_limit(
    t: OperatorTuple,
    w: MultiWeightSpec,
    lam: tuple[int, ...],
    degs: tuple[int, ...],
    tol: float,
) -> np.ndarray:
    """Brute evaluation of the block defect: series limit inside ``lam``,
    power-conjugation limit outside."""
    if lam:
        cur = defect_limit(
            subtuple(t, lam), w.subset(lam), tol=tol,
            degrees=tuple(degs[i] for i in lam),
        ).limit
    else:
        cur = np.eye(t.dim, dtype=complex)
    for i in range(t.n):
        if i in lam:
            continue
        cur, _, _ = conjugation_limit(cur, t[i], tol)
    return cur


def model_colift(
    v,
    model: DilationResult,
    tol: float = LIMIT_TOL,
) -> tuple[np.ndarray, dict[str, float]]:
    """Lift a co-isometry commuting with the modeled tuple onto the model.

    Requires ``V Delta* Delta V* = Delta* Delta`` for every block; the lifted
    operator is blockwise ``I (x) W_lam`` with ``W_lam* Delta = Delta V*``.
    """
    if model.block_layout is None:
        raise ValueError("model colift needs a block layout from the general model")
    v = np.asarray(v, dtype=complex)
    v_adj = v.conj().T
    parts = []
    residuals: dict[str, float] = {}
    for block in model.block_layout:
        delta = block.delta
        gram = delta.conj().T @ delta
        moved = v @ gram @ v_adj
        cond = hermitian_norm(moved - gram)
        tag = "_".join(str(i) for i in block.lam) if block.lam else "empty"
        residuals[f"lift_condition_{tag}"] = cond
        if cond > tol * 100 * max(1.0, hermitian_norm(gram)):
            raise LiftConditionFailed(block.lam, cond)
        if block.e_dim == 0:
            w_lam = np.zeros((0, 0), dtype=complex)
        else:
            w_lam = _douglas(delta, delta @ v_adj, tol, f"colift {tag}")
        copies = 1 if block.space is None else len(block.space.indices)
        parts.append(np.kron(np.eye(copies), w_lam))
        residuals[f"colift_intertwine_{tag}"] = spectral_norm(
            w_lam.conj().T @ delta - delta @ v_adj
        )
    lifted = _block_diag(parts)
    pi = model.map.mat
    residuals["map_intertwine"] = spectral_norm(pi @ v_adj - lifted.conj().T @ pi)
    for i, r_i in enumerate(model.model_ops):
        residuals[f"commute_{i}"] = spectral_norm(lifted @ r_i - r_i @ lifted)
    return lifted, residuals


# ---------------------------------------------------------------------------
# structural identities of the lift
# ---------------------------------------------------------------------------

def transport_identities_check(
    t: OperatorTuple,
    w: MultiWeightSpec,
    lam: Sequence[int],
    tol: float = LIMIT_TOL,
) -> tuple[float, float]:
    """Residuals of the two defect-transport identities of the commutant lift.

    (i)  ``D (defect of the lifted tuple at the vertex) D`` equals the defect
         of the enlarged subtuple at the vertex.
    (ii) ``Q (defect of the tail-lifted tuple) Q`` equals the power-conjugated
         limit of the subtuple defect.
    """
    lam = tuple(sorted(set(int(i) for i in lam)))
    if any(i <= 0 or i >= t.n for i in lam):
        raise ValueError("subset must avoid the first coordinate")
    lift = commutant_lift(t, w, tol=tol, validate=False, classify_lifts=False)
    d_full = lift.base.defect
    d_basis = lift.base.defect_basis
    q_full = lift.base.q
    q_basis = lift.base.q_basis
    rest_w = w.subset(lam) if lam else None

    # (i): defect of the A-subtuple, lifted back to H coordinates
    if lam:
        a_sel = [lift.a_ops[i - 1] for i in lam]
        if a_sel and a_sel[0].shape[0] > 0:
            a_defect = defect_limit(
                OperatorTuple(tuple(a_sel), commutation_tol=LIFT_COMMUTATION_TOL), rest_w,
                tol=tol,
            ).limit
        else:
            a_defect = np.zeros((0, 0), dtype=complex)
        lifted = d_basis @ a_defect @ d_basis.conj().T
    else:
        lifted = np.eye(t.dim, dtype=complex)
    lhs_i = d_full @ lifted @ d_full
    enlarged = (0,) + lam
    rhs_i = defect_limit(subtuple(t, enlarged), w.subset(enlarged), tol=tol).limit
    res_i = hermitian_norm(lhs_i - rhs_i)

    # (ii): tail-side identity
    if lam:
        x_sel = [lift.x_ops[i - 1] for i in lam]
        if x_sel and x_sel[0].shape[0] > 0:
            x_defect = defect_limit(
                OperatorTuple(tuple(x_sel), commutation_tol=LIFT_COMMUTATION_TOL), rest_w,
                tol=tol,
            ).limit
        else:
            x_defect = np.zeros((0, 0), dtype=complex)
        lifted_x = q_basis @ x_defect @ q_basis.conj().T
        sub_defect = defect_limit(subtuple(t, lam), rest_w, tol=tol).limit
    else:
        lifted_x = np.eye(t.dim, dtype=complex)
        sub_defect = np.eye(t.dim, dtype=complex)
    lhs_ii = q_full @ lifted_x @ q_full
    rhs_ii, _, _ = conjugation_limit(sub_defect, t[0], tol)
    res_ii = hermitian_norm(lhs_ii - rhs_ii)
    return res_i, res_ii
