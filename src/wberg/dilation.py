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
    tail_operator,
)
from .linalg import (
    Operator,
    as_operator,
    douglas_solve,
    hermitian_norm,
    psd_root_pieces,
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
    delta: Operator
    e_dim: int
    v: dict[int, Operator]
    space: TruncatedSpace | None

    @property
    def mask(self) -> int:
        return sum(1 << i for i in self.lam)

    @property
    def block_dim(self) -> int:
        return self.e_dim if self.space is None else self.space.dim


@dataclass
class DilationResult:
    map: Operator
    model_ops: list[Operator]
    residuals: dict[str, float]
    block_layout: list[LambdaBlock] | None = None


@dataclass
class OneVarDilation(DilationResult):
    omega: WeightSpec | None = None
    n_terms: int = 0
    defect: Operator | None = None          # PSD square root on H
    defect_basis: Operator | None = None    # columns span ran(defect)
    defect_min: Operator | None = None      # coordinates H -> defect space
    q: Operator | None = None
    q_basis: Operator | None = None
    q_min: Operator | None = None
    u: Operator | None = None               # co-isometry on the tail coordinates
    space: TruncatedSpace | None = None


@dataclass
class CommutantLift:
    base: OneVarDilation
    a_ops: list[Operator]  # on the defect coordinates
    x_ops: list[Operator]  # on the tail coordinates
    v_ops: list[Operator]  # on the model space
    residuals: dict[str, float]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _pure_horizon(t: Operator, omega: WeightSpec, tol: float, cap: int = HORIZON_CAP) -> int:
    """Truncation level after which the dilation rows carry no mass.

    Row norms scale like the square root of the dropped tail, so the tail
    sum is pushed below ``tol**2`` to keep amplitude-level residuals
    (intertwinings) within ``tol``.
    """
    nil = _nilpotency_order(t, min(cap, t.rows))
    if nil is not None:
        return nil
    sigma = t.norm()
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


def _douglas(g: Operator, f: Operator, tol: float, what: str) -> Operator:
    try:
        return douglas_solve(g, f, tol)
    except NotSubordinate as exc:
        raise DouglasPreconditionFailed(f"{what}: {exc}") from exc


def _opnorm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2)) if mat.size else 0.0


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
    t: Operator, omega: WeightSpec, tol: float
) -> tuple[Operator, Operator, Operator]:
    """Defect square root on ``H`` plus range basis and minimal coordinates."""
    single = OperatorTuple.of(t)
    w = MultiWeightSpec.of(omega)
    limit = defect_limit(single, w, tol=tol).limit
    try:
        defect, basis = psd_root_pieces(limit, max(tol, 1e-8))
    except NotPsd as exc:
        raise NotHypercontractive(f"defect limit is not positive: {exc}") from exc
    dmin = basis.H @ defect
    return defect, basis, dmin


# ---------------------------------------------------------------------------
# one-variable dilation
# ---------------------------------------------------------------------------

def one_var_dilation(
    t: Operator,
    omega: WeightSpec,
    n_terms: int | None = None,
    tol: float = LIMIT_TOL,
    iso_tol: float = ISO_TOL,
    validate: bool = True,
) -> OneVarDilation:
    """Dilate a single hypercontraction onto ``A^2_w(defect) (+) tail``."""
    t = as_operator(t)
    if validate:
        report = is_omega_hypercontraction(t, omega)
        if not report.verdict:
            raise NotHypercontractive("operator fails the weighted positivity test")
    defect, d_basis, d_min = _defect_sqrt_pieces(t, omega, tol)
    tail = tail_operator(t, tol)
    q, q_basis = psd_root_pieces(tail.q_squared, max(tol, 1e-8))
    q_min = q_basis.H @ q
    if n_terms is None:
        n_terms = _pure_horizon(t, omega, tol)
    r = d_min.rows
    rq = q_min.rows
    space = TruncatedSpace(MultiWeightSpec.of(omega), (n_terms,), coeff_dim=r)
    inv_sqrt_w = 1.0 / np.sqrt(omega.values(n_terms))
    stars = _power_stack(t.mat.conj().T, n_terms)
    rows = [inv_sqrt_w[k] * (d_min.mat @ stars[k]) for k in range(n_terms)]
    pi = np.vstack(rows) if rows else np.zeros((0, t.rows), dtype=complex)
    u = _douglas(q_min, q_min @ t.H, tol, "tail co-isometry")
    full_map = Operator(np.vstack([pi, q_min.mat]))
    mz = shift_matrix(space, 0)
    model_op = Operator(_block_diag([mz.mat, u.mat]))
    eye = np.eye(t.rows)
    gram = full_map.H @ full_map
    iso_res = hermitian_norm(gram.mat - eye)
    inter_res = (full_map @ t.H - model_op.H @ full_map).norm()
    u_coiso = hermitian_norm((u @ u.H).mat - np.eye(rq))
    omega_iso = float(np.max(np.abs(np.diag(gram.mat - eye)))) if t.rows else 0.0
    if iso_res > iso_tol:
        raise IsometryResidualTooLarge(
            f"dilation map is not isometric (residual {iso_res:.3e}); "
            "raise the truncation level"
        )
    return OneVarDilation(
        map=full_map,
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


def isometry_identity_check(t: Operator, omega: WeightSpec, n_terms: int | None = None) -> float:
    """Residual of ``|h|^2 = sum_k |D T*^k h|^2 / w_k + |Q h|^2`` over a basis."""
    t = as_operator(t)
    defect, _, _ = _defect_sqrt_pieces(t, omega, LIMIT_TOL)
    tail = tail_operator(t)
    if n_terms is None:
        n_terms = _pure_horizon(t, omega, LIMIT_TOL)
    inv_w = omega.inverse_weight_values(n_terms)
    stars = _power_stack(t.mat.conj().T, n_terms)
    worst = 0.0
    d2 = (defect @ defect).mat
    q2 = tail.q_squared.mat
    for j in range(t.rows):
        h = np.zeros(t.rows, dtype=complex)
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
    for i in range(1, t.n):
        a_i = _douglas(d_min, d_min @ t[i].H, tol, f"defect intertwiner {i}")
        x_i = _douglas(q_min, q_min @ t[i].H, tol, f"tail intertwiner {i}")
        v_i = Operator(_block_diag([np.kron(np.eye(n_slots), a_i.mat), x_i.mat]))
        residuals[f"defect_intertwine_{i}"] = (a_i.H @ d_min - d_min @ t[i].H).norm()
        residuals[f"tail_intertwine_{i}"] = (x_i.H @ q_min - q_min @ t[i].H).norm()
        residuals[f"model_intertwine_{i}"] = (base.map @ t[i].H - v_i.H @ base.map).norm()
        residuals[f"model_commute_{i}"] = (
            v_i @ base.model_ops[0] - base.model_ops[0] @ v_i
        ).norm()
        a_ops.append(a_i)
        x_ops.append(x_i)
        v_ops.append(v_i)
    if classify_lifts and t.n > 1:
        rest = w.subset(range(1, t.n))
        if a_ops and a_ops[0].rows > 0:
            rep = is_W_hypercontraction(
                OperatorTuple(tuple(a_ops), commutation_tol=1e-8), rest,
                lattice_e_points=False,
            )
            residuals["a_tuple_hyper_min_eig"] = min(
                (c.min_eig for c in rep.certificates), default=0.0
            )
        if x_ops and x_ops[0].rows > 0:
            rep = is_W_hypercontraction(
                OperatorTuple(tuple(x_ops), commutation_tol=1e-8), rest,
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
        degs = tuple(_pure_horizon(t[i], w[i], tol) for i in range(t.n))
    else:
        degs = _normalize_degrees(degrees, t.n)
    # cascade of one-variable defects
    cur_ops = [op.mat for op in t.ops]
    stages: list[tuple[np.ndarray, np.ndarray]] = []  # (Dmin_j, stage operator)
    for j in range(t.n):
        op_j = Operator(cur_ops[0])
        _, _, d_min = _defect_sqrt_pieces(op_j, w[j], tol)
        stages.append((d_min.mat, op_j.mat))
        nxt = []
        for mat in cur_ops[1:]:
            a_i = _douglas(d_min, d_min @ Operator(mat).H, tol, f"stage {j} lift")
            nxt.append(a_i.mat)
        cur_ops = nxt
    e_dim = stages[-1][0].shape[0]
    space = TruncatedSpace(w, degs, coeff_dim=e_dim)
    star_stacks = [_power_stack(stages[j][1].conj().T, degs[j]) for j in range(t.n)]
    rows = []
    for alpha in space.indices:
        mat = stages[0][0] @ star_stacks[0][alpha[0]]
        for j in range(1, t.n):
            mat = stages[j][0] @ star_stacks[j][alpha[j]] @ mat
        rows.append(mat / math.sqrt(space.monomial_weight(alpha)))
    pi = Operator(np.vstack(rows)) if rows else Operator(np.zeros((0, t.dim)))
    model_ops = [shift_matrix(space, i) for i in range(t.n)]
    eye = np.eye(t.dim)
    residuals = {"isometry": hermitian_norm((pi.H @ pi).mat - eye)}
    p = pi.mat
    for i in range(t.n):
        m, ti = model_ops[i].mat, t[i].mat
        residuals[f"intertwining_{i}"] = _opnorm(p @ ti.conj().T - m.conj().T @ p)
        residuals[f"compression_{i}"] = _opnorm(p.conj().T @ m @ p - ti)
    if residuals["isometry"] > iso_tol:
        raise IsometryResidualTooLarge(
            f"pure dilation not isometric (residual {residuals['isometry']:.3e})"
        )
    return DilationResult(map=pi, model_ops=model_ops, residuals=residuals,
                          block_layout=None)


# ---------------------------------------------------------------------------
# the general 2^n-block model
# ---------------------------------------------------------------------------

def _recursive_blocks(
    ops: list[np.ndarray],
    weights: list[WeightSpec],
    labels: list[int],
    dim: int,
    tol: float,
    diagnostics: dict[str, float],
) -> list[tuple[tuple[int, ...], np.ndarray, dict[int, np.ndarray]]]:
    """Blocks ``(lam, delta, v)`` over subsets of ``labels`` on a ``dim``-space."""
    if not ops:
        return [((), np.eye(dim, dtype=complex), {})]
    lab1 = labels[0]
    t1 = Operator(ops[0])
    defect, d_basis, d_min = _defect_sqrt_pieces(t1, weights[0], tol)
    tail = tail_operator(t1, tol)
    q_op, q_basis = psd_root_pieces(tail.q_squared, max(tol, 1e-8))
    q_min = (q_basis.H @ q_op).mat
    u = _douglas(Operator(q_min), Operator(q_min @ t1.mat.conj().T), tol,
                 f"tail co-isometry at {lab1}").mat
    a_next, x_next = [], []
    for mat, lab in zip(ops[1:], labels[1:]):
        a_next.append(
            _douglas(d_min, Operator(d_min.mat @ mat.conj().T), tol,
                     f"defect intertwiner {lab}").mat
        )
        x_next.append(
            _douglas(Operator(q_min), Operator(q_min @ mat.conj().T), tol,
                     f"tail intertwiner {lab}").mat
        )
    a_blocks = _recursive_blocks(a_next, weights[1:], labels[1:], d_min.rows, tol, diagnostics)
    x_blocks = _recursive_blocks(x_next, weights[1:], labels[1:], q_min.shape[0], tol, diagnostics)
    out = []
    for lam, delta, v in a_blocks:
        out.append(((lab1,) + lam, delta @ d_min.mat, dict(v)))
    for lam, delta, v in x_blocks:
        gram = delta.conj().T @ delta
        moved = u @ gram @ u.conj().T
        cond = hermitian_norm(moved - gram)
        scale = max(1.0, hermitian_norm(gram))
        key = "lift_condition_" + "_".join(str(i) for i in (lab1,) + lam) if lam else f"lift_condition_{lab1}"
        diagnostics[key] = cond
        if cond > tol * 100 * scale:
            raise LiftConditionFailed((lab1,) + lam, cond)
        w_lift = _douglas(Operator(delta), Operator(delta @ u.conj().T), tol,
                          f"co-isometry lift at {lab1}").mat
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
        degs = tuple(_pure_horizon(t[i], w[i], tol) for i in range(t.n))
    else:
        degs = _normalize_degrees(degrees, t.n)
    diagnostics: dict[str, float] = {}
    raw = _recursive_blocks(
        [op.mat for op in t.ops], list(w.weights), list(range(t.n)), t.dim, tol, diagnostics
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
        block = LambdaBlock(
            lam=lam,
            delta=Operator(delta),
            e_dim=e_dim,
            v={i: Operator(m) for i, m in v.items()},
            space=space,
        )
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
                mat = delta.copy()
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
                    shift_norms[i] = _opnorm(shift_matrix(one_var, 0).mat)
                model_norms[i] = max(model_norms[i], shift_norms[i])
            else:
                vmat = v[i]
                if space is None:
                    op_parts[i].append(vmat)
                else:
                    op_parts[i].append(np.kron(np.eye(len(space.indices)), vmat))
                model_norms[i] = max(model_norms[i], _opnorm(vmat))
    pi = Operator(np.vstack(pi_parts))
    model_ops = [Operator(_block_diag(parts)) for parts in op_parts]
    eye = np.eye(t.dim)
    residuals = dict(diagnostics)
    residuals["isometry"] = hermitian_norm((pi.H @ pi).mat - eye)
    p = pi.mat
    for i in range(t.n):
        m = model_ops[i].mat
        residuals[f"intertwining_{i}"] = _opnorm(p @ t[i].mat.conj().T - m.conj().T @ p)
        residuals[f"model_norm_{i}"] = model_norms[i]
    for block in blocks:
        tag = "_".join(str(i) for i in block.lam) if block.lam else "empty"
        gram = (block.delta.H @ block.delta).mat
        brute = _double_limit(t, w, block.lam, degs, tol)
        residuals[f"delta_formula_{tag}"] = hermitian_norm(gram - brute)
        worst_int = 0.0
        worst_co = 0.0
        for i in range(t.n):
            if i in block.lam:
                continue
            vi = block.v[i]
            worst_int = max(
                worst_int, (block.delta @ t[i].H - vi.H @ block.delta).norm()
            )
            if block.e_dim:
                worst_co = max(
                    worst_co,
                    hermitian_norm((vi @ vi.H).mat - np.eye(block.e_dim)),
                )
        residuals[f"delta_intertwine_{tag}"] = worst_int
        residuals[f"v_coisometry_{tag}"] = worst_co
    if residuals["isometry"] > iso_tol:
        raise IsometryResidualTooLarge(
            f"general model not isometric (residual {residuals['isometry']:.3e})"
        )
    return DilationResult(map=pi, model_ops=model_ops, residuals=residuals,
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
        from .hyper import subtuple as _sub

        inner = defect_limit(
            _sub(t, lam), w.subset(lam), tol=tol,
            degrees=tuple(degs[i] for i in lam),
        ).limit
        s = inner.mat
    else:
        s = np.eye(t.dim, dtype=complex)
    cur = Operator(s)
    for i in range(t.n):
        if i in lam:
            continue
        cur, _, _ = conjugation_limit(cur, t[i], tol)
    return cur.mat


def model_colift(
    v: Operator,
    model: DilationResult,
    tol: float = LIMIT_TOL,
) -> tuple[Operator, dict[str, float]]:
    """Lift a co-isometry commuting with the modeled tuple onto the model.

    Requires ``V Delta* Delta V* = Delta* Delta`` for every block; the lifted
    operator is blockwise ``I (x) W_lam`` with ``W_lam* Delta = Delta V*``.
    """
    if model.block_layout is None:
        raise ValueError("model colift needs a block layout from the general model")
    v = as_operator(v)
    parts = []
    residuals: dict[str, float] = {}
    for block in model.block_layout:
        delta = block.delta.mat
        gram = delta.conj().T @ delta
        moved = v.mat @ gram @ v.mat.conj().T
        cond = hermitian_norm(moved - gram)
        tag = "_".join(str(i) for i in block.lam) if block.lam else "empty"
        residuals[f"lift_condition_{tag}"] = cond
        if cond > tol * 100 * max(1.0, hermitian_norm(gram)):
            raise LiftConditionFailed(block.lam, cond)
        if block.e_dim == 0:
            w_lam = np.zeros((0, 0), dtype=complex)
        else:
            w_lam = _douglas(
                block.delta, Operator(delta @ v.mat.conj().T), tol, f"colift {tag}"
            ).mat
        copies = 1 if block.space is None else len(block.space.indices)
        parts.append(np.kron(np.eye(copies), w_lam))
        residuals[f"colift_intertwine_{tag}"] = Operator(
            w_lam.conj().T @ delta - delta @ v.mat.conj().T
        ).norm()
    lifted = Operator(_block_diag(parts))
    residuals["map_intertwine"] = (model.map @ v.H - lifted.H @ model.map).norm()
    for i, r_i in enumerate(model.model_ops):
        residuals[f"commute_{i}"] = (lifted @ r_i - r_i @ lifted).norm()
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
    from .hyper import subtuple as _sub

    # (i): defect of the A-subtuple, lifted back to H coordinates
    if lam:
        a_sel = [lift.a_ops[i - 1] for i in lam]
        if a_sel and a_sel[0].rows > 0:
            a_defect = defect_limit(
                OperatorTuple(tuple(a_sel), commutation_tol=1e-8), rest_w, tol=tol
            ).limit.mat
        else:
            a_defect = np.zeros((0, 0), dtype=complex)
        lifted = d_basis.mat @ a_defect @ d_basis.mat.conj().T
    else:
        lifted = np.eye(t.dim, dtype=complex)
    lhs_i = d_full.mat @ lifted @ d_full.mat
    enlarged = (0,) + lam
    rhs_i = defect_limit(_sub(t, enlarged), w.subset(enlarged), tol=tol).limit.mat
    res_i = hermitian_norm(lhs_i - rhs_i)

    # (ii): tail-side identity
    if lam:
        x_sel = [lift.x_ops[i - 1] for i in lam]
        if x_sel and x_sel[0].rows > 0:
            x_defect = defect_limit(
                OperatorTuple(tuple(x_sel), commutation_tol=1e-8), rest_w, tol=tol
            ).limit.mat
        else:
            x_defect = np.zeros((0, 0), dtype=complex)
        lifted_x = q_basis.mat @ x_defect @ q_basis.mat.conj().T
        sub_defect = defect_limit(_sub(t, lam), rest_w, tol=tol).limit
    else:
        lifted_x = np.eye(t.dim, dtype=complex)
        sub_defect = Operator.identity(t.dim)
    lhs_ii = q_full.mat @ lifted_x @ q_full.mat
    rhs_ii, _, _ = conjugation_limit(sub_defect, t[0], tol)
    res_ii = hermitian_norm(lhs_ii - rhs_ii.mat)
    return res_i, res_ii
