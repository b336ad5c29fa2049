"""Dilations of hypercontractive tuples onto truncated weighted Bergman models.

The general model keeps, for every subset ``L`` of coordinates whose
coefficient space ``E_L`` is nonzero, a block ``A^2_{W_L}(E_L)`` whose defect
map ``Delta_L`` solves a double limit (series limit inside ``L``, power
conjugation outside); a summand with ``E_L = 0`` is not formed.  For one
variable its two blocks are the tail space and ``A^2_w(defect space)``, and
the map is Olofsson's

    h  |->  ( Q h ,  sum_k (D T*^k h / w_k) z^k ),

intertwining ``T*`` with the adjoint of ``U (+) shift`` where ``U`` is the
co-isometry with ``U* Q = Q T*``.  The other coordinates are lifted through
the defect and tail coordinates of that one-variable model (the commutant
lift), one Douglas solve per coordinate, and each tail co-isometry is
co-lifted onto every block it meets.  The blocks come from iterating that
split variable by variable, and every block's rows are the stage cascade
``Dmin_n S_n*^{a_n} ... Dmin_1 T_1*^{a_1} / sqrt(w_a)`` of the lifted stage
operators, the tail maps ``Qmin`` folded in.  A pure tuple has only the
full block, and its model is the multi-shift dilation (:func:`pure_dilation`).

Each operator a one-variable step reads is an :class:`~wberg.hyper.OperatorTuple`:
the first variable is the caller's sub-tuple, whose defect, nilpotency order
and tail limit the classification and the purity test already formed, and a
lifted stage operator is wrapped once.  The rows ``Dmin S*^k`` and ``Delta
S*^k`` are the stage tuple's row chains (``OperatorTuple.row_chain``), one
right multiplication by ``S*`` per power, so no stack of ``S*^k`` is
formed.  ``_tail_split`` (tail coordinates and co-isometry ``U* Q = Q
T*``, from the tuple's tail limit), ``_lifts`` (``A* G = G T*``) and
``_colift`` (the lift condition and the co-lift ``W* Delta = Delta V*`` of
a co-isometry) are the one route for the rest of the split.  Limits,
Douglas solves and lift conditions are all taken at ``LIMIT_TOL``.

All model operators live in the orthonormalized graded-lex bases from
:mod:`wberg.bergman`, and none is formed as a matrix: each is an action on
row-stacked maps, a block diagonal (:class:`BlockDiagonal`) of weighted shifts
(:class:`wberg.hyper.ShiftAction`, an index map), lifted parts ``I (x) V``
(:class:`LiftedAction`, one batched product over the copies) and small dense
tail blocks.  Every identity the construction promises is re-verified
numerically from these actions; the residuals travel with the result.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bergman import TruncatedSpace
from .errors import (
    BlockBudgetExceeded,
    DouglasPreconditionFailed,
    HorizonTooShort,
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
    ShiftAction,
    defect_limit,
    is_pure,
    is_W_hypercontraction,
    joint_tail,
    subtuple,
)
from .linalg import (
    Operator,
    _as_matrix,
    douglas_solve,
    hermitian_norm,
    psd_root_pieces,
    spectral_norm,
)
from .series import MultiWeightSpec, WeightSpec

__all__ = [
    "LiftedAction",
    "BlockDiagonal",
    "DilationResult",
    "LambdaBlock",
    "pure_dilation",
    "general_model",
]

ISO_TOL = 1e-8
HORIZON_CAP = 512


# ---------------------------------------------------------------------------
# model operators as actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LiftedAction:
    """``I (x) V`` on ``copies`` stacked copies of the space of the square
    block ``v``; a small dense block is the case ``copies == 1``."""

    v: np.ndarray
    copies: int = 1

    @property
    def dim(self) -> int:
        return self.copies * self.v.shape[0]

    def _batched(self, mat: np.ndarray, x: np.ndarray) -> np.ndarray:
        blocks = x.reshape(self.copies, mat.shape[1], x.shape[1])
        return (mat @ blocks).reshape(self.dim, x.shape[1])

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._batched(self.v, x)

    def adjoint_apply(self, x: np.ndarray) -> np.ndarray:
        return self._batched(self.v.conj().T, x)

    def norm(self) -> float:
        """``||I (x) V|| = ||V||``."""
        return spectral_norm(self.v)

    def to_matrix(self) -> np.ndarray:
        """Dense copy, the reference the actions are tested against."""
        e = self.v.shape[0]
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k in range(self.copies):
            out[k * e:(k + 1) * e, k * e:(k + 1) * e] = self.v
        return out


ModelAction = ShiftAction | LiftedAction


@dataclass(frozen=True, eq=False)
class BlockDiagonal:
    """Direct sum of actions on consecutive row ranges of a row-stacked map."""

    blocks: tuple[ModelAction, ...]

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def _spans(self) -> Iterator[tuple[ModelAction, slice]]:
        lo = 0
        for block in self.blocks:
            yield block, slice(lo, lo + block.dim)
            lo += block.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape, dtype=np.result_type(x.dtype, complex))
        for block, rows in self._spans():
            out[rows] = block.apply(x[rows])
        return out

    def adjoint_apply(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(x.shape, dtype=np.result_type(x.dtype, complex))
        for block, rows in self._spans():
            out[rows] = block.adjoint_apply(x[rows])
        return out

    def norm(self) -> float:
        """The largest block norm, which is the norm of a block diagonal."""
        return max((b.norm() for b in self.blocks), default=0.0)

    def to_matrix(self) -> np.ndarray:
        """Dense copy, the reference the actions are tested against."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for block, rows in self._spans():
            out[rows, rows] = block.to_matrix()
        return out


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class LambdaBlock:
    """One nonzero direct summand of the general model.

    ``delta`` maps ``H`` into orthonormal coordinates of the block's
    coefficient space, of dimension ``e_dim >= 1``; ``v`` holds the block
    co-isometries for coordinates outside ``lam``; ``space`` is the truncated
    Bergman space over the ``lam``-variables, ``None`` for the tail block
    ``lam = ()``.
    """

    lam: tuple[int, ...]
    delta: np.ndarray
    e_dim: int
    v: dict[int, np.ndarray]
    space: TruncatedSpace | None

    @property
    def block_dim(self) -> int:
        return self.e_dim if self.space is None else self.space.dim

    @property
    def copies(self) -> int:
        """Copies of the coefficient space a lifted operator ``I (x) V`` acts on."""
        return 1 if self.space is None else len(self.space.indices)

    @property
    def tag(self) -> str:
        return _tag(self.lam)


def _tag(lam: tuple[int, ...]) -> str:
    """The residual-key name of the coordinate subset ``lam``."""
    return "_".join(str(i) for i in lam) if lam else "empty"


@dataclass
class DilationResult:
    """The dilation map as an :class:`Operator`, the model operators as
    block-diagonal actions (``to_matrix()`` gives the dense reference), the
    residual of every identity the construction promises, and the blocks,
    one per coordinate subset with a nonzero coefficient space, in mask
    order (a pure tuple's only block is the full one)."""

    map: Operator
    model_ops: list[BlockDiagonal]
    residuals: dict[str, float]
    block_layout: list[LambdaBlock]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _pure_horizon(t: OperatorTuple, i: int, omega: WeightSpec) -> int:
    """Truncation level of variable ``i`` after which the dilation rows carry no mass.

    A nilpotent entry stops at its order, read from the tuple's scan.  Row
    norms scale like the square root of the dropped tail, so otherwise the
    tail sum is pushed below ``LIMIT_TOL**2`` to keep amplitude-level
    residuals (intertwinings) within ``LIMIT_TOL``.  An explicit weight
    list caps the sum at its length, as it caps the classification's
    sums; a list that ends before the tail test is met raises
    :class:`HorizonTooShort`.
    """
    cap = min(HORIZON_CAP, omega.max_terms or HORIZON_CAP)
    nil = t.nilpotency_order(i, min(cap, t.dim))
    if nil is not None:
        return nil
    horizon = cap
    sigma = spectral_norm(t[i].mat)
    if sigma < 1.0:
        target = LIMIT_TOL * LIMIT_TOL
        inv_w = omega.inverse_weight_values(cap)
        total = 0.0
        for k in range(cap - 1, 0, -1):
            total += inv_w[k] * sigma ** (2 * k)
            if total > target:
                horizon = k + 1
                break
        else:
            return 2
    if horizon == omega.max_terms:
        raise HorizonTooShort(
            f"explicit weight list has {omega.max_terms} entries; the dilation "
            "rows still carry mass at its end"
        )
    return horizon


def _douglas(g: np.ndarray, f: np.ndarray, what: str) -> np.ndarray:
    try:
        return douglas_solve(g, f, LIMIT_TOL)
    except NotSubordinate as exc:
        raise DouglasPreconditionFailed(f"{what}: {exc}") from exc


def _lifts(g: np.ndarray, ops, labels, what: str) -> list[np.ndarray]:
    """The contractions ``A`` with ``A* G = G T*``, one per operator ``T`` of ``ops``."""
    return [_douglas(g, g @ np.asarray(op).conj().T, f"{what} {lab}")
            for op, lab in zip(ops, labels)]


def _one_tuple(t) -> OperatorTuple:
    """A one-entry :class:`OperatorTuple` as it is, so that it lends its
    stacks and tail limit, or a matrix wrapped as one."""
    return t if isinstance(t, OperatorTuple) else OperatorTuple.of(t)


def _tail_split(t: OperatorTuple, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Minimal coordinates ``Qmin`` of the root of the one-tuple's tail
    ``lim T^k T*^k``, and the co-isometry ``U`` on those coordinates with
    ``U* Qmin = Qmin T*``; an unconverged tail warns ``TailUnconverged``.
    An exactly zero tail (a nilpotent entry) has no range: its pieces are
    the empty ``(0, d)`` and ``(0, 0)`` maps, with no positivity test."""
    tail = joint_tail(t, (0,))
    if not tail.any():
        return np.zeros((0, t.dim), dtype=complex), np.zeros((0, 0), dtype=complex)
    q, q_basis = psd_root_pieces(tail)
    q_min = q_basis.conj().T @ q
    return q_min, _douglas(q_min, q_min @ t[0].mat.conj().T, what)


@contextmanager
def _map_memory(rows: int, cols: int) -> Iterator[None]:
    """Turn a failed allocation while a dilation map and its residuals are
    built into :class:`BlockBudgetExceeded` naming the map's shape and size."""
    try:
        yield
    except MemoryError as exc:
        gib = rows * cols * np.dtype(complex).itemsize / 2**30
        raise BlockBudgetExceeded(
            f"the dilation map of shape ({rows}, {cols}) takes {gib:.2f} GiB and does "
            "not fit in memory next to a residual of its size"
        ) from exc


def _fill_map_rows(
    out: np.ndarray, space: TruncatedSpace, stacks: Sequence[np.ndarray]
) -> None:
    """Write the rows of a dilation map on ``space`` into ``out`` in place.

    The row block of the multi-index ``a`` is the chain ``... stacks[1][a_1]
    stacks[0][a_0]`` (each later factor multiplied on the left) divided by
    ``sqrt(w_a)``.  The chains over all variables but the last are batched
    products over the index box; the last variable's factors are applied one
    slice at a time and written straight to their rows, so no second
    map-sized array is formed.
    """
    rows = out.reshape(len(space.indices), space.coeff_dim, out.shape[1])
    scale = np.sqrt(space.index_weights)
    *head, last = stacks
    prefix = head[0] if head else None
    for stack in head[1:]:
        pairs = stack[None] @ prefix[:, None]
        prefix = pairs.reshape(-1, *pairs.shape[2:])
    for k in range(len(last)):
        block = last[k][None] if prefix is None else last[k] @ prefix
        at = space.position_box[..., k].ravel()
        rows[at] = block / scale[at][:, None, None]


def _vertex_defect(t: OperatorTuple, w: MultiWeightSpec) -> np.ndarray:
    """The defect limit of ``t`` at ``w``, a real ``d``-vector (its diagonal)
    on a tuple of weighted shifts; an unconverged limit warns its accuracy
    floor."""
    res = defect_limit(t, w)
    res.warn_unconverged(LIMIT_TOL)
    return res.value


def _defect_sqrt_pieces(t: OperatorTuple, omega: WeightSpec) -> tuple[np.ndarray, np.ndarray]:
    """Range basis and minimal coordinates of the defect square root of the
    one-tuple ``t``, whose stacks the defect limit sums over; an unconverged
    limit warns its accuracy floor.  A diagonal root, held as a vector,
    scales the columns of ``basis*``."""
    try:
        defect, basis = psd_root_pieces(_vertex_defect(t, MultiWeightSpec.of(omega)))
    except NotPsd as exc:
        raise NotHypercontractive(f"defect limit is not positive: {exc}") from exc
    if defect.ndim == 1:
        return basis, basis.conj().T * defect
    return basis, basis.conj().T @ defect


# ---------------------------------------------------------------------------
# the block model
# ---------------------------------------------------------------------------

def pure_dilation(t: OperatorTuple, w: MultiWeightSpec) -> DilationResult:
    """Dilate a pure tuple onto the truncated multi-shift: its general
    model, in which only the full block exists, acted on by shifts.

    Purity is the tuple's :func:`~wberg.hyper.is_pure`, on the tails the
    tuple holds: exactly zero for a nilpotent entry, whichever step asked
    first (see ``OperatorTuple.tail_limit``).
    """
    if w.n != t.n:
        raise NotHypercontractive(f"weight arity {w.n} != tuple arity {t.n}")
    if not is_pure(t):
        raise NotPure("tuple has a non-vanishing tail; use the general model")
    return general_model(t, w)


def _recursive_blocks(
    ops: list, weights: list[WeightSpec], labels: list[int], degs: list[int], dim: int
) -> list[tuple]:
    """Blocks ``(lam, delta, v, cond, stacks)`` over subsets of ``labels`` on a ``dim``-space.

    ``ops[0]`` is the first stage operator ``S``, wrapped here as the
    one-tuple the stage reads its defect, powers, horizon and tail from (at
    the top level it is already one); the others are :class:`Operator`
    entries at the top level and lifted arrays below.
    The defect branch lifts the rest through ``Dmin``, the tail branch
    through ``Qmin``, and co-lifts the tail co-isometry ``U`` onto each of
    its blocks (``v[lab]``, with ``cond[lab]`` the residual of the lift
    condition).  ``stacks`` holds the block's row chains, one per coordinate
    of ``lam``: ``Dmin S*^k``, ``k < degs``, for each coordinate but the
    last, and ``Delta S*^k`` of the block defect ``Delta`` for the last,
    each by :meth:`~wberg.hyper.OperatorTuple.row_chain`; each ``Qmin`` is
    folded into the chain of the next coordinate of ``lam`` (on its right),
    or after the last one into the last chain (on its left).

    A zero-dimensional stage has no blocks, so nothing below it is formed
    (no defect limit, tail split, lift or co-lift), and every block returned
    has a coefficient space of dimension at least one.
    """
    if dim == 0:
        return []
    if not ops:
        return [((), np.eye(dim, dtype=complex), {}, {}, [])]
    lab, rest = labels[0], labels[1:]
    ops = [_one_tuple(ops[0])] + ops[1:]
    _, d_min = _defect_sqrt_pieces(ops[0], weights[0])
    q_min, u = _tail_split(ops[0], f"tail co-isometry at {lab}")
    a_next = _lifts(d_min, ops[1:], rest, "defect intertwiner")
    x_next = _lifts(q_min, ops[1:], rest, "tail intertwiner")
    head = ops[0].row_chain(0, d_min, degs[0]) if rest else None
    out = []
    for lam, delta, v, cond, stacks in _recursive_blocks(
            a_next, weights[1:], rest, degs[1:], d_min.shape[0]):
        delta = delta @ d_min
        stacks = [head] + stacks if stacks else [ops[0].row_chain(0, delta, degs[0])]
        out.append(((lab,) + lam, delta, v, cond, stacks))
    for lam, delta, v, cond, stacks in _recursive_blocks(
            x_next, weights[1:], rest, degs[1:], q_min.shape[0]):
        w_lift, cond_lab = _colift(delta, u, (lab,) + lam, f"co-isometry lift at {lab}")
        if stacks:
            stacks = [stacks[0] @ q_min] + stacks[1:]
        out.append((lam, delta @ q_min, {**v, lab: w_lift}, {**cond, lab: cond_lab}, stacks))
    return out


def _colift(
    delta: np.ndarray, v: np.ndarray, lam: tuple[int, ...], what: str
) -> tuple[np.ndarray, float]:
    """The co-lift ``W`` with ``W* Delta = Delta V*`` of a co-isometry ``V``
    through a block defect map ``Delta``, and the residual of the lift
    condition ``V Delta* Delta V* = Delta* Delta``; a residual above
    ``100 LIMIT_TOL max(1, ||Delta* Delta||)`` raises
    :class:`LiftConditionFailed` for the block ``lam``."""
    gram = delta.conj().T @ delta
    cond = hermitian_norm(v @ gram @ v.conj().T - gram)
    if cond > LIMIT_TOL * 100 * max(1.0, hermitian_norm(gram)):
        raise LiftConditionFailed(lam, cond)
    return _douglas(delta, delta @ v.conj().T, what), cond


def general_model(t: OperatorTuple, w: MultiWeightSpec) -> DilationResult:
    """Model of a (not necessarily pure) hypercontractive tuple.

    One block per coordinate subset whose block defect ``Delta_lam`` is
    nonzero: the block at ``lam`` is a truncated Bergman space over the
    ``lam``-variables, each truncated at its purity horizon, with
    coefficient space the range of ``Delta_lam``; coordinates outside
    ``lam`` act as lifted co-isometries, coordinates inside as shifts.
    ``delta_formula_<lam>`` compares ``Delta_lam* Delta_lam`` with the brute
    double limit (:func:`_double_limit`) for each of the ``2^n`` subsets, a
    subset without a block with the zero matrix; ``v_coisometry_<lam>`` is
    the worst ``||V_i V_i* - I||`` of a block with a coordinate outside
    ``lam``, and ``lift_condition_<lam>_at_<i>`` the lift condition of each
    co-lift onto a block.

    The residuals are ``isometry = ||Pi* Pi - I||`` and ``intertwining_i =
    ||R_i||``, ``R_i = Pi T_i* - M_i* Pi``.  They bound how far ``Pi* M_i
    Pi`` is from ``T_i``: ``R_i* = T_i Pi* - Pi* M_i``, so ``Pi* M_i Pi - T_i
    = T_i (Pi* Pi - I) - R_i* Pi``, and ``||Pi||^2 = ||Pi* Pi|| <= 1 +
    isometry`` gives

        ||Pi* M_i Pi - T_i|| <= ||T_i|| isometry + sqrt(1 + isometry) intertwining_i,

    so ``Pi* M_i Pi`` is not formed.

    Nor is the block intertwining ``Delta_lam T_i* = V_i* Delta_lam``, ``i``
    outside ``lam``, reported: the row block of the constant monomial of
    block ``lam`` in ``Pi`` is ``Delta_lam`` (its chain at ``a = 0`` over
    ``w_0 = 1``), and on it ``M_i*`` acts as ``V_i*`` (``I (x) V_i*`` acts
    copy by copy), so ``Delta_lam T_i* - V_i* Delta_lam`` is a row block of
    ``R_i`` and

        ||Delta_lam T_i* - V_i* Delta_lam|| <= intertwining_i.

    ``residuals["model_norm_i"]`` is the spectral norm of ``model_ops[i]``,
    taken from its blocks without an SVD of a shift: the norm of a block
    diagonal is the largest block norm; the lifted part ``I (x) V`` has the
    norm of ``V``; and a block shift has the norm of its largest weight ratio
    (:meth:`ShiftAction.norm`: ``S* S`` is diagonal), the same ratios
    ``sqrt(w_{k+1} / w_k)``, ``k < degs[i] - 1``, in every block.
    """
    if w.n != t.n:
        raise NotHypercontractive(f"weight arity {w.n} != tuple arity {t.n}")
    if not is_W_hypercontraction(t, w, lattice_e_points=False).verdict:
        raise NotHypercontractive("tuple fails the weighted positivity tests")
    degs = [_pure_horizon(t, i, w[i]) for i in range(t.n)]
    raw = _recursive_blocks([subtuple(t, (0,))] + list(t.ops[1:]), list(w.weights),
                            list(range(t.n)), degs, t.dim)
    raw.sort(key=lambda item: sum(1 << i for i in item[0]))
    blocks: list[LambdaBlock] = []
    residuals: dict[str, float] = {}
    for lam, delta, v, cond, _ in raw:
        e_dim = delta.shape[0]
        space = TruncatedSpace(w.subset(lam), tuple(degs[i] for i in lam),
                               coeff_dim=e_dim) if lam else None
        blocks.append(LambdaBlock(lam=lam, delta=delta, e_dim=e_dim, v=v, space=space))
        for i, value in cond.items():
            residuals[f"lift_condition_{blocks[-1].tag}_at_{i}"] = value
    total_dim = sum(block.block_dim for block in blocks)
    model_ops = [BlockDiagonal(tuple(_block_action(b, i) for b in blocks)) for i in range(t.n)]
    with _map_memory(total_dim, t.dim):
        # the map and one residual of its size, both reserved before any is written
        p = np.empty((total_dim, t.dim), dtype=complex)
        resid = np.empty_like(p)
        lo = 0
        for block, (*_, stacks) in zip(blocks, raw):
            rows = p[lo:lo + block.block_dim]
            lo += block.block_dim
            if block.space is None:
                rows[...] = block.delta
            else:
                _fill_map_rows(rows, block.space, stacks)
        del raw  # free the row stacks before the residuals
        residuals["isometry"] = hermitian_norm(p.conj().T @ p - np.eye(t.dim))
        if residuals["isometry"] > ISO_TOL:
            raise IsometryResidualTooLarge(
                f"general model not isometric (residual {residuals['isometry']:.3e})"
            )
        for i, op in enumerate(model_ops):
            t.times_adjoint(i, p, resid)
            resid -= op.adjoint_apply(p)
            residuals[f"intertwining_{i}"] = spectral_norm(resid)
            residuals[f"model_norm_{i}"] = op.norm()
    grams = {block.lam: block.delta.conj().T @ block.delta for block in blocks}
    for mask in range(1 << t.n):
        lam = tuple(i for i in range(t.n) if mask >> i & 1)
        # a subset without a block holds the zero matrix
        residuals[f"delta_formula_{_tag(lam)}"] = hermitian_norm(
            grams.get(lam, 0) - _double_limit(t, w, lam))
    for block in blocks:
        outside = [block.v[i] for i in range(t.n) if i not in block.lam]
        if outside:
            residuals[f"v_coisometry_{block.tag}"] = max(
                hermitian_norm(v @ v.conj().T - np.eye(block.e_dim)) for v in outside)
    return DilationResult(map=Operator._adopt(p), model_ops=model_ops, residuals=residuals,
                          block_layout=blocks)


def _block_action(block: LambdaBlock, i: int) -> ModelAction:
    """Coordinate ``i`` of the general model on one block: the block shift
    when ``i`` is in ``lam``, else the lifted co-isometry ``I (x) v[i]``."""
    if i in block.lam:
        return block.space.shifts[block.lam.index(i)]
    return LiftedAction(block.v[i], block.copies)


def _double_limit(t: OperatorTuple, w: MultiWeightSpec, lam: tuple[int, ...]) -> np.ndarray:
    """Brute evaluation of the block defect: series limit inside ``lam``,
    the joint tail (:func:`~wberg.hyper.joint_tail`) outside, exactly zero
    when an outside tail is."""
    start = (lambda: _as_matrix(_vertex_defect(subtuple(t, lam), w.subset(lam)))) if lam else None
    return joint_tail(t, [i for i in range(t.n) if i not in lam], start)
