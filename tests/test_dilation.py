"""Dilation constructions: one variable, pure and general models, co-lifts."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import wberg.bergman as bergman
from wberg.bergman import ShiftAction, TruncatedSpace, multishift_tuple
import wberg.dilation as dilation
import wberg.hyper as hyper
from wberg.config import build_tuple
from wberg.dilation import (
    ISO_TOL,
    BlockDiagonal,
    LiftedAction,
    _colift,
    _defect_sqrt_pieces,
    _double_limit,
    _lifts,
    _pure_horizon,
    _staged,
    _tail_split,
    general_model,
    pure_dilation,
)
from wberg.errors import (
    BlockBudgetExceeded,
    HorizonTooShort,
    IsometryResidualTooLarge,
    LiftConditionFailed,
    NotHypercontractive,
    NotPure,
    SeriesTailTooLarge,
    TailUnconverged,
)
from wberg.generators import (
    commuting_unitaries,
    nilpotent_commuting_tuple,
    scalar_tuple,
    unitary_times_nilpotent,
)
from wberg.hyper import OperatorTuple, defect_series, is_W_hypercontraction, subtuple
from wberg.linalg import Operator, hermitian_norm, spectral_norm
from wberg.pipelines import GENERAL_MODEL_BUDGET, MODEL_NORM_SLACK, PURE_DILATION_BUDGETS
from wberg.series import MultiWeightSpec, WeightSpec

from dense_multiplier import compression_bound, dense_compression, dense_row_chain

HARDY = WeightSpec.hardy()
B2 = WeightSpec.bergman(2)


def bergman2_prefix(length: int) -> WeightSpec:
    """The first ``length`` weights ``w_k = 1/(k+1)`` of ``bergman:2`` as an explicit list."""
    return WeightSpec.from_values(1 / (k + 1) for k in range(length))


def opnorm(mat):
    return float(np.linalg.norm(mat, 2)) if mat.size else 0.0


# ---------------------------------------------------------------------------
# one-variable dilation: the general model of a one-entry tuple
# ---------------------------------------------------------------------------

def one_var_model(t, omega: WeightSpec):
    """The general model of the one-entry tuple of ``t`` and its blocks by label."""
    res = general_model(OperatorTuple.of(t), MultiWeightSpec.of(omega))
    return res, {b.lam: b for b in res.block_layout}


def norm_identity(res) -> float:
    """Largest diagonal entry of ``Pi* Pi - I``: the norm identity
    ``|h|^2 = sum_k |D T*^k h|^2 / w_k + |Q h|^2`` on a basis."""
    pi = res.map.mat
    return float(np.max(np.abs(np.diag(pi.conj().T @ pi - np.eye(pi.shape[1])))))


def olofsson_reference(t, omega: WeightSpec) -> dict:
    """The one-variable dilation assembled by hand: rows ``Dmin T*^k / sqrt(w_k)``
    up to the purity horizon, stacked over the tail coordinates ``Qmin``, with
    the co-isometry ``U* Qmin = Qmin T*`` and the residuals of the map."""
    tup = OperatorTuple.of(t)
    _, d_min = _defect_sqrt_pieces(tup, omega)
    q_min, u = _tail_split(tup, "tail co-isometry")
    n_terms = _pure_horizon(tup, 0, omega)
    space = TruncatedSpace(MultiWeightSpec.of(omega), (n_terms,), coeff_dim=d_min.shape[0])
    inv_sqrt_w = 1.0 / np.sqrt(omega.values(n_terms))
    pi = (inv_sqrt_w[:, None, None] * dense_row_chain(d_min, tup[0].mat, n_terms)).reshape(
        -1, tup.dim)
    full_map = np.vstack([pi, q_min])
    model_op = BlockDiagonal((space.shifts[0], LiftedAction(u)))
    return {
        "pi": pi, "d_min": d_min, "q_min": q_min, "u": u,
        "isometry": hermitian_norm(full_map.conj().T @ full_map - np.eye(tup.dim)),
        "intertwining": spectral_norm(
            full_map @ tup[0].mat.conj().T - model_op.adjoint_apply(full_map)),
    }


@pytest.mark.parametrize("t,wtxt", [
    (nilpotent_commuting_tuple(7, 5, 1, radius=0.6)[0].mat, "bergman:2"),
    (np.diag([1.0, 0.5]), "hardy"),
    (commuting_unitaries(31, 3, 1)[0].mat, "hardy"),
    (np.array([[0.7]]), "bergman:2.5"),
    (np.zeros((1, 1)), "hardy"),
], ids=["nilpotent-5", "diag-1-0.5", "unitary-3", "scalar-0.7", "zero"])
def test_one_entry_general_model_is_the_olofsson_dilation(t, wtxt):
    omega = WeightSpec.parse(wtxt)
    ref = olofsson_reference(t, omega)
    res, layout = one_var_model(t, omega)
    # the nonzero blocks, tail first: a pure operator has no tail block and
    # a unitary no function block
    q_rows = ref["q_min"].shape[0]
    assert list(layout) == [lam for lam, rows in [((), q_rows), ((0,), ref["d_min"].shape[0])]
                            if rows]
    # the same map rows, tail first, and the same coordinates and co-isometry
    assert np.array_equal(res.map.mat[:q_rows], ref["q_min"])
    assert np.array_equal(res.map.mat[q_rows:], ref["pi"])
    if (0,) in layout:
        assert np.array_equal(layout[(0,)].delta, ref["d_min"])
    if () in layout:
        assert np.array_equal(layout[()].delta, ref["q_min"])
        assert np.array_equal(layout[()].v[0], ref["u"])
    assert res.residuals["isometry"] == pytest.approx(ref["isometry"], rel=0, abs=1e-15)
    assert res.residuals["intertwining_0"] == pytest.approx(ref["intertwining"], rel=0,
                                                            abs=1e-15)


def test_one_var_zero_operator_embeds_constants():
    d, _ = one_var_model(Operator([[0.0]]), HARDY)
    # the map sends h to the constant function h: one unit row, rest zero
    assert np.allclose(d.map.mat, np.array([[1], [0], [0], [0], [0]])[: d.map.rows])
    assert d.residuals["isometry"] < 1e-14
    # model operator restricted to the function block is the truncated shift
    m = d.model_ops[0].to_matrix()
    assert np.allclose(m, np.diag([1.0] * (m.shape[0] - 1), -1))


def test_one_var_pure_branch_reduces_to_shift_intertwining():
    t = nilpotent_commuting_tuple(12, 6, 1, radius=0.7)[0]
    d, layout = one_var_model(t, HARDY)
    assert list(layout) == [(0,)]  # no tail block for a pure operator
    assert d.residuals["isometry"] < 1e-12
    assert d.residuals["intertwining_0"] < 1e-12


def test_one_var_unitary_is_all_tail():
    u = commuting_unitaries(31, 3, 1)[0]
    d, layout = one_var_model(u, HARDY)
    assert list(layout) == [()]  # no function block for a unitary
    tail = layout[()]
    assert tail.e_dim == 3
    # U satisfies U* Q = Q T*; with Q = I this is U = T
    assert opnorm(tail.v[0].conj().T @ tail.delta - tail.delta @ u.mat.conj().T) < 1e-10
    assert d.residuals["isometry"] < 1e-10


def test_one_var_rejects_non_hypercontractive():
    t = nilpotent_commuting_tuple(1, 4, 1, radius=0.9)[0]
    with pytest.raises(NotHypercontractive):
        one_var_model(t, B2)


@pytest.mark.parametrize("wtxt", ["hardy", "bergman:2", "bergman:3"])
def test_one_var_residuals_nilpotent_family(wtxt):
    w = WeightSpec.parse(wtxt)
    for seed in (3, 14, 27):
        t = nilpotent_commuting_tuple(seed, 8, 1, radius=0.5)[0]
        d, layout = one_var_model(t, w)
        assert d.residuals["isometry"] < 1e-9
        assert d.residuals["intertwining_0"] < 1e-9
        # no tail block, so no tail co-isometry; the tail's double limit
        # is shown to vanish against the zero matrix
        assert list(layout) == [(0,)]
        assert "v_coisometry_empty" not in d.residuals
        assert d.residuals["delta_formula_empty"] < 1e-9


# ---------------------------------------------------------------------------
# the norm identity
# ---------------------------------------------------------------------------

def test_isometry_identity_nilpotent_exact():
    t = nilpotent_commuting_tuple(8, 5, 1, radius=0.8)[0]
    assert norm_identity(one_var_model(t, HARDY)[0]) < 1e-10


def test_isometry_identity_coisometry_all_tail():
    u = commuting_unitaries(17, 4, 1)[0]
    assert norm_identity(one_var_model(u, B2)[0]) < 1e-9


def test_isometry_identity_scalar_geometric():
    tval = 0.6
    res = norm_identity(one_var_model(Operator([[tval]]), HARDY)[0])
    # (1 - t^2) sum t^(2k) + lim t^(2k) = 1, truncated at the purity horizon
    assert res < 1e-12


# ---------------------------------------------------------------------------
# pure multi-variable dilation: the general model of a pure tuple
# ---------------------------------------------------------------------------

def pure_reference(t: OperatorTuple, w: MultiWeightSpec) -> dict:
    """The pure dilation assembled stage by stage: defect coordinates
    ``Dmin_j`` of each stage operator, the rest lifted through them, and the
    row of the multi-index ``a`` the left-nested chain ``Dmin_n S_n*^{a_n} ...
    Dmin_1 T_1*^{a_1} / sqrt(w_a)``, with the residuals of the map against the
    truncated multi-shift, and the compression ``Pi* M_i Pi - T_i`` it forms
    itself."""
    degs = tuple(_pure_horizon(t, i, w[i]) for i in range(t.n))
    ops = [subtuple(t, (0,))] + list(t.ops[1:])
    stacks = []
    for j in range(t.n):
        _, d_min = _defect_sqrt_pieces(ops[0], w[j])
        stacks.append(dense_row_chain(d_min, ops[0][0].mat, degs[j]))
        ops = _staged(_lifts(d_min, ops[1:], range(j + 1, t.n), f"stage {j} lift"))
    e_dim = stacks[-1].shape[1]
    space = TruncatedSpace(w, degs, coeff_dim=e_dim)
    pi = np.empty((space.dim, t.dim), dtype=complex)
    for pos, a in enumerate(space.indices):
        row = stacks[0][a[0]]
        for j in range(1, t.n):
            row = stacks[j][a[j]] @ row
        pi[pos * e_dim:(pos + 1) * e_dim] = row / np.sqrt(space.monomial_weight(a))
    out = {"pi": pi, "isometry": hermitian_norm(pi.conj().T @ pi - np.eye(t.dim))}
    for i, shift in enumerate(space.shifts):
        moved = shift.adjoint_apply(pi)
        ti = t[i].mat
        out[f"intertwining_{i}"] = spectral_norm(pi @ ti.conj().T - moved)
        out[f"compression_{i}"] = spectral_norm(moved.conj().T @ pi - ti)
    return out


@pytest.mark.parametrize("spec,wtxt", [
    ("multishift:4x4", "bergman:2,bergman:2"),
    ("multishift:3x3x3", "bergman:2,bergman:2,bergman:2"),
    ("nilpotent:1:4:2:0.6", "hardy,hardy"),
    ("scalars:[0.5,0.4]", "bergman:2,bergman:3"),
])
def test_pure_dilation_is_the_stage_cascade(spec, wtxt):
    w = MultiWeightSpec.parse(wtxt)
    t = build_tuple(spec, w, (4,) * w.n)
    ref = pure_reference(t, w)
    res = pure_dilation(t, w)
    # every block but the full one is empty, and the map is the cascade bit for bit
    assert [b.lam for b in res.block_layout] == [tuple(range(t.n))]
    assert np.array_equal(res.map.mat, ref["pi"])
    for key in ["isometry"] + [f"intertwining_{i}" for i in range(t.n)]:
        assert res.residuals[key] == ref[key], key
    # the compression is not reported: the isometry and intertwining
    # residuals bound it
    assert not any(key.startswith("compression") for key in res.residuals)
    for i in range(t.n):
        assert ref[f"compression_{i}"] <= compression_bound(
            ref["pi"], t[i].mat, ref["isometry"], ref[f"intertwining_{i}"])


def test_pure_multishift_dilation_forms_no_power_stack_past_the_gram(monkeypatch, capsys):
    # the rows D S*^k of every stage are row chains, so no stage operator
    # forms a stack of its powers; only the defect's first difference reads
    # [I, S] through the Gram stack
    from wberg.cli import main

    counts = []
    original = hyper._power_stack
    monkeypatch.setattr(hyper, "_power_stack",
                        lambda mat, count, prefix=None: counts.append(count)
                        or original(mat, count, prefix))
    main(["dilate", "--pure", "--weights", "bergman:2,bergman:2",
          "--tuple", "multishift:8x8"])
    assert '"verdict": true' in capsys.readouterr().out
    assert counts and max(counts) <= 2


def test_pure_dilation_single_variable_matches_one_var():
    t = OperatorTuple.of(nilpotent_commuting_tuple(7, 5, 1, radius=0.6)[0])
    res = pure_dilation(t, MultiWeightSpec.of(B2))
    assert res.residuals["isometry"] < 1e-10
    assert res.residuals["intertwining_0"] < 1e-10
    p = res.map.mat
    comp = dense_compression(p, res.model_ops[0].to_matrix(), t[0].mat)
    assert comp < 1e-9
    assert comp <= compression_bound(p, t[0].mat, res.residuals["isometry"],
                                     res.residuals["intertwining_0"])


def test_pure_dilation_multishift_is_its_own_model():
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    shifts = multishift_tuple(TruncatedSpace(w, (4, 4)))
    res = pure_dilation(shifts, w)
    assert res.residuals["isometry"] < 1e-9
    pi = res.map.mat
    for i in range(2):
        assert res.residuals[f"intertwining_{i}"] < 1e-9
        comp = dense_compression(pi, res.model_ops[i].to_matrix(), shifts[i].mat)
        assert comp < 1e-9
        assert comp <= compression_bound(pi, shifts[i].mat, res.residuals["isometry"],
                                         res.residuals[f"intertwining_{i}"])
    # the map is unitary onto its range: Pi Pi* is a projection
    gram = pi @ pi.conj().T
    assert opnorm(gram @ gram - gram) < 1e-12


def test_pure_dilation_scans_each_entry_once(monkeypatch):
    # integer weights are classified by exact differences, which scan
    # nothing; the purity test scans each weighted-shift entry of t once,
    # through its index map, and the horizons read those scans.  The one
    # lifted stage operator is a weighted shift too, scanned once by its
    # own tail; no matrix is scanned twice
    import wberg.hyper as hyper

    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    shifts = multishift_tuple(TruncatedSpace(w, (4, 4)))
    scanned = []
    original = hyper._nilpotency_order
    monkeypatch.setattr(hyper, "_nilpotency_order",
                        lambda mat, cap: scanned.append(mat) or original(mat, cap))
    res = pure_dilation(shifts, w)
    assert res.residuals["isometry"] < 1e-9
    maps = [stacks.shift for stacks in shifts._stacks]
    assert [sum(mat is m for mat in scanned) for m in maps] == [1, 1]
    assert all(isinstance(mat, ShiftAction) for mat in scanned)
    assert len({id(mat) for mat in scanned}) == len(scanned) == shifts.n + 1


def test_multishift_classification_and_dilation_take_no_dense_entry_product():
    # the entries of a multi-shift are weighted shifts, multiplied by gather
    # and scale: no product of an entry, or of its adjoint, with a matrix of
    # d rows and columns runs while the tuple is classified and dilated
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    t = multishift_tuple(TruncatedSpace(w, (12, 12)))
    d = t.dim
    products = []

    class Counted(np.ndarray):
        """An entry that records its dense products; its conjugate, and so
        its adjoint view, is counted too."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
            if "out" in kwargs:
                kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, Counted) else o
                                      for o in kwargs["out"])
            if ufunc is np.matmul and all(min(np.shape(x)[-2:]) >= d for x in inputs):
                products.append([np.shape(x) for x in inputs])
            result = getattr(ufunc, method)(*plain, **kwargs)
            return result.view(Counted) if ufunc is np.conjugate else result

    for op, stacks in zip(t.ops, t._stacks):
        op.mat = stacks.mat = op.mat.view(Counted)
    _ = t[0].mat @ t[1].mat.conj().T  # the counter sees a product with an adjoint
    assert len(products) == 1
    products.clear()
    assert is_W_hypercontraction(t, w).verdict
    res = pure_dilation(t, w)
    assert res.residuals["isometry"] < 1e-9
    assert products == []


def test_pure_dilation_holds_no_second_map():
    # the map is handed to its Operator without a copy, and each M_i* p is
    # freed before the next is formed; the traced peak is the map, one
    # residual and one M_i* p with its transients, five map sizes and the
    # small arrays, where a copied map and two held M_i* p made it six
    t = nilpotent_commuting_tuple(5, 24, 2, radius=0.3)
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    pure_dilation(nilpotent_commuting_tuple(5, 24, 2, radius=0.3), w)
    tracemalloc.start()
    try:
        res = pure_dilation(t, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    map_bytes = res.map.mat.nbytes
    assert res.map.mat.shape == (13824, 24) and not res.map.mat.flags.writeable
    assert peak < 5.5 * map_bytes


@pytest.mark.parametrize("make, wtxt", [
    (lambda: multishift_tuple(TruncatedSpace(MultiWeightSpec.parse("bergman:2,bergman:2"),
                                             (4, 4))), "bergman:2,bergman:2"),
    (lambda: nilpotent_commuting_tuple(1, 4, 2, radius=0.6), "hardy,hardy"),
], ids=["multishift-4x4", "nilpotent-pair"])
def test_pure_dilation_of_nilpotent_entries_takes_no_doublings(monkeypatch, make, wtxt):
    # every tail of an entry of t is the exact zero of a nilpotent entry,
    # with no scan asked for first: a weighted shift's scan takes no
    # doubling, and a dense entry of order p doubles once per nonzero power
    # T^(2^k), ceil(log2 p) conjugations, and not past its first zero power
    t = make()
    calls = []
    original = hyper.conjugation_limit

    def recorded(s, m):
        calls.append((m, original(s, m)))
        return calls[-1][1]

    monkeypatch.setattr(hyper, "conjugation_limit", recorded)
    res = pure_dilation(t, MultiWeightSpec.parse(wtxt))
    assert res.residuals["isometry"] < 1e-9
    for i, op in enumerate(t):
        limit, converged = t.tail_limit(i)
        assert converged and not np.any(limit)
        steps = [result[2] for m, result in calls if m is op.mat]
        if t._stacks[i].shift is not None:
            assert steps == []
        else:
            assert steps == [math.ceil(math.log2(t.nilpotency_order(i, t.dim)))]


def test_general_model_scans_each_entry_once(monkeypatch):
    # integer weights are classified by exact differences, which scan
    # nothing; the horizons scan each entry of t once, and no step scans
    # again, the lifted stage operators included
    import wberg.hyper as hyper

    t = nilpotent_commuting_tuple(3, 6, 2, radius=0.4)
    w = MultiWeightSpec.parse("bergman:2,hardy")
    scanned = []
    original = hyper._nilpotency_order
    monkeypatch.setattr(hyper, "_nilpotency_order",
                        lambda mat, cap: scanned.append(mat) or original(mat, cap))
    res = general_model(t, w)
    assert res.residuals["isometry"] < 1e-9
    assert [sum(np.array_equal(mat, op.mat) for mat in scanned) for op in t] == [1, 1]
    assert len(scanned) == t.n


def test_pure_dilation_nilpotent_pair_compression_recovery():
    t = nilpotent_commuting_tuple(33, 6, 2, radius=0.5)
    w = MultiWeightSpec.parse("hardy,hardy")
    res = pure_dilation(t, w)
    # map* M_i map equals T_i, within the bound the reported residuals imply
    for i in range(2):
        comp = dense_compression(res.map.mat, res.model_ops[i].to_matrix(), t[i].mat)
        assert comp < 1e-10
        assert comp <= compression_bound(res.map.mat, t[i].mat, res.residuals["isometry"],
                                         res.residuals[f"intertwining_{i}"])


def test_pure_dilation_rejects_non_pure():
    t = unitary_times_nilpotent(3, 2, 2)
    with pytest.raises(NotPure):
        pure_dilation(t, MultiWeightSpec.parse("hardy,hardy"))


def test_pure_dilation_model_tuple_is_hypercontractive():
    t = nilpotent_commuting_tuple(35, 4, 2, radius=0.5)
    w = MultiWeightSpec.parse("bergman:2,hardy")
    res = pure_dilation(t, w)
    model = OperatorTuple.of(*(op.to_matrix() for op in res.model_ops))
    assert is_W_hypercontraction(model, w).verdict


# ---------------------------------------------------------------------------
# general model
# ---------------------------------------------------------------------------

def test_general_model_single_variable_blocks():
    t = OperatorTuple.of(Operator(np.diag([1.0, 0.5])))  # mixed unitary/pure part
    res = general_model(t, MultiWeightSpec.of(HARDY))
    layout = {b.lam: b for b in res.block_layout}
    assert set(layout) == {(), (0,)}
    # the function block's defect is the classical one, the empty block the tail
    d = layout[(0,)]
    q = layout[()]
    assert d.e_dim == 1 and q.e_dim == 1
    assert np.allclose(d.delta.conj().T @ d.delta, np.diag([0.0, 0.75]), atol=1e-10)
    assert np.allclose(q.delta.conj().T @ q.delta, np.diag([1.0, 0.0]), atol=1e-10)
    assert res.residuals["isometry"] < 1e-9


def test_general_model_refuses_a_weight_of_another_arity():
    t = nilpotent_commuting_tuple(71, 4, 2, radius=0.5)
    for build in (general_model, pure_dilation):
        with pytest.raises(NotHypercontractive, match="arity"):
            build(t, MultiWeightSpec.parse("hardy"))


def test_general_model_has_no_size_limit_but_memory():
    # 106 x 106 rows, as many as the pure dilation of the same pair
    t = scalar_tuple([0.8, 0.8])
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    res = general_model(t, w)
    assert res.map.rows == pure_dilation(t, w).map.rows == 11236
    assert res.residuals["isometry"] <= ISO_TOL
    for key, value in res.residuals.items():
        if key.startswith("model_norm"):
            assert value <= 1.0 + 1e-8
        else:
            assert value <= GENERAL_MODEL_BUDGET, key


def test_general_model_pure_tuple_lives_in_full_block():
    t = nilpotent_commuting_tuple(13, 4, 2, radius=0.5)
    w = MultiWeightSpec.parse("hardy,hardy")
    res = general_model(t, w)
    assert [b.lam for b in res.block_layout] == [(0, 1)]
    assert res.residuals["isometry"] < 1e-9


def test_general_model_unitaries_live_in_empty_block():
    t = commuting_unitaries(41, 3, 2)
    w = MultiWeightSpec.parse("hardy,bergman:2")
    res = general_model(t, w)
    layout = {b.lam: b for b in res.block_layout}
    assert list(layout) == [()]
    assert layout[()].e_dim == 3
    # the lifted co-isometries reproduce the unitaries on the empty block
    for i in range(2):
        v = layout[()].v[i]
        assert opnorm(v @ v.conj().T - np.eye(3)) < 1e-9


def test_general_model_mixed_pair_full_residuals():
    t = unitary_times_nilpotent(401, 2, 3)
    w = MultiWeightSpec.parse("bergman:2,hardy")
    res = general_model(t, w)
    for key, value in res.residuals.items():
        if key.startswith("model_norm"):
            assert value <= 1.0 + 1e-8
        else:
            assert value < 1e-8, key
    # one nonzero block, and a delta_formula identity for each of the 4 subsets
    assert [b.lam for b in res.block_layout] == [(1,)]
    assert sum(key.startswith("delta_formula") for key in res.residuals) == 4


@pytest.mark.parametrize("make,wtxt", [
    (lambda: unitary_times_nilpotent(401, 2, 3), "bergman:2,hardy"),
    (lambda: scalar_tuple([1.0, 0.5]), "hardy,hardy"),
    (lambda: scalar_tuple([0.5, 1.0]), "bergman:2,hardy"),
], ids=["unitary-times-nilpotent", "scalars-hardy", "scalars-bergman"])
def test_general_model_norms_equal_dense_norms(make, wtxt):
    res = general_model(make(), MultiWeightSpec.parse(wtxt))
    # the model holds a shift part and a lifted co-isometry part side by side
    kinds = set()
    for block in res.block_layout:
        if block.space is not None:
            kinds.add("shift")
            if len(block.lam) < len(res.model_ops):
                kinds.add("lift")
    assert kinds == {"shift", "lift"}
    for i, op in enumerate(res.model_ops):
        assert res.residuals[f"model_norm_{i}"] == opnorm(op.to_matrix())


def test_general_model_block_structure_matches_displayed_form():
    t = unitary_times_nilpotent(77, 2, 2)
    w = MultiWeightSpec.parse("hardy,hardy")
    res = general_model(t, w)
    layout = {b.lam: b for b in res.block_layout}
    offsets = {}
    pos = 0
    for block in res.block_layout:
        offsets[block.lam] = (pos, pos + block.block_dim)
        pos += block.block_dim
    for i, op in enumerate(res.model_ops):
        r = op.to_matrix()
        for lam, (lo, hi) in offsets.items():
            block = layout[lam]
            sub = r[lo:hi, lo:hi]
            if i in lam:
                from wberg.bergman import shift_matrix

                assert np.allclose(sub, shift_matrix(block.space, lam.index(i)).mat)
            else:
                copies = 1 if block.space is None else len(block.space.indices)
                assert np.allclose(sub, np.kron(np.eye(copies), block.v[i]))
        # off-diagonal blocks vanish
        off = r.copy()
        for lo, hi in offsets.values():
            off[lo:hi, lo:hi] = 0.0
        assert opnorm(off) == 0.0


def test_double_limit_matches_long_horizon_brute_force():
    t = unitary_times_nilpotent(55, 2, 2)
    w = MultiWeightSpec.parse("hardy,hardy")
    res = general_model(t, w)
    layout = {b.lam: b for b in res.block_layout}
    # brute force with explicit long powers instead of doubling
    block = layout[(1,)]
    inner = defect_series(subtuple(t, (1,)), w.subset((1,)), (1.0,))
    k = 300
    tk = np.linalg.matrix_power(t[0].mat, k)
    brute = tk @ inner @ tk.conj().T
    gram = block.delta.conj().T @ block.delta
    assert opnorm(gram - brute) < 1e-8


# ---------------------------------------------------------------------------
# co-isometry lift
# ---------------------------------------------------------------------------

def test_model_colift_condition_failure():
    # a unitary that commutes with T = diag(1, 0.5) but swaps its two defect
    # lines cannot be co-lifted onto either block of the model
    t = OperatorTuple.of(Operator(np.diag([1.0, 0.5])))
    model = general_model(t, MultiWeightSpec.of(HARDY))
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    for block in model.block_layout:
        with pytest.raises(LiftConditionFailed):
            _colift(block.delta, bad, block.lam, f"colift {block.tag}")


def test_general_model_three_variables_eight_blocks():
    u = np.kron(commuting_unitaries(9, 2, 1)[0].mat, np.eye(3))
    nil = nilpotent_commuting_tuple(10, 3, 2, radius=0.5)
    t = OperatorTuple.of(
        Operator(u),
        Operator(np.kron(np.eye(2), nil[0].mat)),
        Operator(np.kron(np.eye(2), nil[1].mat)),
    )
    w = MultiWeightSpec.parse("bergman:2,hardy,hardy")
    res = general_model(t, w)
    # a delta_formula identity for each of the 8 subsets, and one block: the
    # unitary coordinate kills every other
    assert sum(key.startswith("delta_formula") for key in res.residuals) == 8
    assert [b.lam for b in res.block_layout] == [(1, 2)]
    worst = max(v for k, v in res.residuals.items() if not k.startswith("model_norm"))
    assert worst < 1e-8


@pytest.mark.parametrize("make,wtxt", [
    (lambda: unitary_times_nilpotent(401, 2, 3), "bergman:2,hardy"),
    (lambda: OperatorTuple.of(
        Operator(np.kron(commuting_unitaries(9, 2, 1)[0].mat, np.eye(3))),
        *(Operator(np.kron(np.eye(2), op.mat))
          for op in nilpotent_commuting_tuple(10, 3, 2, radius=0.5))),
     "bergman:2,hardy,hardy"),
], ids=["unitary-times-nilpotent", "three-variables"])
def test_general_model_reports_every_lift_condition(monkeypatch, make, wtxt):
    # one key per co-lift, named by the final block and the lifted coordinate
    calls = []
    original = dilation._colift
    monkeypatch.setattr(dilation, "_colift",
                        lambda *a: calls.append(a[2]) or original(*a))
    res = general_model(make(), MultiWeightSpec.parse(wtxt))
    keys = [k for k in res.residuals if k.startswith("lift_condition")]
    assert len(keys) == len(calls)
    n = len(res.model_ops)
    assert len(calls) == sum(n - len(b.lam) for b in res.block_layout)
    assert set(keys) == {f"lift_condition_{b.tag}_at_{i}" for b in res.block_layout
                         for i in range(n) if i not in b.lam}


def test_double_limit_outside_a_nilpotent_coordinate_is_exactly_zero(monkeypatch):
    # the model's tails hold T_2's exact zero tail, so a block that leaves
    # it outside needs no power conjugation and no defect limit
    t = unitary_times_nilpotent(401, 2, 3)
    w = MultiWeightSpec.parse("bergman:2,hardy")
    general_model(t, w)
    monkeypatch.setattr(hyper, "conjugation_limit", lambda *a: pytest.fail("recomputed"))
    monkeypatch.setattr(dilation, "defect_limit", lambda *a, **k: pytest.fail("recomputed"))
    for lam in [(), (0,)]:
        limit = _double_limit(t, w, lam)
        assert limit.shape == (t.dim, t.dim) and not np.any(limit)


@pytest.mark.parametrize("read", [
    lambda t, w: hyper.is_pure(t),
    lambda t, w: _tail_split(t, "tail co-isometry"),
    lambda t, w: hyper.joint_tail(t, (0,)),
    lambda t, w: _double_limit(t, w, ()),
], ids=["is_pure", "tail_split", "joint_tail", "double_limit"])
def test_an_unconverged_tail_warns(monkeypatch, read):
    # with one doubling allowed, the tail of 0.9 stops at 0.9^4 unconverged;
    # every reader of a tail says so
    monkeypatch.setattr(hyper, "MAX_DOUBLINGS", 1)
    t = scalar_tuple([0.9])
    with pytest.warns(TailUnconverged, match="did not converge"):
        read(t, MultiWeightSpec.parse("hardy"))
    assert t.tail_limit(0)[1] is False


def test_an_unconverged_tail_warns_through_the_check(monkeypatch, capsys):
    from wberg.cli import main

    monkeypatch.setattr(hyper, "MAX_DOUBLINGS", 1)
    with pytest.warns(TailUnconverged):
        main(["check", "--weights", "hardy", "--tuple", "scalars:[0.9]"])
    capsys.readouterr()


def test_general_model_scalar_pair_block_content():
    t = scalar_tuple([1.0, 0.5])
    w = MultiWeightSpec.parse("hardy,hardy")
    res = general_model(t, w)
    layout = {b.lam: b for b in res.block_layout}
    assert list(layout) == [(1,)]  # the blocks (), (0,) and (0, 1) are zero
    assert layout[(1,)].e_dim == 1
    delta = layout[(1,)].delta
    assert (delta.conj().T @ delta)[0, 0] == pytest.approx(0.75)
    v = layout[(1,)].v[0]  # the lifted co-isometry carries the unitary scalar
    assert abs(abs(v[0, 0]) - 1.0) < 1e-10


def test_one_var_dilation_mixed_diagonal():
    t = Operator(np.diag([1.0, 0.5]))
    d, layout = one_var_model(t, HARDY)
    assert layout[(0,)].e_dim == 1 and layout[()].e_dim == 1
    assert d.residuals["isometry"] < 1e-9
    assert d.residuals["intertwining_0"] < 1e-9


def test_pure_dilation_bitwise_deterministic():
    t = nilpotent_commuting_tuple(91, 5, 2, radius=0.5)
    w = MultiWeightSpec.parse("bergman:2,hardy")
    r1 = pure_dilation(t, w)
    r2 = pure_dilation(t, w)
    assert np.array_equal(r1.map.mat, r2.map.mat)
    assert r1.residuals == r2.residuals


# ---------------------------------------------------------------------------
# model operators as actions against the dense route
# ---------------------------------------------------------------------------

DENSE_ROUTE_TOL = 1e-13


def test_pure_dilation_residuals_match_dense_route():
    t = nilpotent_commuting_tuple(33, 6, 2, radius=0.5)
    res = pure_dilation(t, MultiWeightSpec.parse("bergman:2,hardy"))
    p = res.map.mat
    for i, op in enumerate(res.model_ops):
        # the full block's shift, the only block
        assert [type(b) for b in op.blocks] == [ShiftAction]
        m, ti = op.to_matrix(), t[i].mat
        dense_int = opnorm(p @ ti.conj().T - m.conj().T @ p)
        assert abs(res.residuals[f"intertwining_{i}"] - dense_int) <= DENSE_ROUTE_TOL
        # the compression is not reported; the dense one is within the bound
        # of the reported residuals
        dense_comp = dense_compression(p, m, ti)
        assert dense_comp <= compression_bound(p, ti, res.residuals["isometry"],
                                               res.residuals[f"intertwining_{i}"])


@pytest.mark.parametrize("make,wtxt", [
    (lambda: unitary_times_nilpotent(401, 2, 3), "bergman:2,hardy"),
    (lambda: scalar_tuple([1.0, 0.5]), "hardy,hardy"),
    (lambda: nilpotent_commuting_tuple(71, 4, 2, radius=0.5), "hardy,hardy"),
    (lambda: nilpotent_commuting_tuple(73, 5, 2, radius=0.5), "bergman:2,hardy"),
    (lambda: unitary_times_nilpotent(79, 2, 2), "bergman:2,hardy"),
], ids=["unitary-times-nilpotent", "scalars-hardy", "transport-nilpotent-hardy",
        "transport-nilpotent-bergman", "transport-unitary-times-nilpotent"])
def test_general_model_residuals_match_dense_route(make, wtxt):
    t = make()
    res = general_model(t, MultiWeightSpec.parse(wtxt))
    # the defect-transport identities: each block's Delta* Delta is its
    # double limit, the lifted defect inside lam conjugated by the powers
    # outside it
    for block in res.block_layout:
        assert res.residuals[f"delta_formula_{block.tag}"] < 1e-9, block.tag
    p = res.map.mat
    for i, op in enumerate(res.model_ops):
        m = op.to_matrix()
        dense_int = opnorm(p @ t[i].mat.conj().T - m.conj().T @ p)
        assert abs(res.residuals[f"intertwining_{i}"] - dense_int) <= DENSE_ROUTE_TOL
        assert abs(res.residuals[f"model_norm_{i}"] - opnorm(m)) <= DENSE_ROUTE_TOL
        x = p[:, :1]
        assert np.allclose(op.apply(x), m @ x, rtol=0, atol=DENSE_ROUTE_TOL)


def test_one_var_dilation_residual_matches_dense_route():
    t = Operator(np.diag([1.0, 0.5]))
    d, _ = one_var_model(t, HARDY)
    m = d.model_ops[0].to_matrix()
    pi = d.map.mat
    dense = opnorm(pi @ t.mat.conj().T - m.conj().T @ pi)
    assert abs(d.residuals["intertwining_0"] - dense) <= DENSE_ROUTE_TOL


def test_lifted_and_block_actions_equal_their_matrices():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    space = TruncatedSpace(MultiWeightSpec.parse("bergman:2"), (4,), coeff_dim=3)
    op = BlockDiagonal((space.shifts[0], LiftedAction(v, 4), LiftedAction(u),
                        LiftedAction(np.zeros((0, 0), dtype=complex))))
    m = op.to_matrix()
    x = rng.standard_normal((op.dim, 5)) + 1j * rng.standard_normal((op.dim, 5))
    assert np.allclose(op.apply(x), m @ x, rtol=0, atol=1e-14)
    assert np.allclose(op.adjoint_apply(x), m.conj().T @ x, rtol=0, atol=1e-14)
    assert abs(op.norm() - opnorm(m)) <= DENSE_ROUTE_TOL


def test_dilations_form_no_dense_model_operator(monkeypatch):
    calls = []

    def count(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, **k: calls.append(name) or original(*a, **k))

    count(bergman, "shift_matrix")
    for cls in (ShiftAction, LiftedAction, BlockDiagonal):
        count(cls, "to_matrix")
    pure_dilation(nilpotent_commuting_tuple(35, 4, 2, radius=0.5),
                  MultiWeightSpec.parse("bergman:2,hardy"))
    general_model(unitary_times_nilpotent(401, 2, 3), MultiWeightSpec.parse("bergman:2,hardy"))
    assert calls == []


def test_pure_dilation_past_the_dense_cliff_stays_small():
    # horizons (458, 243) give a model of dimension 111 294, whose dense
    # shifts would need 185 GiB each; the map is 111 294 x 1 (1.8 MB)
    # its stage defects converge: no accuracy floor is reported
    t = scalar_tuple([0.95, 0.9])
    w = MultiWeightSpec.parse("bergman:1.5,bergman:2.5")
    tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            res = pure_dilation(t, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not [w for w in seen if issubclass(w.category, SeriesTailTooLarge)]
    assert res.map.rows == 458 * 243
    for key, value in res.residuals.items():
        family = key.split("_")[0]
        if family in PURE_DILATION_BUDGETS:
            assert value <= PURE_DILATION_BUDGETS[family], key
        elif family == "model":
            assert value <= 1.0 + MODEL_NORM_SLACK, key
        else:
            assert value <= GENERAL_MODEL_BUDGET, key
    assert peak < 64 * 2**20


def test_unconverged_stage_defect_warns_before_the_isometry_failure():
    # at |t| = 0.999 the 256-term defect of bergman:1.5 keeps an accuracy
    # floor of 6e-5; the dilation says so before its isometry check fails
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(IsometryResidualTooLarge):
            pure_dilation(scalar_tuple([0.999]), MultiWeightSpec.parse("bergman:1.5"))
        floors = [w for w in seen if issubclass(w.category, SeriesTailTooLarge)]
    assert floors and "accuracy floor" in str(floors[0].message)


@pytest.mark.parametrize("build", [pure_dilation, general_model], ids=["pure", "general"])
def test_map_that_does_not_fit_raises_block_budget(monkeypatch, build):
    t = nilpotent_commuting_tuple(33, 4, 2, radius=0.5)
    w = MultiWeightSpec.parse("hardy,hardy")
    shape = (build(t, w).map.rows, t.dim)
    original = np.empty

    def empty(size, *args, **kwargs):
        if tuple(np.atleast_1d(size)) == shape:
            raise MemoryError("no room")
        return original(size, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    with pytest.raises(BlockBudgetExceeded, match=rf"\({shape[0]}, {shape[1]}\).*GiB"):
        build(t, w)


# ---------------------------------------------------------------------------
# horizons on explicit weight lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [np.array([[0.5]]), np.array([[0.3, 0.4], [0.0, -0.2]])],
                         ids=["scalar", "triangular"])
def test_pure_horizon_on_an_explicit_list_matches_its_preset(t):
    # the list is shorter than HORIZON_CAP but longer than the tail sum needs
    t = OperatorTuple.of(t)
    horizon = _pure_horizon(t, 0, B2)
    assert horizon < 200
    assert _pure_horizon(t, 0, bergman2_prefix(200)) == horizon


def test_pure_horizon_refuses_a_list_that_ends_inside_the_tail():
    with pytest.raises(HorizonTooShort, match="12 entries"):
        _pure_horizon(OperatorTuple.of(np.array([[0.5]])), 0, bergman2_prefix(12))
    # a nilpotent operator needs only as many entries as its order
    nilpotent = OperatorTuple.of(np.diag([0.5, 0.5], -1))
    assert _pure_horizon(nilpotent, 0, bergman2_prefix(3)) == 3
