"""Dilation constructions: one variable, commutant lifts, pure and general models."""

import numpy as np
import pytest

from wberg.bergman import TruncatedSpace, multishift_tuple
from wberg.dilation import (
    commutant_lift,
    general_model,
    isometry_identity_check,
    model_colift,
    one_var_dilation,
    pure_dilation,
    transport_identities_check,
)
from wberg.errors import LiftConditionFailed, NotHypercontractive, NotPure
from wberg.generators import (
    commuting_unitaries,
    nilpotent_commuting_tuple,
    scalar_tuple,
    unitary_times_nilpotent,
)
from wberg.hyper import OperatorTuple, defect_series, is_W_hypercontraction, subtuple
from wberg.linalg import Operator
from wberg.series import MultiWeightSpec, WeightSpec

HARDY = WeightSpec.hardy()
B2 = WeightSpec.bergman(2)


def opnorm(mat):
    return float(np.linalg.norm(mat, 2)) if mat.size else 0.0


# ---------------------------------------------------------------------------
# one-variable dilation
# ---------------------------------------------------------------------------

def test_one_var_zero_operator_embeds_constants():
    d = one_var_dilation(Operator([[0.0]]), HARDY, n_terms=4)
    # the map sends h to the constant function h: one unit row, rest zero
    assert np.allclose(d.map.mat, np.array([[1], [0], [0], [0], [0]])[: d.map.rows])
    assert d.residuals["isometry"] < 1e-14
    # model operator restricted to the function block is the truncated shift
    assert np.allclose(d.model_ops[0][:4, :4], np.diag([1.0] * 3, -1))


def test_one_var_pure_branch_reduces_to_shift_intertwining():
    t = nilpotent_commuting_tuple(12, 6, 1, radius=0.7)[0]
    d = one_var_dilation(t, HARDY)
    assert d.q_min.shape[0] == 0  # no tail block for a pure operator
    assert d.residuals["isometry"] < 1e-12
    assert d.residuals["intertwining"] < 1e-12


def test_one_var_unitary_is_all_tail():
    u = commuting_unitaries(31, 3, 1)[0]
    d = one_var_dilation(u, HARDY)
    assert d.defect_min.shape[0] == 0
    assert d.q_min.shape[0] == 3
    # U satisfies U* Q = Q T*; with Q = I this is U = T
    assert opnorm(d.u.conj().T @ d.q_min - d.q_min @ u.mat.conj().T) < 1e-10
    assert d.residuals["isometry"] < 1e-10


def test_one_var_rejects_non_hypercontractive():
    t = nilpotent_commuting_tuple(1, 4, 1, radius=0.9)[0]
    with pytest.raises(NotHypercontractive):
        one_var_dilation(t, B2)


@pytest.mark.parametrize("wtxt", ["hardy", "bergman:2", "bergman:3"])
def test_one_var_residuals_nilpotent_family(wtxt):
    w = WeightSpec.parse(wtxt)
    for seed in (3, 14, 27):
        t = nilpotent_commuting_tuple(seed, 8, 1, radius=0.5)[0]
        d = one_var_dilation(t, w)
        assert d.residuals["isometry"] < 1e-9
        assert d.residuals["intertwining"] < 1e-9
        assert d.residuals["tail_coisometry"] < 1e-9


# ---------------------------------------------------------------------------
# the norm identity
# ---------------------------------------------------------------------------

def test_isometry_identity_nilpotent_exact():
    t = nilpotent_commuting_tuple(8, 5, 1, radius=0.8)[0]
    assert isometry_identity_check(t, HARDY) < 1e-10


def test_isometry_identity_coisometry_all_tail():
    u = commuting_unitaries(17, 4, 1)[0]
    assert isometry_identity_check(u, B2) < 1e-9


def test_isometry_identity_scalar_geometric():
    tval = 0.6
    res = isometry_identity_check(Operator([[tval]]), HARDY, n_terms=64)
    # (1 - t^2) sum t^(2k) + lim t^(2k) = 1, truncated at 64 terms
    assert res < 1e-12


# ---------------------------------------------------------------------------
# commutant lift
# ---------------------------------------------------------------------------

def test_commutant_lift_single_variable_is_base_only():
    t = OperatorTuple.of(nilpotent_commuting_tuple(5, 4, 1, radius=0.6)[0])
    lift = commutant_lift(t, MultiWeightSpec.of(HARDY))
    assert lift.a_ops == [] and lift.v_ops == []
    assert lift.residuals["isometry"] < 1e-12


def test_commutant_lift_pure_first_coordinate_has_no_tail_part():
    t = nilpotent_commuting_tuple(9, 5, 2, radius=0.5)
    w = MultiWeightSpec.parse("hardy,bergman:2")
    lift = commutant_lift(t, w)
    assert lift.base.q_min.shape[0] == 0
    for i in (1,):
        assert lift.residuals[f"model_intertwine_{i}"] < 1e-10
        assert lift.residuals[f"model_commute_{i}"] < 1e-10
    # V_i = I (x) A_i exactly: compare blocks
    v = lift.v_ops[0]
    n_slots = lift.base.n_terms
    expected = np.kron(np.eye(n_slots), lift.a_ops[0])
    assert np.allclose(v[: expected.shape[0], : expected.shape[1]], expected)


def test_commutant_lift_scalar_pair():
    t = scalar_tuple([0.5, 0.7])
    w = MultiWeightSpec.parse("bergman:2,hardy")
    lift = commutant_lift(t, w)
    # the defect intertwiner of a scalar pair is multiplication by the scalar
    assert lift.a_ops[0][0, 0] == pytest.approx(0.7, rel=1e-12)
    assert lift.residuals["model_intertwine_1"] < 1e-9


def test_commutant_lift_keeps_lifted_tuples_hypercontractive():
    t = nilpotent_commuting_tuple(22, 5, 2, radius=0.45)
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    lift = commutant_lift(t, w)
    assert lift.residuals["a_tuple_hyper_min_eig"] >= -1e-8


# ---------------------------------------------------------------------------
# pure multi-variable dilation
# ---------------------------------------------------------------------------

def test_pure_dilation_single_variable_matches_one_var():
    t = OperatorTuple.of(nilpotent_commuting_tuple(7, 5, 1, radius=0.6)[0])
    res = pure_dilation(t, MultiWeightSpec.of(B2))
    assert res.residuals["isometry"] < 1e-10
    assert res.residuals["intertwining_0"] < 1e-10
    assert res.residuals["compression_0"] < 1e-9


def test_pure_dilation_multishift_is_its_own_model():
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    shifts = multishift_tuple(TruncatedSpace(w, (4, 4)))
    res = pure_dilation(shifts, w)
    assert res.residuals["isometry"] < 1e-9
    for i in range(2):
        assert res.residuals[f"intertwining_{i}"] < 1e-9
        assert res.residuals[f"compression_{i}"] < 1e-9
    # the map is unitary onto its range: Pi Pi* is a projection
    pi = res.map.mat
    gram = pi @ pi.conj().T
    assert opnorm(gram @ gram - gram) < 1e-12


def test_pure_dilation_nilpotent_pair_compression_recovery():
    t = nilpotent_commuting_tuple(33, 6, 2, radius=0.5)
    w = MultiWeightSpec.parse("hardy,hardy")
    res = pure_dilation(t, w)
    for i in range(2):
        assert res.residuals[f"compression_{i}"] < 1e-10
    # explicit restatement: map* M_i map equals T_i
    for i in range(2):
        comp = res.map.mat.conj().T @ res.model_ops[i] @ res.map.mat
        assert opnorm(comp - t[i].mat) < 1e-10


def test_pure_dilation_rejects_non_pure():
    t = unitary_times_nilpotent(3, 2, 2)
    with pytest.raises(NotPure):
        pure_dilation(t, MultiWeightSpec.parse("hardy,hardy"))


def test_pure_dilation_model_tuple_is_hypercontractive():
    t = nilpotent_commuting_tuple(35, 4, 2, radius=0.5)
    w = MultiWeightSpec.parse("bergman:2,hardy")
    res = pure_dilation(t, w)
    model = OperatorTuple.of(*res.model_ops)
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


def test_general_model_pure_tuple_lives_in_full_block():
    t = nilpotent_commuting_tuple(13, 4, 2, radius=0.5)
    w = MultiWeightSpec.parse("hardy,hardy")
    res = general_model(t, w)
    for block in res.block_layout:
        if block.lam != (0, 1):
            assert block.e_dim == 0
    assert res.residuals["isometry"] < 1e-9


def test_general_model_unitaries_live_in_empty_block():
    t = commuting_unitaries(41, 3, 2)
    w = MultiWeightSpec.parse("hardy,bergman:2")
    res = general_model(t, w)
    layout = {b.lam: b for b in res.block_layout}
    assert layout[()].e_dim == 3
    for lam, block in layout.items():
        if lam:
            assert block.e_dim == 0
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
    assert len(res.block_layout) == 4


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
        assert res.residuals[f"model_norm_{i}"] == opnorm(op)


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
    for i, r in enumerate(res.model_ops):
        for lam, (lo, hi) in offsets.items():
            block = layout[lam]
            sub = r[lo:hi, lo:hi]
            if block.block_dim == 0:
                continue
            if i in lam and block.space is not None:
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

def test_model_colift_identity():
    t = unitary_times_nilpotent(61, 2, 2)
    w = MultiWeightSpec.parse("hardy,hardy")
    model = general_model(t, w)
    lifted, residuals = model_colift(np.eye(t.dim), model)
    assert opnorm(lifted - np.eye(model.map.rows)) < 1e-9
    assert residuals["map_intertwine"] < 1e-9


def test_model_colift_reproduces_tail_coisometry():
    # base case: lifting T itself over the one-variable model reproduces U
    u = commuting_unitaries(67, 3, 1)[0]
    model = general_model(OperatorTuple.of(u), MultiWeightSpec.of(HARDY))
    lifted, residuals = model_colift(u, model)
    assert residuals["map_intertwine"] < 1e-9
    for key, value in residuals.items():
        assert value < 1e-8, key


def test_model_colift_condition_failure():
    t = OperatorTuple.of(Operator(np.diag([1.0, 0.5])))
    model = general_model(t, MultiWeightSpec.of(HARDY))
    bad = Operator(np.array([[0.0, 1.0], [1.0, 0.0]]))  # swaps the two defect lines
    with pytest.raises(LiftConditionFailed):
        model_colift(bad, model)


# ---------------------------------------------------------------------------
# transport identities
# ---------------------------------------------------------------------------

def test_useful_lemma_empty_subset_exact():
    t = nilpotent_commuting_tuple(71, 4, 2, radius=0.5)
    w = MultiWeightSpec.parse("hardy,hardy")
    res_i, res_ii = transport_identities_check(t, w, ())
    assert res_i < 1e-10
    assert res_ii < 1e-10


def test_useful_lemma_nilpotent_pair():
    t = nilpotent_commuting_tuple(73, 5, 2, radius=0.5)
    w = MultiWeightSpec.parse("bergman:2,hardy")
    res_i, res_ii = transport_identities_check(t, w, (1,))
    assert res_i < 1e-9
    assert res_ii < 1e-9  # pure first coordinate: both sides vanish


def test_useful_lemma_mixed_pair():
    t = unitary_times_nilpotent(79, 2, 2)
    w = MultiWeightSpec.parse("hardy,bergman:2")
    res_i, res_ii = transport_identities_check(t, w, (1,))
    assert res_i < 1e-8
    assert res_ii < 1e-8


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
    assert len(res.block_layout) == 8
    survivors = [b.lam for b in res.block_layout if b.e_dim > 0]
    assert survivors == [(1, 2)]  # the unitary coordinate kills every other block
    worst = max(v for k, v in res.residuals.items() if not k.startswith("model_norm"))
    assert worst < 1e-8


def test_general_model_scalar_pair_block_content():
    t = scalar_tuple([1.0, 0.5])
    w = MultiWeightSpec.parse("hardy,hardy")
    res = general_model(t, w)
    layout = {b.lam: b for b in res.block_layout}
    assert layout[(1,)].e_dim == 1
    delta = layout[(1,)].delta
    assert (delta.conj().T @ delta)[0, 0] == pytest.approx(0.75)
    for lam in [(), (0,), (0, 1)]:
        assert layout[lam].e_dim == 0
    v = layout[(1,)].v[0]  # the lifted co-isometry carries the unitary scalar
    assert abs(abs(v[0, 0]) - 1.0) < 1e-10


def test_one_var_dilation_mixed_diagonal():
    t = Operator(np.diag([1.0, 0.5]))
    d = one_var_dilation(t, HARDY)
    assert d.defect_min.shape[0] == 1 and d.q_min.shape[0] == 1
    assert d.residuals["isometry"] < 1e-9
    assert d.residuals["intertwining"] < 1e-9


def test_pure_dilation_bitwise_deterministic():
    t = nilpotent_commuting_tuple(91, 5, 2, radius=0.5)
    w = MultiWeightSpec.parse("bergman:2,hardy")
    r1 = pure_dilation(t, w)
    r2 = pure_dilation(t, w)
    assert np.array_equal(r1.map.mat, r2.map.mat)
    assert r1.residuals == r2.residuals
