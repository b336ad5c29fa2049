"""Fault injection: a reported residual moves when one held intermediate is
off by a known amount, and the verdict that reads it flips past its budget.

The fault goes in from the test only, by monkeypatching, never by a change
to ``src/wberg``.
"""

import dataclasses
import math

import numpy as np
import pytest

import wberg.charfn as charfn
import wberg.dilation as dilation
import wberg.hyper as hyper
from wberg.charfn import CHAR_TOL, char_function, char_function_eval
from wberg.config import parse_case, report_json
from wberg.errors import EquivalenceViolation, IsometryResidualTooLarge
from wberg.generators import scalar_tuple
from wberg.pipelines import (
    CHARFN_BUDGETS,
    GENERAL_MODEL_BUDGET,
    PURE_DILATION_BUDGETS,
    run_charfn,
    run_dilate_general,
    run_dilate_pure,
)

from dense_multiplier import compression_bound, dense_compression

CASE = {"name": "charfn-b2-nil16-s1", "weights": "bergman:2", "tuple": "nilpotent:1:16:1:0.5",
        "seed": 1, "run": ["charfn"]}
# the grid run_charfn checks the kernel identity on
GRID = [0.1 * (i - 2) + 0.1j * (j - 2) for i in range(5) for j in range(5)]
ZETAS, ETAS = GRID, GRID[:5]
J = 0  # the scaled factor Lambda_J


@pytest.fixture(scope="module")
def nil16():
    case = parse_case(dict(CASE), name=CASE["name"])
    t = case.build_tuple(None)
    return case, t, char_function(t, case.weights[0])


def scaled(cf, eps):
    """A copy of ``cf`` whose held ``Lambda_J`` is scaled by ``1 + eps``."""
    lam = cf.coefficient_factors.copy()
    lam[J] *= 1.0 + eps
    faulty = dataclasses.replace(cf)
    faulty.__dict__["coefficient_factors"] = lam
    return faulty


def inject(monkeypatch, eps):
    """Make the kernel identity of ``run_charfn`` read ``Lambda_J`` scaled by
    ``1 + eps``; every other check reads the held factors."""
    original = charfn.key_identity_check
    monkeypatch.setattr(charfn, "key_identity_check",
                        lambda cf, zetas, etas: original(scaled(cf, eps), zetas, etas))


def response(cf):
    """The first- and second-order change of the pair residuals when
    ``Lambda_J`` is scaled by ``1 + eps``.

    ``theta`` becomes ``theta + eps z^J Lambda_J W*``, so each residual
    becomes, exactly, ``gap + eps G1 + eps^2 G2`` with

        G1 = -(eta^J Lambda_J W* theta(zeta)* + theta(eta) W Lambda_J* conj(zeta)^J) / (1 - x),
        G2 = -eta^J conj(zeta)^J Lambda_J W* W Lambda_J* / (1 - x),

    ``x = eta conj(zeta)``.  Returns the largest spectral norm ``g`` and
    Frobenius norm ``g_fro`` of ``G1`` and the largest spectral norm ``h`` of
    ``G2`` over the pairs, formed from the values ``theta(z)`` (``r x e``).
    """
    theta = char_function_eval(cf, ZETAS + ETAS)
    lam, w = cf.coefficient_factors[J], cf.triple.w
    g = g_fro = h = 0.0
    for i, eta in enumerate(ETAS):
        for k, zeta in enumerate(ZETAS):
            x = eta * np.conj(zeta)
            th_eta, th_zeta = theta[len(ZETAS) + i], theta[k]
            g1 = -(eta**J * lam @ w.conj().T @ th_zeta.conj().T
                   + th_eta @ w @ lam.conj().T * np.conj(zeta) ** J) / (1.0 - x)
            g2 = -(eta**J * np.conj(zeta) ** J) * (lam @ w.conj().T @ w @ lam.conj().T) / (1.0 - x)
            g = max(g, np.linalg.norm(g1, 2))
            g_fro = max(g_fro, np.linalg.norm(g1))
            h = max(h, np.linalg.norm(g2, 2))
    return g, g_fro, h


@pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-4])
def test_key_identity_moves_linearly_with_a_scaled_coefficient_factor(nil16, eps):
    # With R(eps) the reported residual and R(0) at least the largest
    # spectral norm of the unperturbed gaps, the triangle inequality at the
    # pair where ||G1|| = g gives
    #     eps g - eps^2 h - 2 R(0) - a <= R(eps) - R(0) <= eps g + eps^2 h + a,
    # a the rounding allowance.  When eps h and (2 R(0) + a) / eps are at most
    # g / 4, the move lies between eps g / 2 and 3 eps g / 2, so within
    # [eps / c, c eps] for c = 2 max(g, 1 / g).  Past CHAR_TOL the Frobenius
    # bound cannot decide and R(eps) is the largest spectral norm.
    _, _, cf = nil16
    g, _, h = response(cf)
    c = 2.0 * max(g, 1.0 / g)
    before = charfn.key_identity_check(cf, ZETAS, ETAS)
    _, allowance = charfn._key_gaps(scaled(cf, eps), np.array(ZETAS), np.array(ETAS))
    assert eps * h <= g / 4 and (2 * before + allowance) / eps <= g / 4
    after = charfn.key_identity_check(scaled(cf, eps), ZETAS, ETAS)
    assert after > CHAR_TOL
    assert eps / c <= after - before <= c * eps


def test_key_identity_fault_flips_the_charfn_verdict_past_its_budget(monkeypatch, nil16):
    case, t, cf = nil16
    g, _, _ = response(cf)
    ok, report = run_charfn(case, t)
    body = report_json(report)
    assert ok and CHARFN_BUDGETS["key_identity_max"] == CHAR_TOL
    # no fault: the same bytes
    inject(monkeypatch, 0.0)
    assert report_json(run_charfn(case, t)[1]) == body
    for factor, verdict in ((0.5, True), (2.0, False)):
        # a residual of about factor * CHAR_TOL: the verdict holds below the
        # budget and fails past it, and no other field moves
        inject(monkeypatch, factor * CHAR_TOL / g)
        ok, faulty = run_charfn(case, t)
        assert ok is faulty["verdict"] is verdict
        assert (faulty["key_identity_max"] < CHAR_TOL) is verdict
        moved = {key for key in report if faulty[key] != report[key]}
        assert moved <= {"key_identity_max", "verdict"}


def test_key_identity_in_the_undecided_window_reports_the_svd_value(monkeypatch, nil16):
    # the fault makes the largest Frobenius norm exceed CHAR_TOL while every
    # spectral norm stays below it: the bound cannot decide, the batched SVD
    # runs, and its value is the one reported (and passes)
    case, t, cf = nil16
    g, g_fro, _ = response(cf)
    assert g_fro > 2 * g
    eps = CHAR_TOL / math.sqrt(g * g_fro)
    gaps, allowance = charfn._key_gaps(scaled(cf, eps), np.array(ZETAS), np.array(ETAS))
    assert np.max(np.linalg.norm(gaps, axis=(2, 3))) + allowance >= CHAR_TOL
    singular = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: singular.append(svd(*a, **k)) or singular[-1])
    inject(monkeypatch, eps)
    ok, report = run_charfn(case, t)
    [values] = [s for s in singular if s.shape == (len(ETAS), len(ZETAS), cf.defect_dim)]
    assert report["key_identity_max"] == float(np.max(values)) < CHAR_TOL
    assert ok and report["verdict"]


# ---------------------------------------------------------------------------
# the dilation residuals
# ---------------------------------------------------------------------------
#
# ``lift_condition_<block>_at_<i>`` needs no row: ``_colift`` raises
# ``LiftConditionFailed`` above its bound, before any report is formed, so no
# reported value can sit past a budget (``test_model_colift_condition_failure``
# shows the raise).

PROBE = {"name": "general-scalars-hardy", "weights": "hardy,hardy",
         "tuple": "scalars:[1.0,0.5]", "run": ["dilate-general"]}
PURE = {"name": "pure-nilpotent-hardy", "weights": "hardy,hardy",
        "tuple": "nilpotent:1:4:2:0.6", "run": ["dilate-pure"]}


def build(data):
    case = parse_case(dict(data), name=data["name"])
    return case, case.build_tuple(None)


def fault_map_rows(monkeypatch, eps, seen=None):
    """Scale the first row block (the rows of the multi-index 0) of the first
    map block ``_fill_map_rows`` writes by ``1 + eps``; ``seen`` collects a
    copy of the unscaled rows."""
    original = dilation._fill_map_rows

    def faulty(out, space, stacks):
        original(out, space, stacks)
        if not hasattr(faulty, "done"):
            faulty.done = True
            if seen is not None:
                seen.append(out[:space.coeff_dim].copy())
            out[:space.coeff_dim] *= 1.0 + eps

    monkeypatch.setattr(dilation, "_fill_map_rows", faulty)


def fault_colift(monkeypatch, eps, seen=None):
    """Scale every lifted co-isometry ``V`` ``_colift`` returns by ``1 + eps``;
    on the probe case there is one, ``V = [1]`` on the block ``(1,)`` for
    coordinate 0.  ``seen`` collects the unscaled ``V``."""
    original = dilation._colift

    def faulty(delta, v, lam, what):
        lift, cond = original(delta, v, lam, what)
        if seen is not None:
            seen.append(lift.copy())
        return lift * (1.0 + eps), cond

    monkeypatch.setattr(dilation, "_colift", faulty)


def isometry_response(monkeypatch, data):
    """``g = 2 ||E Pi||^2`` for the scaled row block ``E Pi``, with the
    unfaulted residuals.

    The fault makes the map ``(I + eps E) Pi`` for the projection ``E`` on
    those rows, so ``Pi'* Pi' - I = (Pi* Pi - I) + eps (2 + eps) Pi* E Pi``
    exactly: the isometry residual is within ``R(0)`` of ``eps (1 + eps / 2)
    g``.
    """
    case, t = build(data)
    seen = []
    fault_map_rows(monkeypatch, 0.0, seen)
    res = dilation.general_model(t, case.weights)
    [rows] = seen
    return 2.0 * np.linalg.norm(rows, 2) ** 2, res.residuals


@pytest.mark.parametrize("data", [PROBE, PURE], ids=["general", "pure"])
@pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-9])
def test_isometry_moves_linearly_with_a_scaled_map_row_block(monkeypatch, data, eps):
    # With a the rounding of forming Pi* Pi - I (at most 4 N eps ||Pi||_F^2,
    # N the model dimension, well below 1e-13 here), the move R(eps) - R(0)
    # lies in [eps g - 2 R(0) - a, eps (1 + eps / 2) g + a].  When (2 R(0) +
    # a) / eps <= g / 4 it is between eps g / 2 and 3 eps g / 2, so within
    # [eps / c, c eps] for c = 2 max(g, 1 / g).
    g, before = isometry_response(monkeypatch, data)
    c = 2.0 * max(g, 1.0 / g)
    case, t = build(data)
    assert (2 * before["isometry"] + 1e-13) / eps <= g / 4
    fault_map_rows(monkeypatch, eps)
    after = dilation.general_model(t, case.weights).residuals["isometry"]
    assert eps / c <= after - before["isometry"] <= c * eps


def test_isometry_fault_past_its_budget_flips_or_raises(monkeypatch):
    # general model: past ISO_TOL the isometry gate raises before any other
    # residual is formed
    g, _ = isometry_response(monkeypatch, PROBE)
    case, t = build(PROBE)
    fault_map_rows(monkeypatch, 0.0)
    ok, report = run_dilate_general(case, t)
    monkeypatch.undo()
    assert ok and report_json(report) == report_json(run_dilate_general(case, t)[1])
    fault_map_rows(monkeypatch, 0.5 * dilation.ISO_TOL / g)
    ok, faulty = run_dilate_general(case, t)
    assert ok and dilation.ISO_TOL / 4 < faulty["residuals"]["isometry"] < dilation.ISO_TOL
    fault_map_rows(monkeypatch, 2.0 * dilation.ISO_TOL / g)
    with pytest.raises(IsometryResidualTooLarge):
        run_dilate_general(case, t)
    monkeypatch.undo()
    # pure dilation: its budget sits below ISO_TOL, so the verdict flips
    # first
    budget = PURE_DILATION_BUDGETS["isometry"]
    g, _ = isometry_response(monkeypatch, PURE)
    case, t = build(PURE)
    fault_map_rows(monkeypatch, 0.0)
    ok, report = run_dilate_pure(case, t)
    monkeypatch.undo()
    assert ok and report_json(report) == report_json(run_dilate_pure(case, t)[1])
    for factor, verdict in ((0.5, True), (2.0, False)):
        fault_map_rows(monkeypatch, factor * budget / g)
        ok, faulty = run_dilate_pure(case, t)
        assert ok is faulty["verdict"] is verdict
        assert (faulty["residuals"]["isometry"] <= budget) is verdict
        monkeypatch.undo()


def intertwining_response(monkeypatch):
    """``g = ||(I (x) V*) Pi_B||`` for the rows ``Pi_B`` of the block whose
    lifted co-isometry ``V`` is scaled, with the unfaulted residuals.

    Scaling ``V`` by ``1 + eps`` adds ``eps (I (x) V)`` on that block to
    ``M_0``, so ``R_0 = Pi T_0* - M_0* Pi`` becomes ``R_0 - eps (I (x) V*)
    Pi_B``, exactly linear: ``intertwining_0`` is within ``R(0)`` of ``eps
    g``.
    """
    case, t = build(PROBE)
    seen = []
    fault_colift(monkeypatch, 0.0, seen)
    res = dilation.general_model(t, case.weights)
    [v] = seen
    [block] = [b for b in res.block_layout if 0 in b.v]
    lo = sum(b.block_dim for b in res.block_layout[:res.block_layout.index(block)])
    rows = res.map.mat[lo:lo + block.block_dim].reshape(block.copies, v.shape[0], -1)
    return np.linalg.norm((v.conj().T @ rows).reshape(block.block_dim, -1), 2), res.residuals


@pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6])
def test_intertwining_moves_linearly_with_a_scaled_lifted_coisometry(monkeypatch, eps):
    # R(eps) - R(0) lies in [eps g - 2 R(0) - a, eps g + a], a the rounding
    # of the residual (below 1e-13 here); with (2 R(0) + a) / eps <= g / 4 it
    # is within [eps / c, c eps] for c = 2 max(g, 1 / g)
    g, before = intertwining_response(monkeypatch)
    c = 2.0 * max(g, 1.0 / g)
    case, t = build(PROBE)
    assert (2 * before["intertwining_0"] + 1e-13) / eps <= g / 4
    fault_colift(monkeypatch, eps)
    after = dilation.general_model(t, case.weights).residuals["intertwining_0"]
    assert eps / c <= after - before["intertwining_0"] <= c * eps


def test_intertwining_fault_past_its_budget_flips_the_verdict(monkeypatch):
    g, _ = intertwining_response(monkeypatch)
    case, t = build(PROBE)
    fault_colift(monkeypatch, 0.0)
    ok, report = run_dilate_general(case, t)
    monkeypatch.undo()
    assert ok and report_json(report) == report_json(run_dilate_general(case, t)[1])
    # past the budget intertwining_0 fails it and the verdict flips; the
    # scaled V also moves model_norm_0 (1 + eps) and v_coisometry_1 (about
    # 2 eps), which fail their budgets with it
    fault_colift(monkeypatch, 2.0 * GENERAL_MODEL_BUDGET / g)
    ok, faulty = run_dilate_general(case, t)
    assert not ok and faulty["verdict"] is False
    assert faulty["residuals"]["intertwining_0"] > GENERAL_MODEL_BUDGET


@pytest.mark.parametrize("fault,eps", [
    (fault_map_rows, 1e-10), (fault_map_rows, 3e-9),
    (fault_colift, 1e-8), (fault_colift, 1e-4),
], ids=["map-1e-10", "map-3e-9", "colift-1e-8", "colift-1e-4"])
def test_compression_stays_within_the_bound_under_each_fault(monkeypatch, fault, eps):
    # the compression is not reported: formed from the dense model, it stays
    # within ||T_i|| isometry + sqrt(1 + isometry) intertwining_i of the
    # faulty model's own residuals, and moves with them
    case, t = build(PROBE)
    fault(monkeypatch, eps)
    res = dilation.general_model(t, case.weights)
    assert not any(key.startswith("compression") for key in res.residuals)
    pi = res.map.mat
    worst = 0.0
    for i in range(t.n):
        comp = dense_compression(pi, res.model_ops[i].to_matrix(), t[i].mat)
        bound = compression_bound(pi, t[i].mat, res.residuals["isometry"],
                                  res.residuals[f"intertwining_{i}"])
        assert comp <= bound
        worst = max(worst, comp)
    assert worst > eps / 4


def fault_double_limit(monkeypatch, eps, lam):
    """Add ``eps I`` to the brute double limit of the subset ``lam`` that
    ``general_model`` compares each block defect with."""
    original = dilation._double_limit

    def faulty(t, w, sub):
        brute = original(t, w, sub)
        return brute + eps * np.eye(t.dim) if sub == lam else brute

    monkeypatch.setattr(dilation, "_double_limit", faulty)


def over_budget(residuals):
    """The residual keys past ``GENERAL_MODEL_BUDGET``, the model norms aside."""
    return {k for k, v in residuals.items()
            if not k.startswith("model_norm") and v > GENERAL_MODEL_BUDGET}


# the probe's one block, and a subset without a block (its tail is 0)
SUBSETS = [((1,), "delta_formula_1"), ((), "delta_formula_empty")]


@pytest.mark.parametrize("lam,key", SUBSETS, ids=["block", "no-block"])
@pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6])
def test_delta_formula_moves_by_eps_with_a_shifted_double_limit(monkeypatch, lam, key, eps):
    # ||G - B - eps I|| lies within R(0) = ||G - B|| of eps, plus a the
    # rounding of B + eps I (below 1e-15 here), so with (2 R(0) + a) / eps
    # <= 1 / 4 the move R(eps) - R(0) is between eps / 2 and 3 eps / 2
    # (g = 1, c = 2); no other residual reads the double limit
    case, t = build(PROBE)
    before = dilation.general_model(t, case.weights).residuals
    assert (2 * before[key] + 1e-15) / eps <= 0.25
    fault_double_limit(monkeypatch, eps, lam)
    after = dilation.general_model(t, case.weights).residuals
    assert eps / 2 <= after[key] - before[key] <= 2 * eps
    assert {k for k in before if after[k] != before[k]} == {key}


@pytest.mark.parametrize("lam,key", SUBSETS, ids=["block", "no-block"])
def test_delta_formula_fault_past_its_budget_flips_the_verdict(monkeypatch, lam, key):
    case, t = build(PROBE)
    ok, report = run_dilate_general(case, t)
    fault_double_limit(monkeypatch, 0.0, lam)
    assert ok and report_json(run_dilate_general(case, t)[1]) == report_json(report)
    monkeypatch.undo()
    for factor, verdict in ((0.5, True), (2.0, False)):
        fault_double_limit(monkeypatch, factor * GENERAL_MODEL_BUDGET, lam)
        ok, faulty = run_dilate_general(case, t)
        assert ok is faulty["verdict"] is verdict
        assert over_budget(faulty["residuals"]) == (set() if verdict else {key})
        monkeypatch.undo()


def coisometry_response(monkeypatch):
    """``g = 2 ||V V*||`` for the probe's one lifted co-isometry ``V``, with
    the unfaulted residuals.

    Scaling ``V`` by ``1 + eps`` makes ``V V* - I`` into ``(V V* - I) + eps
    (2 + eps) V V*`` exactly, so ``v_coisometry_1`` is within ``R(0)`` of
    ``|eps| (1 + eps / 2) g``.
    """
    case, t = build(PROBE)
    seen = []
    fault_colift(monkeypatch, 0.0, seen)
    res = dilation.general_model(t, case.weights)
    monkeypatch.undo()
    [v] = seen
    return 2.0 * np.linalg.norm(v @ v.conj().T, 2), res.residuals


# A shrunk V (eps < 0): a grown one would push model_norm_0 past its slack
# of 1e-8 before v_coisometry_1 reaches its budget of 1e-7.
@pytest.mark.parametrize("eps", [-1e-10, -1e-8, -1e-6])
def test_v_coisometry_moves_linearly_with_a_scaled_colift(monkeypatch, eps):
    # R(eps) - R(0) lies in [|eps| (1 - |eps| / 2) g - 2 R(0) - a,
    # |eps| g + a], a the rounding of V V* - I (below 1e-15 here); with
    # (2 R(0) + a) / |eps| <= g / 4 it is within [|eps| / c, c |eps|] for
    # c = 2 max(g, 1 / g)
    g, before = coisometry_response(monkeypatch)
    c = 2.0 * max(g, 1.0 / g)
    case, t = build(PROBE)
    assert (2 * before["v_coisometry_1"] + 1e-15) / abs(eps) <= g / 4
    fault_colift(monkeypatch, eps)
    after = dilation.general_model(t, case.weights).residuals["v_coisometry_1"]
    assert abs(eps) / c <= after - before["v_coisometry_1"] <= c * abs(eps)


def test_v_coisometry_fault_past_its_budget_flips_the_verdict(monkeypatch):
    # the shrunk V also moves intertwining_0 by about |eps| (g = 1 in
    # intertwining_response), half as fast as v_coisometry_1, so at 1.5
    # times the budget v_coisometry_1 alone fails
    g, _ = coisometry_response(monkeypatch)
    case, t = build(PROBE)
    ok, report = run_dilate_general(case, t)
    fault_colift(monkeypatch, 0.0)
    assert ok and report_json(run_dilate_general(case, t)[1]) == report_json(report)
    monkeypatch.undo()
    for factor, verdict in ((0.5, True), (1.5, False)):
        fault_colift(monkeypatch, -factor * GENERAL_MODEL_BUDGET / g)
        ok, faulty = run_dilate_general(case, t)
        assert ok is faulty["verdict"] is verdict
        assert over_budget(faulty["residuals"]) == (set() if verdict else {"v_coisometry_1"})
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# the equivalence cross-check
# ---------------------------------------------------------------------------

def test_a_failing_lattice_is_an_equivalence_violation(monkeypatch):
    # one lattice witness of a hypercontractive scalar pair reads -1.0: the
    # cross-check compares the lattice with the grid and vertex verdict, which
    # holds, so the two criteria disagree
    gamma = (2, 2)
    report = hyper.equivalence_crosscheck(scalar_tuple([0.5, 0.4]), gamma)
    assert report.agree and report.gamma_report.verdict and report.w_report.verdict
    original = hyper._lattice_report

    def faulty(t, gamma, tol):
        (beta, _), *rest = original(t, gamma, tol).witnesses
        return hyper.GammaReport(False, ((beta, -1.0), *rest), beta)

    monkeypatch.setattr(hyper, "_lattice_report", faulty)
    with pytest.raises(EquivalenceViolation, match="lattice verdict False, defect verdict True"):
        hyper.equivalence_crosscheck(scalar_tuple([0.5, 0.4]), gamma)
