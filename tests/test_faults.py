"""Fault injection: a reported residual moves when one held intermediate is
off by a known amount, and the verdict that reads it flips past its budget.

The fault goes in from the test only, by monkeypatching, never by a change
to ``src/wberg``.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

import wberg.charfn as charfn
import wberg.dilation as dilation
import wberg.hyper as hyper
import wberg.pipelines as pipelines
from wberg.charfn import CHAR_TOL, char_function, char_function_eval
from wberg.config import parse_case, report_json
from wberg.corpus import corpus_cases
from wberg.errors import EquivalenceViolation, IsometryResidualTooLarge
from wberg.generators import random_unitary, scalar_tuple
from wberg.pipelines import (
    CHARFN_BUDGETS,
    GENERAL_MODEL_BUDGET,
    PURE_DILATION_BUDGETS,
    SERIES_RESID_TOL,
    run_charfn,
    run_dilate_general,
    run_dilate_pure,
    run_series,
)
from wberg.series import TruncatedSeries, associated_series

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


# the unpatched kernel identity, which every injected fault wraps
KEY_IDENTITY = charfn.key_identity_check


def inject(monkeypatch, eps):
    """Make the kernel identity of ``run_charfn`` read ``Lambda_J`` scaled by
    ``1 + eps``; every other check reads the held factors.  The fault wraps
    the unpatched check, so a later fault replaces an earlier one."""
    monkeypatch.setattr(charfn, "key_identity_check",
                        lambda cf, zetas, etas: KEY_IDENTITY(scaled(cf, eps), zetas, etas))


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
    # the Lambda_J each run's check reads, captured under every fault
    read, check = [], KEY_IDENTITY
    monkeypatch.setattr(sys.modules[__name__], "KEY_IDENTITY",
                        lambda cf, zetas, etas: read.append(cf.coefficient_factors[J])
                        or check(cf, zetas, etas))
    # no fault: the same bytes
    inject(monkeypatch, 0.0)
    assert report_json(run_charfn(case, t)[1]) == body
    for factor, verdict in ((0.5, True), (2.0, False)):
        # a residual of about factor * CHAR_TOL: the verdict holds below the
        # budget and fails past it, and no other field moves
        eps = factor * CHAR_TOL / g
        inject(monkeypatch, eps)
        read.clear()
        ok, faulty = run_charfn(case, t)
        # the one fault of this run, not stacked on the earlier ones
        assert len(read) == 1 and np.array_equal(read[0], cf.coefficient_factors[J] * (1.0 + eps))
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
# the series residual
# ---------------------------------------------------------------------------

# a mixed index, a last-axis edge and a leading-axis edge of the 12 x 12 x 12
# box: a product that skipped an edge shift or lag would not see the fault
SERIES_INDICES = [(1, 1, 1), (0, 0, 11), (11, 0, 0)]
# the unpatched reciprocal, which every injected fault wraps
RECIPROCAL = pipelines.reciprocal_series


@pytest.fixture(scope="module")
def hardy_cube():
    data = dict({c["name"]: c for c in corpus_cases()}["series-hardy-cube"], run=["series"])
    return parse_case(data, name=data["name"])


def fault_reciprocal(monkeypatch, eps, index):
    """Make ``inversion_residuals`` read the reciprocal ``1/k`` with ``eps``
    added to its coefficient at ``index``."""
    def faulty(w, degrees):
        coeffs = RECIPROCAL(w, degrees).coeffs.copy()
        coeffs[index] += eps
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(pipelines, "reciprocal_series", faulty)


def series_response(case, index):
    """``g = max|k| / max(1, max|k|)``: the fault adds ``eps z^index k``,
    truncated, to ``k (1/k)``, so the relative residual moves by ``eps``
    times the largest ``|k_j|`` with ``index + j`` inside the box, over the
    scale.  For Hardy weights ``k`` is all ones, so every ``index`` reaches
    ``max|k|``; the function asserts it."""
    k = associated_series(case.weights, case.degrees).coeffs
    kept = k[tuple(slice(0, n - i) for i, n in zip(index, k.shape))]
    assert np.max(np.abs(kept)) == np.max(np.abs(k))
    return np.max(np.abs(k)) / max(1.0, np.max(np.abs(k)))


# Each coefficient of the Hardy product k (1/k) has at most 8 nonzero
# terms, +-1 (1/k is the outer product of three rows [1, -1]), so each
# partial sum stays below 16 in size; the term that carries the fault is
# moved by at most 8 additions, each rounding by at most 2^-50, plus the
# rounding of 1/k's own entry plus eps, at most 2^-53.
SERIES_ROUNDING = 8 * 2.0**-50 + 2.0**-53


@pytest.mark.parametrize("index", SERIES_INDICES, ids=str)
@pytest.mark.parametrize("eps", [1e-14, 1e-13, 1e-12])
def test_convolution_residual_moves_linearly_with_a_shifted_reciprocal_coefficient(
        monkeypatch, hardy_cube, index, eps):
    # the product is exact without the fault (R(0) = 0), and with it the
    # exact residual is eps g; the formed one is within R(0) + a of it
    g = series_response(hardy_cube, index)
    before = pipelines.inversion_residuals(hardy_cube.weights, hardy_cube.degrees)
    assert before["convolution_residual"] == 0.0 and g == 1.0
    fault_reciprocal(monkeypatch, eps, index)
    after = pipelines.inversion_residuals(hardy_cube.weights, hardy_cube.degrees)
    assert abs(after["convolution_residual"] - eps * g) <= SERIES_ROUNDING < eps * g
    assert after["scale"] == before["scale"]


@pytest.mark.parametrize("index", SERIES_INDICES, ids=str)
def test_convolution_fault_flips_the_series_verdict_past_its_tolerance(
        monkeypatch, hardy_cube, index):
    g = series_response(hardy_cube, index)
    ok, report = run_series(hardy_cube)
    body = report_json(report)
    assert ok
    for factor in (0.0, 0.5, 2.0):
        fault_reciprocal(monkeypatch, factor * SERIES_RESID_TOL / g, index)
        ok, faulty = run_series(hardy_cube)
        monkeypatch.undo()
        if not factor:
            # no fault: the same bytes
            assert report_json(faulty) == body
            continue
        # a residual of about factor * SERIES_RESID_TOL: the verdict holds
        # below the tolerance and fails past it, and no other field moves
        verdict = factor < 1.0
        assert ok is faulty["verdict"] is verdict
        assert (faulty["convolution_residual"] < SERIES_RESID_TOL) is verdict
        moved = {key for key in report if faulty[key] != report[key]}
        assert moved == ({"convolution_residual"} if verdict else {"convolution_residual", "verdict"})


# ---------------------------------------------------------------------------
# range orthogonality and the coincidence residual
# ---------------------------------------------------------------------------

# block rows of W with a fault: one inside the support of nilpotent:1:16 (the
# W_j of block rows 16-23 of its 24 are exact zeros) and one past it, which a
# route that cut its block columns at the nilpotency order would not see
W_ROWS = [5, 20]
POINTS = [0.3, -0.25 + 0.2j, 0.1j]  # the points run_charfn checks coincidence at


def w_fault(cf, eps, j):
    """A copy of ``cf`` whose ``W`` has ``eps`` added to every entry of block
    row ``j``; the held coefficient factors are kept, so the fault reaches
    ``pi* M`` only through the product with ``W*``."""
    v = cf.triple.v.copy()
    start = cf.t.shape[0] + j * cf.defect_dim
    v[start:start + cf.defect_dim] += eps
    faulty = dataclasses.replace(cf, triple=dataclasses.replace(cf.triple, v=v))
    faulty.__dict__["coefficient_factors"] = cf.coefficient_factors
    return faulty


def range_response(cf, j):
    """``g = ||G||`` for the exact change ``eps G`` of ``pi* M`` under :func:`w_fault`.

    Block ``a`` of ``pi* M`` is ``T^a Q_(n-1-a) W* + [sqrt(rho_i)
    R_(a+i)*]_i`` with ``Q_m = sum_(i <= m) R_i* Lambda_i``
    (:func:`wberg.charfn.partial_isometry_check`), so adding ``eps F`` to
    ``W``, ``F`` the ones of block row ``j``, adds ``eps T^a Q_(n-1-a) F*``:
    its block column ``j`` holds ``r`` copies of ``x_a = T^a Q_(n-1-a) 1``
    and the others are zero, so ``g = sqrt(r) ||[x_0 ... x_(n-1)]||``.  The
    powers of ``T`` are dense products here.
    """
    n, r = cf.n_terms, cf.defect_dim
    q = np.cumsum(cf.rows.conj().transpose(0, 2, 1) @ cf.coefficient_factors[:n], axis=0)
    power, cols = np.eye(cf.t.shape[0]), []
    for a in range(n):
        cols.append(power @ q[n - 1 - a].sum(axis=1))
        power = power @ cf.t
    return math.sqrt(r) * np.linalg.norm(np.array(cols).T, 2)


def conjugate_pair(case, cf):
    """The unitary ``u`` of ``run_charfn`` and the function of ``u T u*``."""
    u = random_unitary(case.seed + 17, cf.t.shape[0]).mat
    return u, char_function(u @ cf.t @ u.conj().T, cf.omega, cf.n_terms)


@pytest.mark.parametrize("j", W_ROWS)
@pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6])
def test_range_orthogonality_moves_linearly_with_a_shifted_w_row(nil16, j, eps):
    # pi* M becomes P + eps G exactly, so by the triangle inequality the
    # residual lies within ||P|| of eps g; the formed P is R(0), and the
    # rounding of the faulted blocks is of the same size
    _, _, cf = nil16
    blocks = cf.triple.w.reshape(cf.n_terms, cf.defect_dim, -1)
    assert [i for i in range(cf.n_terms) if blocks[i].any()] == list(range(16))
    g = range_response(cf, j)
    before = charfn._range_orthogonality(cf)
    after = charfn._range_orthogonality(w_fault(cf, eps, j))
    assert eps * g > 100 * before
    assert abs(after - eps * g) <= 2 * before + 1e-12 * eps * g, (after, eps * g, before)


@pytest.mark.parametrize("j", W_ROWS)
def test_range_orthogonality_fault_flips_the_charfn_verdict_past_its_budget(monkeypatch, nil16, j):
    case, t, cf = nil16
    g = range_response(cf, j)
    budget = CHARFN_BUDGETS["range_orthogonality"]
    ok, report = run_charfn(case, t)
    body = report_json(report)
    original = charfn._range_orthogonality
    assert ok
    for factor in (0.0, 0.5, 2.0):
        monkeypatch.setattr(charfn, "_range_orthogonality",
                            lambda cf: original(w_fault(cf, factor * budget / g, j)))
        ok, faulty = run_charfn(case, t)
        monkeypatch.undo()
        if not factor:
            # no fault: the same bytes
            assert report_json(faulty) == body
            continue
        # a residual of about factor * budget: the verdict holds below the
        # budget and fails past it, and no other field moves
        verdict = factor < 1.0
        assert ok is faulty["verdict"] is verdict
        assert (faulty["range_orthogonality"] < budget) is verdict
        assert {key for key in report if faulty[key] != report[key]} <= {
            "range_orthogonality", "verdict"}


def coincidence_response(cf2):
    """``g = ||Lambda_0 W2*||``: scaling ``theta2``'s ``Lambda_0`` by ``1 +
    eps`` (:func:`scaled`, ``J = 0``) moves ``theta2(z) = kron(a(z), I) +
    L(z) W2*`` by ``eps Lambda_0 W2*`` at every point, and so every
    coincidence gap by the same matrix."""
    assert J == 0
    return np.linalg.norm(cf2.coefficient_factors[0] @ cf2.triple.w.conj().T, 2)


@pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6])
def test_coincidence_residual_moves_linearly_with_a_scaled_theta2_factor(nil16, eps):
    # each gap becomes gap_p + eps G, so the largest norm lies within the
    # unperturbed largest, R(0), of eps g
    case, _, cf = nil16
    u, cf2 = conjugate_pair(case, cf)
    g = coincidence_response(cf2)
    _, before = charfn.coincidence_verify(cf, cf2, u, POINTS)
    _, after = charfn.coincidence_verify(cf, scaled(cf2, eps), u, POINTS)
    assert eps * g > 100 * before
    assert abs(after - eps * g) <= 2 * before + 1e-12 * eps * g, (after, eps * g, before)


def test_coincidence_fault_flips_the_charfn_verdict_past_its_tolerance(monkeypatch, nil16):
    case, t, cf = nil16
    g = coincidence_response(conjugate_pair(case, cf)[1])
    ok, report = run_charfn(case, t)
    body = report_json(report)
    original = charfn.coincidence_verify
    assert ok and report["coincidence"]
    for factor in (0.0, 0.5, 2.0):
        monkeypatch.setattr(charfn, "coincidence_verify",
                            lambda th1, th2, u, z: original(th1, scaled(th2, factor * CHAR_TOL / g),
                                                            u, z))
        ok, faulty = run_charfn(case, t)
        monkeypatch.undo()
        if not factor:
            assert report_json(faulty) == body
            continue
        # the identity holds at a residual of at most CHAR_TOL
        verdict = factor < 1.0
        assert ok is faulty["verdict"] is faulty["coincidence"] is verdict
        assert (faulty["coincidence_residual"] <= CHAR_TOL) is verdict
        assert {key for key in report if faulty[key] != report[key]} <= {
            "coincidence_residual", "coincidence", "verdict"}


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
