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
from wberg.charfn import CHAR_TOL, char_function, char_function_eval
from wberg.config import parse_case, report_json
from wberg.pipelines import CHARFN_BUDGETS, run_charfn

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
