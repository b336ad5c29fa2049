"""Verification pipelines orchestrating the library for one configured case.

Each pipeline returns ``(ok, report)`` where the report is a plain dict of
JSON-serializable values; verdicts are booleans traceable to the module
checks they wrap.
"""

from __future__ import annotations

import numpy as np

from . import charfn as cf_mod
from .bergman import TruncatedSpace, multishift_purity_and_positivity
from .config import CaseConfig
from .dilation import ISO_TOL, general_model, pure_dilation
from .errors import ConfigError
from .generators import random_unitary
from .hyper import (
    OperatorTuple,
    two_parameter_monotonicity_check,
    defect_limit,
    defect_series,
    dyadic_grid,
    equivalence_crosscheck,
    is_pure,
    is_W_hypercontraction,
    joint_tail,
    subtuple_inheritance_check,
)
from .linalg import Operator, psd_check, psd_sqrt
from .series import (
    MultiWeightSpec,
    TruncatedSeries,
    associated_series,
    check_properties,
    reciprocal_series,
)

SERIES_RESID_TOL = 1e-12
# Floor of the tolerance on Loewner gaps between defect values along the grid.
LOEWNER_TOL_FLOOR = 1e-10
# Budgets a pure dilation's isometry and intertwining residuals must meet,
# by residual family.
PURE_DILATION_BUDGETS = {"isometry": 1e-9, "intertwining": 1e-9}
# Budget of every model residual without a budget of its own; the isometry
# residual is held to ISO_TOL and the model norms to 1 + MODEL_NORM_SLACK.
GENERAL_MODEL_BUDGET = 1e-7
# How far a general model operator's norm may exceed 1.
MODEL_NORM_SLACK = 1e-8
# Budgets of the characteristic-function residuals, by report key.
CHARFN_BUDGETS = {
    "block_unitarity": 1e-9,
    "column_identity": 1e-10,
    "key_identity_max": 1e-9,
    "partial_isometry": 1e-8,
    "range_orthogonality": 1e-8,
}


# ---------------------------------------------------------------------------
# series pipelines
# ---------------------------------------------------------------------------

def inversion_residuals(w: MultiWeightSpec, degrees) -> dict[str, float]:
    """Relative residual of ``k * (1/k) - 1``: the reciprocal checked against its definition."""
    k = associated_series(w, degrees)
    conv = k.mul(reciprocal_series(w, k.degrees)) - TruncatedSeries.one(k.degrees)
    scale = max(1.0, k.max_abs())
    return {
        "convolution_residual": float(np.max(np.abs(conv.coeffs))) / scale,
        "scale": scale,
    }


def run_series(case: CaseConfig) -> tuple[bool, dict]:
    res = inversion_residuals(case.weights, case.degrees)
    ok = res["convolution_residual"] < SERIES_RESID_TOL
    return ok, {"verdict": ok, **res}


def run_props(case: CaseConfig) -> tuple[bool, dict]:
    grid = case.r_grid or [0.5, 0.75, 0.9]
    rep = check_properties(case.weights, grid, case.degrees)
    return rep.p1_ok, {
        "verdict": rep.p1_ok,
        "p1_ok": rep.p1_ok,
        "p1_min": rep.p1_min,
        "p2_bound": rep.p2_bound,
        "p3_abs_sum": rep.p3_abs_sum,
        "liminf_assumed": rep.liminf_assumed,
    }


# ---------------------------------------------------------------------------
# classification pipelines
# ---------------------------------------------------------------------------

def _witnesses_brief(report, tol: float) -> list[dict]:
    """The certificates that fail at ``tol``, the tolerance the verdict was
    decided at, or the first certificate when none fails."""
    if not report.certificates:
        return []
    failing = [w.to_dict() for w in report.certificates if w.min_eig < -tol]
    return failing if failing else [report.certificates[0].to_dict()]


def run_check(case: CaseConfig, t: OperatorTuple) -> tuple[bool, dict]:
    rep = is_W_hypercontraction(t, case.weights, r_grid=case.r_grid, tol=case.tol)
    pure = is_pure(t)
    out: dict = {
        "verdict": rep.verdict,
        "pure": pure,
        "caveat": rep.caveat,
        "witnesses": _witnesses_brief(rep, case.tol),
        "certificates_checked": len(rep.certificates),
    }
    # joint tail: the limit of T^b T*^b over all coordinates
    out["q_tail"] = Operator(joint_tail(t, range(t.n))).to_dict()
    if rep.verdict:
        # the vertex value is exactly Hermitian; a limit unconverged at the
        # tolerance of the verdict warns its floor
        vertex = defect_limit(t, case.weights, case.tol)
        vertex.warn_unconverged(case.tol)
        out["defect_vertex_min_eig"] = psd_check(vertex.limit, case.tol).min_eigenvalue
        out["defect"] = Operator(psd_sqrt(vertex.limit, case.tol)).to_dict()
    if case.tuple_spec and isinstance(case.tuple_spec, str) and case.tuple_spec.startswith(
        "multishift"
    ):
        dims = tuple(int(v) for v in case.tuple_spec.split(":")[1].split("x"))
        space = TruncatedSpace(case.weights, dims, coeff_dim=1)
        ms = multishift_purity_and_positivity(space, t, case.r_grid or [0.5, 0.9])
        out["multishift_diagonal_ok"] = ms.diagonal_ok
        out["multishift_diag_residual"] = ms.max_diagonal_residual
        ok = rep.verdict and ms.diagonal_ok and pure
        return ok, {**out, "verdict": ok}
    return rep.verdict, out


def run_equivalence(case: CaseConfig, t: OperatorTuple) -> tuple[bool, dict]:
    gamma = case.gamma
    if gamma is None:
        gamma = case.weights.integer_betas()
        if gamma is None:
            raise ConfigError(
                f"equivalence needs integer weights or an explicit gamma, got {case.weights.text}"
            )
    rep = equivalence_crosscheck(t, gamma, r_grid=case.r_grid, tol=case.tol)
    return rep.agree, {
        "verdict": rep.agree,
        "gamma": list(gamma),
        "lattice_verdict": rep.gamma_report.verdict,
        "defect_verdict": rep.w_report.verdict,
        "lattice_points": len(rep.gamma_report.witnesses),
    }


def run_subtuple(case: CaseConfig, t: OperatorTuple) -> tuple[bool, dict]:
    reports = {}
    ok = True
    for lam in [(0,), tuple(range(t.n))]:
        rep = subtuple_inheritance_check(t, case.weights, lam, r_grid=case.r_grid,
                                         tol=case.tol)
        reports[str(list(lam))] = rep.consistent
        ok = ok and rep.consistent
    return ok, {"verdict": ok, "subsets": reports}


def run_monotonicity(case: CaseConfig, t: OperatorTuple) -> tuple[bool, dict]:
    # the monotonicity statements presuppose a hypercontractive tuple
    if not is_W_hypercontraction(t, case.weights, r_grid=case.r_grid, tol=case.tol).verdict:
        return True, {"verdict": True, "vacuous": True,
                      "note": "tuple is not hypercontractive; nothing to check"}
    points = [p for p in dyadic_grid(t.n)]
    worst = 0.0
    for a, b in zip(points, points[1:]):
        gap = defect_series(t, case.weights, a) - defect_series(t, case.weights, b)
        worst = min(worst, psd_check(gap, case.tol).min_eigenvalue)
    out = {"loewner_min_eig": worst}
    ok = worst >= -max(case.tol, LOEWNER_TOL_FLOOR)
    if t.n >= 2:
        rep = two_parameter_monotonicity_check(
            t, case.weights, lam=tuple(range(t.n - 1)),
            r_points=[(0.5,) * (t.n - 1), (0.75,) * (t.n - 1)],
            beta_points=[(0,), (1,), (2,)],
            tol=case.tol,
        )
        out["two_parameter_min_eig"] = rep.min_gap_eig
        out["two_parameter_pairs"] = rep.pairs_checked
        ok = ok and rep.ok
    return ok, {"verdict": ok, **out}


# ---------------------------------------------------------------------------
# dilation pipelines
# ---------------------------------------------------------------------------

def _model_ok(residuals: dict[str, float], budgets: dict[str, float]) -> bool:
    """Whether every residual of a model meets the budget of its family (the
    key up to its first ``_``): the one ``budgets`` names, else the isometry
    ``ISO_TOL``, the model norms ``1 + MODEL_NORM_SLACK`` and every other
    residual ``GENERAL_MODEL_BUDGET``."""
    budgets = {"isometry": ISO_TOL, "model": 1.0 + MODEL_NORM_SLACK, **budgets}
    return all(value <= budgets.get(key.split("_")[0], GENERAL_MODEL_BUDGET)
               for key, value in residuals.items())


def run_dilate_pure(case: CaseConfig, t: OperatorTuple) -> tuple[bool, dict]:
    result = pure_dilation(t, case.weights)
    ok = _model_ok(result.residuals, PURE_DILATION_BUDGETS)
    return ok, {
        "verdict": ok,
        "model_dim": result.map.rows,
        "residuals": dict(result.residuals),
    }


def run_dilate_general(case: CaseConfig, t: OperatorTuple) -> tuple[bool, dict]:
    result = general_model(t, case.weights)
    ok = _model_ok(result.residuals, {})
    layout = [
        {"lam": list(b.lam), "e_dim": b.e_dim, "block_dim": b.block_dim}
        for b in result.block_layout
    ]
    return ok, {
        "verdict": ok,
        "blocks": layout,
        "model_dim": result.map.rows,
        "residuals": dict(result.residuals),
    }


# ---------------------------------------------------------------------------
# characteristic function pipeline
# ---------------------------------------------------------------------------

def run_charfn(case: CaseConfig, t: OperatorTuple) -> tuple[bool, dict]:
    if t.n != 1:
        raise ConfigError(f"characteristic functions need arity 1, got {t.n}")
    cf = cf_mod.char_function(t, case.weights[0])
    grid = [0.1 * (i - 2) + 0.1j * (j - 2) for i in range(5) for j in range(5)]
    pi_res = cf_mod.partial_isometry_check(cf)
    residuals = {
        "block_unitarity": cf_mod.block_unitarity(cf),
        "column_identity": cf.column_identity,
        "key_identity_max": cf_mod.key_identity_check(cf, grid, grid[:5]),
        "partial_isometry": pi_res["partial_isometry"],
        "range_orthogonality": pi_res["range_orthogonality"],
    }
    # the function of U T U* must coincide with that of T up to the transports
    u = random_unitary(case.seed + 17, t.dim).mat
    cf2 = cf_mod.char_function(u @ cf.t @ u.conj().T, cf.omega, cf.n_terms)
    coincide, co_res = cf_mod.coincidence_verify(cf, cf2, u, [0.3, -0.25 + 0.2j, 0.1j])
    ok = coincide and all(residuals[key] < bound for key, bound in CHARFN_BUDGETS.items())
    return ok, {
        "verdict": ok,
        "e_dim": cf.triple.e_dim,
        "n_terms": cf.n_terms,
        **residuals,
        "coincidence": coincide,
        "coincidence_residual": co_res,
    }


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

PIPELINES = {
    "series": run_series,
    "props": run_props,
}

TUPLE_PIPELINES = {
    "check": run_check,
    "equivalence": run_equivalence,
    "subtuple": run_subtuple,
    "monotonicity": run_monotonicity,
    "dilate-pure": run_dilate_pure,
    "dilate-general": run_dilate_general,
    "charfn": run_charfn,
}


def run_case(case: CaseConfig, base_dir=None) -> tuple[bool, dict]:
    """Run every pipeline of a case; overall verdict is the conjunction."""
    report: dict = {"case": case.name, "weights": case.weights.text,
                    "degrees": list(case.degrees), "steps": {}}
    t = None
    ok = True
    for step in case.run:
        if step in PIPELINES:
            step_ok, step_report = PIPELINES[step](case)
        else:
            if t is None:
                t = case.build_tuple(base_dir)
                if t is None:
                    raise ConfigError(f"step {step!r} needs a tuple generator")
                if t.n != case.weights.n:
                    raise ConfigError(
                        f"weight arity {case.weights.n} != tuple arity {t.n}"
                    )
            step_ok, step_report = TUPLE_PIPELINES[step](case, t)
        report["steps"][step] = step_report
        ok = ok and step_ok
    report["verdict"] = ok
    return ok, report
