"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from wberg.bergman import TruncatedSpace, multishift_purity_and_positivity, multishift_tuple
from wberg.charfn import (
    char_function,
    coincidence_verify,
    key_identity_check,
    partial_isometry_check,
    uniqueness_unitary,
)
from wberg.cli import main
from wberg.dilation import general_model, pure_dilation
from wberg.generators import (
    commuting_unitaries,
    nilpotent_commuting_tuple,
    random_commuting_contractions,
    random_unitary,
    unitary_times_nilpotent,
)
from wberg.hyper import (
    OperatorTuple,
    two_parameter_monotonicity_check,
    defect_series,
    equivalence_crosscheck,
    is_gamma_contractive,
    is_pure,
    is_W_hypercontraction,
    subtuple,
)
from wberg.linalg import psd_check
from wberg.series import (
    MultiWeightSpec,
    TruncatedSeries,
    WeightSpec,
    associated_series,
    invert_series,
    quotient_coeffs,
    reciprocal_series,
)

from dense_multiplier import compression_bound, dense_compression, dense_triple


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def opnorm(mat):
    return float(np.linalg.norm(mat, 2)) if mat.size else 0.0


PRESETS = ["hardy", "bergman:1", "bergman:1.5", "bergman:2", "bergman:3"]


def test_criterion_1_series_inversion_oracle():
    combos = [(p,) for p in PRESETS]
    combos += [
        ("hardy", "bergman:3"),
        ("bergman:1.5", "bergman:2"),
        ("bergman:2", "bergman:2"),
        ("bergman:1.5", "bergman:3", "bergman:3"),
        ("hardy", "bergman:2", "bergman:3"),
    ]
    worst = 0.0
    for combo in combos:
        w = MultiWeightSpec.parse(",".join(combo))
        k = associated_series(w, 32)
        c = reciprocal_series(w, 32)
        resid = np.max(np.abs((k.mul(c) - TruncatedSeries.one(k.degrees)).coeffs))
        worst = max(worst, resid / max(1.0, k.max_abs()))
    # integer reciprocals are alternating binomials, exactly
    exact = True
    for m in (1, 2, 3):
        c = invert_series(associated_series(MultiWeightSpec.parse(f"bergman:{m}"), 32)).coeffs
        expected = np.zeros(32)
        for j in range(m + 1):
            expected[j] = (-1) ** j * math.comb(m, j)
        exact = exact and np.array_equal(c, expected)
    ok = worst < 1e-12 and exact
    verdict(1, ok, f"inversion residual {worst:.2e} (tol 1e-12), binomials exact: {exact}")


def test_criterion_2_coisometry_defect_formula():
    worst = 0.0
    for n, dim, seed in [(1, 8, 2), (2, 6, 3), (3, 4, 4)]:
        t = commuting_unitaries(seed, dim, n)
        for preset in PRESETS:
            w = MultiWeightSpec.parse(",".join([preset] * n))
            for _, member in w.swap_family():
                for r in (0.5, 0.75, 0.875):
                    val = defect_series(t, member, (r,) * n)
                    expected = 1.0
                    for spec in member:
                        beta = 1.0 if spec.kind == "hardy" else spec.beta
                        expected *= (1.0 - r) ** beta  # 1 / k(r) in closed form
                    worst = max(worst, opnorm(val - expected * np.eye(dim)))
    ok = worst < 1e-10
    verdict(2, ok, f"co-isometry defect residual {worst:.2e} (tol 1e-10)")


def test_criterion_3_multishift_classification():
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    space = TruncatedSpace(w, (6, 6))
    shifts = multishift_tuple(space)
    rep = is_W_hypercontraction(shifts, w)
    pure = is_pure(shifts)
    ms = multishift_purity_and_positivity(space, shifts, [0.4, (0.8, 0.55), 0.95])
    # independent diagonal oracle straight from the quotient coefficients
    worst = ms.max_diagonal_residual
    for r in (0.4, 0.95):
        ds = defect_series(shifts, w, (r, r))
        assert ds.shape == (space.dim,)  # a multi-shift's defect is held as its diagonal
        quot = [quotient_coeffs(w[i], 1.0, r, 6) for i in range(2)]
        for idx, alpha in enumerate(space.indices):
            expected = space.monomial_weight(alpha) * quot[0][alpha[0]] * quot[1][alpha[1]]
            worst = max(worst, abs(float(ds[idx]) - expected))
    ok = rep.verdict and pure and ms.diagonal_ok and worst < 1e-10
    verdict(3, ok, f"multishift pure hypercontraction, diagonal residual {worst:.2e} (tol 1e-10)")


def test_criterion_4_equivalence_theorem():
    agreements = 0
    total = 0
    for seed in range(50):
        dim = 3 + (seed % 4)
        t = random_commuting_contractions(seed, dim, 2, radius=0.9)
        for gamma in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            rep = equivalence_crosscheck(t, gamma)
            total += 1
            agreements += rep.agree
    # real-exponent finite criterion: the pass set is downward closed
    consistent = True
    for seed in range(10):
        t = nilpotent_commuting_tuple(seed, 5, 2, radius=0.5)
        rep = is_gamma_contractive(t, (1.5, 2.0))
        for (b1, e1), (b2, e2) in itertools.product(rep.witnesses, rep.witnesses):
            if all(x <= y for x, y in zip(b1, b2)) and e2 >= -1e-8:
                consistent = consistent and e1 >= -1e-8
    ok = agreements == total == 200 and consistent
    verdict(4, ok, f"{agreements}/{total} verdicts agree, real-gamma consistent: {consistent}")


def test_criterion_5_one_variable_dilation():
    worst = 0.0
    count = 0
    for seed in range(50):
        dim = 4 + (seed % 13)  # 4..16
        t = nilpotent_commuting_tuple(seed, dim, 1, radius=0.5)[0]
        for wtxt in ("hardy", "bergman:2", "bergman:3"):
            w = WeightSpec.parse(wtxt)
            d = general_model(OperatorTuple.of(t), MultiWeightSpec.of(w))
            pi = d.map.mat
            norm_identity = np.max(np.abs(np.diag(pi.conj().T @ pi - np.eye(pi.shape[1]))))
            worst = max(
                worst,
                d.residuals["isometry"],
                d.residuals["intertwining_0"],
                norm_identity,
            )
            count += 1
    ok = worst < 1e-9 and count == 150
    verdict(5, ok, f"{count} dilations, worst residual {worst:.2e} (tol 1e-9)")


def test_criterion_6_pure_multivariable_dilation():
    # the compression ||Pi* M_i Pi - T_i|| is formed here from the dense
    # model operators, and must also lie within the bound the isometry and
    # intertwining residuals put on it
    worst_iso = worst_int = worst_comp = 0.0
    cases = [(nilpotent_commuting_tuple(100 + seed, 5 + seed % 3, 2, radius=0.5),
              "hardy,hardy" if seed % 2 else "bergman:2,hardy") for seed in range(12)]
    cases += [(nilpotent_commuting_tuple(200 + seed, 4, 3, radius=0.45), "hardy,hardy,hardy")
              for seed in range(4)]
    implied = True
    for tup, wtxt in cases:
        res = pure_dilation(tup, MultiWeightSpec.parse(wtxt))
        iso = res.residuals["isometry"]
        worst_iso = max(worst_iso, iso)
        for i in range(tup.n):
            inter = res.residuals[f"intertwining_{i}"]
            worst_int = max(worst_int, inter)
            comp = dense_compression(res.map.mat, res.model_ops[i].to_matrix(), tup[i].mat)
            worst_comp = max(worst_comp, comp)
            implied &= comp <= compression_bound(res.map.mat, tup[i].mat, iso, inter)
    ok = worst_iso < 1e-9 and worst_int < 1e-9 and worst_comp < 1e-8 and implied
    verdict(6, ok, f"isometry {worst_iso:.2e} (1e-9), intertwining {worst_int:.2e} "
                   f"(1e-9), compression {worst_comp:.2e} (1e-8, formed), implied {implied}")


def test_criterion_7_general_model():
    # the delta_formula_* residuals are the defect-transport identities:
    # each block's Delta* Delta against its double limit
    # (one per subset of the two coordinates; a subset without a block
    # against the zero matrix), and the one nonzero block is (1,)
    worst = 0.0
    transport_worst = 0.0
    ok = True
    for seed in (401, 402, 403):
        t = unitary_times_nilpotent(seed, 2, 3)
        w = MultiWeightSpec.parse("bergman:2,hardy")
        res = general_model(t, w)
        transports = 0
        for key, value in res.residuals.items():
            if key.startswith("model_norm"):
                assert value <= 1.0 + 1e-8
            else:
                worst = max(worst, value)
            if key.startswith("delta_formula"):
                transports += 1
                transport_worst = max(transport_worst, value)
        ok = ok and transports == 4 and [b.lam for b in res.block_layout] == [(1,)]
    ok = ok and worst < 1e-8
    verdict(7, ok, f"4 transport identities and block (1,), worst identity residual "
                   f"{worst:.2e}, transport identities {transport_worst:.2e} (tol 1e-8)")


def test_criterion_8_characteristic_function_suite():
    grid = [0.175 * (i - 2) + 0.175j * (j - 2) for i in range(5) for j in range(5)]
    assert max(abs(z) for z in grid) <= 0.5
    worst_unit = worst_cc = worst_key = worst_pi = worst_uni = worst_co = 0.0
    for seed, wtxt in [(301, "hardy"), (302, "bergman:2"), (303, "bergman:2")]:
        t = nilpotent_commuting_tuple(seed, 5, 1, radius=0.5)[0]
        omega = WeightSpec.parse(wtxt)
        cf = char_function(t, omega)
        c = cf.column_map
        big = np.hstack([np.vstack([t.mat.conj().T, c]), cf.triple.completion()])
        eye = np.eye(big.shape[0])
        worst_unit = max(
            worst_unit,
            opnorm(big @ big.conj().T - eye),
            opnorm(big.conj().T @ big - eye),
        )
        worst_cc = max(worst_cc, opnorm(
            np.eye(t.rows) - c.conj().T @ c - t.mat @ t.mat.conj().T
        ))
        worst_key = max(
            worst_key,
            key_identity_check(cf, grid, grid[::5]),
        )
        res = partial_isometry_check(cf)
        worst_pi = max(worst_pi, res["partial_isometry"], res["range_orthogonality"])
        # triple uniqueness: an independently rotated completion is solved back
        u_e = random_unitary(seed + 5, cf.triple.e_dim).mat
        rotated = dense_triple(cf.triple.completion() @ u_e)
        solved = uniqueness_unitary(cf.triple, rotated)
        worst_uni = max(worst_uni, opnorm(solved - u_e))
        # unitary conjugation: the transports through u make the functions coincide
        u = random_unitary(seed + 11, t.rows).mat
        cf2 = char_function(u @ t.mat @ u.conj().T, omega, cf.n_terms)
        _, co_res = coincidence_verify(cf, cf2, u, grid[::4])
        worst_co = max(worst_co, co_res)
    ok = (
        worst_unit < 1e-9
        and worst_cc < 1e-10
        and worst_key < 1e-9
        and worst_pi < 1e-8
        and worst_uni < 1e-9
        and worst_co < 1e-9
    )
    verdict(8, ok, f"unitarity {worst_unit:.1e} (1e-9), column identity {worst_cc:.1e} "
                   f"(1e-10), key identity {worst_key:.1e} (1e-9), partial isometry "
                   f"{worst_pi:.1e} (1e-8), uniqueness {worst_uni:.1e} (1e-9), "
                   f"coincidence {worst_co:.1e} (1e-9)")


def test_criterion_9_monotonicity_suites():
    worst = 0.0
    checked = 0
    for seed in range(20):
        t = nilpotent_commuting_tuple(500 + seed, 4 + seed % 3, 2, radius=0.45)
        w = MultiWeightSpec.parse("bergman:2,hardy" if seed % 2 else "hardy,hardy")
        assert is_W_hypercontraction(t, w).verdict
        pts = [0.3, 0.6, 0.9]
        for a, b in itertools.combinations(pts, 2):
            gap = defect_series(t, w, (a, a)) - defect_series(t, w, (b, b))
            worst = min(worst, psd_check(gap, 1e-10).min_eigenvalue)
        rep = two_parameter_monotonicity_check(
            t, w, lam=(0,),
            r_points=[(r,) for r in pts],
            beta_points=[(0,), (1,), (2,)],
            tol=1e-10,
        )
        worst = min(worst, rep.min_gap_eig)
        checked += 1
    ok = worst >= -1e-10 and checked == 20
    verdict(9, ok, f"{checked} tuples, worst monotonicity eigenvalue {worst:.2e} "
                   f"(tol -1e-10)")


def test_criterion_10_cli_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    start = time.monotonic()
    code1 = main(["verify-all", "--out", str(out1)])
    code2 = main(["verify-all", "--out", str(out2)])
    elapsed = time.monotonic() - start
    identical = out1.read_bytes() == out2.read_bytes()
    body = json.loads(out1.read_text())
    ok = (
        code1 == 0
        and code2 == 0
        and identical
        and body["cases"] == 12
        and elapsed < 120.0
    )
    verdict(10, ok, f"two runs in {elapsed:.1f}s (< 120s), byte-identical: {identical}")
