"""Characteristic triples, functions, and their identities."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from wberg.bergman import TruncatedSpace
from wberg.charfn import (
    CHAR_TOL,
    CharTriple,
    _formed_split,
    _gamma,
    _kernel_scalar,
    _psi2,
    _split_bound,
    block_unitarity,
    char_function,
    char_function_eval,
    coincidence_verify,
    key_identity_check,
    kernel_poly,
    partial_isometry_check,
    rho_sequence,
    uniqueness_unitary,
)
from wberg.errors import HorizonTooShort, NotPure, NotUnitaryInput
from wberg.generators import commuting_unitaries, nilpotent_commuting_tuple, random_unitary
from wberg.hyper import _power_stack
from wberg.linalg import Operator, hermitian_norm
from wberg.series import MultiWeightSpec, WeightSpec

from dense_multiplier import dense_row_chain, dense_triple, multiplier_matrix

HARDY = WeightSpec.hardy()
B2 = WeightSpec.bergman(2)
B3 = WeightSpec.bergman(3)
EPS = np.finfo(float).eps


def opnorm(mat):
    return float(np.linalg.norm(mat, 2)) if mat.size else 0.0


def conjugated(cf, u):
    """The characteristic function of ``u T u*`` at the truncation of ``cf``."""
    return char_function(u @ cf.t @ u.conj().T, cf.omega, cf.n_terms)


def blocks(triple):
    """``(B, D-stack)`` of a triple, read through its one materialiser."""
    y = triple.completion()
    d = y.shape[0] - triple.e_dim
    return y[:d], y[d:]


def d_blocks(cf):
    """The blocks ``D_n`` of a function's triple, views of its formed ``D``-stack."""
    return np.split(blocks(cf.triple)[1], cf.n_terms)


def rotated(triple, u):
    """The triple ``(B U, D U)``: an equally valid completion."""
    return dense_triple(triple.completion() @ u)


# ---------------------------------------------------------------------------
# rho sequences
# ---------------------------------------------------------------------------

def test_rho_hardy():
    rho = rho_sequence(HARDY, 6)
    assert rho[0] == 1.0 and np.all(rho[1:] == 0.0)


def test_rho_bergman_two_constant():
    assert np.allclose(rho_sequence(B2, 8), np.ones(8))


def test_rho_bergman_three_linear():
    rho = rho_sequence(B3, 6)
    assert rho[0] == 1.0
    assert np.allclose(rho[1:], np.arange(2, 7))  # binomial difference n+1


def test_rho_nonnegative_for_decreasing_weights():
    for spec in (HARDY, B2, WeightSpec.bergman(1.5)):
        assert np.min(rho_sequence(spec, 32)) >= 0.0


# ---------------------------------------------------------------------------
# the column contraction
# ---------------------------------------------------------------------------

def test_contraction_zero_operator_is_first_slot():
    c = char_function(np.zeros((1, 1)), HARDY, 4).column_map
    assert np.allclose(c, [[1.0], [0.0], [0.0], [0.0]])
    c2 = char_function(np.zeros((1, 1)), B2, 4).column_map
    assert np.allclose(c2, [[1.0], [0.0], [0.0], [0.0]])


def test_contraction_identity_on_nilpotent_jordan():
    j = np.diag([0.6, 0.6, 0.6], -1)
    c = char_function(j, HARDY, 4).column_map
    # constant weights: only the first slot row survives, carrying sqrt(I-TT*)
    d2 = np.eye(4) - j @ j.conj().T
    assert np.allclose(c.conj().T @ c, d2, atol=1e-12)
    gap = np.eye(4) - c.conj().T @ c - j @ j.conj().T
    assert opnorm(gap) < 1e-12


def test_contraction_rejects_non_pure():
    with pytest.raises(NotPure):
        char_function(commuting_unitaries(3, 2, 1)[0], HARDY, 8)


@pytest.mark.parametrize("fn", [
    pytest.param(lambda *args: char_function(*args).column_map, id="contraction_C"),
    pytest.param(lambda *args: char_function(*args).triple, id="build_char_triple"),
    char_function,
])
@pytest.mark.parametrize("n_terms", [0, -1])
def test_term_count_below_one_is_rejected(fn, n_terms):
    with pytest.raises(ValueError, match="n_terms"):
        fn(np.zeros((1, 1)), HARDY, n_terms)


def test_contraction_norm_identity_random_family():
    for seed in (2, 9, 20):
        t = nilpotent_commuting_tuple(seed, 6, 1, radius=0.5)[0]
        for spec in (HARDY, B2):
            c = char_function(t, spec, 12).column_map
            gap = np.eye(6) - c.conj().T @ c - t.mat @ t.mat.conj().T
            assert opnorm(gap) < 1e-10
            assert opnorm(c) <= 1.0 + 1e-10


def test_column_identity_is_kept_on_the_function():
    t = nilpotent_commuting_tuple(9, 6, 1, radius=0.5)[0]
    cf = char_function(t, B2, 12)
    c = cf.column_map
    gap = np.eye(6) - c.conj().T @ c - t.mat @ t.mat.conj().T
    assert cf.column_identity == hermitian_norm(gap)
    assert abs(cf.column_identity - opnorm(gap)) <= 1e-15


# ---------------------------------------------------------------------------
# triples
# ---------------------------------------------------------------------------

def test_triple_zero_operator_dimensions():
    n = 5
    triple = char_function(np.zeros((1, 1)), HARDY, n).triple
    assert triple.e_dim == n
    # one completion column reaches the operator space with unit weight
    b, _ = blocks(triple)
    assert np.sum(np.abs(b) > 0.5) == 1
    assert opnorm(b @ b.conj().T) == pytest.approx(1.0, abs=1e-12)


def test_triple_block_unitarity():
    for seed, spec in ((5, HARDY), (6, B2), (7, B3)):
        cf = char_function(nilpotent_commuting_tuple(seed, 5, 1, radius=0.5)[0], spec, 16)
        assert max(dense_block_unitarity(cf)[:2]) < 1e-12
        assert block_unitarity(cf) < 1e-12


def test_triple_uniqueness_under_recompletion():
    t = nilpotent_commuting_tuple(10, 5, 1, radius=0.5)[0]
    t1 = char_function(t, B2, 12).triple
    # rotate the completion by an arbitrary unitary: an equally valid triple
    u = random_unitary(123, t1.e_dim).mat
    t2 = rotated(t1, u)
    solved = uniqueness_unitary(t1, t2)
    (b1, d1), (b2, d2) = blocks(t1), blocks(t2)
    assert opnorm(solved - u) < 1e-10
    assert opnorm(b1 @ solved - b2) < 1e-10
    assert opnorm(d1 @ solved - d2) < 1e-10


def test_uniqueness_rejects_unrelated_triples():
    t = nilpotent_commuting_tuple(10, 5, 1, radius=0.5)[0]
    t1 = char_function(t, B2, 12).triple
    other = nilpotent_commuting_tuple(11, 5, 1, radius=0.5)[0]
    t2 = char_function(other, B2, 12).triple
    with pytest.raises(NotUnitaryInput):
        uniqueness_unitary(t1, t2)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_at_zero_is_first_block():
    t = nilpotent_commuting_tuple(14, 4, 1, radius=0.5)[0]
    cf = char_function(t, B2, 8)
    assert np.allclose(char_function_eval(cf, [0.0])[0], d_blocks(cf)[0])


def test_zero_operator_function_is_multiplication_by_z():
    cf = char_function(np.zeros((1, 1)), HARDY, 6)
    b_dir = blocks(cf.triple)[0].conj().T  # the completion direction reaching H
    b_dir = b_dir / np.linalg.norm(b_dir)
    for z in (0.25, -0.4 + 0.3j):
        val = char_function_eval(cf, [z])[0] @ b_dir
        assert np.linalg.norm(val) == pytest.approx(abs(z), rel=1e-12)
    assert opnorm(char_function_eval(cf, [0.0])[0] @ b_dir) < 1e-14


def test_kernel_poly_terminates_on_nilpotent():
    t = nilpotent_commuting_tuple(15, 4, 1, radius=0.5)[0]
    full = kernel_poly(B2, [0.5], _power_stack(t.mat.conj().T, 32))
    short = kernel_poly(B2, [0.5], _power_stack(t.mat.conj().T, 4))
    assert full.shape == short.shape == (1, 4, 4)
    assert np.allclose(full, short)


# ---------------------------------------------------------------------------
# the kernel identity
# ---------------------------------------------------------------------------

def test_key_identity_at_origin_is_first_column_unitarity():
    t = nilpotent_commuting_tuple(16, 5, 1, radius=0.5)[0]
    cf = char_function(t, B2)
    assert key_identity_check(cf, [0.0], [0.0]) < 1e-12
    # the identity at 0 reduces to I = D0 D0* + Dmin Dmin*
    d0 = d_blocks(cf)[0]
    lhs = np.eye(cf.defect_dim) - d0 @ d0.conj().T
    rhs = cf.defect_min @ cf.defect_min.conj().T
    assert opnorm(lhs - rhs) < 1e-12


@pytest.mark.parametrize("spec", [HARDY, B2])
def test_key_identity_on_grid(spec):
    t = nilpotent_commuting_tuple(18, 6, 1, radius=0.5)[0]
    cf = char_function(t, spec)
    pts = [0.1 * (i - 2) + 0.1j * (j - 2) for i in range(5) for j in range(5)]
    worst = key_identity_check(cf, pts, pts[::6])
    assert worst < 1e-9


def test_key_identity_zero_operator_reduces_to_kernel_difference():
    cf = char_function(np.zeros((1, 1)), B2, 24)
    for z in (0.3, 0.2 - 0.4j):
        assert key_identity_check(cf, [z], [z]) < 1e-10


def formed_key_gaps(cf, zetas, etas):
    """The pair residuals of the kernel identity from the formed values
    ``theta(z)`` (``r x e``), with pair products of inner dimension ``e``, as
    ``(eta, zeta, r, r)``."""
    theta = char_function_eval(cf, zetas + etas)
    dk = kernel_poly(cf.omega, zetas + etas, cf.rows)
    r = cf.defect_dim
    gaps = np.empty((len(etas), len(zetas), r, r), dtype=complex)
    for i, eta in enumerate(etas):
        for j, zeta in enumerate(zetas):
            x = eta * np.conj(zeta)
            th_eta, th_zeta = theta[len(zetas) + i], theta[j]
            gaps[i, j] = (_kernel_scalar(cf.omega, x) * np.eye(r)
                          - (th_eta @ th_zeta.conj().T) / (1.0 - x)
                          - dk[len(zetas) + i] @ dk[j].conj().T)
    return gaps


def test_key_identity_grid_is_the_max_over_single_pairs(monkeypatch):
    import wberg.charfn as charfn

    t = nilpotent_commuting_tuple(18, 6, 1, radius=0.5)[0]
    cf = char_function(t, B2)
    grid = [0.1 * (i - 2) + 0.1j * (j - 2) for i in range(5) for j in range(5)]
    evaluated = []
    original = charfn._factors_at
    monkeypatch.setattr(charfn, "_factors_at",
                        lambda f, z: evaluated.append(z) or original(f, z))
    worst = key_identity_check(cf, grid, grid[:5])
    # grid[:5] lies inside grid: one stacked evaluation of the 25 distinct points
    [points] = evaluated
    assert sorted(points, key=lambda z: (z.real, z.imag)) == sorted(
        grid, key=lambda z: (z.real, z.imag))
    # the value reported is the largest Frobenius norm of a pair residual,
    # each cut from the stacked pair products
    gaps, allowance = charfn._key_gaps(cf, np.array(grid), np.array(grid[:5]))
    assert gaps.shape == (5, 25, t.rows, t.rows)
    assert worst == max(np.linalg.norm(gaps[i, j]) for i in range(5) for j in range(25))
    # each pair checked on its own, from its own products, rounds
    # differently by a few eps of the stacked residual
    single = 0.0
    for j, zeta in enumerate(grid):
        for i, eta in enumerate(grid[:5]):
            own = key_identity_check(cf, [zeta], [eta])
            assert abs(own - np.linalg.norm(gaps[i, j])) <= 64 * np.finfo(float).eps
            single = max(single, own)
    assert abs(single - worst) <= 64 * np.finfo(float).eps
    # and every pair residual agrees with the one formed from the values
    # theta(z) themselves
    formed = formed_key_gaps(cf, grid, grid[:5])
    assert np.max(np.linalg.norm(gaps - formed, axis=(2, 3))) <= allowance


@pytest.mark.parametrize("op,spec", [
    (nilpotent_commuting_tuple(3, 8, 1, radius=0.5)[0].mat, HARDY),
    (nilpotent_commuting_tuple(1, 16, 1, radius=0.5)[0].mat, B2),
    (np.array([[0.95 * np.exp(0.3j)]]), WeightSpec.bergman(2.5)),
    (nilpotent_commuting_tuple(4, 6, 1, radius=0.5)[0].mat, WeightSpec.bergman(2.5)),
], ids=["hardy-nil8", "bergman2-nil16", "bergman2.5-scalar0.95", "bergman2.5-nil6"])
def test_factored_key_identity_agrees_with_the_formed_one(op, spec):
    # the residuals through the r x d factors differ from the ones formed
    # with pair products of inner dimension e by rounding only, within the
    # allowance the check adds to their Frobenius norms
    import wberg.charfn as charfn

    cf = char_function(op, spec)
    grid = [0.1 * (i - 2) + 0.1j * (j - 2) for i in range(5) for j in range(5)]
    gaps, allowance = charfn._key_gaps(cf, np.array(grid), np.array(grid[:5]))
    formed = formed_key_gaps(cf, grid, grid[:5])
    assert np.max(np.linalg.norm(gaps - formed, axis=(2, 3))) <= allowance
    assert allowance < 0.1 * CHAR_TOL
    # the formed and the factored residuals differ by up to the allowance,
    # so the formed spectral norm may exceed the reported Frobenius norm by
    # that much
    spectral = float(np.max(np.linalg.svd(formed, compute_uv=False)))
    reported = key_identity_check(cf, grid, grid[:5])
    assert spectral <= reported + allowance
    assert reported <= math.sqrt(cf.defect_dim) * spectral + allowance


def test_key_identity_forms_no_value_stack_completion_or_svd(monkeypatch):
    # bergman:2 nilpotent:1:16:1:0.5: the accepting path reads the r x d
    # factors and K = W* W only
    import tracemalloc

    import wberg.charfn as charfn

    cf = char_function(nilpotent_commuting_tuple(1, 16, 1, radius=0.5)[0], B2)
    grid = [0.1 * (i - 2) + 0.1j * (j - 2) for i in range(5) for j in range(5)]

    def refuse(*args, **kwargs):
        raise AssertionError("the accepting path took a formed route")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(CharTriple, "completion", refuse)
    monkeypatch.setattr(charfn, "char_function_eval", refuse)
    monkeypatch.setattr(type(cf), "coefficients", refuse)
    tracemalloc.start()
    try:
        worst = key_identity_check(cf, grid, grid[:5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert worst < 1e-12
    # one (P, r, e) stack of complex values for the 25 points would take
    # 25 * 16 * 384 * 16 bytes; the whole check stays below that
    assert (cf.defect_dim, cf.triple.e_dim) == (16, 384)
    assert peak < 25 * 16 * 384 * 16


def series_sum(coefficients, x):
    """``sum_n c_n x^n`` by ``math.fsum`` of each part over the iterable
    ``c_0, c_1, ...``, up to its end or the first term below ``1e-22``."""
    real, imag = [], []
    power = 1.0
    for c in coefficients:
        term = c * power
        real.append(term.real)
        imag.append(term.imag)
        if abs(term) < 1e-22 and len(real) > 1:
            break
        power *= x
    return complex(math.fsum(real), math.fsum(imag))


def binomials(p):
    """``1/w_n = binom(p + n - 1, n)`` of ``bergman:p`` by their recurrence."""
    c, n = 1.0, 0
    while True:
        yield c
        c *= (p + n) / (n + 1)
        n += 1


def test_kernel_scalar_matches_the_closed_form():
    # the closed form (1 - x)^-p against the series sum_n x^n / w_n summed
    # term by term, including points where it takes thousands of terms
    for spec in (HARDY, B2, WeightSpec.bergman(2.5)):
        for x in (0.0, 0.5, -0.3 + 0.4j, 0.9, 0.99, 0.7j):
            exact = series_sum(binomials(spec.exponent), complex(x))
            assert abs(_kernel_scalar(spec, x) - exact) <= 1e-12 * abs(exact), (spec.text, x)


def test_kernel_scalar_on_an_explicit_list():
    # a 40-entry list ends inside the first 64-term chunk: its last term
    # decides convergence there
    spec = WeightSpec.from_values(1 / (k + 1) for k in range(40))
    for x in (0.0, 0.08, 0.15 - 0.1j):
        exact = (1 - x) ** -2
        assert abs(_kernel_scalar(spec, x) - exact) <= 1e-12 * abs(exact)
    with pytest.raises(HorizonTooShort, match="40-entry explicit weight list"):
        _kernel_scalar(spec, 0.6)


def test_key_identity_near_the_circle_raises_instead_of_a_spurious_residual():
    cf = char_function(np.array([[0.5]]), B2)
    assert key_identity_check(cf, [0.5], [0.5]) < 1e-9
    # the 33-term function is cut where the scalar kernel is not: a residual
    # formed at these points is the truncation's (3.1e-6, 2.6e-2, 3.56 and
    # 1.3e3), not a failed identity
    assert cf.n_terms == 33
    for z in (0.8, 0.9, 0.95, 0.99):
        with pytest.raises(HorizonTooShort, match="past the function's 33 terms"):
            key_identity_check(cf, [z], [z])
    # Hardy weights leave no tail past the truncation (rho_k = 0 for k >= 1):
    # a nilpotent function is an exact polynomial and the identity holds at
    # every point, though the kernel's own tail sum_(k >= 24) t^k is 7e-8 at
    # t = 0.49 and 3e-2 at t = 0.81
    hardy = char_function(nilpotent_commuting_tuple(3, 8, 1, radius=0.5)[0], HARDY)
    assert hardy.n_terms == 24
    for z in (0.7, 0.9):
        assert key_identity_check(hardy, [z], [z]) < 1e-9
    z = 0.999**0.5  # eta conj(zeta) = 0.999: the kernel sum needs ~30k terms
    with pytest.raises(HorizonTooShort):
        key_identity_check(cf, [z], [z])


def test_key_identity_of_a_hardy_polynomial_holds_up_to_the_circle():
    # a nilpotent function at Hardy weights is an exact polynomial, and its
    # scalar kernel 1 / (1 - x) is taken in closed form: the identity is
    # checked, not refused, however close |eta zeta| comes to 1
    hardy = char_function(nilpotent_commuting_tuple(3, 8, 1, radius=0.5)[0], HARDY)
    for t in (0.99, 0.999, 0.9999):
        z = t**0.5
        assert key_identity_check(hardy, [z], [z]) < 1e-9, t


# ---------------------------------------------------------------------------
# partial isometry
# ---------------------------------------------------------------------------

def test_partial_isometry_zero_operator_rank_split():
    cf = char_function(np.zeros((1, 1)), HARDY, 8)
    res = partial_isometry_check(cf)
    assert res["partial_isometry"] < 1e-10
    assert res["range_orthogonality"] < 1e-10


@pytest.mark.parametrize("spec", [HARDY, B2])
def test_partial_isometry_nilpotent(spec):
    t = nilpotent_commuting_tuple(19, 6, 1, radius=0.5)[0]
    cf = char_function(t, spec)
    res = partial_isometry_check(cf)
    assert res["partial_isometry"] < 1e-8
    assert res["range_orthogonality"] < 1e-8


def dense_split(cf) -> tuple[np.ndarray, np.ndarray]:
    """Reference route: ``pi pi* + M M* - I`` and ``pi* M`` from the dense
    multiplier matrix and the stacked dilation map."""
    n, r = cf.n_terms, cf.defect_dim
    target = TruncatedSpace(MultiWeightSpec.of(cf.omega), (n,), coeff_dim=r)
    source = TruncatedSpace(MultiWeightSpec.of(HARDY), (n,), coeff_dim=cf.triple.e_dim)
    m = multiplier_matrix({(k,): blk for k, blk in enumerate(cf.coefficients())}, source, target)
    inv_sqrt_w = 1.0 / np.sqrt(cf.omega.values(n))
    stars = _power_stack(cf.t.conj().T, n)
    pi = np.vstack([inv_sqrt_w[k] * (cf.defect_min @ stars[k]) for k in range(n)])
    total = pi @ pi.conj().T + m @ m.conj().T
    return total - np.eye(target.dim), pi.conj().T @ m


def dense_partial_isometry_residuals(cf) -> dict[str, float]:
    split, cross = dense_split(cf)
    return {"partial_isometry": opnorm(split), "range_orthogonality": opnorm(cross)}


@pytest.mark.parametrize(
    "op,spec",
    [
        (Operator([[0.6 + 0.2j]]), B2),
        (Operator([[0.7j]]), HARDY),
        (Operator([[-0.55]]), WeightSpec.bergman(1.5)),
        (nilpotent_commuting_tuple(19, 5, 1, radius=0.5)[0], B2),
        (nilpotent_commuting_tuple(20, 16, 1, radius=0.5)[0], HARDY),
    ],
    ids=["bergman2-scalar", "hardy-scalar", "bergman1.5-scalar", "nil5-bergman2", "nil16-hardy"],
)
def test_partial_isometry_matches_dense_multiplier(op, spec):
    cf = char_function(op, spec)
    got = partial_isometry_check(cf)
    ref = dense_partial_isometry_residuals(cf)
    # the split is accepted on its bound, which dominates the residual of the
    # same data (split_bound_holds)
    assert got["partial_isometry"] == split_bound_holds(cf, ref["partial_isometry"]) < 1e-8
    assert abs(got["range_orthogonality"] - ref["range_orthogonality"]) < 1e-13
    assert got["range_orthogonality"] < 1e-8
    # a perturbed triple gives residuals of order one, on which the bound
    # cannot decide and both routes must agree: tiny residuals alone cannot
    # tell the routes apart
    rng = np.random.default_rng(7)
    b, d_stack = blocks(cf.triple)
    noisy = dense_triple(np.vstack([b + 0.3 * rng.standard_normal(b.shape), 1.2 * d_stack]))
    bad = dataclasses.replace(cf, triple=noisy)
    got = partial_isometry_check(bad)
    ref = dense_partial_isometry_residuals(bad)
    for key in ("partial_isometry", "range_orthogonality"):
        assert ref[key] > 1e-2
        assert abs(got[key] - ref[key]) < 1e-13 * ref[key], (key, got[key], ref[key])


def extended_completion(triple) -> np.ndarray:
    """``Y = E - V S W*`` of the held factors, formed in ``clongdouble``."""
    v, s, w = (a.astype(np.clongdouble) for a in (triple.v, triple.s, triple.w))
    y = -(v @ s) @ w.conj().T
    y[len(y) - triple.e_dim:] += np.eye(triple.e_dim)
    return y


def extended_split(cf) -> float:
    """``||pi pi* + M M* - I||`` of the held data (``T``, ``C``, the ``R``
    stack and the factors of ``Y``) with every product and the cancellation
    in ``clongdouble``: ``M M*`` is the Gram matrix of the coefficients
    ``Theta_j = sqrt(rho_j) D_j + v_(j-1) R_(j-1) B`` summed along block
    diagonals and rescaled by ``sqrt(w_b w_b')``."""
    n, r, d, e = cf.n_terms, cf.defect_dim, cf.t.shape[0], cf.triple.e_dim
    y = extended_completion(cf.triple)
    rows = cf.rows.astype(np.clongdouble)
    rho = rho_sequence(cf.omega, n).astype(np.longdouble)
    v = cf.omega.inverse_weight_values(n).astype(np.longdouble)
    theta = np.sqrt(rho)[:, None, None] * y[d:].reshape(n, r, e)
    theta[1:] += v[:-1, None, None] * (rows[:-1] @ y[:d])
    flat = theta.reshape(n * r, e)
    gram = (flat @ flat.conj().T).reshape(n, r, n, r)
    for b in range(1, n):
        gram[b, :, 1:] += gram[b - 1, :, :-1]
    sqrt_w = np.repeat(np.sqrt(cf.omega.values(n).astype(np.longdouble)), r)
    pi = (rows / sqrt_w.reshape(n, r, 1)).reshape(n * r, d)
    total = pi @ pi.conj().T + sqrt_w[:, None] * gram.reshape(n * r, n * r) * sqrt_w[None, :]
    return opnorm((total - np.eye(n * r)).astype(complex))


def extended_split_bound(cf) -> float:
    """``(1 + psi2) (beta + ||Y* Y - I||_F)`` with ``beta`` and the defect of
    the held data taken in extended precision: ``beta = ||H||``, ``H = [[X*
    X - I, (Y* X)*], [Y* X, 0]]`` (:func:`block_unitarity`), formed in
    ``clongdouble`` and cast down after the cancellation."""
    y = extended_completion(cf.triple)
    x = np.vstack([cf.t.conj().T, cf.column_map]).astype(np.clongdouble)
    d = x.shape[1]
    h = np.zeros((len(x), len(x)), dtype=np.clongdouble)
    h[:d, :d] = x.conj().T @ x - np.eye(d)
    h[d:, :d] = y.conj().T @ x
    h[:d, d:] = h[d:, :d].conj().T
    beta = hermitian_norm(h.astype(complex))
    return (1.0 + _psi2(cf, cf.rows)) * (beta + extended_defect(cf.triple))


def split_bound_holds(cf, formed: float) -> float:
    """Assert that the split bound dominates the residual, comparing like
    with like, and return the bound.

    The bound ``(1 + psi2) (beta + ||Y* Y - I||_F)`` is proved for exact
    arithmetic on the held data, so it is compared with the residual of
    that data in extended precision, both sides taken the same way
    (:func:`extended_split`, :func:`extended_split_bound`); the computed
    bound is within its rounding allowance of the extended one.  The
    residual ``formed`` by a double-precision route carries that route's
    own rounding, which the bound with its allowances covers.
    """
    bound, proved = _split_bound(cf, cf.rows)
    exact = extended_split_bound(cf)
    assert extended_split(cf) <= exact
    assert bound <= proved and abs(bound - exact) <= proved - bound, (bound, exact, proved)
    assert formed <= proved
    return bound


def perturbed(cf, scale: float, seed: int = 5):
    """``cf`` with complex noise of size ``scale`` added to its completion ``[B; D]``."""
    rng = np.random.default_rng(seed)
    triple = cf.triple

    def noisy(a):
        return a + scale * (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))

    b, d_stack = blocks(triple)
    moved = dense_triple(np.vstack([noisy(b), noisy(d_stack)]))
    return dataclasses.replace(cf, triple=moved)


def factored_split(cf) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reference route for the factored identity, from the dense factors:
    ``sum_a S_a (U U* - I) S_a*``, ``sum_a S_a S_a*``, ``pi`` and ``Psi``,
    with block row ``b >= a`` of ``S_a`` equal to ``sqrt(w_b) Phi_(b-a)``,
    ``Phi_j = [v_(j-1) R_(j-1) | sqrt(rho_j) E_j]``, and block ``(b, a)`` of
    ``Psi`` equal to ``sqrt(w_b) v_(b-a) R_(b-a)``."""
    n, r, d, e = cf.n_terms, cf.defect_dim, cf.t.shape[0], cf.triple.e_dim
    w = cf.omega.values(n)
    v = 1.0 / w
    rho = rho_sequence(cf.omega, n)
    rows = cf.defect_min @ _power_stack(cf.t.conj().T, n)
    u = np.hstack([np.vstack([cf.t.conj().T, cf.column_map]), cf.triple.completion()])
    phi = np.zeros((n, r, d + e), dtype=complex)
    for j in range(n):
        if j:
            phi[j, :, :d] = v[j - 1] * rows[j - 1]
        phi[j, :, d + j * r:d + (j + 1) * r] = math.sqrt(rho[j]) * np.eye(r)
    gap = u @ u.conj().T - np.eye(d + e)
    factored = np.zeros((n * r, n * r), dtype=complex)
    gram = np.zeros_like(factored)
    psi = np.zeros((n * r, n * d), dtype=complex)
    for a in range(n):
        s = np.zeros((n * r, d + e), dtype=complex)
        for b in range(a, n):
            s[b * r:(b + 1) * r] = math.sqrt(w[b]) * phi[b - a]
            psi[b * r:(b + 1) * r, a * d:(a + 1) * d] = math.sqrt(w[b]) * v[b - a] * rows[b - a]
        factored += s @ gap @ s.conj().T
        gram += s @ s.conj().T
    pi = (rows / np.sqrt(w)[:, None, None]).reshape(n * r, d)
    return factored, gram, pi, psi


SPLIT_CASES = {
    "hardy-nil6": lambda: char_function(
        nilpotent_commuting_tuple(1, 6, 1, radius=0.5)[0], HARDY, 8),
    "bergman2-scalar": lambda: char_function(np.array([[0.5 + 0.3j]]), B2),
    "bergman2.5-nil5": lambda: char_function(
        nilpotent_commuting_tuple(2, 5, 1, radius=0.5)[0], WeightSpec.bergman(2.5), 10),
    "bergman2.5-scalar": lambda: char_function(np.array([[-0.6j]]), WeightSpec.bergman(2.5)),
    "bergman1.5-scalar": lambda: char_function(np.array([[0.7]]), WeightSpec.bergman(1.5)),
    "explicit-nil4": lambda: char_function(
        nilpotent_commuting_tuple(4, 4, 1, radius=0.5)[0],
        WeightSpec.from_values([1.0, 0.5, 0.3, 0.2, 0.15, 0.1])),
    "explicit-scalar": lambda: char_function(
        np.array([[0.3j]]), WeightSpec.from_values(1.0 / (k + 1) for k in range(40))),
}


@functools.cache
def split_function(name: str):
    return SPLIT_CASES[name]()


@pytest.mark.parametrize("name", SPLIT_CASES)
def test_split_factors_through_the_completion_unitarity(name):
    # pi pi* + M M* - I = sum_a S_a (U U* - I) S_a* holds for any completion
    # Y, so a perturbed one tests it far above rounding: the two sides agree
    # to rounding against a left side of order 1e-4
    cf = perturbed(split_function(name), 1e-5)
    split, _ = dense_split(cf)
    factored, gram, pi, psi = factored_split(cf)
    assert 1e-6 < opnorm(split) < 1e-2
    assert np.max(np.abs(split - factored)) < 64 * EPS, np.max(np.abs(split - factored))
    eye = np.eye(len(gram))
    assert np.max(np.abs(gram - (eye - pi @ pi.conj().T + psi @ psi.conj().T))) < 64 * EPS
    assert opnorm(psi) ** 2 <= _psi2(cf, cf.rows) * (1.0 + 1e-12)


@pytest.mark.parametrize("scale", [0.0, 1e-6, 1e-4])
@pytest.mark.parametrize("name", SPLIT_CASES)
def test_split_bound_dominates_the_formed_residual(name, scale):
    cf = split_function(name)
    if scale:
        cf = perturbed(cf, scale)
    bound = split_bound_holds(cf, opnorm(dense_split(cf)[0]))
    if not scale:
        # the accepting path reports the bound itself
        assert partial_isometry_check(cf)["partial_isometry"] == bound < 1e-8
        assert _split_bound(cf, cf.rows)[1] < 10 * CHAR_TOL


def test_split_past_the_budget_is_formed_and_decided_as_before():
    # once the bound with its rounding allowance reaches the budget, the
    # formed residual is reported, so the verdict is the formed one: here it
    # passes at 3e-10 and fails at 1e-6 (the residual is about 11 times the
    # perturbation, the bound about 35 times the residual)
    from wberg.pipelines import CHARFN_BUDGETS

    base = char_function(nilpotent_commuting_tuple(1, 6, 1, radius=0.5)[0], HARDY, 8)
    for scale, passes in ((3e-10, True), (1e-6, False)):
        cf = perturbed(base, scale)
        _, proved = _split_bound(cf, cf.rows)
        assert proved >= 10 * CHAR_TOL
        got = partial_isometry_check(cf)["partial_isometry"]
        assert got == _formed_split(cf, cf.coefficients()[:cf.n_terms], cf.rows)
        ref = opnorm(dense_split(cf)[0])
        assert abs(got - ref) < 1e-13 * max(1.0, ref), (got, ref)
        assert (got < CHARFN_BUDGETS["partial_isometry"]) is passes


# ---------------------------------------------------------------------------
# coincidence
# ---------------------------------------------------------------------------

def test_coincidence_trivial():
    t = nilpotent_commuting_tuple(23, 5, 1, radius=0.5)[0]
    cf = char_function(t, B2)
    ok, res = coincidence_verify(cf, cf, np.eye(t.rows), [0.2, 0.3j])
    assert ok and res < 1e-14


def test_coincidence_under_unitary_conjugation():
    t = nilpotent_commuting_tuple(24, 5, 1, radius=0.5)[0]
    for spec in (HARDY, B2):
        cf = char_function(t, spec)
        u = random_unitary(88, t.rows).mat
        ok, res = coincidence_verify(cf, conjugated(cf, u), u, [0.25, -0.2 + 0.35j, 0.45j])
        assert ok, res


def test_coincidence_detects_perturbation():
    t = nilpotent_commuting_tuple(25, 5, 1, radius=0.5)[0]
    cf = char_function(t, B2)
    u = random_unitary(89, t.rows).mat
    cf2 = conjugated(cf, u)
    noisy = u + 1e-3 * np.eye(t.rows)
    with pytest.raises(NotUnitaryInput, match="conjugating map must be unitary"):
        coincidence_verify(cf, cf2, noisy, [0.3])
    # certified transports but a wrong function: the residual must show it.
    # The rows R_j = D T*^j are held, so the fault goes into them as well
    v = random_unitary(4242, cf2.defect_dim).mat
    wrong = dataclasses.replace(cf2, defect_min=v @ cf2.defect_min, rows=v @ cf2.rows)
    ok, res = coincidence_verify(cf, wrong, u, [0.3])
    assert not ok and res > 1e-3


def test_coincidence_rejects_a_unitary_that_does_not_conjugate():
    # u and tau_* are unitary (the defect has full rank), but the transported
    # completion misses the second one: the bound cannot decide, and the
    # formed tau is rejected on its exact residual
    import wberg.charfn as charfn

    t = nilpotent_commuting_tuple(25, 5, 1, radius=0.5)[0]
    cf = char_function(t, B2)
    cf2 = conjugated(cf, random_unitary(89, t.rows).mat)
    assert cf.defect_dim == t.rows
    other = random_unitary(4242, t.rows).mat
    sizes = []
    original = charfn._require_unitary
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charfn, "_require_unitary",
                   lambda m, *a: sizes.append(m.shape[1]) or original(m, *a))
        with pytest.raises(NotUnitaryInput, match="coincidence transports must be unitary"):
            coincidence_verify(cf, cf2, other, [0.3])
    assert sizes == [t.rows, cf.defect_dim, cf.triple.e_dim]


def test_coincidence_takes_the_exact_route_when_the_bound_cannot_decide(monkeypatch):
    # u off unitary by just under the threshold: the transport bound at a
    # unitary u is its surplus over the gap (the orthogonality defects and
    # the rounding allowances), so a gap of the threshold less half that
    # surplus lifts the bound above the threshold, whatever the allowances
    # are, and the formed tau, whose residual is that gap, is accepted on
    # that exact value (the coincidence residual then carries the
    # perturbation)
    import wberg.charfn as charfn

    bound = 10 * CHAR_TOL
    t = nilpotent_commuting_tuple(25, 5, 1, radius=0.5)[0]
    cf = char_function(t, B2)
    u = random_unitary(89, t.rows).mat
    cf2 = conjugated(cf, u)
    surplus, _ = transport_bound_and_exact(cf, cf2, u)
    assert 0.0 < surplus < 1e-3 * bound
    off = _off_unitary(u, bound - surplus / 2, "rank-one")
    transport, exact = transport_bound_and_exact(cf, cf2, off)
    assert transport > bound >= exact
    sizes = []
    original = charfn._require_unitary
    monkeypatch.setattr(charfn, "_require_unitary",
                        lambda m, *a: sizes.append(m.shape[1]) or original(m, *a))
    _, res = coincidence_verify(cf, cf2, off, [0.3, 0.1j])
    assert sizes == [t.rows, cf.defect_dim, cf.triple.e_dim]
    assert res < 1e-7


def test_coincidence_on_empty_point_lists():
    t = nilpotent_commuting_tuple(23, 5, 1, radius=0.5)[0]
    cf = char_function(t, B2)
    u = random_unitary(7, t.rows).mat
    assert coincidence_verify(cf, conjugated(cf, u), u, []) == (True, 0.0)
    assert key_identity_check(cf, [], [0.3]) == 0.0
    assert key_identity_check(cf, [0.3], []) == 0.0
    assert char_function_eval(cf, []).shape == (0, cf.defect_dim, cf.triple.e_dim)


def test_evaluation_points_are_each_validated():
    cf = char_function(np.array([[0.5]]), B2)
    for points in ([1.0], [0.2, -1.0], [0.3, 0.6 + 0.8j]):
        with pytest.raises(ValueError, match="open disc"):
            char_function_eval(cf, points)
        with pytest.raises(ValueError, match="open disc"):
            key_identity_check(cf, [0.1], points)
        with pytest.raises(ValueError, match="open disc"):
            coincidence_verify(cf, cf, np.eye(1), points)


@pytest.mark.parametrize("op,spec", [
    (np.array([[0.95 * np.exp(0.3j)]]), WeightSpec.bergman(2.5)),
    (nilpotent_commuting_tuple(18, 6, 1, radius=0.5)[0].mat, B2),
    (nilpotent_commuting_tuple(3, 8, 1, radius=0.5)[0].mat, HARDY),
], ids=["bergman2.5-scalar0.95", "nil6-bergman2", "nil8-hardy"])
def test_batched_evaluation_matches_each_point(op, spec):
    # each slice of the stacked values is the function at its point, summed
    # term by term as a single evaluation does
    cf = char_function(op, spec)
    points = [0.0, 0.3, -0.25 + 0.2j, 0.1j, 0.45 - 0.45j]
    stacked = char_function_eval(cf, points)
    assert stacked.shape == (len(points), cf.defect_dim, cf.triple.e_dim)
    b, d_stack = blocks(cf.triple)
    scale = max(1.0, opnorm(d_stack))
    n = cf.n_terms
    sqrt_rho = np.sqrt(rho_sequence(cf.omega, n))
    scaled_d_blocks = sqrt_rho[:, None, None] * np.stack(d_blocks(cf))
    for z, value in zip(points, stacked):
        # D K(z, T*) = sum_j z^j R_j / w_j over the held rows R_j = D T*^j
        kernel = np.tensordot(cf.omega.inverse_weight_values(n) * z ** np.arange(n),
                              cf.rows, 1)
        ref = np.tensordot(z ** np.arange(n), scaled_d_blocks, 1)
        ref += z * (kernel @ b)
        assert opnorm(value - ref) <= 1e-14 * scale, z
        assert opnorm(char_function_eval(cf, [z])[0] - value) <= 1e-14 * scale, z


def test_kernel_scalar_of_an_array_is_each_entry_summed_alone():
    # an explicit list sums every entry of an array over the whole list; the
    # error names the largest |x| whose sum the list's end cuts short
    spec = WeightSpec.from_values(1 / (k + 1) for k in range(40))
    x = np.array([[0.0, 0.05, -0.03 + 0.04j], [0.09, 0.02j, -0.06]])
    values = _kernel_scalar(spec, x)
    assert values.shape == x.shape
    for index, v in np.ndenumerate(x):
        assert abs(values[index] - _kernel_scalar(spec, v)) <= 4 * EPS * abs(values[index])
        exact = series_sum(range(1, 41), complex(v))
        assert abs(values[index] - exact) <= 1e-14 * abs(exact)
    with pytest.raises(HorizonTooShort, match=r"\|x\| = 0.6 .* 40-entry explicit"):
        _kernel_scalar(spec, np.array([0.5, 0.2, 0.6, -0.55j]))


def test_run_charfn_computes_each_defect_once(monkeypatch):
    # one defect limit for T and one for U T U*: the characteristic data
    # carry the defect coordinates, their basis and the column map
    import wberg.dilation as dilation
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_charfn

    calls = []
    original = dilation.defect_limit
    monkeypatch.setattr(dilation, "defect_limit",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    data = next(c for c in corpus_cases() if c["name"] == "charfn-nilpotent-bergman2")
    case = parse_case(data, name=data["name"])
    ok, report = run_charfn(case, case.build_tuple(None))
    assert ok and report["coincidence"]
    assert len(calls) == 2


def test_char_function_forms_its_rows_once(monkeypatch):
    # the column map and every evaluation read the one row chain
    # [D, D T*, ...] of the operator's tuple, built by the same sequential
    # products as the dense chain
    import wberg.hyper as hyper

    t = nilpotent_commuting_tuple(3, 6, 1, radius=0.5)[0]
    chains = []
    original = hyper.OperatorTuple.row_chain

    def counting(self, i, a, count):
        chains.append(count)
        return original(self, i, a, count)

    monkeypatch.setattr(hyper.OperatorTuple, "row_chain", counting)
    cf = char_function(t, B2)
    char_function_eval(cf, [0.3])
    key_identity_check(cf, [0.1, 0.2j], [0.3])
    partial_isometry_check(cf)
    assert chains == [cf.n_terms]
    assert np.array_equal(cf.rows, dense_row_chain(cf.defect_min, t.mat, cf.n_terms))


@pytest.mark.parametrize("op", [
    nilpotent_commuting_tuple(3, 6, 1, radius=0.5)[0].mat,
    np.array([[0.5 + 0.3j]]),
], ids=["nil6", "scalar"])
def test_char_function_rows_take_one_product_per_term_and_no_adjoint_stack(monkeypatch, op):
    # R_j = R_(j-1) T* is one product with T* per term past the first, and
    # no stack of T*^j is formed or held
    import wberg.hyper as hyper

    t_adj = op.conj().T
    products = []
    matmul = np.matmul

    def counting(a, b, *args, **kwargs):
        if b.shape == t_adj.shape and np.array_equal(b, t_adj):
            products.append(a.shape)
        return matmul(a, b, *args, **kwargs)

    stacked = []
    original = hyper._power_stack
    monkeypatch.setattr(hyper, "_power_stack",
                        lambda mat, count, prefix=None: stacked.append(mat)
                        or original(mat, count, prefix))
    monkeypatch.setattr(np, "matmul", counting)
    cf = char_function(op, B2)
    monkeypatch.undo()
    assert len(products) == cf.n_terms - 1
    assert all(shape == (cf.defect_dim, op.shape[0]) for shape in products)
    assert not any(np.array_equal(mat, t_adj) for mat in stacked)
    assert not hasattr(cf, "star_powers")
    assert not hasattr(hyper._OperatorStacks, "adjoints")
    assert cf.rows.shape == (cf.n_terms, cf.defect_dim, op.shape[0])


@pytest.mark.parametrize("name", ["charfn-nilpotent-bergman2", "charfn-nilpotent-hardy"])
def test_charfn_case_scans_each_operator_once(monkeypatch, name):
    # integer weights are classified by exact differences, which scan
    # nothing; run_charfn hands the case tuple to char_function, so the
    # dilate-pure horizon and the function's number of terms share one scan
    # of T, and U T U* takes T's number of terms
    import wberg.hyper as hyper
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_case

    scanned = []
    original = hyper._nilpotency_order
    monkeypatch.setattr(hyper, "_nilpotency_order",
                        lambda mat, cap: scanned.append(mat) or original(mat, cap))
    data = next(c for c in corpus_cases() if c["name"] == name)
    case = parse_case(data, name=name)
    ok, _ = run_case(case)
    assert ok and len(scanned) == 1
    assert np.array_equal(scanned[0], case.build_tuple(None)[0].mat)


def test_run_charfn_stacks_each_triple_once(monkeypatch):
    # a completed triple (for T and for U T U*) holds its completion as
    # factors, which block unitarity, the coefficients and the transport all
    # read, so run_charfn neither forms a completion nor stacks D blocks;
    # formed on demand, B and the rows of the D blocks are views of the one
    # completion and the blocks are views of those rows
    import wberg.charfn as charfn
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_charfn

    stacked, triples, formed = [], [], []
    original_stack, original_char_function = np.vstack, charfn.char_function
    original_completion = CharTriple.completion

    def counting(arrays, *args, **kwargs):
        out = original_stack(arrays, *args, **kwargs)
        stacked.append(out.shape)
        return out

    def recording(*args, **kwargs):
        cf = original_char_function(*args, **kwargs)
        triples.append(cf.triple)
        return cf

    monkeypatch.setattr(np, "vstack", counting)
    monkeypatch.setattr(charfn, "char_function", recording)
    monkeypatch.setattr(CharTriple, "completion",
                        lambda triple: formed.append(1) or original_completion(triple))
    data = next(c for c in corpus_cases() if c["name"] == "charfn-nilpotent-bergman2")
    case = parse_case(data, name=data["name"])
    t = case.build_tuple(None)
    ok, report = run_charfn(case, t)
    assert ok and report["coincidence"] and report["e_dim"] != t.dim
    assert len(triples) == 2
    assert formed == []
    e = report["e_dim"]
    assert all(shape[-1] != e for shape in stacked)
    for triple in triples:
        assert e % report["n_terms"] == 0
        assert triple.v.shape == (t.dim + e, t.dim) and triple.s.shape == (t.dim, t.dim)
        b, d_stack = blocks(triple)
        assert d_stack.shape[1] == report["e_dim"]
        assert d_stack.base is not None and d_stack.base is b.base
        assert all(np.shares_memory(blk, d_stack) for blk in np.split(d_stack, report["n_terms"]))
    assert stacked.count(blocks(triples[0])[1].shape) == 0


def test_run_charfn_certifies_tau_once(monkeypatch):
    # tau is certified by its d-sized bound, never formed: run_charfn calls
    # no _transition, decides the unitarity of u (d) and tau_* (r) only, and
    # takes no e-sized eigvalsh (block unitarity is read off a (d + k)-square
    # matrix, ||G||^2 off a d-square one, the partial isometry off its bound)
    import wberg.charfn as charfn
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_charfn

    transitions, unitary_sizes, eig_sizes = [], [], []
    original_transition = charfn._transition
    original_require = charfn._require_unitary
    original_eig = np.linalg.eigvalsh
    monkeypatch.setattr(charfn, "_transition",
                        lambda *a: transitions.append(1) or original_transition(*a))
    monkeypatch.setattr(charfn, "_require_unitary",
                        lambda u, *r: unitary_sizes.append(u.shape[1]) or original_require(u, *r))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *r: eig_sizes.append(min(a.shape)) or original_eig(a, *r))
    data = next(c for c in corpus_cases() if c["name"] == "charfn-nilpotent-bergman2")
    case = parse_case(data, name=data["name"])
    t = case.build_tuple(None)
    ok, report = run_charfn(case, t)
    e_dim = report["e_dim"]
    assert ok and report["coincidence"]
    assert e_dim > t.dim
    assert transitions == []
    assert unitary_sizes == [t.dim, t.dim]  # the defect of this case has full rank
    assert [size for size in eig_sizes if size >= e_dim] == []


def test_run_charfn_makes_no_large_svd(monkeypatch):
    # the range orthogonality of the d x (n_terms e_dim) correlation is read
    # off its d-square Gram matrix, not off an SVD of the correlation
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_charfn

    shapes = []
    original_svd, original_norm = np.linalg.svd, np.linalg.norm

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return original_svd(a, *args, **kwargs)

    def norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            shapes.append(np.shape(x))
        return original_norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "norm", norm)
    data = next(c for c in corpus_cases() if c["name"] == "charfn-nilpotent-bergman2")
    case = parse_case(data, name=data["name"])
    ok, report = run_charfn(case, case.build_tuple(None))
    assert ok and shapes
    assert max(max(shape) for shape in shapes) < report["n_terms"] * report["e_dim"]


def test_run_charfn_factors_each_completion_cross_once(monkeypatch):
    # block_unitarity is held on the function: the report, the split bound
    # and the transport bound read one thin QR of Y* X per function, one for
    # T and one for U T U*
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_charfn

    shapes = []
    original = np.linalg.qr

    def qr(a, mode="reduced"):
        if mode == "r":
            shapes.append(np.shape(a))
        return original(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", qr)
    data = next(c for c in corpus_cases() if c["name"] == "charfn-nilpotent-bergman2")
    case = parse_case(data, name=data["name"])
    t = case.build_tuple(None)
    ok, report = run_charfn(case, t)
    assert ok
    assert shapes == [(report["e_dim"], t.dim)] * 2
    cf = char_function(t, case.weights[0])
    shapes.clear()
    assert block_unitarity(cf) == cf.unitarity[0]
    partial_isometry_check(cf)
    assert block_unitarity(cf) == report["block_unitarity"]
    assert len(shapes) == 1


@pytest.mark.parametrize("data", [
    "charfn-nilpotent-bergman2",
    {"name": "charfn-b2-nil16", "weights": "bergman:2", "tuple": "nilpotent:5:16:1:0.5",
     "degrees": [8], "seed": 5, "run": ["charfn"]},
], ids=["corpus-nilpotent-bergman2", "bergman2-nil16"])
def test_charfn_accepting_path_takes_no_completion_sized_eigensolve(monkeypatch, data):
    # on the accepting path every eigensolve is at most (d + min(e, d))-square,
    # the size block_unitarity reads its residual off; the split is certified
    # by its bound and never assembled
    import wberg.hyper as hyper
    import wberg.linalg as linalg
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_case

    if isinstance(data, str):
        data = next(c for c in corpus_cases() if c["name"] == data)
    sizes = []
    original_eigvalsh, original_eigh = linalg._eigvalsh, np.linalg.eigh

    def eigvalsh(h):
        sizes.append(h.shape[0])
        return original_eigvalsh(h)

    def eigh(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return original_eigh(a, *args, **kwargs)

    # the multishift check of bergman runs no eigensolve of its own
    for module in (linalg, hyper):
        monkeypatch.setattr(module, "_eigvalsh", eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    case = parse_case(dict(data), name=data["name"])
    d = case.build_tuple(None).dim
    ok, report = run_case(case)
    e = report["steps"]["charfn"]["e_dim"]
    assert ok and sizes and e > d
    assert max(sizes) <= d + min(e, d), (max(sizes), d, e)


def _off_unitary(u, size, shape):
    """``u`` times ``I + eps P`` with ``||(u')* u' - I|| = size``.

    ``P`` is a rank-one projector (the gap has one nonzero singular value)
    or the identity (the gap is ``size I``), so the Frobenius decision meets
    both the window it must leave to the SVD and the bounds it decides alone.
    """
    n = u.shape[1]
    eps = np.sqrt(1.0 + size) - 1.0
    if shape == "rank-one":
        v = np.zeros(n)
        v[n // 2] = 1.0
        p = np.outer(v, v)
    else:
        p = np.eye(n)
    return u @ (np.eye(n) + eps * p)


def _gap_norm(u):
    return hermitian_norm(u.conj().T @ u - np.eye(u.shape[1]))


@pytest.mark.parametrize("shape", ["rank-one", "scalar"])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_uniqueness_unitary_threshold_matches_hermitian_norm(factor, shape):
    bound = 10 * CHAR_TOL
    t = nilpotent_commuting_tuple(10, 5, 1, radius=0.5)[0]
    t1 = char_function(t, B2, 12).triple
    u = _off_unitary(random_unitary(123, t1.e_dim).mat, factor * bound, shape)
    t2 = rotated(t1, u)
    transition = t1.completion().conj().T @ t2.completion()
    res = _gap_norm(transition)
    assert abs(res - factor * bound) < 1e-3 * bound
    if res <= bound:
        solved = uniqueness_unitary(t1, t2)
        assert np.array_equal(solved, transition)
    else:
        with pytest.raises(NotUnitaryInput) as err:
            uniqueness_unitary(t1, t2)
        assert f"(residual {res:.3e})" in str(err.value)
    assert (res <= bound) == (factor < 1)


@pytest.mark.parametrize("shape", ["rank-one", "scalar"])
@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("which", ["u", "tau_star"])
def test_coincidence_unitarity_threshold_matches_hermitian_norm(which, factor, shape):
    bound = 10 * CHAR_TOL
    t = nilpotent_commuting_tuple(25, 5, 1, radius=0.5)[0]
    cf = char_function(t, B2)
    u = random_unitary(89, t.rows).mat
    cf2 = conjugated(cf, u)
    if which == "u":
        u = _off_unitary(u, factor * bound, shape)
        off = u
    else:
        # tau_* = basis2* u basis1 takes on a perturbation of the first basis
        basis = _off_unitary(cf.defect_basis, factor * bound, shape)
        cf = dataclasses.replace(cf, defect_basis=basis)
        off = cf2.defect_basis.conj().T @ u @ basis
    res = _gap_norm(off)
    assert abs(res - factor * bound) < 1e-3 * bound
    if res <= bound:
        # the transport bound decides tau alone, and the exact value agrees
        transport, exact = transport_bound_and_exact(cf, cf2, u)
        assert exact <= transport <= bound
        _, co_res = coincidence_verify(cf, cf2, u, [0.3])
        assert co_res < 1e-6
    else:
        with pytest.raises(NotUnitaryInput) as err:
            coincidence_verify(cf, cf2, u, [0.3])
        assert f"(residual {res:.3e})" in str(err.value)
    assert (res <= bound) == (factor < 1)


def transport_bound_and_exact(cf, cf2, u) -> tuple[float, float]:
    """The d-sized bound on ``||tau* tau - I||`` that ``coincidence_verify``
    decides on, here with the exact residuals of ``u`` and ``tau_*``, and the
    e-sized value of the formed ``tau = Yt* Y2``."""
    import wberg.charfn as charfn

    r, e = cf.defect_dim, cf.triple.e_dim
    tau_star = cf2.defect_basis.conj().T @ u @ cf.defect_basis
    b, d_stack = blocks(cf.triple)
    bt = u @ b
    dt = (tau_star @ d_stack.reshape(-1, r, e)).reshape(-1, e)
    eps = max(_gap_norm(u), _gap_norm(tau_star))
    b2, d2 = blocks(cf2.triple)
    tau = bt.conj().T @ b2 + dt.conj().T @ d2
    return charfn._transport_bound(cf, cf2, u, tau_star, eps), _gap_norm(tau)


TRANSPORT_FAMILIES = {
    "scalar0.5-hardy": lambda: (np.array([[0.5]]), HARDY),
    "scalar0.9j-bergman2": lambda: (np.array([[0.9j]]), B2),
    "scalar0.95-bergman2.5": lambda: (np.array([[0.95 * np.exp(1j)]]), WeightSpec.bergman(2.5)),
    "scalar-0.6-bergman1.5": lambda: (np.array([[-0.6]]), WeightSpec.bergman(1.5)),
    "nil3-hardy": lambda: (nilpotent_commuting_tuple(31, 3, 1, radius=0.5)[0].mat, HARDY),
    "nil6-bergman2": lambda: (nilpotent_commuting_tuple(32, 6, 1, radius=0.5)[0].mat, B2),
    "nil10-bergman3": lambda: (nilpotent_commuting_tuple(33, 10, 1, radius=0.4)[0].mat, B3),
    "nil16-bergman2": lambda: (nilpotent_commuting_tuple(34, 16, 1, radius=0.5)[0].mat, B2),
    "nil8-bergman1.5": lambda: (nilpotent_commuting_tuple(35, 8, 1, radius=0.5)[0].mat,
                                WeightSpec.bergman(1.5)),
}


@pytest.mark.parametrize("name", ["charfn-nilpotent-bergman2", "charfn-nilpotent-hardy",
                                  *TRANSPORT_FAMILIES])
def test_transport_bound_covers_the_formed_tau(name):
    bound = 10 * CHAR_TOL
    if name in TRANSPORT_FAMILIES:
        op, spec = TRANSPORT_FAMILIES[name]()
        cf = char_function(op, spec)
    else:
        cf = _corpus_function(name)
    u = random_unitary(sum(map(ord, name)), cf.t.shape[0]).mat
    cf2 = conjugated(cf, u)
    transport, exact = transport_bound_and_exact(cf, cf2, u)
    # the bound holds, leaves the rounding of the formed tau far below the
    # threshold and so takes the same decision
    assert exact <= transport <= bound
    ok, res = coincidence_verify(cf, cf2, u, [0.3, -0.25 + 0.2j])
    assert ok and res < 1e-12
    # and off the rounding level: a transport off unitary by 1e-6, which
    # both the bound and the formed tau reject
    off = _off_unitary(u, 1e-6, "scalar")
    transport, exact = transport_bound_and_exact(cf, cf2, off)
    assert bound < exact <= transport


def extended_defect(triple) -> float:
    """``||W Delta W*||_F`` of the held factors in extended precision, the
    reference for the double-precision defect: ``Delta = S* G S - S - S*``,
    ``G = V* V`` and ``W Delta W*`` formed in ``clongdouble``."""
    v = triple.v.astype(np.clongdouble)
    s = triple.s.astype(np.clongdouble)
    w = triple.w.astype(np.clongdouble)
    delta = s.conj().T @ (v.conj().T @ v) @ s - s - s.conj().T
    return float(np.linalg.norm((w @ delta @ w.conj().T).astype(complex)))


@pytest.mark.parametrize("name", ["charfn-nilpotent-bergman2", "bergman2.5-scalar0.95",
                                  "bergman2-nil16"])
def test_completion_orthogonality_bounds_the_computed_completion(name):
    # the held defect ||Y* Y - I||_F of Y = E - V S W*, read off d-square
    # products, is within its rounding allowance of the same defect taken
    # in extended precision, stays far below CHAR_TOL, and with the rounding
    # of forming Y and its e-square Gram added bounds the formed defect
    cf = reference_function(name)
    triple = cf.triple
    value, allowance = triple.orthogonality
    assert abs(value - extended_defect(triple)) <= allowance
    assert value + allowance < 1e-2 * CHAR_TOL
    y = triple.completion()
    rows, k = triple.v.shape
    e = triple.e_dim
    formed = float(np.linalg.norm(y.conj().T @ y - np.eye(e)))
    size = np.linalg.norm(np.abs(triple.v) @ np.abs(triple.s)) * np.linalg.norm(triple.w)
    forming = _gamma(2 * k + 5) * (size + math.sqrt(e))
    gram = _gamma(rows + 3) * (np.linalg.norm(y) ** 2 + math.sqrt(e))
    assert formed <= value + allowance + 2.0 * (1.0 + forming) * forming + gram


FACTOR_WEIGHTS = {
    "hardy": HARDY,
    "bergman2": B2,
    "bergman2.5": WeightSpec.bergman(2.5),
    "explicit": WeightSpec.from_values(1.0 / (k + 1) ** 1.5 for k in range(40)),
}


@functools.cache
def factor_function(weight: str, d: int):
    op = (np.array([[0.3 * np.exp(0.7j)]]) if d == 1
          else nilpotent_commuting_tuple(40 + d, d, 1, radius=0.5)[0].mat)
    return char_function(op, FACTOR_WEIGHTS[weight])


@pytest.mark.parametrize("d", [1, 5, 16])
@pytest.mark.parametrize("weight", FACTOR_WEIGHTS)
def test_completion_factors_match_the_complete_qr(weight, d):
    # Y = E - V S W* of the held factors is the trailing block of the
    # complete QR factor of X = [T*; C], and its defect from d-square
    # products is within its allowance of the extended-precision one
    cf = factor_function(weight, d)
    x = np.vstack([cf.t.conj().T, cf.column_map])
    reference = np.linalg.qr(x, mode="complete")[0][:, d:]
    assert cf.triple.v.shape == (x.shape[0], d) and cf.triple.e_dim == x.shape[0] - d
    assert np.max(np.abs(cf.triple.completion() - reference)) <= 1e-14
    value, allowance = cf.triple.orthogonality
    assert abs(value - extended_defect(cf.triple)) <= allowance < 1e-2 * CHAR_TOL


def dense_coefficients(cf) -> np.ndarray:
    """``Theta_k = sqrt(rho_k) D_k + v_(k-1) R_(k-1) B`` from the formed
    completion, ``k = 0 .. n_terms``."""
    n = cf.n_terms
    b, _ = blocks(cf.triple)
    out = np.zeros((n + 1, cf.defect_dim, cf.triple.e_dim), dtype=complex)
    out[:n] = np.sqrt(rho_sequence(cf.omega, n))[:, None, None] * np.stack(d_blocks(cf))
    out[1:] += cf.omega.inverse_weight_values(n)[:, None, None] * (cf.rows @ b)
    return out


@pytest.mark.parametrize("d", [1, 5, 16])
@pytest.mark.parametrize("weight", FACTOR_WEIGHTS)
def test_structured_coefficients_match_the_dense_ones(weight, d):
    # Theta_k = sqrt(rho_k) J_k + Lambda_k W* and theta(z) = kron(a(z), I_r)
    # + L(z) W* agree with the coefficients formed from the dense completion,
    # with their multiplier matrices and with the function summed from them
    cf = factor_function(weight, d)
    structured, dense = cf.coefficients(), dense_coefficients(cf)
    assert np.max(np.abs(structured - dense)) <= 1e-13
    points = [0.0, 0.3, -0.25 + 0.2j, 0.45j]
    values = char_function_eval(cf, points)
    for z, value in zip(points, values):
        summed = np.tensordot(z ** np.arange(cf.n_terms + 1), dense, 1)
        assert np.max(np.abs(value - summed)) <= 1e-13
    n, r, e = cf.n_terms, cf.defect_dim, cf.triple.e_dim
    if n * e <= 4000:  # the dense multiplier has n e columns
        target = TruncatedSpace(MultiWeightSpec.of(cf.omega), (n,), coeff_dim=r)
        source = TruncatedSpace(MultiWeightSpec.of(HARDY), (n,), coeff_dim=e)
        m_structured = multiplier_matrix(list(structured), source, target)
        m_dense = multiplier_matrix(list(dense), source, target)
        assert np.max(np.abs(m_structured - m_dense)) <= 1e-13


def test_run_charfn_forms_no_completion_square(monkeypatch):
    # bergman:2.5 at 0.95 completes at e = 507 from d = 1: the case holds no
    # e-square array at any time and makes no complete QR
    import tracemalloc

    from wberg.config import parse_case
    from wberg.pipelines import run_charfn

    modes = []
    original = np.linalg.qr

    def qr(a, mode="reduced"):
        modes.append(mode)
        return original(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", qr)
    case = parse_case({"weights": "bergman:2.5", "tuple": "scalars:[0.95]", "degrees": [8],
                       "seed": 1, "run": ["charfn"]}, name="guard")
    t = case.build_tuple(None)
    tracemalloc.start()
    try:
        ok, report = run_charfn(case, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    e = report["e_dim"]
    assert ok and e == 507
    assert peak < e * e * 16, peak
    assert modes and "complete" not in modes


# ---------------------------------------------------------------------------
# small-side residuals against their dense routes
# ---------------------------------------------------------------------------



def _corpus_function(name: str):
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases

    data = next(c for c in corpus_cases() if c["name"] == name)
    case = parse_case(data, name=name)
    return char_function(case.build_tuple(None)[0], case.weights[0])


REFERENCE_CASES = {
    "charfn-nilpotent-bergman2": lambda: _corpus_function("charfn-nilpotent-bergman2"),
    "charfn-nilpotent-hardy": lambda: _corpus_function("charfn-nilpotent-hardy"),
    # the two workload shapes: n_terms = 507, and d = 16
    "bergman2.5-scalar0.95": lambda: char_function(np.array([[0.95]]), WeightSpec.bergman(2.5)),
    "bergman2-nil16": lambda: char_function(
        nilpotent_commuting_tuple(1, 16, 1, radius=0.5)[0], B2),
    # n_terms cut short: the column identity, 1.7e-10, dominates the residual
    "bergman2-scalar0.5-cut16": lambda: char_function(np.array([[0.5]]), B2, 16),
}


@functools.cache
def reference_function(name: str):
    return REFERENCE_CASES[name]()


def dense_block_unitarity(cf) -> tuple[float, float, float]:
    """Reference route: ``||U* U - I||`` and ``||U U* - I||`` of the assembled
    square ``U = [[T*, B], [C, D]]``, and ``||Y* Y - I||`` of ``Y = [B; D]``."""
    y = cf.triple.completion()
    u = np.hstack([np.vstack([cf.t.conj().T, cf.column_map]), y])
    assert u.shape[0] == u.shape[1]
    eye = np.eye(u.shape[0])
    return (
        hermitian_norm(u.conj().T @ u - eye),
        hermitian_norm(u @ u.conj().T - eye),
        hermitian_norm(y.conj().T @ y - np.eye(y.shape[1])),
    )


def concatenated_range_orthogonality(cf) -> float:
    """Reference route: the SVD norm of ``pi* M`` with block ``a`` summed term by term."""
    n = cf.n_terms
    theta = cf.coefficients()[:n]
    adj = cf.rows.conj().transpose(0, 2, 1)
    cross = np.concatenate(
        [np.tensordot(adj[a:], theta[:n - a], axes=([0, 2], [0, 1])) for a in range(n)], axis=1
    )
    return opnorm(cross)


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_block_unitarity_matches_dense_route(name):
    cf = reference_function(name)
    right, left, completion = dense_block_unitarity(cf)
    # U is square, so U U* and U* U share their spectrum and one side suffices
    assert abs(left - right) < 1e-13
    # dropping the block Y* Y - I moves the norm by at most its own norm (Weyl)
    got = block_unitarity(cf)
    assert abs(got - right) <= completion + 64 * EPS, (got, right, completion)
    if name.endswith("-cut16"):
        assert 1e-11 < cf.column_identity < 1e-8
        assert abs(got - right) <= 1e-6 * right
    # a column map off the isometry gives residuals far above rounding, on
    # which the reduction must hold as well: X* X - I and Y* X are both nonzero
    rng = np.random.default_rng(11)
    c = cf.column_map
    bad = dataclasses.replace(cf, column_map=c + 1e-3 * rng.standard_normal(c.shape))
    right, _, completion = dense_block_unitarity(bad)
    got = block_unitarity(bad)
    assert right > 1e-4
    assert abs(got - right) <= completion + 64 * EPS, (got, right, completion)


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_range_orthogonality_matches_concatenated_route(name):
    cf = reference_function(name)
    got = partial_isometry_check(cf)["range_orthogonality"]
    ref = concatenated_range_orthogonality(cf)
    assert abs(got - ref) < 1e-13, (got, ref)
    if name == "bergman2.5-scalar0.95":
        # truncation at n_terms = 507 dominates the value (8.2e-11); the two
        # routes round differently, at the level to which the value is
        # determined by its double-precision inputs (about 1e-9 relative)
        assert ref > 1e-11
        assert abs(got - ref) <= 1e-8 * ref, (got, ref)
