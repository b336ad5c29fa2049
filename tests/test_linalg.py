"""Dense linear-algebra kernel: adjoints, PSD machinery, Douglas solves, completions."""

import numpy as np
import pytest

from wberg.errors import NotHermitian, NotIsometry, NotPsd, NotSubordinate
from wberg.generators import Lcg, nilpotent_commuting_tuple, random_unitary
from wberg.linalg import (
    Operator,
    adjoint,
    complete_to_unitary,
    douglas_solve,
    hermitian_norm,
    kron,
    psd_check,
    psd_root_pieces,
    psd_sqrt,
    range_basis,
    threshold_norm,
)


def random_matrix(seed, rows, cols):
    return Lcg(seed).complex_matrix(rows, cols)


def opnorm(mat):
    return float(np.linalg.norm(mat, 2))


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_operator_validation():
    with pytest.raises(ValueError):
        Operator(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Operator([[np.inf, 0], [0, 1]])
    a = Operator([[1, 2], [3, 4], [5, 6]])
    assert (a.rows, a.cols) == (3, 2)


def test_adjoint_examples():
    assert np.array_equal(adjoint(Operator.identity(3)).mat, np.eye(3))
    a = adjoint(Operator([[0, 1], [0, 0]]))
    assert np.array_equal(a.mat, [[0, 0], [1, 0]])
    assert adjoint(Operator([[1j]])).mat[0, 0] == -1j


def test_roundtrip_dict():
    a = Operator(random_matrix(3, 3, 2))
    b = Operator.from_dict(a.to_dict())
    assert np.array_equal(a.mat, b.mat)


# ---------------------------------------------------------------------------
# psd check / sqrt
# ---------------------------------------------------------------------------

def test_psd_check_identity():
    cert = psd_check(Operator.identity(4), 1e-10)
    assert cert.verdict and cert.min_eigenvalue == pytest.approx(1.0)


def test_psd_check_indefinite():
    cert = psd_check(Operator(np.diag([1.0, -0.5])), 1e-10)
    assert not cert.verdict
    assert cert.min_eigenvalue == pytest.approx(-0.5)


def test_psd_check_shift_projection():
    s = np.diag(np.ones(2), -1)  # 3x3 nilpotent shift
    cert = psd_check(Operator(np.eye(3) - s @ s.conj().T), 1e-12)
    assert cert.verdict
    assert cert.min_eigenvalue == pytest.approx(0.0, abs=1e-14)


def test_psd_check_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        psd_check(Operator([[0, 1], [0, 0]]), 1e-10)


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(Operator.identity(3)).mat, np.eye(3))
    assert np.allclose(psd_sqrt(Operator(np.diag([4.0, 9.0]))).mat, np.diag([2.0, 3.0]))
    p = np.zeros((3, 3), dtype=complex)
    p[0, 0] = p[2, 2] = 1.0
    assert np.allclose(psd_sqrt(Operator(p)).mat, p)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPsd):
        psd_sqrt(Operator(np.diag([1.0, -1e-3])), tol=1e-8)


@pytest.mark.parametrize("dim", [2, 8, 64])
def test_psd_sqrt_reconstructs_random_psd(dim):
    m = random_matrix(dim, dim, dim)
    a = Operator(m @ m.conj().T)
    tol = 1e-8
    r = psd_sqrt(a, tol)
    assert r.is_hermitian(1e-12)
    assert opnorm((r @ r).mat - a.mat) <= 10 * tol * max(1.0, a.norm())


def test_psd_root_pieces_kills_noise_rank():
    noise = 1e-14 * np.eye(3)
    root, basis = psd_root_pieces(Operator(noise))
    assert basis.cols == 0
    assert root.norm() < 1e-6


# ---------------------------------------------------------------------------
# norm primitives
# ---------------------------------------------------------------------------

def _hermitian(seed, dim, scale=1.0):
    m = random_matrix(seed, dim, dim)
    return scale * (m + m.conj().T)


def _near_isometry_residual(seed, rows, cols, noise):
    q, _ = np.linalg.qr(random_matrix(seed, rows, cols))
    x = q + noise * random_matrix(seed + 1, rows, cols)
    return x.conj().T @ x - np.eye(cols)


def _assert_svd_norm(h):
    exact = opnorm(h)
    assert abs(hermitian_norm(h) - exact) <= 16 * h.shape[0] * np.finfo(float).eps * exact


@pytest.mark.parametrize("dim", [2, 7, 40, 128])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
def test_hermitian_norm_matches_svd_norm(dim, scale):
    _assert_svd_norm(_hermitian(dim, dim, scale))


@pytest.mark.parametrize("dim", [2, 7, 40, 128])
@pytest.mark.parametrize("noise", [1e-10, 1e-6, 1e-3])
def test_hermitian_norm_of_near_isometry_residuals(dim, noise):
    # G - I is Hermitian up to the rounding of the product G = X* X
    _assert_svd_norm(_near_isometry_residual(dim, dim + 5, dim, noise))


def test_hermitian_norm_edge_sizes():
    assert hermitian_norm(np.zeros((0, 0), dtype=complex)) == 0.0
    assert hermitian_norm(np.array([[-2.5 + 0j]])) == 2.5
    assert hermitian_norm(np.array([[3.0]])) == 3.0
    # a zero residual reads +0.0, never -0.0, in reports
    assert str(hermitian_norm(np.zeros((1, 1), dtype=complex))) == "0.0"
    # the negative end of the spectrum counts as much as the positive one
    assert hermitian_norm(np.diag([0.5, -4.0, 1.0])) == 4.0


def _threshold_cases():
    rng = np.random.default_rng(5)
    for dim in (1, 3, 16, 60):
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v = rng.standard_normal(dim + 2) + 1j * rng.standard_normal(dim + 2)
        yield np.outer(u, v.conj())  # rank one: F equals the 2-norm
        yield 0.37 * np.eye(dim, dtype=complex)  # F = sqrt(n) ||M||
        yield random_matrix(dim, dim, dim)


def test_threshold_norm_decides_like_the_spectral_norm():
    for m in _threshold_cases():
        exact = opnorm(m)
        fro = float(np.linalg.norm(m))
        low = fro / np.sqrt(min(m.shape))
        # both ends of the Frobenius window, its middle, and far outside it
        for mark in (exact, fro, low, 0.5 * (fro + low), 0.1 * low, 10.0 * fro):
            for bound in (mark * (1 - 1e-6), mark, mark * (1 + 1e-6)):
                if abs(bound - exact) <= 1e-12 * exact:
                    continue  # a tie, which rounding in the SVD itself decides
                value = threshold_norm(m, bound)
                assert (value < bound) == (exact < bound)
                assert (value <= bound) == (exact <= bound)
                assert (value > bound) == (exact > bound)


def test_threshold_norm_skips_the_svd_outside_the_window():
    m = random_matrix(8, 12, 9)
    fro = float(np.linalg.norm(m))
    assert threshold_norm(m, 2.0 * fro) == fro
    assert threshold_norm(m, 0.1 * fro / 3.0) == fro / 3.0
    assert threshold_norm(np.zeros((0, 4)), 1.0) == 0.0


def _two_svd_is_hermitian(a, tol):
    return opnorm(a - a.conj().T) <= tol * max(1.0, opnorm(a))


def test_is_hermitian_agrees_with_the_two_svd_test():
    rng = np.random.default_rng(11)
    verdicts = []
    for k in range(200):
        dim = int(rng.integers(1, 24))
        tol = float(10.0 ** rng.uniform(-12, -6))
        h = _hermitian(1000 + k, dim, float(10.0 ** rng.uniform(-2, 3)))
        skew = random_matrix(2000 + k, dim, dim)
        skew = skew - skew.conj().T
        # skew parts from well inside to well outside the tolerance band
        size = tol * max(1.0, opnorm(h)) * float(10.0 ** rng.uniform(-1.5, 1.5))
        a = h + size * skew / opnorm(skew)
        expected = _two_svd_is_hermitian(a, tol)
        assert Operator(a).is_hermitian(tol) == expected
        verdicts.append(expected)
    assert 40 < sum(verdicts) < 160


# ---------------------------------------------------------------------------
# douglas solve
# ---------------------------------------------------------------------------

def test_douglas_identity_gram():
    m = random_matrix(1, 3, 3)
    t = Operator(0.5 * m / opnorm(m))
    a = douglas_solve(Operator.identity(3), t.H)
    # A* G = F with G = I gives A* = T*, so A = T
    assert np.allclose(a.mat, t.mat, atol=1e-12)


def test_douglas_zero():
    a = douglas_solve(Operator.zeros(3), Operator.zeros(3))
    assert a.norm() == 0.0


def test_douglas_defect_instance_against_lstsq_oracle():
    # the canonical use: D T* = A* D for the defect of a pure pair
    pair = nilpotent_commuting_tuple(21, 6, 2, radius=0.5)
    from wberg.series import WeightSpec
    from wberg.dilation import _defect_sqrt_pieces

    _, _, dmin = _defect_sqrt_pieces(pair[0], WeightSpec.hardy(), 1e-9)
    f = dmin @ pair[1].H
    a = douglas_solve(dmin, f)
    assert a.norm() <= 1.0 + 1e-9
    assert (a.H @ dmin - f).norm() < 1e-9
    # independent least-squares oracle for A* G = F  <=>  G* A = F*
    oracle_a, *_ = np.linalg.lstsq(dmin.mat.conj().T, f.mat.conj().T, rcond=None)
    assert np.allclose(a.mat, oracle_a, atol=1e-9)


def test_douglas_norm_bound_random():
    for seed in range(5):
        g = Operator(random_matrix(seed, 4, 6))
        c = Operator(0.9 * random_matrix(seed + 50, 4, 4) / opnorm(random_matrix(seed + 50, 4, 4)))
        f = c.H @ g  # guarantees F*F <= G*G
        a = douglas_solve(g, f)
        assert a.norm() <= 1.0 + 1e-9
        assert (a.H @ g - f).norm() < 1e-9


def test_douglas_rejects_unsubordinated():
    with pytest.raises(NotSubordinate):
        douglas_solve(Operator(np.diag([1.0, 0.0])), Operator(np.diag([1.0, 1.0])))


# ---------------------------------------------------------------------------
# completion to a unitary
# ---------------------------------------------------------------------------

def test_complete_first_column():
    x = Operator(np.eye(2)[:, :1])
    e_dim, y = complete_to_unitary(x)
    assert e_dim == 1
    assert abs(abs(y.mat[1, 0]) - 1.0) < 1e-12


def test_complete_square_unitary():
    u = random_unitary(4, 5)
    e_dim, y = complete_to_unitary(u)
    assert e_dim == 0 and y.cols == 0


def test_complete_middle_vector_spans_complement():
    x = Operator(np.array([[0.0], [1.0], [0.0]]))
    e_dim, y = complete_to_unitary(x)
    assert e_dim == 2
    # span check, not basis check: the complement misses the middle coordinate
    proj = y.mat @ y.mat.conj().T
    expected = np.diag([1.0, 0.0, 1.0])
    assert np.allclose(proj, expected, atol=1e-12)


@pytest.mark.parametrize("rows,cols", [(5, 2), (7, 7), (9, 1)])
def test_completion_is_unitary(rows, cols):
    m = random_matrix(rows * 11 + cols, rows, cols)
    q, _ = np.linalg.qr(m)
    x = Operator(q[:, :cols])
    e_dim, y = complete_to_unitary(x, tol=1e-9)
    full = np.hstack([x.mat, y.mat])
    eye = np.eye(rows)
    assert e_dim == rows - cols
    assert opnorm(full.conj().T @ full - eye) <= 1e-8
    assert opnorm(full @ full.conj().T - eye) <= 1e-8


def test_complete_rejects_non_isometry():
    with pytest.raises(NotIsometry):
        complete_to_unitary(Operator([[0.5], [0.5]]), tol=1e-9)
    with pytest.raises(NotIsometry):
        complete_to_unitary(Operator(np.eye(2, 3)))  # rows < cols


def test_completion_deterministic():
    x = Operator(np.linalg.qr(random_matrix(77, 6, 2))[0][:, :2])
    _, y1 = complete_to_unitary(x)
    _, y2 = complete_to_unitary(x)
    assert np.array_equal(y1.mat, y2.mat)


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------

def test_kron_identities():
    assert np.array_equal(kron(Operator.identity(2), Operator.identity(3)).mat, np.eye(6))
    b = Operator(random_matrix(2, 2, 2))
    e11 = Operator(np.diag([1.0, 0.0]))
    blk = kron(e11, b).mat
    assert np.allclose(blk[:2, :2], b.mat) and opnorm(blk[2:, 2:]) == 0.0


def test_kron_adjoint_and_mixed_product():
    a = Operator(random_matrix(31, 2, 3))
    b = Operator(random_matrix(32, 3, 2))
    c = Operator(random_matrix(33, 3, 2))
    d = Operator(random_matrix(34, 2, 3))
    assert np.allclose(kron(a, b).H.mat, kron(a.H, b.H).mat)
    lhs = (kron(a, b) @ kron(c, d)).mat
    rhs = kron(a @ c, b @ d).mat
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_range_basis_rank():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 2.0
    m[1, 1] = 1e-15
    basis = range_basis(Operator(m))
    assert basis.cols == 1
    assert abs(abs(basis.mat[0, 0]) - 1.0) < 1e-12


def test_spectral_primitives_bitwise_deterministic():
    m = random_matrix(55, 6, 6)
    a = Operator(m @ m.conj().T)
    r1 = psd_sqrt(a)
    r2 = psd_sqrt(a)
    assert np.array_equal(r1.mat, r2.mat)
    g = Operator(random_matrix(56, 4, 6))
    f = Operator(0.5 * g.mat)
    d1 = douglas_solve(g, f)
    d2 = douglas_solve(g, f)
    assert np.array_equal(d1.mat, d2.mat)
