"""Dense linear algebra: the validated Operator, PSD machinery, Douglas solves, completions."""

import numpy as np
import pytest

from wberg.errors import NotHermitian, NotIsometry, NotPsd, NotSubordinate
from wberg.generators import Lcg, nilpotent_commuting_tuple, random_unitary
from wberg.linalg import (
    RANK_TOL,
    Operator,
    _eigvalsh,
    _is_diagonal,
    complement_columns,
    complete_to_unitary,
    douglas_solve,
    hermitian_norm,
    psd_check,
    psd_root_pieces,
    psd_sqrt,
    spectral_norm,
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


def test_operator_is_read_only_and_shared_by_asarray():
    src = random_matrix(4, 3, 3)
    a = Operator(src)
    src[0, 0] = 99.0  # the constructor copied its input
    assert a.mat[0, 0] != 99.0
    assert not a.mat.flags.writeable
    with pytest.raises(ValueError):
        a.mat[0, 0] = 1.0
    # np.asarray hands out the stored matrix itself; np.array still copies
    assert np.asarray(a) is a.mat
    assert np.asarray(a, dtype=complex) is a.mat
    copied = np.array(a)
    assert copied is not a.mat and copied.flags.writeable
    assert np.array_equal(copied, a.mat)
    assert np.asarray(a, dtype=complex).dtype == complex


def test_roundtrip_dict():
    a = Operator(random_matrix(3, 3, 2))
    b = Operator.from_dict(a.to_dict())
    assert np.array_equal(a.mat, b.mat)


# ---------------------------------------------------------------------------
# psd check / sqrt
# ---------------------------------------------------------------------------

def test_psd_check_identity():
    cert = psd_check(np.eye(4), 1e-10)
    assert cert.verdict and cert.min_eigenvalue == pytest.approx(1.0)


def test_psd_check_indefinite():
    cert = psd_check(np.diag([1.0, -0.5]), 1e-10)
    assert not cert.verdict
    assert cert.min_eigenvalue == pytest.approx(-0.5)


def test_psd_check_shift_projection():
    s = np.diag(np.ones(2), -1)  # 3x3 nilpotent shift
    cert = psd_check(np.eye(3) - s @ s.conj().T, 1e-12)
    assert cert.verdict
    assert cert.min_eigenvalue == pytest.approx(0.0, abs=1e-14)


def test_psd_check_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        psd_check(np.array([[0, 1], [0, 0]]), 1e-10)


def test_psd_sqrt_examples():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    p = np.zeros((3, 3), dtype=complex)
    p[0, 0] = p[2, 2] = 1.0
    assert np.allclose(psd_sqrt(p), p)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPsd):
        psd_sqrt(np.diag([1.0, -1e-3]), tol=1e-8)


@pytest.mark.parametrize("dim", [2, 8, 64])
def test_psd_sqrt_reconstructs_random_psd(dim):
    m = random_matrix(dim, dim, dim)
    a = m @ m.conj().T
    tol = 1e-8
    r = psd_sqrt(a, tol)
    assert Operator(r).is_hermitian(1e-12)
    assert opnorm(r @ r - a) <= 10 * tol * max(1.0, opnorm(a))


def test_psd_root_pieces_kills_noise_rank():
    noise = 1e-14 * np.eye(3)
    root, basis = psd_root_pieces(noise)
    assert basis.shape[1] == 0
    assert spectral_norm(root) < 1e-6


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


def _diagonal_cases():
    rng = np.random.default_rng(17)
    yield "1x1", np.array([-2.5])
    yield "empty", np.zeros(0)
    yield "repeated", np.array([0.75, 2.0, 0.75, 0.75, 2.0])
    yield "negative", -np.abs(rng.standard_normal(6))
    yield "exact-zeros", np.array([0.0, 3.0, 0.0, -1.0, 0.0])
    yield "144", rng.standard_normal(144) * 10.0 ** rng.integers(-8, 8, size=144)


@pytest.mark.parametrize("values", [v for _, v in _diagonal_cases()],
                         ids=[k for k, _ in _diagonal_cases()])
def test_eigvalsh_reads_a_diagonal_matrix_off_its_diagonal(monkeypatch, values):
    # the values, sorted, are what LAPACK returns for the matrix, bit for bit
    h = np.diag(values).astype(complex)
    expected = np.linalg.eigvalsh(h)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigensolve"))
    got = _eigvalsh(h)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    # the public routes read the same values
    if values.size:
        assert psd_check(h).min_eigenvalue == expected[0]
        assert hermitian_norm(h) == max(abs(expected[0]), abs(expected[-1]))


def test_eigvalsh_keeps_tied_signed_zeros_in_diagonal_order():
    # the documented rule: a stable sort, so -0.0 precedes +0.0 exactly when
    # it precedes it on the diagonal
    first = _eigvalsh(np.diag([2.0, 1.0, -0.0, 0.0]).astype(complex))
    assert first.tolist() == [0.0, 0.0, 1.0, 2.0]
    assert np.signbit(first).tolist() == [True, False, False, False]
    second = _eigvalsh(np.diag([2.0, 0.0, -0.0, 1.0]).astype(complex))
    assert np.signbit(second).tolist() == [False, True, False, False]
    # the zero matrix is diagonal too: its smallest eigenvalue keeps its sign
    assert str(psd_check(np.zeros((3, 3), dtype=complex)).min_eigenvalue) == "0.0"


def test_eigvalsh_sends_a_non_diagonal_matrix_to_lapack(monkeypatch):
    # a single nonzero entry anywhere off the diagonal makes a matrix dense,
    # whether or not it is the entry read first
    for i, j in [(i, j) for i in range(4) for j in range(4) if i != j]:
        m = np.eye(4, dtype=complex)
        m[i, j] = 1e-300
        assert not _is_diagonal(m)
    assert _is_diagonal(np.diag([1.0, -0.0, 2.0]).astype(complex))
    assert _is_diagonal(np.zeros((0, 0), dtype=complex))
    assert _is_diagonal(np.array([[5.0 + 1j]]))
    assert _is_diagonal(np.eye(5, dtype=complex)[:, ::-1][::-1])  # a strided view

    calls = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(h) or original(h))
    band = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    band[3, 2] = band[2, 3] = 0.5  # the entry read first, below (0, 0), is zero
    for h in (band, _hermitian(3, 6)):
        assert np.array_equal(_eigvalsh(h), original(h))
    # a matrix that is not Hermitian gives the eigenvalues of its Hermitian part
    m = random_matrix(4, 5, 5)
    assert np.array_equal(_eigvalsh(m), original(0.5 * (m + m.conj().T)))
    assert len(calls) == 3


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
    t = 0.5 * m / opnorm(m)
    a = douglas_solve(np.eye(3), t.conj().T)
    # A* G = F with G = I gives A* = T*, so A = T
    assert np.allclose(a, t, atol=1e-12)


def test_douglas_zero():
    a = douglas_solve(np.zeros((3, 3)), np.zeros((3, 3)))
    assert spectral_norm(a) == 0.0


def test_douglas_without_rows_returns_its_zero_block_at_once(monkeypatch):
    # F* F = 0 is below any G* G, so no Gram matrix or eigenvalue is formed
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("decided"))
    a = douglas_solve(random_matrix(2, 4, 3), np.zeros((0, 3)))
    assert a.shape == (4, 0)
    with pytest.raises(ValueError):
        douglas_solve(np.eye(3), np.zeros((0, 2)))


def test_douglas_defect_instance_against_lstsq_oracle():
    # the canonical use: D T* = A* D for the defect of a pure pair
    pair = nilpotent_commuting_tuple(21, 6, 2, radius=0.5)
    from wberg.series import WeightSpec
    from wberg.dilation import _defect_sqrt_pieces
    from wberg.hyper import subtuple

    _, dmin = _defect_sqrt_pieces(subtuple(pair, (0,)), WeightSpec.hardy())
    f = dmin @ pair[1].mat.conj().T
    a = douglas_solve(dmin, f)
    assert spectral_norm(a) <= 1.0 + 1e-9
    assert spectral_norm(a.conj().T @ dmin - f) < 1e-9
    # independent least-squares oracle for A* G = F  <=>  G* A = F*
    oracle_a, *_ = np.linalg.lstsq(dmin.conj().T, f.conj().T, rcond=None)
    assert np.allclose(a, oracle_a, atol=1e-9)


def test_douglas_norm_bound_random():
    for seed in range(5):
        g = random_matrix(seed, 4, 6)
        c = 0.9 * random_matrix(seed + 50, 4, 4) / opnorm(random_matrix(seed + 50, 4, 4))
        f = c.conj().T @ g  # guarantees F*F <= G*G
        a = douglas_solve(g, f)
        assert spectral_norm(a) <= 1.0 + 1e-9
        assert spectral_norm(a.conj().T @ g - f) < 1e-9


def test_douglas_rejects_unsubordinated():
    with pytest.raises(NotSubordinate):
        douglas_solve(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))


# ---------------------------------------------------------------------------
# completion to a unitary
# ---------------------------------------------------------------------------

def completed(x, tol=RANK_TOL):
    """``(e_dim, Y)`` of the completion of ``x``, ``Y`` formed from its factors."""
    v, s = complete_to_unitary(x, tol)
    e_dim = v.shape[0] - v.shape[1]
    return e_dim, complement_columns(v, s, e_dim)


def test_complete_first_column():
    x = np.eye(2)[:, :1]
    e_dim, y = completed(x)
    assert e_dim == 1
    assert abs(abs(y[1, 0]) - 1.0) < 1e-12


def test_complete_square_unitary():
    u = random_unitary(4, 5)
    e_dim, y = completed(u)
    assert e_dim == 0 and y.shape[1] == 0


def test_complete_middle_vector_spans_complement():
    x = np.array([[0.0], [1.0], [0.0]])
    e_dim, y = completed(x)
    assert e_dim == 2
    # span check, not basis check: the complement misses the middle coordinate
    proj = y @ y.conj().T
    expected = np.diag([1.0, 0.0, 1.0])
    assert np.allclose(proj, expected, atol=1e-12)


@pytest.mark.parametrize("rows,cols", [(5, 2), (7, 7), (9, 1)])
def test_completion_is_unitary(rows, cols):
    m = random_matrix(rows * 11 + cols, rows, cols)
    q, _ = np.linalg.qr(m)
    x = q[:, :cols]
    e_dim, y = completed(x, tol=1e-9)
    full = np.hstack([x, y])
    eye = np.eye(rows)
    assert e_dim == rows - cols
    assert opnorm(full.conj().T @ full - eye) <= 1e-8
    assert opnorm(full @ full.conj().T - eye) <= 1e-8


def test_complete_rejects_non_isometry():
    with pytest.raises(NotIsometry):
        complete_to_unitary(np.array([[0.5], [0.5]]), tol=1e-9)
    with pytest.raises(NotIsometry):
        complete_to_unitary(np.eye(2, 3))  # rows < cols


def test_completion_deterministic():
    x = np.linalg.qr(random_matrix(77, 6, 2))[0][:, :2]
    _, y1 = completed(x)
    _, y2 = completed(x)
    assert np.array_equal(y1, y2)


@pytest.mark.parametrize("rows,cols", [(5, 2), (9, 1), (40, 5), (300, 16), (12, 12)])
def test_completion_factors_are_the_complete_qr(rows, cols):
    # the factored complement is the trailing block of the complete QR
    # factor, which LAPACK forms from the same reflectors
    x = np.linalg.qr(random_matrix(rows + 3 * cols, rows, cols))[0][:, :cols]
    v, s = complete_to_unitary(x)
    assert v.shape == (rows, cols) and s.shape == (cols, cols)
    assert np.array_equal(np.triu(v, 1), np.zeros_like(v)) and np.all(np.diag(v) == 1.0)
    assert np.array_equal(np.tril(s, -1), np.zeros_like(s))
    y = complement_columns(v, s, rows - cols)
    reference = np.linalg.qr(x, mode="complete")[0][:, cols:]
    assert np.max(np.abs(y - reference), initial=0.0) <= 1e-14


def test_spectral_primitives_bitwise_deterministic():
    m = random_matrix(55, 6, 6)
    a = m @ m.conj().T
    r1 = psd_sqrt(a)
    r2 = psd_sqrt(a)
    assert np.array_equal(r1, r2)
    g = random_matrix(56, 4, 6)
    f = 0.5 * g
    d1 = douglas_solve(g, f)
    d2 = douglas_solve(g, f)
    assert np.array_equal(d1, d2)


# ---------------------------------------------------------------------------
# the edge: Operator only where matrices enter or leave the package
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,expected", [
    # 2 generator entries; 2 report matrices of `check` (q_tail, defect);
    # `dilate-pure`, the general model of the pair: the lifted entry of the
    # second stage's one-variable tuple on the defect side (the empty tail
    # side wraps no stage tuple), and the dilation map (the model shifts are
    # index maps)
    ("nilpotent-pair-hardy", 2 + 2 + 1 + 1),
    # 1 generator entry; 2 report matrices of `check`; `charfn`: the random
    # unitary and the entry of the conjugated operator's tuple
    ("charfn-nilpotent-bergman2", 1 + 2 + 1 + 1),
])
def test_operators_are_built_only_at_the_edge(monkeypatch, name, expected):
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_case

    data = next(c for c in corpus_cases() if c["name"] == name)
    calls = []
    original, adopt = Operator.__init__, Operator._adopt
    monkeypatch.setattr(Operator, "__init__",
                        lambda op, mat: calls.append(1) or original(op, mat))
    # the dilation map is handed over without a copy, by the other constructor
    monkeypatch.setattr(Operator, "_adopt", classmethod(
        lambda cls, arr: calls.append(1) or adopt(arr)))
    ok, _ = run_case(parse_case(dict(data), name=name))
    assert ok
    assert len(calls) == expected
