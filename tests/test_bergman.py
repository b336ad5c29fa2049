"""Truncated weighted Bergman spaces: the reproducing kernel, shifts, multipliers."""

import numpy as np
import pytest

from wberg.bergman import (
    TruncatedSpace,
    graded_indices,
    multishift_purity_and_positivity,
    multishift_tuple,
    shift_matrix,
)
from wberg.generators import Lcg
from wberg.hyper import is_pure, is_W_hypercontraction
from wberg.linalg import Operator, spectral_norm
from wberg.series import MultiWeightSpec, WeightSpec, quotient_coeffs

from dense_multiplier import DegreeOverflow, multiplier_matrix

HARDY = WeightSpec.hardy()
B2 = WeightSpec.bergman(2)


def from_coeffs(space, coeffs):
    """Orthonormal-basis vector of a monomial coefficient array of shape
    ``(*degrees, coeff_dim)``, or ``degrees`` for a one-dimensional coefficient space."""
    arr = np.asarray(coeffs, dtype=complex)
    if arr.shape == space.degrees and space.coeff_dim == 1:
        arr = arr[..., None]
    assert arr.shape == (*space.degrees, space.coeff_dim)
    vec = np.empty(space.dim, dtype=complex)
    for i, a in enumerate(space.indices):
        vec[i * space.coeff_dim:(i + 1) * space.coeff_dim] = arr[a]
    return vec * np.sqrt(space.weight_vector)


def to_coeffs(space, vec):
    """Inverse of :func:`from_coeffs`."""
    vec = np.asarray(vec, dtype=complex) / np.sqrt(space.weight_vector)
    arr = np.zeros((*space.degrees, space.coeff_dim), dtype=complex)
    for i, a in enumerate(space.indices):
        arr[a] = vec[i * space.coeff_dim:(i + 1) * space.coeff_dim]
    return arr


def inner_coeffs(space, a, b):
    """Weighted inner product of two coefficient arrays (linear in the first)."""
    return complex(np.vdot(from_coeffs(space, b), from_coeffs(space, a)))


def test_graded_lex_order():
    idx = graded_indices((3, 3))
    assert idx[0] == (0, 0)
    assert idx[1:3] == [(0, 1), (1, 0)]
    degrees = [sum(a) for a in idx]
    assert degrees == sorted(degrees)


def test_space_dimensions_and_gram():
    w = MultiWeightSpec.parse("bergman:2,hardy")
    space = TruncatedSpace(w, (3, 2), coeff_dim=2)
    assert space.dim == 12
    gram = np.diag(space.weight_vector)
    assert np.allclose(gram, np.diag(np.diag(gram)))
    # the monomial z^(2,1) has squared norm w2 * 1 = 1/3
    slot = space.slot((2, 1), 0)
    assert gram[slot, slot] == pytest.approx(1 / 3)


def test_inner_product_of_monomials():
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    space = TruncatedSpace(w, (3, 3))
    for alpha in space.indices:
        f = np.zeros((3, 3))
        f[alpha] = 1.0
        val = inner_coeffs(space, f, f)
        expected = np.prod([1.0 / (a + 1) for a in alpha])
        assert val.real == pytest.approx(expected)
        assert abs(val.imag) < 1e-15


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

def test_hardy_shift_is_jordan_block():
    space = TruncatedSpace(MultiWeightSpec.of(HARDY), (3,))
    m = shift_matrix(space, 0)
    assert np.array_equal(m.mat, np.diag([1.0, 1.0], -1))
    assert np.array_equal(m.mat.conj().T, np.diag([1.0, 1.0], 1))


def test_bergman_shift_adjoint_weighted_action():
    # adjoint against the weighted product: M* z^2 = (w2/w1) z
    space = TruncatedSpace(MultiWeightSpec.of(B2), (3,))
    m = shift_matrix(space, 0)
    z2 = np.zeros(3)
    z2[2] = 1.0
    coeffs = to_coeffs(space, m.mat.conj().T @ from_coeffs(space, z2))
    assert coeffs[1, 0] == pytest.approx((1 / 3) / (1 / 2))
    assert abs(coeffs[0, 0]) < 1e-15 and abs(coeffs[2, 0]) < 1e-15


def test_shifts_commute_exactly():
    w = MultiWeightSpec.parse("bergman:2,bergman:3")
    t = multishift_tuple(TruncatedSpace(w, (4, 3)))
    comm = t[0].mat @ t[1].mat - t[1].mat @ t[0].mat
    assert np.linalg.norm(comm, 2) == 0.0


def test_shift_adjoint_consistency_random_vectors():
    w = MultiWeightSpec.parse("bergman:2,hardy")
    space = TruncatedSpace(w, (4, 4), coeff_dim=2)
    m = shift_matrix(space, 0)
    rng = Lcg(99)
    f = rng.complex_matrix(space.dim, 1)[:, 0]
    g = rng.complex_matrix(space.dim, 1)[:, 0]
    lhs = np.vdot(g, m.mat @ f)
    rhs = np.vdot(m.mat.conj().T @ g, f)
    assert abs(lhs - rhs) < 1e-12


def test_shift_norm_is_weight_ratio():
    for spec in (HARDY, B2, WeightSpec.bergman(1.5)):
        space = TruncatedSpace(MultiWeightSpec.of(spec), (6,))
        m = shift_matrix(space, 0)
        vals = spec.values(6)
        expected = np.sqrt(np.max(vals[1:] / vals[:-1]))
        assert m.norm() == pytest.approx(expected, rel=1e-12)
        assert m.norm() <= 1.0


EXPLICIT = WeightSpec.parse(
    "explicit:[1.0,0.9,0.7,0.65,0.5,0.42,0.3,0.28,0.2,0.15,0.11,0.1]"
)


@pytest.mark.parametrize("spec", [HARDY, B2, WeightSpec.bergman(2.5), EXPLICIT],
                         ids=["hardy", "bergman2", "bergman2.5", "explicit"])
@pytest.mark.parametrize("degs", [(12, 5), (5, 12), (8, 8), (4, 3, 5)])
@pytest.mark.parametrize("e", [1, 3])
def test_multishift_norm_is_one_variable_shift_norm(spec, degs, e):
    # On the full index box the shift in variable i is S (x) I_e with S
    # permutation-similar to I (x) S_1 (x) I, so both have the norm of S_1.
    others = [HARDY, B2, EXPLICIT]
    for i in range(len(degs)):
        specs = [others[(k + i) % 3] for k in range(len(degs))]
        specs[i] = spec
        w = MultiWeightSpec.of(*specs)
        full = shift_matrix(TruncatedSpace(w, degs, coeff_dim=e), i).norm()
        one = shift_matrix(TruncatedSpace(w.subset((i,)), (degs[i],)), 0).norm()
        assert full == one


def dense_shift(space, i):
    """Reference shift matrix, entry by entry from the monomial weights."""
    row = space.weights[i].values(space.degrees[i])
    e = space.coeff_dim
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for a in space.indices:
        if a[i] + 1 < space.degrees[i]:
            b = a[:i] + (a[i] + 1,) + a[i + 1:]
            for p in range(e):
                mat[space.slot(b, p), space.slot(a, p)] = np.sqrt(row[a[i] + 1] / row[a[i]])
    return mat


@pytest.mark.parametrize("wtxt,degs", [
    ("bergman:2.5", (7,)),
    ("hardy,bergman:1.5", (5, 4)),
    ("bergman:2,hardy,bergman:3.7", (3, 4, 2)),
], ids=["one-var", "two-var", "three-var"])
@pytest.mark.parametrize("e", [1, 3])
def test_shift_action_equals_its_matrix(wtxt, degs, e):
    # one nonzero per row and column: the gather and scale is exactly the product
    space = TruncatedSpace(MultiWeightSpec.parse(wtxt), degs, coeff_dim=e)
    assert np.array_equal(space.index_weights,
                          [space.monomial_weight(a) for a in space.indices])
    x = Lcg(5).complex_matrix(space.dim, 4)
    for i, action in enumerate(space.shifts):
        mat = action.to_matrix()
        assert np.array_equal(mat, dense_shift(space, i))
        assert np.array_equal(shift_matrix(space, i).mat, mat)
        assert np.array_equal(action.apply(x), mat @ x)
        assert np.array_equal(action.adjoint_apply(x), mat.conj().T @ x)
        assert np.array_equal(action.apply(x[:, :1]), mat @ x[:, :1])


@pytest.mark.parametrize("wtxt", ["hardy", "bergman:1.5", "bergman:2", "bergman:2.5",
                                  "bergman:3.7"])
def test_shift_action_norm_is_the_svd_norm(wtxt):
    # S* S is diagonal, so the largest ratio is the spectral norm, bit for bit
    for deg in (8, 24, 63, 243, 458):
        space = TruncatedSpace(MultiWeightSpec.parse(wtxt), (deg,))
        assert space.shifts[0].norm() == spectral_norm(shift_matrix(space, 0).mat)


def test_kernel_reproducing_property_truncated():
    spec = MultiWeightSpec.of(B2)
    space = TruncatedSpace(spec, (24,))
    w0 = 0.4 + 0.2j
    # kernel section as a coefficient array: conj(w)^k / w_k
    kcoeffs = (np.conj(w0) ** np.arange(24)) * spec[0].inverse_weight_values(24)
    rng = Lcg(7)
    f = rng.complex_matrix(24, 1)[:, 0]
    inner = inner_coeffs(space, f.reshape(-1), kcoeffs.reshape(-1))
    pointval = np.sum(f * w0 ** np.arange(24))
    assert inner == pytest.approx(pointval, abs=1e-9)


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------

def test_constant_multiplier_embeds_with_rescaling():
    src = TruncatedSpace(MultiWeightSpec.of(HARDY), (3,))
    tgt = TruncatedSpace(MultiWeightSpec.of(B2), (3,))
    m = multiplier_matrix([np.eye(1)], src, tgt)
    # columns map z^k to sqrt(w_k) ztilde^k
    expected = np.diag(np.sqrt([1.0, 0.5, 1 / 3]))
    assert np.allclose(m, expected)


def test_multiplier_by_z_is_the_shift():
    space = TruncatedSpace(MultiWeightSpec.of(HARDY), (4,))
    m = multiplier_matrix({(1,): np.eye(1)}, space, space)
    assert np.allclose(m, shift_matrix(space, 0).mat)


def test_multiplier_degree_overflow():
    src = TruncatedSpace(MultiWeightSpec.of(HARDY), (4,))
    tgt = TruncatedSpace(MultiWeightSpec.of(HARDY), (2,))
    theta = {(3,): np.eye(1)}
    with pytest.raises(DegreeOverflow):
        multiplier_matrix(theta, src, tgt, strict=True)
    m = multiplier_matrix(theta, src, tgt, strict=False)
    assert m.shape == (2, 4)


def test_multiplier_block_placement():
    w = MultiWeightSpec.parse("hardy,hardy")
    src = TruncatedSpace(w, (2, 2), coeff_dim=1)
    tgt = TruncatedSpace(w, (3, 3), coeff_dim=1)
    theta = {(1, 1): np.array([[2.0]])}
    m = multiplier_matrix(theta, src, tgt)
    assert m[tgt.slot((1, 1)), src.slot((0, 0))] == pytest.approx(2.0)
    assert m[tgt.slot((2, 2)), src.slot((1, 1))] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# the multi-shift as the canonical pure tuple
# ---------------------------------------------------------------------------

def test_multishift_diagonal_defect_hardy():
    space = TruncatedSpace(MultiWeightSpec.of(HARDY), (5,))
    shifts = multishift_tuple(space)
    rep = multishift_purity_and_positivity(space, shifts, [0.5, 0.8])
    # grid positivity is what the classification certifies, and purity is is_pure
    positive = is_W_hypercontraction(shifts, space.weights, r_grid=[0.5, 0.8])
    assert rep.diagonal_ok and positive.verdict and is_pure(shifts)
    # with constant weights the quotient coefficients give 1-r beyond degree 0
    r = 0.5
    a = quotient_coeffs(HARDY, 1.0, r, 5)
    assert a[0] == pytest.approx(1.0)
    assert a[1:] == pytest.approx([1 - r] * 4)


@pytest.mark.parametrize("wtxt,dims", [
    ("bergman:2,bergman:2", (4, 4)),
    ("bergman:1.5,hardy", (3, 4)),
])
def test_multishift_report(wtxt, dims):
    w = MultiWeightSpec.parse(wtxt)
    space = TruncatedSpace(w, dims)
    shifts = multishift_tuple(space)
    rep = multishift_purity_and_positivity(space, shifts, [0.4, (0.9, 0.6)])
    assert rep.diagonal_ok
    assert is_W_hypercontraction(shifts, w, r_grid=[0.4, (0.9, 0.6)]).verdict
    assert is_pure(shifts)
    assert rep.max_diagonal_residual < 1e-10


def test_multishift_check_rejects_a_tuple_on_another_space():
    space = TruncatedSpace(MultiWeightSpec.parse("bergman:2,hardy"), (3, 4))
    other = multishift_tuple(TruncatedSpace(MultiWeightSpec.parse("bergman:2,hardy"), (3, 3)))
    with pytest.raises(ValueError):
        multishift_purity_and_positivity(space, other, [0.5])


def test_run_check_reuses_the_case_multishift(monkeypatch):
    # the case's tuple is the multishift, so run_check hands it to the
    # multishift check instead of building the coordinate shifts again
    import wberg.bergman as bergman
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_case

    calls = []
    original = bergman.shift_matrix
    monkeypatch.setattr(bergman, "shift_matrix",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    data = next(c for c in corpus_cases() if c["name"] == "multishift-2d")
    ok, report = run_case(parse_case(dict(data), name=data["name"]))
    assert ok and report["steps"]["check"]["multishift_diagonal_ok"]
    assert len(calls) == 2


def test_multishift_powers_vanish_at_cutoff():
    space = TruncatedSpace(MultiWeightSpec.parse("bergman:2,hardy"), (3, 4))
    t = multishift_tuple(space)
    assert not np.any(np.linalg.matrix_power(t[0].mat, 3))
    assert not np.any(np.linalg.matrix_power(t[1].mat, 4))
