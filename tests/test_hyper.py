"""Defect operators, tails, and the positivity classifications."""

import decimal
import itertools
import math

import numpy as np
import pytest

from wberg.bergman import TruncatedSpace, multishift_tuple
from wberg.errors import ArityMismatch, NotCommuting, NotContractive
from wberg.generators import (
    Lcg,
    commuting_unitaries,
    nilpotent_commuting_tuple,
    random_commuting_contractions,
    scalar_tuple,
    unitary_times_nilpotent,
)
from wberg.hyper import (
    DEGREE_CAP,
    OperatorTuple,
    _abs_mass,
    _conjugate,
    _effective_degree,
    _levels,
    _nilpotency_order,
    _power_stack,
    _row,
    _split,
    _weighted_shift,
    two_parameter_monotonicity_check,
    conjugation_limit,
    defect_limit,
    defect_series,
    delta_power,
    equivalence_crosscheck,
    hereditary_apply,
    is_gamma_contractive,
    is_pure,
    is_W_hypercontraction,
    subtuple,
    subtuple_inheritance_check,
)
from wberg.linalg import POSITIVITY_TOL, Operator, psd_check, psd_sqrt
from wberg.series import MultiWeightSpec, WeightSpec

from dense_multiplier import dense_row_chain

HARDY = WeightSpec.hardy()
B2 = WeightSpec.bergman(2)
B3 = WeightSpec.bergman(3)


def closed_kernel_value(spec: WeightSpec, r: float) -> float:
    beta = 1.0 if spec.kind == "hardy" else spec.beta
    return (1.0 - r) ** (-beta)


# ---------------------------------------------------------------------------
# operator tuples
# ---------------------------------------------------------------------------

def test_tuple_invariants():
    with pytest.raises(NotContractive):
        OperatorTuple.of(Operator([[1.5]]))
    a = Operator([[0.0, 0.5], [0.0, 0.0]])
    b = Operator([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(NotCommuting):
        OperatorTuple.of(a, b)
    t = OperatorTuple.of(a, Operator([[0.0, 0.25], [0.0, 0.0]]))
    assert t.n == 2 and t.dim == 2


def test_swap_family_enumeration():
    w = MultiWeightSpec.parse("bergman:2,bergman:3,hardy")
    family = list(w.swap_family())
    assert len(family) == 8
    masks = [mask for mask, _ in family]
    assert masks == sorted(masks)
    assert family[0][1].text == "hardy,hardy,hardy"
    assert family[-1][1].text == w.text


# ---------------------------------------------------------------------------
# defect series
# ---------------------------------------------------------------------------

def test_defect_series_zero_operator():
    t = OperatorTuple.of(Operator([[0.0]]))
    for spec in (HARDY, B2, WeightSpec.bergman(1.5)):
        val = defect_series(t, MultiWeightSpec.of(spec), (0.7,))
        assert val[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("wtxt", ["hardy", "bergman:1.5", "bergman:2", "bergman:3"])
def test_defect_series_coisometries(wtxt):
    t = commuting_unitaries(5, 4, 2)
    w = MultiWeightSpec.parse(f"{wtxt},{wtxt}")
    for _, member in w.swap_family():
        for r in (0.5, 0.875):
            val = defect_series(t, member, (r, r))
            expected = 1.0
            for spec in member:
                expected /= closed_kernel_value(spec, r)
            assert np.linalg.norm(val - expected * np.eye(4), 2) < 1e-10


@pytest.mark.parametrize("d", [1, 5, 7, 16])
def test_conjugation_by_a_real_diagonal_is_the_two_product_form(d):
    # each entry of T X is the one nonzero term of its sum, so the one
    # product (T * diag X) @ T* has the bits of T @ X @ T*
    t = Lcg(d).complex_matrix(d, d)
    values = Lcg(d + 100).complex_matrix(d, 1)[:, 0].real
    values[::3] = 0.0
    for x in (np.diag(values).astype(complex), np.eye(d, dtype=complex)):
        assert np.array_equal(_conjugate(t, x), t @ x @ t.conj().T)
    # a complex diagonal takes both products, so it keeps their bits too
    x = np.diag(Lcg(d + 200).complex_matrix(d, 1)[:, 0])
    assert np.array_equal(_conjugate(t, x), t @ x @ t.conj().T)
    # and so does a matrix off the diagonal
    x = Lcg(d + 300).complex_matrix(d, d)
    assert np.array_equal(_conjugate(t, x), t @ x @ t.conj().T)


def _same_bits(a, b):
    """Equal entries, and equal sign bits of the real and imaginary parts, so
    that a ``-0.0`` is told from a ``+0.0``."""
    return (np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def _dense_stack(mat, count):
    """``[I, T, ..., T^(count-1)]`` by dense products, the reference route."""
    out = [np.eye(mat.shape[0], dtype=complex)]
    for _ in range(1, count):
        out.append(out[-1] @ mat)
    return np.array(out)


MULTISHIFTS = [
    ("bergman:2", (9,)),
    ("bergman:2.5", (9,)),
    ("bergman:2,hardy", (4, 5)),
    ("bergman:1.5,bergman:3", (4, 4)),
    ("bergman:2,bergman:2,bergman:2", (3, 3, 3)),
    ("bergman:2.5,hardy,bergman:1.5", (2, 3, 3)),
]


@pytest.mark.parametrize("wtxt, degrees", MULTISHIFTS)
def test_weighted_shift_stacks_have_the_dense_bits(wtxt, degrees):
    # each entry of a multi-shift is a weighted shift, multiplied by gather
    # and scale; every sum of the dense route has one nonzero term, so the
    # stacks, scans and conjugations carry its bits, signed zeros included
    t = multishift_tuple(TruncatedSpace(MultiWeightSpec.parse(wtxt), degrees))
    count = t.dim + 2
    for i in range(t.n):
        mat = t[i].mat
        assert t._stacks[i].shift is not None
        powers = _dense_stack(mat, count)
        assert _same_bits(t.power_stack(i, count), powers)
        eye = np.eye(t.dim, dtype=complex)
        assert _same_bits(t.row_chain(i, eye, count), _dense_stack(mat.conj().T, count))
        assert _same_bits(t.gram_stack(i, count), powers @ powers.conj().transpose(0, 2, 1))
        for cap in (1, degrees[i] - 1, degrees[i], t.dim):
            dense = next((k for k in range(1, cap + 1) if not powers[k].any()), None)
            assert t.nilpotency_order(i, cap) == _nilpotency_order(mat, cap) == dense
            assert _nilpotency_order(t._stacks[i].shift, cap) == dense
        values = Lcg(t.dim + i).complex_matrix(t.dim, 1)[:, 0].real
        values[::3] = 0.0
        assert (values < 0).any()
        for x in (np.diag(values).astype(complex), np.eye(t.dim, dtype=complex),
                  np.zeros((t.dim, t.dim), dtype=complex)):
            got = _conjugate(mat, x, t._stacks[i].shift)
            assert _same_bits(got, _conjugate(mat, x))
            assert _same_bits(got, mat @ x @ mat.conj().T)
        # a complex or full middle factor keeps the dense products
        x = np.diag(Lcg(t.dim + 50).complex_matrix(t.dim, 1)[:, 0])
        assert _same_bits(_conjugate(mat, x, t._stacks[i].shift), mat @ x @ mat.conj().T)


@pytest.mark.parametrize("wtxt, degrees", MULTISHIFTS)
def test_multishift_defects_do_not_depend_on_the_route(wtxt, degrees):
    # the same classification with the index maps withheld, so that every
    # product is dense, gives the same bits at every point, limit and lattice
    w = MultiWeightSpec.parse(wtxt)
    space = TruncatedSpace(w, degrees)
    fast, dense = multishift_tuple(space), multishift_tuple(space)
    for stacks in dense._stacks:
        stacks._shift = None
    points = [(0.5,) * fast.n, (0.875,) * fast.n, tuple(0.3 + 0.2 * j for j in range(fast.n))]
    for _, member in w.swap_family():
        for point in points:
            assert _same_bits(defect_series(fast, member, point),
                              defect_series(dense, member, point))
        assert _same_bits(defect_limit(fast, member).limit, defect_limit(dense, member).limit)
    beta = [float(spec.exponent) for spec in w]
    eye = np.eye(fast.dim, dtype=complex)
    assert _same_bits(delta_power(fast, beta, eye), delta_power(dense, beta, eye))
    assert is_W_hypercontraction(fast, w) == is_W_hypercontraction(dense, w)


@pytest.mark.parametrize("make", [
    # a complex weight
    lambda: np.diag([0.5, 0.5j], -1),
    # two nonzeros in one column
    lambda: np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.25, 0.0, 0.0]]),
    # two nonzeros in one row (not the first, which is counted before the rest)
    lambda: np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.25], [0.0, 0.0, 0.0]]),
    # a dense nilpotent
    lambda: nilpotent_commuting_tuple(5, 6, 1, radius=0.5)[0].mat,
    lambda: np.zeros((0, 0)),
    lambda: np.array([[0.5]]),
], ids=["complex-weight", "two-in-a-column", "two-in-a-row", "dense-nilpotent", "0x0", "1x1"])
def test_other_matrices_take_the_dense_route(make):
    mat = np.asarray(make(), dtype=complex)
    assert _weighted_shift(mat) is None
    t = OperatorTuple.of(mat)
    assert t._stacks[0].shift is None
    count = 4
    assert np.array_equal(t.power_stack(0, count), _power_stack(mat, count))
    assert np.array_equal(t.power_stack(0, count), _dense_stack(mat, count))
    eye = np.eye(mat.shape[0], dtype=complex)
    assert np.array_equal(t.row_chain(0, eye, count), _dense_stack(mat.conj().T, count))
    rows = Lcg(7).complex_matrix(3, mat.shape[0])
    assert _same_bits(t.row_chain(0, rows, count), dense_row_chain(rows, mat, count))


@pytest.mark.parametrize("wtxt, degrees", MULTISHIFTS)
def test_a_weighted_shift_row_chain_has_the_dense_chain_bits(wtxt, degrees):
    # each power of a held weighted shift's row chain A T*^k is one gather of
    # the last, with the bits of the dense chain A @ T^H; its zeros are +0,
    # where the sign BLAS gives a zero of a complex A depends on the kernel
    t = multishift_tuple(TruncatedSpace(MultiWeightSpec.parse(wtxt), degrees))
    count = t.dim + 2
    for i in range(t.n):
        assert t._stacks[i].shift is not None
        for rows in (3, t.dim):
            a = Lcg(rows + 10 * i).complex_matrix(rows, t.dim)
            a[:, ::4] = 0.0
            a[::2, 1::4] = -a[::2, 1::4].real
            chain = t.row_chain(i, a, count)
            assert chain.shape == (count, rows, t.dim)
            assert np.array_equal(chain, dense_row_chain(a, t[i].mat, count))
            for part in (chain[1:].real, chain[1:].imag):
                assert not (np.signbit(part) & (part == 0)).any()
        # nonnegative rows, as the defect coordinates of a multi-shift: the
        # dense chain signs no zero either, so every bit agrees
        a = np.abs(Lcg(5 + i).complex_matrix(3, t.dim)).astype(complex)
        a[:, ::4] = 0.0
        assert _same_bits(t.row_chain(i, a, count), dense_row_chain(a, t[i].mat, count))


def test_a_real_weighted_shift_is_an_index_map():
    # negative and unequal weights, and a cycle: still a weighted shift
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 0], mat[0, 1], mat[3, 2] = -0.75, 0.5, 0.25
    shift = _weighted_shift(mat)
    assert shift is not None
    assert np.array_equal(shift.to_matrix(), mat)
    assert shift.norm() == 0.75
    eye = np.eye(4, dtype=complex)
    assert np.array_equal(shift.adjoint_apply(eye), mat.conj().T)
    t = OperatorTuple.of(mat)
    assert np.array_equal(t.power_stack(0, 6), _dense_stack(mat, 6))
    assert np.array_equal(t.row_chain(0, eye, 6), _dense_stack(mat.conj().T, 6))
    assert t.nilpotency_order(0, 4) is None


def test_each_entry_is_observed_as_a_weighted_shift_once(monkeypatch, capsys):
    # the index map of an entry is observed once and held; the nilpotency
    # scan reads the held map instead of observing the matrix again
    import collections

    import wberg.hyper as hyper
    from wberg.cli import main

    seen = []
    original = hyper._weighted_shift
    monkeypatch.setattr(hyper, "_weighted_shift", lambda mat: seen.append(mat) or original(mat))
    for argv in (["check"], ["dilate", "--pure"]):
        seen.clear()
        assert main(argv + ["--weights", "bergman:2,bergman:2", "--tuple", "multishift:4x4"]) == 0
        # the two entries, and for the dilation the lifted stage operator of
        # the defect side; the tail side's stage is zero-dimensional and
        # forms no defect limit, so its operator is not observed
        assert len(seen) == (2 if argv == ["check"] else 3)
        assert set(collections.Counter(id(mat) for mat in seen).values()) == {1}
    capsys.readouterr()


def test_multishift_classification_takes_no_eigensolve(monkeypatch):
    # every defect, level and lattice value of a multi-shift is diagonal in
    # the monomial basis, so each certificate reads its diagonal
    from wberg.bergman import multishift_purity_and_positivity

    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    space = TruncatedSpace(w, (4, 4))
    shifts = multishift_tuple(space)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a: pytest.fail("eigensolve"))
    report = is_W_hypercontraction(shifts, w)
    assert report.verdict and len(report.certificates) == 4 * 4 + 9
    assert is_W_hypercontraction(shifts, w, r_grid=[0.5, 0.9]).verdict
    assert multishift_purity_and_positivity(space, shifts, [0.5, 0.9]).diagonal_ok


def test_defect_series_truncated_shift_explicit():
    # multiplication by z on a 4-slot constant-weight truncation
    space = TruncatedSpace(MultiWeightSpec.of(HARDY), (4,))
    s = multishift_tuple(space)
    val = defect_series(s, MultiWeightSpec.of(HARDY), (1.0,))
    # direct 4x4 oracle: I - S S* is the projection onto the constant slot
    smat = s[0].mat
    oracle = np.eye(4) - smat @ smat.conj().T
    assert np.allclose(val, oracle, atol=1e-14)
    assert np.allclose(oracle, np.diag([1.0, 0, 0, 0]), atol=1e-14)


def test_defect_series_arity_mismatch():
    t = OperatorTuple.of(Operator([[0.0]]))
    with pytest.raises(ArityMismatch):
        defect_series(t, MultiWeightSpec.parse("hardy,hardy"), (0.5, 0.5))


# ---------------------------------------------------------------------------
# shared power and Gram stacks
# ---------------------------------------------------------------------------

EXPLICIT = WeightSpec.from_values([1.0, 0.5, 0.25, 0.125, 0.0625])
EPS = np.finfo(float).eps


def _reference_cut(t, i, c):
    """Cut of the row ``c`` from fresh scans: support, else nilpotency, then
    numerical support, the first doubling ``m`` from 8 below that whose
    remainder ``||T^m||^2 sum_{m <= k < deg} |c_k|`` is at most ``eps / 2 * |c_0|``."""
    nz = np.flatnonzero(c)
    deg = int(nz[-1]) + 1 if nz.size else 1
    nil = _nilpotency_order(t[i].mat, min(len(c), t.dim))
    deg = deg if nil is None else min(deg, nil)
    a = np.abs(c[:deg])
    m = 8
    while m < deg:
        power = np.linalg.matrix_power(t[i].mat, m)
        if np.linalg.norm(power, 2) ** 2 * np.sum(a[m:]) <= np.finfo(float).eps / 2 * a[0]:
            return m
        m *= 2
    return deg


def _expanded_reference(t, w, point):
    """Nest the public one-shot ``hereditary_apply`` from ``X = I`` over the
    expanded rows ``1/k``, each cut at its reference cut, and return it with
    the a-priori rounding bound of that route: per level, ``(cut + 2 dim) eps``
    times the product over all levels of ``sum_k |c_k| r^k ||T^k||^2``."""
    x = np.eye(t.dim, dtype=complex)
    masses, rounding = [], 0.0
    for i in reversed(range(t.n)):
        row = w[i].inverse_coeffs(min(DEGREE_CAP, w[i].max_terms or DEGREE_CAP))
        cut = _reference_cut(t, i, row)
        coeffs = row[:cut] * point[i] ** np.arange(cut)
        x = hereditary_apply(coeffs, t[i], x)
        norms = [np.linalg.norm(np.linalg.matrix_power(t[i].mat, k), 2) ** 2 for k in range(cut)]
        masses.append(float(np.sum(np.abs(coeffs) * norms)))
        rounding += (cut + 2 * t.dim) * EPS
    return 0.5 * (x + x.conj().T), rounding * math.prod(masses)


def _factored_reference(t, w, point, full=False):
    """The levels of ``defect_series`` from ``hereditary_apply`` and explicit
    differences ``X - r T X T*``, each expanded row cut at its effective
    degree, or summed up to ``DEGREE_CAP`` with ``full``."""
    x = np.eye(t.dim, dtype=complex)
    for i, level in reversed(list(enumerate(_levels(w)))):
        row = _row(level)
        if row is not None:
            m = len(row) if full else _effective_degree(t, i, row)
            x = hereditary_apply(row[:m] * point[i] ** np.arange(m), t[i], x)
        if not isinstance(level, WeightSpec):
            for _ in range(_split(level)[0]):
                x = x - point[i] * (t[i].mat @ x @ t[i].mat.conj().T)
    return 0.5 * (x + x.conj().T)


@pytest.mark.parametrize("kind", ["nilpotent", "random"])
@pytest.mark.parametrize("spec", [HARDY, B2, WeightSpec.bergman(1.5), EXPLICIT],
                         ids=["hardy", "bergman2", "bergman1.5", "explicit"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_defect_series_equals_hereditary_nesting(n, spec, kind):
    if kind == "nilpotent":
        t = nilpotent_commuting_tuple(40 + n, 4, n, radius=0.6)
    else:
        t = random_commuting_contractions(50 + n, 4, n, radius=0.8)
    w = MultiWeightSpec(tuple(spec for _ in range(n)))
    # one tuple serves every member, point and the vertex, so the later
    # sums read stacks that earlier sums grew
    for _, member in w.swap_family():
        explicit = all(s.exponent is None for s in member)
        for point in [(0.5,) * n, (0.9,) * n, tuple(0.3 + 0.2 * i for i in range(n)),
                      (1.0,) * n]:
            got = defect_series(t, member, point)
            expanded, bound = _expanded_reference(t, member, point)
            if explicit:  # explicit lists sum the expanded route itself
                assert np.array_equal(got, expanded)
            else:  # presets agree with it within its cancellation bound
                assert np.linalg.norm(got - expanded, 2) <= bound
        vertex = defect_series(t, member, (1.0,) * n)
        assert np.array_equal(defect_limit(t, member).limit, vertex)
        if all(s.exponent is not None for s in member):
            exponents = [s.exponent for s in member]
            assert np.array_equal(delta_power(t, exponents, np.eye(t.dim)), vertex)


def test_stacks_are_prefix_stable():
    t = random_commuting_contractions(61, 5, 2, radius=0.9)
    fresh = OperatorTuple(t.ops)
    short = t.power_stack(0, 8).copy()
    long = t.power_stack(0, 256)
    assert np.array_equal(short, _power_stack(t[0].mat, 8))
    assert np.array_equal(long, _power_stack(t[0].mat, 256))
    assert np.array_equal(t.power_stack(0, 8), short)
    g_short = t.gram_stack(1, 8).copy()
    g_long = t.gram_stack(1, 256)
    p = _power_stack(t[1].mat, 256)
    assert np.array_equal(g_long, p @ p.conj().transpose(0, 2, 1))
    assert np.array_equal(g_short, fresh.gram_stack(1, 8))
    assert np.array_equal(t.gram_stack(1, 8), g_short)
    assert np.array_equal(fresh.gram_stack(1, 256), g_long)


def test_stacks_are_read_only():
    t = random_commuting_contractions(62, 3, 1, radius=0.5)
    for stack in (t.power_stack(0, 4), t.gram_stack(0, 4)):
        with pytest.raises(ValueError):
            stack[1] = 0.0


def test_subtuple_reads_the_stack_of_its_own_entries():
    t = random_commuting_contractions(63, 4, 2, radius=0.8)
    parent_stack = t.power_stack(1, 6)
    sub = subtuple(t, (1,))
    assert np.array_equal(sub.power_stack(0, 6), _power_stack(t[1].mat, 6))
    assert np.shares_memory(sub.power_stack(0, 6), parent_stack)
    assert not np.array_equal(sub.power_stack(0, 6), t.power_stack(0, 6))
    p = _power_stack(t[1].mat, 6)
    assert np.array_equal(sub.gram_stack(0, 6), p @ p.conj().transpose(0, 2, 1))


def test_nilpotency_order_is_scanned_once_per_variable(monkeypatch):
    import wberg.hyper as hyper

    t = nilpotent_commuting_tuple(64, 5, 2, radius=0.5)
    for cap in (2, 5, 3, 8):
        for i in range(t.n):
            assert t.nilpotency_order(i, cap) == _nilpotency_order(t[i].mat, cap)
    calls = []
    original = hyper._nilpotency_order
    monkeypatch.setattr(hyper, "_nilpotency_order",
                        lambda op, cap: calls.append(cap) or original(op, cap))
    t = random_commuting_contractions(65, 6, 2, radius=0.5)
    # integer exponents are exact differences and cut nothing
    is_W_hypercontraction(t, MultiWeightSpec.parse("bergman:2,hardy"))
    assert calls == []
    w = MultiWeightSpec.parse("bergman:2.5,bergman:1.5")
    is_W_hypercontraction(t, w)
    assert calls == [t.dim, t.dim]
    # the scan keeps no powers: only the fractional sums grew the stacks, to
    # their cuts, and the remainder of each cut read T^m one power past it
    cuts = [_effective_degree(t, i, _row(level)) for i, level in enumerate(_levels(w))]
    assert [len(t.power_stack(i, 1).base) for i in range(t.n)] == [m + 1 for m in cuts]


def test_classification_holds_only_the_limit_of_its_weights():
    # every swap-family member's vertex value serves its certificate; only
    # the weights' own is held for the checks and models that read it again
    t = random_commuting_contractions(66, 4, 2, radius=0.6)
    w = MultiWeightSpec.parse("bergman:2.5,bergman:2")
    report = is_W_hypercontraction(t, w)
    assert sum(c.kind == "limit" for c in report.certificates) == 4
    limits = [key for key in t._facts if key[1] == "limit"]
    assert limits == [((0, 1), "limit", _levels(w))]
    assert defect_limit(t, w).limit is t._facts[limits[0]][0]


def test_defect_limit_is_held_per_weights():
    t = random_commuting_contractions(66, 5, 2, radius=0.5)
    w = MultiWeightSpec.parse("bergman:1.5,bergman:2.5")
    first = defect_limit(t, w)
    again = defect_limit(t, w, tol=1.0)
    # the value and its floor are held; the verdict on them is per tolerance
    assert again.limit is first.limit and not first.limit.flags.writeable
    assert again.tail_estimate == first.tail_estimate and again.converged
    fresh = defect_limit(OperatorTuple(t.ops), w)
    assert np.array_equal(fresh.limit, first.limit) and fresh.limit is not first.limit
    other = defect_limit(t, MultiWeightSpec.parse("bergman:2.5,bergman:1.5"))
    assert other.limit is not first.limit


def test_tail_estimate_takes_each_power_norm_once(monkeypatch):
    import wberg.hyper as hyper

    t = random_commuting_contractions(66, 5, 2, radius=0.5)
    w = MultiWeightSpec.parse("bergman:1.5,bergman:2.5")
    fresh = defect_limit(OperatorTuple(t.ops), w).tail_estimate
    norms = []
    original = hyper.spectral_norm
    monkeypatch.setattr(hyper, "spectral_norm", lambda a: norms.append(a) or original(a))
    for _ in range(2):
        is_W_hypercontraction(t, w)
        subtuple_inheritance_check(t, w, (1,))
    assert defect_limit(t, w).tail_estimate == fresh
    held = sorted((i, k) for i in range(t.n) for k in t._stacks[i]._power_norms)
    # one exponent per cutoff tried: the numerical-support search of each
    # fractional factor reads T^8, T^16, ... up to its cut (32 and 16 here),
    # which the tail estimate then reads again from the cache; the swapped
    # Hardy levels are exact differences and take no norm
    assert held == [(0, 8), (0, 16), (0, 32), (1, 8), (1, 16)]
    assert len(norms) == len(held)
    # each is the norm of T^k as the power stack holds it
    for i, k in held:
        assert t._stacks[i]._power_norms[k] == original(t.power_stack(i, k + 1)[k])


# ---------------------------------------------------------------------------
# numerical-support cutoffs
# ---------------------------------------------------------------------------

# a decreasing explicit list whose reciprocal coefficients never vanish
LONG_EXPLICIT = WeightSpec.from_values([(k + 1.0) ** -1.5 for k in range(48)])


@pytest.mark.parametrize("spec", [WeightSpec.bergman(1.5), WeightSpec.bergman(2.5),
                                  WeightSpec.bergman(3.7), LONG_EXPLICIT],
                         ids=["bergman1.5", "bergman2.5", "bergman3.7", "explicit"])
@pytest.mark.parametrize("radius", [0.3, 0.8, 0.95])
def test_numerical_support_remainder_is_certified(radius, spec):
    # a preset's expanded row is its fractional factor, followed by `whole`
    # differences of norm at most 2; an explicit list's is its reciprocal
    t = random_commuting_contractions(70, 4, 2, radius=radius)
    w = MultiWeightSpec((spec, spec))
    level = _levels(w)[0]
    row = _row(level)
    whole = 0 if spec.exponent is None else _split(level)[0]
    full = len(row)
    cuts = [_effective_degree(t, i, row) for i in range(t.n)]
    c = np.abs(row)
    norms = [np.linalg.norm(np.linalg.matrix_power(t[i].mat, cuts[i]), 2) ** 2
             for i in range(t.n)]
    for i in range(t.n):
        if cuts[i] < full:  # the certificate of the cut: below rounding per unit of X
            assert norms[i] * np.sum(c[cuts[i]:]) <= EPS / 2 * c[0]
    if radius == 0.3:
        assert max(cuts) < 32
    for r in (0.5, 0.9, 1.0):
        weighted = c * r ** np.arange(full)
        sums = [2.0**whole * np.sum(weighted)] * t.n
        tails = [2.0**whole * norms[i] * np.sum(weighted[cuts[i]:]) for i in range(t.n)]
        # the nested levels differ by sum_i tail_i prod_{j != i} sum_j; each
        # side carries the a-priori rounding of products of up to 2 * full
        # factors and a sum of full terms per level, relative to prod_j sum_j
        remainder = tails[0] * sums[1] + sums[0] * tails[1]
        rounding = 2 * (2 * full + t.dim) * t.n * t.dim * EPS * np.prod(sums)
        gap = defect_series(t, w, (r, r)) - _factored_reference(t, w, (r, r), full=True)
        assert np.linalg.norm(gap, 2) <= remainder + rounding


@pytest.mark.parametrize("beta", [1.5, 2.5, 3.7, 4.5])
@pytest.mark.parametrize("modulus", [0.3, 0.5, 0.7])
def test_scalar_vertex_defect_at_numerical_support(modulus, beta):
    t = scalar_tuple([modulus * np.exp(0.7j)])
    w = MultiWeightSpec.parse(f"bergman:{beta}")
    assert _effective_degree(t, 0, _row(beta)) < DEGREE_CAP
    vertex = defect_series(t, w, (1.0,))
    assert np.array_equal(vertex, _factored_reference(t, w, (1.0,), full=True))
    exact = (1.0 - modulus**2) ** beta
    assert abs(vertex[0, 0] - exact) <= 1e-14 * exact


def test_fractional_check_tuple_cuts_below_the_cap():
    t = random_commuting_contractions(1, 16, 2, radius=0.3)
    w = MultiWeightSpec.parse("bergman:1.5,bergman:2.5")
    assert all(_effective_degree(t, i, _row(level)) < 64 for i, level in enumerate(_levels(w)))


@pytest.mark.parametrize("name", ["nilpotent-pair-bergman", "multishift-2d",
                                  "random-pair-crosscheck"])
def test_support_and_nilpotent_cutoffs_take_no_search(monkeypatch, name):
    # integer beta and Hardy are exact finite differences: classifying at
    # them scans no nilpotency order, takes no power norm and drops nothing
    import wberg.hyper as hyper
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases

    data = next(c for c in corpus_cases() if c["name"] == name)
    case = parse_case(data, name=name)
    assert case.weights.integer_betas() is not None
    t = case.build_tuple(None)
    calls = []
    original_power, original_scan = np.linalg.matrix_power, hyper._nilpotency_order
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda mat, k: calls.append(k) or original_power(mat, k))
    monkeypatch.setattr(hyper, "_nilpotency_order",
                        lambda mat, cap: calls.append(cap) or original_scan(mat, cap))
    is_W_hypercontraction(t, case.weights)
    for _, member in case.weights.swap_family():
        res = defect_limit(t, member)
        assert res.converged and res.tail_estimate == 0.0
    assert calls == []


# ---------------------------------------------------------------------------
# closed forms of scalar defects
# ---------------------------------------------------------------------------

def _scalar_defect(values, betas, point):
    """``prod_i (1 - r_i |t_i|^2)^beta_i`` in 50-digit decimal, from the binary values."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        out = decimal.Decimal(1)
        for v, beta, r in zip(values, betas, point):
            modulus2 = decimal.Decimal(v.real) ** 2 + decimal.Decimal(v.imag) ** 2
            out *= (decimal.Decimal(beta) * (1 - decimal.Decimal(r) * modulus2).ln()).exp()
        return out


def _relative_error(got, exact):
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float(abs(decimal.Decimal(float(got)) - exact) / exact)


@pytest.mark.parametrize("beta", [1, 1.5, 2, 2.5, 3.7, 4.5])
@pytest.mark.parametrize("modulus", [0.3, 0.5, 0.9, 0.95])
def test_scalar_defect_matches_its_closed_form(modulus, beta):
    # the factored levels cancel no more than the defect itself; the expanded
    # sum erred by up to 1.2e-10 here (beta 4.5 at 0.95)
    t = scalar_tuple([modulus * np.exp(0.7j)])
    w = MultiWeightSpec.parse(f"bergman:{beta}")
    value = t[0].mat[0, 0]
    for r in (0.5, 0.75, 0.875, 1.0):
        got = defect_series(t, w, (r,))[0, 0]
        assert got.imag == 0.0
        assert _relative_error(got.real, _scalar_defect([value], [beta], [r])) <= 1e-12
    lim = defect_limit(t, w)
    assert lim.converged
    assert _relative_error(lim.limit[0, 0].real, _scalar_defect([value], [beta], [1.0])) <= 1e-12


@pytest.mark.parametrize("moduli", [(0.5, 0.9), (0.95, 0.3), (0.9, 0.95)])
def test_scalar_pair_defect_matches_its_closed_form(moduli):
    t = scalar_tuple([moduli[0] * np.exp(0.7j), moduli[1] * np.exp(-0.4j)])
    w = MultiWeightSpec.parse("bergman:1.5,bergman:3.7")
    values = [t[i].mat[0, 0] for i in range(t.n)]
    for point in [(0.5, 0.5), (0.75, 0.875), (0.875, 0.5), (1.0, 1.0)]:
        got = defect_series(t, w, point)[0, 0].real
        assert _relative_error(got, _scalar_defect(values, [1.5, 3.7], point)) <= 1e-12
    lim = defect_limit(t, w)
    assert lim.converged
    assert _relative_error(lim.limit[0, 0].real,
                           _scalar_defect(values, [1.5, 3.7], (1.0, 1.0))) <= 1e-12


@pytest.mark.parametrize("beta", [1.5, 2.5, 3.7, 4.5])
@pytest.mark.parametrize("modulus", [0.99, 0.999])
def test_scalar_defect_near_the_circle_reports_its_floor(modulus, beta):
    # the fractional factor needs more than DEGREE_CAP terms here: the limit
    # says it has not converged, and its floor bounds the actual error
    t = scalar_tuple([modulus * np.exp(0.7j)])
    lim = defect_limit(t, MultiWeightSpec.parse(f"bergman:{beta}"))
    assert not lim.converged
    exact = _scalar_defect([t[0].mat[0, 0]], [beta], [1.0])
    assert abs(lim.limit[0, 0].real - float(exact)) <= lim.tail_estimate


# ---------------------------------------------------------------------------
# defect limits and operators
# ---------------------------------------------------------------------------

def test_defect_limit_zero_operator():
    t = OperatorTuple.of(Operator([[0.0, 0.0], [0.0, 0.0]]))
    res = defect_limit(t, MultiWeightSpec.of(B2))
    assert res.converged
    assert np.allclose(res.limit, np.eye(2))


def test_defect_limit_nilpotent_direct_and_exact():
    t = nilpotent_commuting_tuple(9, 5, 2, radius=0.6)
    w = MultiWeightSpec.parse("hardy,bergman:2")
    res = defect_limit(t, w)
    direct = defect_series(t, w, (1.0, 1.0))
    assert np.allclose(res.limit, direct, atol=0)


@pytest.mark.parametrize(
    "t",
    [commuting_unitaries(3, 3, 1), random_commuting_contractions(5, 4, 1, radius=0.9)],
    ids=["unitary", "random-contraction"],
)
def test_defect_limit_is_the_vertex_value(t):
    # at fixed cutoffs D(r) is a polynomial in r, so D(1 - h) -> D(1) at rate h
    w = MultiWeightSpec.of(WeightSpec.bergman(1.5))
    res = defect_limit(t, w)
    assert res.r_trace == ((1.0, 0.0),)
    assert np.array_equal(res.limit, defect_series(t, w, (1.0,)))
    gaps = [
        np.linalg.norm(defect_series(t, w, (1.0 - 0.5**j,)) - res.limit, 2)
        for j in range(14, 23)
    ]
    assert gaps[0] > 0
    for a, b in zip(gaps, gaps[1:]):
        assert 1.95 < a / b < 2.05


def test_defect_limit_scalar_closed_form():
    t = scalar_tuple([0.95])
    res = defect_limit(t, MultiWeightSpec.parse("bergman:2.5"))
    assert abs(res.limit[0, 0] - (1.0 - 0.95**2) ** 2.5) < 1e-14
    assert res.tail_estimate >= 0.0


def defect_root(t, w, tol=POSITIVITY_TOL):
    """The defect root as ``run_check`` forms it: the vertex limit, the
    warning of its floor, and its PSD square root."""
    res = defect_limit(t, w, tol)
    res.warn_unconverged(tol)
    return psd_sqrt(res.limit, tol)


def test_defect_root_values():
    t0 = OperatorTuple.of(Operator([[0.0]]))
    assert defect_root(t0, MultiWeightSpec.of(HARDY))[0, 0] == pytest.approx(1.0)
    # single contraction, constant weights: the classical defect
    tri = nilpotent_commuting_tuple(4, 4, 1, radius=0.7)
    d = defect_root(tri, MultiWeightSpec.of(HARDY))
    oracle = np.eye(4) - tri[0].mat @ tri[0].mat.conj().T
    assert np.allclose(d @ d, oracle, atol=1e-12)
    # scalar with quadratic weights
    tval = 0.6 + 0.2j
    ts = scalar_tuple([tval])
    d2 = defect_root(ts, MultiWeightSpec.of(B2))
    assert (d2 @ d2)[0, 0] == pytest.approx((1 - abs(tval) ** 2) ** 2, rel=1e-12)


# ---------------------------------------------------------------------------
# tail operators and purity
# ---------------------------------------------------------------------------

def test_tail_limit_cases():
    # the tail operator Q is the root of the tail limit Q^2 = lim T^k T*^k
    nil = nilpotent_commuting_tuple(2, 4, 1, radius=0.9)
    assert np.linalg.norm(psd_sqrt(nil.tail_limit(0)[0]), 2) < 1e-12
    u = commuting_unitaries(8, 3, 1)
    q_squared, converged = u.tail_limit(0)
    assert np.allclose(psd_sqrt(q_squared), np.eye(3), atol=1e-10)
    assert converged
    mixed = OperatorTuple.of(np.diag([1.0, 0.5]))
    q_squared, _ = mixed.tail_limit(0)
    assert np.allclose(q_squared, np.diag([1.0, 0.0]), atol=1e-12)


def test_tail_limit_needs_a_contraction():
    # a tail limit is only formed on a tuple, whose entries are contractions
    with pytest.raises(NotContractive):
        OperatorTuple.of(np.array([[2.0]])).tail_limit(0)


def test_tail_limit_is_the_conjugation_limit_formed_once():
    t = unitary_times_nilpotent(11, 2, 2)
    eye = np.eye(t.dim, dtype=complex)
    for i in range(t.n):
        limit, converged = t.tail_limit(i)
        expected, expected_converged, _ = conjugation_limit(eye, t[i].mat)
        assert np.array_equal(limit, expected)
        assert converged is expected_converged
        assert not limit.flags.writeable
        with pytest.raises(ValueError):
            limit[0, 0] = 0.0
        assert t.tail_limit(i)[0] is limit
        assert subtuple(t, (i,)).tail_limit(0)[0] is limit


@pytest.mark.parametrize("make", [
    lambda: multishift_tuple(TruncatedSpace(MultiWeightSpec.parse("bergman:2,hardy"), (4, 5))),
    lambda: nilpotent_commuting_tuple(2, 4, 2, radius=0.9),
    lambda: unitary_times_nilpotent(11, 2, 2),
    lambda: random_commuting_contractions(67, 5, 2, radius=0.8),
], ids=["multishift", "nilpotent", "unitary-times-nilpotent", "random-contraction"])
def test_tail_limit_does_not_depend_on_an_earlier_scan(make):
    scanned, fresh = make(), make()
    for i in range(scanned.n):
        scanned.nilpotency_order(i, scanned.dim)
    for i in range(fresh.n):
        limit, converged = fresh.tail_limit(i)
        expected, expected_converged = scanned.tail_limit(i)
        assert _same_bits(limit, expected) and converged is expected_converged


@pytest.mark.parametrize("make", [
    lambda: nilpotent_commuting_tuple(2, 4, 1, radius=0.9),
    lambda: unitary_times_nilpotent(11, 2, 2),
], ids=["nilpotent", "unitary-times-nilpotent"])
def test_nilpotent_entry_tail_is_exactly_zero_without_doublings(monkeypatch, make):
    # a dense nilpotent entry of order p doubles only up to its first
    # exactly zero power T^(2^j): one conjugation for each nonzero power T,
    # T^2, ..., T^(2^(j-1)), ceil(log2 p) in all, no doubling past it, and
    # the exact zero tail (+0 entries) without a scan before it
    import wberg.hyper as hyper

    t = make()
    i = t.n - 1
    calls = []
    original = hyper.conjugation_limit
    monkeypatch.setattr(hyper, "conjugation_limit",
                        lambda *a: calls.append(original(*a)) or calls[-1])
    limit, converged = t.tail_limit(i)
    assert converged and _same_bits(limit, np.zeros((t.dim, t.dim), dtype=complex))
    assert not limit.flags.writeable
    order = t.nilpotency_order(i, t.dim)
    assert order is not None and len(calls) == 1
    assert calls[0][2] == math.ceil(math.log2(order))
    assert is_pure(subtuple(t, (i,))) and len(calls) == 1


def test_multishift_check_takes_no_doublings(monkeypatch, capsys):
    # every entry of a multi-shift is a nilpotent weighted shift, whose tail
    # its O(d) scan makes the exact zero: the purity tests and the joint
    # tail of a check take no doubling
    import json

    import wberg.hyper as hyper
    from wberg.cli import main

    monkeypatch.setattr(hyper, "conjugation_limit",
                        lambda *a: pytest.fail("a tail took doublings"))
    assert main(["check", "--weights", "bergman:2,bergman:2",
                 "--tuple", "multishift:12x12"]) == 0
    body = json.loads(capsys.readouterr().out)["steps"]["check"]
    assert body["pure"] and "multishift_pure" not in body  # purity is reported once
    assert not any(body["q_tail"]["re"]) and not any(body["q_tail"]["im"])


def test_each_coordinate_tail_is_formed_once_per_tuple(monkeypatch):
    # check + dilate-general: the purity test, the joint tail, the first
    # tail split and the empty block's double limit all read T_i's tail
    import wberg.hyper as hyper
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_case

    tails = []
    original = hyper.conjugation_limit

    def counting(s, t, *rest):
        s = np.asarray(s)
        if s.size and np.array_equal(s, np.eye(s.shape[0])):
            tails.append(np.asarray(t))
        return original(s, t, *rest)

    monkeypatch.setattr(hyper, "conjugation_limit", counting)
    data = next(c for c in corpus_cases() if c["name"] == "unitary-nilpotent-general")
    case = parse_case(data, name=data["name"])
    t = case.build_tuple(None)
    monkeypatch.setattr(case, "build_tuple", lambda base_dir: t)
    ok, report = run_case(case)
    assert ok and not report["steps"]["check"]["pure"]
    counts = [sum(np.array_equal(m, op.mat) for m in tails) for op in t]
    # the purity test stops at T_0, whose tail does not vanish; the joint
    # tail reads it again and forms T_1's, each once
    assert counts == [1, 1]


def test_is_pure():
    assert is_pure(nilpotent_commuting_tuple(3, 4, 2, radius=0.8))
    assert is_pure(OperatorTuple.of(Operator(np.diag([0.5, 1 / 3]))))
    mixed = unitary_times_nilpotent(11, 2, 2)
    assert not is_pure(mixed)


# ---------------------------------------------------------------------------
# single-operator classification: the one-tuple case of is_W_hypercontraction
# ---------------------------------------------------------------------------

def _one_variable(t, spec):
    """Classify a single operator as the general model of its one-entry tuple validates it."""
    return is_W_hypercontraction(OperatorTuple.of(t), MultiWeightSpec.of(spec),
                                 lattice_e_points=False)


def _limit_min_eig(rep):
    """The vertex-limit witness of the weight itself (mask 1), or None."""
    return next((c.min_eig for c in rep.certificates if c.kind == "limit" and c.mask == 1),
                None)


def test_is_w_one_variable_zero_operator():
    for spec in (HARDY, B2, WeightSpec.bergman(1.5)):
        assert _one_variable(Operator([[0.0]]), spec).verdict


def test_is_w_one_variable_truncated_shift_with_own_weight():
    for spec in (HARDY, B2, B3):
        space = TruncatedSpace(MultiWeightSpec.of(spec), (6,))
        shift = multishift_tuple(space)[0]
        rep = _one_variable(shift, spec)
        assert rep.verdict
        limit = _limit_min_eig(rep)
        assert limit is not None and limit >= -1e-10


def test_is_w_one_variable_scalar_limit_value():
    tval = 0.8
    rep = _one_variable(Operator([[tval]]), B2)
    assert rep.verdict
    assert _limit_min_eig(rep) == pytest.approx((1 - tval**2) ** 2, rel=1e-10)


def test_is_w_one_variable_failure_witness():
    # norm-0.9 nilpotent fails the quadratic-weight test
    t = nilpotent_commuting_tuple(1, 4, 1, radius=0.9)[0]
    rep = _one_variable(t, B2)
    assert not rep.verdict
    assert any(c.min_eig < -1e-8 for c in rep.certificates)


# ---------------------------------------------------------------------------
# tuple classification
# ---------------------------------------------------------------------------

def test_is_w_coisometries_any_weight():
    t = commuting_unitaries(13, 4, 2)
    for wtxt in ("hardy,hardy", "bergman:2,bergman:1.5", "bergman:3,hardy"):
        assert is_W_hypercontraction(t, MultiWeightSpec.parse(wtxt)).verdict


def test_is_w_coisometry_prepended_to_hypercontraction():
    # a co-isometric first coordinate tensored against a hypercontractive rest
    t = unitary_times_nilpotent(19, 2, 3)
    w = MultiWeightSpec.parse("bergman:3,hardy")
    assert is_W_hypercontraction(t, w).verdict


def test_is_w_multishift_pure():
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    space = TruncatedSpace(w, (4, 4))
    shifts = multishift_tuple(space)
    assert is_W_hypercontraction(shifts, w).verdict
    assert is_pure(shifts)


def test_is_w_failure_records_witness():
    t = nilpotent_commuting_tuple(1, 4, 2, radius=0.9)
    rep = is_W_hypercontraction(t, MultiWeightSpec.parse("bergman:2,bergman:2"))
    assert not rep.verdict
    assert rep.first_failure is not None
    assert rep.first_failure.min_eig < -1e-8


def test_grid_caveat_is_reported():
    t = scalar_tuple([0.5])
    rep = is_W_hypercontraction(t, MultiWeightSpec.of(HARDY))
    assert "grid" in rep.caveat


# ---------------------------------------------------------------------------
# hereditary powers
# ---------------------------------------------------------------------------

def test_delta_power_zero_exponent():
    t = scalar_tuple([0.5, 0.5])
    x = np.array([[2.0]])
    assert delta_power(t, (0, 0), x)[0, 0] == pytest.approx(2.0)


def test_delta_power_scalar_product_rule():
    vals = [0.5, 0.3 + 0.4j]
    t = scalar_tuple(vals)
    out = delta_power(t, (1, 1), np.eye(1))
    expected = np.prod([1 - abs(v) ** 2 for v in vals])
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)


def test_delta_power_matches_alternating_binomial_sum():
    t = random_commuting_contractions(31, 5, 2, radius=0.8)
    beta = (2, 1)
    got = delta_power(t, beta, np.eye(5))
    acc = np.zeros((5, 5), dtype=complex)
    for alpha in itertools.product(range(beta[0] + 1), range(beta[1] + 1)):
        coeff = (-1) ** sum(alpha) * math.comb(beta[0], alpha[0]) * math.comb(beta[1], alpha[1])
        ta = np.linalg.matrix_power(t[0].mat, alpha[0]) @ np.linalg.matrix_power(
            t[1].mat, alpha[1]
        )
        acc += coeff * ta @ ta.conj().T
    assert np.linalg.norm(got - acc, 2) < 1e-10


def test_delta_power_fractional_scalar():
    tval = 0.7
    t = scalar_tuple([tval])
    out = delta_power(t, (1.5,), np.eye(1))
    assert out[0, 0] == pytest.approx((1 - tval**2) ** 1.5, rel=1e-9)


def test_delta_power_fractional_coefficients_are_the_closed_form(monkeypatch):
    import wberg.hyper as hyper
    from wberg.series import _one_minus_z_power

    seen = []
    original = hyper._hereditary_sum
    monkeypatch.setattr(hyper, "_hereditary_sum",
                        lambda c, stacks, x: seen.append(c) or original(c, stacks, x))
    delta_power(scalar_tuple([0.7]), (2.3,), np.eye(1))
    (coeffs,) = seen
    frac = 2.3 - 2
    # summed up to the numerical support of 0.7^2k: 64 terms
    assert len(coeffs) == 64
    assert np.array_equal(coeffs, _one_minus_z_power(frac, 64))
    # the nonnegative expansion 1 - sum b_k x^k, b_1 = d, b_(k+1) = b_k (k - d) / (k + 1)
    bk = np.empty(64)
    bk[0], bk[1] = 0.0, frac
    for k in range(1, 63):
        bk[k + 1] = bk[k] * (k - frac) / (k + 1.0)
    assert np.array_equal(coeffs[1:], -bk[1:]) and coeffs[0] == 1.0


@pytest.mark.parametrize("beta", [2.5, 3.7, 4.5])
@pytest.mark.parametrize("m", [1, 3, 8, 16, 64, 256])
def test_abs_mass_is_the_exact_tail(beta, m):
    # the fractional factor of (1 - z)^beta drops sum_{k >= m} b_k =
    # sum_{k < m} c_k(f), the coefficient of z^(m-1) in (1 - z)^(f-1), which
    # is prod_{0 < j < m} (1 - f / j); reference in 50-digit decimal
    whole, frac = _split(beta)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        f = decimal.Decimal(frac)
        exact = math.prod((1 - f / j for j in range(1, m)), start=decimal.Decimal(1))
    tail, bound = _abs_mass(beta, m)
    assert tail == pytest.approx(2.0**whole * float(exact), rel=1e-12)
    assert bound == 2.0 ** (whole + 1)


@pytest.mark.parametrize("text", ["hardy", "bergman:2", "bergman:3"])
def test_abs_mass_of_integer_presets_ends_with_the_support(text):
    # integer exponents are exact differences: nothing is dropped at any cut,
    # and p differences of norm at most 2 bound the level by 2^p
    spec = WeightSpec.parse(text)
    support = np.flatnonzero(spec.inverse_coeffs(DEGREE_CAP))[-1] + 1
    for m in (0, 1, support):
        assert _abs_mass(spec.exponent, m) == (0.0, 2.0 ** (support - 1))


def test_delta_power_fractional_exact_on_nilpotents():
    t = nilpotent_commuting_tuple(8, 4, 1, radius=0.6)
    out = delta_power(t, (2.5,), np.eye(4))
    cert = psd_check(out, 1e-8)
    assert cert.verdict  # nilpotent contraction at small radius stays positive


# ---------------------------------------------------------------------------
# gamma-contractivity and the equivalence
# ---------------------------------------------------------------------------

def test_is_gamma_scalar_pair():
    assert is_gamma_contractive(scalar_tuple([0.5, 0.5]), (1, 1)).verdict


def test_is_gamma_coisometries():
    t = commuting_unitaries(23, 3, 2)
    for gamma in [(1, 1), (3, 2)]:
        assert is_gamma_contractive(t, gamma).verdict


def test_is_gamma_failure_witness():
    t = nilpotent_commuting_tuple(1, 4, 2, radius=0.9)
    rep = is_gamma_contractive(t, (2, 2))
    assert not rep.verdict
    assert rep.first_failure is not None


def test_equivalence_scalar_sweep():
    for a in (0.2, 0.5, 0.8):
        for b in (0.3, 0.9):
            rep = equivalence_crosscheck(scalar_tuple([a, b]), (2, 2))
            assert rep.agree and rep.gamma_report.verdict


def test_equivalence_multishift():
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    shifts = multishift_tuple(TruncatedSpace(w, (4, 4)))
    rep = equivalence_crosscheck(shifts, (2, 2))
    assert rep.agree and rep.w_report.verdict


def test_equivalence_rejects_expansive_upstream():
    with pytest.raises(NotContractive):
        OperatorTuple.of(Operator([[1.2]]), Operator([[0.5]]))


@pytest.mark.parametrize("gamma", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_equivalence_seeded_pairs(gamma):
    for seed in range(10):
        t = random_commuting_contractions(seed, 4 + seed % 3, 2, radius=0.9)
        assert equivalence_crosscheck(t, gamma).agree


def test_real_gamma_finite_criterion_downward_closed():
    # passing at a larger exponent must propagate down the checked set
    for seed in range(6):
        t = nilpotent_commuting_tuple(seed, 5, 2, radius=0.5)
        rep = is_gamma_contractive(t, (1.5, 2.0))
        verdicts = dict(rep.witnesses)
        for beta, eig in rep.witnesses:
            for beta2, eig2 in rep.witnesses:
                if all(x <= y for x, y in zip(beta, beta2)):
                    if eig2 >= -1e-8:  # larger exponent passes
                        assert eig >= -1e-8 or not np.all(
                            [x <= y for x, y in zip(beta, beta2)]
                        )


# ---------------------------------------------------------------------------
# subtuples
# ---------------------------------------------------------------------------

def test_subtuple_full_set_is_identity():
    t = nilpotent_commuting_tuple(6, 4, 2, radius=0.5)
    sub = subtuple(t, (0, 1))
    assert all(np.array_equal(a.mat, b.mat) for a, b in zip(sub, t))
    assert sub is t and subtuple(t, range(t.n)) is t and subtuple(t, (1, 0, 1)) is t


@pytest.mark.parametrize("make", [
    lambda: multishift_tuple(TruncatedSpace(MultiWeightSpec.parse("bergman:2,hardy,bergman:1.5"),
                                            (3, 4, 3))),
    lambda: random_commuting_contractions(63, 4, 3, radius=0.8),
], ids=["multishift-3x4x3", "random-contraction-3"])
def test_subtuple_of_a_validated_tuple_is_not_validated_again(monkeypatch, make):
    # contractivity and commutation pass to a subset of validated entries, so
    # the sub-tuple takes no SVD, no norm decision and no commutator product
    import wberg.hyper as hyper

    t = make()
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append("svd"))
    monkeypatch.setattr(hyper, "threshold_norm", lambda *a: calls.append("threshold_norm"))
    monkeypatch.setattr(hyper, "spectral_norm", lambda *a: calls.append("spectral_norm"))
    monkeypatch.setattr(OperatorTuple, "__post_init__", lambda self: calls.append("validate"))
    lams = [(0,), (1, 2), (2, 0)]
    subs = [subtuple(t, lam) for lam in lams]
    monkeypatch.undo()
    assert calls == []
    for lam, sub in zip(lams, subs):
        lam = tuple(sorted(lam))
        fresh = OperatorTuple(tuple(t.ops[i] for i in lam))
        assert sub == fresh and vars(sub).keys() == vars(fresh).keys()
        assert all(a is t.ops[i] for a, i in zip(sub.ops, lam))
        assert all(s is t._stacks[i] for s, i in zip(sub._stacks, lam))
        # one store of facts per family, keyed by the entries' root indices
        assert sub._facts is t._facts and sub._index == lam
        assert fresh._facts is not t._facts and fresh._index == tuple(range(len(lam)))
    assert subtuple(subs[1], (1,))._index == (2,) and subtuple(subs[1], (1,))._facts is t._facts


def test_a_subset_reached_twice_reads_one_fact(monkeypatch):
    # a sub-tuple of a sub-tuple, or the same subset taken again, reads the
    # classification, lattice and vertex limit its entries already have
    t = random_commuting_contractions(63, 4, 3, radius=0.5)
    w = MultiWeightSpec.parse("bergman:2,hardy,bergman:2")
    first = is_W_hypercontraction(subtuple(t, (0, 2)), w.subset((0, 2)))
    lattice = is_gamma_contractive(subtuple(t, (0, 2)), (2, 2))
    limit = defect_limit(subtuple(t, (0, 2)), w.subset((0, 2)))
    held = dict(t._facts)
    calls = []
    original = MultiWeightSpec.swap_family
    monkeypatch.setattr(MultiWeightSpec, "swap_family",
                        lambda self: calls.append(self.n) or original(self))
    again = subtuple(subtuple(t, (0, 2)), (0, 1))
    assert again is not t and again._index == (0, 2)
    assert is_W_hypercontraction(again, w.subset((0, 2))) == first
    assert is_gamma_contractive(subtuple(t, [2, 0]), (2.0, 2.0)) is lattice
    assert defect_limit(subtuple(t, (2, 0)), w.subset((0, 2))).limit is limit.limit
    assert calls == [] and t._facts == held
    # another subset on the same weights is a fact of its own
    is_W_hypercontraction(subtuple(t, (0, 1)), w.subset((0, 2)))
    assert calls == [2] and len(t._facts) > len(held)


def test_subtuple_inheritance_coisometries():
    t = commuting_unitaries(29, 3, 3)
    w = MultiWeightSpec.parse("bergman:2,hardy,bergman:1.5")
    for lam in [(0,), (1, 2), (0, 2)]:
        rep = subtuple_inheritance_check(t, w, lam)
        assert rep.consistent and rep.parent.verdict and rep.sub.verdict


def test_subtuple_inheritance_seeded_pair():
    t = nilpotent_commuting_tuple(17, 5, 2, radius=0.45)
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    parent = is_W_hypercontraction(t, w)
    assert parent.verdict
    rep = subtuple_inheritance_check(t, w, (0,))
    assert rep.consistent and rep.sub.verdict


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def test_loewner_monotonicity_in_r():
    t = nilpotent_commuting_tuple(41, 5, 2, radius=0.5)
    w = MultiWeightSpec.parse("hardy,bergman:2")
    assert is_W_hypercontraction(t, w).verdict
    pts = [(0.3, 0.3), (0.6, 0.6), (0.9, 0.9)]
    for a, b in zip(pts, pts[1:]):
        gap = defect_series(t, w, a) - defect_series(t, w, b)
        assert psd_check(gap, 1e-10).verdict


def test_appendix_two_parameter_monotonicity():
    t = nilpotent_commuting_tuple(43, 5, 2, radius=0.5)
    w = MultiWeightSpec.parse("bergman:2,hardy")
    rep = two_parameter_monotonicity_check(
        t, w, lam=(0,), r_points=[(0.4,), (0.7,), (0.95,)],
        beta_points=[(0,), (1,), (2,)], tol=1e-10,
    )
    assert rep.ok and rep.pairs_checked > 0


def test_appendix_monotonicity_scalar_chain():
    t = scalar_tuple([0.6, 0.8])
    w = MultiWeightSpec.parse("bergman:2,hardy")
    rep = two_parameter_monotonicity_check(
        t, w, lam=(0,), r_points=[(0.25,), (0.5,), (1.0,)],
        beta_points=[(0,), (1,), (3,)], tol=1e-12,
    )
    assert rep.ok
    # scalar oracle: f(r, b) = |t2|^(2b) * (1 - r |t1|^2)^2
    vals = {}
    for r in (0.25, 0.5, 1.0):
        for b in (0, 1, 3):
            vals[(r, b)] = 0.8 ** (2 * b) * (1 - r * 0.36) ** 2
    for (r1, b1), v1 in vals.items():
        for (r2, b2), v2 in vals.items():
            if r1 <= r2 and b1 <= b2:
                assert v1 >= v2 - 1e-12


def test_telescoping_identity():
    # the defect of a sub-tuple expands into conjugated full defects plus a
    # geometric remainder controlled by the dropped power
    t = nilpotent_commuting_tuple(47, 5, 2, radius=0.6)
    w_sub = MultiWeightSpec.of(B2)
    w_ext = MultiWeightSpec.parse("bergman:2,hardy")
    r1, r2 = 0.7, 0.6
    lhs = defect_series(subtuple(t, (0,)), w_sub, (r1,))
    full = defect_series(t, w_ext, (r1, r2))
    acc = np.zeros_like(lhs)
    tn = t[1].mat
    for k in range(8):  # nilpotency order 5: remainder is exactly zero
        tk = np.linalg.matrix_power(tn, k)
        acc += (r2**k) * tk @ full @ tk.conj().T
    assert np.linalg.norm(lhs - acc, 2) < 1e-12


def test_telescoping_remainder_bound():
    t = scalar_tuple([0.5, 0.9])
    w_sub = MultiWeightSpec.of(HARDY)
    w_ext = MultiWeightSpec.parse("hardy,hardy")
    r = (0.8, 0.8)
    lhs = defect_series(subtuple(t, (0,)), w_sub, (r[0],))
    full = defect_series(t, w_ext, r)
    for K in (3, 8, 16):
        acc = sum(
            (r[1] ** k) * (0.9 ** (2 * k)) * full for k in range(K + 1)
        )
        remainder = np.linalg.norm(lhs - acc, 2)
        bound = (r[1] * 0.81) ** (K + 1) * np.linalg.norm(lhs, 2) / (1 - r[1] * 0.81)
        assert remainder <= bound * (1 + 1e-9)


def test_explicit_weight_list_flows_through_classification():
    spec = WeightSpec.from_values([1.0, 0.5, 0.25, 0.125, 0.0625])
    w = MultiWeightSpec.of(spec)
    t = scalar_tuple([0.4])
    rep = is_W_hypercontraction(t, w)
    assert rep.verdict
    val = defect_series(t, w, (0.5,))
    assert val[0, 0].real == pytest.approx(
        float(np.sum(spec.inverse_coeffs(5) * (0.5 * 0.16) ** np.arange(5)))
    )


def test_defect_root_warns_on_unconverged_grid():
    import warnings as _warnings

    from wberg.errors import SeriesTailTooLarge

    t = commuting_unitaries(3, 3, 1)
    w = MultiWeightSpec.of(WeightSpec.bergman(1.5))
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        # the tail of a non-integer weight on a unitary is not certified at
        # the cap, so the warning fires; the exact defect is 0, and the
        # difference after the truncated fractional factor cancels it to rounding
        root = defect_root(t, w, tol=1e-12)
    assert any(issubclass(c.category, SeriesTailTooLarge) for c in caught)
    assert np.linalg.norm(root @ root, 2) < 1e-14


# ---------------------------------------------------------------------------
# classification reports held on the tuple
# ---------------------------------------------------------------------------

FRACTIONAL_PAIR = {"weights": "bergman:1.5,bergman:2.5",
                   "tuple": "random-contraction:5:4:2:0.4", "degrees": [8, 8]}


# integer weights join the lattice; the equivalence step classifies at the
# weights bergman:1,bergman:2 it builds from gamma, which are these levels
INTEGER_PAIR = {"weights": "hardy,bergman:2", "tuple": "random-contraction:5:4:2:0.4",
                "degrees": [8, 8], "gamma": [1, 2]}


def _pair_case(run, pair=FRACTIONAL_PAIR):
    from wberg.config import parse_case

    return parse_case({**pair, "name": "held-" + "-".join(run), "run": run})


@pytest.mark.parametrize("pair, run, arities, points", [
    (FRACTIONAL_PAIR, ["check", "subtuple"], [1, 2], 0),
    (FRACTIONAL_PAIR, ["check", "dilate-pure"], [2], 0),
    (FRACTIONAL_PAIR, ["check", "monotonicity"], [2], 0),
    (INTEGER_PAIR, ["check", "dilate-general"], [2], 6),
    (INTEGER_PAIR, ["check", "equivalence", "dilate-pure"], [2], 6),
    # the sub-tuple of the first entry adds its own lattice 0 <= beta <= 1
    (INTEGER_PAIR, ["equivalence", "subtuple", "monotonicity"], [1, 2], 8),
], ids=[f"run{i}-arities{i}" for i in range(6)])
def test_run_case_classifies_each_tuple_once(monkeypatch, pair, run, arities, points):
    # the swap family is walked once per classification body, so its calls
    # count the classifications that were actually computed, by arity; with
    # integer weights each lattice point is formed once as well
    import wberg.hyper as hyper
    from wberg.pipelines import run_case

    calls, lattice = [], []
    original = MultiWeightSpec.swap_family
    monkeypatch.setattr(MultiWeightSpec, "swap_family",
                        lambda self: calls.append(self.n) or original(self))
    power = hyper.delta_power
    monkeypatch.setattr(hyper, "delta_power", lambda t, beta, *a, **k: (
        lattice.append(tuple(beta)) or power(t, beta, *a, **k)))
    ok, _ = run_case(_pair_case(run, pair))
    assert ok
    assert sorted(calls) == arities
    assert len(lattice) == len(set(lattice)) == points


@pytest.mark.parametrize("name, series_calls, lattice_calls", [
    ("scalar-pair-bergman", 21, 12),
    ("random-pair-crosscheck", 16, 9),
])
def test_corpus_case_forms_each_sum_once(monkeypatch, name, series_calls, lattice_calls):
    # check and equivalence share the lattice and the defect certificates, so
    # the lattice 0 <= beta <= gamma is formed once per case
    import wberg.hyper as hyper
    from wberg.config import parse_case
    from wberg.corpus import corpus_cases
    from wberg.pipelines import run_case

    counts = {"defect_series": 0, "delta_power": 0}
    for fn in counts:
        original = getattr(hyper, fn)
        monkeypatch.setattr(hyper, fn, lambda *a, _fn=fn, _o=original, **k: (
            counts.__setitem__(_fn, counts[_fn] + 1) or _o(*a, **k)))
    data = next(c for c in corpus_cases() if c["name"] == name)
    ok, _ = run_case(parse_case(dict(data), name=name))
    assert ok
    assert counts["defect_series"] <= series_calls
    assert counts["delta_power"] == lattice_calls


def test_held_report_key():
    t = nilpotent_commuting_tuple(17, 5, 2, radius=0.45)
    w = MultiWeightSpec.parse("bergman:2,bergman:2")

    def formed(query):
        # the report a query gives and the keys of the facts it formed
        before = set(t._facts)
        rep = query()
        return rep, {key[1:] for key in set(t._facts) - before}

    grid = ((0.5, 0.5), (0.75, 0.75), (0.875, 0.875))
    base, new = formed(lambda: is_W_hypercontraction(t, w))
    assert new == {("defect", (2.0, 2.0), grid, 1e-8), ("lattice", (2.0, 2.0), 1e-8),
                   ("limit", (2.0, 2.0))}
    defect = t._facts[((0, 1), "defect", (2.0, 2.0), grid, 1e-8)]
    # the same grid written out or the same tolerance: no new fact
    for query in (lambda: is_W_hypercontraction(t, w, r_grid=list(grid)),
                  lambda: is_W_hypercontraction(t, w, tol=1e-8)):
        rep, new = formed(query)
        assert rep == base and rep.certificates[:len(defect)] == defect and not new
    # the report without the lattice is the held defect certificates alone
    without, new = formed(lambda: is_W_hypercontraction(t, w, lattice_e_points=False))
    assert without.certificates is defect and not new
    assert len(without.certificates) < len(base.certificates)
    assert base.certificates[len(defect):] == tuple(
        c for c in base.certificates if c.kind == "lattice")
    fresh = [
        (lambda: is_W_hypercontraction(t, w, tol=1e-9),
         {("defect", (2.0, 2.0), grid, 1e-9), ("lattice", (2.0, 2.0), 1e-9)}),
        (lambda: is_W_hypercontraction(t, w, r_grid=[0.5, 0.9]),
         {("defect", (2.0, 2.0), ((0.5, 0.5), (0.9, 0.9)), 1e-8)}),
        (lambda: is_W_hypercontraction(t, MultiWeightSpec.parse("bergman:2,hardy")),
         {("defect", (2.0, 1.0), grid, 1e-8), ("lattice", (2.0, 1.0), 1e-8),
          ("limit", (2.0, 1.0))}),
    ]
    reports = []
    for query, keys in fresh:
        rep, new = formed(query)
        assert new == keys and rep.certificates is not base.certificates
        reports.append(rep)
    rep, new = formed(lambda: is_W_hypercontraction(t, w, r_grid=[(0.5, 0.5), (0.9, 0.9)]))
    assert rep == reports[1] and not new
    # Hardy and bergman:1 are one level, so the same weights under other names
    renamed = MultiWeightSpec.parse("bergman:2,bergman:1")
    rep, new = formed(lambda: is_W_hypercontraction(t, renamed))
    assert rep == reports[2] and not new


def test_held_report_auto_lattice_resolves_for_fractional_weights():
    t = nilpotent_commuting_tuple(17, 5, 2, radius=0.45)
    w = MultiWeightSpec.parse("bergman:1.5,bergman:2.5")
    auto = is_W_hypercontraction(t, w)
    without = is_W_hypercontraction(t, w, lattice_e_points=False)
    assert without == auto and without.certificates is auto.certificates
    assert not any(c.kind == "lattice" for c in auto.certificates)
    assert sorted(key[1] for key in t._facts) == ["defect", "limit"]


def test_held_reports_equal_fresh_classifications():
    # every report the memo served equals one computed on a fresh tuple, and
    # the case report is byte-identical to one built from a fresh tuple per step
    import dataclasses

    from wberg.config import report_json
    from wberg.pipelines import run_case

    case = _pair_case(["check", "subtuple"])
    t = case.build_tuple(None)
    held_case = dataclasses.replace(case)
    held_case.build_tuple = lambda base_dir=None: t
    _, report = run_case(held_case)
    # check classifies the pair, and subtuple adds the first entry alone
    assert sorted(key[:2] for key in t._facts) == [
        ((0,), "defect"), ((0,), "limit"), ((0, 1), "defect"), ((0, 1), "limit")]
    for (index, kind, levels, *rest), held in t._facts.items():
        fresh = subtuple(case.build_tuple(None), index)
        w = case.weights.subset(index)
        assert _levels(w) == levels
        if kind == "defect":
            grid, tol = rest
            again = is_W_hypercontraction(fresh, w, r_grid=grid, tol=tol,
                                          lattice_e_points=False).certificates
            assert again == held and again is not held
        else:
            again = defect_limit(fresh, w)
            assert np.array_equal(again.limit, held[0]) and again.limit is not held[0]
            assert again.tail_estimate == held[1]
    steps = {}
    for step in case.run:
        _, one = run_case(dataclasses.replace(case, run=(step,)))
        steps.update(one["steps"])
    assert report_json(report) == report_json({**report, "steps": steps})
