"""Series engine: weight generators, truncated arithmetic, inversion, quotients."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from wberg.errors import (
    ArityMismatch,
    BadBeta,
    InvalidWeights,
    NonDecreasingWeights,
    ZeroConstantTerm,
)
from wberg.hyper import DEGREE_CAP
from wberg.series import (
    MultiWeightSpec,
    TruncatedSeries,
    WeightSpec,
    associated_series,
    check_properties,
    invert_series,
    quotient_coeffs,
    reciprocal_series,
    weight_values,
)


def brute_truncated_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent convolution oracle: plain nested loops over multi-indices."""
    out = np.zeros_like(a)
    for idx in itertools.product(*(range(d) for d in a.shape)):
        acc = 0.0
        for sub in itertools.product(*(range(i + 1) for i in idx)):
            rest = tuple(i - s for i, s in zip(idx, sub))
            acc += a[sub] * b[rest]
        out[idx] = acc
    return out


# ---------------------------------------------------------------------------
# weight values
# ---------------------------------------------------------------------------

def test_weight_values_constant():
    assert np.array_equal(weight_values(WeightSpec.hardy(), 4), [1, 1, 1, 1])


def test_weight_values_bergman_two():
    assert np.allclose(weight_values(WeightSpec.bergman(2), 4), [1, 1 / 2, 1 / 3, 1 / 4],
                       rtol=0, atol=0)


def test_weight_values_bergman_fractional_against_lgamma_oracle():
    vals = weight_values(WeightSpec.bergman(1.5), 3)
    oracle = [
        1.0,
        math.exp(math.lgamma(1.5) + math.lgamma(2.0) - math.lgamma(2.5)),
        math.exp(math.lgamma(1.5) + math.lgamma(3.0) - math.lgamma(3.5)),
    ]
    assert vals == pytest.approx(oracle, rel=1e-14)
    assert vals[1] == pytest.approx(1 / 1.5, rel=1e-14)


def test_weight_invariants_and_errors():
    with pytest.raises(BadBeta):
        WeightSpec.bergman(0.5)
    with pytest.raises(NonDecreasingWeights):
        WeightSpec.from_values([1.0, 0.5, 0.7])
    with pytest.raises(InvalidWeights):
        WeightSpec.from_values([0.9, 0.5])
    with pytest.raises(InvalidWeights):
        weight_values(WeightSpec.from_values([1.0, 0.5]), 3)
    for spec in (WeightSpec.hardy(), WeightSpec.bergman(2.5)):
        vals = spec.values(32)
        assert vals[0] == 1.0
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 0)


def test_weight_text_roundtrip():
    for text in ("hardy", "bergman:2", "bergman:1.5", "explicit:[1.0,0.5,0.25]"):
        spec = WeightSpec.parse(text)
        assert WeightSpec.parse(spec.text) == spec
    w = MultiWeightSpec.parse("hardy,bergman:2")
    assert w.n == 2 and w.text == "hardy,bergman:2"


# ---------------------------------------------------------------------------
# associated series and inversion
# ---------------------------------------------------------------------------

def test_associated_series_one_variable():
    assert np.array_equal(
        associated_series(MultiWeightSpec.of(WeightSpec.hardy()), 4).coeffs, [1, 1, 1, 1]
    )
    assert np.array_equal(
        associated_series(MultiWeightSpec.of(WeightSpec.bergman(2)), 4).coeffs, [1, 2, 3, 4]
    )


def test_associated_series_product():
    w = MultiWeightSpec.of(WeightSpec.hardy(), WeightSpec.bergman(2))
    k = associated_series(w, (2, 2))
    for i in range(2):
        for j in range(2):
            assert k.coeffs[i, j] == j + 1


def test_invert_geometric():
    inv = invert_series(TruncatedSeries([1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(inv.coeffs, [1, -1, 0, 0])


def test_invert_bergman_two_gives_alternating_binomials():
    inv = invert_series(TruncatedSeries([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(inv.coeffs, [1, -2, 1, 0])


def test_invert_two_variable_hardy():
    w = MultiWeightSpec.of(WeightSpec.hardy(), WeightSpec.hardy())
    inv = reciprocal_series(w, (3, 3))
    expected = np.zeros((3, 3))
    expected[0, 0] = 1.0
    expected[1, 0] = expected[0, 1] = -1.0
    expected[1, 1] = 1.0
    assert np.allclose(inv.coeffs, expected, atol=0)


def test_invert_takes_one_variable_only():
    # several variables are a product series, inverted by reciprocal_series
    with pytest.raises(ArityMismatch):
        invert_series(TruncatedSeries(np.ones((2, 3))))


def test_series_rejects_bad_cutoffs():
    w = MultiWeightSpec.parse("hardy,hardy")
    with pytest.raises(ArityMismatch):
        reciprocal_series(w, [4])
    with pytest.raises(ValueError):
        reciprocal_series(w, (4, 0))


def test_truncated_multiply_against_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4, 2))
    b = rng.normal(size=(3, 4, 2))
    got = TruncatedSeries(a).mul(TruncatedSeries(b)).coeffs
    assert np.allclose(got, brute_truncated_product(a, b), atol=1e-13)


# degree-1 axes at either end and inside, non-cubic boxes, one to four variables
PRODUCT_SHAPES = [(1,), (7,), (1, 5), (5, 1), (4, 3), (3, 6), (3, 1, 4), (1, 3, 1),
                  (2, 5, 3), (2, 3, 2, 3), (3, 1, 2, 1)]


@pytest.mark.parametrize("shape", PRODUCT_SHAPES, ids=str)
def test_toeplitz_product_against_the_brute_oracle(shape):
    # both sums have at most m terms per coefficient, so each differs from
    # the exact product by at most gamma_m times the product of |a| and |b|
    rng = np.random.default_rng(sum(shape) * 31 + len(shape))
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    got = TruncatedSeries(a).mul(TruncatedSeries(b)).coeffs
    m = math.prod(shape)
    bound = 2 * m * EPS * brute_truncated_product(np.abs(a), np.abs(b))
    assert got.shape == shape
    assert np.all(np.abs(got - brute_truncated_product(a, b)) <= bound)
    # small integers multiply and add exactly in any order
    a, b = rng.integers(-9, 10, size=shape) * 1.0, rng.integers(-9, 10, size=shape) * 1.0
    assert np.array_equal(TruncatedSeries(a).mul(TruncatedSeries(b)).coeffs,
                          brute_truncated_product(a, b))


@pytest.mark.parametrize("shape", [(5, 1), (4, 5), (3, 4, 5)], ids=str)
def test_toeplitz_product_with_zero_leading_rows(shape):
    # the last-axis rows of ``a`` that are zero (the whole first slab and
    # every other row) add nothing; zero rows of ``b`` and an all-zero factor
    # give the oracle's values too
    rng = np.random.default_rng(len(shape))
    a = rng.integers(-9, 10, size=shape) * 1.0
    b = rng.integers(-9, 10, size=shape) * 1.0
    a[0] = 0.0
    a.reshape(-1, shape[-1])[1::2] = 0.0
    b.reshape(-1, shape[-1])[-1] = 0.0
    for x, y in ((a, b), (b, a), (np.zeros(shape), b), (a, np.zeros(shape))):
        got = TruncatedSeries(x).mul(TruncatedSeries(y)).coeffs
        assert np.array_equal(got, brute_truncated_product(x, y))


@pytest.mark.parametrize("text,degrees", [
    ("hardy,hardy,hardy", (12, 12, 12)),
    ("bergman:2", (32,)),
    ("bergman:3,bergman:2", (24, 24)),
    ("bergman:2,bergman:3,hardy", (8, 9, 10)),
])
def test_integer_preset_products_are_exact(text, degrees):
    # every term and partial sum is an integer below 2^53
    from wberg.pipelines import inversion_residuals

    assert inversion_residuals(MultiWeightSpec.parse(text), degrees)["convolution_residual"] == 0.0


def test_product_takes_no_step_per_coefficient(monkeypatch):
    # on a 12 x 12 x 12 box the product reduces no coefficient by itself
    # (no np.sum) and no line of it runs more than once per leading index
    # (a loop header runs once more, to end the loop)
    sums = []
    monkeypatch.setattr(np, "sum", lambda *args, **kwargs: sums.append(args))
    w = MultiWeightSpec.parse("hardy,hardy,hardy")
    k, c = associated_series(w, 12), reciprocal_series(w, 12)
    lines = {}
    code = TruncatedSeries.mul.__code__

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_lineno] = lines.get(frame.f_lineno, 0) + 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        prod = k.mul(c)
    finally:
        sys.settrace(previous)
    assert not sums
    assert lines and max(lines.values()) <= 12 * 12 + 1
    assert np.array_equal(prod.coeffs, TruncatedSeries.one((12, 12, 12)).coeffs)


def test_invert_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        invert_series(TruncatedSeries([0.0, 1.0]))


@pytest.mark.parametrize("texts", [
    ("hardy",), ("bergman:2",), ("bergman:1.5",), ("bergman:3",),
    ("hardy", "bergman:2"), ("bergman:1.5", "bergman:3"),
])
def test_convolution_inverse_residual(texts):
    w = MultiWeightSpec.parse(",".join(texts))
    k = associated_series(w, 16)
    c = reciprocal_series(w, 16)
    prod = k.mul(c)
    delta = TruncatedSeries.one(k.degrees)
    resid = np.max(np.abs((prod - delta).coeffs)) / max(1.0, k.max_abs())
    assert resid < 1e-12


def test_separability_of_multivariate_inverse():
    w = MultiWeightSpec.parse("bergman:1.5,bergman:2")
    c = reciprocal_series(w, (12, 12)).coeffs
    rows = [invert_series(TruncatedSeries(w[i].inverse_weight_values(12))).coeffs
            for i in range(2)]
    outer = np.multiply.outer(rows[0], rows[1])
    scale = max(1.0, float(np.max(np.abs(associated_series(w, (12, 12)).coeffs))))
    assert np.max(np.abs(c - outer)) / scale < 1e-12


# ---------------------------------------------------------------------------
# forward error of the reciprocal coefficients
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _exact_binomial_power(p: Fraction, n: int) -> list[Fraction]:
    """``(1 - z)^p`` coefficients in exact rational arithmetic."""
    out = [Fraction(1)]
    for k in range(1, n):
        out.append(out[-1] * (k - 1 - p) / k)
    return out


@pytest.mark.parametrize("beta", [1.5, 2.5, 3.7, 4.5])
def test_inverse_coeffs_forward_error_against_exact_recurrence(beta):
    # the oracle runs on the double nearest beta, so only the recurrence's
    # own rounding is measured: three roundings per step (the subtraction
    # k - 1 - beta is exact or rounded once, then a product and a quotient)
    got = WeightSpec.bergman(beta).inverse_coeffs(DEGREE_CAP)
    exact = _exact_binomial_power(Fraction(beta), DEGREE_CAP)
    assert got[0] == 1.0
    for k in range(1, DEGREE_CAP):
        rel = abs(Fraction(float(got[k])) - exact[k]) / abs(exact[k])
        assert rel <= 2 * k * EPS, (k, float(rel))


@pytest.mark.parametrize("text,m", [("hardy", 1), ("bergman:2", 2), ("bergman:3", 3)])
def test_inverse_coeffs_integer_presets_are_alternating_binomials(text, m):
    expected = np.zeros(DEGREE_CAP)
    for j in range(m + 1):
        expected[j] = (-1) ** j * math.comb(m, j)
    got = WeightSpec.parse(text).inverse_coeffs(DEGREE_CAP)
    assert np.array_equal(got, expected)
    assert np.flatnonzero(got)[-1] + 1 == m + 1


def test_explicit_inverse_coeffs_against_exact_division():
    spec = WeightSpec.from_values([(k + 1.0) ** -1.5 for k in range(48)])
    a = [Fraction(float(v)) for v in spec.inverse_weight_values(48)]
    exact = [1 / a[0]]
    for k in range(1, 48):
        exact.append(-sum(a[j] * exact[k - j] for j in range(1, k + 1)) / a[0])
    got = spec.inverse_coeffs(48)
    # a-priori bound of a triangular Toeplitz solve (Higham, Thm 8.5):
    # |c - c^| <= gamma_48 |T^-1| |T| |c^|, with T the Toeplitz matrix of a
    abs_c = np.abs(np.array([float(v) for v in exact]))
    abs_a = np.abs(np.array([float(v) for v in a]))
    bound = 48 * EPS * np.convolve(abs_c, np.convolve(abs_a, np.abs(got))[:48])[:48]
    err = np.array([float(abs(Fraction(float(g)) - e)) for g, e in zip(got, exact)])
    assert np.all(err <= bound)
    division = invert_series(TruncatedSeries(spec.inverse_weight_values(48)))
    assert np.array_equal(got, division.coeffs)


def test_reciprocal_series_is_the_outer_product_of_rows():
    w = MultiWeightSpec.parse("bergman:1.5,hardy,bergman:3.7")
    got = reciprocal_series(w, (5, 3, 4)).coeffs
    rows = [w[i].inverse_coeffs(n) for i, n in enumerate((5, 3, 4))]
    assert np.array_equal(got, np.multiply.outer(np.multiply.outer(rows[0], rows[1]), rows[2]))


def test_series_dict_roundtrip():
    w = MultiWeightSpec.parse("hardy,bergman:2")
    k = associated_series(w, (3, 4))
    back = TruncatedSeries.from_dict(k.to_dict())
    assert back.degrees == k.degrees
    assert np.array_equal(back.coeffs, k.coeffs)
    data = k.to_dict()
    assert data["n_vars"] == 2 and data["degrees"] == [3, 4]
    assert len(data["coeffs"]) == 12


# ---------------------------------------------------------------------------
# quotient coefficients
# ---------------------------------------------------------------------------

def test_quotient_equal_arguments_is_delta():
    for spec in (WeightSpec.hardy(), WeightSpec.bergman(2), WeightSpec.bergman(1.5)):
        for r in (0.3, 0.8, 1.0):
            a = quotient_coeffs(spec, r, r, 8)
            assert a[0] == pytest.approx(1.0, abs=1e-14)
            assert np.max(np.abs(a[1:])) < 1e-13


def test_quotient_hardy_closed_form():
    r, s, n = 0.7, 0.4, 10
    a = quotient_coeffs(WeightSpec.hardy(), r, s, n)
    expected = [1.0] + [r ** (m - 1) * (r - s) for m in range(1, n)]
    assert a == pytest.approx(expected, abs=1e-14)


def test_quotient_polynomial_division_oracle():
    # a (x) k(s z) must reproduce k(r z) coefficient by coefficient
    for spec in (WeightSpec.bergman(2), WeightSpec.bergman(1.5)):
        r, s, n = 0.9, 0.55, 20
        a = quotient_coeffs(spec, r, s, n)
        inv_w = spec.inverse_weight_values(n)
        k_s = inv_w * s ** np.arange(n)
        k_r = inv_w * r ** np.arange(n)
        assert np.convolve(a, k_s)[:n] == pytest.approx(list(k_r), abs=1e-13)


def test_quotient_nonnegative_at_unit_numerator():
    for spec in (WeightSpec.hardy(), WeightSpec.bergman(1.5), WeightSpec.bergman(3)):
        for s in (0.25, 0.5, 0.9):
            assert np.min(quotient_coeffs(spec, 1.0, s, 24)) >= -1e-12


# ---------------------------------------------------------------------------
# property report
# ---------------------------------------------------------------------------

def test_check_properties_hardy():
    w = MultiWeightSpec.of(WeightSpec.hardy())
    rep = check_properties(w, [0.3, 0.6, 0.9], 16)
    assert rep.p1_ok
    assert rep.p3_abs_sum == pytest.approx(2.0)
    assert not rep.liminf_assumed


def test_check_properties_bergman_two_abs_sum():
    w = MultiWeightSpec.of(WeightSpec.bergman(2))
    rep = check_properties(w, [0.5], 16)
    assert rep.p3_abs_sum == pytest.approx(4.0)


def test_check_properties_product_positive():
    w = MultiWeightSpec.parse("bergman:2,bergman:2")
    rep = check_properties(w, [(0.4, 0.8), (0.9, 0.2)], 12)
    assert rep.p1_ok
    assert rep.p2_bound >= 1.0


def test_check_properties_flags_explicit_weights():
    w = MultiWeightSpec.of(WeightSpec.from_values([1.0, 0.5, 0.25, 0.125]))
    rep = check_properties(w, [0.5], 4)
    assert rep.liminf_assumed
